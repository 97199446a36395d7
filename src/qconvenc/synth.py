"""Memory synthesis: from a valid code to a minimal-memory partial encoder.

The pipeline is: build the memory commutativity matrix, read off the minimal
memory-qubit count, assign concrete memory operators reproducing the matrix,
lay out the frame-by-frame encoder rows, and append extra information-qubit
rows that provably rule out catastrophic behavior.

Encoder rows describe how one application of the (not yet completed) encoder
unitary must transform Paulis.  An ``EncoderRow`` is two words, its input
and its output, in the encoder layout its docstring states; the shape
(m, n, k) is stated once, by the ``PartialEncoder`` that holds the rows, m
being its operator table's.  Rows are built, checked, combined and
completed on those words.  Memory operators and centralizer elements are
packed words on the m memory qubits, in the ``pauli_to_vec`` layout;
``_place`` widens one into a row.  ``Pauli`` objects are built only for
text, JSON and tests (``_parts``, ``MemoryOperatorTable.op``).
"""

from __future__ import annotations

import operator
import random
import sys
from collections import namedtuple
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .code import ConvolutionalCode, validate_code
from .errors import (
    AssemblyError,
    InvalidCodeError,
    InvalidMatrixError,
    SynthesisFailureError,
    WidthMismatchError,
)
from .pauli import (
    Pauli,
    _Echelon,
    _Value,
    _dependencies,
    _place,
    _product_mismatch,
    _products,
    _restrict,
    _transpose,
    cycle_core,
    gf2_combination,
    gf2_rank,
    operators_from_commutativity,
    swap_halves,
    symplectic_product_vec,
    vec_to_pauli,
)

__all__ = [
    "MemoryCommutativityMatrix",
    "EncoderRow",
    "PartialEncoder",
    "CatastrophicityContext",
    "MemoryOperatorTable",
    "build_commutativity_matrix",
    "verify_consistency",
    "minimal_memory",
    "assign_memory_operators",
    "assemble_partial_encoder",
    "compute_centralizer",
    "CentralizerBasis",
    "find_s1",
    "add_noncatastrophic_rows",
    "has_catastrophic_combination",
    "synthesize",
    "SynthesisResult",
]


class MemoryCommutativityMatrix(
    _Value, namedtuple("MemoryCommutativityMatrix", "rows index_map")
):
    """Symmetric GF(2) matrix of deferred commutation obligations.

    ``index_map[r]`` gives the (generator, frame) pair, both 1-based, that row
    r stands for; rows are ordered lexicographically by that pair.  Entry
    (r, s) is 1 exactly when the corresponding memory operators must
    anticommute for the streamed generators to commute across frames.
    ``rows`` holds the matrix as row words, bit s of rows[r] being entry
    (r, s).  ``rank`` is eliminated on each read.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def rank(self) -> int:
        return gf2_rank(self.rows)


def _memory_indices(code: ConvolutionalCode) -> List[Tuple[int, int]]:
    return [
        (i, j)
        for i, gen in enumerate(code.generators, start=1)
        for j in range(1, gen.degree)
    ]


def build_commutativity_matrix(code: ConvolutionalCode) -> MemoryCommutativityMatrix:
    """Forward-recursion matrix; refuses invalid codes with their violations."""
    result = validate_code(code)
    if not result.valid:
        raise InvalidCodeError(result.violations)
    return MemoryCommutativityMatrix(_forward_matrix(code), _memory_indices(code))


def _forward_matrix(code: ConvolutionalCode) -> List[int]:
    """The commutativity matrix, as row words, of a code already known to be valid.

    Entry ((i,j),(i2,j2)) is the parity of products between later blocks,
    sum over t >= 1 of <h_{i,j+t}, h_{i2,j2+t}>, that is
    parity((word_i >> 2nj) & (swapped_i2 >> 2nj2)) on the stream words:
    the shifts drop the first j and j2 frames.
    """
    index_map = _memory_indices(code)
    gens = code.generators
    swapped = [g.swapped for g in gens]
    frame = 2 * code.n
    later = [gens[i - 1].word >> frame * j for i, j in index_map]
    later_swapped = [swapped[i - 1] >> frame * j for i, j in index_map]
    return _products(later, later_swapped)


def _backward_matrix(code: ConvolutionalCode) -> List[int]:
    """Same obligations accumulated from earlier blocks instead of later ones.

    Entry ((i,j),(i2,j2)) is sum over 0 <= t < min(j, j2) of
    <h_{i,j-t}, h_{i2,j2-t}>, that is parity(((word_i & low(2nj)) << 2nj2)
    & ((swapped_i2 & low(2nj2)) << 2nj)): the first j and j2 frames, aligned
    so that frame j meets frame j2 (here both on frame ``max_degree``).
    """
    index_map = _memory_indices(code)
    gens = code.generators
    swapped = [g.swapped for g in gens]
    frame = 2 * code.n
    top = code.max_degree

    def head(word: int, j: int) -> int:
        return (word & ((1 << frame * j) - 1)) << frame * (top - j)

    earlier = [head(gens[i - 1].word, j) for i, j in index_map]
    earlier_swapped = [head(swapped[i - 1], j) for i, j in index_map]
    return _products(earlier, earlier_swapped)


def verify_consistency(code: ConvolutionalCode) -> int:
    """1 when forward and backward accumulation agree entrywise, else 0.

    Agreement for every pair is equivalent to the code's validity, so this is
    an independent route to the same verdict as validate_code.
    Not in ``qconvenc.__all__``: ``synthesize`` proves it; perfbench times this.
    """
    if not validate_code(code).valid:
        return 0
    return int(_forward_matrix(code) == _backward_matrix(code))


def minimal_memory(omega: MemoryCommutativityMatrix) -> int:
    """Minimal memory-qubit count: dim - rank/2.

    Symplectic Gram-Schmidt splits omega into c = rank/2 hyperbolic pairs and
    d = dim - rank isotropic rows; each takes one qubit, so c + d qubits
    suffice.  No fewer do: dim independent operators on m qubits with Gram
    matrix omega span a space V of dimension dim whose radical V & V^perp
    has dimension dim - rank.  The radical lies in V^perp, of dimension
    2m - dim, so dim V + dim rad V <= 2m, i.e. m >= dim - rank/2.
    """
    rank = omega.rank
    if rank % 2 != 0:
        raise InvalidMatrixError(
            f"commutativity matrix has odd rank {rank}; it cannot be symplectic"
        )
    return omega.dim - rank // 2


def _check_memory_words(m: int, words: Iterable[int]) -> int:
    """int m; refuse a non-integer m (``TypeError``), then m < 0 or a word
    outside [0, 2^(2m)) (``WidthMismatchError``)."""
    m = operator.index(m)
    if m < 0:
        raise WidthMismatchError(f"no memory has {m} qubits")
    for word in words:
        if word < 0 or word >> 2 * m:
            raise WidthMismatchError(f"word {word:#x} does not fit {m} memory qubits")
    return m


class MemoryOperatorTable(_Value, namedtuple("MemoryOperatorTable", "m ops index_map")):
    """Concrete memory operators g_{i,j} on m qubits, keyed by (i, j).

    ``ops`` maps (i, j) to a packed word in the ``pauli_to_vec`` layout on
    m qubits, checked by ``_check_memory_words``.  ``op`` reads one as a
    ``Pauli``, for text.
    """

    __slots__ = ()

    def __new__(
        cls, m: int, ops: Dict[Tuple[int, int], int], index_map: List[Tuple[int, int]]
    ) -> "MemoryOperatorTable":
        return tuple.__new__(cls, (_check_memory_words(m, ops.values()), ops, index_map))

    def op(self, i: int, j: int) -> Pauli:
        return vec_to_pauli(self.ops[(i, j)], self.m)

    def as_list(self) -> List[int]:
        return [self.ops[key] for key in self.index_map]


def assign_memory_operators(omega: MemoryCommutativityMatrix) -> MemoryOperatorTable:
    """Deterministic minimal-memory operator assignment reproducing omega.

    Memory qubits are claimed in the order encoding brings the slots into
    play: frame index first, then generator index.  That ordering pins down
    which qubit each hyperbolic pair or isotropic row lands on.
    """
    n = omega.dim
    order = sorted(range(n), key=lambda r: (omega.index_map[r][1], omega.index_map[r][0]))
    ops = operators_from_commutativity(omega.rows, order=order)
    table = {omega.index_map[r]: ops[r] for r in range(n)}
    return MemoryOperatorTable(minimal_memory(omega), table, list(omega.index_map))


class EncoderRow(_Value, namedtuple("EncoderRow", "inputs outputs")):
    """One input-output Pauli constraint on an encoder unitary, as two words.

    ``inputs`` and ``outputs`` are packed Paulis on the w = m + n qubits of
    the ``PartialEncoder`` that holds the row, laid out as ``pauli_to_vec``.
    Input qubits are memory [0, m), ancilla [m, w - k) and information
    [w - k, w); output qubits are physical [0, n) and memory [n, w).  This
    is the one statement of the encoder layout, which tableaux and their
    state diagrams share; ``_parts`` cuts a pair of words, ``_core`` packs it.
    """

    __slots__ = ()


def _parts(inputs: int, outputs: int, n: int, k: int, m: int) -> Tuple[Pauli, ...]:
    """The five Paulis of an (input, output) word pair, cut as ``EncoderRow`` lays it out."""
    w = m + n
    return (
        vec_to_pauli(_restrict(inputs, w, 0, m), m),
        vec_to_pauli(_restrict(inputs, w, m, w - k), n - k),
        vec_to_pauli(_restrict(inputs, w, w - k, w), k),
        vec_to_pauli(_restrict(outputs, w, 0, n), n),
        vec_to_pauli(_restrict(outputs, w, n, w), m),
    )


def _core(pairs: Iterable[Tuple[int, int]], n: int, k: int, m: int) -> List[int]:
    """``cycle_core`` of the edges of zero-physical (input, output) word pairs.

    Pair t, in the ``EncoderRow`` layout, is the edge ``mem_in | mem_out <<
    2m | label << 4m``, the label being the 2k information bits, then a tag
    whose bit t marks pair t.  The physical output is not read.
    """
    w = m + n
    edges = [
        _restrict(x, w, 0, m) | _restrict(y, w, n, w) << 2 * m
        | (_restrict(x, w, w - k, w) | 1 << 2 * k + t) << 4 * m
        for t, (x, y) in enumerate(pairs)
    ]
    return cycle_core(edges, 2 * m)


class PartialEncoder(_Value, namedtuple("PartialEncoder", "memory_ops n k rows added_rows")):
    """Generator rows plus any added rows, on the memory of an operator table.

    The shape is stated once: m is ``memory_ops.m``, n and k are fields.
    ``rows`` and ``added_rows`` are stored as tuples, and checked once,
    here: a ``memory_ops`` that is not a ``MemoryOperatorTable``, or a
    non-integer n or k, raises ``TypeError``; k outside 0..n, or a row word
    that is negative or does not fit 2(m + n) bits, raises
    ``WidthMismatchError``, and the first pair of ``all_rows``, in
    ``itertools.combinations`` order, whose inputs and outputs have
    different products raises ``AssemblyError``.  The stages that read an
    encoder trust its rows.
    """

    __slots__ = ()

    def __new__(
        cls,
        memory_ops: MemoryOperatorTable,
        n: int,
        k: int,
        rows: Iterable[EncoderRow],
        added_rows: Iterable[EncoderRow] = (),
    ) -> "PartialEncoder":
        if not isinstance(memory_ops, MemoryOperatorTable):
            raise TypeError(f"memory_ops {memory_ops!r} is not a MemoryOperatorTable")
        rows, added_rows = tuple(rows), tuple(added_rows)
        n, k = operator.index(n), operator.index(k)
        w = memory_ops.m + n
        if not 0 <= k <= n:
            raise WidthMismatchError(f"no encoder has n={n}, k={k}")
        ins, outs = [x for x, _ in rows + added_rows], [y for _, y in rows + added_rows]
        for x, y in zip(ins, outs):
            if x < 0 or y < 0 or (x | y) >> 2 * w:
                raise WidthMismatchError(f"words {x:#x}, {y:#x} do not fit {w} qubits")
        pair = _product_mismatch(ins, outs, w)
        if pair is not None:
            a, b = pair
            lhs = symplectic_product_vec(ins[a], ins[b], w)
            raise AssemblyError(
                f"rows {a + 1} and {b + 1} disagree: inputs "
                f"{'anticommute' if lhs else 'commute'} but outputs do not match"
            )
        return tuple.__new__(cls, (memory_ops, n, k, rows, added_rows))

    @property
    def m(self) -> int:
        return self.memory_ops.m

    @property
    def all_rows(self) -> Tuple[EncoderRow, ...]:
        return self.rows + self.added_rows

    @property
    def width(self) -> int:
        return self.m + self.n

    def parts(self, row: EncoderRow) -> Dict[str, Pauli]:
        """The ``_parts`` of a row of this encoder, under their JSON keys."""
        keys = ("mem_in", "anc_in", "info_in", "phys_out", "mem_out")
        return dict(zip(keys, _parts(*row, self.n, self.k, self.m)))


def assemble_partial_encoder(
    code: ConvolutionalCode, table: MemoryOperatorTable
) -> PartialEncoder:
    """Frame-by-frame rows for each generator.

    Row (i, j) consumes memory g_{i,j-1} (identity at j=1, when the ancilla
    Z_i is consumed instead), emits block h_{i,j} on the physical qubits and
    hands g_{i,j} (identity at j=l_i) to the next frame.
    """
    n, k, m = code.n, code.k, table.m
    w = m + n
    rows: List[EncoderRow] = []
    for i, gen in enumerate(code.generators, start=1):
        for j in range(1, gen.degree + 1):
            # Ancilla Z_i is input qubit m + i - 1.
            consumed = _place(table.ops[i, j - 1], m, w, 0) if j > 1 else 1 << w + m + i - 1
            handed = _place(table.ops[i, j], m, w, n) if j < gen.degree else 0
            block = gen.word >> 2 * n * (j - 1) & (1 << 2 * n) - 1
            rows.append(EncoderRow(consumed, _place(block, n, w, 0) | handed))
    return PartialEncoder(table, n, k, rows)


class CentralizerBasis(_Value, namedtuple("CentralizerBasis", "m basis")):
    """Span of memory Paulis commuting with every memory operator.

    ``basis`` holds packed words on m qubits, in the ``pauli_to_vec`` layout,
    checked by ``_check_memory_words``.
    """

    __slots__ = ()

    def __new__(cls, m: int, basis: List[int]) -> "CentralizerBasis":
        return tuple.__new__(cls, (_check_memory_words(m, basis), basis))


def compute_centralizer(table: MemoryOperatorTable) -> CentralizerBasis:
    """Nullspace of the commutation constraints against all memory operators.

    A memory Pauli w is in the centralizer iff <w, g> = 0 for every operator
    g in the table; the span has size 2^(2m - rank of the operator set).
    """
    m = table.m
    # <w, g> depends linearly on w through the swapped word of g.
    constraint_rows = [swap_halves(g, m) for g in table.as_list()]
    return CentralizerBasis(m, sorted(_dependencies(_transpose(constraint_rows, 2 * m))))


def find_s1(encoder: PartialEncoder, centralizer: CentralizerBasis) -> List[EncoderRow]:
    """Independent generating set of zero-physical row combinations.

    Selected combinations of the generator rows must emit identity on all
    physical qubits and have both memory parts inside the centralizer span.
    Row r is the word in | out << 2w of its two words (w = m + n), with one
    unknown GF(2) coefficient.  Row r's constraint column holds its packed
    physical output (``_restrict``), then its products with swap_halves(g)
    for each memory operator word g placed on the input memory qubits
    (``_products``), so the input memory commutes with every g.  The S1
    combinations are the dependencies among the columns
    (``_dependencies``).  An S1 row is one combination of the words, its
    memory parts cut out and checked against the given centralizer basis
    (one echelon over it), and kept as a row.  Its physical output is zero
    unchecked: the first 2n bits of each column are that row's physical
    output, and a dependency's columns XOR to zero.

    The output memory needs no constraint of its own.  Consistent rows keep
    products: <in(c), in(r)> = <out(c), out(r)> for a combination c and
    each generator row r.  With no physical output in c, and ancilla inputs
    that are all Z-only and no information input, this is
    <mem_out(c), mem_out(r)> = <mem_in(c), mem_in(r)>, which is 0 when
    mem_in(c) commutes with every g.  The rows' mem_out range over every
    g_{i,j}, so mem_out(c) then commutes with every g too.  Constraints on
    the output memory would leave the solution space, and with it the
    dependencies among the columns, unchanged.  This needs an assembled
    encoder, whose rows hand on the table's operators: only a foreign
    centralizer fails the memory check there, but a hand-built row handing
    on X against a table of one Z fails it with the table's own.  Either
    raises ``SynthesisFailureError``.  A centralizer on another memory
    width raises ``WidthMismatchError`` before any elimination.
    """
    m, n, w = encoder.m, encoder.n, encoder.width
    if centralizer.m != m:
        raise WidthMismatchError(f"a centralizer on {centralizer.m} memory qubits, not {m}")
    words = [row.inputs | row.outputs << 2 * w for row in encoder.rows]
    probes = [swap_halves(_place(g, m, w, 0), w) for g in encoder.memory_ops.as_list()]
    columns = [
        _restrict(word >> 2 * w, w, 0, n) | products << 2 * n
        for word, products in zip(words, _products(words, probes))
    ]
    span = _Echelon(centralizer.basis)
    combos: List[EncoderRow] = []
    for mask in sorted(_dependencies(columns)):
        combo = gf2_combination(words, mask)
        x, y = combo & (1 << 2 * w) - 1, combo >> 2 * w
        if span.reduce(_restrict(x, w, 0, m))[0] or span.reduce(_restrict(y, w, n, w))[0]:
            raise SynthesisFailureError("an S1 combination leaves the centralizer")
        combos.append(EncoderRow(x, y))
    return combos


def has_catastrophic_combination(
    rows: Sequence[EncoderRow], encoder: PartialEncoder
) -> bool:
    """Cycle oracle on the span of the given zero-physical rows.

    Treats each combination as a state-diagram edge mem_in -> mem_out and
    reports whether one with a non-identity logical label lies on a cycle,
    that is, whether an edge of the rows' ``_core`` carries one; the tags
    above the label do not matter, as ``cycle_core`` only passes labels on.
    A row with physical output is no such edge and raises ``AssemblyError``.
    """
    m, n, k, w = encoder.m, encoder.n, encoder.k, encoder.width
    physical, labels = ((1 << n) - 1) * (1 | 1 << w), (1 << 2 * k) - 1
    if any(y & physical for _, y in rows):
        raise AssemblyError("a row given to the cycle oracle has physical output")
    return any(edge >> 4 * m & labels for edge in _core(rows, n, k, m))


class CatastrophicityContext(
    _Value, namedtuple("CatastrophicityContext", "centralizer s1_rows s2_rows")
):
    """Everything needed to audit the added-row choice afterwards."""

    __slots__ = ()


def add_noncatastrophic_rows(
    encoder: PartialEncoder, seed: int = 0
) -> Tuple[PartialEncoder, CatastrophicityContext]:
    """Append information-qubit rows completing the centralizer basis.

    The rows map X on a fresh information qubit to identity physical output
    and a centralizer element M_i, chosen so S1 and the new rows together
    span the centralizer without admitting a catastrophic cycle.  A greedy
    canonical choice is tried first, then seeded random completions.

    Why the attempts need no checks of their size:
    - the greedy set has exactly ``needed`` members: S1's memory outputs lie
      in the centralizer (``find_s1`` checks it), so exactly that many basis words raise the rank;
    - a draw can take ``needed`` distinct elements: needed <= dim <= 2^dim - 1;
    - an empty centralizer stops the draws too: dim = 0 forces needed = 0;
    - a draw has ``needed`` entries: one per picked index.
    """
    centralizer = compute_centralizer(encoder.memory_ops)
    s1 = find_s1(encoder, centralizer)
    m, n, k, w = encoder.m, encoder.n, encoder.k, encoder.width

    s1_out_vecs = [_restrict(row.outputs, w, n, w) for row in s1]

    def completion_ok(vecs: List[int]) -> bool:
        return gf2_rank(s1_out_vecs + vecs) == len(centralizer.basis)

    def build_rows(cands: List[int]) -> List[EncoderRow]:
        # X on information qubit idx -> identity physical, the target on memory.
        return [
            EncoderRow(1 << w - k + idx, _place(t, m, w, n))
            for idx, t in enumerate(cands)
        ]

    span = _Echelon(s1_out_vecs)  # the greedy attempt grows it
    needed = len(centralizer.basis) - len(span.rows)
    if needed > k:
        raise SynthesisFailureError(
            f"{needed} centralizer directions to cover but only {k} information qubits"
        )

    def attempts() -> Iterator[List[int]]:
        # Greedy canonical completion from the centralizer basis: b raises
        # the rank iff it leaves a nonzero remainder.
        yield [b for b in centralizer.basis if span.add(b, 0)[0]]
        # Seeded random draws, made only once the sets before them failed,
        # from the nonidentity centralizer elements.  Element c is the
        # combination c of the reversed basis (last basis element fastest).
        # Sampling reads only the population's length and entries, so
        # sampling the indices c draws what sampling the listed elements would.
        vecs = centralizer.basis[::-1]
        size = (1 << len(vecs)) - 1
        if needed == 0:
            return
        rng = random.Random(seed)
        for _ in range(500):
            if size < sys.maxsize:
                picked = rng.sample(range(1, size + 1), needed)
            else:
                # random.sample cannot take len() of this span; these are the
                # distinct randrange draws it makes for so few of so many.
                picked = []
                while len(picked) < needed:
                    c = 1 + rng.randrange(size)
                    if c not in picked:
                        picked.append(c)
            pick = [gf2_combination(vecs, c) for c in picked]
            if completion_ok(pick):
                yield pick

    tried = 0
    for cands in attempts():
        tried += 1
        s2 = build_rows(cands)
        if has_catastrophic_combination(s1 + s2, encoder):
            continue
        extended = encoder._replace(added_rows=encoder.added_rows + tuple(s2))
        context = CatastrophicityContext(centralizer=centralizer, s1_rows=s1, s2_rows=s2)
        return extended, context
    raise SynthesisFailureError(
        f"no non-catastrophic completion found after {tried} candidate sets"
    )


class SynthesisResult(_Value, namedtuple("SynthesisResult", "code omega encoder context")):
    """Every stage's product, from the code to the extended encoder."""

    __slots__ = ()

    @property
    def m(self) -> int:
        """The memory-qubit count of the encoder."""
        return self.encoder.m


def synthesize(code: ConvolutionalCode, seed: int = 0) -> SynthesisResult:
    """Full synthesis chain for an already-shortened valid code.

    omega equals ``_backward_matrix`` on a valid code, so it is not compared.
    Proof: entry ((i,j),(i2,j2)) of their sum is <h_{i,a}, h_{i2,a+j2-j}>
    summed over a > j (forward) and a <= j (backward), for every a >= 1 with
    a + j2 - j >= 1: generator i delayed by j2 - j frames against i2, 0.
    """
    omega = build_commutativity_matrix(code)
    table = assign_memory_operators(omega)
    encoder = assemble_partial_encoder(code, table)
    extended, context = add_noncatastrophic_rows(encoder, seed=seed)
    return SynthesisResult(code=code, omega=omega, encoder=extended, context=context)
