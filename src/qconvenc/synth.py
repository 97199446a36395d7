"""Memory synthesis: from a valid code to a minimal-memory partial encoder.

The pipeline is: build the memory commutativity matrix, read off the minimal
memory-qubit count, assign concrete memory operators reproducing the matrix,
lay out the frame-by-frame encoder rows, and append extra information-qubit
rows that provably rule out catastrophic behavior.

Encoder rows describe how one application of the (not yet completed) encoder
unitary must transform Paulis.  ``EncoderRow`` holds each row as its input
and output word, in the layout its docstring states; rows are built, checked,
combined and completed on those words.  Memory operators and centralizer
elements are packed words on the m memory qubits, in the ``pauli_to_vec``
layout, from Gram-Schmidt to the added rows; ``_place`` widens one into a
row.  ``Pauli`` objects are built only in the read-only views
(``EncoderRow`` parts, ``MemoryOperatorTable.op``) for text, JSON and tests.
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .code import ConvolutionalCode, validate_code
from .errors import (
    AssemblyError,
    ConsistencyError,
    InvalidCodeError,
    InvalidMatrixError,
    SynthesisFailureError,
    WidthMismatchError,
)
from .pauli import (
    BinaryMatrix,
    Pauli,
    _Echelon,
    _annihilator,
    _product_mismatch,
    _products,
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


class MemoryCommutativityMatrix:
    """Symmetric GF(2) matrix of deferred commutation obligations.

    ``index_map[r]`` gives the (generator, frame) pair, both 1-based, that row
    r stands for; rows are ordered lexicographically by that pair.  Entry
    (r, s) is 1 exactly when the corresponding memory operators must
    anticommute for the streamed generators to commute across frames.
    ``rank`` is eliminated once, when the matrix is built.
    """

    __slots__ = ("matrix", "index_map", "rank")

    def __init__(self, matrix: BinaryMatrix, index_map: List[Tuple[int, int]]):
        self.matrix = matrix
        self.index_map = index_map
        self.rank = matrix.rank()

    @property
    def dim(self) -> int:
        return self.matrix.nrows


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


def _forward_matrix(code: ConvolutionalCode) -> BinaryMatrix:
    """The commutativity matrix of a code already known to be valid.

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
    return BinaryMatrix(_products(later, later_swapped), len(index_map))


def _backward_matrix(code: ConvolutionalCode) -> BinaryMatrix:
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
    return BinaryMatrix(_products(earlier, earlier_swapped), len(index_map))


def verify_consistency(code: ConvolutionalCode) -> int:
    """1 when forward and backward accumulation agree entrywise, else 0.

    Agreement for every pair is equivalent to the code's validity, so this is
    an independent route to the same verdict as validate_code.
    """
    if not validate_code(code).valid:
        return 0
    return int(_forward_matrix(code).rows == _backward_matrix(code).rows)


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


class MemoryOperatorTable:
    """Concrete memory operators g_{i,j} on m qubits, keyed by (i, j).

    ``ops`` maps (i, j) to a packed word in the ``pauli_to_vec`` layout on
    m qubits; a negative word, or one that does not fit 2m bits, raises
    ``WidthMismatchError``.  ``op`` reads one as a ``Pauli``, for text.
    """

    __slots__ = ("m", "ops", "index_map")

    def __init__(
        self, m: int, ops: Dict[Tuple[int, int], int], index_map: List[Tuple[int, int]]
    ):
        for word in ops.values():
            if m < 0 or word < 0 or word >> 2 * m:
                raise WidthMismatchError(f"word {word:#x} does not fit {m} memory qubits")
        self.m = m
        self.ops = ops
        self.index_map = index_map

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
    ops = operators_from_commutativity(omega.matrix, order=order)
    table = {omega.index_map[r]: ops[r] for r in range(n)}
    return MemoryOperatorTable(minimal_memory(omega), table, list(omega.index_map))


def _restrict(word: int, w: int, start: int, stop: int) -> int:
    """The packed restriction of a packed ``w``-qubit word to qubits [start, stop)."""
    mask = (1 << stop - start) - 1
    return word >> start & mask | (word >> w + start & mask) << stop - start


def _place(word: int, m: int, w: int, at: int) -> int:
    """The packed ``m``-qubit ``word`` on qubits [at, at + m) of a packed ``w``-qubit word."""
    return (word & (1 << m) - 1 | word >> m << w) << at


class EncoderRow(namedtuple("EncoderRow", "m n k inputs outputs")):
    """One input-output Pauli constraint on an (m, n, k) encoder unitary.

    ``inputs`` and ``outputs`` are packed Paulis on the w = m + n qubits,
    laid out as ``pauli_to_vec``.  Input qubits are memory [0, m), ancilla
    [m, w - k) and information [w - k, w); output qubits are physical
    [0, n) and memory [n, w).  The five parts are restrictions of the words.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, k: int, inputs: int, outputs: int) -> "EncoderRow":
        if m < 0 or not 0 <= k <= n:
            raise WidthMismatchError(f"no encoder row has m={m}, n={n}, k={k}")
        if inputs < 0 or outputs < 0 or (inputs | outputs) >> 2 * (m + n):
            raise WidthMismatchError(f"words {inputs:#x}, {outputs:#x} do not fit {m + n} qubits")
        return tuple.__new__(cls, (m, n, k, inputs, outputs))

    def _part(self, word: int, start: int, stop: int) -> Pauli:
        return vec_to_pauli(_restrict(word, self.m + self.n, start, stop), stop - start)

    @property
    def mem_in(self) -> Pauli:
        return self._part(self.inputs, 0, self.m)

    @property
    def anc_in(self) -> Pauli:
        return self._part(self.inputs, self.m, self.m + self.n - self.k)

    @property
    def info_in(self) -> Pauli:
        return self._part(self.inputs, self.m + self.n - self.k, self.m + self.n)

    @property
    def phys_out(self) -> Pauli:
        return self._part(self.outputs, 0, self.n)

    @property
    def mem_out(self) -> Pauli:
        return self._part(self.outputs, self.n, self.m + self.n)

    def as_strings(self) -> Dict[str, str]:
        return {
            "mem_in": str(self.mem_in),
            "anc_in": str(self.anc_in),
            "info_in": str(self.info_in),
            "phys_out": str(self.phys_out),
            "mem_out": str(self.mem_out),
        }


class PartialEncoder:
    """Generator rows plus any added rows, with the operator table used."""

    __slots__ = ("m", "n", "k", "rows", "added_rows", "memory_ops")

    def __init__(
        self,
        m: int,
        n: int,
        k: int,
        rows: List[EncoderRow],
        added_rows: Optional[List[EncoderRow]] = None,
        memory_ops: Optional[MemoryOperatorTable] = None,
    ):
        self.m = m
        self.n = n
        self.k = k
        self.rows = rows
        self.added_rows = [] if added_rows is None else added_rows
        self.memory_ops = memory_ops

    @property
    def all_rows(self) -> List[EncoderRow]:
        return self.rows + self.added_rows

    @property
    def width(self) -> int:
        return self.m + self.n


def _encoder_words(rows: Sequence[EncoderRow], w: int) -> Tuple[List[int], List[int]]:
    """Input and output words of rows of a ``w``-qubit encoder; a row of
    another width raises ``WidthMismatchError``."""
    for row in rows:
        if row.m + row.n != w:
            raise WidthMismatchError(
                f"a row maps {row.m + row.n} to {row.m + row.n} qubits in a {w}-qubit encoder"
            )
    return [row.inputs for row in rows], [row.outputs for row in rows]


def _check_row_consistency(rows: Sequence[EncoderRow]) -> None:
    w = rows[0].m + rows[0].n if rows else 0
    if any(row.m + row.n != w for row in rows):
        raise WidthMismatchError(f"encoder rows are not all {w} qubits wide")
    in_vecs = [row.inputs for row in rows]
    pair = _product_mismatch(in_vecs, [row.outputs for row in rows], w)
    if pair is not None:
        a, b = pair
        lhs = symplectic_product_vec(in_vecs[a], in_vecs[b], w)
        raise AssemblyError(
            f"rows {a + 1} and {b + 1} disagree: inputs "
            f"{'anticommute' if lhs else 'commute'} but outputs do not match"
        )


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
    low = (1 << n) - 1
    for i, gen in enumerate(code.generators, start=1):
        for j in range(1, gen.degree + 1):
            # Ancilla Z_i is input qubit m + i - 1.
            consumed = _place(table.ops[i, j - 1], m, w, 0) if j > 1 else 1 << w + m + i - 1
            handed = _place(table.ops[i, j], m, w, n) if j < gen.degree else 0
            block = gen.word >> 2 * n * (j - 1)
            emitted = block & low | (block >> n & low) << w
            rows.append(EncoderRow(m, n, k, consumed, emitted | handed))
    _check_row_consistency(rows)
    return PartialEncoder(m=m, n=n, k=k, rows=rows, memory_ops=table)


class CentralizerBasis:
    """Span of memory Paulis commuting with every memory operator.

    ``basis`` holds packed words on m qubits, in the ``pauli_to_vec`` layout.
    """

    __slots__ = ("m", "basis")

    def __init__(self, m: int, basis: List[int]):
        self.m = m
        self.basis = basis

    def __len__(self) -> int:
        return 1 << len(self.basis)


def compute_centralizer(table: MemoryOperatorTable) -> CentralizerBasis:
    """Nullspace of the commutation constraints against all memory operators.

    A memory Pauli w is in the centralizer iff <w, g> = 0 for every operator
    g in the table; the span has size 2^(2m - rank of the operator set).
    """
    m = table.m
    # <w, g> depends linearly on w through the swapped word of g.
    constraint_rows = [swap_halves(g, m) for g in table.as_list()]
    return CentralizerBasis(m, sorted(_annihilator(constraint_rows, 2 * m)))


def find_s1(encoder: PartialEncoder, centralizer: CentralizerBasis) -> List[EncoderRow]:
    """Independent generating set of zero-physical row combinations.

    Selected combinations of the generator rows must emit identity on all
    physical qubits and have both memory parts inside the centralizer span.
    Row r is the word in | out << 2w of its two words (w = m + n), with one
    unknown GF(2) coefficient.  The constraints are ``_products(probes,
    words)``: bits 2w + b and 3w + b for each physical qubit b, then, with
    each memory operator word g placed on the input memory qubits,
    swap_halves(g), so the input memory commutes with every g.  An S1 row
    is one combination of the words, checked against the conditions again
    (both memory parts by one echelon over the centralizer basis), and kept
    as a row.

    The output memory needs no constraint of its own.  Consistent rows keep
    products: <in(c), in(r)> = <out(c), out(r)> for a combination c and
    each generator row r.  With no physical output in c, and ancilla inputs
    that are all Z-only and no information input, this is
    <mem_out(c), mem_out(r)> = <mem_in(c), mem_in(r)>, which is 0 when
    mem_in(c) commutes with every g.  The rows' mem_out range over every
    g_{i,j}, so mem_out(c) then commutes with every g too.  Constraints on
    the output memory would leave the solution space, and with it the
    reduced echelon and the annihilator basis, unchanged.  Inconsistent
    hand-built rows fail the output check instead.
    """
    m, n, k, w = encoder.m, encoder.n, encoder.k, encoder.width
    ins, outs = _encoder_words(encoder.rows, w)
    words = [x | y << 2 * w for x, y in zip(ins, outs)]
    table = encoder.memory_ops
    ops = [_place(g, table.m, w, 0) for g in table.as_list()] if table else []
    probes = [1 << 2 * w + b for b in range(n)] + [1 << 3 * w + b for b in range(n)]
    probes += [swap_halves(g, w) for g in ops]
    span = _Echelon(_place(b, centralizer.m, w, 0) for b in centralizer.basis)
    physical = ((1 << n) - 1) * (1 | 1 << w)
    memory = ((1 << m) - 1) * (1 | 1 << w)
    combos: List[EncoderRow] = []
    for mask in sorted(_annihilator(_products(probes, words), len(words))):
        combo = gf2_combination(words, mask)
        if combo >> 2 * w & physical:
            raise SynthesisFailureError("an S1 combination has physical output")
        if span.reduce(combo & memory)[0] or span.reduce(combo >> n + 2 * w & memory)[0]:
            raise SynthesisFailureError("an S1 combination leaves the centralizer")
        combos.append(EncoderRow(m, n, k, combo & (1 << 2 * w) - 1, combo >> 2 * w))
    return combos


def has_catastrophic_combination(
    rows: Sequence[EncoderRow], encoder: PartialEncoder
) -> bool:
    """Cycle oracle on the span of the given zero-physical rows.

    Treats each combination as a state-diagram edge mem_in -> mem_out and
    reports whether an edge with non-identity logical label lies on a cycle.
    Each row's words give the edge mem_in | mem_out << 2m | info_in << 4m,
    and ``cycle_core`` decides on those edges without listing the span.
    A row with physical output is no such edge and raises ``AssemblyError``.
    """
    m, n, k, w = encoder.m, encoder.n, encoder.k, encoder.width
    bits = 2 * m
    physical = ((1 << n) - 1) * (1 | 1 << w)
    edges = []
    for x, y in zip(*_encoder_words(rows, w)):
        if y & physical:
            raise AssemblyError("a row given to the cycle oracle has physical output")
        edges.append(
            _restrict(x, w, 0, m) | _restrict(y, w, n, w) << bits | _restrict(x, w, w - k, w) << 2 * bits
        )
    return any(edge >> 2 * bits for edge in cycle_core(edges, bits))


class CatastrophicityContext:
    """Everything needed to audit the added-row choice afterwards."""

    __slots__ = ("centralizer", "s1_rows", "s2_rows")

    def __init__(
        self,
        centralizer: CentralizerBasis,
        s1_rows: List[EncoderRow],
        s2_rows: List[EncoderRow],
    ):
        self.centralizer = centralizer
        self.s1_rows = s1_rows
        self.s2_rows = s2_rows


def add_noncatastrophic_rows(
    encoder: PartialEncoder, seed: int = 0
) -> Tuple[PartialEncoder, CatastrophicityContext]:
    """Append information-qubit rows completing the centralizer basis.

    The rows map X on a fresh information qubit to identity physical output
    and a centralizer element M_i, chosen so S1 and the new rows together
    span the centralizer without admitting a catastrophic cycle.  A greedy
    canonical choice is tried first, then seeded random completions.
    """
    if encoder.memory_ops is None:
        raise AssemblyError("the encoder has no memory operator table")
    centralizer = compute_centralizer(encoder.memory_ops)
    s1 = find_s1(encoder, centralizer)
    m, n, k, w = encoder.m, encoder.n, encoder.k, encoder.width

    s1_out_vecs = [_restrict(row.outputs, w, n, w) for row in s1]

    def completion_ok(vecs: List[int]) -> bool:
        return gf2_rank(s1_out_vecs + vecs) == len(centralizer.basis)

    def build_rows(cands: List[int]) -> List[EncoderRow]:
        # X on information qubit idx -> identity physical, the target on memory.
        return [
            EncoderRow(m, n, k, 1 << w - k + idx, _place(t, m, w, n))
            for idx, t in enumerate(cands)
        ]

    span = _Echelon(s1_out_vecs)  # the greedy attempt grows it
    needed = len(centralizer.basis) - len(span.rows)
    if needed > k:
        raise SynthesisFailureError(
            f"{needed} centralizer directions to cover but only {k} information qubits"
        )

    def attempts() -> Iterator[List[int]]:
        # Greedy canonical completion from the centralizer basis.
        # b raises the rank iff it leaves a nonzero remainder.
        candidates: List[int] = []
        for b in centralizer.basis:
            if len(candidates) == needed:
                break
            if span.add(b, 0)[0]:
                candidates.append(b)
        if len(candidates) == needed:  # each raised the rank: completion_ok holds
            yield candidates
        # Seeded random draws, made only once the sets before them failed,
        # from the nonidentity centralizer elements.  Element c is the
        # combination c of the reversed basis (last basis element fastest).
        # Sampling reads only the population's length and entries, so
        # sampling the indices c draws what sampling the listed elements would.
        vecs = centralizer.basis[::-1]
        size = (1 << len(vecs)) - 1
        if not size or needed == 0:
            return
        count = min(needed, size)
        rng = random.Random(seed)
        for _ in range(500):
            if size < sys.maxsize:
                picked = rng.sample(range(1, size + 1), count)
            else:
                # random.sample cannot take len() of this span; these are the
                # distinct randrange draws it makes for so few of so many.
                picked = []
                while len(picked) < count:
                    c = 1 + rng.randrange(size)
                    if c not in picked:
                        picked.append(c)
            pick = [gf2_combination(vecs, c) for c in picked]
            if len(pick) == needed and completion_ok(pick):
                yield pick

    tried = 0
    for cands in attempts():
        tried += 1
        s2 = build_rows(cands)
        if has_catastrophic_combination(s1 + s2, encoder):
            continue
        new_rows = list(encoder.added_rows) + s2
        _check_row_consistency(encoder.rows + new_rows)
        extended = PartialEncoder(m, n, k, list(encoder.rows), new_rows, encoder.memory_ops)
        context = CatastrophicityContext(centralizer=centralizer, s1_rows=s1, s2_rows=s2)
        return extended, context
    raise SynthesisFailureError(
        f"no non-catastrophic completion found after {tried} candidate sets"
    )


class SynthesisResult:
    __slots__ = ("code", "omega", "m", "table", "encoder", "context")

    def __init__(
        self,
        code: ConvolutionalCode,
        omega: MemoryCommutativityMatrix,
        m: int,
        table: MemoryOperatorTable,
        encoder: PartialEncoder,
        context: CatastrophicityContext,
    ):
        self.code = code
        self.omega = omega
        self.m = m
        self.table = table
        self.encoder = encoder
        self.context = context


def synthesize(code: ConvolutionalCode, seed: int = 0) -> SynthesisResult:
    """Full synthesis chain for an already-shortened valid code."""
    omega = build_commutativity_matrix(code)
    # verify_consistency's cross-check, on the matrix and validation above.
    if omega.matrix.rows != _backward_matrix(code).rows:
        raise ConsistencyError(
            "forward and backward accumulation of the memory obligations disagree"
        )
    table = assign_memory_operators(omega)
    encoder = assemble_partial_encoder(code, table)
    extended, context = add_noncatastrophic_rows(encoder, seed=seed)
    return SynthesisResult(
        code=code, omega=omega, m=table.m, table=table, encoder=extended, context=context
    )
