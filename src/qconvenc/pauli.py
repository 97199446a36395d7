"""Projective Pauli operators and GF(2) symplectic linear algebra.

A projective Pauli on w qubits (phases ignored) is stored as two packed
GF(2) words: bit q of ``x`` marks an X factor on qubit q, bit q of ``z`` a
Z factor, both bits a Y.  Qubit 0 is the leftmost character of the string
form.  Multiplication is bitwise XOR; the symplectic product

    <a, b> = a.x . b.z + a.z . b.x   (mod 2)

is 0 when the operators commute and 1 when they anticommute.  As a single
integer (``pauli_to_vec``) the x word fills bits 0..w-1 and the z word bits
w..2w-1; every packed Pauli in the package uses this layout.

GF(2) matrices are lists of packed row words, bit c of row r being entry
(r, c); a square one, such as a commutativity matrix, has n = len(rows).
The products of words with a row set are one masked parity per pair
(``_products``).  Elimination does only what its reader uses.  A nullspace
is the dependencies among the columns (``_transpose``) of its constraint
rows, found by forward elimination alone (``_dependencies``).  Everything
else goes through one fully reduced echelon basis, ``_Echelon``.  The
``gf2_*`` functions build one per call; an incremental caller, such as the
Clifford completion, grows its own a row at a time, tagging each row with
any word that should combine along with it, and queries it in between.

The zero-physical transitions of an encoder's state diagram form a GF(2)
space of edges, so ``cycle_core`` finds the edges that lie on cycles by
linear algebra on a basis of that space, one forward elimination per
round, without listing it; the state-diagram verdicts rest on it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidMatrixError, ParseError, WidthMismatchError

__all__ = [
    "Pauli",
    "GramSchmidtResult",
    "pauli_to_vec",
    "vec_to_pauli",
    "symplectic_product_vec",
    "gf2_combination",
    "gf2_span",
    "gf2_basis",
    "gf2_rank",
    "gf2_solve_combination",
    "symplectic_gram_schmidt",
    "operators_from_commutativity",
    "cycle_core",
]

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


def _parity(word: int) -> int:
    return word.bit_count() & 1


class _Value(tuple):
    """Base of the immutable records, listed before their namedtuple.

    A record that one stage builds for another, or that checks its fields,
    derives from it.  It is checked where it is built, in its ``__new__``,
    and cannot change after that.  ``_make``, which ``_replace`` calls,
    goes through that ``__new__``, so a copy with a field changed is
    checked like a new record.  The sequence operators ``+`` and ``*`` are
    refused: a record is a value, not a sequence to concatenate or repeat.
    A list or dict field stays a list or dict, so such a record does not hash.
    A wrong-typed field raises ``TypeError``, a value out of range a
    ``QconvError``.  An integer field is checked through ``operator.index``,
    so a bool or an int subclass passes as its int value.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "_Value":
        return cls(*iterable)

    def _not_a_sequence(self, other: object) -> object:
        return NotImplemented

    __add__ = __mul__ = __rmul__ = _not_a_sequence


class Pauli(_Value, namedtuple("Pauli", "width x z")):
    """Immutable projective Pauli operator on ``width`` qubits."""

    __slots__ = ()

    def __new__(cls, width: int, x: int = 0, z: int = 0) -> "Pauli":
        if width < 0 or x < 0 or z < 0 or (x | z) >> width:
            raise WidthMismatchError(f"words x={x:#x}, z={z:#x} do not fit {width} qubits")
        return tuple.__new__(cls, (width, x, z))

    @classmethod
    def identity(cls, width: int) -> "Pauli":
        return cls(width, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "Pauli":
        """Parse an uppercase I/X/Y/Z string, one character per qubit."""
        x = z = 0
        for q, ch in enumerate(text):
            if ch not in _CHAR_TO_BITS:
                raise ParseError(f"invalid Pauli character {ch!r} at position {q}")
            xb, zb = _CHAR_TO_BITS[ch]
            x |= xb << q
            z |= zb << q
        return cls(len(text), x, z)

    def __str__(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(self.x >> q) & 1, (self.z >> q) & 1]
            for q in range(self.width)
        )

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0


def pauli_to_vec(p: Pauli) -> int:
    return p.x | (p.z << p.width)


def vec_to_pauli(vec: int, width: int) -> Pauli:
    mask = (1 << width) - 1
    return Pauli(width, vec & mask, (vec >> width) & mask)


def swap_halves(vec: int, width: int) -> int:
    """Exchange the x and z halves, so <a, b> is the parity of a & swap(b)."""
    mask = (1 << width) - 1
    return ((vec & mask) << width) | ((vec >> width) & mask)


def _restrict(word: int, w: int, start: int, stop: int) -> int:
    """The packed restriction of a packed ``w``-qubit word to qubits [start, stop)."""
    mask = (1 << stop - start) - 1
    return word >> start & mask | (word >> w + start & mask) << stop - start


def _place(word: int, m: int, w: int, at: int) -> int:
    """The packed ``m``-qubit ``word`` on qubits [at, at + m) of a packed ``w``-qubit word."""
    return (word & (1 << m) - 1 | word >> m << w) << at


def symplectic_product_vec(a: int, b: int, width: int) -> int:
    """Symplectic product of two packed ``width``-qubit vectors."""
    return _parity(a & swap_halves(b, width))


def _product_mismatch(
    a: Sequence[int], b: Sequence[int], width: int
) -> Optional[Tuple[int, int]]:
    """First pair i < j, in ``itertools.combinations`` order, with
    <a[i], a[j]> != <b[i], b[j]>, found as an odd product of the words
    a[i] | b[i] << 2 * width; None when every pair agrees.  Only the pairs
    i < j are scanned, and the scan stops at the first odd one."""
    low = ((1 << width) - 1) * (1 | 1 << 2 * width)  # the low half of each word
    words = [x | y << 2 * width for x, y in zip(a, b)]
    swapped = [(word & low) << width | word >> width & low for word in words]
    for i, word in enumerate(words):
        for j in range(i + 1, len(words)):
            if (word & swapped[j]).bit_count() & 1:  # _parity, inline on this hot path
                return i, j
    return None


def gf2_combination(rows: Sequence[int], mask: int) -> int:
    """XOR of rows[i] over the set bits i of ``mask``."""
    acc = 0
    while mask:
        acc ^= rows[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return acc


def gf2_span(rows: Sequence[int]) -> List[int]:
    """Every XOR-combination of rows: entry c is ``gf2_combination(rows, c)``."""
    span = [0]
    for row in rows:
        span += [acc ^ row for acc in span]
    return span


class _Echelon:
    """Fully reduced GF(2) row-echelon basis, grown one row at a time.

    The pivot of a basis row is its lowest set bit, and no other basis row
    has that bit set.  That reduced form of a row space is unique, and
    reducing a vector may visit the pivots in any order.  Each basis row
    carries a tag: the XOR of the tags of the added rows that sum to it.
    An added row that reduces to zero leaves its tag in ``dependencies``.
    The state after a sequence of ``add`` calls depends only on that
    sequence, so a caller that grows one echelon row by row gets exactly
    what a fresh echelon over the same rows would give.
    """

    def __init__(self, rows: Iterable[int] = ()):
        self.rows: Dict[int, int] = {}  # pivot -> basis row
        self.tags: Dict[int, int] = {}  # pivot -> combination tag
        self.pivots = 0  # mask of pivot bits
        self.dependencies: List[int] = []  # tags of added rows that reduced to zero
        for i, row in enumerate(rows):
            self.add(row, 1 << i)

    def reduce(self, vec: int, tag: int = 0) -> Tuple[int, int]:
        """``vec`` with every pivot bit cleared, and ``tag`` updated to match."""
        hits = vec & self.pivots
        while hits:
            p = (hits & -hits).bit_length() - 1
            vec ^= self.rows[p]
            tag ^= self.tags[p]
            hits &= hits - 1
        return vec, tag

    def add(self, vec: int, tag: int) -> Tuple[int, int]:
        """Reduce ``vec`` and keep the remainder as a basis row if nonzero.

        Returns the remainder and its tag; a zero remainder's tag names a
        combination of added rows that XORs to zero.
        """
        vec, tag = self.reduce(vec, tag)
        if vec:
            low = vec & -vec
            for q, row in self.rows.items():
                if row & low:
                    self.rows[q] = row ^ vec
                    self.tags[q] ^= tag
            p = low.bit_length() - 1
            self.rows[p] = vec
            self.tags[p] = tag
            self.pivots |= low
        else:
            self.dependencies.append(tag)
        return vec, tag


def gf2_basis(rows: Iterable[int]) -> List[int]:
    """Independent rows spanning the same space, in ascending order.

    The basis is fully reduced on highest-bit pivots (the lowest-bit echelon
    of the bit-reversed rows), so ``gf2_span`` of it is ascending.
    """
    rows = list(rows)
    width = max(rows, default=0).bit_length()

    def reverse(word: int) -> int:
        return int(f"{word:0{width}b}"[::-1], 2)

    return sorted(reverse(row) for row in _Echelon(map(reverse, rows)).rows.values())


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of the row set over GF(2)."""
    return len(_Echelon(rows).rows)


def gf2_solve_combination(rows: Sequence[int], target: int) -> Optional[int]:
    """Lexicographically least coefficient mask c with XOR-combination = target.

    Coefficients are compared as the sequence (c for rows[0], c for rows[1], ...),
    preferring 0 at the earliest position.  Returns None when no solution exists.
    That solution uses rows[i] only when rows[i] is not in the span of the
    later rows, and those rows are independent, so it is the one combination
    of them found by adding the rows last to first.
    """
    basis = _Echelon()
    for i in reversed(range(len(rows))):
        basis.add(rows[i], 1 << i)
    rest, combo = basis.reduce(target)
    return combo if rest == 0 else None


class GramSchmidtResult(_Value, namedtuple("GramSchmidtResult", "pairs isotropics inverse")):
    """Outcome of the symplectic Gram-Schmidt decomposition.

    ``pairs`` and ``isotropics`` use original row indices.  Read the rows
    as the Gram matrix of operators v_r.  The scan adds reduced operators of
    pairs to each remaining v_r, leaving a reduced v'_r; the v'_r have Gram
    matrix c blocks [[0,1],[1,0]] on the pairs and zeros elsewhere.  Row r
    of ``inverse`` gives v_r as the XOR of v'_s over its set bits s, so that
    standard form, combined by ``inverse`` on both sides, is the input.
    Proof: v'_i and v'_j never change once paired, so each step v'_r <-
    v'_r + v'_j (or + v'_i) adds a final reduced operator, and v_r is the
    final v'_r plus one added operator per step.
    """

    __slots__ = ()

    @property
    def c(self) -> int:
        """The number of hyperbolic pairs."""
        return len(self.pairs)

    @property
    def d(self) -> int:
        """The number of isotropic rows."""
        return len(self.isotropics)


def _check_commutativity_matrix(rows: Sequence[int]) -> None:
    """Refuse n row words that are not a commutativity matrix at the first bad
    entry: any row that does not fit n columns (negative, or an entry at
    column n or past it), then row by row a nonzero diagonal or asymmetric entry."""
    n = len(rows)
    for r, row in enumerate(rows):
        if row >> n:  # also nonzero for a negative row
            raise InvalidMatrixError(f"row {r} does not fit {n} columns")
    columns = _transpose(rows, n)
    for r, row in enumerate(rows):
        if (row >> r) & 1:
            raise InvalidMatrixError(f"nonzero diagonal entry at {r}")
        later = (row ^ columns[r]) & (1 << n) - (2 << r)  # entries (r, s > r)
        if later:
            raise InvalidMatrixError(f"asymmetry at ({r}, {(later & -later).bit_length() - 1})")


def symplectic_gram_schmidt(rows: Sequence[int]) -> GramSchmidtResult:
    """Decompose a commutativity matrix into hyperbolic pairs and isotropics.

    ``rows`` is a square matrix of n row words on n columns.  Scans rows in
    ascending order; an unprocessed row is paired with the lowest-index
    unprocessed row it anticommutes with, and the pair is eliminated from
    all remaining rows by congruence row operations, each recorded in
    ``inverse`` as the reduced row it adds.

    On packed rows: pairing i with j turns each remaining entry (r, s) into
    W[r][s] + W[r][i] W[j][s] + W[r][j] W[i][s], symmetric with a zero
    diagonal, and only remaining columns are read again.
    """
    _check_commutativity_matrix(rows)
    n = len(rows)
    w = list(rows)
    inv = [1 << i for i in range(n)]
    remaining = (1 << n) - 1  # rows neither paired nor isotropic
    pairs: List[Tuple[int, int]] = []
    isotropics: List[int] = []
    for i in range(n):
        if not (remaining >> i) & 1:
            continue
        remaining ^= 1 << i
        partners = w[i] & remaining
        if not partners:
            isotropics.append(i)
            continue
        j = (partners & -partners).bit_length() - 1
        remaining ^= 1 << j
        pairs.append((i, j))
        row_i, row_j = w[i] & remaining, w[j] & remaining
        rest = remaining
        while rest:
            r = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (w[r] >> i) & 1:
                inv[r] ^= 1 << j
                w[r] ^= row_j
            if (w[r] >> j) & 1:
                inv[r] ^= 1 << i
                w[r] ^= row_i
    return GramSchmidtResult(pairs=pairs, isotropics=isotropics, inverse=inv)


def operators_from_commutativity(rows: Sequence[int], order: Sequence[int]) -> List[int]:
    """Construct n packed words on m = c + d qubits whose products reproduce
    the n x n commutativity matrix ``rows``.

    The words use the ``pauli_to_vec`` layout on m qubits.  ``order`` lists
    row indices in the sequence fresh memory qubits should be claimed.  Each
    hyperbolic pair takes one qubit at the first touch of either member
    (scan anchor gets X, partner Z); each isotropic row takes one qubit for
    a Z.  Those standard operators are the reduced rows' operators, so word
    r combines them by row r of the Gram-Schmidt ``inverse``.  A matrix
    that is not a commutativity matrix, or an ``order`` that is not a
    permutation of the rows, raises ``InvalidMatrixError``.  The words
    reproduce ``rows`` unchecked: each anchor and isotropic row claims its
    own qubit, so the standard operators have the standard form as Gram
    matrix, and ``inverse`` combines them as it does the v'_s into the v_r.
    """
    gs = symplectic_gram_schmidt(rows)
    n, m = len(rows), gs.c + gs.d
    if sorted(order) != list(range(n)):
        raise InvalidMatrixError(f"order {list(order)} is not a permutation of the {n} rows")

    anchor = {j: i for i, j in gs.pairs}  # a pair is claimed under its anchor i
    qubit: Dict[int, int] = {}  # pair anchor or isotropic row -> memory qubit
    for idx in order:
        qubit.setdefault(anchor.get(idx, idx), len(qubit))

    standard = [0] * n
    for i, j in gs.pairs:
        standard[i] = 1 << qubit[i]
        standard[j] = 1 << m + qubit[i]
    for i in gs.isotropics:
        standard[i] = 1 << m + qubit[i]

    return [gf2_combination(standard, combo) for combo in gs.inverse]


def _dependencies(vectors: Iterable[int]) -> List[int]:
    """Tags of the vectors that reduce to zero, in input order.

    Vector i carries tag 1 << i.  Elimination runs forward only: a vector
    is reduced until its lowest set bit is a new pivot, where it is kept
    with its tag, and no kept vector is reduced again.  A vector that
    reduces to zero leaves its tag, a combination of vectors that XORs to
    zero.  Vector i reduces to zero iff it lies in the span of the vectors
    before it.

    Given the ``bits`` columns of a row set (``_transpose``), a combination
    of columns that XORs to zero is a word c with parity(c & row) = 0 for
    every row, and the tags are the nullspace basis N_f of the reduced
    echelon of the rows, in ascending free column f.  Proof: column f is a
    pivot column of that echelon iff it is not in the span of the columns
    before it, so the free columns are the ones that reduce to zero.  A
    kept vector's tag is its own bit plus tags of kept vectors, so by
    induction it involves only pivot columns.  The tag of free column f is
    then f plus a combination of pivot columns, a nullspace vector whose
    only free bit is f.  That vector is unique, and it is N_f: f plus the
    pivots of the reduced rows with bit f set.
    """
    kept: Dict[int, Tuple[int, int]] = {}  # lowest bit -> (vector, tag)
    dependencies = []
    for i, vec in enumerate(vectors):
        tag = 1 << i
        while vec:
            low = vec & -vec
            pivot = kept.get(low)
            if pivot is None:
                kept[low] = vec, tag
                break
            vec ^= pivot[0]
            tag ^= pivot[1]
        else:
            dependencies.append(tag)
    return dependencies


def _transpose(rows: Sequence[int], bits: int) -> List[int]:
    """The ``bits`` columns of a row set: bit i of column b is bit b of rows[i].

    Row bits at ``bits`` and above are dropped.  It gives a nullspace its
    columns (``_dependencies``), and circuit extraction and replay their
    qubit columns.
    """
    columns = [0] * bits
    mask = (1 << bits) - 1
    for i, row in enumerate(rows):
        bit, row = 1 << i, row & mask
        while row:  # one step per set bit
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    return columns


def _products(words: Sequence[int], rows: Sequence[int]) -> List[int]:
    """Bit i of entry r is parity(words[r] & rows[i]), one masked parity per pair."""
    products = []
    for word in words:
        acc = 0
        for i, row in enumerate(rows):
            if (word & row).bit_count() & 1:  # _parity, inline on this hot path
                acc |= 1 << i
        products.append(acc)
    return products


def cycle_core(edges: Sequence[int], bits: int) -> List[int]:
    """Basis of the edges on cycles, for a GF(2) space of edges.

    ``edges`` spans a space E of packed edges ``u | v << bits | label <<
    2 * bits``: each runs from state u to state v, both ``bits``-bit words,
    and carries a label the routine only passes along.  E holds the zero
    edge, a self-loop at state 0.  Every set below is a subspace:

        S_0 = all states,   N_i = {e in E : src e and dst e in S_i},
        S_{i+1} = src N_i & dst N_i.

    N_{i+1} is the part of N_i whose sources lie in dst N_i and whose
    targets lie in src N_i.  So, over the current list e_1..e_N of N_i, the
    masks c with sum c_j e_j in N_{i+1} are the projection onto c of the
    relations sum a_l dst e_l = sum c_j src e_j, sum b_l src e_l = sum c_j
    dst e_j.  One ``_dependencies`` of the vectors dst e_l, then src e_l <<
    bits, then src e_j | dst e_j << bits is a basis of those relations.
    One whose last vector is a c-vector has that vector's bit as its top
    c-bit; any other has no c-part.  So the nonzero c-parts are a basis of
    the projection, the next list.  All N are found iff N_{i+1} = N_i, the
    fixed point N*, whose list is returned.  N_{i+1} differs from N_i only
    when S_{i+1} is smaller than S_i, so within ``bits`` + 1 rounds.

    Theorem: an edge of E lies on a cycle iff both of its endpoints lie in
    the core S* = src N* & dst N*, that is, iff it lies in N*.

    Proof.  Only if: when every vertex of a closed walk lies in S_i, every
    edge of the walk lies in N_i, and each vertex is the source of one walk
    edge and the target of another, so it lies in S_{i+1}; by induction the
    walk stays in S*.  If: src N* and dst N* lie in S* and meet in S*, so
    both equal S*, and every core state has a successor and a predecessor
    along core edges.  N*^t, the t-edge walks, is again a linear relation,
    so the states a core state u reaches in t steps form a nonempty coset
    of R_t, the states 0 reaches in t steps.  The self-loop at 0 makes R_t
    grow with t, up to a subspace K = R_t for all t >= t0.  K is closed
    under steps, so u + K -> v + K for core edges (u, v) is a well-defined
    linear map f of S*/K; it is onto because every state has a
    predecessor, hence a permutation, and f^q = 1 for some q >= 1.  Take p
    a multiple of q with p - 1 >= t0.  For a core edge (u, v), the states v
    reaches in p - 1 steps form a coset of R_{p-1} = K inside
    f^(p-1)(v + K) = f^p(u + K) = u + K, so they are all of u + K, and v
    reaches u: the edge lies on a closed walk of p edges.
    """
    mask, both = (1 << bits) - 1, (1 << 2 * bits) - 1
    edges = list(edges)
    while True:
        count = len(edges)
        vectors = [e >> bits & mask for e in edges]  # dst_l, for a_l
        vectors += [(e & mask) << bits for e in edges]  # src_l, for b_l
        vectors += [e & both for e in edges]  # src_j | dst_j, for c_j
        combos = [tag >> 2 * count for tag in _dependencies(vectors) if tag >> 2 * count]
        if len(combos) == count:  # every edge kept: the fixed point
            return edges
        edges = [gf2_combination(edges, combo) for combo in combos]
