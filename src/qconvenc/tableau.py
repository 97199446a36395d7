"""Clifford completion, circuit extraction, and state-diagram analysis.

The encoder acts on width = memory + frame qubits, laid out as
``synth.EncoderRow`` states.  A tableau stores the image of each input X_q
and Z_q as a packed 2*width-bit Pauli (``pauli_to_vec``), so composing and
comparing maps is pure integer arithmetic.

Those rows serve the completion, which asks for images of inputs.  Circuit
extraction and replay work on the transposed tableau, one x and one z column
per qubit holding that qubit's bits of all 2*width images, where a gate
updates one or two whole columns.  The state diagram reads the images as its
transition map: a transition is an input word, and its output is the XOR of
the images of its bits; ``synth._parts`` cuts the pair into Paulis.  One
zero-physical solve is kept per tableau value and shape (``_solve``); both
verdicts read it, and the round trip runs none.
"""

from __future__ import annotations

import functools
import operator
import random
from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .code import ConvolutionalCode
from .errors import (
    DEFAULT_MEMORY_BOUND,
    CompletionError,
    GateError,
    MemoryBoundError,
    SynthesisFailureError,
    WidthMismatchError,
)
from .pauli import (
    Pauli,
    _Echelon,
    _Value,
    _dependencies,
    _place,
    _restrict,
    _transpose,
    gf2_basis,
    gf2_combination,
    gf2_span,
    swap_halves,
)
from .synth import PartialEncoder, _core, _parts

__all__ = [
    "Gate",
    "CliffordTableau",
    "StateDiagramEdge",
    "CycleWitness",
    "complete_to_clifford",
    "synthesize_circuit",
    "replay_gates",
    "zero_physical_edges",
    "detect_catastrophic",
    "verify_non_recursive",
    "roundtrip_verify",
    "GATE_COUNT_FACTOR",
]

# A synthesized circuit has at most 2 * width**2 + 4 * width <= 8 * width**2 gates.
GATE_COUNT_FACTOR = 8


class Gate(_Value, namedtuple("Gate", "kind qubits")):
    """A gate ``kind``, "h", "s", "cnot" or "cz", on a tuple of ``qubits``."""

    __slots__ = ()


class CliffordTableau(_Value, namedtuple("CliffordTableau", "width images")):
    """Symplectic map given by the images of every input X_q and Z_q.

    ``images`` is a tuple of packed Paulis on ``width`` qubits; a negative
    image, or one that does not fit 2 * width bits, raises ``WidthMismatchError``.
    """

    __slots__ = ()

    def __new__(cls, width: int, images: Iterable[int]) -> "CliffordTableau":
        width, images = operator.index(width), tuple(images)
        if len(images) != 2 * width:
            raise WidthMismatchError(
                f"tableau of width {width} needs {2 * width} images, got {len(images)}"
            )
        for t, image in enumerate(images):
            if image >> 2 * width:  # also nonzero for a negative image
                raise WidthMismatchError(f"image {t} = {image:#x} does not fit {width} qubits")
        return tuple.__new__(cls, (width, images))

    @classmethod
    def identity(cls, width: int) -> "CliffordTableau":
        return cls(width, [1 << t for t in range(2 * width)])

    def image_of_vector(self, vec: int) -> int:
        return gf2_combination(self.images, vec)


def _not_in_span_solution(
    particular: int, swapped_span: _Echelon, free: Sequence[int], w: int,
    rng: Optional[random.Random],
) -> Optional[Tuple[int, int, int]]:
    """A solution whose swapped halves lie outside ``swapped_span``, and
    ``swapped_span.reduce`` of those swapped halves.

    A solution is ``particular`` plus S, a word over the ``free`` columns,
    plus each pivot p whose row meets S oddly: that row holds no other pivot.
    """

    def outside(free_word: int) -> Optional[Tuple[int, int, int]]:
        cand = particular ^ free_word
        for p, row in swapped_span.rows.items():
            if (row & free_word).bit_count() & 1:
                cand ^= 1 << p
        rest, tag = swapped_span.reduce(swap_halves(cand, w))
        return (cand, rest, tag) if rest else None

    if rng is not None:
        for _ in range(64):
            mask = rng.getrandbits(len(free))
            found = outside(sum(1 << f for j, f in enumerate(free) if mask >> j & 1))
            if found:
                return found
    for free_word in (0, *(1 << f for f in free)):
        found = outside(free_word)
        if found:
            return found
    return None


def complete_to_clifford(encoder: PartialEncoder, seed: int = 0) -> CliffordTableau:
    """Extend the encoder's input-output rows to a full symplectic map.

    New input directions are paired with compatible output images one at a
    time; every commutation relation already fixed is preserved, and the
    given rows map exactly as specified.  Seed 0 extends along the standard
    basis; other seeds randomize both the direction and the image choice.

    Each row is read as its input and output word; ``PartialEncoder``
    checked their products when it was built.  Two echelons grow by one
    row per pair, each what a fresh build over the same rows would give,
    so the choices made do not depend on the growing.
    - The inputs, as rows ``input | image << 2w``, given row i tagged
      1 << i, so a dependent given row's tag names the rows it depends on.
      Pivots are input bits, so once the 2w inputs have full rank their
      part is the identity, and image t is the image part of pivot row t.
    - The swapped outputs (an image is outside span(outputs) iff its
      swap_halves is outside theirs), each pivot row p tagged with the
      input word in_p that its combination of outputs maps from.  A new
      image y for direction v needs <y, out_i> = <v, in_i>, a parity of
      y & swap_halves(out_i), for each appended pair.  Pivot row p sums
      the equations of its combination, and meets no other pivot, so the
      solution with free bits zero has pivot bit p = <v, in_p> =
      parity(swap_halves(v) & in_p).  A combination of outputs that is
      zero asks <v, in> = 0 of its input word in, or there is no image.
      So every right-hand side is one parity per tag, in one pass.
    The swapped outputs' non-pivot columns are kept in ascending order.
    Bit j of an rng mask picks free column j; seed 0 tries no free column,
    then each in turn.  Seed 0's scan for a unit vector outside the input
    span resumes where it stopped: a vector in the span stays there.

    The result is unchecked: it is symplectic and maps every given row.
    The added pairs (v, y), given rows then new directions, have
    independent inputs, so they fix one linear map L; every input bit ends
    a pivot, so pivot row t holds L(e_t), and the tableau is L.  Products
    agree on every two pairs: ``PartialEncoder`` checked the given rows,
    and a new y solves <y, out_i> = <v, in_i> for each pair before it.
    """
    w = encoder.width
    full = (1 << 2 * w) - 1
    rows = encoder.all_rows
    inputs, swapped_outputs = _Echelon(), _Echelon()
    free = list(range(2 * w))  # the swapped outputs' non-pivot columns

    def add_output(swapped: int, in_word: int) -> None:
        rest = swapped_outputs.add(swapped, in_word)[0]
        if rest:
            free.remove((rest & -rest).bit_length() - 1)

    for i, (v, image) in enumerate(rows):
        rest, tag = inputs.add(v | image << 2 * w, 1 << i)
        if not rest & full:  # the input reduced to zero
            members = [str(b + 1) for b in range(len(rows)) if tag >> b & 1]
            raise CompletionError("input rows are dependent: rows " + ", ".join(members))
        add_output(swap_halves(image, w), v)
    rng = random.Random(seed) if seed != 0 else None
    t = 0  # seed 0: every unit vector below t is in the input span
    while len(inputs.rows) < 2 * w:
        if rng is not None:
            v = rng.getrandbits(2 * w)
            while not (rest := inputs.reduce(v)[0]) & full:
                v = rng.getrandbits(2 * w)
        else:
            while not (rest := inputs.reduce(1 << t)[0]) & full:
                t += 1
            v = 1 << t
        swapped_v = swap_halves(v, w)
        found = None
        if not any((swapped_v & dep).bit_count() & 1 for dep in swapped_outputs.dependencies):
            particular = 0
            for p, in_p in swapped_outputs.tags.items():
                if (swapped_v & in_p).bit_count() & 1:
                    particular |= 1 << p
            found = _not_in_span_solution(particular, swapped_outputs, free, w, rng)
        if found is None:
            raise CompletionError(
                "no independent image for a new input direction; given rows are "
                "not jointly symplectic"
            )
        # Both words are already reduced, so neither echelon reduces them again.
        image, swapped_rest, swapped_tag = found
        inputs.add(rest ^ image << 2 * w, 0)
        add_output(swapped_rest, v ^ swapped_tag)
    return CliffordTableau(w, [inputs.rows[t] >> 2 * w for t in range(2 * w)])


def synthesize_circuit(tableau: CliffordTableau) -> List[Gate]:
    """Gate list whose replay onto the identity tableau reproduces the input.

    One qubit at a time, conjugation by primitive gates reduces the working
    tableau to the identity; the reversed gate sequence (every primitive is
    its own inverse) is the circuit.  The work runs on qubit columns, so a gate
    costs one or two integer updates however wide the tableau is.  A sweep
    applies each primitive inline, unchecked, as it reads its image's bits:
    cnot(q, r) and cz(q, r) change column r and qubit q's z column only,
    so every bit it reads past qubit q is the one the image had before the
    sweep, as if all were listed first.  The replay onto the identity
    checks every gate and compares its qubit columns with the tableau's,
    transposing neither back.  The reduction reached the identity iff that
    replay gives the tableau back, so no step is checked on the way.  A
    tableau that is not symplectic is refused with ``SynthesisFailureError``:
    some X_q image finds no pivot, or the replay differs.  The length is
    unchecked: qubit q takes at most an h and a cnot, a sweep (w - q - 1
    cnots, an s, w - q - 1 czs), and two h around one more sweep, 6 +
    4(w - q - 1) gates, so 6w + 2w(w - 1) = 2w^2 + 4w <= 8w^2 in all.
    """
    w = tableau.width
    columns = _transpose(tableau.images, 2 * w)
    xs, zs = columns[:w], columns[w:]
    applied: List[Gate] = []

    def h(q: int) -> None:
        xs[q], zs[q] = zs[q], xs[q]
        applied.append(Gate("h", (q,)))

    def sweep(q: int, t: int) -> None:
        # Clear image t, which has an x component on qubit q, down to X_q:
        # CNOTs clear its other x bits, S its z bit on q, CZs its other z bits.
        # cnot(q, r) and cz(q, r) change no column past q but column r, so
        # the live bits each loop reads are those of image t before the sweep.
        x, z = xs[q], zs[q]
        for r in range(q + 1, w):
            if xs[r] >> t & 1:  # cnot(q, r)
                xs[r] ^= x
                z ^= zs[r]
                applied.append(Gate("cnot", (q, r)))
        if z >> t & 1:  # s(q)
            z ^= x
            applied.append(Gate("s", (q,)))
        for r in range(q + 1, w):
            if zs[r] >> t & 1:  # cz(q, r)
                zs[r] ^= x
                z ^= xs[r]
                applied.append(Gate("cz", (q, r)))
        zs[q] = z

    for q in range(w):
        # Give the X_q image an x component on qubit q itself.
        if not (xs[q] >> q) & 1:
            pivot = next((r for r in range(q, w) if (xs[r] >> q) & 1), None)
            if pivot is None:
                pivot = next((r for r in range(q, w) if (zs[r] >> q) & 1), None)
                if pivot is None:  # no bit on qubits q..w-1: never when symplectic
                    raise SynthesisFailureError("the tableau is not symplectic")
                h(pivot)
            if pivot != q:  # cnot(pivot, q)
                xs[q] ^= xs[pivot]
                zs[pivot] ^= zs[q]
                applied.append(Gate("cnot", (pivot, q)))
        sweep(q, q)
        # Fix the Z_q image, conjugating through h so the same sweep applies.
        if [c for c in xs + zs if c >> w + q & 1] != [zs[q]]:  # image w + q is not Z_q
            h(q)
            sweep(q, w + q)
            h(q)
    gates = list(reversed(applied))
    if _replay_columns(w, gates) != columns:
        raise SynthesisFailureError("the extracted circuit does not replay to the tableau")
    return gates


def replay_gates(width: int, gates: Iterable[Gate]) -> CliffordTableau:
    """The tableau of the gates applied in order (``_replay_columns``)."""
    return CliffordTableau(width, _transpose(_replay_columns(width, gates), 2 * width))


def _replay_columns(w: int, gates: Iterable[Gate]) -> List[int]:
    """The qubit columns ``xs + zs`` of the gates applied in order.

    ``xs[q]`` and ``zs[q]`` hold qubit q's x and z bits of all 2w images,
    bit t for image t, and each gate is checked where it is applied: an
    unknown kind, a wrong qubit count, a qubit outside [0, w) or a
    two-qubit gate on one qubit raises ``GateError``.
    """
    xs = [1 << q for q in range(w)]
    zs = [1 << (w + q) for q in range(w)]
    for kind, qubits in gates:
        if kind == "cnot" or kind == "cz":
            a, b = qubits if len(qubits) == 2 else (-1, -1)
            if not (0 <= a < w and 0 <= b < w and a != b):
                raise GateError(f"{kind} needs two distinct qubits in [0, {w}), got {qubits}")
            if kind == "cnot":
                xs[b] ^= xs[a]
                zs[a] ^= zs[b]
            else:
                zs[b] ^= xs[a]
                zs[a] ^= xs[b]
        elif kind == "h" or kind == "s":
            q = qubits[0] if len(qubits) == 1 else -1
            if not 0 <= q < w:
                raise GateError(f"{kind} needs one qubit in [0, {w}), got {qubits}")
            if kind == "h":
                xs[q], zs[q] = zs[q], xs[q]
            else:
                zs[q] ^= xs[q]
        else:
            raise GateError(f"unknown gate kind {kind!r}")
    return xs + zs


class StateDiagramEdge(
    _Value, namedtuple("StateDiagramEdge", "mem_from anc logical physical mem_to")
):
    """One transition: inputs (M, S_z, L) produce outputs (P, M'), all Paulis."""

    __slots__ = ()

    @property
    def logical_weight(self) -> int:
        return (self.logical.x | self.logical.z).bit_count()

    def as_strings(self) -> Dict[str, str]:
        return {name: str(pauli) for name, pauli in zip(self._fields, self)}


class CycleWitness(_Value, namedtuple("CycleWitness", "edges")):
    """Zero-physical cycle carrying at least one non-identity logical label."""

    __slots__ = ()

    @property
    def vertices(self) -> List[Pauli]:
        """The cycle's states: vertex i is where edge i leaves from."""
        return [edge.mem_from for edge in self.edges]

    @property
    def logical_weight(self) -> int:
        return sum(edge.logical_weight for edge in self.edges)


def _split(tableau: CliffordTableau, n: int, k: int, m: int) -> int:
    """The tableau's width, once (n, k, m) is checked to split it."""
    w = tableau.width
    if not (0 <= k <= n and m >= 0 and w == m + n):
        raise WidthMismatchError(f"(n, k, m) = ({n}, {k}, {m}) does not split width {w}")
    return w


def _edge(tableau: CliffordTableau, n: int, k: int, m: int, word: int) -> StateDiagramEdge:
    """The transition an input word takes, as Paulis."""
    return StateDiagramEdge(*_parts(word, gf2_combination(tableau.images, word), n, k, m))


# Kept for the last tableau value and shape: equal tableaux share it,
# another replaces it.
@functools.lru_cache(maxsize=1)
def _solve(tableau: CliffordTableau, n: int, k: int, m: int) -> Tuple[List[int], List[int]]:
    """Basis of the zero-physical transitions and the ``synth._core`` of its span.

    The zero-physical condition is linear in the input word, so its
    solutions are the span of a nullspace of the physical images, taken
    over the directions memory X_q, Z_q per qubit, ancilla Z, then logical
    X_q, Z_q per qubit.  Each basis entry is an input word; a core edge's
    tag bit t marks basis entry t (``synth._core`` states the edge format).
    """
    w, images = tableau.width, tableau.images
    physical = ((1 << n) - 1) * (1 | 1 << w)
    order = [b for q in range(m) for b in (q, w + q)]
    order += range(w + m, 2 * w - k)
    order += [b for q in range(w - k, w) for b in (q, w + q)]
    directions = [1 << b for b in order]
    basis = [
        gf2_combination(directions, combo)
        for combo in _dependencies([images[b] & physical for b in order])
    ]
    return basis, _core([(word, gf2_combination(images, word)) for word in basis], n, k, m)


def _state_diagram(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int
) -> Tuple[List[int], List[int]]:
    """The tableau's kept solve, the memory bound and the shape checked first."""
    if m > max_memory:
        raise MemoryBoundError(m, max_memory)
    _split(tableau, n, k, m)
    return _solve(tableau, n, k, m)


def zero_physical_edges(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> List[StateDiagramEdge]:
    """Every state-diagram edge whose physical output is the identity,
    listed from the zero-physical solve the verdicts share: each input
    word of the span of its basis, a nullspace of the physical images, in
    mask order.  No edge needs a check.
    Not in ``qconvenc.__all__``: no verdict lists edges; perfbench's probe does."""
    basis, _ = _state_diagram(tableau, n, k, m, max_memory)
    return [_edge(tableau, n, k, m, word) for word in gf2_span(basis)]


def detect_catastrophic(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> Tuple[bool, Optional[CycleWitness]]:
    """Search the zero-physical subgraph for a cycle with logical content.

    The encoder is catastrophic iff some zero-physical edge with a
    non-identity logical label lies on a cycle, iff some edge of the
    ``cycle_core`` basis carries a logical label; no edge is listed to
    decide.  The witness is the first labelled edge u -> v on a cycle, in
    the mask order of the zero-physical basis, and a fewest-edge walk back,
    taking the first edge between each pair of vertices.  Only the core
    edges are listed for it, as the span of their own ``gf2_basis``: a
    core edge's top field is its mask, so that span ascends in mask order.
    That loses nothing: u -> v lies on a cycle iff v reaches u, iff u and v
    share a strongly connected component.  So every edge inside v's
    component is a core edge, and a breadth-first search from v over the
    core edges, keeping the edge that discovered each vertex, keeps the
    levels, frontier order and parents of one over all edges, up to u.
    """
    basis, core = _state_diagram(tableau, n, k, m, max_memory)
    low_m, labels = (1 << 2 * m) - 1, (1 << 2 * k) - 1
    if not any((edge >> 4 * m) & labels for edge in core):
        return False, None
    edges = gf2_span(gf2_basis(core))
    first = next(edge for edge in edges if (edge >> 4 * m) & labels)
    u, v = first & low_m, (first >> 2 * m) & low_m
    leaving: Dict[int, List[int]] = {}
    for edge in edges:
        leaving.setdefault(edge & low_m, []).append(edge)
    discovered: Dict[int, int] = {v: first}  # vertex -> the edge that reached it
    queue = [v]  # grows while the loop reads it
    for x in queue:
        if u in discovered:
            break
        for edge in leaving.get(x, ()):
            y = (edge >> 2 * m) & low_m
            if y not in discovered:
                discovered[y] = edge
                queue.append(y)
    walk = []  # the way back, from u's discovering edge to v
    while u != v:
        walk.append(discovered[u])
        u = walk[-1] & low_m
    witness = [first] + walk[::-1]
    return True, CycleWitness(
        [_edge(tableau, n, k, m, gf2_combination(basis, edge >> 4 * m + 2 * k)) for edge in witness]
    )


def verify_non_recursive(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> Tuple[bool, Optional[List[StateDiagramEdge]]]:
    """Find a path out of a zero-physical loop that returns to one.

    The loop vertices, those on a zero-physical cycle, are the core of
    ``cycle_core``; vertex 0 is one, by its zero-input self-loop.  The
    first edge leaves a loop vertex on exactly one non-identity logical
    label and must not itself sit on a zero-physical cycle, i.e. must not
    be a zero-physical edge into a loop vertex.  All later inputs are
    identity, which makes the continuation a deterministic walk; a walk
    that ends in a cycle off the loops marks each vertex it passed, and
    later walks stop at a marked vertex.  Success exhibits finite-impulse
    behavior: the encoder is not recursive.

    A vertex is kept as the identity-input word on it, the memory qubits
    of an input word, so the memory an output leaves is the next input.
    The loop vertices are never listed.  The starts are walked in ascending
    order, combination c of the core's ``gf2_basis`` at step c, and a
    vertex is a loop vertex iff an ``_Echelon`` over that basis reduces it
    to zero.  Placing the basis on the memory qubits keeps the order of its
    bits, so neither the order nor the echelon changes.  So a verdict that
    escapes early costs no more than its walk; only a recursive encoder,
    which is catastrophic, visits every start.
    """
    core = _state_diagram(tableau, n, k, m, max_memory)[1]
    w, images = tableau.width, tableau.images
    physical = ((1 << n) - 1) * (1 | 1 << w)
    memory = ((1 << m) - 1) * (1 | 1 << w)
    basis = [_place(s, m, w, 0) for s in gf2_basis(edge & ((1 << 2 * m) - 1) for edge in core)]
    loops = _Echelon(basis)  # a vertex is a loop vertex iff it reduces to zero
    stranded = set()  # vertices whose identity-input walk misses every loop
    labels = [x << q | z << w + q for q in range(w - k, w) for x, z in ((1, 0), (0, 1), (1, 1))]
    for c in range(1 << len(basis)):  # the loop vertices, ascending, one at a time
        start = gf2_combination(basis, c)
        for logical in labels:
            for anc_mask in range(1 << (n - k)):
                words = [start | anc_mask << w + m | logical]
                out = gf2_combination(images, words[0])
                vertex = out >> n & memory
                if not out & physical and not loops.reduce(vertex)[0]:
                    continue  # first edge lies on a zero-physical cycle
                while vertex not in stranded and loops.reduce(vertex)[0]:
                    stranded.add(vertex)
                    words.append(vertex)  # identity input: the word is the state
                    vertex = gf2_combination(images, vertex) >> n & memory
                if vertex not in stranded:  # the walk met a loop vertex
                    return True, [_edge(tableau, n, k, m, x) for x in words]
    return False, None


def roundtrip_verify(tableau: CliffordTableau, code: ConvolutionalCode) -> int:
    """Stream each generator through the encoder frame by frame.

    Ancilla i carries Z in the first frame and identity afterwards; the
    physical part emitted in frame j must be frame j of the generator's
    stream word, and the memory must return to identity.
    """
    n, k = code.n, code.k
    m = tableau.width - n
    w = _split(tableau, n, k, m)
    memory = ((1 << m) - 1) * (1 | 1 << w)
    frame = 2 * n
    for i, gen in enumerate(code.generators):
        mem = 0
        for j in range(gen.degree):
            anc = 1 << w + m + i if j == 0 else 0
            out = gf2_combination(tableau.images, mem | anc)
            if _restrict(out, w, 0, n) != gen.word >> frame * j & (1 << frame) - 1:
                return 0
            mem = out >> n & memory
        if mem:
            return 0
    return 1
