"""Clifford completion, circuit extraction, and state-diagram analysis.

The encoder acts on width = memory + frame qubits.  Input qubits are laid out
as memory, then ancilla, then information; output qubits as physical frame,
then memory.  A tableau stores the image of each input X_q and Z_q as a
packed 2*width-bit vector (bit q = x component on qubit q, bit width+q = z
component), so composing and comparing maps is pure integer arithmetic.

Those rows serve the completion, which asks for images of inputs.  Circuit
extraction and replay work on the transposed tableau, one x and one z column
per qubit holding that qubit's bits of all 2*width images, where a gate
updates one or two whole columns.  The state diagram is read from one
realisation of the encoder as a linear system over GF(2) (``_Realisation``),
built from the images of the memory, ancilla Z and logical inputs.  It and
its zero-physical solve are kept on the tableau, so both verdicts read one;
the round trip reads a realisation of its own.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .code import ConvolutionalCode
from .errors import CompletionError, MemoryBoundError, SynthesisFailureError, WidthMismatchError
from .pauli import (
    Pauli,
    _Echelon,
    _add_to_dot_system,
    _annihilator,
    _product_mismatch,
    _products,
    _transpose,
    cycle_core,
    gf2_basis,
    gf2_combination,
    gf2_span,
    pauli_to_vec,
    shortest_path,
    successor_lists,
    swap_halves,
    vec_to_pauli,
)
from .synth import PartialEncoder, _encoder_words

__all__ = [
    "Gate",
    "CliffordTableau",
    "StateDiagramEdge",
    "CycleWitness",
    "pauli_to_vec",
    "vec_to_pauli",
    "complete_to_clifford",
    "synthesize_circuit",
    "replay_gates",
    "zero_physical_edges",
    "detect_catastrophic",
    "verify_non_recursive",
    "roundtrip_verify",
    "GATE_COUNT_FACTOR",
]

# Worst-case gates per synthesized circuit is GATE_COUNT_FACTOR * width**2.
GATE_COUNT_FACTOR = 8

DEFAULT_MEMORY_BOUND = 8


class Gate(NamedTuple):
    kind: str  # "h", "s", "cnot" or "cz"
    qubits: Tuple[int, ...]

    def as_json(self) -> Dict[str, object]:
        return {"kind": self.kind, "qubits": list(self.qubits)}


class CliffordTableau:
    """Symplectic map given by the images of every input X_q and Z_q.

    ``_solved`` keeps the last state-diagram solve (``_state_diagram``).
    """

    __slots__ = ("width", "images", "_solved")

    def __init__(self, width: int, images: Sequence[int]):
        if len(images) != 2 * width:
            raise WidthMismatchError(
                f"tableau of width {width} needs {2 * width} images, got {len(images)}"
            )
        self.width = width
        self.images = list(images)
        self._solved: Optional[tuple] = None

    @classmethod
    def identity(cls, width: int) -> "CliffordTableau":
        return cls(width, [1 << t for t in range(2 * width)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return self.width == other.width and self.images == other.images

    def is_identity(self) -> bool:
        return self.images == [1 << t for t in range(2 * self.width)]

    def is_symplectic(self) -> bool:
        """Whether every image pair keeps the product of its inputs: each
        whole Gram row, from one transpose, must be the identity's."""
        w = self.width
        gram = _products(self.images, [swap_halves(vec, w) for vec in self.images])
        return gram == [swap_halves(1 << a, w) for a in range(2 * w)]

    def image_of_vector(self, vec: int) -> int:
        return gf2_combination(self.images, vec)


def _apply_gate(xs: List[int], zs: List[int], gate: Gate) -> None:
    """Conjugate every image by ``gate``, on the qubit columns of a tableau.

    ``xs[q]`` and ``zs[q]`` hold qubit q's x and z bits of all 2w images,
    bit t for image t.  Each primitive is an involution on vectors, which
    circuit extraction relies on.
    """
    kind, qubits = gate
    if kind == "h":
        (q,) = qubits
        xs[q], zs[q] = zs[q], xs[q]
    elif kind == "s":
        (q,) = qubits
        zs[q] ^= xs[q]
    elif kind == "cnot":
        c, t = qubits
        xs[t] ^= xs[c]
        zs[c] ^= zs[t]
    elif kind == "cz":
        a, b = qubits
        zs[b] ^= xs[a]
        zs[a] ^= xs[b]
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def _not_in_span_solution(
    particular: int, null_basis: Sequence[int], swapped_span: _Echelon, w: int,
    rng: Optional[random.Random],
) -> Optional[int]:
    """A solution whose swapped halves lie outside ``swapped_span``."""

    def outside(cand: int) -> int:
        return swapped_span.reduce(swap_halves(cand, w))[0]

    if rng is not None:
        for _ in range(64):
            mask = rng.getrandbits(len(null_basis)) if null_basis else 0
            cand = particular ^ gf2_combination(null_basis, mask)
            if outside(cand):
                return cand
    if outside(particular):
        return particular
    for vec in null_basis:
        if outside(particular ^ vec):
            return particular ^ vec
    return None


def complete_to_clifford(encoder: PartialEncoder, seed: int = 0) -> CliffordTableau:
    """Extend the encoder's input-output rows to a full symplectic map.

    New input directions are paired with compatible output images one at a
    time; every commutation relation already fixed is preserved, and the
    given rows map exactly as specified.  Seed 0 extends along the standard
    basis; other seeds randomize both the direction and the image choice.

    Each row is read as its input and output word.  Two echelons grow by
    one row per pair: the inputs and the swapped outputs (an image is
    outside span(outputs) iff its swap_halves is outside theirs).  They
    answer every membership probe, solve each new image's commutation
    constraints, report dependent given rows, and, once the inputs span
    everything, the input tags give the inverse of the input basis.  The
    nullspace of the swapped outputs grows with them
    (``_add_to_dot_system``); a new image is a particular solution read off
    the tags plus a combination of it.  Each is what a fresh build over the
    same rows would give, so the choices made do not depend on the growing.
    Seed 0's scan for a unit vector outside the input span resumes where it
    stopped: a vector in the span stays there.
    """
    w = encoder.width
    in_vecs, out_vecs = _encoder_words(encoder.all_rows, w)
    pair = _product_mismatch(in_vecs, out_vecs, w)
    if pair is not None:
        raise CompletionError(
            f"rows {pair[0] + 1} and {pair[1] + 1} do not transform consistently"
        )
    inputs, swapped_outputs = _Echelon(), _Echelon()
    nullspace = {f: 1 << f for f in range(2 * w)}  # of the swapped outputs
    basis_in: List[int] = []
    basis_out: List[int] = []
    in_columns = [0] * (2 * w)  # bit i of column b: bit b of basis_in[i]

    def append(v: int, image: int) -> None:
        tag = 1 << len(basis_in)
        basis_in.append(v)
        basis_out.append(image)
        rest = v
        while rest:
            low = rest & -rest
            in_columns[low.bit_length() - 1] |= tag
            rest ^= low
        inputs.add(v, tag)
        _add_to_dot_system(swapped_outputs, nullspace, swap_halves(image, w), tag)

    for v, image in zip(in_vecs, out_vecs):
        append(v, image)
    if inputs.dependencies:
        dep = inputs.dependencies[0]
        members = [str(b + 1) for b in range(len(in_vecs)) if (dep >> b) & 1]
        raise CompletionError(
            "input rows are dependent: rows " + ", ".join(members)
        )
    rng = random.Random(seed) if seed != 0 else None
    t = 0  # seed 0: every unit vector below t is in the input span
    while len(basis_in) < 2 * w:
        v = None
        if rng is not None:
            while True:
                cand = rng.getrandbits(2 * w)
                if cand and inputs.reduce(cand)[0]:
                    v = cand
                    break
        else:
            while t < 2 * w:
                if inputs.reduce(1 << t)[0]:
                    v = 1 << t
                    break
                t += 1
        assert v is not None
        swapped_v = swap_halves(v, w)
        rhs_mask = gf2_combination(in_columns, swapped_v)
        particular = swapped_outputs.particular(rhs_mask)
        image = None
        if particular is not None:
            image = _not_in_span_solution(
                particular, list(nullspace.values()), swapped_outputs, w, rng
            )
        if image is None:
            raise CompletionError(
                "no independent image for a new input direction; given rows are "
                "not jointly symplectic"
            )
        append(v, image)
    # Full rank: the reduced input basis is the identity, so unit vector t's
    # tag is the combination of input rows equal to it.
    assert inputs.pivots == (1 << 2 * w) - 1
    tableau = CliffordTableau(
        w, [gf2_combination(basis_out, inputs.tags[t]) for t in range(2 * w)]
    )
    if not tableau.is_symplectic():
        raise CompletionError("the completed tableau is not symplectic")
    for row, (in_vec, out_vec) in enumerate(zip(in_vecs, out_vecs), start=1):
        if tableau.image_of_vector(in_vec) != out_vec:
            raise CompletionError(f"the completed tableau does not map row {row} as given")
    return tableau


def synthesize_circuit(tableau: CliffordTableau) -> List[Gate]:
    """Gate list whose replay onto the identity tableau reproduces the input.

    One qubit at a time, conjugation by primitive gates reduces the working
    tableau to the identity; the reversed gate sequence (every primitive is
    its own inverse) is the circuit.  Gate count stays below
    GATE_COUNT_FACTOR * width**2.  The work runs on qubit columns, so a gate
    costs one or two integer updates however wide the tableau is.
    """
    w = tableau.width
    columns = _transpose(tableau.images, 2 * w)
    xs, zs = columns[:w], columns[w:]
    applied: List[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        gate = Gate(kind, qubits)
        _apply_gate(xs, zs, gate)
        applied.append(gate)

    def is_unit(t: int, u: int) -> bool:
        # Whether image t is the unit vector 1 << u: column u alone has bit t.
        bit = 1 << t
        columns = xs + zs
        return bool(columns[u] & bit) and [c & bit for c in columns].count(0) == 2 * w - 1

    def sweep(q: int, t: int) -> None:
        # Clear image t, which has an x component on qubit q, down to X_q:
        # CNOTs clear its other x bits, S its z bit on q, CZs its other z bits.
        # cnot(q, r) and cz(q, r) change no column past r but column r, so
        # the live bits each loop reads are those of image t before it.
        for r in range(q + 1, w):
            if (xs[r] >> t) & 1:
                emit("cnot", q, r)
        if (zs[q] >> t) & 1:
            emit("s", q)
        for r in range(q + 1, w):
            if (zs[r] >> t) & 1:
                emit("cz", q, r)
        assert is_unit(t, q)

    for q in range(w):
        # Give the X_q image an x component on qubit q itself.
        if not (xs[q] >> q) & 1:
            pivot = next((r for r in range(q, w) if (xs[r] >> q) & 1), None)
            if pivot is None:
                pivot = next((r for r in range(q, w) if (zs[r] >> q) & 1), None)
                assert pivot is not None
                emit("h", pivot)
            if pivot != q:
                emit("cnot", pivot, q)
        sweep(q, q)
        # Fix the Z_q image, conjugating through h so the same sweep applies.
        if not is_unit(w + q, w + q):
            emit("h", q)
            assert (xs[q] >> (w + q)) & 1
            sweep(q, w + q)
            emit("h", q)
        assert is_unit(q, q) and is_unit(w + q, w + q)
    assert xs + zs == [1 << t for t in range(2 * w)]
    gates = list(reversed(applied))
    assert len(gates) <= GATE_COUNT_FACTOR * w * w
    if replay_gates(w, gates) != tableau:
        raise SynthesisFailureError("the extracted circuit does not replay to the tableau")
    return gates


def replay_gates(width: int, gates: Iterable[Gate]) -> CliffordTableau:
    """The tableau of the gates applied in order, replayed on qubit columns."""
    xs = [1 << q for q in range(width)]
    zs = [1 << (width + q) for q in range(width)]
    for gate in gates:
        _apply_gate(xs, zs, gate)
    return CliffordTableau(width, _transpose(xs + zs, 2 * width))


class StateDiagramEdge(NamedTuple):
    """One transition: inputs (M, S_z, L) produce outputs (P, M')."""

    mem_from: Pauli
    anc: Pauli
    logical: Pauli
    physical: Pauli
    mem_to: Pauli

    @property
    def logical_weight(self) -> int:
        return (self.logical.x | self.logical.z).bit_count()

    def as_strings(self) -> Dict[str, str]:
        return {
            "mem_from": str(self.mem_from),
            "anc": str(self.anc),
            "logical": str(self.logical),
            "physical": str(self.physical),
            "mem_to": str(self.mem_to),
        }


class CycleWitness:
    """Zero-physical cycle carrying at least one non-identity logical label."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: List[Pauli], edges: List[StateDiagramEdge]):
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleWitness):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    @property
    def logical_weight(self) -> int:
        return sum(edge.logical_weight for edge in self.edges)


def _weight_one_labels(k: int) -> List[int]:
    return [x << q | z << k + q for q in range(k) for x, z in ((1, 0), (0, 1), (1, 1))]


class _Realisation:
    """The encoder as a linear system over GF(2): memory' = A mem + B u and
    physical = C mem + D u, read once from the tableau.

    A transition word is ``s | u << 2m``: the packed memory s (x bits, then
    z bits), then u, the ancilla Z bits and the packed logical x and z bits.
    ``columns[i]`` is the output of input bit i, ``physical | mem_to << 2n``,
    so a word's output is the XOR of the columns of its set bits.
    """

    def __init__(self, tableau: CliffordTableau, n: int, k: int, m: int):
        w = tableau.width
        if not (0 <= k <= n and m >= 0 and w == m + n):
            raise WidthMismatchError(f"(n, k, m) = ({n}, {k}, {m}) does not split width {w}")
        self.n, self.k, self.m = n, k, m
        self.physical = (1 << 2 * n) - 1  # mask of an output's physical bits
        inputs = (
            *range(m), *range(w, w + m),  # memory X, Z
            *range(w + m, 2 * w - k),  # ancilla Z
            *range(w - k, w), *range(2 * w - k, 2 * w),  # logical X, Z
        )
        low_n, all_w = (1 << n) - 1, (1 << w) - 1
        self.columns = []
        for t in inputs:
            x, z = tableau.images[t] & all_w, tableau.images[t] >> w
            mem_to = x >> n | (z >> n) << m
            self.columns.append(x & low_n | (z & low_n) << n | mem_to << 2 * n)

    def out(self, word: int) -> int:
        """The output ``physical | mem_to << 2n`` of a transition word."""
        return gf2_combination(self.columns, word)

    def edge(self, word: int) -> StateDiagramEdge:
        """The transition a word takes, as Paulis."""
        n, k, m = self.n, self.k, self.m
        out = self.out(word)
        u = word >> 2 * m
        return StateDiagramEdge(
            mem_from=vec_to_pauli(word, m),
            anc=Pauli(n - k, 0, u & ((1 << n - k) - 1)),
            logical=vec_to_pauli(u >> n - k, k),
            physical=vec_to_pauli(out, n),
            mem_to=vec_to_pauli(out >> 2 * n, m),
        )

    def zero_physical(self, max_memory: int) -> Tuple[List[int], List[int]]:
        """Basis of the zero-physical edges, and the ``cycle_core`` of its span.

        The zero-physical condition C mem + D u = 0 is linear, so its
        solutions are the span of a nullspace basis, taken over the
        directions memory X_q, Z_q per qubit, ancilla Z, then logical X_q,
        Z_q per qubit.  Each basis entry is ``word | out << bits`` over the
        ``bits`` input bits.  A core edge is ``mem_from | mem_to << 2m |
        label << 4m``, the label being the 2k logical bits, then a tag whose
        bit t marks basis entry t.
        """
        n, k, m = self.n, self.k, self.m
        if m > max_memory:
            raise MemoryBoundError(m, max_memory)
        order = [b for q in range(m) for b in (q, m + q)]
        order += range(2 * m, 2 * m + n - k)
        order += [b for q in range(k) for b in (2 * m + n - k + q, 2 * m + n + q)]
        directions = [1 << b for b in order]
        images = [self.columns[b] for b in order]
        bits = len(self.columns)
        basis = [
            gf2_combination(directions, combo) | gf2_combination(images, combo) << bits
            for combo in _annihilator(_transpose(images, 2 * n), len(order))
        ]
        low_m, logical = (1 << 2 * m) - 1, (1 << 2 * k) - 1
        packed = [
            entry & low_m
            | (entry >> bits + 2 * n) << 2 * m
            | ((entry >> 2 * m + n - k) & logical | 1 << 2 * k + t) << 4 * m
            for t, entry in enumerate(basis)
        ]
        return basis, cycle_core(packed, 2 * m)

    def listed(self, basis: Sequence[int]) -> List[Tuple[int, int, int]]:
        """(word, packed mem_from, packed mem_to) of every edge in the span of
        ``zero_physical`` basis entries, in the mask order of the basis."""
        bits = len(self.columns)
        full, low_m = (1 << bits) - 1, (1 << 2 * self.m) - 1
        edges = []
        for entry in gf2_span(basis):
            word, out = entry & full, entry >> bits
            if out & self.physical:
                raise SynthesisFailureError("a listed zero-physical edge has physical output")
            edges.append((word, word & low_m, out >> 2 * self.n))
        return edges

    def catastrophic(
        self, basis: Sequence[int], core: Sequence[int]
    ) -> Tuple[bool, Optional[CycleWitness]]:
        """``detect_catastrophic``'s verdict and witness."""
        n, k, m = self.n, self.k, self.m
        if not any((edge >> 4 * m) & ((1 << 2 * k) - 1) for edge in core):
            return False, None
        masks = gf2_basis(edge >> 4 * m + 2 * k for edge in core)
        edges = self.listed([gf2_combination(basis, c) for c in masks])
        logical = ((1 << 2 * k) - 1) << 2 * m + n - k
        word, u, v = next(edge for edge in edges if edge[0] & logical)
        path = shortest_path(successor_lists((a, b) for _, a, b in edges), v, u)
        first = {(a, b): x for x, a, b in reversed(edges)}  # first listed per pair
        words = [word] + [first[pair] for pair in zip(path, path[1:])]
        return True, CycleWitness(
            vertices=[vec_to_pauli(u, m) for u in path[-1:] + path[:-1]],
            edges=[self.edge(x) for x in words],
        )

    def non_recursive(self, core: Sequence[int]) -> Tuple[bool, Optional[List[StateDiagramEdge]]]:
        """``verify_non_recursive``'s verdict and escape path."""
        n, k, m = self.n, self.k, self.m
        starts = gf2_span(gf2_basis(edge & ((1 << 2 * m) - 1) for edge in core))  # ascending
        loop_vertices = set(starts)
        stranded = set()  # vertices whose identity-input walk misses every loop
        for start in starts:
            for logical in _weight_one_labels(k):
                for anc_mask in range(1 << (n - k)):
                    words = [start | (anc_mask | logical << n - k) << 2 * m]
                    out = self.out(words[0])
                    vertex = out >> 2 * n
                    if not out & self.physical and vertex in loop_vertices:
                        continue  # first edge lies on a zero-physical cycle
                    while vertex not in loop_vertices and vertex not in stranded:
                        stranded.add(vertex)
                        words.append(vertex)  # identity input: the word is the state
                        vertex = self.out(vertex) >> 2 * n
                    if vertex in loop_vertices:
                        return True, [self.edge(x) for x in words]
        return False, None


def _state_diagram(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int
) -> Tuple[_Realisation, List[int], List[int]]:
    """The tableau's realisation, zero-physical basis and core, solved once
    per ``(images, n, k, m)`` and kept on the tableau; a mutated image or
    another shape is solved again.  The memory bound is checked every call.
    """
    key = (tuple(tableau.images), n, k, m)
    solved = tableau._solved
    if solved is None or solved[0] != key:
        realisation = _Realisation(tableau, n, k, m)
        solved = (key, realisation, *realisation.zero_physical(max_memory))
        tableau._solved = solved
    elif m > max_memory:
        raise MemoryBoundError(m, max_memory)
    return solved[1:]


def zero_physical_edges(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> List[StateDiagramEdge]:
    """Every state-diagram edge whose physical output is the identity,
    listed from the zero-physical solve the verdicts share."""
    realisation, basis, _ = _state_diagram(tableau, n, k, m, max_memory)
    return [realisation.edge(word) for word, _, _ in realisation.listed(basis)]


def detect_catastrophic(
    tableau: CliffordTableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> Tuple[bool, Optional[CycleWitness]]:
    """Search the zero-physical subgraph for a cycle with logical content.

    The encoder is catastrophic iff some zero-physical edge with a
    non-identity logical label lies on a cycle, iff some edge of the
    ``cycle_core`` basis carries a logical label; no edge is listed to
    decide.  The witness is the first labelled edge on a cycle, in the mask
    order of the zero-physical basis, and a fewest-edge walk back, taking
    the first edge between each pair of vertices.  Only the core edges are
    listed for it, in that order (their masks span a subspace, listed
    ascending over its ``gf2_basis``).  That loses nothing: u -> v lies on
    a cycle iff v reaches u, iff u and v share a strongly connected
    component.  So every edge inside v's component is a core edge, and a
    breadth-first search from v over the core edges keeps the levels,
    frontier order and parents of one over all edges, up to u.

    The basis and core are the tableau's one solve (``_state_diagram``),
    which ``verify_non_recursive`` and ``zero_physical_edges`` also read.
    """
    realisation, basis, core = _state_diagram(tableau, n, k, m, max_memory)
    return realisation.catastrophic(basis, core)


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

    The core is the tableau's one solve, shared with ``detect_catastrophic``.
    """
    realisation, _, core = _state_diagram(tableau, n, k, m, max_memory)
    return realisation.non_recursive(core)


def roundtrip_verify(tableau: CliffordTableau, code: ConvolutionalCode) -> int:
    """Stream each generator through the encoder frame by frame.

    Ancilla i carries Z in the first frame and identity afterwards; the
    physical part emitted in frame j must be frame j of the generator's
    stream word, and the memory must return to identity.
    """
    n, k = code.n, code.k
    m = tableau.width - n
    realisation = _Realisation(tableau, n, k, m)
    frame = 2 * n
    for i, gen in enumerate(code.generators):
        mem = 0
        for j in range(gen.degree):
            anc_mask = (1 << i) if j == 0 else 0
            out = realisation.out(mem | anc_mask << 2 * m)
            if out & realisation.physical != gen.word >> frame * j & (1 << frame) - 1:
                return 0
            mem = out >> 2 * n
        if mem:
            return 0
    return 1
