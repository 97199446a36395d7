"""Exhaustive search oracles that only the tests use."""

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from qconvenc.code import ConvolutionalCode, GeneratorPolynomial
from qconvenc.errors import (
    CompletionError,
    DegenerateCodeError,
    InvalidMatrixError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    GramSchmidtResult,
    Pauli,
    _Echelon,
    _dependencies,
    _products,
    _transpose,
    gf2_combination,
    gf2_rank,
    gf2_span,
    pauli_to_vec,
    swap_halves,
    symplectic_product_vec,
    vec_to_pauli,
)
from qconvenc.synth import EncoderRow, MemoryOperatorTable, PartialEncoder, _memory_indices
from qconvenc.tableau import (
    DEFAULT_MEMORY_BOUND,
    GATE_COUNT_FACTOR,
    CliffordTableau,
    CycleWitness,
    Gate,
    StateDiagramEdge,
    replay_gates,
    zero_physical_edges,
)


def _parity(word: int) -> int:
    return word.bit_count() & 1


def symplectic_product(a: Pauli, b: Pauli) -> int:
    """0 if two equal-width Paulis commute, 1 if they anticommute."""
    return symplectic_product_vec(pauli_to_vec(a), pauli_to_vec(b), a.width)


def pauli_product(a: Pauli, b: Pauli) -> Pauli:
    """The projective product of two equal-width Paulis."""
    return Pauli(a.width, a.x ^ b.x, a.z ^ b.z)


def pauli_concat(a: Pauli, b: Pauli) -> Pauli:
    """``a`` tensored with ``b``, which acts on fresh qubits after a's."""
    return Pauli(a.width + b.width, a.x | b.x << a.width, a.z | b.z << a.width)


def pauli_cut(p: Pauli, start: int, stop: int) -> Pauli:
    """Restriction of ``p`` to the qubit range [start, stop)."""
    mask = (1 << (stop - start)) - 1
    return Pauli(stop - start, p.x >> start & mask, p.z >> start & mask)


def generator_from_strings(parts: Sequence[str]) -> GeneratorPolynomial:
    """The generator whose blocks, frame 1 first, are the given Pauli strings."""
    return GeneratorPolynomial.from_blocks(tuple(Pauli.from_string(p) for p in parts))


class TrackedEchelon(_Echelon):
    """``_Echelon`` that also records, in ``dependencies``, the tag of each
    added row that reduced to zero: it names a combination of added rows
    that XORs to zero.  No code in the package reads such tags."""

    def __init__(self, rows: Iterable[int] = ()):
        self.dependencies: List[int] = []
        super().__init__(rows)

    def add(self, vec: int, tag: int) -> Tuple[int, int]:
        vec, tag = super().add(vec, tag)
        if not vec:
            self.dependencies.append(tag)
        return vec, tag


def gf2_row_dependencies(rows: Sequence[int]) -> List[int]:
    """Basis of coefficient masks c with XOR of {rows[i] : bit i of c} = 0.

    Bit i of each returned mask refers to rows[i].  Row i reducing to zero
    gives one mask: bit i plus the unique combination of earlier
    independent rows equal to it.
    """
    return TrackedEchelon(rows).dependencies


def gf2_in_rowspan(vec: int, rows: Sequence[int]) -> bool:
    return _Echelon(rows).reduce(vec)[0] == 0


def gf2_invert(rows: Sequence[int], n: int) -> Optional[List[int]]:
    """Inverse of an n x n matrix given as packed rows, or None if singular."""
    basis = _Echelon(rows)
    if basis.pivots != (1 << n) - 1:
        return None
    # Full rank: the reduced basis is the identity, so row p's tag is the
    # combination of input rows equal to the unit vector p.
    return [basis.tags[p] for p in range(n)]


def matrix_entries(rows: Sequence[int]) -> List[List[int]]:
    """The 0/1 entries of a square matrix of row words: entry (r, c) is bit c
    of rows[r], for c < len(rows)."""
    return [[(row >> c) & 1 for c in range(len(rows))] for row in rows]


def matrix_rows(entries: Sequence[Sequence[int]]) -> List[int]:
    """Row words of a 0/1 matrix: bit c of row r is entry (r, c)."""
    return [sum((bit & 1) << c for c, bit in enumerate(row)) for row in entries]


def gf2_solve_dot_system(
    rows: Sequence[int], ncols: int, rhs: Sequence[int]
) -> Optional[Tuple[int, List[int]]]:
    """Solve <rows[i], v> = rhs[i] (dot-product parity) for v on a fresh echelon.

    Returns (particular solution with free variables zero, nullspace basis
    over ``ncols`` columns), or None when inconsistent: the reference for a
    grown echelon's answers and for the package's column dependencies.  The
    nullspace is read off the fully reduced rows, one vector per free column
    f in ascending order: f plus the pivots of the rows with bit f set.
    """
    if len(rows) != len(rhs):
        raise InvalidMatrixError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    rhs_mask = sum((int(b) & 1) << i for i, b in enumerate(rhs))
    echelon = TrackedEchelon(rows)
    # A homogeneous system always has the zero solution.
    particular = echelon_particular(echelon, rhs_mask) if rhs_mask else 0
    if particular is None:
        return None
    free = [f for f in range(ncols) if not (echelon.pivots >> f) & 1]
    return particular, [
        1 << f | sum(((row >> f) & 1) << p for p, row in echelon.rows.items()) for f in free
    ]


def echelon_particular(echelon: TrackedEchelon, rhs_mask: int) -> Optional[int]:
    """A solution v of parity(row_i & v) = bit i of ``rhs_mask``, row i
    being the one added to ``echelon`` with tag 1 << i: the one with free
    variables zero, read off the tags.  None when some dependency has odd
    right-hand side."""
    if any(_parity(dep & rhs_mask) for dep in echelon.dependencies):
        return None
    solution = 0
    for p, tag in echelon.tags.items():
        if _parity(tag & rhs_mask):
            solution |= 1 << p
    return solution


def add_to_dot_system(
    basis: TrackedEchelon, nullspace: Dict[int, int], vec: int, tag: int
) -> None:
    """``basis.add(vec, tag)``, keeping ``nullspace`` the nullspace basis of
    the added rows that ``_dependencies(_transpose(rows, ncols))`` lists, as
    free column f -> vector N_f.

    ``nullspace`` starts as {f: 1 << f for f < ncols}, and rows fit in ncols
    bits.  N_f is the one nullspace vector whose only free bit is f.  A
    remainder with new pivot p pops N_p, whose product with it is odd: the
    remainder holds no older pivot, so it meets N_p only in p.  Each N_f
    with odd product takes N_p on, which evens the product and adds no free
    bit.  A zero remainder changes nothing.  Keys stay ascending, the order
    ``_dependencies`` lists.
    """
    rest, _ = basis.add(vec, tag)
    if rest:
        pivot = nullspace.pop((rest & -rest).bit_length() - 1)
        for f, null in nullspace.items():
            if _parity(null & rest):
                nullspace[f] = null ^ pivot


def row_from_parts(
    mem_in: Pauli, anc_in: Pauli, info_in: Pauli, phys_out: Pauli, mem_out: Pauli
) -> EncoderRow:
    """The encoder row of five Pauli parts, packed by shifts of their words.

    The row fits an encoder whose m, k and n are the widths of ``mem_in``,
    ``info_in`` and ``anc_in`` plus ``info_in``.  The output parts may split
    the m + n output qubits otherwise; that encoder's parts of the row then
    differ from them.  Input and output widths that differ raise
    ``WidthMismatchError``.
    """
    parts = mem_in, anc_in, info_in, phys_out, mem_out
    ((mem_w, mem_x, mem_z), (anc_w, anc_x, anc_z), (info_w, info_x, info_z),
     (phys_w, phys_x, phys_z), (next_w, next_x, next_z)) = parts
    info_at = mem_w + anc_w
    w = info_at + info_w
    if phys_w + next_w != w:
        raise WidthMismatchError(f"a row maps {w} to {phys_w + next_w} qubits")
    in_x = mem_x | anc_x << mem_w | info_x << info_at
    in_z = mem_z | anc_z << mem_w | info_z << info_at
    out_x, out_z = phys_x | next_x << phys_w, phys_z | next_z << phys_w
    return EncoderRow(in_x | in_z << w, out_x | out_z << w)


def encoder_on(
    m: int, n: int, k: int, rows: Sequence[EncoderRow] = (), added_rows: Sequence[EncoderRow] = ()
) -> PartialEncoder:
    """A ``PartialEncoder`` on m memory qubits whose operator table is empty."""
    return PartialEncoder(MemoryOperatorTable(m, {}, []), n, k, rows, added_rows)


def row_paulis(encoder: PartialEncoder, row: EncoderRow) -> Tuple[Pauli, Pauli]:
    """A row's input and output as Paulis, concatenated from the encoder's
    five parts of it."""
    mem_in, anc_in, info_in, phys_out, mem_out = encoder.parts(row).values()
    return pauli_concat(pauli_concat(mem_in, anc_in), info_in), pauli_concat(phys_out, mem_out)


def row_strings(encoder: PartialEncoder, row: EncoderRow) -> Dict[str, str]:
    """The encoder's five parts of a row as text, under their JSON keys."""
    return {key: str(part) for key, part in encoder.parts(row).items()}


def gram_matrix(words: Sequence[int], width: int) -> List[int]:
    """Pairwise symplectic products of packed ``width``-qubit words as row
    words, one ``symplectic_product_vec`` per entry: the reference for the
    memory operator words."""
    return matrix_rows([[symplectic_product_vec(a, b, width) for b in words] for a in words])


def centralizer_contains(centralizer, op: Pauli) -> bool:
    """Whether a memory Pauli lies in the span of a ``CentralizerBasis``."""
    return gf2_in_rowspan(pauli_to_vec(op), centralizer.basis)


def centralizer_vectors(centralizer) -> List[int]:
    """Every element of a ``CentralizerBasis``, packed; entry 0 is the identity.

    Entry c is ``gf2_combination`` of the reversed basis with mask c, so the
    last basis element toggles fastest: add_noncatastrophic_rows draws entry
    c without listing the others.
    """
    return gf2_span(centralizer.basis[::-1])


def enumerate_centralizer(centralizer) -> List[Pauli]:
    """Every element of a ``CentralizerBasis`` as a Pauli, in the order of
    ``centralizer_vectors``: 2^|basis| of them, for small bases only."""
    return [vec_to_pauli(vec, centralizer.m) for vec in centralizer_vectors(centralizer)]


def normalize_leading_delay(code: ConvolutionalCode) -> ConvolutionalCode:
    """Strip leading identity frames from every generator, keeping trailing
    ones; an all-identity generator raises ``DegenerateCodeError``."""
    gens = []
    for gen in code.generators:
        if gen.is_identity:
            raise DegenerateCodeError("generator is the all-identity stream")
        count = next(j for j, block in enumerate(gen.blocks) if not block.is_identity)
        gens.append(GeneratorPolynomial.from_blocks(gen.blocks[count:]))
    return ConvolutionalCode(code.n, code.k, tuple(gens))


def multiply_generators_by_blocks(
    a: GeneratorPolynomial, b: GeneratorPolynomial
) -> GeneratorPolynomial:
    """Reference for ``multiply_generators``: the Pauli product of each frame,
    aligned at frame 1, trailing identity frames trimmed (one kept)."""
    if a.width != b.width:
        raise WidthMismatchError(f"generator widths {a.width} and {b.width} differ")
    degree = max(a.degree, b.degree)
    return GeneratorPolynomial.from_blocks(
        tuple(pauli_product(a.block(j), b.block(j)) for j in range(1, degree + 1))
    )


def stream_words(blocks: Sequence[Pauli]) -> Tuple[int, int]:
    """Reference for ``GeneratorPolynomial.word`` and ``.swapped``: block j
    (0-based) packed by ``pauli_to_vec`` at bits 2nj..2nj+2n-1, and the same
    with each block's x and z words exchanged."""
    n = blocks[0].width
    word = swapped = 0
    for j, block in enumerate(blocks):
        word |= pauli_to_vec(block) << 2 * n * j
        swapped |= pauli_to_vec(Pauli(n, block.z, block.x)) << 2 * n * j
    return word, swapped


def delay_by_blocks(gen: GeneratorPolynomial, j: int) -> GeneratorPolynomial:
    """Reference for ``delay_generator``: j >= 0 identity blocks put in front."""
    return GeneratorPolynomial.from_blocks((Pauli.identity(gen.width),) * j + gen.blocks)


def exists_gram_realization(
    rows: Sequence[int], qubits: int, require_independent: bool = True
) -> bool:
    """Whether some tuple of Paulis on ``qubits`` qubits has Gram matrix
    ``rows``, a square matrix of row words.

    With ``require_independent`` the tuple must be linearly independent as
    GF(2) vectors, matching the role memory operators play in an encoder.
    Backtracking over every candidate at every level but the first, which
    tries only Z on qubit 0, plus the identity when independence is not
    required; intended for small dimensions only.

    The first level loses nothing.  Let v_0, ..., v_{n-1} realise ``mat``.
    If v_0 = 0, the tuple is found with the identity first (and is then
    dependent).  Otherwise, the symplectic group Sp(2q, 2) is transitive
    on nonzero vectors: v_0 is the first vector of some symplectic basis
    (pair it with any w having <v_0, w> = 1, then extend by symplectic
    Gram-Schmidt on the complement of that pair), and the linear map
    sending that basis to the standard one, Z_0 first, is symplectic.
    That map S keeps every product, <S u, S v> = <u, v>, and, being
    invertible, keeps linear independence, so S v_0 = Z_0, S v_1, ...,
    S v_{n-1} is another realisation, with Z_0 first.
    """
    first = [] if require_independent else [0]
    if qubits:
        first.append(1 << qubits)  # Z on qubit 0
    return gram_search(rows, qubits, require_independent, first)


def gram_search(
    rows: Sequence[int], qubits: int, require_independent: bool, first: Sequence[int]
) -> bool:
    """Exhaustive backtracking for a realisation of ``rows`` whose first
    Pauli is one of ``first``; every later level tries all 4^qubits Paulis."""
    n = len(rows)
    width = 2 * qubits
    target = matrix_entries(rows)

    def sym(u: int, v: int) -> int:
        ux, uz = u & ((1 << qubits) - 1), u >> qubits
        vx, vz = v & ((1 << qubits) - 1), v >> qubits
        return _parity(ux & vz) ^ _parity(uz & vx)

    chosen: List[int] = []

    def backtrack(level: int) -> bool:
        if level == n:
            return True
        for cand in first if level == 0 else range(1 << width):
            ok = True
            for prev_idx in range(level):
                if sym(chosen[prev_idx], cand) != target[level][prev_idx]:
                    ok = False
                    break
            if not ok:
                continue
            if require_independent and gf2_in_rowspan(cand, chosen):
                continue
            chosen.append(cand)
            if backtrack(level + 1):
                return True
            chosen.pop()
        return False

    return backtrack(0)


def successor_lists(edges: Iterable[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Successor lists of the directed multigraph with the given (u, v) edges.

    Every endpoint is a key, in order of first appearance; a parallel edge
    repeats its successor.
    """
    succ: Dict[int, List[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
    return succ


def shortest_path(
    succ: Dict[int, List[int]], source: int, target: int
) -> Optional[List[int]]:
    """Vertices of a fewest-edge walk from source to target, or None."""
    parent = {source: source}
    frontier = [source]
    while frontier and target not in parent:
        reached = []
        for u in frontier:
            for w in succ[u]:
                if w not in parent:
                    parent[w] = u
                    reached.append(w)
        frontier = reached
    if target not in parent:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def strong_components(succ: Dict[int, List[int]]) -> Dict[int, int]:
    """Strongly connected component index of every vertex (iterative Tarjan)."""
    component: Dict[int, int] = {}
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    count = 0
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in component:  # visited and still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    w = None
                    while w != v:
                        w = stack.pop()
                        component[w] = count
                    count += 1
    return component


def logical_cycle(
    edges: Sequence[Tuple[int, int, int]],
) -> Optional[Tuple[int, List[int]]]:
    """First labelled edge on a cycle of the multigraph, and the way back.

    ``edges`` are (u, v, label) triples.  Returns (i, path) for the first
    edges[i] with a nonzero label whose endpoints share a strongly connected
    component, path being a fewest-edge walk from v back to u ([u] for a
    self-loop); None when no labelled edge lies on a cycle.
    """
    succ = successor_lists((u, v) for u, v, _ in edges)
    component = strong_components(succ)
    for i, (u, v, label) in enumerate(edges):
        if label and component[u] == component[v]:
            return i, shortest_path(succ, v, u)
    return None


def cycle_witness_by_enumeration(
    tableau, n: int, k: int, m: int, max_memory: int = DEFAULT_MEMORY_BOUND
) -> Optional[CycleWitness]:
    """``detect_catastrophic``'s witness over every listed zero-physical edge.

    The first labelled edge whose endpoints share a strongly connected
    component, then a fewest-edge walk back over all edges, taking the first
    listed edge between each pair of vertices; None when no labelled edge
    lies on a cycle.
    """
    edges = [
        (pauli_to_vec(e.mem_from), pauli_to_vec(e.mem_to), e)
        for e in zero_physical_edges(tableau, n, k, m, max_memory)
    ]
    found = logical_cycle([(u, v, e.logical_weight) for u, v, e in edges])
    if found is None:
        return None
    i, path = found
    first: Dict[Tuple[int, int], StateDiagramEdge] = {}
    for u, v, e in edges:
        first.setdefault((u, v), e)
    return CycleWitness([edges[i][2]] + [first[pair] for pair in zip(path, path[1:])])


def span_edges(basis: Sequence[int], bits: int) -> List[Tuple[int, int, int]]:
    """Every edge of the span, unpacked from ``u | v << bits | label << 2 * bits``."""
    mask = (1 << bits) - 1
    return [(e & mask, (e >> bits) & mask, e >> 2 * bits) for e in gf2_span(basis)]


def labelled_cycle_by_enumeration(basis: Sequence[int], bits: int) -> bool:
    """Whether a labelled edge of the span lies on a cycle, listing the span."""
    return logical_cycle(span_edges(basis, bits)) is not None


def cycle_core_by_annihilators(edges: Sequence[int], bits: int) -> List[int]:
    """``cycle_core`` as the library computed it before: each round takes
    the annihilators of the sources and of the targets, and keeps the
    combinations of the current basis whose sources annihilate with the
    targets' annihilator and whose targets with the sources' one."""
    mask = (1 << bits) - 1
    edges = list(edges)
    while True:
        src = [e & mask for e in edges]
        dst = [(e >> bits) & mask for e in edges]
        dst_perp = _dependencies(_transpose(dst, bits))
        src_perp = _dependencies(_transpose(src, bits))
        shift = len(dst_perp)
        columns = [
            a | b << shift for a, b in zip(_products(src, dst_perp), _products(dst, src_perp))
        ]
        if not any(columns):
            return edges
        edges = [gf2_combination(edges, combo) for combo in _dependencies(columns)]


def component_index(graph: nx.MultiDiGraph) -> Dict[int, int]:
    """Strongly connected component number of every vertex."""
    return {v: i for i, comp in enumerate(nx.strongly_connected_components(graph)) for v in comp}


def loop_vertices(graph: nx.MultiDiGraph) -> Set[int]:
    """Vertices on a cycle: in a strongly connected component of two or more
    vertices, or carrying a self-loop."""
    loops = set()
    for comp in nx.strongly_connected_components(graph):
        node = next(iter(comp))
        if len(comp) > 1 or graph.has_edge(node, node):
            loops.update(comp)
    return loops


def zero_physical_graph(tableau, n: int, k: int, m: int) -> nx.MultiDiGraph:
    """The listed zero-physical edges as a networkx graph on packed memory."""
    graph = nx.MultiDiGraph()
    for e in zero_physical_edges(tableau, n, k, m):
        graph.add_edge(pauli_to_vec(e.mem_from), pauli_to_vec(e.mem_to))
    return graph


def _input_vec(n: int, k: int, m: int, mem: int, anc_mask: int = 0, logical: int = 0) -> int:
    """Packed input from packed memory, ancilla Z on anc_mask, packed logical."""
    info = m + n - k
    x = (mem & ((1 << m) - 1)) | (logical & ((1 << k) - 1)) << info
    z = (mem >> m) | anc_mask << m | (logical >> k) << info
    return x | z << (m + n)


def _part(vec: int, w: int, start: int, stop: int) -> int:
    """Packed restriction of a packed width-w vector to qubits [start, stop)."""
    mask = (1 << (stop - start)) - 1
    return ((vec >> start) & mask) | ((vec >> (w + start)) & mask) << (stop - start)


def _weight_one_labels(k: int) -> List[int]:
    """The packed weight-one logical labels: qubit by qubit, X, Z, then Y."""
    return [x << q | z << k + q for q in range(k) for x, z in ((1, 0), (0, 1), (1, 1))]


def _edge(tableau, n: int, k: int, m: int, vin: int) -> StateDiagramEdge:
    """The transition taken on the packed input ``vin``, read off the image
    rows through ``Pauli`` cuts: the reference for ``tableau._edge``."""
    w = tableau.width
    inp = vec_to_pauli(vin, w)
    out = vec_to_pauli(tableau.image_of_vector(vin), w)
    return StateDiagramEdge(
        mem_from=pauli_cut(inp, 0, m),
        anc=pauli_cut(inp, m, w - k),
        logical=pauli_cut(inp, w - k, w),
        physical=pauli_cut(out, 0, n),
        mem_to=pauli_cut(out, n, w),
    )


def escape_path_by_enumeration(tableau, n: int, k: int, m: int) -> Tuple[bool, Optional[list]]:
    """``verify_non_recursive``'s search over listed edges and networkx components.

    Every walk starts afresh, with nothing remembered from earlier walks.
    """
    graph = zero_physical_graph(tableau, n, k, m)
    loops = loop_vertices(graph)
    component = component_index(graph)
    w = tableau.width
    for start in sorted(loops):
        for logical in _weight_one_labels(k):
            for anc_mask in range(1 << (n - k)):
                inputs = [_input_vec(n, k, m, start, anc_mask, logical)]
                out = tableau.image_of_vector(inputs[0])
                vertex = _part(out, w, n, w)
                if _part(out, w, 0, n) == 0 and component[start] == component[vertex]:
                    continue
                seen = set()
                while vertex not in loops and vertex not in seen:
                    seen.add(vertex)
                    inputs.append(_input_vec(n, k, m, vertex))
                    vertex = _part(tableau.image_of_vector(inputs[-1]), w, n, w)
                if vertex in loops:
                    return True, [_edge(tableau, n, k, m, vin) for vin in inputs]
    return False, None


def _shifted_product(a: GeneratorPolynomial, b: GeneratorPolynomial, t: int) -> int:
    """Symplectic product of a delayed by t frames with b, summed over frames."""
    total = 0
    for j in range(1, b.degree + 1):
        total ^= symplectic_product(a.block(j - t), b.block(j))
    return total


def violations_by_blocks(code: ConvolutionalCode) -> List[Tuple[int, int, int]]:
    """``validate_code``'s violations from block-by-block shifted products."""
    violations: List[Tuple[int, int, int]] = []
    gens = code.generators
    for i, a in enumerate(gens, start=1):
        for i2, b in enumerate(gens, start=1):
            for t in range(max(a.degree, b.degree)):
                if t == 0 and i2 <= i:
                    # Symmetric at zero shift; report each unordered pair once.
                    continue
                if _shifted_product(a, b, t):
                    violations.append((i, i2, t))
    violations.sort()
    return violations


def forward_matrix_by_blocks(code: ConvolutionalCode) -> List[int]:
    """The commutativity matrix, as row words, of a code already known to be valid.

    Entry ((i,j),(i2,j2)) is the parity of products between later blocks:
    sum over t >= 1 of <h_{i,j+t}, h_{i2,j2+t}>.
    """
    index_map = _memory_indices(code)
    entries = []
    for i, j in index_map:
        a = code.generators[i - 1]
        row = []
        for i2, j2 in index_map:
            b = code.generators[i2 - 1]
            acc = 0
            for t in range(1, min(a.degree - j, b.degree - j2) + 1):
                acc ^= symplectic_product(a.block(j + t), b.block(j2 + t))
            row.append(acc)
        entries.append(row)
    return matrix_rows(entries)


def backward_matrix_by_blocks(code: ConvolutionalCode) -> List[int]:
    # Same obligations accumulated from earlier blocks instead of later ones.
    index_map = _memory_indices(code)
    entries = []
    for i, j in index_map:
        a = code.generators[i - 1]
        row = []
        for i2, j2 in index_map:
            b = code.generators[i2 - 1]
            acc = 0
            for t in range(min(j, j2)):
                acc ^= symplectic_product(a.block(j - t), b.block(j2 - t))
            row.append(acc)
        entries.append(row)
    return matrix_rows(entries)


def group_equivalent_on_strip_paulis(
    a: ConvolutionalCode, b: ConvolutionalCode, window: int
) -> int:
    """``group_equivalent`` with each placement as one strip-wide Pauli.

    The coordinates are the strip's x bits, then its z bits, instead of
    frame after frame; the ranks compared do not depend on that order.
    """

    def interior(code: ConvolutionalCode) -> List[int]:
        n = code.n
        rows = []
        for gen in code.generators:
            for t in range(window - gen.degree + 1):
                strip = Pauli.identity(n * t)
                for block in gen.blocks:
                    strip = pauli_concat(strip, block)
                strip = pauli_concat(strip, Pauli.identity(n * (window - t - gen.degree)))
                rows.append(pauli_to_vec(strip))
        edges = [f + q for f in (0, n * (window - 1)) for q in range(n)]
        edges += [e + n * window for e in edges]
        constraints = [sum(((row >> e) & 1) << r for r, row in enumerate(rows)) for e in edges]
        null_basis = gf2_solve_dot_system(constraints, len(rows), [0] * len(edges))[1]
        return [gf2_combination(rows, mask) for mask in null_basis]

    basis_a, basis_b = interior(a), interior(b)
    return int(gf2_rank(basis_a) == gf2_rank(basis_b) == gf2_rank(basis_a + basis_b))


# --- Row-wise tableau reference -------------------------------------------------
# The package extracts and replays circuits on qubit columns.  These routines
# act on the stored images one row at a time, the textbook layout, so the
# column code has an independent reference.


def parities(word: int, rows: Sequence[int]) -> int:
    """Bit i is parity(word & rows[i])."""
    return sum(_parity(word & row) << i for i, row in enumerate(rows))


def apply_gate(tableau: CliffordTableau, gate: Gate) -> CliffordTableau:
    """The tableau whose images are those of ``tableau`` conjugated by ``gate``."""
    w = tableau.width
    images = list(tableau.images)
    if gate.kind == "h":
        (q,) = gate.qubits
        xbit, zbit = 1 << q, 1 << (w + q)
        for t, vec in enumerate(images):
            x = vec & xbit
            z = vec & zbit
            vec &= ~(xbit | zbit)
            if x:
                vec |= zbit
            if z:
                vec |= xbit
            images[t] = vec
    elif gate.kind == "s":
        (q,) = gate.qubits
        xbit, zbit = 1 << q, 1 << (w + q)
        for t, vec in enumerate(images):
            if vec & xbit:
                images[t] = vec ^ zbit
    elif gate.kind == "cnot":
        c, t_q = gate.qubits
        xc, xt = 1 << c, 1 << t_q
        zc, zt = 1 << (w + c), 1 << (w + t_q)
        for t, vec in enumerate(images):
            if vec & xc:
                vec ^= xt
            if vec & zt:
                vec ^= zc
            images[t] = vec
    elif gate.kind == "cz":
        a, b = gate.qubits
        xa, xb = 1 << a, 1 << b
        za, zb = 1 << (w + a), 1 << (w + b)
        for t, vec in enumerate(images):
            if vec & xa:
                vec ^= zb
            if vec & xb:
                vec ^= za
            images[t] = vec
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return CliffordTableau(w, images)


def replay_rows(width: int, gates: Sequence[Gate]) -> CliffordTableau:
    """``replay_gates`` on the rows: each gate updates every image."""
    tableau = CliffordTableau.identity(width)
    for gate in gates:
        tableau = apply_gate(tableau, gate)
    return tableau


def image_of_pauli(tableau: CliffordTableau, p: Pauli) -> Pauli:
    return vec_to_pauli(tableau.image_of_vector(pauli_to_vec(p)), tableau.width)


def is_symplectic_pairwise(tableau: CliffordTableau) -> bool:
    """Whether every pair of images has the product of its inputs, the unit
    vectors, one image pair at a time, upper triangle only."""
    w = tableau.width
    for a in range(2 * w):
        for b in range(a + 1, 2 * w):
            want = 1 if b == a + w else 0
            if symplectic_product_vec(tableau.images[a], tableau.images[b], w) != want:
                return False
    return True


def check_commutativity_matrix_by_lists(rows: Sequence[int]) -> None:
    """Entry-by-entry reference for ``pauli._check_commutativity_matrix``: a
    row outside the n columns first, then row by row the diagonal entry and
    the entries past it."""
    n = len(rows)
    for r, row in enumerate(rows):
        if not 0 <= row < 1 << n:
            raise InvalidMatrixError(f"row {r} does not fit {n} columns")
    entries = matrix_entries(rows)
    for r in range(n):
        if entries[r][r]:
            raise InvalidMatrixError(f"nonzero diagonal entry at {r}")
        for s in range(r + 1, n):
            if entries[r][s] != entries[s][r]:
                raise InvalidMatrixError(f"asymmetry at ({r}, {s})")


def symplectic_gram_schmidt_by_lists(rows: Sequence[int]) -> GramSchmidtResult:
    """List-of-lists reference for ``pauli.symplectic_gram_schmidt``: the
    same scan, with every row operation applied to a full 0/1 matrix and
    each updated row copied into its column.  It records the transform g,
    row r the combination of original rows that row r became, and its
    ``inverse`` is ``gf2_invert`` of that transform."""
    check_commutativity_matrix_by_lists(rows)
    n = len(rows)
    w = matrix_entries(rows)
    g = [1 << i for i in range(n)]
    done = [False] * n
    pairs: List[Tuple[int, int]] = []
    isotropics: List[int] = []
    for i in range(n):
        if done[i]:
            continue
        partner = None
        for j in range(i + 1, n):
            if not done[j] and w[i][j]:
                partner = j
                break
        if partner is None:
            done[i] = True
            isotropics.append(i)
            continue
        j = partner
        done[i] = done[j] = True
        pairs.append((i, j))
        for r in range(n):
            if done[r]:
                continue
            a = w[r][i]
            b = w[r][j]
            if a:
                g[r] ^= g[j]
                for s in range(n):
                    w[r][s] ^= w[j][s]
            if b:
                g[r] ^= g[i]
                for s in range(n):
                    w[r][s] ^= w[i][s]
            for s in range(n):
                w[s][r] = w[r][s]
    for i, j in pairs:
        assert w[i][j] == 1 and w[j][i] == 1
    for r in isotropics:
        assert all(bit == 0 for bit in w[r])
    return GramSchmidtResult(pairs=pairs, isotropics=isotropics, inverse=gf2_invert(g, n))


# --- Reference completion and extraction ----------------------------------------
# The completion and the circuit extraction as they were before the package
# read images off an augmented input echelon, solved each new direction in
# one pass over input-word tags, read the nullspace off the reduced output
# rows instead of keeping it, refused dependent outputs once instead of
# checking each new direction against them, and applied a sweep's gates
# inline.  Every choice, rng draw and error is the same, so the package must
# agree with them gate for gate.


def not_in_span_solution(
    particular: int, null_basis: Sequence[int], swapped_span: _Echelon, w: int,
    rng: Optional[random.Random],
) -> Optional[int]:
    """A solution whose swapped halves lie outside ``swapped_span``."""

    def outside(cand: int) -> int:
        return swapped_span.reduce(swap_halves(cand, w))[0]

    if rng is not None:
        for _ in range(64):
            mask = rng.getrandbits(len(null_basis))
            cand = particular ^ gf2_combination(null_basis, mask)
            if outside(cand):
                return cand
    if outside(particular):
        return particular
    for vec in null_basis:
        if outside(particular ^ vec):
            return particular ^ vec
    return None


def complete_to_clifford_reference(encoder: PartialEncoder, seed: int = 0) -> CliffordTableau:
    """``complete_to_clifford`` on two echelons tagged 1 << row: each new
    image solves the products with ``_products`` and ``echelon_particular``,
    and image t is the output combination that input tag t names."""
    w = encoder.width
    in_vecs = [row.inputs for row in encoder.all_rows]
    out_vecs = [row.outputs for row in encoder.all_rows]
    inputs, swapped_outputs = TrackedEchelon(), TrackedEchelon()
    nullspace = {f: 1 << f for f in range(2 * w)}  # of the swapped outputs
    basis_in: List[int] = []
    basis_out: List[int] = []

    def append(v: int, image: int) -> None:
        tag = 1 << len(basis_in)
        basis_in.append(v)
        basis_out.append(image)
        inputs.add(v, tag)
        add_to_dot_system(swapped_outputs, nullspace, swap_halves(image, w), tag)

    for v, image in zip(in_vecs, out_vecs):
        append(v, image)
    if inputs.dependencies:
        dep = inputs.dependencies[0]
        members = [str(b + 1) for b in range(len(in_vecs)) if (dep >> b) & 1]
        raise CompletionError("input rows are dependent: rows " + ", ".join(members))
    rng = random.Random(seed) if seed != 0 else None
    t = 0  # seed 0: every unit vector below t is in the input span
    while len(basis_in) < 2 * w:
        if rng is not None:
            v = rng.getrandbits(2 * w)
            while not inputs.reduce(v)[0]:
                v = rng.getrandbits(2 * w)
        else:
            while not inputs.reduce(1 << t)[0]:
                t += 1
            v = 1 << t
        rhs_mask = _products([swap_halves(v, w)], basis_in)[0]
        particular = echelon_particular(swapped_outputs, rhs_mask)
        image = None
        if particular is not None:
            image = not_in_span_solution(
                particular, list(nullspace.values()), swapped_outputs, w, rng
            )
        if image is None:
            raise CompletionError(
                "no independent image for a new input direction; given rows are "
                "not jointly symplectic"
            )
        append(v, image)
    # The 2w inputs have full rank: the reduced input basis is the identity,
    # and unit vector t's tag is the combination of input rows equal to it.
    tableau = CliffordTableau(
        w, [gf2_combination(basis_out, inputs.tags[t]) for t in range(2 * w)]
    )
    if not is_symplectic_pairwise(tableau):
        raise CompletionError("the completed tableau is not symplectic")
    for row, (in_vec, out_vec) in enumerate(zip(in_vecs, out_vecs), start=1):
        if tableau.image_of_vector(in_vec) != out_vec:
            raise CompletionError(f"the completed tableau does not map row {row} as given")
    return tableau


def conjugate_columns(xs: List[int], zs: List[int], kind: str, qubits: Tuple[int, ...]) -> None:
    """Conjugate every image by a gate, on the qubit columns of a tableau:
    ``xs[q]`` and ``zs[q]`` hold qubit q's x and z bits of all 2w images."""
    if kind == "cnot":
        a, b = qubits
        xs[b] ^= xs[a]
        zs[a] ^= zs[b]
    elif kind == "cz":
        a, b = qubits
        zs[b] ^= xs[a]
        zs[a] ^= xs[b]
    elif kind == "h":
        q = qubits[0]
        xs[q], zs[q] = zs[q], xs[q]
    else:
        zs[qubits[0]] ^= xs[qubits[0]]


def synthesize_circuit_reference(tableau: CliffordTableau) -> List[Gate]:
    """``synthesize_circuit`` with one ``conjugate_columns`` call per gate,
    each sweep reading image t's bits live as it emits."""
    w = tableau.width
    columns = _transpose(tableau.images, 2 * w)
    xs, zs = columns[:w], columns[w:]
    applied: List[Gate] = []

    def emit(kind: str, *qubits: int) -> None:
        conjugate_columns(xs, zs, kind, qubits)
        applied.append(Gate(kind, qubits))

    def sweep(q: int, t: int) -> None:
        for r in range(q + 1, w):
            if (xs[r] >> t) & 1:
                emit("cnot", q, r)
        if (zs[q] >> t) & 1:
            emit("s", q)
        for r in range(q + 1, w):
            if (zs[r] >> t) & 1:
                emit("cz", q, r)

    for q in range(w):
        if not (xs[q] >> q) & 1:
            pivot = next((r for r in range(q, w) if (xs[r] >> q) & 1), None)
            if pivot is None:
                pivot = next((r for r in range(q, w) if (zs[r] >> q) & 1), None)
                if pivot is None:
                    raise SynthesisFailureError("the tableau is not symplectic")
                emit("h", pivot)
            if pivot != q:
                emit("cnot", pivot, q)
        sweep(q, q)
        if [c for c in xs + zs if c >> w + q & 1] != [zs[q]]:  # image w + q is not Z_q
            emit("h", q)
            sweep(q, w + q)
            emit("h", q)
    gates = list(reversed(applied))
    if len(gates) > GATE_COUNT_FACTOR * w * w:
        raise SynthesisFailureError(f"{len(gates)} gates exceed {GATE_COUNT_FACTOR} * width**2")
    if replay_gates(w, gates) != tableau:
        raise SynthesisFailureError("the extracted circuit does not replay to the tableau")
    return gates
