"""Exhaustive search oracles that only the tests use."""

from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from qconvenc.code import ConvolutionalCode, GeneratorPolynomial, delay_generator
from qconvenc.errors import (
    DegenerateCodeError,
    InvalidDelayError,
    InvalidMatrixError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    BinaryMatrix,
    GramSchmidtResult,
    Pauli,
    _Echelon,
    gf2_combination,
    gf2_rank,
    gf2_span,
    pauli_to_vec,
    shortest_path,
    successor_lists,
    symplectic_product,
    symplectic_product_vec,
    vec_to_pauli,
)
from qconvenc.synth import EncoderRow, _memory_indices
from qconvenc.tableau import (
    DEFAULT_MEMORY_BOUND,
    CliffordTableau,
    CycleWitness,
    Gate,
    StateDiagramEdge,
    _weight_one_labels,
    zero_physical_edges,
)


def _parity(word: int) -> int:
    return word.bit_count() & 1


def gf2_row_dependencies(rows: Sequence[int]) -> List[int]:
    """Basis of coefficient masks c with XOR of {rows[i] : bit i of c} = 0.

    Bit i of each returned mask refers to rows[i].  Row i reducing to zero
    gives one mask: bit i plus the unique combination of earlier
    independent rows equal to it.
    """
    return _Echelon(rows).dependencies


def gf2_in_rowspan(vec: int, rows: Sequence[int]) -> bool:
    return _Echelon(rows).reduce(vec)[0] == 0


def gf2_solve_dot_system(
    rows: Sequence[int], ncols: int, rhs: Sequence[int]
) -> Optional[Tuple[int, List[int]]]:
    """Solve <rows[i], v> = rhs[i] (dot-product parity) for v on a fresh echelon.

    Returns (particular solution with free variables zero, nullspace basis),
    or None when inconsistent: the reference for a grown echelon's answers.
    """
    if len(rows) != len(rhs):
        raise InvalidMatrixError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    rhs_mask = sum((int(b) & 1) << i for i, b in enumerate(rhs))
    return _Echelon(rows).solve_dot(rhs_mask, ncols)


def row_from_parts(
    mem_in: Pauli, anc_in: Pauli, info_in: Pauli, phys_out: Pauli, mem_out: Pauli
) -> EncoderRow:
    """The encoder row of five Pauli parts, packed by shifts of their words.

    m, k and n are the widths of ``mem_in``, ``info_in`` and ``anc_in`` plus
    ``info_in``.  The output parts may split the m + n output qubits
    otherwise; the row's own parts then differ from them.  Input and output
    widths that differ raise ``WidthMismatchError``.
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
    return EncoderRow(mem_w, anc_w + info_w, info_w, in_x | in_z << w, out_x | out_z << w)


def row_paulis(row: EncoderRow) -> Tuple[Pauli, Pauli]:
    """A row's input and output as Paulis, concatenated from its five parts."""
    return row.mem_in.concat(row.anc_in).concat(row.info_in), row.phys_out.concat(row.mem_out)


def centralizer_contains(centralizer, op: Pauli) -> bool:
    """Whether a memory Pauli lies in the span of a ``CentralizerBasis``."""
    return gf2_in_rowspan(pauli_to_vec(op), [pauli_to_vec(b) for b in centralizer.basis])


def centralizer_vectors(centralizer) -> List[int]:
    """Every element of a ``CentralizerBasis``, packed; entry 0 is the identity.

    Entry c is ``gf2_combination`` of the reversed basis with mask c, so the
    last basis element toggles fastest: add_noncatastrophic_rows draws entry
    c without listing the others.
    """
    return gf2_span([pauli_to_vec(b) for b in reversed(centralizer.basis)])


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
        gens.append(delay_generator(gen, -count))
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
        tuple(a.block(j) * b.block(j) for j in range(1, degree + 1))
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
    """Reference for ``delay_generator``: j identity blocks put in front, or
    for j < 0 the first -j blocks taken off, which must be identity and leave
    at least one block."""
    blocks = gen.blocks
    if j >= 0:
        return GeneratorPolynomial.from_blocks((Pauli.identity(gen.width),) * j + blocks)
    if -j >= len(blocks) or not all(b.is_identity for b in blocks[:-j]):
        raise InvalidDelayError(f"cannot advance by {-j}")
    return GeneratorPolynomial.from_blocks(blocks[-j:])


def exists_gram_realization(
    mat: BinaryMatrix, qubits: int, require_independent: bool = True
) -> bool:
    """Whether some tuple of Paulis on ``qubits`` qubits has Gram matrix ``mat``.

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
    return gram_search(mat, qubits, require_independent, first)


def gram_search(
    mat: BinaryMatrix, qubits: int, require_independent: bool, first: Sequence[int]
) -> bool:
    """Exhaustive backtracking for a realisation of ``mat`` whose first
    Pauli is one of ``first``; every later level tries all 4^qubits Paulis."""
    n = mat.nrows
    width = 2 * qubits
    target = mat.to_lists()

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
    return CycleWitness(
        vertices=[vec_to_pauli(u, m) for u in path[-1:] + path[:-1]],
        edges=[edges[i][2]] + [first[pair] for pair in zip(path, path[1:])],
    )


def span_edges(basis: Sequence[int], bits: int) -> List[Tuple[int, int, int]]:
    """Every edge of the span, unpacked from ``u | v << bits | label << 2 * bits``."""
    mask = (1 << bits) - 1
    return [(e & mask, (e >> bits) & mask, e >> 2 * bits) for e in gf2_span(basis)]


def labelled_cycle_by_enumeration(basis: Sequence[int], bits: int) -> bool:
    """Whether a labelled edge of the span lies on a cycle, listing the span."""
    return logical_cycle(span_edges(basis, bits)) is not None


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


def _edge(tableau, n: int, k: int, m: int, vin: int) -> StateDiagramEdge:
    """The transition taken on the packed input ``vin``, read off the image
    rows: the layout reference for the state-space realisation."""
    w = tableau.width
    inp = vec_to_pauli(vin, w)
    out = vec_to_pauli(tableau.image_of_vector(vin), w)
    return StateDiagramEdge(
        mem_from=inp.cut(0, m),
        anc=inp.cut(m, w - k),
        logical=inp.cut(w - k, w),
        physical=out.cut(0, n),
        mem_to=out.cut(n, w),
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


def forward_matrix_by_blocks(code: ConvolutionalCode) -> BinaryMatrix:
    """The commutativity matrix of a code already known to be valid.

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
    return BinaryMatrix.from_lists(entries, len(index_map))


def backward_matrix_by_blocks(code: ConvolutionalCode) -> BinaryMatrix:
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
    return BinaryMatrix.from_lists(entries, len(index_map))


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
                    strip = strip.concat(block)
                strip = strip.concat(Pauli.identity(n * (window - t - gen.degree)))
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


def apply_gate(tableau: CliffordTableau, gate: Gate) -> None:
    """Conjugate every stored image of ``tableau`` by ``gate``, in place."""
    w = tableau.width
    images = tableau.images
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


def replay_rows(width: int, gates: Sequence[Gate]) -> CliffordTableau:
    """``replay_gates`` on the rows: each gate updates every image."""
    tableau = CliffordTableau.identity(width)
    for gate in gates:
        apply_gate(tableau, gate)
    return tableau


def image_of_pauli(tableau: CliffordTableau, p: Pauli) -> Pauli:
    return vec_to_pauli(tableau.image_of_vector(pauli_to_vec(p)), tableau.width)


def is_symplectic_pairwise(tableau: CliffordTableau) -> bool:
    """``is_symplectic`` one image pair at a time, upper triangle only."""
    w = tableau.width
    for a in range(2 * w):
        for b in range(a + 1, 2 * w):
            want = 1 if b == a + w else 0
            if symplectic_product_vec(tableau.images[a], tableau.images[b], w) != want:
                return False
    return True


def check_commutativity_matrix_by_lists(mat: BinaryMatrix) -> None:
    """Entry-by-entry reference for ``pauli._check_commutativity_matrix``."""
    n = mat.nrows
    if n != mat.ncols:
        raise InvalidMatrixError(f"matrix is {n} x {mat.ncols}, not square")
    for r in range(n):
        if mat.get(r, r):
            raise InvalidMatrixError(f"nonzero diagonal entry at {r}")
        for s in range(r + 1, n):
            if mat.get(r, s) != mat.get(s, r):
                raise InvalidMatrixError(f"asymmetry at ({r}, {s})")


def symplectic_gram_schmidt_by_lists(mat: BinaryMatrix) -> GramSchmidtResult:
    """List-of-lists reference for ``pauli.symplectic_gram_schmidt``: the
    same scan, with every row operation applied to a full 0/1 matrix and
    each updated row copied into its column."""
    check_commutativity_matrix_by_lists(mat)
    n = mat.nrows
    w = [list(row_bits) for row_bits in mat.to_lists()]
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
    return GramSchmidtResult(
        c=len(pairs),
        d=len(isotropics),
        pairs=pairs,
        isotropics=isotropics,
        transform=BinaryMatrix(list(g), n),
    )
