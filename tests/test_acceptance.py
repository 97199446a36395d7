"""Acceptance gate: one test per published-behavior criterion.

Each test prints exactly one ``[criterion N] PASS`` or ``[criterion N] FAIL``
line; stated runtime budgets are asserted inside the relevant tests.  The
expected-value tables live in reference_data.py and were frozen before the
implementation existed.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import networkx as nx

from conftest import load_code
from qconvenc.code import ConvolutionalCode, delay_generator, multiply_generators
from oracles import (
    apply_gate,
    centralizer_contains,
    exists_gram_realization,
    image_of_pauli,
    is_symplectic_pairwise,
    matrix_entries,
    pauli_concat,
    row_strings,
)
from qconvenc.pauli import Pauli, gf2_rank, pauli_to_vec
from qconvenc.synth import (
    MemoryOperatorTable,
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    compute_centralizer,
    find_s1,
    minimal_memory,
    synthesize,
    verify_consistency,
)
from qconvenc.tableau import (
    GATE_COUNT_FACTOR,
    CliffordTableau,
    Gate,
    complete_to_clifford,
    detect_catastrophic,
    replay_gates,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
    zero_physical_edges,
)
from reference_data import (
    CENTRALIZER_PUBLISHED,
    CORPUS,
    M_STATED,
    MEMORY_OPS_PUBLISHED,
    OMEGA,
    S1_ROWS,
)


@contextmanager
def report(num):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL", flush=True)
        raise
    print(f"[criterion {num}] PASS", flush=True)


@lru_cache(maxsize=None)
def pipeline(name):
    result = synthesize(load_code(name))
    return result, complete_to_clifford(result.encoder)


@lru_cache(maxsize=None)
def seeded_completions_running1():
    result = synthesize(load_code("running1"))
    return result, [
        complete_to_clifford(result.encoder, seed=s) for s in range(25)
    ]


@lru_cache(maxsize=None)
def seeded_completions_running2():
    result = synthesize(load_code("running2"))
    return result, [
        complete_to_clifford(result.encoder, seed=s) for s in range(10)
    ]


def table_from_strings(strings):
    index_map = sorted(strings)
    ops = {key: pauli_to_vec(Pauli.from_string(val)) for key, val in strings.items()}
    m = len(next(iter(strings.values())))
    return MemoryOperatorTable(m, ops, index_map)


def assert_checkable_escape_path(tableau, n, k, m, path):
    assert path
    assert path[0].logical_weight == 1
    for step in path[1:]:
        assert step.logical.is_identity
        assert step.anc.is_identity
    for edge, nxt in zip(path, path[1:]):
        assert edge.mem_to == nxt.mem_from
    edges = zero_physical_edges(tableau, n, k, m)
    graph = nx.MultiDiGraph()
    for edge in edges:
        graph.add_edge(pauli_to_vec(edge.mem_from), pauli_to_vec(edge.mem_to))
    loop_nodes = set()
    for comp in nx.strongly_connected_components(graph):
        if len(comp) > 1:
            loop_nodes.update(comp)
        else:
            (node,) = comp
            if graph.has_edge(node, node):
                loop_nodes.add(node)
    assert pauli_to_vec(path[0].mem_from) in loop_nodes
    assert pauli_to_vec(path[-1].mem_to) in loop_nodes


def test_criterion_01_commutativity_matrices():
    with report(1):
        start = time.perf_counter()
        for name in CORPUS:
            omega = build_commutativity_matrix(load_code(name))
            assert matrix_entries(omega.rows) == OMEGA[name], name
        assert time.perf_counter() - start < 1.0


def test_criterion_02_minimal_memory_table():
    with report(2):
        for name in CORPUS:
            omega = build_commutativity_matrix(load_code(name))
            m = minimal_memory(omega)
            assert m == M_STATED[name], (
                f"{name}: computed m={m} but the stated table says {M_STATED[name]} "
                f"(dim={omega.dim}, rank={omega.rank})"
            )
            widths = {len(op) for op in MEMORY_OPS_PUBLISHED[name].values()}
            assert widths == {M_STATED[name]}, (
                f"{name}: published operators act on {widths} qubits but the "
                f"stated table says {M_STATED[name]}"
            )


def test_criterion_03_consistency_on_corpus_and_variants():
    with report(3):
        start = time.perf_counter()
        for name in CORPUS:
            assert verify_consistency(load_code(name)) == 1, name
        rng = random.Random(2026)
        for trial in range(50):
            code = load_code(rng.choice(CORPUS))
            gens = list(code.generators)
            i = rng.randrange(len(gens))
            if rng.random() < 0.5:
                j = rng.randrange(len(gens) - 1)
                if j >= i:
                    j += 1
                gens[i] = multiply_generators(gens[i], gens[j])
            else:
                gens[i] = delay_generator(gens[i], rng.randint(1, 2))
            variant = ConvolutionalCode(code.n, code.k, tuple(gens))
            assert verify_consistency(variant) == 1, trial
        assert time.perf_counter() - start < 5.0


def test_criterion_04_multiply_and_delay_memory_effects():
    with report(4):
        for name in CORPUS:
            code = load_code(name)
            omega = build_commutativity_matrix(code)
            m0, dim0, rank0 = minimal_memory(omega), omega.dim, omega.rank
            for i in range(len(code.generators)):
                for j in range(len(code.generators)):
                    if i == j:
                        continue
                    gens = list(code.generators)
                    gens[i] = multiply_generators(gens[i], gens[j])
                    variant = ConvolutionalCode(code.n, code.k, tuple(gens))
                    assert minimal_memory(build_commutativity_matrix(variant)) == m0
            for i in range(len(code.generators)):
                for shift in (1, 2):
                    gens = list(code.generators)
                    gens[i] = delay_generator(gens[i], shift)
                    variant = ConvolutionalCode(code.n, code.k, tuple(gens))
                    om2 = build_commutativity_matrix(variant)
                    assert om2.dim == dim0 + shift, (name, i, shift)
                    assert om2.rank == rank0, (name, i, shift)
                    assert minimal_memory(om2) == m0 + shift, (name, i, shift)


def test_criterion_05_centralizer_and_zero_output_rows():
    with report(5):
        # Published operator tables must yield the published centralizer spans.
        for name in CORPUS:
            table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
            cent = compute_centralizer(table)
            expected = CENTRALIZER_PUBLISHED[name]
            assert len(cent.basis) == len(expected), name
            for text in expected:
                assert centralizer_contains(cent, Pauli.from_string(text)), (name, text)
        # The pipeline's own tables must yield the printed zero-output rows.
        for name in CORPUS:
            code = load_code(name)
            table = assign_memory_operators(build_commutativity_matrix(code))
            encoder = assemble_partial_encoder(code, table)
            s1 = find_s1(encoder, compute_centralizer(table))
            assert [row_strings(encoder, row) for row in s1] == S1_ROWS[name], name


def test_criterion_06_sampled_completions_noncatastrophic():
    with report(6):
        start = time.perf_counter()
        result, tableaux = seeded_completions_running1()
        encoder = result.encoder
        assert len(tableaux) == 25
        for tableau in tableaux:
            assert is_symplectic_pairwise(tableau)
            flag, witness = detect_catastrophic(tableau, encoder.n, encoder.k, encoder.m)
            assert flag is False
            assert witness is None
        assert time.perf_counter() - start < 10.0


def test_criterion_07_sampled_completions_noncatastrophic_with_added_rows():
    with report(7):
        start = time.perf_counter()
        result, tableaux = seeded_completions_running2()
        encoder = result.encoder
        assert len(encoder.added_rows) == 2
        assert len(tableaux) == 10
        for tableau in tableaux:
            flag, witness = detect_catastrophic(tableau, encoder.n, encoder.k, encoder.m)
            assert flag is False
            assert witness is None
        assert time.perf_counter() - start < 120.0


def test_criterion_08_catastrophic_positive_control():
    with report(8):
        # m=1, n=1, k=1; qubit order in = mem, info; out = phys, mem.
        width = 2
        images = [0] * 4
        images[0] = pauli_to_vec(Pauli.from_string("XI"))  # X_mem -> X_phys
        images[2] = pauli_to_vec(Pauli.from_string("ZZ"))  # Z_mem -> Z_phys Z_mem'
        images[1] = pauli_to_vec(Pauli.from_string("XX"))  # X_info -> X_phys X_mem'
        images[3] = pauli_to_vec(Pauli.from_string("IZ"))  # Z_info -> Z_mem'
        tableau = CliffordTableau(width, images)
        assert is_symplectic_pairwise(tableau)

        flag, witness = detect_catastrophic(tableau, 1, 1, 1)
        assert flag is True
        assert witness is not None
        assert [str(v) for v in witness.vertices] == ["X"]
        assert len(witness.edges) == 1
        edge = witness.edges[0]
        assert edge.mem_from == edge.mem_to == Pauli.from_string("X")
        assert edge.physical.is_identity
        assert edge.logical_weight >= 1
        # The witness edge is reproduced by the tableau itself.
        inp = pauli_concat(edge.mem_from, edge.logical)
        out = image_of_pauli(tableau, inp)
        assert out == pauli_concat(edge.physical, edge.mem_to)

        # Exhaustive search over all four memory states and all inputs.
        zero_edges = []
        for mem_vec in range(4):
            mem = Pauli(1, mem_vec & 1, mem_vec >> 1)
            for log_vec in range(4):
                logical = Pauli(1, log_vec & 1, log_vec >> 1)
                image = image_of_pauli(tableau, pauli_concat(mem, logical))
                phys = Pauli(1, image.x & 1, image.z & 1)
                mem_to = Pauli(1, image.x >> 1, image.z >> 1)
                if phys.is_identity:
                    zero_edges.append((mem, logical, mem_to))
        adjacency = {}
        for mem, _logical, mem_to in zero_edges:
            adjacency.setdefault(pauli_to_vec(mem), set()).add(pauli_to_vec(mem_to))

        def reachable(src, dst):
            seen, stack = set(), [src]
            while stack:
                node = stack.pop()
                if node == dst:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(adjacency.get(node, ()))
            return False

        offending = [
            (mem, logical, mem_to)
            for mem, logical, mem_to in zero_edges
            if not logical.is_identity
            and reachable(pauli_to_vec(mem_to), pauli_to_vec(mem))
        ]
        assert offending, "exhaustive search found no logical cycle"
        assert any(str(mem) == "X" and mem == mem_to for mem, _l, mem_to in offending)


def test_criterion_09_non_recursive_witnesses_for_sampled_completions():
    with report(9):
        for seeded in (seeded_completions_running1, seeded_completions_running2):
            result, tableaux = seeded()
            n, k, m = result.encoder.n, result.encoder.k, result.m
            for tableau in tableaux:
                ok, path = verify_non_recursive(tableau, n, k, m)
                assert ok is True
                assert_checkable_escape_path(tableau, n, k, m, path)


def test_criterion_10_roundtrip_encoding():
    with report(10):
        for name in CORPUS:
            result, tableau = pipeline(name)
            assert roundtrip_verify(tableau, load_code(name)) == 1, name


def test_criterion_11_circuit_replay_and_gate_bound():
    with report(11):
        for name in CORPUS:
            _result, tableau = pipeline(name)
            gates = synthesize_circuit(tableau)
            assert replay_gates(tableau.width, gates) == tableau, name
            assert len(gates) <= GATE_COUNT_FACTOR * tableau.width**2, name
        for width in range(2, 9):
            rng = random.Random(width * 7919)
            for _ in range(100):
                tableau = CliffordTableau.identity(width)
                for _ in range(40):
                    kind = rng.choice(["h", "s", "cnot", "cz"])
                    if kind in ("h", "s"):
                        tableau = apply_gate(tableau, Gate(kind, (rng.randrange(width),)))
                    else:
                        tableau = apply_gate(
                            tableau, Gate(kind, tuple(rng.sample(range(width), 2)))
                        )
                gates = synthesize_circuit(tableau)
                assert replay_gates(width, gates) == tableau
                assert len(gates) <= GATE_COUNT_FACTOR * width**2


def test_criterion_12_memory_count_is_minimal():
    with report(12):
        start = time.perf_counter()
        checked = 0
        for name in CORPUS:
            omega = build_commutativity_matrix(load_code(name))
            m = minimal_memory(omega)
            if m > 3:
                continue
            checked += 1
            assert not exists_gram_realization(
                omega.rows, m - 1, require_independent=False
            ), name
        assert checked >= 1

        # gr07-third has m = 6, too many for a direct search on 5 qubits, so
        # m - 1 is ruled out by a Witt reduction instead.  Its memory
        # operators must be independent: row (i, j+1) maps memory input
        # g_{i,j} to (h_{i,j+1}, g_{i,j+1}), so a product of g_{i,j} over a
        # slot set equal to I forces the product of the tails h_{i,j+t},
        # t >= 1, to be I as well, and the tails are independent.  Eight
        # independent operators with Gram matrix omega (rank 4) span two
        # hyperbolic pairs plus a 4-dimensional radical of operators that
        # commute with all of them.  The radical lies in the symplectic
        # complement of the pairs, which on 5 qubits is a 3-qubit space, so
        # 5 qubits suffice only if 4 independent commuting Paulis fit on 3.
        code = load_code("gr07-third")
        omega = build_commutativity_matrix(code)
        width = 2 * code.n
        tails = [
            sum(
                pauli_to_vec(gen.block(j + t)) << (width * t)
                for t in range(1, gen.degree - j + 1)
            )
            for gen in code.generators
            for j in range(1, gen.degree)
        ]
        assert gf2_rank(tails) == omega.dim
        radical = omega.dim - omega.rank
        complement = minimal_memory(omega) - 1 - omega.rank // 2
        assert (radical, complement) == (4, 3)
        assert not exists_gram_realization(
            [0] * radical,
            complement,
            require_independent=True,
        )
        assert time.perf_counter() - start < 60.0
