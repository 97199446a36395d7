"""Unit and property tests for the bit-packed Pauli/GF(2) layer."""

import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    check_commutativity_matrix_by_lists,
    component_index,
    exists_gram_realization,
    gf2_in_rowspan,
    gf2_row_dependencies,
    gf2_solve_dot_system,
    gram_search,
    labelled_cycle_by_enumeration,
    logical_cycle,
    loop_vertices,
    parities,
    span_edges,
    strong_components,
    symplectic_gram_schmidt_by_lists,
)
import qconvenc.pauli as pauli_module
from qconvenc.errors import InvalidMatrixError, ParseError, QconvError, WidthMismatchError
from qconvenc.pauli import (
    BinaryMatrix,
    Pauli,
    _Echelon,
    _add_to_dot_system,
    _products,
    _transpose,
    cycle_core,
    gf2_basis,
    gf2_combination,
    gf2_invert,
    gf2_rank,
    gf2_solve_combination,
    gf2_span,
    gram_matrix,
    operators_from_commutativity,
    shortest_path,
    successor_lists,
    symplectic_gram_schmidt,
    symplectic_product,
)
from qconvenc.synth import EncoderRow
from qconvenc.tableau import CliffordTableau


@st.composite
def paulis(draw, width=None):
    if width is None:
        width = draw(st.integers(min_value=1, max_value=8))
    mask = (1 << width) - 1
    return Pauli(width, draw(st.integers(0, mask)), draw(st.integers(0, mask)))


@st.composite
def pauli_triples(draw):
    width = draw(st.integers(min_value=1, max_value=8))
    return tuple(draw(paulis(width=width)) for _ in range(3))


@st.composite
def symmetric_zero_diag(draw, max_dim=6):
    dim = draw(st.integers(min_value=0, max_value=max_dim))
    entries = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            bit = draw(st.integers(0, 1))
            entries[i][j] = entries[j][i] = bit
    return BinaryMatrix.from_lists(entries, ncols=dim)


@st.composite
def multigraph_edges(draw):
    # Sparse int vertices, as packed Paulis are; repeats give parallel edges
    # and self-loops.
    vertices = draw(st.lists(st.integers(0, 2**12), min_size=1, max_size=8, unique=True))
    vertex = st.sampled_from(vertices)
    return draw(st.lists(st.tuples(vertex, vertex), max_size=3 * len(vertices)))


@st.composite
def packed_relations(draw):
    # A basis of a linear edge space on bits-bit states, packed as
    # u | v << bits | label << 2 * bits, with up to two label bits.
    bits = draw(st.integers(min_value=0, max_value=4))
    word = st.integers(0, (1 << (2 * bits + 2)) - 1)
    return draw(st.lists(word, max_size=7)), bits


@st.composite
def labelled_edges(draw):
    edges = draw(multigraph_edges())
    return [(u, v, draw(st.integers(0, 3))) for u, v in edges]


def test_string_roundtrip_examples():
    for text in ["I", "XYZI", "ZZZZ", "IXIXIXIX"]:
        assert str(Pauli.from_string(text)) == text


def test_from_string_rejects_lowercase_and_junk():
    with pytest.raises(ValueError):
        Pauli.from_string("xyz")
    with pytest.raises(ValueError):
        Pauli.from_string("XW")


@given(paulis())
def test_string_roundtrip(p):
    assert Pauli.from_string(str(p)) == p


@given(pauli_triples())
def test_projective_group_laws(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a * a).is_identity
    assert a * Pauli.identity(a.width) == a


def test_multiply_width_mismatch():
    with pytest.raises(WidthMismatchError):
        Pauli.from_string("XX") * Pauli.from_string("X")
    with pytest.raises(WidthMismatchError):
        symplectic_product(Pauli.from_string("XX"), Pauli.from_string("X"))


@given(pauli_triples())
def test_symplectic_form_properties(triple):
    a, b, c = triple
    assert symplectic_product(a, a) == 0
    assert symplectic_product(a, b) == symplectic_product(b, a)
    left = symplectic_product(a * b, c)
    assert left == symplectic_product(a, c) ^ symplectic_product(b, c)


def test_symplectic_known_values():
    X, Z, Y, I = (Pauli.from_string(s) for s in "XZYI")
    assert symplectic_product(X, Z) == 1
    assert symplectic_product(X, Y) == 1
    assert symplectic_product(Z, Y) == 1
    assert symplectic_product(X, X) == 0
    assert symplectic_product(I, Y) == 0


def test_concat_and_cut():
    a = Pauli.from_string("XY")
    b = Pauli.from_string("ZI")
    both = a.concat(b)
    assert str(both) == "XYZI"
    assert both.cut(0, 2) == a
    assert both.cut(2, 4) == b


@given(st.lists(st.integers(0, 2**10 - 1), max_size=8))
def test_rank_bounds(rows):
    r = gf2_rank(rows)
    assert 0 <= r <= min(len(rows), 10)
    # Adding a row never lowers the rank.
    assert gf2_rank(rows + [0b1]) >= r


@given(st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=6), st.data())
def test_solve_combination_reproduces_target(rows, data):
    # Build a target guaranteed to be in the span.
    mask = data.draw(st.integers(0, (1 << len(rows)) - 1))
    target = 0
    for i in range(len(rows)):
        if (mask >> i) & 1:
            target ^= rows[i]
    combo = gf2_solve_combination(rows, target)
    assert combo is not None
    acc = 0
    for i in range(len(rows)):
        if (combo >> i) & 1:
            acc ^= rows[i]
    assert acc == target


def test_solve_combination_prefers_early_zeros():
    rows = [0b01, 0b10, 0b11]
    # 0b11 is expressible as rows[0]+rows[1] or rows[2] alone; the
    # lexicographically least coefficient sequence is (0, 0, 1).
    assert gf2_solve_combination(rows, 0b11) == 0b100
    assert gf2_solve_combination(rows, 0b111) is None


def test_row_dependencies_finds_xor_zero_subsets():
    rows = [0b011, 0b101, 0b110]
    deps = gf2_row_dependencies(rows)
    assert deps == [0b111]
    assert gf2_row_dependencies([0b01, 0b10]) == []


@given(
    st.lists(st.integers(0, 2**8 - 1), max_size=6),
    st.integers(0, 2**8 - 1),
)
def test_solve_dot_system_solutions_check_out(words, vec):
    rhs = [bin(w & vec).count("1") & 1 for w in words]
    solved = gf2_solve_dot_system(words, 8, rhs)
    assert solved is not None
    particular, null_basis = solved
    for w, b in zip(words, rhs):
        assert bin(w & particular).count("1") & 1 == b
    for nb in null_basis:
        for w in words:
            assert bin(w & nb).count("1") & 1 == 0
    assert len(null_basis) == 8 - gf2_rank(words)


def test_solve_dot_system_inconsistent():
    assert gf2_solve_dot_system([0b0], 2, [1]) is None


def test_invert_roundtrip():
    rows = [0b110, 0b011, 0b001]
    inv = gf2_invert(rows, 3)
    assert inv is not None
    for r in range(3):
        acc = 0
        for c in range(3):
            if (inv[r] >> c) & 1:
                acc ^= rows[c]
        assert acc == 1 << r
    assert gf2_invert([0b11, 0b11], 2) is None


def test_in_rowspan():
    rows = [0b101, 0b011]
    assert gf2_in_rowspan(0b110, rows)
    assert not gf2_in_rowspan(0b100, rows)
    assert gf2_in_rowspan(0, [])


@given(symmetric_zero_diag())
@settings(max_examples=60)
def test_gram_schmidt_structure(mat):
    result = symplectic_gram_schmidt(mat)
    assert 2 * result.c == mat.rank()
    assert result.c + len(result.isotropics) + result.c == mat.nrows
    # Conjugating by the transform rows of the pairs, then of the isotropics,
    # must give c blocks [[0,1],[1,0]] followed by a zero block.
    dim = mat.nrows
    order = [idx for pair in result.pairs for idx in pair] + result.isotropics
    assert sorted(order) == list(range(dim))
    change = [result.transform.rows[idx] for idx in order]
    for a in range(dim):
        for b in range(dim):
            acc = 0
            for i in range(dim):
                if not (change[a] >> i) & 1:
                    continue
                for j in range(dim):
                    if (change[b] >> j) & 1 and mat.get(i, j):
                        acc ^= 1
            hyperbolic = a < 2 * result.c and b == a ^ 1
            assert acc == int(hyperbolic)


@given(symmetric_zero_diag(max_dim=12))
@example(BinaryMatrix([0] * 7, 7))
@example(BinaryMatrix([0b10, 0b01, 0b1000, 0b0100, 0b100000, 0b010000], 6))
@example(BinaryMatrix([((1 << 8) - 1) ^ (1 << r) for r in range(8)], 8))
@settings(max_examples=80)
def test_gram_schmidt_matches_list_reference(mat):
    # The packed rows must make every choice the row-by-row reference makes.
    got, want = symplectic_gram_schmidt(mat), symplectic_gram_schmidt_by_lists(mat)
    assert (got.c, got.d, got.pairs, got.isotropics) == (want.c, want.d, want.pairs, want.isotropics)
    assert got.transform == want.transform


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))
))
@example((2, [0b10, 0b00]))
@example((3, [0b110, 0b101, 0b011]))
def test_commutativity_matrix_check_matches_list_reference(shape):
    # Square matrices, most of them neither symmetric nor zero on the
    # diagonal: the same refusal, naming the same first entry.
    n, rows = shape
    mat = BinaryMatrix(rows, n)

    def outcome(check):
        try:
            check(mat)
        except InvalidMatrixError as exc:
            return str(exc)
        return None

    assert outcome(pauli_module._check_commutativity_matrix) == outcome(
        check_commutativity_matrix_by_lists
    )


def test_gram_schmidt_rejects_asymmetric():
    with pytest.raises(InvalidMatrixError):
        symplectic_gram_schmidt(BinaryMatrix.from_lists([[0, 1], [0, 0]]))
    with pytest.raises(InvalidMatrixError):
        symplectic_gram_schmidt(BinaryMatrix.from_lists([[1]]))


@given(symmetric_zero_diag())
@settings(max_examples=60)
def test_operators_reproduce_any_commutativity_matrix(mat):
    ops = operators_from_commutativity(mat)
    assert gram_matrix(ops).to_lists() == mat.to_lists()
    if ops:
        expected_qubits = mat.nrows - mat.rank() // 2
        assert ops[0].width == expected_qubits


def test_exists_gram_realization_small():
    # A single hyperbolic pair fits on one qubit but not on zero.
    pair = BinaryMatrix.from_lists([[0, 1], [1, 0]])
    assert exists_gram_realization(pair, 1)
    assert not exists_gram_realization(pair, 0)


@given(symmetric_zero_diag(max_dim=4), st.integers(0, 2), st.booleans())
@settings(max_examples=80)
def test_gram_realization_symmetry_breaking_loses_nothing(mat, qubits, independent):
    # Fixing the first Pauli to Z_0 (or the identity) must agree with trying
    # all 4^qubits first Paulis.
    every = range(1 << 2 * qubits)
    assert exists_gram_realization(mat, qubits, independent) == gram_search(
        mat, qubits, independent, every
    )


@given(multigraph_edges())
# 0 -> 4 takes two edges through 1 and three through 2; a depth-first walk
# that tries 2 first reports the longer one.
@example([(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)])
def test_strong_components_and_shortest_path_match_networkx(edges):
    succ = successor_lists(edges)
    graph = nx.MultiDiGraph(edges)
    component = strong_components(succ)
    assert set(component) == set(graph.nodes)
    ours = {
        frozenset(v for v in component if component[v] == c)
        for c in set(component.values())
    }
    assert ours == {frozenset(c) for c in nx.strongly_connected_components(graph)}
    for source in succ:
        for target in succ:
            path = shortest_path(succ, source, target)
            if not nx.has_path(graph, source, target):
                assert path is None
                continue
            assert len(path) - 1 == nx.shortest_path_length(graph, source, target)
            assert path[0] == source and path[-1] == target
            assert all(b in succ[a] for a, b in zip(path, path[1:]))


@given(st.lists(st.integers(0, 2**10), max_size=7))
def test_span_lists_combinations_in_mask_order(rows):
    span = gf2_span(rows)
    assert len(span) == 1 << len(rows)
    assert all(span[c] == gf2_combination(rows, c) for c in range(len(span)))


@given(labelled_edges())
# The labelled 0 -> 1 lies on no cycle; the labelled 2 -> 2 is a self-loop.
@example([(0, 1, 1), (1, 2, 0), (2, 2, 1)])
def test_logical_cycle_matches_networkx_has_path(labelled):
    graph = nx.MultiDiGraph([(u, v) for u, v, _ in labelled])
    expected = next(
        (i for i, (u, v, label) in enumerate(labelled) if label and nx.has_path(graph, v, u)),
        None,
    )
    found = logical_cycle(labelled)
    if expected is None:
        assert found is None
        return
    i, path = found
    assert i == expected
    u, v, _ = labelled[i]
    assert path[0] == v and path[-1] == u
    assert len(path) - 1 == nx.shortest_path_length(graph, v, u)
    assert all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))


@given(st.lists(st.integers(0, 2**10), max_size=7))
def test_basis_is_independent_and_spans_the_rows(rows):
    basis = gf2_basis(rows)
    assert len(basis) == gf2_rank(rows)
    assert all(gf2_in_rowspan(row, basis) for row in rows)
    # Distinct highest bits, fully reduced: the span lists in ascending order.
    span = gf2_span(basis)
    assert all(a < b for a, b in zip(span, span[1:]))
    assert span == sorted(set(gf2_span(rows)))


@given(packed_relations())
# The labelled 0 -> 1 lies on no cycle, and 1 has no way out.
@example(([0b0110], 1))
# A labelled self-loop at 1.
@example(([0b0111], 1))
# 1 -> 2 (labelled) and 2 -> 3 span 3 -> 1 as well: a labelled cycle.
@example(([1 | 2 << 2 | 1 << 4, 2 | 3 << 2], 2))
# 1 -> 2 and 3 -> 2 lead into 2 -> 0 (labelled): two rounds shrink the core to {0}.
@example(([1 | 2 << 2, 2 | 1 << 4], 2))
def test_cycle_core_matches_enumeration_and_networkx(relation):
    basis, bits = relation
    mask = (1 << bits) - 1
    core = cycle_core(basis, bits)
    edges = span_edges(basis, bits)
    graph = nx.MultiDiGraph([(u, v) for u, v, _ in edges])
    component = component_index(graph)
    on_cycles = {
        u | v << bits | label << 2 * bits
        for u, v, label in edges
        if component[u] == component[v]
    }
    assert set(gf2_span(core)) == on_cycles
    assert {e & mask for e in gf2_span(core)} == loop_vertices(graph)
    assert any(e >> 2 * bits for e in core) == labelled_cycle_by_enumeration(basis, bits)


@pytest.mark.parametrize(
    "width,x,z",
    [(-1, 0, 0), (2, 4, 0), (2, 0, 4), (2, -1, 0), (2, 0, -1)],
    ids=["negative-width", "x-too-wide", "z-too-wide", "negative-x", "negative-z"],
)
def test_pauli_rejects_words_outside_its_width(width, x, z):
    with pytest.raises(WidthMismatchError) as info:
        Pauli(width, x, z)
    assert isinstance(info.value, QconvError)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: Pauli(2, 1, 0).cut(1, 5), WidthMismatchError),
        (lambda: Pauli(2, 1, 0).cut(2, 1), WidthMismatchError),
        (lambda: BinaryMatrix.from_lists([[1, 0], [1]], 2), InvalidMatrixError),
        (lambda: gf2_solve_dot_system([0b1, 0b10], 2, [0]), InvalidMatrixError),
        (
            lambda: operators_from_commutativity(
                BinaryMatrix.from_lists([[0, 1], [1, 0]]), order=[0, 0]
            ),
            InvalidMatrixError,
        ),
        (lambda: EncoderRow(-1, 1, 0, 0, 0), WidthMismatchError),
        (lambda: EncoderRow(1, 1, 2, 0, 0), WidthMismatchError),
        (lambda: EncoderRow(1, 1, 0, 1 << 4, 0), WidthMismatchError),
        (lambda: EncoderRow(1, 1, 0, 0, -1), WidthMismatchError),
        (lambda: CliffordTableau(2, [1, 2, 3]), WidthMismatchError),
        (lambda: Pauli.from_string("XW"), ParseError),
    ],
    ids=[
        "cut-past-width", "cut-reversed", "short-row", "rhs-length", "order-not-permutation",
        "row-negative-memory", "row-k-above-n", "row-word-too-wide", "row-negative-word",
        "tableau-image-count", "pauli-character",
    ],
)
def test_caller_input_raises_typed_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, QconvError)


def test_pauli_width_check_survives_optimized_mode():
    # An assert would vanish under -O; the typed errors must not.
    # gf2_solve_dot_system is a test oracle: the script imports it from tests/.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import qconvenc.tableau as tableau_module\n"
        "from qconvenc.code import ConvolutionalCode, GeneratorPolynomial\n"
        "from oracles import gf2_solve_dot_system\n"
        "from qconvenc.pauli import BinaryMatrix, Pauli, operators_from_commutativity\n"
        "from qconvenc.synth import EncoderRow, PartialEncoder, add_noncatastrophic_rows\n"
        "from qconvenc.tableau import CliffordTableau, Gate, complete_to_clifford, "
        "detect_catastrophic, synthesize_circuit, verify_non_recursive\n"
        "wide_row = EncoderRow(2, 1, 0, 0, 0)\n"
        "swapped = tableau_module.replay_gates(1, [Gate('h', (0,))])\n"
        "# A replay that misses the tableau must be refused, not passed through.\n"
        "tableau_module.replay_gates = lambda w, gates: CliffordTableau.identity(w)\n"
        "# So must a completion that fails its symplectic post-condition.\n"
        "CliffordTableau.is_symplectic = lambda self: False\n"
        "gen = GeneratorPolynomial.from_strings(['XZ'])\n"
        "calls = [\n"
        "    lambda: Pauli(1, 2, 0),\n"
        "    lambda: Pauli(width=-1),\n"
        "    lambda: GeneratorPolynomial.from_blocks((Pauli(1), Pauli(2))),\n"
        "    lambda: GeneratorPolynomial(0, 0),\n"
        "    lambda: GeneratorPolynomial(1, -1),\n"
        "    lambda: ConvolutionalCode(n=2, k=1, generators=(gen, gen)),\n"
        "    lambda: Pauli(2, 1, 0).cut(1, 5),\n"
        "    lambda: BinaryMatrix.from_lists([[1, 0], [1]], 2),\n"
        "    lambda: gf2_solve_dot_system([0b1, 0b10], 2, [0]),\n"
        "    lambda: operators_from_commutativity(\n"
        "        BinaryMatrix.from_lists([[0, 1], [1, 0]]), order=[0, 0]),\n"
        "    lambda: verify_non_recursive(CliffordTableau.identity(4), 2, 1, 1),\n"
        "    lambda: detect_catastrophic(CliffordTableau.identity(4), 2, 1, 1),\n"
        "    lambda: complete_to_clifford(PartialEncoder(1, 1, 0, [wide_row])),\n"
        "    lambda: add_noncatastrophic_rows(PartialEncoder(1, 1, 0, [])),\n"
        "    lambda: synthesize_circuit(swapped),\n"
        "    lambda: complete_to_clifford(PartialEncoder(0, 1, 0, [])),\n"
        "    lambda: EncoderRow(-1, 1, 0, 0, 0),\n"
        "    lambda: EncoderRow(1, 1, 2, 0, 0),\n"
        "    lambda: EncoderRow(1, 1, 0, 1 << 4, 0),\n"
        "    lambda: EncoderRow(1, 1, 0, 0, -1),\n"
        "    lambda: CliffordTableau(2, [1, 2, 3]),\n"
        "    lambda: Pauli.from_string('XW'),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n        call()\n        print('accepted')\n"
        "    except Exception as exc:\n        print(type(exc).__name__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "CodeShapeError",
        "WidthMismatchError",
        "InvalidMatrixError",
        "InvalidMatrixError",
        "InvalidMatrixError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "AssemblyError",
        "SynthesisFailureError",
        "CompletionError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "ParseError",
    ]


@given(
    st.lists(st.tuples(st.integers(0, 2**5 - 1), st.integers(0, 1)), max_size=8),
)
@example([(0b11, 0), (0b01, 1), (0b10, 0)])  # dependent rows, odd right-hand side
@example([(0b0, 1)])  # a zero row asked for parity 1
def test_grown_echelon_matches_fresh_solves(system):
    # One echelon grown a row at a time answers, after every row, what the
    # fresh solvers answer over the rows so far.
    echelon = _Echelon()
    rows: list = []
    rhs: list = []
    for row, bit in system:
        echelon.add(row, 1 << len(rows))
        rows.append(row)
        rhs.append(bit)
        rhs_mask = sum(b << i for i, b in enumerate(rhs))
        assert echelon.dependencies == gf2_row_dependencies(rows)
        solved = echelon.solve_dot(rhs_mask, 5)
        assert solved == gf2_solve_dot_system(rows, 5, rhs)
        # Independent check: None exactly when no 5-bit word solves the system.
        solvable = any(
            all(bin(r & v).count("1") & 1 == b for r, b in zip(rows, rhs)) for v in range(32)
        )
        assert (solved is not None) == solvable


@given(
    st.lists(st.tuples(st.integers(0, 2**6 - 1), st.integers(0, 1)), max_size=10),
)
@example([(0b011, 1), (0b110, 0), (0b101, 1)])  # the third row is dependent
@example([(0b0, 0), (0b100000, 1)])  # a zero row, then the top column
def test_grown_nullspace_matches_fresh_solves(system):
    # The nullspace kept beside a growing echelon, and the particular
    # solution read off its tags, equal a fresh solve after every row, the
    # nullspace in the same order; a dependent row leaves it unchanged.
    echelon = _Echelon()
    nullspace = {f: 1 << f for f in range(6)}
    rows: list = []
    rhs: list = []
    for row, bit in system:
        before, dependencies = dict(nullspace), len(echelon.dependencies)
        _add_to_dot_system(echelon, nullspace, row, 1 << len(rows))
        rows.append(row)
        rhs.append(bit)
        if len(echelon.dependencies) > dependencies:
            assert nullspace == before
        rhs_mask = sum(b << i for i, b in enumerate(rhs))
        particular = echelon.particular(rhs_mask)
        solved = gf2_solve_dot_system(rows, 6, rhs)
        assert (particular is None) == (solved is None)
        if solved is not None:
            assert (particular, list(nullspace.values())) == solved
        assert list(nullspace.values()) == gf2_solve_dot_system(rows, 6, [0] * len(rows))[1]


@given(
    st.lists(st.integers(0, 2**12 - 1), max_size=8),
    st.lists(st.integers(0, 2**16 - 1), max_size=8),
    st.integers(0, 4),
)
@example([], [0b1011], 0)  # no rows: every product is the empty word
@example([0b11, 0b101], [0b111000111], 0)  # a word wider than every row
@example([0b111000111], [0b11], 0)  # rows wider than every word: their bits drop
def test_transposed_products_match_parities(rows, words, extra):
    # Transposed to at least the width of the multiplying word, a row set
    # gives every product as one combination of its columns; row bits past
    # that width meet only zeros, and so do word bits past the rows.
    for word in words:
        bits = word.bit_length() + extra
        columns = _transpose(rows, bits)
        assert columns == [
            sum(((row >> b) & 1) << i for i, row in enumerate(rows)) for b in range(bits)
        ]
        assert gf2_combination(columns, word) == parities(word, rows)
    assert _products(words, rows) == [parities(word, rows) for word in words]
