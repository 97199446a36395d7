"""Unit and property tests for the bit-packed Pauli/GF(2) layer."""

import itertools
import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_code, shift_invariant_codes, symmetric_zero_diag
from oracles import (
    TrackedEchelon,
    add_to_dot_system,
    check_commutativity_matrix_by_lists,
    component_index,
    cycle_core_by_annihilators,
    echelon_particular,
    exists_gram_realization,
    gf2_in_rowspan,
    gf2_invert,
    gf2_row_dependencies,
    gf2_solve_dot_system,
    gram_matrix,
    gram_search,
    labelled_cycle_by_enumeration,
    logical_cycle,
    loop_vertices,
    parities,
    pauli_concat,
    pauli_cut,
    pauli_product,
    shortest_path,
    span_edges,
    strong_components,
    successor_lists,
    symplectic_gram_schmidt_by_lists,
)
import qconvenc.pauli as pauli_module
from qconvenc.code import ConvolutionalCode, GeneratorPolynomial
from qconvenc.errors import (
    GateError,
    InvalidMatrixError,
    ParseError,
    QconvError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    Pauli,
    _dependencies,
    _product_mismatch,
    _products,
    _transpose,
    cycle_core,
    gf2_basis,
    gf2_combination,
    gf2_rank,
    gf2_solve_combination,
    gf2_span,
    operators_from_commutativity,
    pauli_to_vec,
    symplectic_gram_schmidt,
    symplectic_product_vec,
)
from qconvenc.shorten import shorten
from qconvenc.synth import (
    CentralizerBasis,
    EncoderRow,
    MemoryOperatorTable,
    PartialEncoder,
    assign_memory_operators,
    build_commutativity_matrix,
)
from qconvenc.tableau import CliffordTableau, Gate, replay_gates
from reference_data import CORPUS


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
def relations_with_repeats(draw):
    # A packed relation's edges with repeated and zero edges mixed in, so
    # that the list is dependent, as the added-row oracle's rows may be.
    edges, bits = draw(packed_relations())
    extra = draw(st.lists(st.sampled_from(edges + [0]), min_size=1, max_size=4))
    return draw(st.permutations(edges + extra)), bits


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


def _char_product(a: str, b: str) -> str:
    """The projective product of two single-qubit Paulis, by the table."""
    if a == "I" or b == "I":
        return a if b == "I" else b
    return "I" if a == b else ({"X", "Y", "Z"} - {a, b}).pop()


@given(pauli_triples())
def test_projective_group_laws(triple):
    # The product is the single-qubit table on every qubit, and the XOR of
    # the packed vectors, so those vectors form the projective Pauli group.
    a, b, c = triple
    product = pauli_product(a, b)
    assert str(product) == "".join(map(_char_product, str(a), str(b)))
    assert pauli_to_vec(product) == pauli_to_vec(a) ^ pauli_to_vec(b)
    assert pauli_product(product, c) == pauli_product(a, pauli_product(b, c))
    assert pauli_product(a, Pauli.identity(a.width)) == a


@given(pauli_triples())
def test_symplectic_form_properties(triple):
    # Alternating, symmetric and bilinear over the packed (XOR) product.
    w = triple[0].width
    a, b, c = (pauli_to_vec(p) for p in triple)
    assert symplectic_product_vec(a, a, w) == 0
    assert symplectic_product_vec(a, b, w) == symplectic_product_vec(b, a, w)
    left = symplectic_product_vec(a ^ b, c, w)
    assert left == symplectic_product_vec(a, c, w) ^ symplectic_product_vec(b, c, w)


def test_symplectic_known_values():
    X, Z, Y, I = (pauli_to_vec(Pauli.from_string(s)) for s in "XZYI")
    assert symplectic_product_vec(X, Z, 1) == 1
    assert symplectic_product_vec(X, Y, 1) == 1
    assert symplectic_product_vec(Z, Y, 1) == 1
    assert symplectic_product_vec(X, X, 1) == 0
    assert symplectic_product_vec(I, Y, 1) == 0


def test_concat_and_cut():
    a = Pauli.from_string("XY")
    b = Pauli.from_string("ZI")
    both = pauli_concat(a, b)
    assert str(both) == "XYZI"
    assert pauli_cut(both, 0, 2) == a
    assert pauli_cut(both, 2, 4) == b


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
@example([])
@settings(max_examples=60)
def test_gram_schmidt_structure(mat):
    result = symplectic_gram_schmidt(mat)
    assert 2 * result.c == gf2_rank(mat)
    assert result.c + len(result.isotropics) + result.c == len(mat)
    # The pairs and isotropics split the rows; the reduced rows have the
    # standard form, a 1 at (i, j) and (j, i) for each pair, and combining
    # it by the inverse rows on both sides must give back the matrix.
    dim = len(mat)
    order = [idx for pair in result.pairs for idx in pair] + result.isotropics
    assert sorted(order) == list(range(dim))
    standard = [[0] * dim for _ in range(dim)]
    for i, j in result.pairs:
        standard[i][j] = standard[j][i] = 1
    inverse = result.inverse
    for a in range(dim):
        for b in range(dim):
            acc = 0
            for i in range(dim):
                if not (inverse[a] >> i) & 1:
                    continue
                for j in range(dim):
                    if (inverse[b] >> j) & 1 and standard[i][j]:
                        acc ^= 1
            assert acc == (mat[a] >> b) & 1
    assert gf2_rank(inverse) == dim


@given(symmetric_zero_diag(max_dim=12))
@example([])
@example([0] * 7)
@example([0b10, 0b01, 0b1000, 0b0100, 0b100000, 0b010000])
@example([((1 << 8) - 1) ^ (1 << r) for r in range(8)])
@settings(max_examples=80)
def test_gram_schmidt_matches_list_reference(mat):
    # The packed rows must make every choice the row-by-row reference makes,
    # and record the inverse of the reference's transform (gf2_invert).
    got, want = symplectic_gram_schmidt(mat), symplectic_gram_schmidt_by_lists(mat)
    assert (got.c, got.d, got.pairs, got.isotropics) == (want.c, want.d, want.pairs, want.isotropics)
    assert got.inverse == want.inverse


@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, 2**n - 1) | st.integers(-2, 2 ** (n + 1)), min_size=n, max_size=n
    ))
))
@example((2, [0b10, 0b00]))
@example((3, [0b110, 0b101, 0b011]))
@example((2, [0b100010, 0b01]))
@example((2, [0b01, -1]))
def test_commutativity_matrix_check_matches_list_reference(shape):
    # n row words, most of them neither symmetric nor zero on the diagonal,
    # some negative or with an entry past the last column: the same
    # refusal, naming the same first entry.
    n, rows = shape

    def outcome(check):
        try:
            check(rows)
        except InvalidMatrixError as exc:
            return str(exc)
        return None

    assert outcome(pauli_module._check_commutativity_matrix) == outcome(
        check_commutativity_matrix_by_lists
    )


def test_gram_schmidt_rejects_asymmetric():
    with pytest.raises(InvalidMatrixError):
        symplectic_gram_schmidt([0b10, 0b00])
    with pytest.raises(InvalidMatrixError):
        symplectic_gram_schmidt([0b1])


@given(symmetric_zero_diag(), st.data())
@settings(max_examples=60)
def test_operators_reproduce_any_commutativity_matrix(mat, data):
    # The words fit m = dim - rank/2 qubits and reproduce the matrix pairwise,
    # whatever order the memory qubits are claimed in.
    m = len(mat) - gf2_rank(mat) // 2
    order = data.draw(st.permutations(range(len(mat))))
    for claim in (range(len(mat)), order):
        ops = operators_from_commutativity(mat, claim)
        assert len(ops) == len(mat)
        assert all(0 <= op < 1 << 2 * m for op in ops)
        assert gram_matrix(ops, m) == mat


def assert_operators_reproduce_the_matrix_of(code):
    omega = build_commutativity_matrix(shorten(code).output_code)
    table = assign_memory_operators(omega)
    assert gram_matrix(table.as_list(), table.m) == omega.rows


def test_memory_operators_reproduce_the_matrix_of_every_corpus_code():
    # operators_from_commutativity no longer re-checks its words; its proof
    # is in its docstring, and the Gram matrix is checked here instead.
    for name in CORPUS:
        assert_operators_reproduce_the_matrix_of(load_code(name))


@settings(max_examples=60, deadline=None)
@given(shift_invariant_codes(min_generators=3))
def test_memory_operators_reproduce_the_matrix_of_generated_codes(code):
    # Codes give matrices larger than symmetric_zero_diag draws (m up to 15).
    assert_operators_reproduce_the_matrix_of(code)


def test_exists_gram_realization_small():
    # A single hyperbolic pair fits on one qubit but not on zero.
    pair = [0b10, 0b01]
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


@given(packed_relations(), st.lists(st.integers(0, 2**7 - 1), max_size=7))
def test_tagged_edges_span_in_ascending_tag_order(relation, combos):
    # Edges u | v << bits | (label | 1 << 2 + t) << 2 * bits, tag bit t on
    # basis entry t, as the state-diagram core packs them: a subspace of
    # their span, drawn or their cycle_core, lists ascending in tag order,
    # which is the mask order of its tags.
    basis, bits = relation
    top = 2 * bits + 2
    tagged = [e | 1 << top + t for t, e in enumerate(basis)]
    drawn = [gf2_combination(tagged, c & (1 << len(tagged)) - 1) for c in combos]
    for edges in (drawn, cycle_core(tagged, bits)):
        tags = [e >> top for e in gf2_span(gf2_basis(edges))]
        assert all(a < b for a, b in zip(tags, tags[1:]))
        assert tags == gf2_span(gf2_basis(e >> top for e in edges))


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


@given(st.one_of(packed_relations(), relations_with_repeats()))
# 1 -> 2 twice and a zero edge beside 2 -> 0 (labelled): the rounds shrink
# the core to {0} and keep the list's dependencies.
@example(([1 | 2 << 2, 0, 1 | 2 << 2, 2 | 1 << 4], 2))
def test_cycle_core_matches_the_annihilator_reference(relation):
    # One elimination per round keeps the span that two annihilators and a
    # nullspace per round keep.
    edges, bits = relation
    assert gf2_basis(cycle_core(edges, bits)) == gf2_basis(cycle_core_by_annihilators(edges, bits))


@pytest.mark.parametrize(
    "width,x,z",
    [(-1, 0, 0), (2, 4, 0), (2, 0, 4), (2, -1, 0), (2, 0, -1), (1, 2, 2)],
    ids=[
        "negative-width", "x-too-wide", "z-too-wide", "negative-x", "negative-z",
        "x-and-z-share-a-bit-past-the-width",
    ],
)
def test_pauli_rejects_words_outside_its_width(width, x, z):
    with pytest.raises(WidthMismatchError) as info:
        Pauli(width, x, z)
    assert isinstance(info.value, QconvError)


# A one-qubit memory with no operators, for encoders of one to three qubits.
NO_OPS = MemoryOperatorTable(1, {}, [])
GEN = GeneratorPolynomial(2, 0b0101)  # XX


@pytest.mark.parametrize(
    "call,error",
    [
        (
            lambda: operators_from_commutativity([0b100010, 0b01], order=range(2)),
            InvalidMatrixError,
        ),
        (lambda: gf2_solve_dot_system([0b1, 0b10], 2, [0]), InvalidMatrixError),
        (
            lambda: operators_from_commutativity([0b10, 0b01], order=[0, 0]),
            InvalidMatrixError,
        ),
        (lambda: PartialEncoder(MemoryOperatorTable(-1, {}, []), 1, 0, []), WidthMismatchError),
        (lambda: PartialEncoder(NO_OPS, 1, 2, []), WidthMismatchError),
        (lambda: PartialEncoder(NO_OPS, 1, 0, [EncoderRow(1 << 4, 0)]), WidthMismatchError),
        (lambda: PartialEncoder(NO_OPS, 1, 0, [EncoderRow(0, -1)]), WidthMismatchError),
        (lambda: PartialEncoder(0, 2, 1, []), TypeError),
        (lambda: PartialEncoder(None, 2, 1, []), TypeError),
        (lambda: CliffordTableau(2, [1, 2, 3]), WidthMismatchError),
        (lambda: Pauli.from_string("XW"), ParseError),
        (lambda: MemoryOperatorTable(1, {(1, 1): 1 << 2}, [(1, 1)]), WidthMismatchError),
        (lambda: MemoryOperatorTable(1, {(1, 1): -1}, [(1, 1)]), WidthMismatchError),
        (lambda: replay_gates(2, [Gate("h", (-1,))]), GateError),
        (lambda: replay_gates(2, [Gate("s", (2,))]), GateError),
        (lambda: replay_gates(2, [Gate("cnot", (0, 0))]), GateError),
        (lambda: replay_gates(2, [Gate("cz", (0, 2))]), GateError),
        (lambda: replay_gates(2, [Gate("cnot", (2, 0))]), GateError),
        (lambda: replay_gates(2, [Gate("cnot", (0,))]), GateError),
        (lambda: replay_gates(2, [Gate("h", (0, 1))]), GateError),
        (lambda: replay_gates(2, [Gate("t", (0,))]), GateError),
        (lambda: GeneratorPolynomial(2, 3.0), TypeError),
        (lambda: GeneratorPolynomial(1.5, 1.5), TypeError),
        (lambda: ConvolutionalCode(2.0, 1, (GEN,)), TypeError),
        (lambda: MemoryOperatorTable(1.0, {}, []), TypeError),
        (lambda: CentralizerBasis(1.0, []), TypeError),
        (lambda: PartialEncoder(NO_OPS, 2, 1.0, []), TypeError),
        (lambda: CliffordTableau(0.0, []), TypeError),
    ],
    ids=[
        "row-past-last-column", "rhs-length", "order-not-permutation",
        "row-negative-memory", "row-k-above-n", "row-word-too-wide", "row-negative-word",
        "encoder-int-table", "encoder-none-table",
        "tableau-image-count", "pauli-character", "table-word-too-wide", "table-negative-word",
        "gate-negative-qubit", "gate-qubit-past-width", "gate-repeated-qubit",
        "gate-two-qubit-past-width", "gate-first-qubit-past-width", "gate-too-few-qubits",
        "gate-too-many-qubits", "gate-unknown-kind", "generator-float-word",
        "generator-float-width",
        "code-float-n", "table-float-m", "centralizer-float-m", "encoder-float-k",
        "tableau-float-width",
    ],
)
def test_caller_input_raises_typed_errors(call, error):
    # A value out of range raises a QconvError; a value of the wrong type
    # raises a TypeError, which is not one.
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, QconvError) == (error is not TypeError)


def test_pauli_width_check_survives_optimized_mode():
    # An assert would vanish under -O; the typed errors must not.
    # gf2_solve_dot_system is a test oracle: the script imports it from tests/.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "import qconvenc.tableau as tableau_module\n"
        "from qconvenc.code import ConvolutionalCode, GeneratorPolynomial\n"
        "from oracles import gf2_solve_dot_system\n"
        "from qconvenc.pauli import Pauli, operators_from_commutativity\n"
        "from qconvenc.synth import (\n"
        "    CentralizerBasis, EncoderRow, MemoryOperatorTable, PartialEncoder)\n"
        "from qconvenc.tableau import CliffordTableau, Gate, complete_to_clifford, "
        "detect_catastrophic, synthesize_circuit, verify_non_recursive\n"
        "no_ops = MemoryOperatorTable(1, {}, [])\n"
        "wide_row = EncoderRow(1 << 6, 0)\n"
        "replay = tableau_module._replay_columns\n"
        "swapped = tableau_module.replay_gates(1, [Gate('h', (0,))])\n"
        "# A replay that misses the tableau must be refused, not passed through.\n"
        "tableau_module._replay_columns = lambda w, gates: replay(w, [])\n"
        "gen = GeneratorPolynomial.from_blocks((Pauli.from_string('XZ'),))\n"
        "calls = [\n"
        "    lambda: Pauli(1, 2, 0),\n"
        "    lambda: Pauli(width=-1),\n"
        "    lambda: GeneratorPolynomial.from_blocks((Pauli(1), Pauli(2))),\n"
        "    lambda: GeneratorPolynomial(0, 0),\n"
        "    lambda: GeneratorPolynomial(1, -1),\n"
        "    lambda: ConvolutionalCode(n=2, k=1, generators=(gen, gen)),\n"
        "    lambda: operators_from_commutativity([0b100010, 0b01], order=range(2)),\n"
        "    lambda: gf2_solve_dot_system([0b1, 0b10], 2, [0]),\n"
        "    lambda: operators_from_commutativity([0b10, 0b01], order=[0, 0]),\n"
        "    lambda: verify_non_recursive(CliffordTableau.identity(4), 2, 1, 1),\n"
        "    lambda: detect_catastrophic(CliffordTableau.identity(4), 2, 1, 1),\n"
        "    lambda: complete_to_clifford(PartialEncoder(no_ops, 1, 0, [wide_row])),\n"
        "    lambda: synthesize_circuit(swapped),\n"
        "    lambda: synthesize_circuit(CliffordTableau(2, [1, 1, 4, 8])),\n"
        "    lambda: PartialEncoder(MemoryOperatorTable(-1, {}, []), 1, 0, []),\n"
        "    lambda: PartialEncoder(no_ops, 1, 2, []),\n"
        "    lambda: PartialEncoder(no_ops, 1, 0, [EncoderRow(1 << 4, 0)]),\n"
        "    lambda: PartialEncoder(no_ops, 1, 0, [EncoderRow(0, -1)]),\n"
        "    lambda: PartialEncoder(0, 2, 1, []),\n"
        "    lambda: PartialEncoder(None, 2, 1, []),\n"
        "    lambda: CliffordTableau(2, [1, 2, 3]),\n"
        "    lambda: CliffordTableau(1, [5, 2]),\n"
        "    lambda: CliffordTableau(1, [-1, 2]),\n"
        "    lambda: Pauli.from_string('XW'),\n"
        "    lambda: MemoryOperatorTable(1, {(1, 1): 1 << 2}, [(1, 1)]),\n"
        "    lambda: replay(2, [Gate('h', (-1,))]),\n"
        "    lambda: replay(2, [Gate('s', (2,))]),\n"
        "    lambda: replay(2, [Gate('cnot', (0, 0))]),\n"
        "    lambda: replay(2, [Gate('cnot', (0,))]),\n"
        "    lambda: replay(2, [Gate('t', (0,))]),\n"
        "    lambda: GeneratorPolynomial(2, 3.0),\n"
        "    lambda: GeneratorPolynomial(1.5, 1.5),\n"
        "    lambda: ConvolutionalCode(2.0, 1, (GeneratorPolynomial(2, 0b0101),)),\n"
        "    lambda: MemoryOperatorTable(1.0, {}, []),\n"
        "    lambda: CentralizerBasis(1.0, []),\n"
        "    lambda: PartialEncoder(no_ops, 2, 1.0, []),\n"
        "    lambda: CliffordTableau(0.0, []),\n"
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
        "InvalidMatrixError",
        "InvalidMatrixError",
        "InvalidMatrixError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "SynthesisFailureError",
        "SynthesisFailureError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "TypeError",
        "TypeError",
        "WidthMismatchError",
        "WidthMismatchError",
        "WidthMismatchError",
        "ParseError",
        "WidthMismatchError",
        "GateError",
        "GateError",
        "GateError",
        "GateError",
        "GateError",
        "TypeError",
        "TypeError",
        "TypeError",
        "TypeError",
        "TypeError",
        "TypeError",
        "TypeError",
    ]


@given(
    st.lists(st.tuples(st.integers(0, 2**5 - 1), st.integers(0, 1)), max_size=8),
)
@example([(0b11, 0), (0b01, 1), (0b10, 0)])  # dependent rows, odd right-hand side
@example([(0b0, 1)])  # a zero row asked for parity 1
def test_grown_echelon_matches_fresh_solves(system):
    # One echelon grown a row at a time answers, after every row, what the
    # fresh solvers answer over the rows so far.
    echelon = TrackedEchelon()
    rows: list = []
    rhs: list = []
    for row, bit in system:
        echelon.add(row, 1 << len(rows))
        rows.append(row)
        rhs.append(bit)
        rhs_mask = sum(b << i for i, b in enumerate(rhs))
        assert echelon.dependencies == gf2_row_dependencies(rows)
        solved = gf2_solve_dot_system(rows, 5, rhs)
        particular = echelon_particular(echelon, rhs_mask)
        assert particular == (None if solved is None else solved[0])
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
    echelon = TrackedEchelon()
    nullspace = {f: 1 << f for f in range(6)}
    rows: list = []
    rhs: list = []
    for row, bit in system:
        before, dependencies = dict(nullspace), len(echelon.dependencies)
        add_to_dot_system(echelon, nullspace, row, 1 << len(rows))
        rows.append(row)
        rhs.append(bit)
        if len(echelon.dependencies) > dependencies:
            assert nullspace == before
        rhs_mask = sum(b << i for i, b in enumerate(rhs))
        particular = echelon_particular(echelon, rhs_mask)
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


@given(st.lists(st.integers(0, 2**8 - 1), max_size=8), st.integers(0, 6))
@example([], 4)  # no rows: every unit word
@example([0, 0b101, 0b101, 0b011], 3)  # a zero row and a repeated row
@example([0b1101, 0b100000, 0b1000], 3)  # rows wider than bits: their high bits drop
def test_annihilator_matches_fresh_solve(rows, bits):
    # The column dependencies are the fully reduced echelon's nullspace
    # basis, vector for vector and in the same order.
    nullspace = gf2_solve_dot_system(rows, bits, [0] * len(rows))[1]
    assert _dependencies(_transpose(rows, bits)) == nullspace


@given(st.lists(st.integers(0, 2**6 - 1), max_size=10))
@example([0b11, 0b11, 0, 0b110, 0b101])  # repeated, zero and dependent vectors
def test_forward_dependencies_match_reduced_echelon(vectors):
    # Forward elimination alone names the same combinations as the fully
    # reduced echelon: each dependent vector with the unique combination of
    # earlier independent ones.
    assert _dependencies(vectors) == gf2_row_dependencies(vectors)


@st.composite
def row_pairs(draw):
    """Width, input words and output words, the outputs often the inputs
    with one entry redrawn, so that a mismatch may come late or never."""
    width = draw(st.integers(1, 3))
    word = st.integers(0, 4**width - 1)
    a = draw(st.lists(word, max_size=7))
    b = list(a)
    if b and draw(st.booleans()):
        b[draw(st.integers(0, len(b) - 1))] = draw(word)
    elif draw(st.booleans()):
        b = draw(st.lists(word, min_size=len(a), max_size=len(a)))
    return width, a, b


@given(row_pairs())
@example((2, [0b0001, 0b0100, 0b0010, 0b1000], [0b0001, 0b0100, 0b0010, 0b0001]))
def test_product_mismatch_matches_pairwise_scan(case):
    width, a, b = case
    expected = next(
        (
            (i, j)
            for i, j in itertools.combinations(range(len(a)), 2)
            if symplectic_product_vec(a[i], a[j], width) != symplectic_product_vec(b[i], b[j], width)
        ),
        None,
    )
    assert _product_mismatch(a, b, width) == expected
