"""Memory synthesis tests: commutativity matrix through added rows."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_code
from oracles import (
    backward_matrix_by_blocks,
    centralizer_contains,
    centralizer_vectors,
    enumerate_centralizer,
    forward_matrix_by_blocks,
    labelled_cycle_by_enumeration,
    row_from_parts,
    row_paulis,
    violations_by_blocks,
)
from qconvenc.code import (
    ConvolutionalCode,
    GeneratorPolynomial,
    delay_generator,
    multiply_generators,
    parse_code,
    validate_code,
)
import qconvenc.synth as synth_module
from qconvenc.errors import (
    AssemblyError,
    ConsistencyError,
    InvalidCodeError,
    InvalidMatrixError,
    QconvError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    BinaryMatrix,
    Pauli,
    gram_matrix,
    pauli_to_vec,
    symplectic_product,
    vec_to_pauli,
)
from qconvenc.synth import (
    CentralizerBasis,
    EncoderRow,
    MemoryCommutativityMatrix,
    MemoryOperatorTable,
    PartialEncoder,
    add_noncatastrophic_rows,
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    compute_centralizer,
    find_s1,
    has_catastrophic_combination,
    minimal_memory,
    synthesize,
    verify_consistency,
)
from reference_data import (
    ADDED_ROWS_DERIVED,
    CENTRALIZER_DERIVED,
    CENTRALIZER_PUBLISHED,
    CORPUS,
    ENCODER_PUBLISHED,
    MEMORY_OPS_DERIVED,
    M_STATED,
    MEMORY_OPS_PUBLISHED,
    OMEGA,
    S1_ROWS,
)

INVALID_TEXT = "n=3\nk=1\nh XII\nh ZII\n"


def table_from_strings(strings):
    index_map = sorted(strings)
    ops = {key: Pauli.from_string(val) for key, val in strings.items()}
    m = len(next(iter(strings.values())))
    return MemoryOperatorTable(m, ops, index_map)


def row_from_strings(parts):
    return row_from_parts(**{name: Pauli.from_string(text) for name, text in parts.items()})


@pytest.mark.parametrize("name", CORPUS)
def test_commutativity_matrix_matches_reference(name):
    omega = build_commutativity_matrix(load_code(name))
    assert omega.matrix.to_lists() == OMEGA[name]


def test_commutativity_index_map_order(running1):
    omega = build_commutativity_matrix(running1)
    assert omega.index_map == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


def test_commutativity_rejects_invalid_code():
    with pytest.raises(InvalidCodeError):
        build_commutativity_matrix(parse_code(INVALID_TEXT))


@pytest.mark.parametrize("name", CORPUS)
def test_forward_backward_consistency(name):
    assert verify_consistency(load_code(name)) == 1


def test_consistency_zero_for_invalid_code():
    assert verify_consistency(parse_code(INVALID_TEXT)) == 0


@pytest.mark.parametrize("name", CORPUS)
def test_minimal_memory(name):
    omega = build_commutativity_matrix(load_code(name))
    assert minimal_memory(omega) == M_STATED[name]


def test_minimal_memory_rejects_odd_rank():
    fake = MemoryCommutativityMatrix(BinaryMatrix.from_lists([[1]], 1), [(1, 1)])
    with pytest.raises(InvalidMatrixError):
        minimal_memory(fake)


@pytest.mark.parametrize("name", CORPUS)
def test_assigned_operators_match_reference(name):
    table = assign_memory_operators(build_commutativity_matrix(load_code(name)))
    assert {key: str(op) for key, op in table.ops.items()} == MEMORY_OPS_DERIVED[name]


@pytest.mark.parametrize("name", CORPUS)
def test_assigned_operators_reproduce_matrix(name):
    omega = build_commutativity_matrix(load_code(name))
    table = assign_memory_operators(omega)
    assert gram_matrix(table.as_list()).rows == omega.matrix.rows


@pytest.mark.parametrize("name", CORPUS)
def test_published_operator_tables_reproduce_matrix(name):
    # The externally chosen tables are a second, independent realization.
    omega = build_commutativity_matrix(load_code(name))
    table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
    assert gram_matrix(table.as_list()).rows == omega.matrix.rows


def test_assign_empty_matrix():
    code = parse_code("n=2\nk=1\nh ZZ\n")
    omega = build_commutativity_matrix(code)
    assert omega.dim == 0
    table = assign_memory_operators(omega)
    assert table.m == 0
    assert table.ops == {}


def test_assemble_rows_match_published_tables(running1, running2):
    for name, code in (("running1", running1), ("running2", running2)):
        table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
        encoder = assemble_partial_encoder(code, table)
        expected = [row_from_strings(parts) for parts in ENCODER_PUBLISHED[name]]
        assert encoder.rows == expected
        assert encoder.added_rows == []


def test_assemble_row_shape(running1):
    table = assign_memory_operators(build_commutativity_matrix(running1))
    encoder = assemble_partial_encoder(running1, table)
    assert (encoder.m, encoder.n, encoder.k) == (3, 4, 2)
    assert len(encoder.rows) == 8
    for idx, row in enumerate(encoder.rows):
        i, j = divmod(idx, 4)
        if j == 0:
            assert row.mem_in.is_identity
            assert str(row.anc_in) == ("ZI" if i == 0 else "IZ")
        else:
            assert row.anc_in.is_identity
            assert row.mem_in == table.op(i + 1, j)
        assert row.info_in.is_identity
        assert row.phys_out == running1.generators[i].block(j + 1)
    assert encoder.rows[3].mem_out.is_identity
    assert encoder.rows[7].mem_out.is_identity


def test_assemble_rejects_mismatched_table(running1):
    # Identity operators cannot carry running1's anticommutation obligations.
    bogus = MemoryOperatorTable(
        3,
        {(i, j): Pauli.identity(3) for i in (1, 2) for j in (1, 2, 3)},
        [(i, j) for i in (1, 2) for j in (1, 2, 3)],
    )
    with pytest.raises(AssemblyError):
        assemble_partial_encoder(running1, bogus)


def test_assembly_refuses_memory_operators_of_another_width(running1):
    # Rows are packed on m + n qubits, so a wider operator would spill into
    # the ancilla and z bits instead of widening its row.
    table = assign_memory_operators(build_commutativity_matrix(running1))
    wide = {key: op.concat(Pauli.identity(1)) for key, op in table.ops.items()}
    with pytest.raises(WidthMismatchError, match="^encoder rows are not all 7 qubits wide$"):
        assemble_partial_encoder(running1, MemoryOperatorTable(table.m, wide, table.index_map))


def test_row_consistency_reports_the_first_offending_pair():
    # Rows 1-3 and 2-3 both disagree; pairs are checked in combinations
    # order, so (1, 3) is reported.
    rows = [
        row_from_strings(dict(mem_in="", anc_in="Z", info_in="I", phys_out="ZI", mem_out="")),
        row_from_strings(dict(mem_in="", anc_in="I", info_in="X", phys_out="IZ", mem_out="")),
        row_from_strings(dict(mem_in="", anc_in="I", info_in="Z", phys_out="XI", mem_out="")),
    ]
    with pytest.raises(
        AssemblyError,
        match=r"^rows 1 and 3 disagree: inputs commute but outputs do not match$",
    ):
        synth_module._check_row_consistency(rows)
    synth_module._check_row_consistency(rows[:2])


def first_disagreeing_pair(rows):
    """The pairwise Pauli-product check the packed one must reproduce."""
    paulis = [row_paulis(row) for row in rows]
    for a, b in itertools.combinations(range(len(rows)), 2):
        lhs = symplectic_product(paulis[a][0], paulis[b][0])
        rhs = symplectic_product(paulis[a][1], paulis[b][1])
        if lhs != rhs:
            return a, b, lhs
    return None


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=6))
def test_row_consistency_matches_pairwise_products(words):
    # Width-2 rows: one ancilla and one information qubit in, two physical
    # qubits out, no memory.
    def row(anc, info, phys_x, phys_z):
        return row_from_parts(
            Pauli.identity(0),
            Pauli(1, anc & 1, anc >> 1),
            Pauli(1, info & 1, info >> 1),
            Pauli(2, phys_x, phys_z),
            Pauli.identity(0),
        )

    rows = [row(*w) for w in words]
    want = first_disagreeing_pair(rows)
    if want is None:
        synth_module._check_row_consistency(rows)
        return
    a, b, lhs = want
    with pytest.raises(AssemblyError) as info:
        synth_module._check_row_consistency(rows)
    assert str(info.value) == (
        f"rows {a + 1} and {b + 1} disagree: inputs "
        f"{'anticommute' if lhs else 'commute'} but outputs do not match"
    )


@st.composite
def pauli_on(draw, width):
    return Pauli(width, draw(st.integers(0, 2**width - 1)), draw(st.integers(0, 2**width - 1)))


@st.composite
def row_parts(draw):
    # Half the part lists fit an (m, n, k) encoder; the others take each
    # part's width at random, so input and output widths often differ.
    m, s, k = (draw(st.integers(0, 3)) for _ in range(3))
    widths = [m, s, k, s + k, m]
    if draw(st.booleans()):
        widths = [draw(st.integers(0, 3)) for _ in widths]
    return [draw(pauli_on(width)) for width in widths]


@given(row_parts())
@example([Pauli.from_string(text) for text in ("Z", "Y", "X", "XZ", "Y")])
@example([Pauli.from_string(text) for text in ("Z", "I", "X", "XZ", "YY")])
@settings(max_examples=150)
def test_row_words_match_the_concatenated_paulis(parts):
    # The words are the concatenated Paulis, and the properties read the
    # parts back whenever they fit the row's (m, n, k) layout.
    mem_in, anc_in, info_in, phys_out, mem_out = parts
    want_in, want_out = mem_in.concat(anc_in).concat(info_in), phys_out.concat(mem_out)
    if want_in.width != want_out.width:
        with pytest.raises(WidthMismatchError):
            row_from_parts(*parts)
        return
    row = row_from_parts(*parts)
    assert (row.inputs, row.outputs) == (pauli_to_vec(want_in), pauli_to_vec(want_out))
    m, k = mem_in.width, info_in.width
    n = anc_in.width + k
    assert row[:3] == (m, n, k)
    if phys_out.width == n:
        assert [row.mem_in, row.anc_in, row.info_in, row.phys_out, row.mem_out] == parts
    assert synth_module._encoder_words([row], m + n) == ([row.inputs], [row.outputs])
    with pytest.raises(WidthMismatchError, match=f"^a row maps {m + n} to {m + n} qubits in a"):
        synth_module._encoder_words([row], m + n + 1)
    synth_module._check_row_consistency([row])
    wider = EncoderRow(m + 1, n, k, 0, 0)
    with pytest.raises(WidthMismatchError, match=f"^encoder rows are not all {m + n} qubits wide$"):
        synth_module._check_row_consistency([row, wider])


@pytest.mark.parametrize("name", CORPUS)
def test_centralizer_of_published_tables(name):
    table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
    cent = compute_centralizer(table)
    expected = CENTRALIZER_PUBLISHED[name]
    assert len(cent.basis) == len(expected)
    for text in expected:
        assert centralizer_contains(cent, Pauli.from_string(text))
    for op in cent.basis:
        for g in table.as_list():
            assert (op.x & g.z).bit_count() % 2 == (op.z & g.x).bit_count() % 2


@pytest.mark.parametrize("name", CORPUS)
def test_centralizer_of_assigned_tables(name):
    table = assign_memory_operators(build_commutativity_matrix(load_code(name)))
    cent = compute_centralizer(table)
    expected = CENTRALIZER_DERIVED[name]
    assert len(cent.basis) == len(expected)
    for text in expected:
        assert centralizer_contains(cent, Pauli.from_string(text))


def test_centralizer_enumeration_size(running2):
    table = assign_memory_operators(build_commutativity_matrix(running2))
    cent = compute_centralizer(table)
    elements = enumerate_centralizer(cent)
    assert len(cent) == 16
    assert len(elements) == 16
    assert len({(e.x, e.z) for e in elements}) == 16
    # Binary-count order with the last basis element toggling fastest;
    # add_noncatastrophic_rows draws its random candidates from this list.
    expected = []
    for picks in itertools.product((0, 1), repeat=len(cent.basis)):
        acc = Pauli.identity(cent.m)
        for bit, op in zip(picks, cent.basis):
            if bit:
                acc = acc * op
        expected.append(acc)
    assert elements == expected
    assert centralizer_vectors(cent) == [pauli_to_vec(e) for e in expected]


@pytest.mark.parametrize("name", CORPUS)
def test_zero_output_row_combinations(name):
    code = load_code(name)
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    cent = compute_centralizer(table)
    s1 = find_s1(encoder, cent)
    assert [row.as_strings() for row in s1] == S1_ROWS[name]


def test_find_s1_refuses_a_combination_that_breaks_its_conditions(monkeypatch):
    # Typed errors, not asserts, so the checks also hold under python -O.
    code = load_code("running2")
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    cent = compute_centralizer(table)
    with pytest.raises(SynthesisFailureError, match="leaves the centralizer"):
        find_s1(encoder, CentralizerBasis(cent.m, []))
    monkeypatch.setattr(synth_module, "_annihilator", lambda rows, bits: [1])  # row 1 alone
    with pytest.raises(SynthesisFailureError, match="physical output"):
        find_s1(encoder, cent)


def test_find_s1_refuses_inconsistent_rows_whose_output_memory_leaves_the_centralizer():
    # Only consistent rows carry a centralizer input memory into a centralizer
    # output memory.  An identity-input row with a memory output that
    # anticommutes with a memory operator is inconsistent, and alone it is an
    # S1 combination by the input constraints.
    code = load_code("running2")
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    cent = compute_centralizer(table)
    ops = table.as_list()
    outside = next(g for g in ops if any(symplectic_product(g, h) for h in ops))
    m, n, k = encoder.m, encoder.n, encoder.k
    stray = row_from_parts(
        Pauli.identity(m), Pauli.identity(n - k), Pauli.identity(k), Pauli.identity(n), outside
    )
    inconsistent = PartialEncoder(m, n, k, encoder.rows + [stray], memory_ops=table)
    with pytest.raises(SynthesisFailureError, match="leaves the centralizer"):
        find_s1(inconsistent, cent)


@pytest.mark.parametrize("name", CORPUS)
def test_added_rows_match_reference(name):
    code = load_code(name)
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    extended, context = add_noncatastrophic_rows(encoder)
    assert [row.as_strings() for row in extended.added_rows] == ADDED_ROWS_DERIVED[name]
    assert extended.rows == encoder.rows
    assert [row.as_strings() for row in context.s1_rows] == S1_ROWS[name]
    assert [str(p) for p in context.basis_m] == [
        parts["mem_out"] for parts in ADDED_ROWS_DERIVED[name]
    ]


def test_added_rows_span_centralizer(running2):
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    extended, context = add_noncatastrophic_rows(encoder)
    cent = context.centralizer
    m = extended.m
    vecs = [
        row.mem_out.x | (row.mem_out.z << m)
        for row in context.s1_rows + context.s2_rows
    ]
    from qconvenc.pauli import gf2_rank

    assert gf2_rank(vecs) == len(cent.basis)


def test_catastrophic_combination_detects_logical_self_loop(running2):
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    bad = row_from_parts(
        mem_in=Pauli.from_string("ZIIIII"),
        anc_in=Pauli.identity(2),
        info_in=Pauli.from_string("XI"),
        phys_out=Pauli.identity(4),
        mem_out=Pauli.from_string("ZIIIII"),
    )
    assert has_catastrophic_combination([bad], encoder) is True
    assert has_catastrophic_combination([], encoder) is False


def test_catastrophic_combination_refuses_a_row_with_physical_output(running2):
    # A typed error, not an assert, so the check also holds under python -O.
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    leaky = row_from_parts(
        mem_in=Pauli.from_string("ZIIIII"),
        anc_in=Pauli.identity(2),
        info_in=Pauli.from_string("XI"),
        phys_out=Pauli.from_string("IIXI"),
        mem_out=Pauli.from_string("ZIIIII"),
    )
    with pytest.raises(AssemblyError, match="physical output"):
        has_catastrophic_combination([leaky], encoder)


@st.composite
def zero_physical_rows(draw):
    # Rows on m = 6 memory qubits and k = 2 information qubits (n = 4).
    # Memory words on the low three bits, so spans overlap and cycles are common.
    mem = st.integers(0, 7).map(lambda vec: vec_to_pauli(vec, 6))
    info = st.integers(0, 15).map(lambda vec: vec_to_pauli(vec, 2))
    return [
        row_from_parts(draw(mem), Pauli.identity(2), draw(info), Pauli.identity(4), draw(mem))
        for _ in range(draw(st.integers(0, 6)))
    ]


@given(zero_physical_rows())
@settings(max_examples=60)
def test_catastrophic_combination_matches_enumeration(rows):
    encoder = PartialEncoder(m=6, n=4, k=2, rows=[])
    packed = [
        pauli_to_vec(r.mem_in) | pauli_to_vec(r.mem_out) << 12 | pauli_to_vec(r.info_in) << 24
        for r in rows
    ]
    expected = labelled_cycle_by_enumeration(packed, 12)
    assert has_catastrophic_combination(rows, encoder) == expected


def test_greedy_rows_accepted_without_drawing(monkeypatch, running1):
    def refuse(self, *args, **kwargs):
        raise AssertionError("random candidates drawn")

    monkeypatch.setattr(synth_module.random.Random, "sample", refuse)
    result = synthesize(running1)
    assert [row.as_strings() for row in result.encoder.added_rows] == ADDED_ROWS_DERIVED[
        "running1"
    ]


@pytest.mark.parametrize("name", CORPUS)
def test_synthesize_end_to_end(name):
    result = synthesize(load_code(name))
    assert result.m == M_STATED[name]
    assert result.omega.matrix.to_lists() == OMEGA[name]
    assert [row.as_strings() for row in result.encoder.added_rows] == ADDED_ROWS_DERIVED[
        name
    ]
    degrees = [g.degree for g in result.code.generators]
    assert len(result.encoder.rows) == sum(degrees)


def test_synthesize_degree_one_code():
    result = synthesize(parse_code("n=2\nk=1\nh ZZ\n"))
    assert result.m == 0
    assert len(result.encoder.rows) == 1
    assert result.encoder.added_rows == []
    row = result.encoder.rows[0]
    assert str(row.phys_out) == "ZZ"
    assert str(row.anc_in) == "Z"


def test_synthesize_rejects_invalid_code():
    with pytest.raises(InvalidCodeError):
        synthesize(parse_code(INVALID_TEXT))


def test_synthesize_raises_typed_error_when_cross_check_fails(monkeypatch, running1):
    # Corrupt the backward accumulation so the cross-check disagrees with the
    # forward matrix on a valid code.
    forward = build_commutativity_matrix(running1).matrix
    monkeypatch.setattr(
        synth_module,
        "_backward_matrix",
        lambda code: BinaryMatrix([0] * forward.nrows, forward.ncols),
    )
    assert verify_consistency(running1) == 0
    with pytest.raises(ConsistencyError) as info:
        synthesize(running1)
    assert isinstance(info.value, QconvError)


@st.composite
def streamed_codes(draw):
    """Codes with n <= 5 and degree <= 5, valid or not.

    Half are random streams, mostly invalid.  The other half are corpus
    codes with n <= 5, their qubits permuted, X and Z exchanged on some
    qubits (a frame-wise symplectic map) and g1 <- g1 * D^d g2 for d <= 1,
    which keeps them valid.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 5))
        k = draw(st.integers(1, n - 1))
        word = st.integers(0, (1 << n) - 1)
        gens = [
            GeneratorPolynomial.from_blocks(
                tuple(Pauli(n, draw(word), draw(word)) for _ in range(draw(st.integers(1, 5))))
            )
            for _ in range(n - k)
        ]
        return ConvolutionalCode(n, k, tuple(gens))
    code = load_code(draw(st.sampled_from([name for name in CORPUS if name != "forney8"])))
    n = code.n
    perm = draw(st.permutations(range(n)))
    flip = draw(st.integers(0, (1 << n) - 1))

    def move(p):
        x = sum(((p.x >> q) & 1) << perm[q] for q in range(n))
        z = sum(((p.z >> q) & 1) << perm[q] for q in range(n))
        return Pauli(n, x ^ ((x ^ z) & flip), z ^ ((x ^ z) & flip))

    gens = [GeneratorPolynomial.from_blocks(tuple(move(b) for b in g.blocks)) for g in code.generators]
    g1 = multiply_generators(gens[0], delay_generator(gens[1], draw(st.integers(0, 1))))
    if g1.degree <= 5 and not g1.is_identity:
        gens[0] = g1
    return ConvolutionalCode(n, code.k, tuple(gens))


@given(streamed_codes())
@settings(max_examples=150)
def test_shifted_products_match_block_oracle(code):
    # Stream-word parities against block-by-block symplectic products.
    assert validate_code(code).violations == violations_by_blocks(code)
    assert synth_module._forward_matrix(code) == forward_matrix_by_blocks(code)
    assert synth_module._backward_matrix(code) == backward_matrix_by_blocks(code)
