"""Memory synthesis tests: commutativity matrix through added rows."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_code, symmetric_zero_diag
from oracles import (
    backward_matrix_by_blocks,
    centralizer_contains,
    centralizer_vectors,
    encoder_on,
    enumerate_centralizer,
    forward_matrix_by_blocks,
    gram_matrix,
    labelled_cycle_by_enumeration,
    matrix_entries,
    pauli_concat,
    pauli_product,
    row_from_parts,
    row_paulis,
    row_strings,
    symplectic_product,
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
    InvalidCodeError,
    InvalidMatrixError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    Pauli,
    gf2_rank,
    pauli_to_vec,
    swap_halves,
    symplectic_product_vec,
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
    ops = {key: pauli_to_vec(Pauli.from_string(val)) for key, val in strings.items()}
    m = len(next(iter(strings.values())))
    return MemoryOperatorTable(m, ops, index_map)


def row_from_strings(parts):
    return row_from_parts(**{name: Pauli.from_string(text) for name, text in parts.items()})


@pytest.mark.parametrize("name", CORPUS)
def test_commutativity_matrix_matches_reference(name):
    omega = build_commutativity_matrix(load_code(name))
    assert matrix_entries(omega.rows) == OMEGA[name]


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
    fake = MemoryCommutativityMatrix([0b1], [(1, 1)])
    with pytest.raises(InvalidMatrixError):
        minimal_memory(fake)


@pytest.mark.parametrize("name", CORPUS)
def test_assigned_operators_match_reference(name):
    table = assign_memory_operators(build_commutativity_matrix(load_code(name)))
    assert {key: str(table.op(*key)) for key in table.ops} == MEMORY_OPS_DERIVED[name]


@pytest.mark.parametrize("name", CORPUS)
def test_assigned_operators_reproduce_matrix(name):
    omega = build_commutativity_matrix(load_code(name))
    table = assign_memory_operators(omega)
    assert gram_matrix(table.as_list(), table.m) == omega.rows


@pytest.mark.parametrize("name", CORPUS)
def test_published_operator_tables_reproduce_matrix(name):
    # The externally chosen tables are a second, independent realization.
    omega = build_commutativity_matrix(load_code(name))
    table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
    assert gram_matrix(table.as_list(), table.m) == omega.rows


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
        assert encoder.rows == tuple(expected)
        assert encoder.added_rows == ()


def test_assemble_row_shape(running1):
    table = assign_memory_operators(build_commutativity_matrix(running1))
    encoder = assemble_partial_encoder(running1, table)
    assert (encoder.m, encoder.n, encoder.k) == (3, 4, 2)
    assert len(encoder.rows) == 8
    parts = [encoder.parts(row) for row in encoder.rows]
    for idx, row in enumerate(parts):
        i, j = divmod(idx, 4)
        if j == 0:
            assert row["mem_in"].is_identity
            assert str(row["anc_in"]) == ("ZI" if i == 0 else "IZ")
        else:
            assert row["anc_in"].is_identity
            assert row["mem_in"] == table.op(i + 1, j)
        assert row["info_in"].is_identity
        assert row["phys_out"] == running1.generators[i].block(j + 1)
    assert parts[3]["mem_out"].is_identity
    assert parts[7]["mem_out"].is_identity


def test_assemble_rejects_mismatched_table(running1):
    # Identity operators cannot carry running1's anticommutation obligations.
    bogus = MemoryOperatorTable(
        3,
        {(i, j): 0 for i in (1, 2) for j in (1, 2, 3)},
        [(i, j) for i in (1, 2) for j in (1, 2, 3)],
    )
    with pytest.raises(AssemblyError):
        assemble_partial_encoder(running1, bogus)


def test_an_encoder_refuses_rows_wider_than_its_table(running1):
    # running1's rows are laid out on m = 3 memory qubits.  A table of m = 1
    # leaves them 1 + n = 5 qubits, so the encoder refuses them when it is
    # built, before any later stage misreads their qubits.
    encoder = assemble_partial_encoder(
        running1, assign_memory_operators(build_commutativity_matrix(running1))
    )
    narrow = MemoryOperatorTable(1, {}, [])
    with pytest.raises(WidthMismatchError, match="do not fit 5 qubits$"):
        PartialEncoder(narrow, encoder.n, encoder.k, encoder.rows)
    with pytest.raises(WidthMismatchError, match="do not fit 5 qubits$"):
        encoder._replace(memory_ops=narrow)


@pytest.mark.parametrize("word", [-1, 1 << 6, 1 << 9], ids=["negative", "bit-2m", "wider"])
def test_table_refuses_words_that_do_not_fit_its_memory(running1, word):
    # Rows are packed on m + n qubits, so a wider word would spill into the
    # ancilla and z bits of its row; the table refuses it before assembly.
    table = assign_memory_operators(build_commutativity_matrix(running1))
    ops = dict(table.ops)
    ops[1, 1] = word
    with pytest.raises(WidthMismatchError, match=f"^word {word:#x} does not fit 3 memory qubits$"):
        MemoryOperatorTable(table.m, ops, table.index_map)


def test_row_consistency_reports_the_first_offending_pair():
    # Rows 1-3 and 2-3 both disagree; pairs of all_rows are checked in
    # combinations order, so (1, 3) is reported wherever the rows are kept.
    rows = [
        row_from_strings(dict(mem_in="", anc_in="Z", info_in="I", phys_out="ZI", mem_out="")),
        row_from_strings(dict(mem_in="", anc_in="I", info_in="X", phys_out="IZ", mem_out="")),
        row_from_strings(dict(mem_in="", anc_in="I", info_in="Z", phys_out="XI", mem_out="")),
    ]
    with pytest.raises(
        AssemblyError,
        match=r"^rows 1 and 3 disagree: inputs commute but outputs do not match$",
    ):
        encoder_on(0, 2, 1, rows)
    with pytest.raises(AssemblyError, match=r"^rows 1 and 3 disagree"):
        encoder_on(0, 2, 1, rows[:1], rows[1:])
    assert encoder_on(0, 2, 1, rows[:2]).rows == tuple(rows[:2])


def first_disagreeing_pair(shape, rows):
    """The pairwise Pauli-product check the packed one must reproduce, on
    rows read in the layout of the encoder ``shape``."""
    paulis = [row_paulis(shape, row) for row in rows]
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
    want = first_disagreeing_pair(encoder_on(0, 2, 1), rows)
    if want is None:
        encoder_on(0, 2, 1, rows)
        return
    a, b, lhs = want
    with pytest.raises(AssemblyError) as info:
        encoder_on(0, 2, 1, rows)
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
    # The words are the concatenated Paulis, and an encoder of the parts'
    # (m, n, k) reads them back whenever they fit its layout.
    mem_in, anc_in, info_in, phys_out, mem_out = parts
    want_in = pauli_concat(pauli_concat(mem_in, anc_in), info_in)
    want_out = pauli_concat(phys_out, mem_out)
    if want_in.width != want_out.width:
        with pytest.raises(WidthMismatchError):
            row_from_parts(*parts)
        return
    row = row_from_parts(*parts)
    assert (row.inputs, row.outputs) == (pauli_to_vec(want_in), pauli_to_vec(want_out))
    m, k = mem_in.width, info_in.width
    n = anc_in.width + k
    encoder = encoder_on(m, n, k, [row])
    assert encoder.rows == (row,)
    assert list(encoder.parts(row)) == ["mem_in", "anc_in", "info_in", "phys_out", "mem_out"]
    if phys_out.width == n:
        assert list(encoder.parts(row).values()) == parts
    wider = EncoderRow(1 << 2 * (m + n), 0)
    refused = f"^words {wider.inputs:#x}, 0x0 do not fit {m + n} qubits$"
    with pytest.raises(WidthMismatchError, match=refused):
        encoder_on(m, n, k, [row, wider])
    with pytest.raises(WidthMismatchError, match=refused):
        encoder_on(m, n, k, [row], [wider])
    # Both words past the width, on the same bit, are refused too.
    with pytest.raises(WidthMismatchError, match="do not fit"):
        encoder_on(m, n, k, [EncoderRow(wider.inputs, wider.inputs)])


@pytest.mark.parametrize("name", CORPUS)
def test_centralizer_of_published_tables(name):
    table = table_from_strings(MEMORY_OPS_PUBLISHED[name])
    cent = compute_centralizer(table)
    expected = CENTRALIZER_PUBLISHED[name]
    assert len(cent.basis) == len(expected)
    for text in expected:
        assert centralizer_contains(cent, Pauli.from_string(text))
    for b in cent.basis:
        for g in table.as_list():
            assert symplectic_product_vec(b, g, table.m) == 0


@pytest.mark.parametrize("name", CORPUS)
def test_centralizer_of_assigned_tables(name):
    table = assign_memory_operators(build_commutativity_matrix(load_code(name)))
    cent = compute_centralizer(table)
    expected = CENTRALIZER_DERIVED[name]
    assert len(cent.basis) == len(expected)
    for text in expected:
        assert centralizer_contains(cent, Pauli.from_string(text))


@given(symmetric_zero_diag(max_dim=7))
@settings(max_examples=60)
def test_centralizer_words_commute_with_every_operator_word(mat):
    # The basis is independent, every word commutes with every operator
    # word, and it has 2m - rank(operators) elements: the whole centralizer.
    index_map = [(1, j) for j in range(1, len(mat) + 1)]
    table = assign_memory_operators(MemoryCommutativityMatrix(mat, index_map))
    ops = table.as_list()
    cent = compute_centralizer(table)
    m = table.m
    assert cent.m == m
    assert cent.basis == sorted(cent.basis)
    assert all(0 < b < 1 << 2 * m for b in cent.basis)
    assert gf2_rank(cent.basis) == len(cent.basis) == 2 * m - gf2_rank(ops)
    assert all(symplectic_product_vec(b, g, m) == 0 for b in cent.basis for g in ops)


def test_centralizer_enumeration_size(running2):
    table = assign_memory_operators(build_commutativity_matrix(running2))
    cent = compute_centralizer(table)
    elements = enumerate_centralizer(cent)
    assert 1 << len(cent.basis) == 16
    assert len(elements) == 16
    assert len({(e.x, e.z) for e in elements}) == 16
    # Binary-count order with the last basis element toggling fastest;
    # add_noncatastrophic_rows draws its random candidates from this list.
    expected = []
    for picks in itertools.product((0, 1), repeat=len(cent.basis)):
        acc = Pauli.identity(cent.m)
        for bit, b in zip(picks, cent.basis):
            if bit:
                acc = pauli_product(acc, vec_to_pauli(b, cent.m))
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
    assert [row_strings(encoder, row) for row in s1] == S1_ROWS[name]


def test_find_s1_refuses_a_combination_that_breaks_its_conditions():
    # A typed error, not an assert, so the check also holds under python -O.
    # On an assembled encoder only a foreign centralizer reaches it: no S1
    # combination has physical output (find_s1 proves it;
    # tests/test_postconditions.py checks it).
    code = load_code("running2")
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    cent = compute_centralizer(table)
    with pytest.raises(SynthesisFailureError, match="leaves the centralizer"):
        find_s1(encoder, CentralizerBasis(cent.m, []))


@pytest.mark.parametrize("step", [-1, 1], ids=["m-minus-1", "m-plus-1"])
def test_find_s1_refuses_a_centralizer_on_another_memory(monkeypatch, running2, step):
    # A caller's width fault, refused before any elimination; it once
    # surfaced as an S1 combination leaving the centralizer.
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    m = table.m

    def refuse(columns):
        raise AssertionError("columns eliminated")

    monkeypatch.setattr(synth_module, "_dependencies", refuse)
    refused = f"^a centralizer on {m + step} memory qubits, not {m}$"
    with pytest.raises(WidthMismatchError, match=refused):
        find_s1(encoder, CentralizerBasis(m + step, [1]))


def test_find_s1_refuses_an_output_memory_outside_the_given_centralizer():
    # The encoder's rows are consistent, so with the table's centralizer an
    # S1 output memory lies in it whenever the input memory does.  A basis
    # spanning only the S1 input memories passes every input check; on
    # running2 no S1 output memory lies in that span, so the output check
    # refuses the first combination.
    code = load_code("running2")
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    s1 = find_s1(encoder, compute_centralizer(table))
    inputs = [pauli_to_vec(encoder.parts(row)["mem_in"]) for row in s1]
    for row in s1:
        assert gf2_rank(inputs + [pauli_to_vec(encoder.parts(row)["mem_out"])]) > gf2_rank(inputs)
    with pytest.raises(SynthesisFailureError, match="leaves the centralizer"):
        find_s1(encoder, CentralizerBasis(table.m, inputs))


def test_find_s1_refuses_a_hand_built_row_that_hands_on_an_x_memory_part():
    # The memory check is unreachable with the table's own centralizer only
    # for assembled encoders.  Here the table's one operator is Z, and the
    # one row takes ancilla Z to X on the output memory, with no physical
    # output: its X memory part leaves the table's centralizer, span{Z}.
    table = MemoryOperatorTable(1, {(1, 1): 2}, [(1, 1)])
    encoder = PartialEncoder(table, 1, 0, [EncoderRow(8, 2)])
    assert encoder.parts(encoder.rows[0])["mem_out"] == Pauli.from_string("X")
    with pytest.raises(SynthesisFailureError, match="leaves the centralizer"):
        find_s1(encoder, compute_centralizer(table))


@pytest.mark.parametrize("name", ["running2", "gr07-third"])
def test_s1_rows_with_x_outputs_fit_the_encoder_width(name):
    # Assigned operators are Z-only, so pipeline S1 outputs carry no X bits.
    # Swapping each operator's halves keeps omega and gives both S1 rows an
    # X output memory part; the cut between a row's two words must keep
    # those bits out of its input word.
    code = load_code(name)
    table = assign_memory_operators(build_commutativity_matrix(code))
    swapped = table._replace(ops={key: swap_halves(g, table.m) for key, g in table.ops.items()})
    encoder = assemble_partial_encoder(code, swapped)
    s1 = find_s1(encoder, compute_centralizer(swapped))
    w = encoder.width
    assert len(s1) == 2
    assert all(row.outputs & (1 << w) - 1 for row in s1)  # X bits
    assert all(not (row.inputs | row.outputs) >> 2 * w for row in s1)
    assert encoder._replace(added_rows=s1).added_rows == tuple(s1)


@pytest.mark.parametrize("name", CORPUS)
def test_added_rows_match_reference(name):
    code = load_code(name)
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    extended, context = add_noncatastrophic_rows(encoder)
    assert [row_strings(extended, row) for row in extended.added_rows] == ADDED_ROWS_DERIVED[name]
    assert extended.rows == encoder.rows
    assert [row_strings(extended, row) for row in context.s1_rows] == S1_ROWS[name]
    assert tuple(context.s2_rows) == extended.added_rows
    # Each added row maps X on a fresh information qubit to a centralizer
    # element on the output memory, with no physical output.
    centralizer = compute_centralizer(table)
    for row in map(extended.parts, context.s2_rows):
        assert row["phys_out"].is_identity
        assert centralizer_contains(centralizer, row["mem_out"])


def test_added_rows_span_centralizer(running2):
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    extended, context = add_noncatastrophic_rows(encoder)
    cent = compute_centralizer(table)
    m = extended.m
    mem_outs = [extended.parts(row)["mem_out"] for row in context.s1_rows + context.s2_rows]
    vecs = [mem_out.x | (mem_out.z << m) for mem_out in mem_outs]
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
    # The output reaches the first and the last physical qubit, in either half.
    table = assign_memory_operators(build_commutativity_matrix(running2))
    encoder = assemble_partial_encoder(running2, table)
    for phys_out in ("XIII", "IIXI", "IIIZ"):
        leaky = row_from_parts(
            mem_in=Pauli.from_string("ZIIIII"),
            anc_in=Pauli.identity(2),
            info_in=Pauli.from_string("XI"),
            phys_out=Pauli.from_string(phys_out),
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
    encoder = encoder_on(6, 4, 2)
    packed = [
        pauli_to_vec(r["mem_in"]) | pauli_to_vec(r["mem_out"]) << 12
        | pauli_to_vec(r["info_in"]) << 24
        for r in map(encoder.parts, rows)
    ]
    expected = labelled_cycle_by_enumeration(packed, 12)
    assert has_catastrophic_combination(rows, encoder) == expected


def test_greedy_rows_accepted_without_drawing(monkeypatch, running1):
    def refuse(self, *args, **kwargs):
        raise AssertionError("random candidates drawn")

    monkeypatch.setattr(synth_module.random.Random, "sample", refuse)
    encoder = synthesize(running1).encoder
    assert [row_strings(encoder, row) for row in encoder.added_rows] == ADDED_ROWS_DERIVED[
        "running1"
    ]


def test_a_refused_synthesis_counts_every_candidate_set_it_tried():
    # One information qubit, so one centralizer direction to cover: the
    # greedy set and the 238 seeded draws that span the centralizer each
    # leave a catastrophic cycle.
    code = parse_code("n=2\nk=1\nh IZ|XZ|XI|IZ|XZ|IZ|IZ|XI|XZ|IZ|II|XZ|XI\n")
    with pytest.raises(SynthesisFailureError, match="found after 239 candidate sets$"):
        synthesize(code, seed=0)


@pytest.mark.parametrize("name", CORPUS)
def test_synthesize_end_to_end(name):
    code = load_code(name)
    result = synthesize(code)
    assert result.m == M_STATED[name]
    assert matrix_entries(result.omega.rows) == OMEGA[name]
    encoder = result.encoder
    assert [row_strings(encoder, row) for row in encoder.added_rows] == ADDED_ROWS_DERIVED[name]
    degrees = [g.degree for g in code.generators]
    assert len(result.encoder.rows) == sum(degrees)


def test_synthesize_degree_one_code():
    result = synthesize(parse_code("n=2\nk=1\nh ZZ\n"))
    assert result.m == 0
    assert len(result.encoder.rows) == 1
    assert result.encoder.added_rows == ()
    row = result.encoder.parts(result.encoder.rows[0])
    assert str(row["phys_out"]) == "ZZ"
    assert str(row["anc_in"]) == "Z"


def test_synthesize_rejects_invalid_code():
    with pytest.raises(InvalidCodeError):
        synthesize(parse_code(INVALID_TEXT))


def test_verify_consistency_reads_a_disagreeing_backward_matrix(monkeypatch, running1):
    # Corrupt the backward accumulation so that it disagrees with the forward
    # matrix on a valid code: the independent route reports it.  synthesize
    # reads no backward matrix: its docstring proves the two equal, and
    # tests/test_postconditions.py checks them.
    forward = build_commutativity_matrix(running1).rows
    expected = synthesize(running1)
    monkeypatch.setattr(synth_module, "_backward_matrix", lambda code: [0] * len(forward))
    assert verify_consistency(running1) == 0
    assert synthesize(running1) == expected


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
