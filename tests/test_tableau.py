"""Tableau completion, circuit extraction, and state-diagram analysis tests."""

import hashlib
import json
import random
from functools import lru_cache
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qconvenc.synth as synth_module
import qconvenc.tableau as tableau_module
from conftest import load_code, shift_invariant_codes
from oracles import (
    _edge,
    _input_vec,
    apply_gate,
    complete_to_clifford_reference,
    cycle_core_by_annihilators,
    cycle_witness_by_enumeration,
    encoder_on,
    escape_path_by_enumeration,
    gf2_in_rowspan,
    gf2_solve_dot_system,
    image_of_pauli,
    is_symplectic_pairwise,
    loop_vertices,
    pauli_concat,
    pauli_product,
    replay_rows,
    row_from_parts,
    row_paulis,
    row_strings,
    synthesize_circuit_reference,
    zero_physical_graph,
)
from qconvenc.code import (
    ConvolutionalCode,
    GeneratorPolynomial,
    delay_generator,
    multiply_generators,
    parse_code,
)
from qconvenc.errors import (
    AssemblyError,
    CompletionError,
    GateError,
    MemoryBoundError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import (
    Pauli,
    cycle_core,
    gf2_basis,
    gf2_combination,
    gf2_rank,
    gf2_span,
    pauli_to_vec,
    swap_halves,
    symplectic_product_vec,
    vec_to_pauli,
)
from qconvenc.shorten import shorten
from qconvenc.synth import (
    EncoderRow,
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    compute_centralizer,
    has_catastrophic_combination,
    synthesize,
)
from qconvenc.tableau import (
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
    CATASTROPHIC_CONTROL,
    COMPLETION_CIRCUIT_DIGEST,
    CORPUS,
    FORNEY8_D5_PARTIAL_CYCLE_WITNESS,
    INFLATED_SYNTHESIS_DIGEST,
    RANDOM_COMPLETION_DIGEST,
    RUNNING2_PARTIAL_CYCLE_WITNESSES,
    STATE_DIAGRAM_DIGEST,
)


@lru_cache(maxsize=None)
def pipeline(name):
    result = synthesize(load_code(name))
    return result, complete_to_clifford(result.encoder)


def control_tableau():
    m, n = CATASTROPHIC_CONTROL["m"], CATASTROPHIC_CONTROL["n"]
    width = m + n
    images = [0] * (2 * width)
    # Declared input order is X_mem, Z_mem, X_info, Z_info; the tableau wants
    # all X images first.
    slots = [0, width + 0, 1, width + 1]
    for slot, (phys, mem) in zip(slots, CATASTROPHIC_CONTROL["images"]):
        out = pauli_concat(Pauli.from_string(phys), Pauli.from_string(mem))
        images[slot] = pauli_to_vec(out)
    tableau = CliffordTableau(width, images)
    assert is_symplectic_pairwise(tableau)
    return tableau


def random_gates(width, rng, count=30):
    gates = []
    for _ in range(count):
        kind = rng.choice(["h", "s", "cnot", "cz"] if width > 1 else ["h", "s"])
        if kind in ("h", "s"):
            gates.append(Gate(kind, (rng.randrange(width),)))
        else:
            gates.append(Gate(kind, tuple(rng.sample(range(width), 2))))
    return gates


def random_tableau(width, rng):
    tableau = CliffordTableau.identity(width)
    for gate in random_gates(width, rng):
        tableau = apply_gate(tableau, gate)
    return tableau


def test_vec_roundtrip():
    p = Pauli.from_string("XYZI")
    assert vec_to_pauli(pauli_to_vec(p), 4) == p


def test_identity_tableau():
    t = CliffordTableau.identity(3)
    assert t.images == tuple(1 << q for q in range(6))
    assert is_symplectic_pairwise(t)
    p = Pauli.from_string("XYZ")
    assert image_of_pauli(t, p) == p


def test_tableau_rejects_wrong_image_count():
    with pytest.raises(WidthMismatchError, match="needs 4 images, got 3"):
        CliffordTableau(2, [1, 2, 3])


def test_hadamard_action():
    t = replay_gates(1, [Gate("h", (0,))])
    assert image_of_pauli(t, Pauli.from_string("X")) == Pauli.from_string("Z")
    assert image_of_pauli(t, Pauli.from_string("Z")) == Pauli.from_string("X")


def test_phase_action():
    t = replay_gates(1, [Gate("s", (0,))])
    assert image_of_pauli(t, Pauli.from_string("X")) == Pauli.from_string("Y")
    assert image_of_pauli(t, Pauli.from_string("Z")) == Pauli.from_string("Z")


def test_cnot_action():
    t = replay_gates(2, [Gate("cnot", (0, 1))])
    images = {
        "XI": "XX",
        "IX": "IX",
        "ZI": "ZI",
        "IZ": "ZZ",
    }
    for src, dst in images.items():
        assert image_of_pauli(t, Pauli.from_string(src)) == Pauli.from_string(dst)


def test_cz_action():
    t = replay_gates(2, [Gate("cz", (0, 1))])
    images = {
        "XI": "XZ",
        "IX": "ZX",
        "ZI": "ZI",
        "IZ": "IZ",
    }
    for src, dst in images.items():
        assert image_of_pauli(t, Pauli.from_string(src)) == Pauli.from_string(dst)


@pytest.mark.parametrize("kind,qubits", [("h", (0,)), ("s", (0,)), ("cnot", (0, 1)), ("cz", (0, 1))])
def test_gates_are_involutions(kind, qubits):
    rng = random.Random(7)
    gates = random_gates(3, rng)
    twice = gates + [Gate(kind, qubits)] * 2
    assert replay_gates(3, twice) == replay_gates(3, gates) == replay_rows(3, twice)


def test_unknown_gate_kind():
    with pytest.raises(GateError):
        replay_gates(1, [Gate("t", (0,))])
    with pytest.raises(ValueError):
        apply_gate(CliffordTableau.identity(1), Gate("t", (0,)))


def test_gate_as_json():
    # The report writes a gate's fields; its qubit tuple renders as a list.
    text = json.dumps(Gate("cnot", (2, 5))._asdict())
    assert json.loads(text) == {"kind": "cnot", "qubits": [2, 5]}


def test_image_respects_products():
    rng = random.Random(11)
    t = random_tableau(4, rng)
    a = Pauli.from_string("XYIZ")
    b = Pauli.from_string("IZZX")
    image = image_of_pauli(t, pauli_product(a, b))
    assert image == pauli_product(image_of_pauli(t, a), image_of_pauli(t, b))


def test_complete_empty_encoder_is_identity():
    empty = encoder_on(1, 0, 0)
    assert complete_to_clifford(empty, seed=0) == CliffordTableau.identity(1)


@pytest.mark.parametrize("name", CORPUS)
def test_completion_extends_rows_exactly(name):
    result, tableau = pipeline(name)
    assert tableau.width == result.encoder.width
    assert is_symplectic_pairwise(tableau)
    for row in result.encoder.all_rows:
        want_in, want_out = row_paulis(result.encoder, row)
        assert image_of_pauli(tableau, want_in) == want_out


@settings(max_examples=60, deadline=None)
@given(shift_invariant_codes(min_generators=3), st.integers(0, 3))
def test_completions_of_generated_partial_encoders_map_every_given_row(code, seed):
    # complete_to_clifford no longer re-checks its tableau; its proof is in
    # its docstring.  Partial encoders carry no added rows, so every
    # generated code reaches one.
    code = shorten(code).output_code
    table = assign_memory_operators(build_commutativity_matrix(code))
    encoder = assemble_partial_encoder(code, table)
    tableau = complete_to_clifford(encoder, seed=seed)
    assert is_symplectic_pairwise(tableau)
    for row in encoder.all_rows:
        assert tableau.image_of_vector(row.inputs) == row.outputs


def test_completion_row_counts(running1, running2):
    r1 = synthesize(running1)
    assert len(r1.encoder.all_rows) == 8
    assert complete_to_clifford(r1.encoder).width == 7
    r2 = synthesize(running2)
    assert len(r2.encoder.all_rows) == 12
    assert complete_to_clifford(r2.encoder).width == 10


def test_seeded_completions_agree_on_rows(running1):
    result = synthesize(running1)
    base = complete_to_clifford(result.encoder, seed=0)
    variants = [complete_to_clifford(result.encoder, seed=s) for s in (1, 2, 3)]
    for tab in variants:
        assert is_symplectic_pairwise(tab)
        for row in result.encoder.all_rows:
            want_in, want_out = row_paulis(result.encoder, row)
            assert image_of_pauli(tab, want_in) == want_out
    assert any(tab != base for tab in variants)


def test_completion_rejects_dependent_rows():
    row = row_from_parts(
        mem_in=Pauli.identity(0),
        anc_in=Pauli.from_string("Z"),
        info_in=Pauli.identity(1),
        phys_out=Pauli.from_string("ZZ"),
        mem_out=Pauli.identity(0),
    )
    encoder = encoder_on(0, 2, 1, [row, row])
    with pytest.raises(CompletionError, match="dependent"):
        complete_to_clifford(encoder)


def test_completion_rejects_inconsistent_rows():
    # The encoder refuses them when it is built, so no completion sees them.
    row_a = row_from_parts(
        mem_in=Pauli.identity(0),
        anc_in=Pauli.from_string("Z"),
        info_in=Pauli.identity(1),
        phys_out=Pauli.from_string("XI"),
        mem_out=Pauli.identity(0),
    )
    row_b = row_from_parts(
        mem_in=Pauli.identity(0),
        anc_in=Pauli.identity(1),
        info_in=Pauli.from_string("X"),
        phys_out=Pauli.from_string("ZI"),
        mem_out=Pauli.identity(0),
    )
    with pytest.raises(
        AssemblyError, match="^rows 1 and 2 disagree: inputs commute but outputs do not match$"
    ):
        encoder_on(0, 2, 1, [row_a, row_b])


# The ancilla Z of a one-qubit encoder mapped to the identity.
Z_TO_IDENTITY = row_from_parts(
    mem_in=Pauli.identity(0),
    anc_in=Pauli.from_string("Z"),
    info_in=Pauli.identity(0),
    phys_out=Pauli.from_string("I"),
    mem_out=Pauli.identity(0),
)


def test_completion_rejects_a_row_mapped_to_the_identity():
    # No image of X can anticommute with Z's image I: the commutation
    # system for the new direction is inconsistent.  A typed error, also
    # under python -O.
    encoder = encoder_on(0, 1, 0, [Z_TO_IDENTITY])
    with pytest.raises(CompletionError, match="not jointly symplectic"):
        complete_to_clifford(encoder)


@st.composite
def consistent_partial_encoders(draw):
    """(m, n, k, rows, seed): rows a random tableau maps, so every pair of
    them has the same products on both sides, and a completion seed.

    The rows are a random subset of the tableau's unit inputs and their
    images, in random order, then up to two combinations of inputs with
    their images, which may depend on the rows before them."""
    width = draw(st.integers(1, 6))
    m = draw(st.integers(0, width - 1))
    k = draw(st.integers(0, width - m))
    tableau = random_tableau(width, random.Random(draw(st.integers(0, 2**32 - 1))))
    units = draw(st.lists(st.integers(0, 2 * width - 1), unique=True, max_size=2 * width))
    inputs = [1 << t for t in units]
    inputs += draw(st.lists(st.integers(1, (1 << 2 * width) - 1), max_size=2))
    seed = draw(st.just(0) | st.integers(1, 2**16))
    return m, width - m, k, [EncoderRow(v, tableau.image_of_vector(v)) for v in inputs], seed


@settings(max_examples=200, deadline=None)
@given(consistent_partial_encoders())
@example((0, 1, 0, [Z_TO_IDENTITY], 0))
@example((0, 1, 0, [Z_TO_IDENTITY], 7))
# Seed 0's particular solution lies in the output span here, so the scan
# goes on to a nullspace vector read off a reduced row.
@example((1, 1, 0, [EncoderRow(0b0010, 0b1111)], 0))
@example((1, 1, 0, [EncoderRow(0b1000, 0b1100)], 0))
def test_completion_matches_the_reference_oracle(case):
    # Same tableau, or same CompletionError message, as the completion on
    # tagged echelons: every choice and rng draw is the reference's.
    m, n, k, rows, seed = case
    encoder = encoder_on(m, n, k, rows)
    outcomes = []
    for complete in (complete_to_clifford, complete_to_clifford_reference):
        try:
            outcomes.append(complete(encoder, seed))
        except CompletionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if rows == [Z_TO_IDENTITY]:
        assert "not jointly symplectic" in outcomes[0]


NOT_JOINTLY_SYMPLECTIC = (
    "no independent image for a new input direction; given rows are not jointly symplectic"
)


@pytest.mark.parametrize("seed", range(3))
def test_dependent_outputs_are_refused_before_any_direction_is_solved(monkeypatch, seed):
    # Z_1 -> I on two ancillas: X_0 commutes with Z_1 and has images, X_1
    # has none.  The refusal comes as the rows are read, so no direction is
    # solved first, whichever the seed draws.
    row = row_from_parts(
        mem_in=Pauli.identity(0),
        anc_in=Pauli.from_string("IZ"),
        info_in=Pauli.identity(0),
        phys_out=Pauli.from_string("II"),
        mem_out=Pauli.identity(0),
    )
    calls = []
    solve = tableau_module._not_in_span_solution

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(tableau_module, "_not_in_span_solution", counted)
    with pytest.raises(CompletionError, match=f"^{NOT_JOINTLY_SYMPLECTIC}$"):
        complete_to_clifford(encoder_on(0, 2, 0, [row]), seed=seed)
    assert calls == []


@st.composite
def encoders_with_a_row_mapped_to_the_identity(draw):
    """(encoder, independent): a ``consistent_partial_encoders`` case with
    one more row (v, 0), v outside the given inputs' span and commuting
    with each of them, and whether the given inputs are independent."""
    m, n, k, rows, _ = draw(consistent_partial_encoders())
    w = m + n
    inputs = [row.inputs for row in rows]
    swapped = [swap_halves(v, w) for v in inputs]
    commuting = gf2_solve_dot_system(swapped, 2 * w, [0] * len(rows))[1]
    outside = [c for c in commuting if not gf2_in_rowspan(c, inputs)]
    assume(outside)  # every word commuting with the inputs is in their span
    v = gf2_combination(commuting, draw(st.integers(0, (1 << len(commuting)) - 1)))
    if gf2_in_rowspan(v, inputs):
        v ^= outside[0]
    independent = gf2_rank(inputs) == len(inputs)
    return encoder_on(m, n, k, rows + [EncoderRow(v, 0)]), independent


@settings(max_examples=100, deadline=None)
@given(encoders_with_a_row_mapped_to_the_identity())
# X_0 given twice, then X_1 -> I: the dependent inputs are named first.
@example((encoder_on(0, 2, 0, [EncoderRow(1, 1), EncoderRow(1, 1), EncoderRow(2, 0)]), False))
def test_a_row_mapped_to_the_identity_is_refused_like_the_reference(case):
    # Its outputs are dependent and its inputs, if the given ones are, are
    # not: both completions give the same refusal, dependent inputs first.
    encoder, independent = case
    for seed in range(4):
        messages = []
        for complete in (complete_to_clifford, complete_to_clifford_reference):
            with pytest.raises(CompletionError) as refused:
                complete(encoder, seed)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        if independent:
            assert messages[0] == NOT_JOINTLY_SYMPLECTIC
        else:
            assert messages[0].startswith("input rows are dependent: rows ")


def test_circuit_for_identity_is_empty():
    assert synthesize_circuit(CliffordTableau.identity(4)) == []


def test_circuit_for_single_hadamard():
    t = replay_gates(1, [Gate("h", (0,))])
    gates = synthesize_circuit(t)
    assert gates == [Gate("h", (0,))]


def test_circuit_for_single_phase():
    t = replay_gates(1, [Gate("s", (0,))])
    assert synthesize_circuit(t) == [Gate("s", (0,))]


@pytest.mark.parametrize(
    "width,images",
    [(1, [5, 2]), (1, [-1, 2]), (1, [1, 1 << 2]), (2, [1, 2, 4, 8 | 1 << 4])],
    ids=["wide", "negative", "one-bit-past", "past-the-last-image"],
)
def test_a_tableau_refuses_images_that_do_not_fit_its_width(width, images):
    # Bits past 2 * width met no product, so such a tableau passed as
    # symplectic, and the state diagram read it as the identity.
    with pytest.raises(WidthMismatchError, match="does not fit"):
        CliffordTableau(width, images)
    CliffordTableau(width, [image & (1 << 2 * width) - 1 for image in images])


@pytest.mark.parametrize(
    "images", [[1, 1, 4, 8], [0, 2, 4, 8], [1, 2, 4, 4], [2, 1, 4, 8], [1, 2, 8, 4]]
)
def test_a_non_symplectic_tableau_is_refused(images):
    # The first two find no pivot for an X_q image, the rest reduce to
    # something other than the identity and fail the replay.
    tableau = CliffordTableau(2, images)
    assert not is_symplectic_pairwise(tableau)
    with pytest.raises(SynthesisFailureError):
        synthesize_circuit(tableau)


@pytest.mark.parametrize("name", CORPUS)
def test_circuit_replays_to_pipeline_tableau(name):
    _result, tableau = pipeline(name)
    gates = synthesize_circuit(tableau)
    assert replay_gates(tableau.width, gates) == tableau
    assert len(gates) <= 2 * tableau.width**2 + 4 * tableau.width


@pytest.mark.parametrize("name", CORPUS)
def test_circuits_of_partial_encoder_completions_stay_within_the_gate_bound(name):
    # synthesize_circuit no longer refuses a long list: it emits at most
    # 6 + 4(w - q - 1) gates for qubit q, so 2w^2 + 4w in all.
    code = shorten(load_code(name)).output_code
    encoder = assemble_partial_encoder(
        code, assign_memory_operators(build_commutativity_matrix(code))
    )
    for seed in range(4):
        tableau = complete_to_clifford(encoder, seed=seed)
        gates = synthesize_circuit(tableau)
        assert replay_gates(tableau.width, gates) == tableau
        assert len(gates) <= 2 * tableau.width**2 + 4 * tableau.width


def test_completions_and_circuits_match_pinned_digest():
    # Tableau images and gate lists of every corpus code, completion seeds
    # 0-3, hashed in a fixed text form; any change in a choice the
    # completion or the extraction makes changes the digest.
    digest = hashlib.sha256()
    for name in CORPUS:
        code = shorten(load_code(name)).output_code
        for seed in range(4):
            tableau = complete_to_clifford(synthesize(code, seed=seed).encoder, seed=seed)
            gates = [(g.kind, list(g.qubits)) for g in synthesize_circuit(tableau)]
            digest.update(f"{name} {seed} {list(tableau.images)} {gates}\n".encode())
    assert digest.hexdigest() == COMPLETION_CIRCUIT_DIGEST


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8])
def test_circuit_replays_random_tableaux(width):
    rng = random.Random(width)
    for _ in range(20):
        tableau = random_tableau(width, rng)
        gates = synthesize_circuit(tableau)
        assert replay_gates(width, gates) == tableau
        assert len(gates) <= 2 * width**2 + 4 * width


@st.composite
def gate_lists(draw, max_width=12):
    """A width in 1..max_width and a list of gates on that many qubits."""
    width = draw(st.integers(1, max_width))
    qubit = st.integers(0, width - 1)
    gate = st.builds(lambda kind, q: Gate(kind, (q,)), st.sampled_from(["h", "s"]), qubit)
    if width > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
        gate |= st.builds(Gate, st.sampled_from(["cnot", "cz"]), pair)
    return width, draw(st.lists(gate, max_size=60))


@settings(max_examples=150, deadline=None)
@given(gate_lists())
def test_column_replay_matches_row_reference(case):
    width, gates = case
    tableau = replay_gates(width, gates)
    assert tableau == replay_rows(width, gates)
    assert is_symplectic_pairwise(tableau)


@settings(max_examples=100, deadline=None)
@given(gate_lists())
def test_circuit_of_a_replayed_tableau_replays_to_it(case):
    width, gates = case
    tableau = replay_gates(width, gates)
    circuit = synthesize_circuit(tableau)
    assert circuit == synthesize_circuit_reference(tableau)  # gate for gate
    assert replay_gates(width, circuit) == tableau
    assert replay_rows(width, circuit) == tableau
    assert len(circuit) <= 2 * width**2 + 4 * width


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_is_symplectic_rejects_every_breaking_bit_flip(width):
    # Flip each bit of each image of a symplectic tableau.  A flip of image a
    # is refused exactly when some product <image a, image b> moved: b below
    # a (the lower triangle of the Gram matrix), above it, or at its
    # conjugate a +- width, whose product must stay 1.  Some flips keep the
    # map symplectic (an extra Z on X_q's own qubit is an S gate) and pass.
    # Circuit extraction refuses exactly the flips the oracle refuses.
    tableau = random_tableau(width, random.Random(width))
    assert is_symplectic_pairwise(tableau)
    kinds = set()
    for a in range(2 * width):
        for bit in range(2 * width):
            images = list(tableau.images)
            images[a] ^= 1 << bit
            flipped = CliffordTableau(width, images)
            broken = [
                b
                for b in range(2 * width)
                if b != a
                and symplectic_product_vec(flipped.images[a], flipped.images[b], width)
                != (abs(a - b) == width)
            ]
            assert is_symplectic_pairwise(flipped) == (not broken)
            try:
                extracted = replay_gates(width, synthesize_circuit(flipped)) == flipped
            except SynthesisFailureError:
                extracted = False
            assert extracted == (not broken)
            kinds.update(b < a for b in broken)
            kinds.update("conjugate" for b in broken if abs(a - b) == width)
    assert kinds == {True, False, "conjugate"}


def test_zero_physical_edges_contain_known_rows(running2):
    result, tableau = pipeline("running2")
    edges = zero_physical_edges(tableau, 4, 2, 6)
    seen = {
        (str(e.mem_from), str(e.anc), str(e.logical), str(e.mem_to)) for e in edges
    }
    assert ("IIIIII", "II", "II", "IIIIII") in seen
    # The two ancilla-driven combinations and the two added information rows.
    assert ("IIIIZI", "ZI", "II", "ZIIIII") in seen
    assert ("IIIIIZ", "IZ", "II", "IZIIII") in seen
    assert ("IIIIII", "II", "XI", "IIIIZI") in seen
    assert ("IIIIII", "II", "IX", "IIIIIZ") in seen
    for edge in edges:
        assert edge.physical.is_identity


def test_zero_physical_memory_bound():
    t = CliffordTableau.identity(4)
    edges = zero_physical_edges(t, 1, 1, 3)
    assert edges
    with pytest.raises(MemoryBoundError):
        zero_physical_edges(t, 1, 1, 3, max_memory=2)
    with pytest.raises(MemoryBoundError):
        detect_catastrophic(t, 1, 1, 3, max_memory=2)
    with pytest.raises(MemoryBoundError):
        verify_non_recursive(t, 1, 1, 3, max_memory=2)


# (width, n, k, m) that split no tableau.
BAD_SHAPES = {
    "k>n": (3, 1, 2, 2), "k<0": (3, 2, -1, 1), "width": (4, 1, 1, 2), "m<0": (3, 4, 0, -1),
}


@pytest.mark.parametrize(
    "entry, args",
    [
        pytest.param(verdict, shape, id=f"{verdict.__name__}-{name}")
        for verdict in (detect_catastrophic, verify_non_recursive, zero_physical_edges)
        for name, shape in BAD_SHAPES.items()
    ]
    # running1 has n = 4 frame qubits, more than the whole tableau.
    + [pytest.param(roundtrip_verify, (2, "running1"), id="roundtrip_verify-narrow")],
)
def test_state_diagram_entry_points_refuse_a_bad_shape(entry, args):
    width, *shape = args
    if entry is roundtrip_verify:
        shape = [load_code(*shape)]
    with pytest.raises(WidthMismatchError):
        entry(CliffordTableau.identity(width), *shape)


@st.composite
def realisation_cases(draw, max_width=10):
    """A replayed tableau, a valid (n, k, m) split of it and transition words."""
    width, gates = draw(gate_lists(max_width))
    n = draw(st.integers(0, width))
    k = draw(st.integers(0, n))
    m = width - n
    words = draw(st.lists(st.integers(0, (1 << 2 * m + n + k) - 1), min_size=1, max_size=8))
    return replay_gates(width, gates), n, k, m, words


@settings(max_examples=150, deadline=None)
@given(realisation_cases())
def test_realisation_matches_row_reference(case):
    # Each drawn word is memory, ancilla Z bits and logical bits, placed as
    # an input word; its transition matches the reference read off the rows.
    tableau, n, k, m = case[:4]
    for word in case[4]:
        mem, u = word & ((1 << 2 * m) - 1), word >> 2 * m
        vin = _input_vec(n, k, m, mem, u & ((1 << n - k) - 1), u >> n - k)
        assert tableau_module._edge(tableau, n, k, m, vin) == _edge(tableau, n, k, m, vin)


@settings(max_examples=100, deadline=None)
@given(realisation_cases(max_width=8))
def test_listed_zero_physical_edges_have_identity_physical_output(case):
    # zero_physical_edges no longer checks each edge: its basis is a
    # nullspace of the physical images.  Each listed edge is the tableau's
    # own transition on its inputs, and they are all distinct.
    tableau, n, k, m = case[:4]
    assume(len(tableau_module._solve(tableau, n, k, m)[0]) <= 12)
    edges = zero_physical_edges(tableau, n, k, m)
    for edge in edges:
        assert edge.physical.is_identity
        mem, logical = pauli_to_vec(edge.mem_from), pauli_to_vec(edge.logical)
        assert _edge(tableau, n, k, m, _input_vec(n, k, m, mem, edge.anc.z, logical)) == edge
    assert len(set(edges)) == len(edges)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_not_catastrophic(name):
    result, tableau = pipeline(name)
    encoder = result.encoder
    flag, witness = detect_catastrophic(tableau, encoder.n, encoder.k, encoder.m)
    assert flag is False
    assert witness is None


def test_control_tableau_is_catastrophic():
    tableau = control_tableau()
    flag, witness = detect_catastrophic(tableau, 1, 1, 1)
    assert flag is True
    assert witness is not None
    assert witness.logical_weight >= 1
    assert [str(v) for v in witness.vertices] == [CATASTROPHIC_CONTROL["loop_vertex"]]
    # The witness closes: consecutive edges chain and the loop returns.
    for e, nxt in zip(witness.edges, witness.edges[1:]):
        assert e.mem_to == nxt.mem_from
    assert witness.edges[-1].mem_to == witness.edges[0].mem_from
    for e in witness.edges:
        assert e.physical.is_identity


@pytest.mark.parametrize("seed", sorted(RUNNING2_PARTIAL_CYCLE_WITNESSES))
def test_partial_encoder_cycle_witnesses_are_pinned(running2, seed):
    encoder = assemble_partial_encoder(
        running2, assign_memory_operators(build_commutativity_matrix(running2))
    )
    tableau = complete_to_clifford(encoder, seed=seed)
    flag, witness = detect_catastrophic(tableau, encoder.n, encoder.k, encoder.m)
    expected = RUNNING2_PARTIAL_CYCLE_WITNESSES[seed]
    assert flag is (expected is not None)
    if expected is None:
        assert witness is None
        return
    edges = ["|".join(e.as_strings().values()) for e in witness.edges]
    assert edges == expected
    assert [str(v) for v in witness.vertices] == [e.split("|")[0] for e in expected]


def brute_force_catastrophic(tableau, n, k, m):
    edges = zero_physical_edges(tableau, n, k, m)
    graph = nx.MultiDiGraph()
    for e in edges:
        u = pauli_to_vec(e.mem_from)
        v = pauli_to_vec(e.mem_to)
        graph.add_edge(u, v)
    for e in edges:
        if e.logical_weight == 0:
            continue
        u = pauli_to_vec(e.mem_from)
        v = pauli_to_vec(e.mem_to)
        if u == v or (graph.has_node(v) and graph.has_node(u) and nx.has_path(graph, v, u)):
            return True
    return False


def test_catastrophic_agrees_with_path_search():
    tableau = control_tableau()
    assert brute_force_catastrophic(tableau, 1, 1, 1) is True
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        t = random_tableau(3, rng)  # m=2, n=1, k=1
        flag, witness = detect_catastrophic(t, 1, 1, 2)
        assert flag == brute_force_catastrophic(t, 1, 1, 2)
        assert witness == cycle_witness_by_enumeration(t, 1, 1, 2)
        checked += 1
    assert checked == 40


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_non_recursive_with_checkable_path(name):
    result, tableau = pipeline(name)
    n, k, m = result.encoder.n, result.encoder.k, result.m
    ok, path = verify_non_recursive(tableau, n, k, m)
    assert ok is True
    assert path
    assert path[0].logical_weight == 1
    for step in path[1:]:
        assert step.logical.is_identity
        assert step.anc.is_identity
    for e, nxt in zip(path, path[1:]):
        assert e.mem_to == nxt.mem_from
    # Both endpoints touch the zero-physical loop structure.
    loop_nodes = loop_vertices(zero_physical_graph(tableau, n, k, m))
    assert pauli_to_vec(path[0].mem_from) in loop_nodes
    assert pauli_to_vec(path[-1].mem_to) in loop_nodes


def test_the_escape_path_skips_a_first_edge_on_a_zero_physical_cycle():
    # From loop vertex XXI the X input gives a zero-physical edge into loop
    # vertex XXZ: that edge lies on a zero-physical cycle, so it is no
    # escape, and the walk goes on to the start IIZ.
    gates = [
        Gate("cz", (3, 1)), Gate("cz", (2, 3)), Gate("cz", (1, 2)), Gate("cz", (3, 1)),
        Gate("h", (0,)), Gate("s", (2,)), Gate("cnot", (3, 2)), Gate("cz", (0, 1)),
        Gate("h", (3,)), Gate("s", (0,)),
    ]
    tableau = replay_gates(4, gates)
    assert detect_catastrophic(tableau, 1, 1, 3)[0] is True
    ok, path = verify_non_recursive(tableau, 1, 1, 3)
    assert ok is True
    assert [tuple(edge.as_strings().values()) for edge in path] == [
        ("IIZ", "", "X", "I", "IXZ"),
        ("IXZ", "", "I", "Z", "XII"),
        ("XII", "", "I", "Z", "III"),
    ]


@settings(max_examples=150, deadline=None)
@given(realisation_cases(max_width=6))
# The only loop vertex is II.  From it the X input alone leads to IX, whose
# identity-input walk misses every loop; X with Z on the ancilla escapes.
@example((replay_gates(4, [Gate("cnot", (2, 0)), Gate("cz", (1, 2))]), 2, 1, 2, [0]))
def test_escape_path_matches_enumeration_on_replayed_tableaux(case):
    # Replayed tableaux, split every way, give first edges whose physical
    # output is only X or only Z, and escapes that need an ancilla Z input.
    tableau, n, k, m = case[:4]
    assert verify_non_recursive(tableau, n, k, m) == escape_path_by_enumeration(tableau, n, k, m)


def inflated_code(name, d=0):
    code = load_code(name)
    if d:  # g1 <- g1 * D^d g1 raises the memory to m + d
        g1 = code.generators[0]
        code = code.with_generator(0, multiply_generators(g1, delay_generator(g1, d)))
    return code


@lru_cache(maxsize=None)
def partial_encoder(name, d=0):
    code = inflated_code(name, d)
    return assemble_partial_encoder(code, assign_memory_operators(build_commutativity_matrix(code)))


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("name", ["running2", "forney8"])
def test_partial_encoder_verdicts_match_enumeration(name, seed):
    # Without added rows these completions are often catastrophic, and some
    # recursive, so both verdicts are exercised both ways.
    encoder = partial_encoder(name)
    tableau = complete_to_clifford(encoder, seed=seed)
    n, k, m = encoder.n, encoder.k, encoder.m
    flag, witness = detect_catastrophic(tableau, n, k, m)
    assert flag == brute_force_catastrophic(tableau, n, k, m)
    assert (witness is not None) == flag
    assert witness == cycle_witness_by_enumeration(tableau, n, k, m)
    assert verify_non_recursive(tableau, n, k, m) == escape_path_by_enumeration(tableau, n, k, m)


# Partial encoders whose completions give both verdicts both ways: 128
# tableaux, 107 catastrophic and 33 recursive.
STATE_DIAGRAM_CASES = [
    ("forney8", 0), ("forney8", 1), ("running2", 0), ("forney2", 0),
    ("forney3", 0), ("forney4", 0), ("forney6", 0), ("gr07-third", 0),
]


def state_diagram_digest() -> str:
    """sha256 of both verdicts and both full witnesses of every
    ``STATE_DIAGRAM_CASES`` partial encoder completed with seeds 0-15."""
    digest = hashlib.sha256()
    for name, d in STATE_DIAGRAM_CASES:
        encoder = partial_encoder(name, d)
        n, k, m = encoder.n, encoder.k, encoder.m
        for seed in range(16):
            tableau = complete_to_clifford(encoder, seed=seed)
            flag, witness = detect_catastrophic(tableau, n, k, m)
            ok, path = verify_non_recursive(tableau, n, k, m)
            cycle = witness and (
                [str(v) for v in witness.vertices], [e.as_strings() for e in witness.edges]
            )
            escape = path and [e.as_strings() for e in path]
            line = [name, d, seed, flag, cycle, ok, escape]
            digest.update((json.dumps(line) + "\n").encode())
    return digest.hexdigest()


def test_state_diagram_verdicts_match_pinned_digest():
    assert state_diagram_digest() == STATE_DIAGRAM_DIGEST


# Self-delay inflations at m = 6 and 7, beyond the corpus codes the other
# digests synthesize.
INFLATED_SYNTHESIS_CASES = [("running1", 3), ("running1", 4), ("forney8", 0), ("forney8", 1)]


def inflated_synthesis_digest() -> str:
    """sha256 of the S1 rows, added rows, tableau images and gates of every
    ``INFLATED_SYNTHESIS_CASES`` code synthesized and completed with seeds 0-7."""
    digest = hashlib.sha256()
    for name, d in INFLATED_SYNTHESIS_CASES:
        code = inflated_code(name, d)
        for seed in range(8):
            result = synthesize(code, seed=seed)
            tableau = complete_to_clifford(result.encoder, seed=seed)
            s1 = [row_strings(result.encoder, row) for row in result.context.s1_rows]
            added = [row_strings(result.encoder, row) for row in result.encoder.added_rows]
            gates = [(g.kind, list(g.qubits)) for g in synthesize_circuit(tableau)]
            line = [name, d, seed, s1, added, tableau.images, gates]
            digest.update((json.dumps(line) + "\n").encode())
    return digest.hexdigest()


def test_inflated_synthesis_matches_pinned_digest():
    assert inflated_synthesis_digest() == INFLATED_SYNTHESIS_DIGEST


# Self-delay inflations whose greedy completion is catastrophic at every
# seed 0-7, so add_noncatastrophic_rows reaches its seeded random draws.
RANDOM_COMPLETION_CASES = [("gr07-third", 1), ("gr07-third", 3), ("running2", 1)]


def random_completion_digest() -> str:
    """sha256 of the S1 rows and added rows of every
    ``RANDOM_COMPLETION_CASES`` code synthesized with seeds 0-7."""
    digest = hashlib.sha256()
    for name, d in RANDOM_COMPLETION_CASES:
        code = inflated_code(name, d)
        for seed in range(8):
            result = synthesize(code, seed=seed)
            s1 = [row_strings(result.encoder, row) for row in result.context.s1_rows]
            added = [row_strings(result.encoder, row) for row in result.encoder.added_rows]
            digest.update((json.dumps([name, d, seed, s1, added]) + "\n").encode())
    return digest.hexdigest()


def test_random_completions_match_pinned_digest():
    assert random_completion_digest() == RANDOM_COMPLETION_DIGEST


def test_random_completion_draws_match_random_sample_on_any_span(monkeypatch):
    # With every span treated as too large for random.sample, the distinct
    # randrange draws made instead must be the ones random.sample makes.
    monkeypatch.setattr(synth_module, "sys", SimpleNamespace(maxsize=0))
    assert random_completion_digest() == RANDOM_COMPLETION_DIGEST


def test_random_completion_over_a_span_past_sys_maxsize():
    # g1 <- g1 * D g1 and g2 <- g2 * D^60 g2 give 65 centralizer words; the
    # draws once took len() of their 2^65 - 1 combinations and overflowed.
    code = inflated_code("gr07-third", 1)
    g2 = code.generators[1]
    code = code.with_generator(1, multiply_generators(g2, delay_generator(g2, 60)))
    assert shorten(code).steps == []
    result = synthesize(code)
    centralizer = compute_centralizer(result.encoder.memory_ops)
    assert (result.m, len(centralizer.basis)) == (67, 65)
    assert len(result.encoder.added_rows) == 2
    assert not has_catastrophic_combination(
        [*result.context.s1_rows, *result.encoder.added_rows], result.encoder
    )


def test_cycle_core_matches_the_reference_for_both_callers_at_m_63(monkeypatch):
    # running1 d = 60, seed 0: every edge list the added-row oracle and the
    # state-diagram solve hand to cycle_core at m = 63, far past the
    # enumeration oracles, gives the span the reference rounds give.  Both
    # callers reach it through synth._core.
    calls = []

    def compared(edges, bits):
        core = cycle_core(edges, bits)
        assert gf2_basis(core) == gf2_basis(cycle_core_by_annihilators(edges, bits))
        calls.append(bits)
        return core

    monkeypatch.setattr(synth_module, "cycle_core", compared)
    result = synthesize(inflated_code("running1", 60))
    encoder = result.encoder
    n, k, m = encoder.n, encoder.k, encoder.m
    assert m == 63 and calls == [2 * m]
    tableau = complete_to_clifford(encoder, seed=0)
    assert detect_catastrophic(tableau, n, k, m, max_memory=m) == (False, None)
    assert verify_non_recursive(tableau, n, k, m, max_memory=m)[0] is True
    assert calls == [2 * m, 2 * m]


def test_catastrophic_witness_lists_only_core_edges(monkeypatch):
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    basis, core = tableau_module._solve(tableau, n, k, m)
    listed = []
    span = tableau_module.gf2_span

    def record(rows):
        listed.append(len(rows))
        return span(rows)

    monkeypatch.setattr(tableau_module, "gf2_span", record)
    flag, witness = detect_catastrophic(tableau, n, k, m)
    assert flag is True and witness is not None
    assert listed == [len(core)]
    assert len(core) < len(basis)


def test_the_witness_search_keeps_the_first_listed_parent(monkeypatch):
    # A hand-built core: u = 1 -> v = 2 (labelled, tag 0), v -> a = 4,
    # a -> u, 0 -> c = 8 and c -> 0 (tags 1-4).  From v, the walks back
    # through a and through b = a + c reach u in the same number of steps;
    # v -> a is listed before v -> b, so the walk goes through a.  The
    # witness edges are the transitions of the tags walked: basis entries 0,
    # 1 and 2, where the walk through b would take 0, 1 + 3 and 2 + 4.
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    assert (m, k) == (6, 6)
    arcs = [(1, 2, 1), (2, 4, 0), (4, 1, 0), (0, 8, 0), (8, 0, 0)]  # (from, to, label)
    core = [
        u | v << 2 * m | (label | 1 << 2 * k + t) << 4 * m
        for t, (u, v, label) in enumerate(arcs)
    ]
    monkeypatch.setattr(synth_module, "cycle_core", lambda edges, bits: core)
    flag, witness = detect_catastrophic(tableau, n, k, m)
    assert flag is True
    basis, _ = tableau_module._solve(tableau, n, k, m)
    assert witness.edges == [tableau_module._edge(tableau, n, k, m, basis[t]) for t in range(3)]


def test_core_span_lists_edges_in_ascending_tag_order():
    # The witness lists the core span ascending as words; on every
    # STATE_DIAGRAM_CASES core that is the mask order of the tags.
    for name, d in STATE_DIAGRAM_CASES:
        encoder = partial_encoder(name, d)
        n, k, m = encoder.n, encoder.k, encoder.m
        for seed in range(16):
            tableau = complete_to_clifford(encoder, seed=seed)
            _, core = tableau_module._solve(tableau, n, k, m)
            tags = [e >> 4 * m + 2 * k for e in gf2_span(gf2_basis(core))]
            assert tags == gf2_span(gf2_basis(e >> 4 * m + 2 * k for e in core))
            assert all(a < b for a, b in zip(tags, tags[1:]))


def test_forney8_d5_partial_cycle_witness_is_pinned():
    # m = 11: the witness over all listed edges took seconds and ~600 MB.
    encoder = partial_encoder("forney8", 5)
    assert encoder.m == 11
    tableau = complete_to_clifford(encoder, seed=0)
    flag, witness = detect_catastrophic(tableau, encoder.n, encoder.k, encoder.m, max_memory=11)
    assert flag is True
    edges = ["|".join(e.as_strings().values()) for e in witness.edges]
    assert edges == FORNEY8_D5_PARTIAL_CYCLE_WITNESS
    assert [str(v) for v in witness.vertices] == [e.split("|")[0] for e in edges]


def test_verdicts_list_no_edges_when_not_catastrophic(monkeypatch):
    result, tableau = pipeline("forney8")
    encoder = result.encoder
    n, k, m = encoder.n, encoder.k, encoder.m

    def refuse(*args):
        raise AssertionError("a verdict listed the zero-physical edges")

    monkeypatch.setattr(tableau_module, "gf2_span", refuse)
    assert detect_catastrophic(tableau, n, k, m) == (False, None)
    ok, path = verify_non_recursive(tableau, n, k, m)
    assert ok is True and path


def test_both_verdicts_share_one_state_diagram_solve(monkeypatch):
    # The zero-physical solve and its cycle_core are kept for the tableau value, so
    # both verdicts and the edge listing solve the state diagram once.
    calls = []
    cycle_core = synth_module.cycle_core

    def counted(*args):
        calls.append(args)
        return cycle_core(*args)

    monkeypatch.setattr(synth_module, "cycle_core", counted)
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    assert detect_catastrophic(tableau, n, k, m)[0] is True
    verify_non_recursive(tableau, n, k, m)
    zero_physical_edges(tableau, n, k, m)
    assert len(calls) == 1


def verdicts_of(tableau, n, k, m):
    cat, cycle = detect_catastrophic(tableau, n, k, m)
    return cat, cycle, verify_non_recursive(tableau, n, k, m), zero_physical_edges(tableau, n, k, m)


def test_equal_tableaux_share_one_solve_and_another_is_solved_again(monkeypatch):
    # The solve is kept by tableau value: a second, separately built equal
    # tableau reads it, and a tableau with one image bit flipped is solved
    # again and gets the verdicts of its own images; this flip ends the
    # catastrophe.
    calls = []
    cycle_core = synth_module.cycle_core

    def counted(*args):
        calls.append(args)
        return cycle_core(*args)

    monkeypatch.setattr(synth_module, "cycle_core", counted)
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    twin = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    assert twin == tableau and twin is not tableau
    before = verdicts_of(tableau, n, k, m)
    assert verdicts_of(twin, n, k, m) == before and len(calls) == 1
    images = list(tableau.images)
    images[9] ^= 1
    flipped = CliffordTableau(tableau.width, images)
    after = verdicts_of(flipped, n, k, m)
    assert len(calls) == 2
    assert before[0] is True and after[0] is False
    with pytest.raises(TypeError):
        tableau.images[9] ^= 1
    assert verdicts_of(tableau, n, k, m) == before and len(calls) == 3


@pytest.mark.parametrize("entry", [detect_catastrophic, verify_non_recursive, zero_physical_edges])
def test_a_solved_tableau_still_checks_bound_and_shape(entry):
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    entry(tableau, n, k, m)
    with pytest.raises(MemoryBoundError):
        entry(tableau, n, k, m, max_memory=m - 1)
    with pytest.raises(WidthMismatchError):
        entry(tableau, n, k, m + 1)
    with pytest.raises(WidthMismatchError):
        entry(tableau, n, n + 1, m)
    entry(tableau, n, k, m)


@pytest.mark.parametrize("name", CORPUS)
def test_roundtrip_matches_generators(name):
    assert roundtrip_verify(pipeline(name)[1], load_code(name)) == 1


def test_roundtrip_rejects_swapped_generators(running1):
    _result, tableau = pipeline("running1")
    swapped = ConvolutionalCode(
        running1.n, running1.k, (running1.generators[1], running1.generators[0])
    )
    assert roundtrip_verify(tableau, swapped) == 0


def test_roundtrip_rejects_a_generator_whose_memory_is_left_set(running1):
    # Generator 1 cut to its first frame: that frame's physical output still
    # matches, but the memory it leaves behind is never flushed.
    _result, tableau = pipeline("running1")
    g1 = running1.generators[0]
    cut = GeneratorPolynomial(g1.width, g1.word & (1 << 2 * g1.width) - 1)
    assert g1.degree > 1 and cut.degree == 1
    assert roundtrip_verify(tableau, running1.with_generator(0, cut)) == 0
