"""Tableau completion, circuit extraction, and state-diagram analysis tests."""

import hashlib
import json
import random
from functools import lru_cache
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconvenc.synth as synth_module
import qconvenc.tableau as tableau_module
from conftest import load_code
from oracles import (
    _edge,
    _input_vec,
    _part,
    apply_gate,
    cycle_witness_by_enumeration,
    escape_path_by_enumeration,
    image_of_pauli,
    is_symplectic_pairwise,
    loop_vertices,
    replay_rows,
    row_from_parts,
    row_paulis,
    zero_physical_graph,
)
from qconvenc.code import ConvolutionalCode, delay_generator, multiply_generators, parse_code
from qconvenc.errors import (
    CompletionError,
    GateError,
    MemoryBoundError,
    SynthesisFailureError,
    WidthMismatchError,
)
from qconvenc.pauli import Pauli, symplectic_product_vec
from qconvenc.shorten import shorten
from qconvenc.synth import (
    PartialEncoder,
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    has_catastrophic_combination,
    synthesize,
)
from qconvenc.tableau import (
    GATE_COUNT_FACTOR,
    CliffordTableau,
    Gate,
    complete_to_clifford,
    detect_catastrophic,
    pauli_to_vec,
    replay_gates,
    roundtrip_verify,
    synthesize_circuit,
    vec_to_pauli,
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
        out = Pauli.from_string(phys).concat(Pauli.from_string(mem))
        images[slot] = pauli_to_vec(out)
    tableau = CliffordTableau(width, images)
    assert tableau.is_symplectic()
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
        apply_gate(tableau, gate)
    return tableau


def test_vec_roundtrip():
    p = Pauli.from_string("XYZI")
    assert vec_to_pauli(pauli_to_vec(p), 4) == p


def test_identity_tableau():
    t = CliffordTableau.identity(3)
    assert t.is_identity()
    assert t.is_symplectic()
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
    assert Gate("cnot", (2, 5)).as_json() == {"kind": "cnot", "qubits": [2, 5]}


def test_image_respects_products():
    rng = random.Random(11)
    t = random_tableau(4, rng)
    a = Pauli.from_string("XYIZ")
    b = Pauli.from_string("IZZX")
    assert image_of_pauli(t, a * b) == image_of_pauli(t, a) * image_of_pauli(t, b)


def test_complete_empty_encoder_is_identity():
    empty = PartialEncoder(m=1, n=0, k=0, rows=[])
    assert complete_to_clifford(empty, seed=0).is_identity()


@pytest.mark.parametrize("name", CORPUS)
def test_completion_extends_rows_exactly(name):
    result, tableau = pipeline(name)
    assert tableau.width == result.encoder.width
    assert tableau.is_symplectic()
    for row in result.encoder.all_rows:
        want_in, want_out = row_paulis(row)
        assert image_of_pauli(tableau, want_in) == want_out


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
        assert tab.is_symplectic()
        for row in result.encoder.all_rows:
            want_in, want_out = row_paulis(row)
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
    encoder = PartialEncoder(m=0, n=2, k=1, rows=[row, row])
    with pytest.raises(CompletionError, match="dependent"):
        complete_to_clifford(encoder)


def test_completion_rejects_inconsistent_rows():
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
    encoder = PartialEncoder(m=0, n=2, k=1, rows=[row_a, row_b])
    with pytest.raises(CompletionError, match="consistently"):
        complete_to_clifford(encoder)


def test_completion_rejects_a_row_mapped_to_the_identity():
    # No image of X can anticommute with Z's image I: the commutation
    # system for the new direction is inconsistent.  A typed error, also
    # under python -O.
    row = row_from_parts(
        mem_in=Pauli.identity(0),
        anc_in=Pauli.from_string("Z"),
        info_in=Pauli.identity(0),
        phys_out=Pauli.from_string("I"),
        mem_out=Pauli.identity(0),
    )
    encoder = PartialEncoder(m=0, n=1, k=0, rows=[row])
    with pytest.raises(CompletionError, match="not jointly symplectic"):
        complete_to_clifford(encoder)


def test_circuit_for_identity_is_empty():
    assert synthesize_circuit(CliffordTableau.identity(4)) == []


def test_circuit_for_single_hadamard():
    t = replay_gates(1, [Gate("h", (0,))])
    gates = synthesize_circuit(t)
    assert gates == [Gate("h", (0,))]


def test_circuit_for_single_phase():
    t = replay_gates(1, [Gate("s", (0,))])
    assert synthesize_circuit(t) == [Gate("s", (0,))]


@pytest.mark.parametrize("name", CORPUS)
def test_circuit_replays_to_pipeline_tableau(name):
    _result, tableau = pipeline(name)
    gates = synthesize_circuit(tableau)
    assert replay_gates(tableau.width, gates) == tableau
    assert len(gates) <= GATE_COUNT_FACTOR * tableau.width**2


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
            digest.update(f"{name} {seed} {tableau.images} {gates}\n".encode())
    assert digest.hexdigest() == COMPLETION_CIRCUIT_DIGEST


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8])
def test_circuit_replays_random_tableaux(width):
    rng = random.Random(width)
    for _ in range(20):
        tableau = random_tableau(width, rng)
        gates = synthesize_circuit(tableau)
        assert replay_gates(width, gates) == tableau
        assert len(gates) <= GATE_COUNT_FACTOR * width**2


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
    assert tableau.is_symplectic()


@settings(max_examples=100, deadline=None)
@given(gate_lists())
def test_circuit_of_a_replayed_tableau_replays_to_it(case):
    width, gates = case
    tableau = replay_gates(width, gates)
    circuit = synthesize_circuit(tableau)
    assert replay_gates(width, circuit) == tableau
    assert replay_rows(width, circuit) == tableau
    assert len(circuit) <= GATE_COUNT_FACTOR * width**2


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_is_symplectic_rejects_every_breaking_bit_flip(width):
    # Flip each bit of each image of a symplectic tableau.  A flip of image a
    # is refused exactly when some product <image a, image b> moved: b below
    # a (the lower triangle of the Gram matrix), above it, or at its
    # conjugate a +- width, whose product must stay 1.  Some flips keep the
    # map symplectic (an extra Z on X_q's own qubit is an S gate) and pass.
    tableau = random_tableau(width, random.Random(width))
    assert tableau.is_symplectic()
    kinds = set()
    for a in range(2 * width):
        for bit in range(2 * width):
            flipped = CliffordTableau(width, tableau.images)
            flipped.images[a] ^= 1 << bit
            broken = [
                b
                for b in range(2 * width)
                if b != a
                and symplectic_product_vec(flipped.images[a], flipped.images[b], width)
                != (abs(a - b) == width)
            ]
            assert flipped.is_symplectic() == (not broken) == is_symplectic_pairwise(flipped)
            kinds.update(b < a for b in broken)
            kinds.update("conjugate" for b in broken if abs(a - b) == width)
    assert kinds == {True, False, "conjugate"}


def test_completion_refuses_a_tableau_that_misses_a_given_row(monkeypatch, running1):
    # The given-rows image check is a typed error, not an assert.
    encoder = synthesize(running1).encoder
    monkeypatch.setattr(CliffordTableau, "image_of_vector", lambda self, vec: 0)
    with pytest.raises(CompletionError, match="row 1 "):
        complete_to_clifford(encoder)


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


def test_listing_refuses_an_edge_with_physical_output():
    realisation = tableau_module._Realisation(CliffordTableau.identity(2), 1, 1, 1)
    with pytest.raises(SynthesisFailureError, match="physical output"):
        realisation.listed([1 << len(realisation.columns)])  # output X on qubit 0


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
    tableau, n, k, m = case[:4]
    realisation = tableau_module._Realisation(tableau, n, k, m)
    w = tableau.width
    for word in case[4]:
        mem, u = word & ((1 << 2 * m) - 1), word >> 2 * m
        vin = _input_vec(n, k, m, mem, u & ((1 << n - k) - 1), u >> n - k)
        image = tableau.image_of_vector(vin)
        assert realisation.out(word) == _part(image, w, 0, n) | _part(image, w, n, w) << 2 * n
        assert realisation.edge(word) == _edge(tableau, n, k, m, vin)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_not_catastrophic(name):
    result, tableau = pipeline(name)
    code = result.code
    flag, witness = detect_catastrophic(tableau, code.n, code.k, result.m)
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
    code = result.code
    n, k, m = code.n, code.k, result.m
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
            s1 = [row.as_strings() for row in result.context.s1_rows]
            added = [row.as_strings() for row in result.encoder.added_rows]
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
            s1 = [row.as_strings() for row in result.context.s1_rows]
            added = [row.as_strings() for row in result.encoder.added_rows]
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
    assert (result.m, len(result.context.centralizer.basis)) == (67, 65)
    assert len(result.encoder.added_rows) == 2
    assert not has_catastrophic_combination(
        result.context.s1_rows + result.encoder.added_rows, result.encoder
    )


def test_catastrophic_witness_lists_only_core_edges(monkeypatch):
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    basis, core = tableau_module._Realisation(tableau, n, k, m).zero_physical(m)
    listed = []
    enumerate_edges = tableau_module._Realisation.listed

    def record(self, words):
        listed.append(len(words))
        return enumerate_edges(self, words)

    monkeypatch.setattr(tableau_module._Realisation, "listed", record)
    flag, witness = detect_catastrophic(tableau, n, k, m)
    assert flag is True and witness is not None
    assert listed == [len(core)]
    assert len(core) < len(basis)


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

    monkeypatch.setattr(tableau_module._Realisation, "listed", refuse)
    assert detect_catastrophic(tableau, n, k, m) == (False, None)
    ok, path = verify_non_recursive(tableau, n, k, m)
    assert ok is True and path


def test_both_verdicts_share_one_state_diagram_solve(monkeypatch):
    # The realisation and its cycle_core are kept on the tableau, so both
    # verdicts and the edge listing solve the state diagram once.
    calls = []
    cycle_core = tableau_module.cycle_core

    def counted(*args):
        calls.append(args)
        return cycle_core(*args)

    monkeypatch.setattr(tableau_module, "cycle_core", counted)
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


def test_a_mutated_tableau_is_solved_again():
    # Flipping one image bit in place after a solve gives the verdicts of a
    # fresh tableau with those images; this flip ends the catastrophe.
    encoder = partial_encoder("forney8")
    tableau = complete_to_clifford(encoder, seed=0)
    n, k, m = encoder.n, encoder.k, encoder.m
    before = verdicts_of(tableau, n, k, m)
    tableau.images[9] ^= 1
    after = verdicts_of(tableau, n, k, m)
    assert after == verdicts_of(CliffordTableau(tableau.width, tableau.images), n, k, m)
    assert before[0] is True and after[0] is False


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
    result, tableau = pipeline(name)
    assert roundtrip_verify(tableau, result.code) == 1


def test_roundtrip_rejects_swapped_generators(running1):
    _result, tableau = pipeline("running1")
    swapped = ConvolutionalCode(
        running1.n, running1.k, (running1.generators[1], running1.generators[0])
    )
    assert roundtrip_verify(tableau, swapped) == 0
