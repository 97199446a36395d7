"""Facts the pipeline proves instead of checking, tested as properties.

Each function below once re-checked its own result; its docstring now
holds the proof instead.  Each fact is checked here over the corpus, its
partial encoders (no added rows, so often catastrophic) and codes from
``conftest.shift_invariant_codes``:
1. omega's rows equal ``_backward_matrix`` (``synthesize``);
2. the memory operators have Gram matrix omega (``operators_from_commutativity``);
3. every S1 row has identity physical output, and is a row the encoder
   accepts (``find_s1``);
4. the completed tableau is symplectic and maps every given row
   (``complete_to_clifford``);
5. a circuit has at most 2w^2 + 4w gates (``synthesize_circuit``);
6. a catastrophic encoder's witness is a closed zero-physical walk
   (``detect_catastrophic``);
7. every listed zero-physical edge has identity physical output
   (``zero_physical_edges``).
Every synthesized encoder that the memory bound lets through also streams
each generator back (``roundtrip_verify``) and is non-recursive, its
escape path made of the tableau's own transitions.
A code whose synthesis finds no non-catastrophic completion is checked up
to the partial encoder, the stage it reached.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconvenc.synth as synth_module
import qconvenc.tableau as tableau_module
from conftest import load_code, shift_invariant_codes
from oracles import _edge, _input_vec, gram_matrix, is_symplectic_pairwise
from qconvenc.code import parse_code, validate_code
from qconvenc.errors import SynthesisFailureError
from qconvenc.pauli import pauli_to_vec
from qconvenc.shorten import shorten
from qconvenc.synth import (
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    compute_centralizer,
    find_s1,
    synthesize,
)
from qconvenc.tableau import (
    DEFAULT_MEMORY_BOUND,
    complete_to_clifford,
    detect_catastrophic,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
    zero_physical_edges,
)
from reference_data import CORPUS

# Listing 2^d edges or core edges stays cheap up to this dimension d.
LISTED_DIMENSION = 12


def partial_encoder_checked(code):
    """The partial encoder of a valid code, facts 1-3 checked on the way."""
    omega = build_commutativity_matrix(code)
    assert omega.rows == synth_module._backward_matrix(code)
    table = assign_memory_operators(omega)
    assert gram_matrix(table.as_list(), table.m) == omega.rows
    encoder = assemble_partial_encoder(code, table)
    s1 = find_s1(encoder, compute_centralizer(table))
    for row in s1:
        assert encoder.parts(row)["phys_out"].is_identity
    encoder._replace(added_rows=s1)  # each S1 row fits the encoder and keeps its products
    return encoder


def assert_closed_walk(tableau, n, k, m, witness):
    """Fact 6: consecutive edges chain and the last returns to the first;
    each edge is the tableau's transition on its inputs, with identity
    physical output, and some edge has a logical label."""
    edges = witness.edges
    for edge, after in zip(edges, edges[1:] + edges[:1]):
        assert edge.mem_to == after.mem_from
    for edge in edges:
        mem, logical = pauli_to_vec(edge.mem_from), pauli_to_vec(edge.logical)
        assert _edge(tableau, n, k, m, _input_vec(n, k, m, mem, edge.anc.z, logical)) == edge
        assert edge.physical.is_identity
    assert witness.logical_weight >= 1


def assert_escape_path(tableau, n, k, m):
    """The encoder is non-recursive, and its escape path chains the
    tableau's own transitions: a weight-one logical label first, then
    identity inputs."""
    ok, path = verify_non_recursive(tableau, n, k, m)
    assert ok is True
    for i, edge in enumerate(path):
        mem, logical = pauli_to_vec(edge.mem_from), pauli_to_vec(edge.logical)
        assert _edge(tableau, n, k, m, _input_vec(n, k, m, mem, edge.anc.z, logical)) == edge
        assert edge.logical_weight == (1 if i == 0 else 0)
        assert i == 0 or edge.anc.is_identity
    for edge, after in zip(path, path[1:]):
        assert edge.mem_to == after.mem_from


def tableau_checked(encoder, tableau):
    """Facts 4-7 on the encoder's completion; whether it is catastrophic,
    or None when its state diagram is too large to decide here."""
    assert is_symplectic_pairwise(tableau)
    for row in encoder.all_rows:
        assert tableau.image_of_vector(row.inputs) == row.outputs
    w = tableau.width
    assert len(synthesize_circuit(tableau)) <= 2 * w * w + 4 * w
    n, k, m = encoder.n, encoder.k, encoder.m
    if m > DEFAULT_MEMORY_BOUND:
        return None
    basis, core = tableau_module._solve(tableau, n, k, m)
    if len(basis) <= LISTED_DIMENSION:
        assert all(edge.physical.is_identity for edge in zero_physical_edges(tableau, n, k, m))
    if len(core) > LISTED_DIMENSION:
        return None
    flag, witness = detect_catastrophic(tableau, n, k, m)
    assert (witness is not None) == flag
    if flag:
        assert_closed_walk(tableau, n, k, m, witness)
    return flag


def pipeline_checked(code, seed):
    """Every fact along the chain on a valid code; the verdict of its
    partial encoder's completion, and whether synthesis completed."""
    code = shorten(code).output_code
    partial = partial_encoder_checked(code)
    partial_flag = tableau_checked(partial, complete_to_clifford(partial, seed=seed))
    try:
        result = synthesize(code, seed=seed)
    except SynthesisFailureError as exc:  # exit 3: no non-catastrophic completion
        assert "information qubits" in str(exc) or "no non-catastrophic" in str(exc)
        return partial_flag, False
    encoder = result.encoder
    tableau = complete_to_clifford(encoder, seed=seed)
    assert tableau_checked(encoder, tableau) in (False, None)  # the added rows rule it out
    if encoder.m <= DEFAULT_MEMORY_BOUND:
        assert roundtrip_verify(tableau, result.code) == 1
        assert_escape_path(tableau, encoder.n, encoder.k, encoder.m)
    return partial_flag, True


@pytest.mark.parametrize("name", CORPUS)
def test_proven_facts_hold_on_the_corpus(name):
    flags = [pipeline_checked(load_code(name), seed) for seed in range(4)]
    assert all(completed for _, completed in flags)


def test_corpus_partial_encoders_give_catastrophic_witnesses():
    # Fact 6 needs catastrophic encoders; the corpus partial encoders give them.
    flags = [pipeline_checked(load_code(name), seed)[0] for name in CORPUS for seed in range(4)]
    assert flags.count(True) >= 8


def test_a_code_without_a_non_catastrophic_completion_is_checked_to_its_partial_encoder():
    # Its synthesis ends in exit 3 at seed 0 (m = 12, past the state-diagram
    # bound), after facts 1-5 held on its partial encoder.
    code = parse_code("n=2\nk=1\nh IZ|XZ|XI|IZ|XZ|IZ|IZ|XI|XZ|IZ|II|XZ|XI\n")
    assert pipeline_checked(code, 0) == (None, False)


@pytest.mark.parametrize("min_generators", [1, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 3))
def test_proven_facts_hold_on_generated_codes(min_generators, data, seed):
    code = data.draw(shift_invariant_codes(min_generators=min_generators))
    assert validate_code(code).valid
    assert code.n - code.k >= min_generators
    pipeline_checked(code, seed)
