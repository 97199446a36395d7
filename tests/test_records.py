"""Value semantics of the immutable records, and the fields result types derive."""

import copy
import pickle

import pytest

from conftest import load_code
from qconvenc.code import ConvolutionalCode, GeneratorPolynomial, validate_code
from qconvenc.errors import CodeShapeError, WidthMismatchError
from qconvenc.pauli import Pauli, symplectic_gram_schmidt
from qconvenc.shorten import ShortenStep
from qconvenc.synth import (
    EncoderRow,
    PartialEncoder,
    assemble_partial_encoder,
    minimal_memory,
    synthesize,
)
from qconvenc.tableau import Gate, StateDiagramEdge, complete_to_clifford, detect_catastrophic
from reference_data import CORPUS

XZ = Pauli.from_string("XZ")
ZX = Pauli.from_string("ZX")
GEN = GeneratorPolynomial.from_blocks((XZ, ZX))
FIVE = (Pauli(1, 1, 0), Pauli(1), Pauli(0), Pauli(2, 0, 3), Pauli(1, 0, 1))

# (type, field names, field values, a record differing in the last field)
RECORDS = [
    (Pauli, ("width", "x", "z"), (2, 1, 2), Pauli(2, 1, 3)),
    # XZ packs to 0b1001 and ZX to 0b0110, four bits a frame.
    (
        GeneratorPolynomial,
        ("width", "word"),
        (2, 0b0110_1001),
        GeneratorPolynomial(2, 0b1001_0110),
    ),
    (
        ConvolutionalCode,
        ("n", "k", "generators"),
        (2, 1, (GEN,)),
        ConvolutionalCode(2, 1, (GeneratorPolynomial.from_blocks((XZ,)),)),
    ),
    (
        ShortenStep,
        ("action", "generator", "partners", "degree_after"),
        ("front", 1, (2,), 3),
        ShortenStep("front", 1, (2,), 2),
    ),
    (
        EncoderRow,
        ("m", "n", "k", "inputs", "outputs"),
        (1, 2, 1, 0b100001, 0b110),
        EncoderRow(1, 2, 1, 0b100001, 0b111),
    ),
    (Gate, ("kind", "qubits"), ("cnot", (0, 1)), Gate("cnot", (1, 0))),
    (
        StateDiagramEdge,
        ("mem_from", "anc", "logical", "physical", "mem_to"),
        FIVE,
        StateDiagramEdge(*FIVE[:4], Pauli(1)),
    ),
]


@pytest.mark.parametrize(
    "cls,names,values,other", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_compares_and_hashes_by_fields(cls, names, values, other):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert [getattr(record, name) for name in names] == list(values)
    assert record != other
    assert hash(record) == hash(tuple(values))
    assert len({record, cls(*values), other}) == 2
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record


@pytest.mark.parametrize(
    "cls,names,values,other", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_refuses_attribute_assignment(cls, names, values, other):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


def test_constructor_defaults_and_keywords():
    assert Pauli(3) == Pauli(3, 0, 0) == Pauli.identity(3)
    assert Pauli(width=2, z=1) == Pauli(2, 0, 1)
    assert ConvolutionalCode(n=2, k=1, generators=(GEN,)) == ConvolutionalCode(2, 1, (GEN,))
    assert repr(Pauli.from_string("XYZI")) == "Pauli('XYZI')"
    assert str(GEN) == "XZ|ZX"
    assert GEN == GeneratorPolynomial(2, 0b0110_1001)


def test_partial_encoder_defaults_are_fresh():
    first, second = PartialEncoder(1, 2, 1, []), PartialEncoder(m=1, n=2, k=1, rows=[])
    assert first.added_rows == [] and first.added_rows is not second.added_rows
    assert first.memory_ops is None


RUNNING1 = load_code("running1")
P = Pauli(1, 1, 0)
ROW = EncoderRow(1, 2, 1, 0, 0)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: P._replace(x=8), WidthMismatchError, None),
        (lambda: Pauli._make((1, 8, 0)), WidthMismatchError, None),
        (lambda: GeneratorPolynomial(2, 5)._replace(width=0), WidthMismatchError, None),
        (lambda: RUNNING1._replace(k=5), CodeShapeError, None),
        (lambda: ROW._replace(k=9), WidthMismatchError, None),
        (lambda: P * 2, TypeError, "'Pauli' and 'int'"),
        (lambda: 2 * P, TypeError, "'int' and 'Pauli'"),
        (lambda: P + P, TypeError, "'Pauli' and 'Pauli'"),
        (lambda: GEN + GEN, TypeError, "'GeneratorPolynomial'"),
        (lambda: RUNNING1 * 2, TypeError, "'ConvolutionalCode'"),
        (lambda: 3 * ROW, TypeError, "'EncoderRow'"),
    ],
    ids=[
        "pauli-replace", "pauli-make", "generator-replace", "code-replace", "row-replace",
        "pauli-times-int", "int-times-pauli", "pauli-plus-pauli", "generator-plus",
        "code-times-int", "int-times-row",
    ],
)
def test_validated_records_cannot_be_built_around_their_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("name", CORPUS)
def test_derived_fields_equal_their_sources(name):
    code = load_code(name)
    assert validate_code(code).valid and validate_code(code).violations == []
    bad = validate_code(ConvolutionalCode(2, 1, (GeneratorPolynomial(2, 0b0100_0001),)))
    assert not bad.valid and bad.violations == [(1, 1, 1)]
    result = synthesize(code)
    gs = symplectic_gram_schmidt(result.omega.rows)
    assert (gs.c, gs.d) == (len(gs.pairs), len(gs.isotropics))
    assert gs.c + gs.d == result.m == result.table.m == minimal_memory(result.omega)
    # The partial encoder, before its added rows, can be catastrophic: vertex
    # i of a witness is the state edge i leaves and edge i - 1 enters.
    partial = assemble_partial_encoder(code, result.table)
    for seed in range(4):
        tableau = complete_to_clifford(partial, seed=seed)
        _, witness = detect_catastrophic(tableau, code.n, code.k, result.m)
        if witness is not None:
            assert witness.vertices == [e.mem_from for e in witness.edges]
            assert witness.vertices == [e.mem_to for e in witness.edges[-1:] + witness.edges[:-1]]
