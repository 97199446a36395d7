"""Value semantics of the immutable records and defaults of the result types."""

import pytest

from qconvenc.code import ConvolutionalCode, GeneratorPolynomial
from qconvenc.pauli import GramSchmidtResult, Pauli
from qconvenc.shorten import ShorteningReport, ShortenStep
from qconvenc.synth import EncoderRow, PartialEncoder
from qconvenc.tableau import Gate, StateDiagramEdge

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


def test_result_list_defaults_are_fresh():
    code = ConvolutionalCode(2, 1, (GEN,))
    first, second = ShorteningReport(code, code), ShorteningReport(code, code)
    assert first.steps == [] and first.steps is not second.steps
    first, second = GramSchmidtResult(0, 0), GramSchmidtResult(0, 0)
    assert first.pairs == first.isotropics == [] and first.pairs is not second.pairs
    assert first.transform is None
    first, second = PartialEncoder(1, 2, 1, []), PartialEncoder(m=1, n=2, k=1, rows=[])
    assert first.added_rows == [] and first.added_rows is not second.added_rows
    assert first.memory_ops is None
