"""Value semantics of the immutable records, and the fields result types derive."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import qconvenc
import qconvenc.tableau as tableau_module
from conftest import load_code
from qconvenc.cli import build_parser
from qconvenc.code import ConvolutionalCode, GeneratorPolynomial, ValidationResult, validate_code
from qconvenc.errors import AssemblyError, CodeShapeError, QconvError, WidthMismatchError
from qconvenc.pauli import GramSchmidtResult, Pauli, _Value, symplectic_gram_schmidt
from qconvenc.shorten import ShortenStep, ShorteningReport
from qconvenc.synth import (
    CatastrophicityContext,
    CentralizerBasis,
    EncoderRow,
    MemoryCommutativityMatrix,
    MemoryOperatorTable,
    PartialEncoder,
    SynthesisResult,
    assemble_partial_encoder,
    compute_centralizer,
    minimal_memory,
    synthesize,
)
from qconvenc.tableau import (
    CliffordTableau,
    CycleWitness,
    Gate,
    StateDiagramEdge,
    complete_to_clifford,
    detect_catastrophic,
    verify_non_recursive,
)
from reference_data import CORPUS

XZ = Pauli.from_string("XZ")
ZX = Pauli.from_string("ZX")
GEN = GeneratorPolynomial.from_blocks((XZ, ZX))
FIVE = (Pauli(1, 1, 0), Pauli(1), Pauli(0), Pauli(2, 0, 3), Pauli(1, 0, 1))
CODE = ConvolutionalCode(2, 1, (GEN,))
# Two rows of a (1, 2, 1) encoder; the identity row is consistent with any.
ROW = EncoderRow(0b100001, 0b110)
IDENTITY_ROW = EncoderRow(0, 0)
TABLE = MemoryOperatorTable(1, {(1, 1): 0b01, (1, 2): 0b10}, [(1, 1), (1, 2)])
CENTRALIZER = CentralizerBasis(1, [0b01, 0b10])
ENCODER = PartialEncoder(TABLE, 2, 1, (ROW,), ())
CONTEXT = CatastrophicityContext(CENTRALIZER, [ROW], [])
EDGE = StateDiagramEdge(*FIVE)
# A hyperbolic pair: the rows of [[0, 1], [1, 0]].
OMEGA = MemoryCommutativityMatrix([0b10, 0b01], [(1, 1), (1, 2)])

# (type, field names, field values, a record differing in one field)
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
    (EncoderRow, ("inputs", "outputs"), (0b100001, 0b110), EncoderRow(0b100001, 0b111)),
    (Gate, ("kind", "qubits"), ("cnot", (0, 1)), Gate("cnot", (1, 0))),
    (
        StateDiagramEdge,
        ("mem_from", "anc", "logical", "physical", "mem_to"),
        FIVE,
        StateDiagramEdge(*FIVE[:4], Pauli(1)),
    ),
    (
        GramSchmidtResult,
        ("pairs", "isotropics", "inverse"),
        ([(0, 1)], [2], [0b001, 0b010, 0b100]),
        GramSchmidtResult([(0, 1)], [2], [0b001, 0b010, 0b101]),
    ),
    (ValidationResult, ("violations",), ([(1, 1, 1)],), ValidationResult([])),
    (
        ShorteningReport,
        ("output_code", "steps"),
        (CODE, []),
        ShorteningReport(CODE, [ShortenStep("normalize", 1, (), 1)]),
    ),
    (
        MemoryOperatorTable,
        ("m", "ops", "index_map"),
        tuple(TABLE),
        MemoryOperatorTable(1, TABLE.ops, [(1, 2), (1, 1)]),
    ),
    (
        PartialEncoder,
        ("memory_ops", "n", "k", "rows", "added_rows"),
        tuple(ENCODER),
        PartialEncoder(TABLE, 2, 1, (ROW,), (IDENTITY_ROW,)),
    ),
    (CentralizerBasis, ("m", "basis"), tuple(CENTRALIZER), CentralizerBasis(1, [0b01])),
    (
        CatastrophicityContext,
        ("centralizer", "s1_rows", "s2_rows"),
        tuple(CONTEXT),
        CatastrophicityContext(CENTRALIZER, [ROW], [IDENTITY_ROW]),
    ),
    (
        SynthesisResult,
        ("code", "omega", "encoder", "context"),
        (CODE, OMEGA, ENCODER, CONTEXT),
        SynthesisResult(CODE, OMEGA, ENCODER, CatastrophicityContext(CENTRALIZER, [], [])),
    ),
    (
        MemoryCommutativityMatrix,
        ("rows", "index_map"),
        tuple(OMEGA),
        MemoryCommutativityMatrix(OMEGA.rows, [(1, 2), (1, 1)]),
    ),
    # The identity tableau on one qubit, and the Hadamard.
    (CliffordTableau, ("width", "images"), (1, (0b01, 0b10)), CliffordTableau(1, (0b10, 0b01))),
    (CycleWitness, ("edges",), ([EDGE],), CycleWitness([EDGE, EDGE])),
]


@pytest.mark.parametrize(
    "cls,names,values,other", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_compares_and_hashes_by_fields(cls, names, values, other):
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert [getattr(record, name) for name in names] == list(values)
    assert record != other
    try:
        hash(tuple(values))
    except TypeError:  # a list or dict field: the record compares but does not hash
        with pytest.raises(TypeError):
            hash(record)
    else:
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


def test_partial_encoder_stores_its_rows_as_tuples():
    encoder = PartialEncoder(TABLE, 2, 1, [ROW])
    assert type(encoder.rows) is tuple and type(encoder.added_rows) is tuple
    assert encoder.rows == (ROW,) and encoder.added_rows == () and encoder.memory_ops is TABLE
    assert (encoder.m, encoder.n, encoder.k, encoder.width) == (1, 2, 1, 3)
    extended = PartialEncoder(
        memory_ops=TABLE, n=2, k=1, rows=iter([ROW]), added_rows=[IDENTITY_ROW]
    )
    assert extended.added_rows == (IDENTITY_ROW,)
    assert extended.all_rows == (ROW, IDENTITY_ROW)


RUNNING1 = load_code("running1")
P = Pauli(1, 1, 0)
STEP = ShortenStep("front", 1, (2,), 3)
IDENTITY = CliffordTableau.identity(1)
# X on the memory input, Z on the memory output: it commutes with ROW's
# inputs but anticommutes with its outputs.
CLASHING_ROW = EncoderRow(0b1, 0b100000)


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: P._replace(x=8), WidthMismatchError, None),
        (lambda: Pauli._make((1, 8, 0)), WidthMismatchError, None),
        (lambda: GeneratorPolynomial(2, 5)._replace(width=0), WidthMismatchError, None),
        (lambda: RUNNING1._replace(k=5), CodeShapeError, None),
        (lambda: ENCODER._replace(rows=(ROW._replace(outputs=1 << 6),)), WidthMismatchError, None),
        (lambda: TABLE._replace(m=0), WidthMismatchError, None),
        (lambda: TABLE._replace(m=-1, ops={}), WidthMismatchError, "^no memory has -1 qubits$"),
        (lambda: MemoryOperatorTable(-1, {}, []), WidthMismatchError, "^no memory has -1"),
        (lambda: MemoryOperatorTable(-1, {(1, 1): 0}, [(1, 1)]), WidthMismatchError, "^no memory"),
        (lambda: MemoryOperatorTable(1, {(1, 1): -1}, [(1, 1)]), WidthMismatchError, "fit 1"),
        (lambda: CentralizerBasis(-3, [1 << 40, -5]), WidthMismatchError, "^no memory has -3"),
        (lambda: CentralizerBasis(-1, []), WidthMismatchError, "^no memory has -1 qubits$"),
        (lambda: CentralizerBasis(1, [0b01, -5]), WidthMismatchError, "^word -0x5 does not fit 1"),
        (lambda: CentralizerBasis(1, [0b100]), WidthMismatchError, "^word 0x4 does not fit 1"),
        (lambda: CENTRALIZER._replace(m=0), WidthMismatchError, "^word 0x1 does not fit 0"),
        (lambda: CENTRALIZER._replace(basis=[1 << 2]), WidthMismatchError, "^word 0x4 does"),
        (lambda: CliffordTableau(1, (1, 2))._replace(width=2), WidthMismatchError, "needs 4"),
        (
            lambda: ENCODER._replace(added_rows=(CLASHING_ROW,)),
            AssemblyError,
            "^rows 1 and 2 disagree: inputs commute but outputs do not match$",
        ),
        (lambda: ENCODER._replace(n=1, k=0), WidthMismatchError, "do not fit 2 qubits$"),
        (lambda: ENCODER._replace(k=3), WidthMismatchError, "^no encoder has n=2, k=3$"),
        (lambda: P * 2, TypeError, "'Pauli' and 'int'"),
        (lambda: 2 * P, TypeError, "'int' and 'Pauli'"),
        (lambda: P + P, TypeError, "'Pauli' and 'Pauli'"),
        (lambda: GEN + GEN, TypeError, "'GeneratorPolynomial'"),
        (lambda: RUNNING1 * 2, TypeError, "'ConvolutionalCode'"),
        (lambda: 3 * ROW, TypeError, "'EncoderRow'"),
        (lambda: Gate("h", (0,)) + Gate("s", (0,)), TypeError, "'Gate' and 'Gate'"),
        (lambda: 2 * Gate("h", (0,)), TypeError, "'int' and 'Gate'"),
        (lambda: EDGE + EDGE, TypeError, "'StateDiagramEdge' and 'StateDiagramEdge'"),
        (lambda: EDGE * 2, TypeError, "'StateDiagramEdge' and 'int'"),
        (lambda: STEP + STEP, TypeError, "'ShortenStep' and 'ShortenStep'"),
        (lambda: 2 * STEP, TypeError, "'int' and 'ShortenStep'"),
        (lambda: IDENTITY + IDENTITY, TypeError, "'CliffordTableau' and 'CliffordTableau'"),
        (lambda: IDENTITY * 2, TypeError, "'CliffordTableau' and 'int'"),
        (lambda: OMEGA + OMEGA, TypeError, "'MemoryCommutativityMatrix'"),
        (lambda: 2 * OMEGA, TypeError, "'int' and 'MemoryCommutativityMatrix'"),
    ],
    ids=[
        "pauli-replace", "pauli-make", "generator-replace", "code-replace", "row-replace",
        "table-replace", "table-replace-negative-m", "table-negative-m-no-ops",
        "table-negative-m", "table-negative-word", "centralizer-negative-m-wide-words",
        "centralizer-negative-m", "centralizer-negative-word", "centralizer-wide-word",
        "centralizer-replace-m", "centralizer-replace-basis", "tableau-replace-width",
        "encoder-replace-rows", "encoder-replace-width", "encoder-replace-k",
        "pauli-times-int", "int-times-pauli", "pauli-plus-pauli", "generator-plus",
        "code-times-int", "int-times-row", "gate-plus-gate", "int-times-gate",
        "edge-plus-edge", "edge-times-int", "step-plus-step", "int-times-step",
        "tableau-plus-tableau", "tableau-times-int", "omega-plus-omega", "int-times-omega",
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
    assert gs.c + gs.d == result.m == result.encoder.memory_ops.m == minimal_memory(result.omega)
    # The partial encoder, before its added rows, can be catastrophic: vertex
    # i of a witness is the state edge i leaves and edge i - 1 enters.
    partial = assemble_partial_encoder(code, result.encoder.memory_ops)
    for seed in range(4):
        tableau = complete_to_clifford(partial, seed=seed)
        _, witness = detect_catastrophic(tableau, code.n, code.k, result.m)
        if witness is not None:
            assert witness.vertices == [e.mem_from for e in witness.edges]
            assert witness.vertices == [e.mem_to for e in witness.edges[-1:] + witness.edges[:-1]]


def test_a_centralizer_word_past_its_memory_is_refused_when_built(running2):
    # A bit past 2m in a running2 centralizer word is refused as a width
    # fault of the record, not blamed on S1 synthesis later.
    centralizer = compute_centralizer(synthesize(running2).encoder.memory_ops)
    m, basis = centralizer
    assert m > 0 and basis
    with pytest.raises(WidthMismatchError, match=f"does not fit {m} memory qubits$"):
        CentralizerBasis(m, [basis[0] | 1 << 2 * m, *basis[1:]])
    with pytest.raises(WidthMismatchError, match=f"does not fit {m} memory qubits$"):
        centralizer._replace(basis=[*basis, 1 << 2 * m])


@pytest.mark.parametrize("name", CORPUS)
def test_a_synthesis_result_compares_and_pickles_by_value(name):
    code = load_code(name)
    result = synthesize(code)
    assert result == synthesize(code)
    assert pickle.loads(pickle.dumps(result)) == result


PACKAGE_MODULES = [qconvenc] + [
    importlib.import_module(f"qconvenc.{module.name}")
    for module in pkgutil.iter_modules(qconvenc.__path__)
]


def test_every_public_class_but_the_errors_is_a_value_record():
    public = {
        getattr(module, name) for module in PACKAGE_MODULES for name in getattr(module, "__all__", ())
    }
    classes = [obj for obj in public if isinstance(obj, type) and not issubclass(obj, QconvError)]
    assert len(classes) >= 18
    assert sorted(cls.__name__ for cls in classes if not issubclass(cls, _Value)) == []


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda module: module.__name__)
def test_every_imported_name_is_used_or_exported(module):
    # A name an import binds must be read somewhere in the module, or be
    # one of the names the module exports.
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []


def test_every_public_name_is_the_object_of_its_home_module():
    for name in qconvenc.__all__[1:]:
        obj = getattr(qconvenc, name)
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_loading_a_submodule_keeps_the_public_name_it_shares(monkeypatch):
    # Loading qconvenc.shorten sets the package attribute "shorten" to the
    # module; the public name stays the function.
    monkeypatch.delitem(vars(qconvenc), "shorten", raising=False)
    setattr(qconvenc, "shorten", sys.modules["qconvenc.shorten"])
    assert qconvenc.shorten is sys.modules["qconvenc.shorten"].shorten


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from qconvenc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qconvenc.__all__)
    assert len(namespace) == 31


def test_dir_lists_the_public_names_and_an_unknown_one_is_missing():
    assert set(qconvenc.__all__) <= set(dir(qconvenc))
    with pytest.raises(AttributeError, match="module 'qconvenc' has no attribute 'encode'"):
        qconvenc.encode
    assert not hasattr(qconvenc, "encode")


def test_the_cli_and_the_verdicts_share_one_memory_bound_default():
    args = build_parser().parse_args(["analyze", "code.qcc"])
    assert args.max_memory == tableau_module.DEFAULT_MEMORY_BOUND
    for verdict in (detect_catastrophic, verify_non_recursive):
        default = inspect.signature(verdict).parameters["max_memory"].default
        assert default == tableau_module.DEFAULT_MEMORY_BOUND
