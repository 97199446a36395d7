"""Parser, serializer, validity, and generator-arithmetic tests."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import load_code
from oracles import (
    delay_by_blocks,
    generator_from_strings,
    multiply_generators_by_blocks,
    stream_words,
)
from qconvenc.pauli import Pauli
from qconvenc.code import (
    ConvolutionalCode,
    GeneratorPolynomial,
    delay_generator,
    multiply_generators,
    parse_code,
    serialize_code,
    validate_code,
)
from qconvenc.errors import (
    CodeShapeError,
    DegenerateCodeError,
    InvalidDelayError,
    ParseError,
    QconvError,
    WidthMismatchError,
)
from reference_data import CORPUS

RUNNING1_TEXT = """\
# sample
n=4
k=2
h XXXX|XXIX|IXII|IIXX
h ZZZZ|ZZIZ|IZII|IIZZ
"""


def test_parse_running_example():
    code = parse_code(RUNNING1_TEXT)
    assert code.n == 4
    assert code.k == 2
    assert len(code.generators) == 2
    assert [g.degree for g in code.generators] == [4, 4]
    assert str(code.generators[0]) == "XXXX|XXIX|IXII|IIXX"


def test_parse_appendix_fifth_example():
    code = load_code("forney8")
    assert code.n == 8
    assert code.k == 6
    assert len(code.generators) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=4\nk=2\nh XXX|IIII\nh ZZZZ\n", "width"),
        ("k=2\nn=4\nh XXXX\nh ZZZZ\n", "n="),
        ("n=4\nk=2\nh XXXX\n", "generator"),
        ("n=4\nk=2\nh XXXX\nh ZZZZ\nh YYYY\n", "generator"),
        ("n=4\nk=2\nh XQXX\nh ZZZZ\n", "character"),
        ("n=four\nk=2\nh XXXX\nh ZZZZ\n", "integer"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_code(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_code("n=4\nk=2\nh XXXX|XXX\nh ZZZZ\n")
    assert err.value.line == 3
    assert str(err.value).startswith("line 3:")


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_roundtrip(name):
    code = load_code(name)
    again = parse_code(serialize_code(code))
    assert again == code


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_valid(name):
    result = validate_code(load_code(name))
    assert result.valid
    assert result.violations == []


def test_validate_flags_anticommuting_pair():
    # Flip one character of the running example so h1 and the unshifted h2
    # anticommute.
    bad = parse_code("n=4\nk=2\nh XXXX|XXIX|IXII|IIXX\nh ZZZI|ZZIZ|IZII|IIZZ\n")
    result = validate_code(bad)
    assert not result.valid
    assert all(len(v) == 3 for v in result.violations)
    assert any(t == 0 for (_, _, t) in result.violations)
    # Zero-shift violations are reported once per unordered pair.
    zero_shift = [v for v in result.violations if v[2] == 0]
    assert len(zero_shift) == len({tuple(sorted(v[:2])) for v in zero_shift})


def test_validate_flags_shifted_anticommutation():
    # XI|ZI commutes with itself at zero shift but not with its one-frame shift.
    bad = parse_code("n=2\nk=1\nh XI|ZI\n")
    result = validate_code(bad)
    assert not result.valid
    assert (1, 1, 1) in result.violations


def test_delay_generator():
    gen = generator_from_strings(["XX", "ZZ"])
    delayed = delay_generator(gen, 2)
    assert str(delayed) == "II|II|XX|ZZ"
    # A negative delay is refused, even where leading identity frames could go.
    for j in (-1, -2):
        with pytest.raises(InvalidDelayError):
            delay_generator(delayed, j)


def test_multiply_generators_aligns_first_frames():
    a = generator_from_strings(["XX", "XI"])
    b = generator_from_strings(["ZZ"])
    prod = multiply_generators(a, b)
    assert str(prod) == "YY|XI"
    with pytest.raises(WidthMismatchError):
        multiply_generators(a, generator_from_strings(["ZZZ"]))


def test_multiply_generators_trims_trailing_identity():
    a = generator_from_strings(["XX", "ZZ"])
    b = generator_from_strings(["II", "ZZ"])
    prod = multiply_generators(a, b)
    assert str(prod) == "XX"
    cancel = multiply_generators(a, a)
    assert cancel.is_identity
    assert cancel.degree == 1


@st.composite
def generator_pairs(draw):
    """Block tuples of two generators of one width, 1-5 blocks each, often
    with identity blocks."""
    n = draw(st.integers(min_value=1, max_value=4))
    mask = (1 << n) - 1
    block = st.one_of(
        st.just(Pauli.identity(n)),
        st.builds(Pauli, st.just(n), st.integers(0, mask), st.integers(0, mask)),
    )
    blocks = st.lists(block, min_size=1, max_size=5).map(tuple)
    return draw(blocks), draw(blocks)


XX_ZZ = (Pauli.from_string("XX"), Pauli.from_string("ZZ"))
II = Pauli.identity(2)


@given(generator_pairs())
@example((XX_ZZ, XX_ZZ))  # an all-identity product is one identity block
@example(((II, II), (II,)))
def test_multiply_generators_matches_blockwise_product(pair):
    a, b = (GeneratorPolynomial.from_blocks(blocks) for blocks in pair)
    assert multiply_generators(a, b) == multiply_generators_by_blocks(a, b)


@given(generator_pairs())
@example(((II, II), (II, XX_ZZ[0], II)))
def test_generator_word_matches_packed_blocks(pair):
    for blocks in pair:
        gen = GeneratorPolynomial.from_blocks(blocks)
        assert (gen.word, gen.swapped) == stream_words(blocks)
        kept = list(blocks)
        while len(kept) > 1 and kept[-1].is_identity:
            kept.pop()
        assert gen.blocks == tuple(kept)
        assert gen.degree == len(kept)
        assert gen.is_identity == all(b.is_identity for b in blocks)
        outside = [Pauli.identity(gen.width)] * 2
        assert [gen.block(j) for j in range(-1, len(kept) + 3)] == outside + kept + outside


@given(generator_pairs(), st.integers(-6, 6))
@example(((II, XX_ZZ[0], II), (XX_ZZ[1],)), -1)  # a leading identity frame
@example(((II, II), (II,)), -1)
def test_delay_generator_matches_block_padding(pair, j):
    for blocks in pair:
        gen = GeneratorPolynomial.from_blocks(blocks)
        if j < 0:
            with pytest.raises(InvalidDelayError):
                delay_generator(gen, j)
        else:
            assert delay_generator(gen, j) == delay_by_blocks(gen, j)


@pytest.mark.parametrize("width,word", [(0, 0), (0, 1), (-1, 0), (2, -1)])
def test_generator_needs_a_frame_and_a_nonnegative_word(width, word):
    with pytest.raises(WidthMismatchError):
        GeneratorPolynomial(width, word)


@st.composite
def random_codes(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    k = n - draw(st.integers(min_value=1, max_value=min(2, n - 1)))
    mask = (1 << n) - 1
    gens = []
    for _ in range(n - k):
        blocks = draw(st.integers(min_value=1, max_value=3))
        parts = tuple(
            Pauli(n, draw(st.integers(0, mask)), draw(st.integers(0, mask)))
            for _ in range(blocks)
        )
        gens.append(GeneratorPolynomial.from_blocks(parts))
    return ConvolutionalCode(n, k, tuple(gens))


@given(random_codes())
def test_serializer_roundtrip_random(code):
    # A generator holds no trailing identity frame, built or parsed, so the
    # text form of any code parses back to the same code.
    assert parse_code(serialize_code(code)) == code


def test_generator_without_blocks_is_degenerate():
    with pytest.raises(DegenerateCodeError):
        GeneratorPolynomial.from_blocks(())


def test_generator_blocks_of_different_widths():
    with pytest.raises(WidthMismatchError):
        GeneratorPolynomial.from_blocks((Pauli.from_string("XX"), Pauli.from_string("ZZZ")))


ZZ = generator_from_strings(["ZZ"])


@pytest.mark.parametrize(
    "n,k,generators,error",
    [
        (2, 0, (ZZ, ZZ), CodeShapeError),
        (2, 2, (), CodeShapeError),
        (2, 1, (ZZ, ZZ), CodeShapeError),
        (3, 2, (ZZ,), WidthMismatchError),
    ],
    ids=["k-zero", "k-equals-n", "too-many-generators", "generator-width"],
)
def test_code_shape_errors_are_typed(n, k, generators, error):
    with pytest.raises(error) as info:
        ConvolutionalCode(n, k, generators)
    assert isinstance(info.value, QconvError) and isinstance(info.value, ValueError)
