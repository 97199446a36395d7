"""Degree-reduction (shortening) and group-equivalence tests."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_code
from oracles import (
    generator_from_strings,
    group_equivalent_on_strip_paulis,
    normalize_leading_delay,
)
from qconvenc.code import ConvolutionalCode, GeneratorPolynomial, parse_code, serialize_code
from qconvenc.code import delay_generator, multiply_generators, validate_code
from qconvenc.errors import (
    DegenerateCodeError,
    InvalidCodeError,
    QconvError,
    WidthMismatchError,
)
from qconvenc.shorten import group_equivalent, shorten
from qconvenc.synth import synthesize
from qconvenc.tableau import complete_to_clifford, detect_catastrophic, roundtrip_verify
from reference_data import CORPUS, SHORTEN_DIGEST


def test_normalize_strips_leading_identity_frames():
    code = ConvolutionalCode(
        2,
        1,
        (generator_from_strings(["II", "II", "XX", "ZZ"]),),
    )
    normalized = normalize_leading_delay(code)
    assert str(normalized.generators[0]) == "XX|ZZ"
    assert shorten(code).output_code == normalized


def test_normalize_rejects_identity_generator():
    code = ConvolutionalCode(
        2, 1, (generator_from_strings(["II", "II"]),)
    )
    with pytest.raises(DegenerateCodeError):
        normalize_leading_delay(code)
    with pytest.raises(DegenerateCodeError, match="all-identity"):
        shorten(code)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_already_shortened(name):
    code = load_code(name)
    report = shorten(code)
    assert report.steps == []
    assert report.output_code == code


def test_front_pass_recovers_generator(running1):
    h1, h2 = running1.generators
    inflated = ConvolutionalCode(
        4, 2, (h1, multiply_generators(h1, delay_generator(h2, 1)))
    )
    assert validate_code(inflated).valid
    report = shorten(inflated)
    assert [s.action for s in report.steps] == ["front"]
    assert report.steps[0].generator == 2
    assert report.steps[0].partners == (1,)
    assert report.output_code == running1
    assert group_equivalent(inflated, running1) == 1


def test_back_pass_recovers_generator(running1):
    h1, h2 = running1.generators
    inflated = ConvolutionalCode(
        4, 2, (h1, multiply_generators(h2, delay_generator(h1, 1)))
    )
    assert validate_code(inflated).valid
    report = shorten(inflated)
    assert [s.action for s in report.steps] == ["back"]
    assert report.output_code == running1


def test_back_rewrite_multiplies_in_only_the_partners_it_solved_for():
    # The [[5,1,3]] code as a degree-1 code (n - k = 4), with g1 <- g1·D g2
    # and g3 <- g3·D^2 g4: each back rewrite has two or three candidate
    # partners and must take exactly the one that clears the last block.
    base = parse_code("n=5\nk=1\nh XZZXI\nh IXZZX\nh XIXZZ\nh ZXIXZ\n")
    g1, g2, g3, g4 = base.generators
    rewritten = ConvolutionalCode(
        5,
        1,
        (
            multiply_generators(g1, delay_generator(g2, 1)),
            g2,
            multiply_generators(g3, delay_generator(g4, 2)),
            g4,
        ),
    )
    report = shorten(rewritten)
    assert report.steps == [("back", 1, (2,), 1), ("back", 3, (4,), 1)]
    assert report.output_code == base
    assert synthesize(report.output_code).m == 0


def test_normalize_step_recorded(running1):
    h1, h2 = running1.generators
    delayed = ConvolutionalCode(4, 2, (h1, delay_generator(h2, 2)))
    report = shorten(delayed)
    assert report.steps[0].action == "normalize"
    assert report.output_code == running1


def test_duplicate_generator_degenerates(running1):
    h1, _ = running1.generators
    doubled = ConvolutionalCode(4, 2, (h1, h1))
    with pytest.raises(DegenerateCodeError):
        shorten(doubled)


def test_shorten_is_idempotent_and_group_preserving(running2):
    h1, h2 = running2.generators
    inflated = ConvolutionalCode(
        4, 2, (multiply_generators(h1, h2), delay_generator(h2, 1))
    )
    report = shorten(inflated)
    assert validate_code(report.output_code).valid
    assert group_equivalent(report.output_code, running2) == 1
    again = shorten(report.output_code)
    assert again.steps == []
    total_in = sum(g.degree for g in inflated.generators)
    total_out = sum(g.degree for g in report.output_code.generators)
    assert total_out <= total_in


def test_group_equivalent_reflexive_and_discriminating(running1):
    assert group_equivalent(running1, running1) == 1
    other = load_code("forney2")
    assert group_equivalent(running1, other) == 0


def test_group_equivalent_width_mismatch(running1):
    other = load_code("forney4")
    with pytest.raises(WidthMismatchError):
        group_equivalent(running1, other)


def test_group_equivalent_sees_through_delay(running1):
    h1, h2 = running1.generators
    delayed = ConvolutionalCode(4, 2, (h1, delay_generator(h2, 1)))
    assert group_equivalent(running1, delayed) == 1


def test_trailing_identity_frame_is_not_part_of_a_generator():
    # ZZI|III ends in an identity frame, which its stream word cannot hold:
    # the library builds the code its text form parses to, which needs no
    # memory.
    code = ConvolutionalCode(
        3,
        1,
        (
            generator_from_strings(["ZZI", "III"]),
            generator_from_strings(["IZZ"]),
        ),
    )
    assert code == parse_code(serialize_code(code))
    report = shorten(code)
    assert report.steps == []
    assert report.output_code == code
    result = synthesize(code)
    assert result.m == 0
    tableau = complete_to_clifford(result.encoder)
    assert detect_catastrophic(tableau, code.n, code.k, result.m) == (False, None)
    assert roundtrip_verify(tableau, code) == 1


@st.composite
def rewritten_codes(draw, base):
    """``base`` after up to two rewrites g_i <- g_i * D^d g_j, d <= 3."""
    code = load_code(base)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, 1))
        g = multiply_generators(
            code.generators[i],
            delay_generator(code.generators[1 - i], draw(st.integers(0, 3))),
        )
        if not g.is_identity:
            code = code.with_generator(i, g)
    return code


SAME_WIDTH = ["running1", "running2", "forney2", "forney3", "gr07-third"]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_group_equivalent_matches_strip_pauli_oracle(data):
    base = data.draw(st.sampled_from(SAME_WIDTH))
    a = data.draw(rewritten_codes(base))
    if data.draw(st.booleans()):
        b = shorten(a).output_code
    else:
        b = data.draw(rewritten_codes(data.draw(st.sampled_from(SAME_WIDTH))))
    # group_equivalent's strip: the larger degree plus the larger generator count plus 2.
    window = max(a.max_degree, b.max_degree) + max(len(a.generators), len(b.generators)) + 2
    assert group_equivalent(a, b) == group_equivalent_on_strip_paulis(a, b, window)


def test_group_equivalent_projects_out_only_the_end_frames():
    # A generated code (conftest.shift_invariant_codes) and its shortened
    # form: the verdict changes if any bit past the strip's first and last
    # frames is projected out too, such as the x half of the second frame.
    a = ConvolutionalCode(
        7, 5, (GeneratorPolynomial(7, 34898706432), GeneratorPolynomial(7, 103620329600))
    )
    b = shorten(a).output_code
    window = max(a.max_degree, b.max_degree) + 2 + 2
    assert group_equivalent(a, b) == group_equivalent_on_strip_paulis(a, b, window)


def _rewritten(rng, code, rewrites):
    """``code`` after ``rewrites`` seeded rewrites, d <= 4: mostly
    g_i <- g_i * D^d g_j, often g_i <- D^d g_i, and rarely g_i <- D^d g_j,
    which makes the code degenerate."""
    gens = list(code.generators)
    for _ in range(rewrites):
        i = rng.randrange(len(gens))
        j = rng.choice([x for x in range(len(gens)) if x != i])
        d = rng.randint(0, 4)
        roll = rng.random()
        if roll < 0.05:
            gens[i] = delay_generator(gens[j], d)
        elif roll < 0.35:
            gens[i] = delay_generator(gens[i], d)
        else:
            gens[i] = multiply_generators(gens[i], delay_generator(gens[j], d))
    return ConvolutionalCode(code.n, code.k, tuple(gens))


def shorten_cases():
    """60 rewritten copies of each corpus code (``random.Random(5)``, 0-4
    rewrites each), then the code built from ZZI|III and IZZ above."""
    rng = random.Random(5)
    cases = []
    for name in CORPUS:
        base = load_code(name)
        cases += [_rewritten(rng, base, rng.randint(0, 4)) for _ in range(60)]
    cases.append(
        ConvolutionalCode(
            3,
            1,
            (
                generator_from_strings(["ZZI", "III"]),
                generator_from_strings(["IZZ"]),
            ),
        )
    )
    return cases


def shorten_digest() -> str:
    """sha256 of one line per ``shorten_cases`` code: its generators, then
    the steps and output generators, or "<type>: <message>" of the error."""
    digest = hashlib.sha256()
    for code in shorten_cases():
        line = [[str(g) for g in code.generators]]
        try:
            report = shorten(code)
        except QconvError as exc:
            line.append(f"{type(exc).__name__}: {exc}")
        else:
            line.append([list(step) for step in report.steps])
            line.append([str(g) for g in report.output_code.generators])
        digest.update((json.dumps(line) + "\n").encode())
    return digest.hexdigest()


INVALID_TEXT = "n=3\nk=1\nh XII\nh ZII\n"


def test_shorten_refuses_an_invalid_code():
    with pytest.raises(InvalidCodeError) as info:
        shorten(parse_code(INVALID_TEXT))
    assert info.value.violations == [(1, 2, 0)]


def test_shorten_refuses_an_invalid_code_under_optimized_mode():
    # The refusal is a raised check, not an assert that -O strips.
    script = (
        "from qconvenc.code import parse_code\n"
        "from qconvenc.errors import InvalidCodeError\n"
        "from qconvenc.shorten import shorten\n"
        "try:\n"
        f"    shorten(parse_code({INVALID_TEXT!r}))\n"
        "except InvalidCodeError as exc:\n"
        "    print(exc.violations)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[(1, 2, 0)]\n"


def test_shorten_matches_pinned_digest():
    assert shorten_digest() == SHORTEN_DIGEST


def test_shorten_matches_pinned_digest_under_optimized_mode():
    # No outcome may rest on an assert, which -O strips.
    script = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
        "from test_shorten import shorten_digest; print(shorten_digest())"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == SHORTEN_DIGEST
