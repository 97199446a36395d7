"""Quantum convolutional codes as frame-indexed Pauli generator streams.

A code transmits k logical qubits per frame of n physical qubits and is
described by n - k generators.  Each generator is a finite stream of n-qubit
Pauli blocks h_{i,1} | ... | h_{i,l_i}; block j acts on frame j.  The code is
valid when every generator commutes with every generator shifted by any whole
number of frames.

Each generator also has one packed stream word: frame j (1-based) fills bits
2n(j-1)..2nj-1 with ``pauli_to_vec`` of block j.  A delay by t frames is a
shift left by 2nt, and the symplectic product of two aligned streams, summed
over frames, is parity(word_a & swapped_b), where ``swapped_b`` has the x and
z halves of every frame exchanged.  ``_stream_words`` returns both words.

Text format (one code per file):

    # optional comment lines
    n=<int>
    k=<int>
    h <BLOCK>|<BLOCK>|...      (exactly n - k of these)

where each BLOCK is exactly n characters over I, X, Y, Z.  Trailing
all-identity blocks are trimmed on parsing, keeping at least one block, so
``h ZI|IZ|II`` is read as ``h ZI|IZ``; leading identity blocks are kept.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, List, Tuple

from .errors import (
    CodeShapeError,
    DegenerateCodeError,
    InvalidDelayError,
    ParseError,
    WidthMismatchError,
)
from .pauli import Pauli, _parity, pauli_to_vec, swap_halves, vec_to_pauli

__all__ = [
    "GeneratorPolynomial",
    "ConvolutionalCode",
    "ValidationResult",
    "parse_code",
    "serialize_code",
    "validate_code",
    "delay_generator",
    "multiply_generators",
]


class GeneratorPolynomial(namedtuple("GeneratorPolynomial", "blocks")):
    """One generator as a tuple of equal-width Pauli blocks, frame 1 first."""

    __slots__ = ()

    def __new__(cls, blocks: Tuple[Pauli, ...]) -> "GeneratorPolynomial":
        if not blocks:
            raise DegenerateCodeError("a generator needs at least one block")
        widths = {b.width for b in blocks}
        if len(widths) != 1:
            raise WidthMismatchError(f"generator blocks have widths {sorted(widths)}")
        return tuple.__new__(cls, (blocks,))

    @classmethod
    def from_strings(cls, parts: List[str]) -> "GeneratorPolynomial":
        return cls(tuple(Pauli.from_string(p) for p in parts))

    @property
    def degree(self) -> int:
        return len(self.blocks)

    @property
    def width(self) -> int:
        return self.blocks[0].width

    @property
    def is_identity(self) -> bool:
        return all(b.is_identity for b in self.blocks)

    def block(self, j: int) -> Pauli:
        """Block at frame j (1-based); identity outside the stream."""
        if 1 <= j <= self.degree:
            return self.blocks[j - 1]
        return Pauli.identity(self.width)

    def __str__(self) -> str:
        return "|".join(str(b) for b in self.blocks)


class ConvolutionalCode(namedtuple("ConvolutionalCode", "n k generators")):
    """A rate k/n code given by its n - k generator streams."""

    __slots__ = ()

    def __new__(
        cls, n: int, k: int, generators: Tuple[GeneratorPolynomial, ...]
    ) -> "ConvolutionalCode":
        if not 1 <= k < n:
            raise CodeShapeError(f"k={k} is outside 1..n-1 for n={n}")
        if len(generators) != n - k:
            raise CodeShapeError(f"{len(generators)} generators, but n - k = {n - k}")
        for i, g in enumerate(generators, start=1):
            if g.width != n:
                raise WidthMismatchError(f"generator {i} has width {g.width}, not n={n}")
        return tuple.__new__(cls, (n, k, generators))

    @property
    def max_degree(self) -> int:
        return max(g.degree for g in self.generators)

    def with_generator(self, index: int, gen: GeneratorPolynomial) -> "ConvolutionalCode":
        """Copy of the code with generator ``index`` (0-based) replaced."""
        gens = list(self.generators)
        gens[index] = gen
        return ConvolutionalCode(self.n, self.k, tuple(gens))


def _trim_trailing(blocks: List[Pauli]) -> GeneratorPolynomial:
    """Generator from the blocks, trailing identity blocks dropped (one kept)."""
    while len(blocks) > 1 and blocks[-1].is_identity:
        blocks.pop()
    return GeneratorPolynomial(tuple(blocks))


def _meaningful_lines(text: str) -> Iterator[Tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_header(line: str, lineno: int, key: str) -> int:
    if not line.startswith(key + "="):
        raise ParseError(f"expected {key}=<int>, got {line!r}", lineno)
    value = line[len(key) + 1 :]
    if not value.isdigit():
        raise ParseError(f"{key} must be a positive integer, got {value!r}", lineno)
    return int(value)


def parse_code(text: str) -> ConvolutionalCode:
    """Parse the text format; raises ParseError with a line number on failure."""
    lines = list(_meaningful_lines(text))
    if len(lines) < 2:
        raise ParseError("missing n= and k= header lines")
    n = _parse_header(lines[0][1], lines[0][0], "n")
    k = _parse_header(lines[1][1], lines[1][0], "k")
    if not 1 <= k < n:
        raise ParseError(f"need 1 <= k < n, got n={n} k={k}", lines[1][0])

    generators: List[GeneratorPolynomial] = []
    for lineno, line in lines[2:]:
        if not line.startswith("h "):
            raise ParseError(f"expected generator line 'h ...', got {line!r}", lineno)
        parts = line[2:].split("|")
        blocks = []
        for part in parts:
            part = part.strip()
            if len(part) != n:
                raise ParseError(
                    f"block {part!r} has width {len(part)}, expected {n}", lineno
                )
            try:
                blocks.append(Pauli.from_string(part))
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from exc
        generators.append(_trim_trailing(blocks))

    if len(generators) != n - k:
        raise ParseError(
            f"expected {n - k} generator lines for n={n} k={k}, found {len(generators)}"
        )
    return ConvolutionalCode(n, k, tuple(generators))


def serialize_code(code: ConvolutionalCode) -> str:
    """Canonical text form; parse(serialize(code)) == code."""
    out = [f"n={code.n}", f"k={code.k}"]
    out.extend(f"h {g}" for g in code.generators)
    return "\n".join(out) + "\n"


class ValidationResult:
    __slots__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: List[Tuple[int, int, int]]):
        self.valid = valid
        self.violations = violations


def _stream_words(gen: GeneratorPolynomial) -> Tuple[int, int]:
    """The generator's stream word, and the same word with x and z swapped per frame."""
    frame = 2 * gen.width
    word = swapped = 0
    for j, block in enumerate(gen.blocks):
        vec = pauli_to_vec(block)
        word |= vec << frame * j
        swapped |= swap_halves(vec, gen.width) << frame * j
    return word, swapped


def validate_code(code: ConvolutionalCode) -> ValidationResult:
    """Check all generator pairs against all frame shifts.

    A violation (i, i2, t) means generator i delayed by t frames anticommutes
    with generator i2, that is parity((word_i << 2nt) & swapped_i2) = 1;
    indices are 1-based and 0 <= t < max(l_i, l_i2).
    """
    violations: List[Tuple[int, int, int]] = []
    gens = code.generators
    words = [_stream_words(g) for g in gens]
    frame = 2 * code.n
    for i, (a, (word, _)) in enumerate(zip(gens, words), start=1):
        for i2, (b, (_, swapped)) in enumerate(zip(gens, words), start=1):
            for t in range(max(a.degree, b.degree)):
                if t == 0 and i2 <= i:
                    # Symmetric at zero shift; report each unordered pair once.
                    continue
                if _parity((word << frame * t) & swapped):
                    violations.append((i, i2, t))
    violations.sort()
    return ValidationResult(not violations, violations)


def delay_generator(gen: GeneratorPolynomial, j: int) -> GeneratorPolynomial:
    """Shift the stream j frames later; j < 0 strips leading identity frames."""
    if j >= 0:
        pad = tuple(Pauli.identity(gen.width) for _ in range(j))
        return GeneratorPolynomial(pad + gen.blocks)
    strip = -j
    if strip >= gen.degree or any(not b.is_identity for b in gen.blocks[:strip]):
        raise InvalidDelayError(
            f"cannot advance by {strip}: leading blocks are not all identity"
        )
    return GeneratorPolynomial(gen.blocks[strip:])


def _generator_from_word(word: int, n: int) -> GeneratorPolynomial:
    """The generator whose stream word is ``word``, trailing identity frames
    trimmed; the zero word is a single identity block."""
    frame = 2 * n
    frames = max(1, -(-word.bit_length() // frame))
    return GeneratorPolynomial(
        tuple(vec_to_pauli(word >> frame * j, n) for j in range(frames))
    )


def multiply_generators(
    a: GeneratorPolynomial, b: GeneratorPolynomial
) -> GeneratorPolynomial:
    """Frame-wise product aligned at frame 1, trailing identity frames trimmed.

    The product's stream word is the XOR of the two words; an all-identity
    product is collapsed to a single identity block.
    """
    if a.width != b.width:
        raise WidthMismatchError(f"generator widths {a.width} and {b.width} differ")
    return _generator_from_word(_stream_words(a)[0] ^ _stream_words(b)[0], a.width)
