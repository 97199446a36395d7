"""Quantum convolutional codes as frame-indexed Pauli generator streams.

A code transmits k logical qubits per frame of n physical qubits and is
described by n - k generators.  Each generator is a finite stream of n-qubit
Pauli blocks h_{i,1} | ... | h_{i,l_i}; block j acts on frame j.  The code is
valid when every generator commutes with every generator shifted by any whole
number of frames.

A generator is its packed stream word: frame j (1-based) fills bits
2n(j-1)..2nj-1 with ``pauli_to_vec`` of block j.  Its degree is the number
of frames up to the last non-identity one, so a generator never carries a
trailing identity frame.  A delay by t frames is a shift left by 2nt, and
the symplectic product of two aligned streams, summed over frames, is
parity(word_a & b.swapped), where ``swapped`` has the x and z halves of
every frame exchanged.

Text format (one code per file):

    # optional comment lines
    n=<int>
    k=<int>
    h <BLOCK>|<BLOCK>|...      (exactly n - k of these)

where each BLOCK is exactly n characters over I, X, Y, Z.  Trailing
all-identity blocks are not part of the stream word, so ``h ZI|IZ|II`` is
read as ``h ZI|IZ`` and an all-identity generator as one identity block;
leading identity blocks are kept.
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
from .pauli import Pauli, _parity, pauli_to_vec, vec_to_pauli

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


class GeneratorPolynomial(namedtuple("GeneratorPolynomial", "width word")):
    """One generator as its stream word on frames of ``width`` qubits."""

    __slots__ = ()

    def __new__(cls, width: int, word: int) -> "GeneratorPolynomial":
        if width < 1 or word < 0:
            raise WidthMismatchError(f"stream word {word:#x} on frames of {width} qubits")
        return tuple.__new__(cls, (width, word))

    @classmethod
    def from_blocks(cls, blocks: Tuple[Pauli, ...]) -> "GeneratorPolynomial":
        """The generator of equal-width Pauli blocks, frame 1 first."""
        if not blocks:
            raise DegenerateCodeError("a generator needs at least one block")
        widths = {b.width for b in blocks}
        if len(widths) != 1:
            raise WidthMismatchError(f"generator blocks have widths {sorted(widths)}")
        frame = 2 * blocks[0].width
        word = 0
        for j, block in enumerate(blocks):
            word |= pauli_to_vec(block) << frame * j
        return cls(blocks[0].width, word)

    @classmethod
    def from_strings(cls, parts: List[str]) -> "GeneratorPolynomial":
        return cls.from_blocks(tuple(Pauli.from_string(p) for p in parts))

    @property
    def degree(self) -> int:
        """Frames up to the last non-identity one; 1 for the identity."""
        return max(1, -(-self.word.bit_length() // (2 * self.width)))

    @property
    def swapped(self) -> int:
        """The word with the x and z halves of every frame exchanged."""
        n = self.width
        low = ((1 << n) - 1) * (((1 << 2 * n * self.degree) - 1) // ((1 << 2 * n) - 1))
        return (self.word & low) << n | (self.word >> n) & low

    @property
    def is_identity(self) -> bool:
        return not self.word

    @property
    def blocks(self) -> Tuple[Pauli, ...]:
        return tuple(self.block(j) for j in range(1, self.degree + 1))

    def block(self, j: int) -> Pauli:
        """Block at frame j (1-based); identity outside the stream."""
        if j < 1:
            return Pauli.identity(self.width)
        return vec_to_pauli(self.word >> 2 * self.width * (j - 1), self.width)

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
    if not (value.isascii() and value.isdigit()):
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
        generators.append(GeneratorPolynomial.from_blocks(tuple(blocks)))

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


def validate_code(code: ConvolutionalCode) -> ValidationResult:
    """Check all generator pairs against all frame shifts.

    A violation (i, i2, t) means generator i delayed by t frames anticommutes
    with generator i2, that is parity((word_i << 2nt) & swapped_i2) = 1;
    indices are 1-based and 0 <= t < max(l_i, l_i2).
    """
    violations: List[Tuple[int, int, int]] = []
    gens = code.generators
    swapped = [g.swapped for g in gens]
    frame = 2 * code.n
    for i, a in enumerate(gens, start=1):
        for i2, b in enumerate(gens, start=1):
            for t in range(max(a.degree, b.degree)):
                if t == 0 and i2 <= i:
                    # Symmetric at zero shift; report each unordered pair once.
                    continue
                if _parity((a.word << frame * t) & swapped[i2 - 1]):
                    violations.append((i, i2, t))
    violations.sort()
    return ValidationResult(not violations, violations)


def delay_generator(gen: GeneratorPolynomial, j: int) -> GeneratorPolynomial:
    """Shift the stream j frames later; j < 0 strips leading identity frames."""
    frame = 2 * gen.width
    if j >= 0:
        return GeneratorPolynomial(gen.width, gen.word << frame * j)
    strip = -j
    if strip >= gen.degree or gen.word & (1 << frame * strip) - 1:
        raise InvalidDelayError(
            f"cannot advance by {strip}: leading blocks are not all identity"
        )
    return GeneratorPolynomial(gen.width, gen.word >> frame * strip)


def multiply_generators(
    a: GeneratorPolynomial, b: GeneratorPolynomial
) -> GeneratorPolynomial:
    """Frame-wise product aligned at frame 1: the XOR of the two words."""
    if a.width != b.width:
        raise WidthMismatchError(f"generator widths {a.width} and {b.width} differ")
    return GeneratorPolynomial(a.width, a.word ^ b.word)
