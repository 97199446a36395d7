"""Degree reduction of generator streams within the same stabilizer group.

Rewrites allowed here (multiplying one generator by others, shifting a
generator whose leading frames are identity) never change the group the
shifted generators produce, so the shortened code stabilizes the same states
while needing less memory.  They are row operations over GF(2)[D] (Forney,
"Convolutional codes I", 1970; Grassl-Roetteler, quant-ph/0602129).

A rewrite works on the generators' stream words (``GeneratorPolynomial.word``):
placing a generator d frames later is a left shift by 2nd, a product is one
XOR, and leading identity frames go by one right shift by whole frames.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Optional, Sequence

from .code import ConvolutionalCode, GeneratorPolynomial, validate_code
from .errors import DegenerateCodeError, InvalidCodeError, WidthMismatchError
from .pauli import _Value, _dependencies, gf2_combination, gf2_rank, gf2_solve_combination

__all__ = [
    "ShortenStep",
    "ShorteningReport",
    "shorten",
    "group_equivalent",
]


class ShortenStep(
    _Value, namedtuple("ShortenStep", "action generator partners degree_after")
):
    """One rewrite: which pass fired ("normalize", "front" or "back"), on which
    generator, multiplying in which ``partners`` (a tuple; indices are 1-based)."""

    __slots__ = ()


class ShorteningReport(_Value, namedtuple("ShorteningReport", "output_code steps")):
    """The code after ``shorten``, and the steps that led to it."""

    __slots__ = ()


def _without_leading(word: int, n: int) -> GeneratorPolynomial:
    """The generator of a nonzero ``word`` shifted right by its leading
    identity frames."""
    frame = 2 * n
    return GeneratorPolynomial(n, word >> ((word & -word).bit_length() - 1) // frame * frame)


def _rewrite(
    code: ConvolutionalCode, steps: List[ShortenStep], action: str
) -> Optional[ConvolutionalCode]:
    """The code after the first ``action`` rewrite that fires, or None.

    The "front" rewrite clears generator i's first block, the "back" rewrite
    its last block.  That end block is solved as a combination of the same
    end blocks of the other generators of degree at most deg_i.  On the
    stream words, a front partner j is placed at frame 1 and a back partner
    end-aligned, shifted left by 2n(deg_i - deg_j), and the product is the
    XOR of the placed words.  Its end frame is clear, unchecked: each
    partner has deg_j <= deg_i, so its end frame lands on generator i's
    (frame 1 in front, frame deg_i in back), and the solve picks partners
    whose end frames XOR to it.  Dependent generators can still cancel every
    frame, which raises, but only in front: had a back rewrite cancelled
    generator i, its nonzero first frame would be the XOR of its
    equal-degree partners' first frames, and the front rewrite would have
    fired first.  Leading identity frames go by one right shift.
    """
    gens = code.generators
    frame = 2 * code.n
    front = action == "front"

    def end_frame(gen: GeneratorPolynomial) -> int:
        return gen.word >> frame * (0 if front else gen.degree - 1) & (1 << frame) - 1

    for i, gen in enumerate(gens):
        cands = [
            j for j, other in enumerate(gens) if j != i and other.degree <= gen.degree
        ]
        combo = gf2_solve_combination([end_frame(gens[j]) for j in cands], end_frame(gen))
        if combo is None:
            continue
        partners = [cands[b] for b in range(len(cands)) if (combo >> b) & 1]
        word = gen.word
        for j in partners:
            shift = 0 if front else gen.degree - gens[j].degree
            word ^= gens[j].word << frame * shift
        if not word:
            raise DegenerateCodeError("generator is the all-identity stream")
        new_gen = _without_leading(word, code.n)
        steps.append(
            ShortenStep(action, i + 1, tuple(j + 1 for j in partners), new_gen.degree)
        )
        return code.with_generator(i, new_gen)
    return None


def shorten(code: ConvolutionalCode) -> ShorteningReport:
    """Reduce generator degrees until neither rewrite fires.

    Leading identity frames are stripped first ("normalize" steps).  Then
    each round applies the front rewrite to the first generator that admits
    one, or else the back rewrite.  An invalid code raises
    ``InvalidCodeError`` with its violations; the rewrites are invertible
    row operations, so a valid code stays valid.
    """
    result = validate_code(code)
    if not result.valid:
        raise InvalidCodeError(result.violations)
    steps: List[ShortenStep] = []
    current = code
    for i, gen in enumerate(current.generators):
        if gen.is_identity:
            raise DegenerateCodeError("generator is the all-identity stream")
        stripped = _without_leading(gen.word, code.n)
        if stripped != gen:
            current = current.with_generator(i, stripped)
            steps.append(ShortenStep("normalize", i + 1, (), stripped.degree))
    while nxt := _rewrite(current, steps, "front") or _rewrite(current, steps, "back"):
        current = nxt
    return ShorteningReport(output_code=current, steps=steps)


def _strip_rows(code: ConvolutionalCode, window: int) -> List[int]:
    """All whole placements of each generator inside a window-frame strip.

    Placement t is the stream word delayed by t frames, word << 2nt.
    """
    frame = 2 * code.n
    rows = []
    for gen in code.generators:
        rows += [gen.word << frame * t for t in range(window - gen.degree + 1)]
    return rows


def _interior_basis(rows: Sequence[int], window: int, n: int) -> List[int]:
    """Basis of combinations vanishing on the first and last frame."""
    frame = (1 << 2 * n) - 1
    edges = frame | frame << 2 * n * (window - 1)
    # The coefficient masks whose rows XOR to zero on every edge coordinate.
    return [gf2_combination(rows, mask) for mask in _dependencies([row & edges for row in rows])]


def group_equivalent(a: ConvolutionalCode, b: ConvolutionalCode) -> int:
    """1 when both codes generate the same group on a finite strip interior.

    The strip holds the larger generator degree plus the larger generator
    count plus two frames; placements touching the first or last frame are
    projected out so boundary effects cannot fake a difference.
    Not in ``qconvenc.__all__``: it is not exact (see the README); perfbench tests it.
    """
    if a.n != b.n:
        raise WidthMismatchError(f"codes act on different frame sizes {a.n} and {b.n}")
    n = a.n
    window = max(a.max_degree, b.max_degree) + max(len(a.generators), len(b.generators)) + 2
    basis_a = _interior_basis(_strip_rows(a, window), window, n)
    basis_b = _interior_basis(_strip_rows(b, window), window, n)
    rank_a = gf2_rank(basis_a)
    rank_b = gf2_rank(basis_b)
    if rank_a != rank_b:
        return 0
    return int(gf2_rank(basis_a + basis_b) == rank_a)
