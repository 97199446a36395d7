"""Degree reduction of generator streams within the same stabilizer group.

Rewrites allowed here (multiplying one generator by others, shifting a
generator whose leading frames are identity) never change the group the
shifted generators produce, so the shortened code stabilizes the same states
while needing less memory.  They are row operations over GF(2)[D] (Forney,
"Convolutional codes I", 1970; Grassl-Roetteler, quant-ph/0602129).

A rewrite works on the generators' stream words (``code._stream_words``):
placing a generator d frames later is a left shift by 2nd, a product is one
XOR, and the rewritten generator is rebuilt from its word once.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .code import (
    ConvolutionalCode,
    _generator_from_word,
    _stream_words,
    delay_generator,
    validate_code,
)
from .errors import DegenerateCodeError, WidthMismatchError, WindowError
from .pauli import (
    _annihilator,
    _products,
    gf2_combination,
    gf2_rank,
    gf2_solve_combination,
    pauli_to_vec,
)

__all__ = [
    "ShortenStep",
    "ShorteningReport",
    "shorten",
    "group_equivalent",
]


class ShortenStep(NamedTuple):
    """One rewrite: which pass fired, on which generator, using which others."""

    action: str  # "normalize", "front" or "back"
    generator: int  # 1-based index of the rewritten generator
    partners: Tuple[int, ...]  # 1-based indices of the generators multiplied in
    degree_after: int


class ShorteningReport:
    __slots__ = ("input_code", "output_code", "steps")

    def __init__(
        self,
        input_code: ConvolutionalCode,
        output_code: ConvolutionalCode,
        steps: Optional[List[ShortenStep]] = None,
    ):
        self.input_code = input_code
        self.output_code = output_code
        self.steps = [] if steps is None else steps


def _rewrite(
    code: ConvolutionalCode, steps: List[ShortenStep], action: str
) -> Optional[ConvolutionalCode]:
    """The code after the first ``action`` rewrite that fires, or None.

    The "front" rewrite clears generator i's first block, the "back" rewrite
    its last block.  That end block is solved as a combination of the same
    end blocks of the other generators of degree at most deg_i.  On the
    stream words, a front partner j is placed at frame 1 and a back partner
    end-aligned, shifted left by 2n(deg_i - deg_j), and the product is the
    XOR of the placed words.  Its end frame is then clear.  Its leading
    identity frames go by one right shift by whole frames, and its trailing
    ones as the generator is rebuilt from the word.  A back combination of 0
    means the last block is already the identity (only a generator built
    with trailing identity frames has one), so the degree cannot drop.
    """
    gens = code.generators
    frame = 2 * code.n
    front = action == "front"
    end = 0 if front else -1
    for i, gen in enumerate(gens):
        cands = [
            j for j, other in enumerate(gens) if j != i and other.degree <= gen.degree
        ]
        if not cands:
            continue
        target = pauli_to_vec(gen.blocks[end])
        combo = gf2_solve_combination([pauli_to_vec(gens[j].blocks[end]) for j in cands], target)
        if combo is None:
            continue
        partners = [cands[b] for b in range(len(cands)) if (combo >> b) & 1]
        word = _stream_words(gen)[0]
        for j in partners:
            shift = 0 if front else gen.degree - gens[j].degree
            word ^= _stream_words(gens[j])[0] << frame * shift
        if not word:
            raise DegenerateCodeError(
                "generator is the all-identity stream"
                if front
                else f"back rewrite collapsed generator {i + 1} to identity"
            )
        if word >> frame * (0 if front else gen.degree - 1) & (1 << frame) - 1:
            raise DegenerateCodeError(
                f"{action} rewrite of generator {i + 1} failed to clear the "
                f"{'first' if front else 'last'} block"
            )
        if not front and not combo:
            raise DegenerateCodeError(
                f"back rewrite of generator {i + 1} did not lower its degree "
                f"{gen.degree}; its last block is the identity"
            )
        leading = ((word & -word).bit_length() - 1) // frame
        new_gen = _generator_from_word(word >> frame * leading, code.n)
        steps.append(
            ShortenStep(action, i + 1, tuple(j + 1 for j in partners), new_gen.degree)
        )
        return code.with_generator(i, new_gen)
    return None


def shorten(code: ConvolutionalCode) -> ShorteningReport:
    """Reduce generator degrees until neither rewrite fires.

    Leading identity frames are stripped first ("normalize" steps).  Then
    each round applies the front rewrite to the first generator that admits
    one, or else the back rewrite.
    """
    steps: List[ShortenStep] = []
    current = code
    for i, gen in enumerate(current.generators):
        if gen.is_identity:
            raise DegenerateCodeError("generator is the all-identity stream")
        count = 0
        while gen.blocks[count].is_identity:
            count += 1
        if count:
            stripped = delay_generator(gen, -count)
            current = current.with_generator(i, stripped)
            steps.append(ShortenStep("normalize", i + 1, (), stripped.degree))
    while nxt := _rewrite(current, steps, "front") or _rewrite(current, steps, "back"):
        current = nxt
    assert validate_code(current).valid
    return ShorteningReport(input_code=code, output_code=current, steps=steps)


def _strip_rows(code: ConvolutionalCode, window: int) -> List[int]:
    """All whole placements of each generator inside a window-frame strip.

    Placement t is the stream word delayed by t frames, word << 2nt.
    """
    frame = 2 * code.n
    rows = []
    for gen in code.generators:
        word, _swapped = _stream_words(gen)
        rows += [word << frame * t for t in range(window - gen.degree + 1)]
    return rows


def _interior_basis(rows: Sequence[int], window: int, n: int) -> List[int]:
    """Basis of combinations vanishing on the first and last frame."""
    frame = 2 * n
    edge_bits = [*range(frame), *range(frame * (window - 1), frame * window)]
    # Solve for coefficient masks killing every edge coordinate.
    constraint_words = _products([1 << b for b in edge_bits], rows)
    return [gf2_combination(rows, mask) for mask in _annihilator(constraint_words, len(rows))]


def group_equivalent(
    a: ConvolutionalCode, b: ConvolutionalCode, window: Optional[int] = None
) -> int:
    """1 when both codes generate the same group on a finite strip interior.

    The strip holds ``window`` frames; placements touching the first or last
    frame are projected out so boundary effects cannot fake a difference.
    ``window`` must be at least the larger generator degree plus the
    generator count; the default adds two more frames of margin.
    """
    if a.n != b.n:
        raise WidthMismatchError(f"codes act on different frame sizes {a.n} and {b.n}")
    n = a.n
    need = max(
        a.max_degree + len(a.generators),
        b.max_degree + len(b.generators),
    )
    if window is None:
        window = max(a.max_degree, b.max_degree) + max(
            len(a.generators), len(b.generators)
        ) + 2
    if window < need:
        raise WindowError(f"window {window} below required minimum {need}")
    basis_a = _interior_basis(_strip_rows(a, window), window, n)
    basis_b = _interior_basis(_strip_rows(b, window), window, n)
    rank_a = gf2_rank(basis_a)
    rank_b = gf2_rank(basis_b)
    if rank_a != rank_b:
        return 0
    return int(gf2_rank(basis_a + basis_b) == rank_a)
