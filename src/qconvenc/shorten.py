"""Degree reduction of generator streams within the same stabilizer group.

Rewrites allowed here (multiplying one generator by others, shifting a
generator whose leading frames are identity) never change the group the
shifted generators produce, so the shortened code stabilizes the same states
while needing less memory.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .code import (
    ConvolutionalCode,
    GeneratorPolynomial,
    _stream_words,
    delay_generator,
    multiply_generators,
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
    "normalize_leading_delay",
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


def _strip_leading(gen: GeneratorPolynomial) -> Tuple[GeneratorPolynomial, int]:
    if gen.is_identity:
        raise DegenerateCodeError("generator is the all-identity stream")
    count = 0
    while gen.blocks[count].is_identity:
        count += 1
    if count:
        gen = delay_generator(gen, -count)
    return gen, count


def normalize_leading_delay(code: ConvolutionalCode) -> ConvolutionalCode:
    """Strip leading identity frames from every generator."""
    gens = []
    for gen in code.generators:
        stripped, _count = _strip_leading(gen)
        gens.append(stripped)
    return ConvolutionalCode(code.n, code.k, tuple(gens))


def _front_pass(code: ConvolutionalCode, steps: List[ShortenStep]) -> Optional[ConvolutionalCode]:
    gens = list(code.generators)
    for i, gen in enumerate(gens):
        cands = [
            j for j, other in enumerate(gens) if j != i and other.degree <= gen.degree
        ]
        if not cands:
            continue
        target = pauli_to_vec(gen.blocks[0])
        combo = gf2_solve_combination([pauli_to_vec(gens[j].blocks[0]) for j in cands], target)
        if combo is None:
            continue
        partners = [cands[b] for b in range(len(cands)) if (combo >> b) & 1]
        new_gen = gen
        for j in partners:
            new_gen = multiply_generators(new_gen, gens[j])
        if not new_gen.blocks[0].is_identity:
            raise DegenerateCodeError(
                f"front rewrite of generator {i + 1} failed to clear the first block"
            )
        new_gen, _stripped = _strip_leading(new_gen)
        gens[i] = new_gen
        steps.append(
            ShortenStep(
                action="front",
                generator=i + 1,
                partners=tuple(j + 1 for j in partners),
                degree_after=new_gen.degree,
            )
        )
        return ConvolutionalCode(code.n, code.k, tuple(gens))
    return None


def _back_pass(code: ConvolutionalCode, steps: List[ShortenStep]) -> Optional[ConvolutionalCode]:
    gens = list(code.generators)
    for i, gen in enumerate(gens):
        cands = [
            j for j, other in enumerate(gens) if j != i and other.degree <= gen.degree
        ]
        if not cands:
            continue
        target = pauli_to_vec(gen.blocks[-1])
        combo = gf2_solve_combination(
            [pauli_to_vec(gens[j].blocks[-1]) for j in cands], target
        )
        if combo is None:
            continue
        partners = [cands[b] for b in range(len(cands)) if (combo >> b) & 1]
        new_gen = gen
        for j in partners:
            shifted = delay_generator(gens[j], gen.degree - gens[j].degree)
            new_gen = multiply_generators(new_gen, shifted)
        if new_gen.is_identity:
            raise DegenerateCodeError(
                f"back rewrite collapsed generator {i + 1} to identity"
            )
        if new_gen.degree >= gen.degree:
            raise DegenerateCodeError(
                f"back rewrite of generator {i + 1} did not lower its degree "
                f"{gen.degree}; its last block is the identity"
            )
        new_gen, _stripped = _strip_leading(new_gen)
        gens[i] = new_gen
        steps.append(
            ShortenStep(
                action="back",
                generator=i + 1,
                partners=tuple(j + 1 for j in partners),
                degree_after=new_gen.degree,
            )
        )
        return ConvolutionalCode(code.n, code.k, tuple(gens))
    return None


def shorten(code: ConvolutionalCode) -> ShorteningReport:
    """Reduce generator degrees until neither pass can rewrite anything.

    The front pass clears a first block expressible through other first
    blocks (of generators with degree no larger) and advances the stream;
    the back pass clears a last block the same way with end-aligned shifts.
    """
    steps: List[ShortenStep] = []
    current = code
    for i, gen in enumerate(current.generators):
        stripped, count = _strip_leading(gen)
        if count:
            current = current.with_generator(i, stripped)
            steps.append(
                ShortenStep("normalize", i + 1, (), stripped.degree)
            )
    while True:
        nxt = _front_pass(current, steps)
        if nxt is not None:
            current = nxt
            continue
        nxt = _back_pass(current, steps)
        if nxt is not None:
            current = nxt
            continue
        break
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
