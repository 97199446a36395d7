"""Deterministic benchmark inputs: the corpus and the self-delay family.

The self-delay family inflates a corpus code by replacing its first
generator g1 with g1 * D^d g1 (``multiply_generators(g1,
delay_generator(g1, d))``); d = 0 stands for the base code itself, since
g1 * g1 is the identity.  For d >= 1 the inflated code is valid, ``shorten``
leaves it unchanged and its minimal memory is m_base + d.

The family is NOT group-preserving: the inflated generators produce a
proper subgroup of the base code's stabilizer group (g1 itself is no longer
in it), so ``group_equivalent(inflated, base)`` is 0.  It is a deterministic
way to grow m on a valid code, not a rewrite of the same code.

Everything here depends only on the corpus files and on the workload seed;
the program under test receives the generated codes and completion seeds.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from qconvenc import (
    ConvolutionalCode,
    delay_generator,
    multiply_generators,
    parse_code,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "corpus")

# Minimal memory of every corpus code at the commit the benchmark was frozen
# on.  gr07-third is 6, the value forced by its own commutativity matrix
# (dim 8, rank 4); the externally stated 5 is the known criterion-2
# discrepancy and is deliberately not used here.
BASE_M: Dict[str, int] = {
    "forney2": 4,
    "forney3": 4,
    "forney4": 4,
    "forney6": 4,
    "forney8": 6,
    "gr07-third": 6,
    "running1": 3,
    "running2": 6,
}

CLI_COMMANDS = ("validate", "shorten", "omega", "synthesize", "analyze", "circuit")

# Completion seeds the workload seed draws from.  Seed 0 is the canonical
# deterministic completion.
COMPLETION_SEEDS = tuple(range(16))

# State-diagram analysis enumerates every zero-physical edge; m = 12 ran out
# of memory on an 8 GB machine and m = 9 peaks near 260 MB.
MAX_ANALYSIS_M = 9

ANALYSIS_INPUTS = [("running1", d) for d in range(3, 7)] + [
    ("forney8", d) for d in range(0, 4)
]
# Completions drawn per analysis-scaling code.  The analysis cost of one
# code ranges over 2x across completions, and the median sits between the
# m = 7 and m = 8 codes, so one draw per code spread verdict_s_p50 by 18%
# across workload seeds; each code's time is the median over its draws.
ANALYSIS_COMPLETIONS = 4
SYNTH_INPUTS = [
    ("forney8", 4),
    ("forney8", 6),
    ("forney8", 8),
    ("running1", 8),
    ("running1", 12),
    ("running1", 14),
    ("running2", 8),
]

# catastrophic-audit: completions of the partial encoder without its added
# rows, keyed by (base, d, completion seed), with the (catastrophic,
# recursive) verdicts frozen by freeze.py.  Per input the pool holds the
# lowest completion seed in COMPLETION_SEEDS whose encoder is recursive and
# the lowest whose encoder is not, so every pass takes both the
# exhaustive-search branch and the escape-path branch.  The pool is fixed
# because the analysis cost of a completion ranges over 30x within one
# input: drawing two of sixteen per run spread codes_per_s by 40% across
# workload seeds.
AUDIT_VERDICTS = {
    ("forney8", 0, 0): (True, False),
    ("forney8", 0, 1): (True, True),
    ("forney8", 1, 0): (True, False),
    ("forney8", 1, 4): (True, True),
    ("forney8", 2, 0): (True, False),
    ("forney8", 2, 3): (True, True),
    ("running2", 0, 0): (True, False),
    ("running2", 0, 3): (True, True),
    ("running2", 1, 0): (False, False),
    ("running2", 1, 2): (True, True),
    ("running2", 2, 0): (True, False),
    ("running2", 2, 4): (True, True),
}
AUDIT_INPUTS = sorted({(base, d) for base, d, _seed in AUDIT_VERDICTS})


@dataclass(frozen=True)
class Input:
    """One benchmark input: a base code, its inflation and a completion seed."""

    workload: str
    base: str
    d: int
    completion_seed: int
    command: str = ""  # CLI subcommand, corpus-cli only

    @property
    def m(self) -> int:
        return expected_m(self.base, self.d)

    @property
    def key(self) -> str:
        """The code this input times: p50 and p90 take one value per key.

        Drawn completions of one code share a key.  catastrophic-audit's
        fixed completions are distinct encoders with distinct verdicts, so
        each keeps its own.
        """
        key = f"{self.base}/d{self.d}/{self.command}"
        if self.workload == "catastrophic-audit":
            key += f"/seed{self.completion_seed}"
        return key

    @property
    def path(self) -> str:
        return corpus_path(self.base)


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, name + ".qcc")


def load_corpus(name: str) -> ConvolutionalCode:
    with open(corpus_path(name), "r", encoding="utf-8") as handle:
        return parse_code(handle.read())


def inflate(code: ConvolutionalCode, d: int) -> ConvolutionalCode:
    """g1 <- g1 * D^d g1; d = 0 returns the code unchanged."""
    if d == 0:
        return code
    g1 = code.generators[0]
    return code.with_generator(0, multiply_generators(g1, delay_generator(g1, d)))


def expected_m(base: str, d: int) -> int:
    return BASE_M[base] + d


def make_inputs(workload: str, rng: random.Random) -> List[Input]:
    """The inputs of a run, with completion seeds drawn by the workload's rng.

    Every run of a workload has the same (base, d) inputs; the rng draws
    their completion seeds, except on catastrophic-audit, whose pool is
    fixed.
    """
    draw = rng.choice
    if workload == "corpus-cli":
        inputs = []
        for base in sorted(BASE_M):
            # One completion seed per file, so the three full-pipeline
            # subcommands must print the same report.
            seed = draw(COMPLETION_SEEDS)
            inputs += [Input(workload, base, 0, seed, cmd) for cmd in CLI_COMMANDS]
    elif workload == "analysis-scaling":
        inputs = [
            Input(workload, b, d, seed)
            for b, d in ANALYSIS_INPUTS
            for seed in rng.sample(COMPLETION_SEEDS, ANALYSIS_COMPLETIONS)
        ]
    elif workload == "catastrophic-audit":
        inputs = [Input(workload, b, d, seed) for b, d, seed in AUDIT_VERDICTS]
    elif workload == "synth-scaling":
        inputs = [Input(workload, b, d, draw(COMPLETION_SEEDS)) for b, d in SYNTH_INPUTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload in ("analysis-scaling", "catastrophic-audit"):
        for item in inputs:
            if item.m > MAX_ANALYSIS_M:
                raise ValueError(
                    f"{item.base} d={item.d} has m={item.m}; analysis inputs stay at "
                    f"m <= {MAX_ANALYSIS_M}"
                )
    return inputs


def workload_rng(workload: str, seed: int) -> random.Random:
    """The workload seed's generator; the same seed gives the same run."""
    return random.Random(f"{workload}/{seed}")


def build_codes(workload: str) -> Dict[Tuple[str, int], ConvolutionalCode]:
    """Parsed inflated code for every (base, d) the workload uses."""
    pairs = {
        "analysis-scaling": ANALYSIS_INPUTS,
        "catastrophic-audit": AUDIT_INPUTS,
        "synth-scaling": SYNTH_INPUTS,
    }[workload]
    return {(b, d): inflate(load_corpus(b), d) for b, d in pairs}
