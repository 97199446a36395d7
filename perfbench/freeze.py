"""Recompute the frozen catastrophic-audit table and check the seed pool.

Usage, from the root of a checkout (takes about ten minutes):

    PYTHONPATH=src python3 perfbench/freeze.py

Prints AUDIT_VERDICTS for family.py on stdout: for each audit input, the
lowest completion seed whose encoder is recursive and the lowest whose
encoder is not, with their (catastrophic, recursive) verdicts.  It also
checks that every corpus, analysis-scaling and synth-scaling input has the
frozen m and, for every seed in the pool, round-trips and (where m allows
the analysis) is neither catastrophic nor recursive; it exits 1 if not.
Run it only to re-freeze the tables at a new reference commit: the
benchmark compares against the frozen values, never against this script.
"""

import sys

from family import (
    ANALYSIS_INPUTS,
    AUDIT_INPUTS,
    BASE_M,
    COMPLETION_SEEDS,
    MAX_ANALYSIS_M,
    SYNTH_INPUTS,
    expected_m,
    inflate,
    load_corpus,
)
from qconvenc.synth import (
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    synthesize,
)
from qconvenc.tableau import (
    complete_to_clifford,
    detect_catastrophic,
    roundtrip_verify,
    verify_non_recursive,
)


def verdicts(tableau, encoder):
    n, k, m = encoder.n, encoder.k, encoder.m
    cat, _ = detect_catastrophic(tableau, n, k, m, MAX_ANALYSIS_M)
    non_rec, _ = verify_non_recursive(tableau, n, k, m, MAX_ANALYSIS_M)
    return cat, not non_rec


def main() -> int:
    print("AUDIT_VERDICTS = {")
    for base, d in AUDIT_INPUTS:
        code = inflate(load_corpus(base), d)
        encoder = assemble_partial_encoder(
            code, assign_memory_operators(build_commutativity_matrix(code))
        )
        picked = {}
        for seed in COMPLETION_SEEDS:
            cat, rec = verdicts(complete_to_clifford(encoder, seed=seed), encoder)
            picked.setdefault(rec, (seed, cat, rec))
        for seed, cat, rec in sorted(picked.values()):
            print(f"    ({base!r}, {d}, {seed}): ({cat}, {rec}),", flush=True)
    print("}")
    bad = 0
    plain = [(b, 0) for b in sorted(BASE_M)] + ANALYSIS_INPUTS + SYNTH_INPUTS
    for base, d in plain:
        code = inflate(load_corpus(base), d)
        for seed in COMPLETION_SEEDS:
            result = synthesize(code, seed=seed)
            tableau = complete_to_clifford(result.encoder, seed=seed)
            cat = rec = False
            if result.m <= MAX_ANALYSIS_M:
                cat, rec = verdicts(tableau, result.encoder)
            if cat or rec or result.m != expected_m(base, d) or roundtrip_verify(tableau, code) != 1:
                print(f"unexpected: {base} d={d} seed={seed}", file=sys.stderr)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
