"""Child process of run.py: runs one workload and prints its rows as JSON.

Each workload runs in its own process so that its peak resident memory is
its own high-water mark.  Usage:

    PYTHONPATH=src python3 perfbench/worker.py <workload> <seed> <seconds> <trace>
"""

import itertools
import json
import resource
import sys
import time

from family import build_codes, make_inputs, workload_rng
from hostspeed import PROBE_EVERY_S, probe
from workloads import CliOracle, Tracer, verdict_audit, verdict_cli, verdict_library


def run_passes(workload, inputs, rng, codes, seconds, traced, oracle, probes=None):
    """One full pass, then more repeats of any input that still fits.

    Every pass visits the inputs in an order the rng shuffles, so a burst of
    contention on the host does not hit the same inputs every time.  After
    the first pass an input is repeated only if its last verdict time still
    fits before ``seconds``, so a run ends within ``seconds`` unless its
    first pass alone is longer.

    With a ``probes`` list, the host-speed probe runs first, then between
    verdicts every PROBE_EVERY_S seconds, and last; each ``(at, seconds)``
    is appended, and each row's ``at`` is its verdict's midpoint on the
    same clock.
    """
    rows = []
    last = {}
    start = time.perf_counter()
    last_probe = -PROBE_EVERY_S

    def host_probe():
        nonlocal last_probe
        last_probe = time.perf_counter()
        seconds = probe()
        probes.append((last_probe + seconds / 2, seconds))

    for number in itertools.count():
        order = list(range(len(inputs)))
        rng.shuffle(order)
        ran = False
        for index in order:
            if number and time.perf_counter() - start + last[index] > seconds:
                continue
            if probes is not None and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                host_probe()
            item = inputs[index]
            tracer = Tracer(traced)
            before = time.perf_counter()
            if workload == "corpus-cli":
                row = verdict_cli(item, tracer, oracle)
            elif workload == "catastrophic-audit":
                row = verdict_audit(item, codes[(item.base, item.d)], tracer)
            else:
                row = verdict_library(item, codes[(item.base, item.d)], tracer)
            row["at"] = (before + time.perf_counter()) / 2
            row["pass"] = number
            row["input"] = index
            rows.append(row)
            last[index] = row["seconds"]
            ran = True
        if not ran:
            if probes is not None:
                host_probe()
            return rows


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    rng = workload_rng(workload, seed)
    inputs = make_inputs(workload, rng)
    if trace:
        # One input per code: the first completion drawn.  A traced pass
        # re-runs sub-steps as probes, and two full passes of every drawn
        # completion would not end within the run's time limit.
        firsts = {}
        for item in inputs:
            firsts.setdefault(item.key, item)
        inputs = list(firsts.values())
    codes = {} if workload == "corpus-cli" else build_codes(workload)
    oracle = CliOracle()
    budget = seconds / 2 if trace else seconds
    probes = []
    out = {
        "untraced": run_passes(workload, inputs, rng, codes, budget, False, oracle, probes),
        "probes": probes,
    }
    if trace:
        out["traced"] = run_passes(workload, inputs, rng, codes, budget, True, oracle)
    # CLI verdicts run in child processes, each with its own peak; in-process
    # ones in this process, which starts no other memory-heavy work.
    if workload == "corpus-cli":
        rows = out["untraced"] + out.get("traced", [])
        out["peak_rss_kb"] = max(row["maxrss_kb"] for row in rows)
    else:
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
