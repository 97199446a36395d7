"""qconvenc benchmark: time to a verdict on a code, over four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The workload runs in a child process (perfbench/worker.py), one input at a
time, for about --seconds seconds: one full pass, then repeats.  With --trace 0 the last
stdout line is the end-to-end metrics, scaled by the host-speed probe
(perfbench/hostspeed.py); with --trace 1 the child runs half
the time untraced and half traced, the last line is the per-layer metrics,
and one row per traced input goes to perfbench/out/.  A readable summary
goes to stderr.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("corpus-cli", "analysis-scaling", "catastrophic-audit", "synth-scaling")

SETUP_PROBES = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qconvenc; "
    "print(time.perf_counter() - t)"
)
_DEADLINE_S = 170.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: Dict[str, str]) -> float:
    """Median time for a fresh interpreter to import qconvenc, in nominal-host seconds.

    One unmeasured import first, so byte-code caches are written before
    anything is timed.  Each import is scaled by the host-speed probe run
    right after it.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout) * hostspeed.PROBE_NOMINAL_S / hostspeed.probe(env))
    return statistics.median(times[1:])


def declared(kind: str) -> Dict[str, str]:
    """Names and units of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fastest(rows: List[dict]) -> List[dict]:
    """Each input's fastest repeat in the run, in raw seconds (per-layer spans)."""
    best: Dict[int, dict] = {}
    for row in rows:
        if row["input"] not in best or row["seconds"] < best[row["input"]]["seconds"]:
            best[row["input"]] = row
    return list(best.values())


def per_code(rows: List[dict], probes: Sequence[Sequence[float]]) -> List[float]:
    """Each code's verdict time in nominal-host seconds.

    An input's time is the median of its repeats, and a code's the median
    over its inputs (the completions drawn for it).
    """
    times: Dict[int, List[float]] = defaultdict(list)
    keys: Dict[int, str] = {}
    for row, seconds in zip(rows, hostspeed.normalised(rows, probes)):
        times[row["input"]].append(seconds)
        keys[row["input"]] = row["key"]
    codes: Dict[str, List[float]] = defaultdict(list)
    for index, values in times.items():
        codes[keys[index]].append(statistics.median(values))
    return [statistics.median(values) for values in codes.values()]


def end_to_end(rows: List[dict], probes, setup_s: float, peak_rss_kb: int) -> Dict[str, dict]:
    seconds = per_code(rows, probes)
    failed = sum(1 for row in rows if row["failures"])
    values = {
        "setup_s": setup_s,
        "verdict_s_p50": statistics.median(seconds),
        "verdict_s_p90": _p90(seconds),
        "codes_per_s": len(seconds) / sum(seconds),
        "peak_rss_mb": peak_rss_kb / 1024,
        "verified_share": (len(rows) - failed) / len(rows),
    }
    return {name: _metric(values[name], unit) for name, unit in declared("end_to_end").items()}


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    """Totals over one pass of every stage and count, each input at its fastest."""
    best = fastest(traced)
    totals: Dict[str, float] = defaultdict(float)
    for row in best:
        totals["bench.pass_s"] += row["seconds"]
        for name, value in list(row["stages"].items()) + list(row["counts"].items()):
            totals[name] += value
    enum_s = totals["tableau.zero_physical_edges_s"]
    if enum_s:
        totals["tableau.scc_witness_s"] = totals["tableau.detect_catastrophic_s"] - enum_s
        totals["tableau.edges_per_s"] = totals["tableau.edges"] / enum_s
    totals["bench.trace_overhead_s"] = statistics.median(
        row["seconds"] for row in best
    ) - statistics.median(row["seconds"] for row in fastest(untraced))
    return {name: _metric(totals[name], unit) for name, unit in declared("per_layer").items()}


def _write_trace(workload: str, seed: int, rows: List[dict]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _summary(workload: str, metrics: Dict[str, dict], rows: List[dict], traced: bool,
             probes=()) -> None:
    inputs = len({row["input"] for row in rows})
    codes = len({row["key"] for row in rows})
    print(f"== {workload}: {len(rows)} verdicts on {inputs} inputs of {codes} codes",
          file=sys.stderr)
    for name, metric in metrics.items():
        value, unit = metric["value"], metric["unit"]
        line = f"  {name} = {value:.6g} {unit}"
        if traced and not value:
            continue  # layer not reached on this workload
        if traced and unit == "s" and not name.startswith("bench."):
            line += f" ({value / metrics['bench.pass_s']['value']:.1%} of pass)"
        print(line, file=sys.stderr)
    if not traced:
        print(f"  (p50/p90 over n={codes} codes, each the median of its inputs' repeats)",
              file=sys.stderr)
        print(
            f"  (times in seconds of a host where the probe takes "
            f"{hostspeed.PROBE_NOMINAL_S} s; here its median was "
            f"{statistics.median(s for _, s in probes):.4f} s over {len(probes)} probes)",
            file=sys.stderr,
        )
    for row in rows:
        for failure in row["failures"]:
            print(
                f"  FAILED {row['base']} d={row['d']} seed={row['completion_seed']} "
                f"{row['command']}: {failure}",
                file=sys.stderr,
            )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    env = _env()
    setup_s = setup_seconds(env)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), "1" if trace else "0"]
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True,
        timeout=max(1.0, _DEADLINE_S - (time.perf_counter() - start)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced = out["untraced"]
    rows = untraced + out.get("traced", [])
    if trace:
        metrics = per_layer(out["traced"], untraced)
        path = _write_trace(workload, seed, out["traced"])
        print(f"trace rows: {os.path.relpath(path, ROOT)}", file=sys.stderr)
        _summary(workload, metrics, out["traced"], True)
    else:
        metrics = end_to_end(untraced, out["probes"], setup_s, out["peak_rss_kb"])
        _summary(workload, metrics, untraced, False, out["probes"])
    failed = sum(1 for row in rows if row["failures"])
    return {"correct": failed == 0, "attempted": len(rows), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qconvenc/__init__.py", "corpus/running1.qcc")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a qconvenc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads
        ]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
