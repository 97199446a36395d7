"""Verdict chains of the four workloads and the correctness oracle.

Each ``verdict_*`` function takes one input through the calls a user makes
to get a verdict and returns a row: the input's identity, the wall time of
the chain (``seconds``), the failed checks, and, when traced, the seconds
spent in each layer call (``stages``) and the work counts read off the
returned objects (``counts``).

A traced chain makes the same calls as an untraced one; the tracer only
times them.  Sub-steps that the chain reaches only inside another public
function (the pieces of ``synthesize``, the edge enumeration inside
``detect_catastrophic``) are re-run as probes after the chain's clock has
stopped, so they add to the traced run's cost but never to ``seconds``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from family import AUDIT_VERDICTS, MAX_ANALYSIS_M, Input
from qconvenc import ConvolutionalCode
from qconvenc.shorten import shorten
from qconvenc.synth import (
    add_noncatastrophic_rows,
    assemble_partial_encoder,
    assign_memory_operators,
    build_commutativity_matrix,
    compute_centralizer,
    find_s1,
    has_catastrophic_combination,
    minimal_memory,
    synthesize,
    verify_consistency,
)
from qconvenc.tableau import (
    GATE_COUNT_FACTOR,
    complete_to_clifford,
    detect_catastrophic,
    replay_gates,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
    zero_physical_edges,
)

# The console script's body, so a CLI run is exactly what `qconvenc` runs.
CLI_ENTRY = "import sys; from qconvenc.cli import main; sys.exit(main())"
# Traced CLI runs also stamp the monotonic clock (shared by all processes)
# before and after the import, and run under -X importtime.
CLI_TRACED_ENTRY = (
    "import time; t0 = time.perf_counter(); from qconvenc.cli import main; "
    "t1 = time.perf_counter(); import sys; "
    "print('perfbench-import', t0, t1, file=sys.stderr); sys.exit(main())"
)
_NETWORKX_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*networkx$", re.M)
_FULL_PIPELINE = ("synthesize", "analyze", "circuit")


class Tracer:
    """Per-input stage seconds and counts; passes calls straight through when off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.stages: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start
        return out

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = value


def _row(item: Input, seconds: float, failures: List[str], tracer: Tracer) -> dict:
    return {
        "workload": item.workload,
        "base": item.base,
        "d": item.d,
        "completion_seed": item.completion_seed,
        "command": item.command,
        "key": item.key,
        "m": item.m,
        "seconds": seconds,
        "failures": failures,
        "stages": tracer.stages,
        "counts": tracer.counts,
    }


def _check(failures: List[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# --- oracle -----------------------------------------------------------------


def _edge_rederived(tableau, n: int, k: int, m: int, edge) -> bool:
    """Recompute one state-diagram edge from its inputs with image_of_vector."""
    w = tableau.width
    shift = m + n - k
    x = edge.mem_from.x | (edge.logical.x << shift)
    z = edge.mem_from.z | (edge.anc.z << m) | (edge.logical.z << shift)
    out = tableau.image_of_vector(x | (z << w))
    out_x, out_z = out & ((1 << w) - 1), out >> w
    phys = (1 << n) - 1
    return (
        edge.anc.x == 0
        and (out_x & phys, out_z & phys) == (edge.physical.x, edge.physical.z)
        and (out_x >> n, out_z >> n) == (edge.mem_to.x, edge.mem_to.z)
    )


def _check_cycle_witness(failures, tableau, n, k, m, cycle) -> None:
    edges = cycle.edges if cycle is not None else []
    _check(failures, bool(edges), "catastrophic verdict without a cycle witness")
    if not edges:
        return
    _check(
        failures,
        all(_edge_rederived(tableau, n, k, m, e) for e in edges),
        "cycle witness edge does not match the tableau",
    )
    _check(
        failures,
        all(e.physical.is_identity for e in edges),
        "cycle witness edge has physical output",
    )
    _check(
        failures,
        all(a.mem_to == b.mem_from for a, b in zip(edges, edges[1:] + edges[:1])),
        "cycle witness does not close",
    )
    _check(
        failures,
        any(not e.logical.is_identity for e in edges),
        "cycle witness carries no logical label",
    )


def _check_escape_path(failures, tableau, n, k, m, path) -> None:
    if not path:  # no zero-physical loop at all: nothing to escape from
        return
    _check(
        failures,
        all(_edge_rederived(tableau, n, k, m, e) for e in path),
        "recursion witness edge does not match the tableau",
    )
    _check(failures, path[0].logical_weight == 1, "escape path starts without weight-1 input")
    _check(
        failures,
        all(e.logical.is_identity and e.anc.is_identity for e in path[1:]),
        "escape path continues with non-identity input",
    )
    _check(
        failures,
        all(a.mem_to == b.mem_from for a, b in zip(path, path[1:])),
        "escape path is not a walk",
    )


def _check_circuit(failures, tableau, gates) -> None:
    w = tableau.width
    _check(failures, replay_gates(w, gates) == tableau, "replayed circuit differs from tableau")
    _check(
        failures,
        len(gates) <= GATE_COUNT_FACTOR * w * w,
        f"{len(gates)} gates exceed {GATE_COUNT_FACTOR}*width^2",
    )


def _check_analysis(failures, item, tableau, n, k, m, cat, cycle, non_rec, path) -> None:
    recursive = not non_rec
    if item.workload == "catastrophic-audit":
        want = AUDIT_VERDICTS[(item.base, item.d, item.completion_seed)]
        _check(
            failures,
            (cat, recursive) == want,
            f"verdict (catastrophic, recursive)={(cat, recursive)}, frozen {want}",
        )
    else:
        _check(failures, not cat and not recursive, "added rows left the encoder catastrophic")
    _check(failures, cat or not recursive, "recursive but not catastrophic")
    if cat:
        _check_cycle_witness(failures, tableau, n, k, m, cycle)
    else:
        _check(failures, cycle is None, "cycle witness without catastrophic verdict")
    if non_rec:
        _check_escape_path(failures, tableau, n, k, m, path)


# --- in-process chains --------------------------------------------------------


def _synth_probes(tracer: Tracer, code: ConvolutionalCode, seed: int) -> None:
    """Re-run the pieces of synthesize() one by one to time each layer call."""
    omega = tracer.span("synth.build_commutativity_matrix_s", build_commutativity_matrix, code)
    tracer.span("synth.verify_consistency_s", verify_consistency, code)
    table = tracer.span("synth.assign_memory_operators_s", assign_memory_operators, omega)
    encoder = tracer.span(
        "synth.assemble_partial_encoder_s", assemble_partial_encoder, code, table
    )
    centralizer = tracer.span("synth.compute_centralizer_s", compute_centralizer, table)
    tracer.span("synth.find_s1_s", find_s1, encoder, centralizer)
    _extended, context = tracer.span(
        "synth.add_noncatastrophic_rows_s", add_noncatastrophic_rows, encoder, seed=seed
    )
    rows = context.s1_rows + context.s2_rows
    tracer.span(
        "synth.has_catastrophic_combination_s", has_catastrophic_combination, rows, encoder
    )
    tracer.count("synth.omega_dim", omega.dim)
    tracer.count("synth.omega_rank", omega.rank)
    tracer.count("synth.centralizer_dim", len(centralizer.basis))
    tracer.count("synth.s1_rows", len(context.s1_rows))
    tracer.count("synth.added_rows", len(context.s2_rows))
    tracer.count("synth.oracle_combinations", (1 << len(rows)) - 1)


def _enumeration_probe(tracer: Tracer, tableau, n: int, k: int, m: int) -> None:
    edges = tracer.span(
        "tableau.zero_physical_edges_s", zero_physical_edges, tableau, n, k, m, MAX_ANALYSIS_M
    )
    tracer.count("tableau.edges", len(edges))


def _guarded(item: Input, tracer: Tracer, chain) -> dict:
    failures: List[str] = []
    start = time.perf_counter()
    try:
        seconds = chain(failures, start)
    except Exception as exc:  # a raising input is a failed input, never a skip
        seconds = time.perf_counter() - start
        failures.append(f"raised {type(exc).__name__}: {exc}")
    return _row(item, seconds, failures, tracer)


def verdict_library(item: Input, code: ConvolutionalCode, tracer: Tracer) -> dict:
    """analysis-scaling and synth-scaling: the README chain on a parsed code.

    analysis-scaling adds both state-diagram analyses; synth-scaling stops
    at the round trip, as the memory is above the analysis bound.
    """
    analyse = item.workload == "analysis-scaling"
    seed = item.completion_seed

    def chain(failures: List[str], start: float) -> float:
        shortening = tracer.span("shorten.shorten_s", shorten, code)
        short = shortening.output_code
        result = tracer.span("synth.synthesize_s", synthesize, short, seed=seed)
        tableau = tracer.span(
            "tableau.complete_to_clifford_s", complete_to_clifford, result.encoder, seed=seed
        )
        gates = tracer.span("tableau.synthesize_circuit_s", synthesize_circuit, tableau)
        n, k, m = result.encoder.n, result.encoder.k, result.encoder.m
        if analyse:
            cat, cycle = tracer.span(
                "tableau.detect_catastrophic_s",
                detect_catastrophic, tableau, n, k, m, MAX_ANALYSIS_M,
            )
            non_rec, path = tracer.span(
                "tableau.verify_non_recursive_s",
                verify_non_recursive, tableau, n, k, m, MAX_ANALYSIS_M,
            )
        roundtrip = tracer.span("tableau.roundtrip_verify_s", roundtrip_verify, tableau, short)
        seconds = time.perf_counter() - start

        _check(failures, result.m == item.m, f"m={result.m}, frozen {item.m}")
        _check(failures, roundtrip == 1, "roundtrip is 0")
        _check_circuit(failures, tableau, gates)
        if analyse:
            _check_analysis(failures, item, tableau, n, k, m, cat, cycle, non_rec, path)
        if tracer.enabled:
            tracer.count("shorten.steps", len(shortening.steps))
            tracer.count("synth.m", result.m)
            tracer.count("tableau.width", tableau.width)
            tracer.count("tableau.gates", len(gates))
            _synth_probes(tracer, short, seed)
            if analyse:
                tracer.count("tableau.cycle_witness_edges", len(cycle.edges) if cycle else 0)
                tracer.count("tableau.recursion_witness_edges", len(path or []))
                _enumeration_probe(tracer, tableau, n, k, m)
        return seconds

    return _guarded(item, tracer, chain)


def verdict_audit(item: Input, code: ConvolutionalCode, tracer: Tracer) -> dict:
    """catastrophic-audit: complete the partial encoder without added rows."""
    seed = item.completion_seed

    def chain(failures: List[str], start: float) -> float:
        shortening = tracer.span("shorten.shorten_s", shorten, code)
        short = shortening.output_code
        omega = tracer.span("synth.build_commutativity_matrix_s", build_commutativity_matrix, short)
        m = minimal_memory(omega)
        table = tracer.span("synth.assign_memory_operators_s", assign_memory_operators, omega)
        encoder = tracer.span(
            "synth.assemble_partial_encoder_s", assemble_partial_encoder, short, table
        )
        tableau = tracer.span(
            "tableau.complete_to_clifford_s", complete_to_clifford, encoder, seed=seed
        )
        n, k = encoder.n, encoder.k
        cat, cycle = tracer.span(
            "tableau.detect_catastrophic_s",
            detect_catastrophic, tableau, n, k, m, MAX_ANALYSIS_M,
        )
        non_rec, path = tracer.span(
            "tableau.verify_non_recursive_s",
            verify_non_recursive, tableau, n, k, m, MAX_ANALYSIS_M,
        )
        roundtrip = tracer.span("tableau.roundtrip_verify_s", roundtrip_verify, tableau, short)
        seconds = time.perf_counter() - start

        _check(failures, m == item.m, f"m={m}, frozen {item.m}")
        _check(failures, roundtrip == 1, "roundtrip is 0")
        _check_analysis(failures, item, tableau, n, k, m, cat, cycle, non_rec, path)
        if tracer.enabled:
            tracer.count("shorten.steps", len(shortening.steps))
            tracer.count("synth.m", m)
            tracer.count("synth.omega_dim", omega.dim)
            tracer.count("synth.omega_rank", omega.rank)
            tracer.count("tableau.width", tableau.width)
            tracer.count("tableau.cycle_witness_edges", len(cycle.edges) if cycle else 0)
            tracer.count("tableau.recursion_witness_edges", len(path or []))
            _enumeration_probe(tracer, tableau, n, k, m)
        return seconds

    return _guarded(item, tracer, chain)


# --- corpus-cli -----------------------------------------------------------------


class CliOracle:
    """Checks one CLI report and remembers reports to compare repeats.

    synthesize, analyze and circuit print the same full-pipeline report, so
    within one pass each file is already repeated three times in fresh
    processes; later passes repeat every command again.
    """

    def __init__(self):
        self.first: Dict[tuple, str] = {}

    def check(self, failures: List[str], item: Input, report: dict) -> None:
        report = {key: value for key, value in report.items() if key != "timing"}
        group = "full" if item.command in _FULL_PIPELINE else item.command
        key = (item.base, item.completion_seed, group)
        text = json.dumps(report, indent=2)
        _check(failures, self.first.setdefault(key, text) == text, "report differs from a repeat")
        _check(failures, report.get("code", {}).get("valid") is True, "code reported invalid")
        if item.command in ("validate", "shorten"):
            return
        _check(failures, report["synth"]["m"] == item.m, f"m={report['synth']['m']}, frozen {item.m}")
        if group != "full":
            return
        analysis = report["analysis"]
        width = analysis["width"]
        _check(failures, analysis["roundtrip"] == 1, "roundtrip is 0")
        _check(failures, analysis["catastrophic"] is False, "added rows left the encoder catastrophic")
        _check(failures, analysis["recursive"] is False, "encoder reported recursive")
        _check(failures, width == item.m + report["code"]["n"], f"tableau width {width}")
        _check(
            failures,
            analysis["gate_count"] == len(analysis["gates"]) <= GATE_COUNT_FACTOR * width * width,
            f"{analysis['gate_count']} gates exceed {GATE_COUNT_FACTOR}*width^2",
        )


def run_child(argv: List[str], timeout: float = 120.0):
    """Run one process to its end: (exit code, stdout, stderr, peak RSS in KiB).

    The peak is the process's own, from wait4, so other children of the
    worker (the host-speed probe) never count towards it.
    """
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: List[str] = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def verdict_cli(item: Input, tracer: Tracer, oracle: CliOracle) -> dict:
    """corpus-cli: one fresh `qconvenc <command> --json` process."""
    if tracer.enabled:
        head = [sys.executable, "-X", "importtime", "-c", CLI_TRACED_ENTRY]
    else:
        head = [sys.executable, "-c", CLI_ENTRY]
    argv = head + [item.command, "--json", "--seed", str(item.completion_seed), item.path]
    failures: List[str] = []
    start = time.perf_counter()
    code, stdout, stderr, maxrss_kb = run_child(argv)
    seconds = time.perf_counter() - start
    report: Optional[dict] = None
    if code != 0:
        failures.append(f"exit {code}: {stderr.strip()[-200:]}")
    else:
        try:
            report = json.loads(stdout)
        except ValueError:
            failures.append("stdout is not one JSON document")
    if report is not None:
        try:
            oracle.check(failures, item, report)
        except (KeyError, TypeError) as exc:
            failures.append(f"report lacks {exc}")
    if tracer.enabled and report is not None:
        _trace_cli(tracer, seconds, start, stderr, report)
    return dict(_row(item, seconds, failures, tracer), maxrss_kb=maxrss_kb)


def _trace_cli(tracer: Tracer, seconds: float, start: float, stderr: str, report: dict) -> None:
    stamp = next(line for line in stderr.splitlines() if line.startswith("perfbench-import "))
    t0, t1 = (float(v) for v in stamp.split()[1:])
    networkx = _NETWORKX_LINE.search(stderr)
    timing = report.get("timing", {})
    stages = sum(timing.values())
    tracer.stages["cli.interpreter_s"] = t0 - start
    tracer.stages["cli.import_s"] = t1 - t0
    tracer.stages["cli.import_networkx_s"] = int(networkx.group(1)) / 1e6 if networkx else 0.0
    tracer.stages["cli.stages_s"] = stages
    tracer.stages["cli.main_self_s"] = seconds - (t0 - start) - (t1 - t0) - stages
    tracer.stages["code.parse_code_s"] = timing.get("parse", 0.0)
    tracer.stages["code.validate_code_s"] = timing.get("validate", 0.0)
    tracer.stages["shorten.shorten_s"] = timing.get("shorten", 0.0)
    tracer.count("shorten.steps", len(report.get("shorten", {}).get("steps", [])))
