"""Tests of the benchmark itself: inputs, frozen tables, oracle and output.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import inspect
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import family
import hostspeed
import run
import workloads
from family import (
    ANALYSIS_INPUTS,
    AUDIT_INPUTS,
    AUDIT_VERDICTS,
    BASE_M,
    MAX_ANALYSIS_M,
    SYNTH_INPUTS,
    expected_m,
    inflate,
    load_corpus,
    make_inputs,
    workload_rng,
)
from qconvenc import build_commutativity_matrix, minimal_memory, shorten, validate_code
from qconvenc.shorten import group_equivalent

ALL_PAIRS = sorted(
    {(b, 0) for b in BASE_M} | set(ANALYSIS_INPUTS) | set(AUDIT_INPUTS) | set(SYNTH_INPUTS)
)


@pytest.mark.parametrize("base,d", ALL_PAIRS)
def test_generator_yields_expected_m(base, d):
    code = inflate(load_corpus(base), d)
    assert validate_code(code).valid
    report = shorten(code)
    assert report.steps == [] and report.output_code == code
    assert minimal_memory(build_commutativity_matrix(code)) == expected_m(base, d)
    if d:
        # g1 * D^d g1 drops g1 from the group: a proper subgroup, not the same code.
        assert group_equivalent(code, load_corpus(base)) == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_frozen_tables_cover_every_input(workload):
    for seed in range(20):
        for item in make_inputs(workload, random.Random(seed)):
            assert item.base in BASE_M
            if workload == "corpus-cli":
                assert item.d == 0 and item.command in family.CLI_COMMANDS
            if workload in ("analysis-scaling", "catastrophic-audit"):
                assert item.m <= MAX_ANALYSIS_M
            if workload == "catastrophic-audit":
                assert (item.base, item.d, item.completion_seed) in AUDIT_VERDICTS
    verdicts = set(AUDIT_VERDICTS.values())
    assert (True, True) in verdicts and (True, False) in verdicts
    assert all(cat for cat, rec in verdicts if rec), "recursive implies catastrophic"


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        a, b = workload_rng(workload, 7), workload_rng(workload, 7)
        assert make_inputs(workload, a) == make_inputs(workload, b)


def test_analysis_inputs_are_guarded(monkeypatch):
    monkeypatch.setattr(family, "ANALYSIS_INPUTS", [("forney8", 6)])
    with pytest.raises(ValueError, match="m <= 9"):
        make_inputs("analysis-scaling", random.Random(0))


def test_wrong_frozen_verdict_is_a_failure(monkeypatch):
    item = family.Input("catastrophic-audit", "running2", 0, 3)
    code = inflate(load_corpus("running2"), 0)
    row = workloads.verdict_audit(item, code, workloads.Tracer(True))
    assert row["failures"] == []
    assert row["counts"]["tableau.cycle_witness_edges"] >= 1
    monkeypatch.setitem(workloads.AUDIT_VERDICTS, ("running2", 0, 3), (False, False))
    row = workloads.verdict_audit(item, code, workloads.Tracer(False))
    assert any("frozen" in f for f in row["failures"])


def test_cli_repeat_mismatch_is_a_failure():
    oracle = workloads.CliOracle()
    item = family.Input("corpus-cli", "running1", 0, 0, "validate")
    report = {"code": {"valid": True, "generators": ["X"]}, "timing": {"parse": 1.0}}
    failures = []
    oracle.check(failures, item, report)
    oracle.check(failures, item, dict(report, timing={"parse": 2.0}))
    assert failures == []
    oracle.check(failures, item, {"code": {"valid": True, "generators": ["Z"]}})
    assert failures == ["report differs from a repeat"]


def test_every_named_metric_is_emitted_with_its_unit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    row = {
        "input": 0, "key": "a", "pass": 0, "seconds": 0.5, "at": 0.0, "failures": [],
        "stages": {"tableau.detect_catastrophic_s": 0.3, "tableau.zero_physical_edges_s": 0.1},
        "counts": {"tableau.edges": 1024},
    }
    slow = dict(row, input=1, key="b", seconds=1.5)
    probes = [(0.0, hostspeed.PROBE_NOMINAL_S)]
    e2e = run.end_to_end([row, slow, dict(slow, seconds=2.5)], probes, 0.2, 40960)
    layers = run.per_layer([row], [row])
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert {k: v["unit"] for k, v in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    # Input 1 is the median of its two repeats, 2.0 s.
    assert e2e["verdict_s_p50"]["value"] == 1.25 and e2e["peak_rss_mb"]["value"] == 40.0
    assert layers["tableau.scc_witness_s"]["value"] == pytest.approx(0.2)
    assert layers["tableau.edges_per_s"]["value"] == pytest.approx(10240)


def test_times_are_scaled_by_the_nearest_probes():
    nominal = hostspeed.PROBE_NOMINAL_S
    # A slow spell doubles the probe from t = 10 on; a verdict inside it
    # counts at half its wall time, one before it at its wall time.
    probes = [(t, nominal) for t in range(10)] + [(t, 2 * nominal) for t in range(10, 20)]
    rows = [{"input": 0, "seconds": 1.0, "at": 2.0}, {"input": 1, "seconds": 1.0, "at": 15.0}]
    assert hostspeed.normalised(rows, probes) == [1.0, 0.5]


def test_a_code_is_the_median_over_its_inputs():
    probes = [(0.0, hostspeed.PROBE_NOMINAL_S)]
    rows = [
        {"input": i, "key": key, "seconds": seconds, "at": 0.0}
        for i, (key, seconds) in enumerate([("a", 1.0), ("a", 2.0), ("a", 9.0), ("b", 4.0)])
    ]
    assert sorted(run.per_code(rows, probes)) == [2.0, 4.0]


def test_analysis_codes_draw_several_completions():
    inputs = make_inputs("analysis-scaling", workload_rng("analysis-scaling", 1))
    keys = {item.key for item in inputs}
    assert len(keys) == len(ANALYSIS_INPUTS)
    assert len(inputs) == len(keys) * family.ANALYSIS_COMPLETIONS
    assert len({(item.key, item.completion_seed) for item in inputs}) == len(inputs)


def test_every_layer_metric_is_measured_somewhere():
    """Each declared per-layer name is a stage, count or derived value the code fills."""
    sources = inspect.getsource(workloads) + inspect.getsource(run)
    for name in run.declared("per_layer"):
        assert f'"{name}"' in sources, name


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
