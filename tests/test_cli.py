"""End-to-end command-line tests driven through qconvenc.cli.main."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

import qconvenc.tableau as tableau_module
from conftest import corpus_path, load_code
from qconvenc.cli import main
from qconvenc.code import delay_generator, multiply_generators, serialize_code
from qconvenc.pauli import BinaryMatrix
from qconvenc.synth import synthesize
from qconvenc.tableau import Gate, complete_to_clifford, replay_gates
from reference_data import (
    ADDED_ROWS_DERIVED,
    CLI_OUTCOME_DIGEST,
    CLI_REPORT_DIGEST,
    CORPUS,
    MEMORY_OPS_DERIVED,
    OMEGA,
)

INVALID_TEXT = "n=3\nk=1\nh XII\nh ZII\n"
MALFORMED_TEXT = "n=4\nk=2\nh XXXX\n"
NON_UTF8_BYTES = b"\xffn=2\nk=1\nh ZZ\n"


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "invalid.qcc"
    path.write_text(INVALID_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def malformed_file(tmp_path):
    path = tmp_path / "malformed.qcc"
    path.write_text(MALFORMED_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def inflated_file(tmp_path, running1):
    g1, g2 = running1.generators
    blown = multiply_generators(g1, delay_generator(g2, 1))
    padded = type(running1)(running1.n, running1.k, (g1, blown))
    path = tmp_path / "inflated.qcc"
    path.write_text(serialize_code(padded), encoding="utf-8")
    return str(path)


def test_validate_ok(capsys):
    rc = main(["validate", corpus_path("running1")])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out.strip().endswith("valid")


def test_validate_invalid_lists_violations(capsys, invalid_file):
    rc = main(["validate", invalid_file])
    out = capsys.readouterr()
    assert rc == 1
    assert "(1, 2, 0)" in out.err


def test_validate_invalid_json(capsys, invalid_file):
    rc = main(["validate", "--json", invalid_file])
    out = capsys.readouterr()
    assert rc == 1
    report = json.loads(out.out)
    assert report["code"]["valid"] is False
    assert [1, 2, 0] in report["code"]["violations"]


def test_validate_malformed(capsys, malformed_file):
    rc = main(["validate", malformed_file])
    out = capsys.readouterr()
    assert rc == 2
    assert "error:" in out.err


@pytest.mark.parametrize(
    "header", ["n=\u00b2", "n=\u0663"], ids=["superscript-two", "arabic-indic-three"]
)
def test_non_ascii_digit_header_is_a_parse_error(capsys, tmp_path, header):
    # Both pass str.isdigit; int() raises on the first and reads the second as 3.
    path = tmp_path / "digits.qcc"
    path.write_text(header + "\nk=1\nh ZZI\nh IZZ\n", encoding="utf-8")
    rc = main(["validate", str(path)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.err.startswith("error: line 1: n must be a positive integer")
    assert "Traceback" not in out.err


def test_validate_missing_file(capsys, tmp_path):
    rc = main(["validate", str(tmp_path / "absent.qcc")])
    out = capsys.readouterr()
    assert rc == 2
    assert "error:" in out.err


@pytest.mark.parametrize(
    "command", ["validate", "shorten", "omega", "synthesize", "analyze", "circuit"]
)
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "binary.qcc"
    path.write_bytes(NON_UTF8_BYTES)
    rc = main([command, str(path)])
    out = capsys.readouterr()
    assert rc == 2
    assert out.err.startswith("error:")
    assert "not UTF-8 text" in out.err


def test_shorten_recovers_original(capsys, inflated_file, running1):
    rc = main(["shorten", inflated_file])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == serialize_code(running1)
    assert "step: front generator=2" in out.err


def test_shorten_corpus_is_fixed_point(capsys):
    rc = main(["shorten", corpus_path("forney4")])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out == serialize_code(load_code("forney4"))
    assert out.err == ""


def test_omega_text_output(capsys):
    rc = main(["omega", corpus_path("running1")])
    out = capsys.readouterr()
    assert rc == 0
    lines = out.out.strip().splitlines()
    assert lines[-1] == "dim=6 rank=6 m=3"
    parsed = [[int(v) for v in line.split()] for line in lines[:-1]]
    assert parsed == OMEGA["running1"]


def test_omega_json_running2(capsys):
    rc = main(["omega", "--json", corpus_path("running2")])
    out = capsys.readouterr()
    assert rc == 0
    report = json.loads(out.out)
    assert list(report.keys()) == ["code", "shorten", "synth", "timing"]
    assert report["synth"]["omega"] == OMEGA["running2"]
    assert report["synth"]["dim"] == 8
    assert report["synth"]["rank"] == 4
    assert report["synth"]["m"] == 6


def test_omega_skip_shorten_drops_fragment(capsys):
    rc = main(["omega", "--json", "--skip-shorten", corpus_path("running1")])
    out = capsys.readouterr()
    assert rc == 0
    assert list(json.loads(out.out).keys()) == ["code", "synth", "timing"]


def test_synthesize_text_output(capsys):
    rc = main(["synthesize", corpus_path("running1")])
    out = capsys.readouterr()
    assert rc == 0
    assert "n=4 k=2 m=3" in out.out
    assert "g_1_1 = XII" in out.out
    assert "catastrophic=false recursive=false" in out.out


def test_synthesize_json_running2(capsys):
    rc = main(["synthesize", "--json", corpus_path("running2")])
    out = capsys.readouterr()
    assert rc == 0
    report = json.loads(out.out)
    assert list(report.keys()) == ["code", "shorten", "synth", "analysis", "timing"]
    ops = {
        f"g_{i}_{j}": text for (i, j), text in MEMORY_OPS_DERIVED["running2"].items()
    }
    assert report["synth"]["memory_ops"] == ops
    assert report["synth"]["added_rows"] == ADDED_ROWS_DERIVED["running2"]
    analysis = report["analysis"]
    assert analysis["roundtrip"] == 1
    assert analysis["catastrophic"] is False
    assert analysis["recursive"] is False
    assert analysis["cycle_witness"] is None
    assert analysis["gate_count"] == len(analysis["gates"])
    assert analysis["gate_count"] <= 8 * analysis["width"] ** 2


def test_json_deterministic_for_fixed_seed(capsys):
    args = ["synthesize", "--json", "--seed", "5", corpus_path("running2")]
    rc1 = main(args)
    first = capsys.readouterr().out
    rc2 = main(args)
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    a = json.loads(first)
    b = json.loads(second)
    del a["timing"]
    del b["timing"]
    assert json.dumps(a, indent=2) == json.dumps(b, indent=2)


@pytest.mark.parametrize("seed", ["-3", str(2**64), "3.5"], ids=["negative", "2**64", "fraction"])
def test_seed_outside_u64_is_a_usage_error(capsys, seed):
    # random.Random reads a seed -s as s, so a negative seed would alias a
    # positive one instead of being refused.
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--json", "--seed", seed, corpus_path("forney8")])
    out = capsys.readouterr()
    assert info.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: qconvenc analyze")
    assert "argument --seed:" in out.err
    assert "Traceback" not in out.err


def test_largest_u64_seed_is_accepted(capsys):
    assert main(["synthesize", "--seed", str(2**64 - 1), corpus_path("running1")]) == 0
    assert capsys.readouterr().out.startswith("n=4 k=2 m=3\n")


def test_analyze_text_output(capsys):
    rc = main(["analyze", corpus_path("forney6")])
    out = capsys.readouterr()
    assert rc == 0
    assert "catastrophic=false" in out.out
    assert "recursive=false" in out.out
    assert "recursion witness vertices:" in out.out


def test_analyze_memory_bound(capsys):
    rc = main(["analyze", "--max-memory", "4", corpus_path("gr07-third")])
    out = capsys.readouterr()
    assert rc == 4
    assert out.err == (
        "analysis refused: m=6 memory qubits exceed the --max-memory bound of 4\n"
    )


def test_synthesis_past_sys_maxsize_centralizer_span_ends_in_an_exit_code(capsys, tmp_path):
    # m = 67 and 65 centralizer words: the random completion once raised
    # OverflowError; now synthesis succeeds and the analysis bound refuses.
    code = load_code("gr07-third")
    g1, g2 = code.generators
    code = type(code)(
        code.n,
        code.k,
        (
            multiply_generators(g1, delay_generator(g1, 1)),
            multiply_generators(g2, delay_generator(g2, 60)),
        ),
    )
    path = tmp_path / "wide.qcc"
    path.write_text(serialize_code(code), encoding="utf-8")
    rc = main(["synthesize", str(path)])
    out = capsys.readouterr()
    assert rc == 4
    assert out.err == (
        "analysis refused: m=67 memory qubits exceed the --max-memory bound of 8\n"
    )


def test_analyze_gr07_with_default_bound(capsys):
    rc = main(["analyze", corpus_path("gr07-third")])
    out = capsys.readouterr()
    assert rc == 0
    assert "catastrophic=false" in out.out


def test_circuit_output_replays(capsys):
    rc = main(["circuit", corpus_path("running1")])
    out = capsys.readouterr()
    assert rc == 0
    gates = []
    for line in out.out.strip().splitlines():
        parts = line.split()
        assert parts[0] in ("h", "s", "cnot", "cz")
        gates.append(Gate(parts[0], tuple(int(q) for q in parts[1:])))
    result = synthesize(load_code("running1"))
    tableau = complete_to_clifford(result.encoder)
    assert replay_gates(tableau.width, gates) == tableau


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "qconvenc.cli", "validate", corpus_path("running1")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


TRAILING_IDENTITY = [
    ("n=3\nk=1\nh ZZI|III\nh IZZ\n", ["ZZI", "IZZ"]),
    ("n=2\nk=1\nh ZI|IZ|II\n", ["ZI|IZ"]),
    ("n=3\nk=2\nh IIX|III\n", ["IIX"]),
]


@pytest.mark.parametrize("text,trimmed", TRAILING_IDENTITY)
def test_trailing_identity_frames_are_trimmed(capsys, tmp_path, text, trimmed):
    path = tmp_path / "trailing.qcc"
    path.write_text(text, encoding="utf-8")
    assert main(["shorten", "--json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["code"]["generators"] == trimmed
    assert report["shorten"]["output"]["generators"] == trimmed
    assert main(["synthesize", str(path)]) == 0


def test_cli_import_leaves_networkx_unloaded():
    probe = "import sys, qconvenc.cli; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_machinery_unloaded():
    # Only what the import adds counts, whatever the host preloads; -S keeps
    # site's own imports out as well.
    package_root = os.path.dirname(os.path.dirname(sys.modules["qconvenc"].__file__))
    probe = (
        f"import sys; sys.path.insert(0, {package_root!r}); before = set(sys.modules); "
        "import qconvenc.cli; print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "qconvenc.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_analysis_builds_one_state_diagram(monkeypatch):
    # Both verdicts read one realisation, so one cycle_core per tableau.
    calls = []
    cycle_core = tableau_module.cycle_core

    def counted(*args):
        calls.append(args)
        return cycle_core(*args)

    monkeypatch.setattr(tableau_module, "cycle_core", counted)
    with redirect_stdout(io.StringIO()):
        assert main(["analyze", "--json", corpus_path("forney8")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["omega", "synthesize"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_run_eliminates_omega_for_its_rank_once(monkeypatch, command, json_flag):
    calls = []
    rank = BinaryMatrix.rank

    def counted(matrix):
        calls.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(BinaryMatrix, "rank", counted)
    with redirect_stdout(io.StringIO()):
        assert main([command, *json_flag, corpus_path("forney8")]) == 0
    assert len(calls) == 1


SUBCOMMANDS = ["validate", "shorten", "omega", "synthesize", "analyze", "circuit"]


def cli_report_digest() -> str:
    """sha256 of every corpus file x subcommand x seed 0, 1, 7 run through main.

    Each run adds the line "<file> <cmd> <seed> <exit code> <stdout JSON
    without timing, key order kept> <stderr>".
    """
    digest = hashlib.sha256()
    for name in CORPUS:
        for cmd in SUBCOMMANDS:
            for seed in (0, 1, 7):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = main([cmd, "--json", "--seed", str(seed), corpus_path(name)])
                report = json.loads(out.getvalue())
                del report["timing"]
                line = f"{name} {cmd} {seed} {rc} {json.dumps(report)} {err.getvalue()}\n"
                digest.update(line.encode())
    return digest.hexdigest()


def test_cli_reports_match_pinned_digest():
    assert cli_report_digest() == CLI_REPORT_DIGEST


def test_cli_reports_match_pinned_digest_under_optimized_mode():
    # Stripped asserts must not change any report.
    script = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
        "from test_cli import cli_report_digest; print(cli_report_digest())"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == CLI_REPORT_DIGEST


BAD_INPUTS = {
    "invalid": INVALID_TEXT.encode(),
    "malformed": MALFORMED_TEXT.encode(),
    "non-utf8": NON_UTF8_BYTES,
}


def cli_outcome_digest() -> str:
    """sha256 of every input x subcommand x option set run through main.

    The inputs are the corpus files and BAD_INPUTS; the options are seed 0
    or 7, --json or text, with or without --skip-shorten, and the default
    or a --max-memory of 4.  Each run adds the line "<input> <cmd>
    <options> <exit code> <stdout> <stderr>", where the file's path reads
    as its input name and a JSON report is compacted without its timing.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: corpus_path(name) for name in CORPUS}
        for name, data in BAD_INPUTS.items():
            paths[name] = os.path.join(tmp, name + ".qcc")
            with open(paths[name], "wb") as handle:
                handle.write(data)
        option_sets = itertools.product(
            (["--seed", "0"], ["--seed", "7"]),
            (["--json"], []),
            ([], ["--skip-shorten"]),
            ([], ["--max-memory", "4"]),
        )
        option_sets = [sum(parts, []) for parts in option_sets]
        for (name, path), cmd, options in itertools.product(
            paths.items(), SUBCOMMANDS, option_sets
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main([cmd, *options, path])
            stdout = out.getvalue()
            if "--json" in options and stdout:
                report = json.loads(stdout)
                del report["timing"]
                stdout = json.dumps(report)
            line = " ".join([name, cmd, *options, str(rc), stdout, err.getvalue()])
            digest.update((line.replace(path, name) + "\n").encode())
    return digest.hexdigest()


def test_cli_outcomes_match_pinned_digest():
    assert cli_outcome_digest() == CLI_OUTCOME_DIGEST
