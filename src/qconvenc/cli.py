"""Command-line pipeline: parse, validate, shorten, synthesize, analyze.

Every subcommand reads one code file and runs the stages in order, up to
the last one ``_LAST_STAGE`` gives it:

    validate                        parse, validate (the "code" report)
    shorten                         ... shorten
    omega                           ... shorten, omega
    synthesize, analyze, circuit    ... shorten, synth, complete, circuit,
                                    analyze (the "analysis" report)

``--skip-shorten`` drops the shorten stage of the commands after
``shorten``, and an invalid code stops the run after the code report.  The
output is human-readable text or a JSON document under the top-level keys
code / shorten / synth / analysis / timing; ``timing`` holds the seconds of
each stage run, under parse, validate, shorten, synth (omega or synth),
complete, circuit and analyze.  Exit codes: 0 success, 1 invalid code,
2 parse failure, 3 synthesis failure, 4 memory bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .code import ConvolutionalCode, parse_code, serialize_code, validate_code
from .errors import (
    DEFAULT_MEMORY_BOUND,
    MemoryBoundError,
    ParseError,
    QconvError,
    SynthesisFailureError,
)

if TYPE_CHECKING:
    from .synth import EncoderRow, MemoryCommutativityMatrix, PartialEncoder

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SYNTHESIS = 3
EXIT_BOUND = 4

_LAST_STAGE = {
    "validate": "code",
    "shorten": "shorten",
    "omega": "omega",
    "synthesize": "analysis",
    "analyze": "analysis",
    "circuit": "analysis",
}


def _read_code(path: str) -> ConvolutionalCode:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    return parse_code(text)


def _code_json(code: ConvolutionalCode) -> Dict[str, object]:
    return {"n": code.n, "k": code.k, "generators": [str(g) for g in code.generators]}


def _omega_json(omega: MemoryCommutativityMatrix, m: int) -> Dict[str, object]:
    entries = [[(row >> s) & 1 for s in range(omega.dim)] for row in omega.rows]
    # minimal_memory checked m = dim - rank / 2, so the rank is not eliminated again.
    return {"omega": entries, "dim": omega.dim, "rank": 2 * (omega.dim - m), "m": m}


def _row_json(encoder: PartialEncoder, row: EncoderRow) -> Dict[str, str]:
    return {key: str(part) for key, part in encoder.parts(row).items()}


def _run(args) -> Tuple[Dict[str, object], ConvolutionalCode]:
    """The report of ``args.command`` and the code its last stage read.

    Runs the stages in order up to the command's last one, timing each.
    Each stage's module is imported where the run reaches it, outside its
    timing, so a command compiles only the stages it runs.
    """
    last = _LAST_STAGE[args.command]
    report: Dict[str, object] = {}
    timing: Dict[str, float] = {}

    def timed(name: str, fn, *fn_args):
        start = time.perf_counter()
        result = fn(*fn_args)
        timing[name] = round(time.perf_counter() - start, 6)
        return result

    code = timed("parse", _read_code, args.file)
    check = timed("validate", validate_code, code)
    report["code"] = {
        **_code_json(code),
        "valid": check.valid,
        "violations": [list(v) for v in check.violations],
    }
    if check.valid and last != "code":
        if last == "shorten" or not args.skip_shorten:
            from .shorten import shorten

            shortening = timed("shorten", shorten, code)
            code = shortening.output_code
            report["shorten"] = {
                "steps": [step._asdict() for step in shortening.steps],
                "output": _code_json(code),
            }
        if last == "omega":
            from .synth import build_commutativity_matrix, minimal_memory

            report["synth"] = _omega_json(*timed(
                "synth", lambda: (omega := build_commutativity_matrix(code), minimal_memory(omega))
            ))
        elif last == "analysis":
            from .synth import synthesize
            from .tableau import (
                complete_to_clifford,
                detect_catastrophic,
                roundtrip_verify,
                synthesize_circuit,
                verify_non_recursive,
            )

            result = timed("synth", synthesize, code, args.seed)
            encoder = result.encoder
            table = encoder.memory_ops
            report["synth"] = {
                **_omega_json(result.omega, result.m),
                "memory_ops": {f"g_{i}_{j}": str(table.op(i, j)) for i, j in table.index_map},
                "s1_rows": [_row_json(encoder, row) for row in result.context.s1_rows],
                "added_rows": [_row_json(encoder, row) for row in encoder.added_rows],
            }
            tableau = timed("complete", complete_to_clifford, encoder, args.seed)
            gates = timed("circuit", synthesize_circuit, tableau)
            shape = (tableau, encoder.n, encoder.k, encoder.m, args.max_memory)
            # Both verdicts read the tableau's one zero-physical solve.
            cat, cycle, non_rec, rec_path = timed(
                "analyze", lambda: (*detect_catastrophic(*shape), *verify_non_recursive(*shape))
            )
            report["analysis"] = {
                "width": tableau.width,
                "roundtrip": roundtrip_verify(tableau, code),
                "catastrophic": cat,
                "recursive": not non_rec,
                "cycle_witness": None if cycle is None else {
                    "vertices": [str(v) for v in cycle.vertices],
                    "edges": [e.as_strings() for e in cycle.edges],
                    "logical_weight": cycle.logical_weight,
                },
                "recursion_witness": None if rec_path is None else {
                    "vertices": [str(e.mem_from) for e in rec_path[:1]]
                    + [str(e.mem_to) for e in rec_path],
                    "edges": [e.as_strings() for e in rec_path],
                },
                "gate_count": len(gates),
                "gates": [gate._asdict() for gate in gates],
            }
    report["timing"] = timing
    return report, code


def _print_text(args, report: Dict[str, object], code: ConvolutionalCode) -> None:
    """The text output of a successful run, read from its report."""
    synth, analysis = report.get("synth"), report.get("analysis")
    if args.command == "validate":
        print(f"{args.file}: valid")
    elif args.command == "shorten":
        for step in report["shorten"]["steps"]:
            partners = ",".join(str(p) for p in step["partners"]) or "-"
            print(
                f"step: {step['action']} generator={step['generator']} "
                f"partners={partners} degree_after={step['degree_after']}",
                file=sys.stderr,
            )
        sys.stdout.write(serialize_code(code))
    elif args.command == "omega":
        for row in synth["omega"]:
            print(" ".join(str(v) for v in row))
        print(f"dim={synth['dim']} rank={synth['rank']} m={synth['m']}")
    elif args.command == "synthesize":
        print(f"n={code.n} k={code.k} m={synth['m']}")
        print(f"omega: dim={synth['dim']} rank={synth['rank']}")
        print("memory operators:")
        for name, op in synth["memory_ops"].items():
            print(f"  {name} = {op}")
        for kind in ("s1", "added"):
            rows = synth[f"{kind}_rows"]
            print(f"{kind} rows ({len(rows)}):")
            for s in rows:
                print(
                    f"  {s['mem_in']}|{s['anc_in']}|{s['info_in']} -> "
                    f"{s['phys_out']}|{s['mem_out']}"
                )
        print(
            f"tableau width={analysis['width']} gates={analysis['gate_count']} "
            f"roundtrip={analysis['roundtrip']}"
        )
        print(
            f"catastrophic={str(analysis['catastrophic']).lower()} "
            f"recursive={str(analysis['recursive']).lower()}"
        )
    elif args.command == "analyze":
        print(f"catastrophic={str(analysis['catastrophic']).lower()}")
        print(f"recursive={str(analysis['recursive']).lower()}")
        for kind in ("cycle", "recursion"):
            witness = analysis[f"{kind}_witness"]
            if witness is not None:
                print(f"{kind} witness vertices: " + " -> ".join(witness["vertices"]))
    else:
        for gate in analysis["gates"]:
            print(" ".join([gate["kind"], *(str(q) for q in gate["qubits"])]))


def u64(text: str) -> int:
    """An integer in 0..2**64-1; ``random.Random`` would read a seed -s as s."""
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} is not in 0..2**64-1")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconvenc",
        description="Encoder synthesis and analysis for quantum convolutional codes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="code file in the h-line grammar")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--seed", type=u64, default=0, help="seed for completion choices (0..2**64-1)"
    )
    common.add_argument(
        "--max-memory",
        type=int,
        default=DEFAULT_MEMORY_BOUND,
        help="refuse state-diagram analysis above this memory-qubit count",
    )
    common.add_argument(
        "--skip-shorten",
        action="store_true",
        help="skip the degree-reduction pass",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _LAST_STAGE:
        sub.add_parser(command, parents=[common])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _run(args)
        valid = report["code"]["valid"]
        if args.json and (valid or args.command == "validate"):
            print(json.dumps(report, indent=2))
        for i, j, t in report["code"]["violations"]:
            print(f"({i}, {j}, {t})", file=sys.stderr)
        if not valid:
            return EXIT_INVALID
        if not args.json:
            _print_text(args, report, code)
        return EXIT_OK
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SynthesisFailureError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except MemoryBoundError as exc:
        print(f"analysis refused: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except QconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
