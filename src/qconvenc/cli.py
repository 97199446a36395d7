"""Command-line pipeline: parse, validate, shorten, synthesize, analyze.

Every subcommand reads one code file, runs the pipeline far enough for its
output, and reports either human-readable text or a JSON document under the
top-level keys code / shorten / synth / analysis / timing.  Exit codes:
0 success, 1 invalid code, 2 parse failure, 3 synthesis failure, 4 memory
bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .code import ConvolutionalCode, parse_code, serialize_code, validate_code
from .errors import (
    MemoryBoundError,
    ParseError,
    QconvError,
    SynthesisFailureError,
)
from .shorten import ShorteningReport, shorten
from .synth import (
    SynthesisResult,
    build_commutativity_matrix,
    minimal_memory,
    synthesize,
)
from .tableau import (
    DEFAULT_MEMORY_BOUND,
    CliffordTableau,
    complete_to_clifford,
    detect_catastrophic,
    roundtrip_verify,
    synthesize_circuit,
    verify_non_recursive,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_SYNTHESIS = 3
EXIT_BOUND = 4


class _Pipeline:
    """Runs stages in order, collecting report fragments and stage timings."""

    def __init__(self, path: str, seed: int, max_memory: int, skip_shorten: bool):
        self.path = path
        self.seed = seed
        self.max_memory = max_memory
        self.skip_shorten = skip_shorten
        self.report: Dict[str, object] = {}
        self.timing: Dict[str, float] = {}
        self.code: Optional[ConvolutionalCode] = None
        self.working_code: Optional[ConvolutionalCode] = None
        self.shortening: Optional[ShorteningReport] = None
        self.synthesis: Optional[SynthesisResult] = None
        self.tableau: Optional[CliffordTableau] = None
        self.gates = None
        self.analysis: Dict[str, object] = {}

    def _timed(self, name: str, fn):
        start = time.perf_counter()
        result = fn()
        self.timing[name] = round(time.perf_counter() - start, 6)
        return result

    def parse(self) -> ConvolutionalCode:
        def step():
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{self.path} is not UTF-8 text: {exc.reason}") from exc
            return parse_code(text)

        self.code = self._timed("parse", step)
        self.working_code = self.code
        result = self._timed("validate", lambda: validate_code(self.code))
        self.report["code"] = {
            "n": self.code.n,
            "k": self.code.k,
            "generators": [str(g) for g in self.code.generators],
            "valid": result.valid,
            "violations": [list(v) for v in result.violations],
        }
        self.valid = result.valid
        self.violations = result.violations
        return self.code

    def run_shorten(self) -> ConvolutionalCode:
        if self.skip_shorten:
            return self.working_code
        self.shortening = self._timed("shorten", lambda: shorten(self.working_code))
        self.working_code = self.shortening.output_code
        out = self.working_code
        self.report["shorten"] = {
            "steps": [
                {
                    "action": s.action,
                    "generator": s.generator,
                    "partners": list(s.partners),
                    "degree_after": s.degree_after,
                }
                for s in self.shortening.steps
            ],
            "output": {
                "n": out.n,
                "k": out.k,
                "generators": [str(g) for g in out.generators],
            },
        }
        return self.working_code

    def run_omega_only(self):
        def step():
            omega = build_commutativity_matrix(self.working_code)
            return omega, minimal_memory(omega)

        omega, m = self._timed("synth", step)
        self.report["synth"] = {
            "omega": omega.matrix.to_lists(),
            "dim": omega.dim,
            "rank": omega.rank,
            "m": m,
        }
        return omega, m

    def run_synth(self) -> SynthesisResult:
        self.synthesis = self._timed(
            "synth", lambda: synthesize(self.working_code, seed=self.seed)
        )
        result = self.synthesis
        ops = {}
        for i, j in result.table.index_map:
            ops[f"g_{i}_{j}"] = str(result.table.op(i, j))
        self.report["synth"] = {
            "omega": result.omega.matrix.to_lists(),
            "dim": result.omega.dim,
            "rank": result.omega.rank,
            "m": result.m,
            "memory_ops": ops,
            "s1_rows": [row.as_strings() for row in result.context.s1_rows],
            "added_rows": [row.as_strings() for row in result.encoder.added_rows],
        }
        return result

    def run_analysis(self) -> Dict[str, object]:
        encoder = self.synthesis.encoder
        self.tableau = self._timed(
            "complete", lambda: complete_to_clifford(encoder, seed=self.seed)
        )
        self.gates = self._timed("circuit", lambda: synthesize_circuit(self.tableau))
        n, k, m = encoder.n, encoder.k, encoder.m

        def analyze():
            # Both verdicts read the tableau's one zero-physical solve.
            return (
                *detect_catastrophic(self.tableau, n, k, m, self.max_memory),
                *verify_non_recursive(self.tableau, n, k, m, self.max_memory),
            )

        cat, cycle, non_rec, rec_path = self._timed("analyze", analyze)
        roundtrip = roundtrip_verify(self.tableau, self.working_code)
        cycle_json = None
        if cycle is not None:
            cycle_json = {
                "vertices": [str(v) for v in cycle.vertices],
                "edges": [e.as_strings() for e in cycle.edges],
                "logical_weight": cycle.logical_weight,
            }
        rec_json = None
        if rec_path is not None:
            rec_json = {
                "vertices": [str(rec_path[0].mem_from)] if rec_path else [],
                "edges": [e.as_strings() for e in rec_path],
            }
            if rec_path:
                rec_json["vertices"] += [str(e.mem_to) for e in rec_path]
        self.analysis = {
            "width": self.tableau.width,
            "roundtrip": roundtrip,
            "catastrophic": cat,
            "recursive": not non_rec,
            "cycle_witness": cycle_json,
            "recursion_witness": rec_json,
            "gate_count": len(self.gates),
            "gates": [g.as_json() for g in self.gates],
        }
        self.report["analysis"] = self.analysis
        return self.analysis

    def finish_report(self) -> Dict[str, object]:
        self.report["timing"] = self.timing
        return self.report


def _print_json(report: Dict[str, object]) -> None:
    print(json.dumps(report, indent=2))


def _print_violations(violations) -> None:
    for i, j, t in violations:
        print(f"({i}, {j}, {t})", file=sys.stderr)


def cmd_validate(args) -> int:
    pipe = _Pipeline(args.file, args.seed, args.max_memory, skip_shorten=True)
    pipe.parse()
    if args.json:
        _print_json(pipe.finish_report())
    if not pipe.valid:
        _print_violations(pipe.violations)
        return EXIT_INVALID
    if not args.json:
        print(f"{args.file}: valid")
    return EXIT_OK


def _require_valid(pipe: "_Pipeline") -> None:
    if not pipe.valid:
        _print_violations(pipe.violations)
        raise SystemExit(EXIT_INVALID)


def cmd_shorten(args) -> int:
    pipe = _Pipeline(args.file, args.seed, args.max_memory, skip_shorten=False)
    pipe.parse()
    _require_valid(pipe)
    pipe.run_shorten()
    if args.json:
        _print_json(pipe.finish_report())
        return EXIT_OK
    for step in pipe.shortening.steps:
        partners = ",".join(str(p) for p in step.partners) or "-"
        print(
            f"step: {step.action} generator={step.generator} "
            f"partners={partners} degree_after={step.degree_after}",
            file=sys.stderr,
        )
    sys.stdout.write(serialize_code(pipe.working_code))
    return EXIT_OK


def cmd_omega(args) -> int:
    pipe = _Pipeline(args.file, args.seed, args.max_memory, args.skip_shorten)
    pipe.parse()
    _require_valid(pipe)
    pipe.run_shorten()
    omega, m = pipe.run_omega_only()
    if args.json:
        _print_json(pipe.finish_report())
        return EXIT_OK
    for row in omega.matrix.to_lists():
        print(" ".join(str(v) for v in row))
    print(f"dim={omega.dim} rank={omega.rank} m={m}")
    return EXIT_OK


def _full_pipeline(args) -> "_Pipeline":
    pipe = _Pipeline(args.file, args.seed, args.max_memory, args.skip_shorten)
    pipe.parse()
    _require_valid(pipe)
    pipe.run_shorten()
    pipe.run_synth()
    pipe.run_analysis()
    return pipe


def cmd_synthesize(args) -> int:
    pipe = _full_pipeline(args)
    if args.json:
        _print_json(pipe.finish_report())
        return EXIT_OK
    result = pipe.synthesis
    code = pipe.working_code
    print(f"n={code.n} k={code.k} m={result.m}")
    print(f"omega: dim={result.omega.dim} rank={result.omega.rank}")
    print("memory operators:")
    for i, j in result.table.index_map:
        print(f"  g_{i}_{j} = {result.table.op(i, j)}")
    print(f"s1 rows ({len(result.context.s1_rows)}):")
    for row in result.context.s1_rows:
        print("  " + _row_text(row))
    print(f"added rows ({len(result.encoder.added_rows)}):")
    for row in result.encoder.added_rows:
        print("  " + _row_text(row))
    analysis = pipe.analysis
    print(
        f"tableau width={analysis['width']} gates={analysis['gate_count']} "
        f"roundtrip={analysis['roundtrip']}"
    )
    print(
        f"catastrophic={str(analysis['catastrophic']).lower()} "
        f"recursive={str(analysis['recursive']).lower()}"
    )
    return EXIT_OK


def _row_text(row) -> str:
    s = row.as_strings()
    return (
        f"{s['mem_in']}|{s['anc_in']}|{s['info_in']} -> "
        f"{s['phys_out']}|{s['mem_out']}"
    )


def cmd_analyze(args) -> int:
    pipe = _full_pipeline(args)
    if args.json:
        _print_json(pipe.finish_report())
        return EXIT_OK
    analysis = pipe.analysis
    print(f"catastrophic={str(analysis['catastrophic']).lower()}")
    print(f"recursive={str(analysis['recursive']).lower()}")
    if analysis["cycle_witness"] is not None:
        witness = analysis["cycle_witness"]
        print("cycle witness vertices: " + " -> ".join(witness["vertices"]))
    if analysis["recursion_witness"] is not None:
        witness = analysis["recursion_witness"]
        print("recursion witness vertices: " + " -> ".join(witness["vertices"]))
    return EXIT_OK


def cmd_circuit(args) -> int:
    pipe = _full_pipeline(args)
    if args.json:
        _print_json(pipe.finish_report())
        return EXIT_OK
    for gate in pipe.gates:
        print(gate.kind + " " + " ".join(str(q) for q in gate.qubits))
    return EXIT_OK


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
    sub.add_parser("validate", parents=[common]).set_defaults(fn=cmd_validate)
    sub.add_parser("shorten", parents=[common]).set_defaults(fn=cmd_shorten)
    sub.add_parser("omega", parents=[common]).set_defaults(fn=cmd_omega)
    sub.add_parser("synthesize", parents=[common]).set_defaults(fn=cmd_synthesize)
    sub.add_parser("analyze", parents=[common]).set_defaults(fn=cmd_analyze)
    sub.add_parser("circuit", parents=[common]).set_defaults(fn=cmd_circuit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SynthesisFailureError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except MemoryBoundError as exc:
        print(f"analysis refused: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except SystemExit as exc:
        return int(exc.code)
    except QconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
