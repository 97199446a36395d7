"""Mutation census: how many one-token mutants of a module the tests kill.

Usage, from the root of a checkout:

    python3 tools/mutants.py src/qconvenc/pauli.py [more modules ...]
        [--timeout SECONDS] [--tests PYTEST_ARGS]

The checkout is copied to a temporary directory, and the copy's modules
are mutated there, one mutant at a time; the checkout itself is never
written.  Each mutant changes one token of the source text:

- a binary operator: ^ -> |, | -> ^, & -> |, << -> >>, >> -> <<, + -> -, - -> +
  (also in augmented assignments such as ``x ^= y``);
- a comparison: < <-> <=, > <-> >=, == <-> !=;
- an integer literal 0, 1 or 2: 0 -> 1, 1 -> 0, 2 -> 3;
none inside a type annotation.

For each mutant one subprocess runs pytest with ``-x`` (by default over
``tests``, the tier-1 suite) under a per-mutant timeout and a 4 GiB
address-space limit, since a mutated loop can run forever or grow without
bound.  A mutant is killed when pytest fails, runs out of time or memory.
The script prints each survivor as ``path:line:col  old -> new`` with its
source line, col being the 0-based offset of the mutated token in that
line, then the kill rate per module.  It uses only the standard
library, and it is not part of tier-1 or CI: a full census of one module
takes tens of minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, NamedTuple

BINARY = {
    ast.BitXor: ("^", "|"),
    ast.BitOr: ("|", "^"),
    ast.BitAnd: ("&", "|"),
    ast.LShift: ("<<", ">>"),
    ast.RShift: (">>", "<<"),
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
}
COMPARE = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}
CONSTANT = {0: "1", 1: "0", 2: "3"}
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", "__pycache__", ".pytest_cache", "out")


class Mutant(NamedTuple):
    offset: int  # of the token, in characters from the start of the source
    line: int  # 1-based, for the report
    old: str
    new: str


def mutants(source: str) -> List[Mutant]:
    """Every one-token mutant of a module's source, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text))

    def offset(line: int, col: int) -> int:
        # ast counts columns in UTF-8 bytes.
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    tree = ast.parse(source)
    # Annotations are never evaluated (``from __future__ import annotations``).
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    skipped = {id(n) for a in annotations if a is not None for n in ast.walk(a)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in CONSTANT:
            at = offset(node.lineno, node.col_offset)
            found.append(Mutant(at, node.lineno, str(node.value), CONSTANT[node.value]))
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            sites = [(node.left, node.right, BINARY[type(node.op)])]
        elif isinstance(node, ast.AugAssign) and type(node.op) in BINARY:
            old, new = BINARY[type(node.op)]
            sites = [(node.target, node.value, (old + "=", new + "="))]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            sites = [
                (operands[i], operands[i + 1], COMPARE[type(op)])
                for i, op in enumerate(node.ops)
                if type(op) in COMPARE
            ]
        else:
            continue
        for left, right, (old, new) in sites:
            # Between two operands stand only brackets, spaces and the operator.
            start = offset(left.end_lineno, left.end_col_offset)
            at = source.index(old, start, offset(right.lineno, right.col_offset))
            found.append(Mutant(at, source.count("\n", 0, at) + 1, old, new))
    return sorted(found)


def apply(source: str, mutant: Mutant) -> str:
    at = mutant.offset
    return source[:at] + mutant.new + source[at + len(mutant.old) :]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def killed(copy: str, tests: List[str], timeout: float) -> bool:
    """Whether pytest, run once over the copy with ``-x``, fails or times out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return True
    return result.returncode != 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module paths relative to the checkout root")
    parser.add_argument("--timeout", type=float, default=90.0, help="seconds per mutant")
    parser.add_argument("--tests", default="tests", help="pytest arguments, as one string")
    args = parser.parse_args(argv)
    tests = shlex.split(args.tests)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = os.path.join(scratch, "checkout")
        shutil.copytree(os.getcwd(), copy, ignore=IGNORED)
        if killed(copy, tests, args.timeout):
            print("the tests fail on the unmutated checkout", file=sys.stderr)
            return 2
        rates = []
        for module in args.modules:
            path = os.path.join(copy, module)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            sites = mutants(source)
            survivors = []
            start = time.monotonic()
            try:
                for number, mutant in enumerate(sites, start=1):
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(apply(source, mutant))
                    if not killed(copy, tests, args.timeout):
                        survivors.append(mutant)
                        col = mutant.offset - source.rfind("\n", 0, mutant.offset) - 1
                        text = source.splitlines()[mutant.line - 1].strip()
                        print(f"{module}:{mutant.line}:{col}  {mutant.old} -> {mutant.new}  | {text}")
                    print(f"  {module}: {number}/{len(sites)} run, {len(survivors)} survived,"
                          f" {time.monotonic() - start:.0f} s", file=sys.stderr, flush=True)
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(source)
            rates.append((module, len(sites) - len(survivors), len(sites)))
        for module, dead, total in rates:
            share = dead / total if total else 1.0
            print(f"{module}: {dead} of {total} mutants killed ({share:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
