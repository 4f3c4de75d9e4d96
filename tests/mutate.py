"""A mutation pass: which boundaries in a module does no test pin?

Run from the repository root, one or more modules at a time (CI runs it
over ``cache.py``):

    python3 tests/mutate.py src/semcache/sim.py --tests tests/test_sim.py tests/test_experiments.py

It makes one mutant per site: each comparison operator flipped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in``
and ``not in``), each ``+`` and ``-`` swapped (``+=`` and ``-=`` too) and
each ``and`` and ``or`` swapped.  For each mutant it writes the mutated
module, as ``ast.unparse`` prints it, into a copy of the tree in a
temporary directory and runs the test files there with ``-x`` and a fixed
hypothesis seed.  A mutant that the tests pass survives.  A survivor
listed in ``EQUIVALENT`` is reported apart: it behaves as the module does
on every input.  The tests default to ``tests/test_<module>.py``.  The
exit status is 1 if any other mutant survives, and 2 if the unmutated
module, printed the same way, fails its tests.  Not collected by pytest.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPARE = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}

# Mutants that behave as the module does on every input, keyed as the pass
# prints them, "<file>:<function>: <expression> -> <mutated expression>",
# with the reason.
EQUIVALENT = {
    "cache.py:Cache.lookup: now < self._clock -> now <= self._clock": (
        "on equal times _advance checks again and sets the same clock"
    ),
    "cache.py:Cache.insert: now < self._clock -> now <= self._clock": (
        "on equal times _advance checks again and sets the same clock"
    ),
    "kb.py:load_knowledge_base: len(objs) > 1 -> len(objs) >= 1": (
        "a single object sorts to itself"
    ),
    "sim.py:_claim: busy > t -> busy >= t": "on a tie both give the same time",
    "sim.py:_PreparedTrace.arrivals: busy > t -> busy >= t": "on a tie both give the same time",
    "workload.py:load_trace: len(stripped) <= limit -> len(stripped) < limit": (
        "csv.reader reads a row of exactly the limit as the split does"
    ),
    "workload.py:load_trace: 0 <= time_ms < math.inf -> 0 < time_ms < math.inf": (
        "the inline check only skips _check_entry, which accepts a time of 0 too"
    ),
    "workload.py:generate_trace: rng.random() < spec.p_follow -> rng.random() <= spec.p_follow": (
        "they differ only when a draw is exactly p_follow"
    ),
}


class _Sites(ast.NodeVisitor):
    """Every mutation site of a tree, in a fixed order, as ``(node, op
    index or None, replacement op type, enclosing function)``."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[ast.AST, int | None, type, str]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _add(self, node, index, swap) -> None:
        self.found.append((node, index, swap, ".".join(self.scope) or "<module>"))

    def visit_Compare(self, node) -> None:
        for k, op in enumerate(node.ops):
            if type(op) in COMPARE:
                self._add(node, k, COMPARE[type(op)])
        self.generic_visit(node)

    def _arithmetic(self, node) -> None:
        if type(node.op) in ARITHMETIC:
            self._add(node, None, ARITHMETIC[type(node.op)])
        self.generic_visit(node)

    visit_BinOp = visit_AugAssign = _arithmetic

    def visit_BoolOp(self, node) -> None:
        self._add(node, None, BOOLEAN[type(node.op)])
        self.generic_visit(node)


def sites(source: str) -> tuple[ast.Module, list]:
    tree = ast.parse(source)
    visitor = _Sites()
    visitor.visit(tree)
    return tree, visitor.found


def mutants(source: str, name: str) -> Iterator[tuple[str, int, str]]:
    """Each site of ``source`` mutated in turn: the module's text, the
    site's line and its key (see ``EQUIVALENT``), numbered ``#2`` on if
    the same key comes again."""
    seen: Counter[str] = Counter()
    for index in range(len(sites(source)[1])):
        tree, found = sites(source)
        node, k, swap, where = found[index]
        before = ast.unparse(node)
        if k is None:
            node.op = swap()
        else:
            node.ops[k] = swap()
        key = f"{name}:{where}: {before} -> {ast.unparse(node)}"
        seen[key] += 1
        yield ast.unparse(tree), node.lineno, key + (f" #{seen[key]}" if seen[key] > 1 else "")


def copy_tree(work: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    for name in ("pytest.ini", "pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, work / name)


def run_tests(work: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """``passed``, ``failed`` or ``timeout``, and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    command += ["--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(done.returncode, f"error {done.returncode}")
    return outcome, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path)
    parser.add_argument("--tests", nargs="+", help="test files, from the repository root")
    args = parser.parse_args(argv)

    survivors, equivalent, killed = [], [], 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        for module in args.modules:
            path = module.resolve().relative_to(ROOT)
            target = work / path
            tests = args.tests or [f"tests/test_{path.stem}.py"]
            source = (ROOT / path).read_text(encoding="utf-8")
            target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
            outcome, seconds = run_tests(work, tests, None)
            if outcome != "passed":
                print(f"{path}: the unmutated module {outcome} {' '.join(tests)}")
                return 2
            timeout = max(60.0, 10 * seconds)
            n = len(sites(source)[1])
            print(f"{path}: {n} sites, tests {' '.join(tests)} ({seconds:.1f} s unmutated)")
            for text, line, key in mutants(source, path.name):
                target.write_text(text, encoding="utf-8")
                outcome, seconds = run_tests(work, tests, timeout)
                if outcome == "passed" and key in EQUIVALENT:
                    verdict = f"equivalent: {EQUIVALENT[key]}"
                    equivalent.append(f"{path}:{line} {key}")
                elif outcome == "passed":
                    verdict = "SURVIVED"
                    survivors.append(f"{path}:{line} {key}")
                else:
                    killed += 1
                    verdict = f"killed ({outcome})"
                print(f"  {path}:{line} {key}: {verdict} in {seconds:.1f} s", flush=True)
            target.write_text(source, encoding="utf-8")

    print(f"\n{killed} killed, {len(equivalent)} known equivalent, {len(survivors)} survived")
    for title, found in (("Known equivalent:", equivalent), ("Survivors:", survivors)):
        if found:
            print(title, *found, sep="\n  ")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
