"""Mutation probe of the verdict path: does a one-token change to a verdict
rule fail the tests that pin it?

Each mutant makes one change inside one of TARGETS: it flips one comparison
(< and <=, > and >=, == and !=), swaps one outcome label or class name, swaps
one `and`/`or` or `&`/`|`, or drops one `not` or `~`.  The mutated function is
spliced into a temporary copy of the repository, where

    python -m pytest -x -q --hypothesis-seed=0 tests/test_audit.py tests/test_free_energy.py

runs once per mutant, with hypothesis's draws fixed so that each verdict
repeats; the mutant is killed when that run fails.  The probe exits 1 when a
mutant survives that EQUIVALENT does not name, when a mutant EQUIVALENT names
is killed or no longer exists, or when the unmutated copy fails.

    python tests/mutation_probe.py   # run every mutant (a few minutes)

It uses `ast` and the standard library only.  pytest does not collect it: its
name does not start with test_.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module path -> the functions (Class.method for a method) whose rules are mutated
TARGETS = {
    "src/qbattery/audit.py": ("_classify", "_all_zero_status", "_implication_outcome",
                              "_biconditional_outcome", "ClaimInstance.classes",
                              "ClaimInstance.outcomes", "_claim_rows"),
    "src/qbattery/free_energy.py": ("vanishing_condition",),
}

TESTS = ("tests/test_audit.py", "tests/test_free_energy.py")

_COMPARISONS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
_BOOL_OPS = {ast.And: ast.Or, ast.Or: ast.And}
_BIT_OPS = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd}
# an outcome or status label becomes its opposite, a class the one beside it
_LABELS = {"supporting": "counterexample", "counterexample": "supporting",
           "vacuous": "inconclusive", "inconclusive": "vacuous",
           "violated": "confirmed", "confirmed": "violated"}
_CLASSES = {"ZERO": "STRADDLE", "NONZERO": "STRADDLE", "STRADDLE": "NONZERO"}

# mutants, by key as a run prints it, that no test can kill, and why
EQUIVALENT = {}


def _mutations(node):
    """Each one-token change of node, as a new node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARISONS:
                new = copy.deepcopy(node)
                new.ops[i] = _COMPARISONS[type(op)]()
                yield new
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(_BOOL_OPS[type(node.op)](), node.values)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BIT_OPS:
        yield ast.BinOp(node.left, _BIT_OPS[type(node.op)](), node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        yield node.operand
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in _LABELS:
        yield ast.Constant(_LABELS[node.value])
    elif isinstance(node, ast.Name) and node.id in _CLASSES:
        yield ast.Name(_CLASSES[node.id], ast.Load())


class _Swap(ast.NodeTransformer):
    """Puts `new` in the place of the node at `target` (by identity)."""

    def __init__(self, target, new):
        self.target, self.new = target, new

    def visit(self, node):
        return self.new if node is self.target else self.generic_visit(node)


def _functions(tree):
    """Qualified name -> FunctionDef, for module-level functions and methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return found


def mutants():
    """Every mutant, as (key, module path, the module's mutated source).  A key
    names the function, the source line and the change; a repeat on one line
    gets #2, #3, ..."""
    out, seen = [], Counter()
    for path, names in TARGETS.items():
        source = (ROOT / path).read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        functions = _functions(ast.parse(source))
        for name in names:
            func = functions[name]
            start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
            for node in (node for stmt in func.body for node in ast.walk(stmt)):  # no annotations
                for new in _mutations(node):
                    mutated = _Swap(node, new).visit(copy.deepcopy(func, {id(node): node}))
                    body = textwrap.indent(ast.unparse(mutated), " " * func.col_offset)
                    key = (f"{Path(path).stem}.{name}: `{lines[node.lineno - 1].strip()}`: "
                           f"{ast.unparse(node)} -> {ast.unparse(new)}")
                    seen[key] += 1
                    if seen[key] > 1:
                        key += f" #{seen[key]}"
                    text = "".join(lines[:start]) + body + "\n" + "".join(lines[func.end_lineno:])
                    out.append((key, path, text))
    return out


def _copy_repo(dest: Path) -> None:
    """The files the probe's tests read: the package, the tests, the
    scenarios and pyproject.toml (pytest's settings)."""
    for name in ("src", "tests", "scenarios"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _fails(repo: Path) -> bool:
    """Whether the probe's tests fail in the copy `repo`.  No bytecode is
    written, so a mutated module is never read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--hypothesis-seed=0", *TESTS], cwd=repo, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode != 0


def main() -> int:
    found = mutants()
    problems = [f"stale: {key} is listed as equivalent but is no mutant"
                for key in EQUIVALENT.keys() - {key for key, _, _ in found}]
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        repo = Path(tmp)
        _copy_repo(repo)
        if _fails(repo):
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        began = time.monotonic()
        for key, path, text in found:
            original = (repo / path).read_text(encoding="utf-8")
            (repo / path).write_text(text, encoding="utf-8")
            killed = _fails(repo)
            (repo / path).write_text(original, encoding="utf-8")
            status = "killed" if killed else "equivalent" if key in EQUIVALENT else "SURVIVED"
            print(f"{status:10} {key}", flush=True)
            if killed and key in EQUIVALENT:
                problems.append(f"killed: {key} is listed as equivalent")
            elif not killed and key not in EQUIVALENT:
                problems.append(f"survived: {key}")
    print(f"{len(found)} mutants in {time.monotonic() - began:.0f} s")
    print("\n".join(problems) or "no mutant survives that is not listed as equivalent")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
