"""Line-coverage probe of the library: does some tier-1 test run each line of
src/qbattery?

Tier-1 runs in this process, as

    python -m pytest -q --continue-on-collection-errors --hypothesis-seed=0 -p no:cacheprovider

with sys.settrace recording every line executed in src/qbattery; frames
elsewhere are not traced.  A module's executable lines are the lines its
compiled code objects map instructions to (co_lines()).  The probe exits 1
when tier-1 fails, when an executable line runs in no test and UNREACHED does
not list it, or when a line UNREACHED lists runs or no longer exists.

    python tests/coverage_probe.py   # tier-1 under the tracer (about a minute)

It uses the standard library only, beside the pytest it runs.  pytest does
not collect it: its name does not start with test_.  It is the line-coverage
partner of tests/mutation_probe.py.
"""

from __future__ import annotations

import os
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qbattery"

# tests start `python -m qbattery` only in subprocesses, which the tracer does not follow
_SUBPROCESS = "runs only as `python -m qbattery`, in a subprocess"

# (module file name, stripped source text) of each executable line no test
# runs in this process, and why
UNREACHED = {
    ("__main__.py", "import sys"): _SUBPROCESS,
    ("__main__.py", "from .cli import main"): _SUBPROCESS,
    ("__main__.py", "sys.exit(main())"): _SUBPROCESS,
    ("cli.py", "sys.exit(main())"): _SUBPROCESS,
}


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> stripped source text of each line that the compiled
    module at `path`, or a code object nested in it, maps an instruction to."""
    source = path.read_text(encoding="utf-8")
    lines, found = source.splitlines(), set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        found.update(line for _, _, line in code.co_lines() if line)  # None, or 0 before line 1
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return {number: lines[number - 1].strip() for number in sorted(found)}


def _tracer(prefix: str, executed: set):
    """A trace function that records (file name, line) of every line run in a
    file under `prefix`, and traces no other frame."""
    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return call


class _Retrace:
    """A pytest plugin that puts the tracer back after each test that lost
    it: the interpreter unsets a trace function it cannot call (a
    RecursionError at the recursion limit).  `lost` names those tests."""

    def __init__(self, tracer):
        self.tracer, self.lost = tracer, []

    def pytest_runtest_teardown(self, item):
        if sys.gettrace() is not self.tracer:
            self.lost.append(item.nodeid)
            sys.settrace(self.tracer)


def main() -> int:
    import pytest  # imports no qbattery module: every module is imported under the tracer

    executed = set()
    tracer = _tracer(str(PACKAGE) + os.sep, executed)
    retrace = _Retrace(tracer)
    os.chdir(ROOT)
    began = time.monotonic()
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0",
                            "-p", "no:cacheprovider"], plugins=[retrace])
    finally:
        sys.settrace(None)
    elapsed = time.monotonic() - began
    problems = [f"tier-1 failed: pytest exit code {code}"] if code else []
    print("\n".join(f"lost the tracer: {nodeid}" for nodeid in retrace.lost))
    found, total = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        for number, text in lines.items():
            key = (path.name, text)
            found.add(key)
            ran = (str(path), number) in executed
            if ran and key in UNREACHED:
                problems.append(f"runs: {path.name}:{number} `{text}` is listed as unreached")
            elif not ran and key not in UNREACHED:
                problems.append(f"unreached: {path.name}:{number} `{text}`")
    problems += [f"stale: {name} `{text}` is listed as unreached but is no executable line"
                 for name, text in UNREACHED.keys() - found]
    print(f"{total} executable lines in {PACKAGE.relative_to(ROOT)}, "
          f"{len(UNREACHED)} listed as unreached; tier-1 traced in {elapsed:.0f} s")
    print("\n".join(problems) or "every executable line runs in a test or is listed as unreached")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
