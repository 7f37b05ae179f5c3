"""Lines of ``src/mmcvqkd/`` that the tier-1 suite never runs.

Runs tier-1 in this process under ``sys.settrace`` (and ``threading.settrace``
for threads it starts), with no dependency beyond pytest. A line is executable
if the compiled module maps an instruction to it. Prints each executable line
that no test ran and exits 1 if any is listed other than ``cli.py``'s
``__main__`` call, or if tier-1 fails. Code run only in a forked worker is not
seen. Run from the repository root:

    PYTHONPATH=src python3 tests/line_coverage.py [pytest arguments]
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmcvqkd"
TIER1_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# Runs only when the module is executed as a script, never under pytest.
NEVER_RUN = {("cli.py", "sys.exit(main())")}


def code_lines(code) -> set[int]:
    """The lines the instructions of ``code`` itself map to (a module's first
    instruction maps to line 0)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set[int]:
    """Every line of the module's code, or of any code nested in it."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines |= code_lines(code)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status and the lines it ran in each file of the package.

    Each code object of the package is traced line by line only until every one
    of its lines has run, so hot kernels soon run untraced.
    """
    pending: dict = {}  # code object of the package -> its lines not yet run
    outside: set = set()  # code objects of every other file

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code in outside:
            return None
        todo = pending.get(code)
        if todo is None:
            if Path(code.co_filename).resolve().parent != PACKAGE:
                outside.add(code)
                return None
            todo = pending[code] = code_lines(code)
        # A function's first instruction maps to its def line and raises no line event.
        todo.discard(code.co_firstlineno)
        if not todo:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, todo in pending.items():
        ran.setdefault(str(Path(code.co_filename).resolve()), set()).update(code_lines(code) - todo)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run_traced(TIER1_ARGS + argv)
    unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            text = source[line - 1].strip()
            print(f"not run: src/mmcvqkd/{path.name}:{line}: {text}")
            unexpected += (path.name, text) not in NEVER_RUN
    print(f"line coverage: {unexpected} unexpected lines not run; tier-1 exit status {status}")
    return 1 if unexpected or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
