"""List the lines of ``src/pumpkit`` that the test suite never runs.

Runs pytest in this process under a ``sys.settrace`` tracer that records
line events in the package's own files only, then prints every executable
line that no test reached, grouped into runs of consecutive lines per
file.  Statements that raise ``ClaimViolation`` or ``NotAShield`` are left
out: on producible inputs those checks cannot fire, so they are expected
to stay unreached.  Each file's executable lines are read before pytest
starts, so an edit made during the run does not shift the report.  It
needs only the standard library and pytest.

    python tools/line_reach.py                 # the Tier-1 suite
    python tools/line_reach.py -- tests/test_geometry.py -k sides

Arguments after ``--`` go to pytest instead of the Tier-1 defaults.  Tests
that start ``python -m pumpkit.cli`` in a subprocess are not traced, and
the tracer slows the suite down several times, so a test that asserts its
own time budget may fail; the report still counts every line it ran.  The
exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "pumpkit")
EXPECTED_RAISES = {"ClaimViolation", "NotAShield"}
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: str) -> set[int]:
    """Line numbers that carry bytecode in the module or any code object in it."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(n for _, _, n in co.co_lines() if n)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def expected_raise_lines(path: str) -> set[int]:
    """Every line of a ``raise ClaimViolation(...)``/``raise NotAShield(...)`` statement."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = set()
    for node in ast.walk(tree):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id in EXPECTED_RAISES):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def runs(numbers: list[int]) -> list[str]:
    """``[3, 4, 5, 9]`` -> ``["3-5", "9"]``."""
    out, start = [], None
    for n, nxt in zip(numbers, numbers[1:] + [None]):
        start = n if start is None else start
        if nxt != n + 1:
            out.append(str(n) if start == n else f"{start}-{n}")
            start = None
    return out


def main(argv: list[str]) -> int:
    args = argv[argv.index("--") + 1:] if "--" in argv else DEFAULT_ARGS
    prefix = PACKAGE + os.sep
    executable = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            executable[name] = executable_lines(path) - expected_raise_lines(path)
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    os.chdir(REPO)
    sys.path.insert(0, os.path.join(REPO, "src"))
    import pytest  # imported before tracing; it never imports pumpkit

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, lines in executable.items():
        unreached = sorted(lines - reached.get(os.path.join(PACKAGE, name), set()))
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"src/pumpkit/{name}: {', '.join(runs(unreached))}")
    print(f"{missed} of {total} executable lines never run "
          f"(raise {'/'.join(sorted(EXPECTED_RAISES))} statements left out)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
