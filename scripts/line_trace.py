#!/usr/bin/env python3
"""The lines of ``src/vbfl`` that the test suite never runs in-process.

Runs pytest in this process under a ``sys.settrace`` line collector that
records only the package's files, then prints how many of the package's
executable lines (those that hold bytecode) never ran, and each of them as
``path:line: source``. A line that only a subprocess reaches (the golden
digest runs, the CLI and perfbench subprocess tests) is listed too, since
subprocesses are not traced. Use it to re-check which branches and
self-checks no test reaches; it needs no coverage package.

Tracing slows the suite down 1.4 to 1.7 times: on a 2-vCPU box with one
BLAS thread, tier-1 took 78-106 s under it against 50-68 s without.

Usage:
    PYTHONPATH=src python3 scripts/line_trace.py [PYTEST_ARGS...]

PYTEST_ARGS default to the tier-1 suite (``tests/``). Exits with pytest's
exit code.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vbfl"


def executable_lines(path: Path) -> set[int]:
    """The lines of path that hold bytecode, from each code object
    compiled from it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineCollector:
    """While entered, records the lines run in the given files: ``ran``
    maps each file's resolved path to its lines."""

    def __init__(self, files):
        self.ran: dict[str, set[int]] = {os.path.realpath(f): set() for f in files}
        self._by_name: dict[str, set[int] | None] = {}  # keys: code filenames

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._by_name:
            self._by_name[name] = self.ran.get(os.path.realpath(name))
        lines = self._by_name[name]
        if lines is None:
            return None  # no line events for frames outside the files
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "LineCollector":
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def never_ran(collector: LineCollector) -> dict[Path, list[int]]:
    """Per file, the executable lines the collector did not see run."""
    return {
        Path(path): sorted(executable_lines(Path(path)) - ran)
        for path, ran in sorted(collector.ran.items())
    }


def main(argv: list[str]) -> int:
    import pytest  # before tracing starts, so its own import is not traced

    with LineCollector(sorted(PACKAGE.glob("*.py"))) as collector:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    missing = never_ran(collector)
    total = sum(len(executable_lines(path)) for path in missing)
    print(f"{sum(map(len, missing.values()))} of {total} executable lines of "
          f"{PACKAGE.relative_to(ROOT)} never ran in-process:")
    for path, lines in missing.items():
        source = path.read_text().splitlines()
        for n in lines:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
