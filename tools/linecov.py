"""Lines of the limtower package that a test run never executes.

    python tools/linecov.py [pytest arguments]

Installs a `sys.settrace` collector for frames whose file lies under
`src/limtower` before pytest imports the package, runs pytest in this
process (by default on `tests/`), and prints, per file, the executable
lines that never ran.  A file's executable lines are those its code
objects name in `co_lines()`.  Only the standard library is used.

Code that the tests run in a child interpreter (a CLI test that starts
`python -m limtower.cli`, say) is not traced, so its lines show as unrun.
Tracing makes the run several times slower, so this script stays out of
the tier-1 suite; it exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest  # loads no limtower module, so the collector still sees every import

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "limtower"


def executable_lines(path: Path) -> set[int]:
    """Every line some code object compiled from `path` maps an instruction to."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineCollector:
    """Records the lines run in frames whose file lies under `root`."""

    def __init__(self, root: Path) -> None:
        self.root = str(root.resolve()) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._previous = None

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.root):
            return None
        seen = self.hits.setdefault(path, set())
        seen.add(frame.f_lineno)  # the first line, which the call event reports

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def unrun(self, path: Path) -> list[int]:
        """The executable lines of `path` that no traced frame ran."""
        return sorted(executable_lines(path) - self.hits.get(str(path.resolve()), set()))


def spans(lines: list[int]) -> str:
    """`1, 4-6, 9` for [1, 4, 5, 6, 9]."""
    out = []
    for n in lines:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    collector = LineCollector(PACKAGE)
    collector.start()
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    finally:
        collector.stop()
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = collector.unrun(path)
        total += len(executable_lines(path))
        unrun += len(missed)
        if missed:
            print(f"{path.relative_to(REPO)}: {len(missed)} never run: {spans(missed)}")
    print(f"{unrun} of {total} executable lines never ran")
    print("lines that run only in a child interpreter (the CLI tests that start one) count as never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
