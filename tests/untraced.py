"""The executable lines of the package that a pytest run never executes.

    python3 tests/untraced.py [PYTEST ARGS]

runs pytest in this process with a `sys.settrace` tracer that records each
line executed in a frame of `src/gluesem`, and then prints
`FILE:LINE: source` for every executable line that never ran, in file and
line order.  A line is executable when the compiled module, or a code
object nested in it, maps bytecode to it (`co_lines()`).  pytest's own
report goes to stderr, so stdout holds only the list; the exit status is
pytest's.

The tracer slows the traced code several times over, so a test that
bounds wall-clock time, such as the 5 s bound of
`test_criterion_10e_propositional_brute_force_agreement`, may fail under
it.  That does not change the list: the test's lines still ran.  Code that
a test runs in a child process is not traced here.

Standard library plus pytest; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gluesem"


def executable_lines(path: Path) -> set[int]:
    """The lines that `path`'s compiled code, nested code included, maps
    bytecode to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on `args`, and the lines of each package file
    that ran meanwhile."""
    ran: dict[Path, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its lines, None outside

    def in_package(filename: str):
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = ran.setdefault(path, set()) if path.parent == PACKAGE else None
        return ours[filename]

    def tracer(frame, event, arg):
        lines = in_package(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    status, ran = traced_run(args)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            print(f"{path.name}:{line}: {source[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
