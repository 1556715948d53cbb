"""The executable lines of the package that a pytest run never executes,
or with --branches the conditional jumps that it ran only one way.

    python3 tests/untraced.py [--branches] [PYTEST ARGS]

runs pytest in this process with a `sys.settrace` tracer that records each
line executed in a frame of `src/gluesem`, and then prints
`FILE:LINE: source` for every executable line that never ran, in file and
line order.  A line is executable when the compiled module, or a code
object nested in it, maps bytecode to it (`co_lines()`).  pytest's own
report goes to stderr, so stdout holds only the list; the exit status is
pytest's.

With --branches the tracer records opcodes instead (`f_trace_opcodes`):
each instruction a frame of the package ran after another.  A conditional
jump that ran is listed when its run never went to its target, as
`FILE:LINE: source [jump never taken]`, or never to the next instruction,
as `[fall-through never taken]`.  Jumps are told by their opcode's name
prefix, since Python versions name them differently.  Opcode tracing is
far slower than line tracing: Tier-1 takes tens of minutes.

The tracer slows the traced code several times over, so a test that
bounds wall-clock time, such as the 5 s bound of
`test_criterion_10e_propositional_brute_force_agreement`, may fail under
it.  That does not change the list: the test's lines still ran.  Code that
a test runs in a child process is not traced here.  Python removes a tracer
whose call fails, as every call does at the recursion limit, so the script
installs it again before each test: only the test that hit the limit loses
lines.

Standard library plus pytest; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import dis
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gluesem"
# conditional jumps: 3.11 has POP_JUMP_FORWARD_IF_FALSE where 3.12 has
# POP_JUMP_IF_FALSE, and JUMP_IF_FALSE_OR_POP, which 3.12 dropped
JUMPS = ("POP_JUMP_", "JUMP_IF_")


def executable_lines(path: Path) -> set[int]:
    """The lines that `path`'s compiled code, nested code included, maps
    bytecode to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str], opcodes: bool = False) -> tuple[int, dict]:
    """pytest's exit status on `args`, and what each code object of the
    package ran meanwhile: its lines, or with `opcodes` each pair of
    offsets of an instruction and the one its frame ran next (None before
    a frame's first)."""
    ran: dict = {}
    ours: dict[str, bool] = {}  # co_filename -> in the package

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in ours:
            ours[code.co_filename] = Path(code.co_filename).resolve().parent == PACKAGE
        if not ours[code.co_filename]:
            return None
        seen = ran.setdefault(code, set())
        if not opcodes:
            def line(frame, event, arg):
                seen.add(frame.f_lineno)
                return line

            return line
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        last = None

        def opcode(frame, event, arg):
            nonlocal last
            if event == "opcode":
                seen.add((last, frame.f_lasti))
                last = frame.f_lasti
            return opcode

        return opcode

    class Retrace:  # a pytest plugin
        @staticmethod
        def pytest_runtest_setup():
            sys.settrace(tracer)

    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
    return int(status), ran


def one_way_jumps(code, steps: set) -> list[tuple[int, str]]:
    """(line, the way never gone) for each conditional jump of `code` that
    ran, given the offset pairs `steps` its frames ran."""
    after: dict[int, set[int]] = {}
    for a, b in steps:
        after.setdefault(a, set()).add(b)
    line_of = {off: line for start, end, line in code.co_lines() for off in range(start, end, 2)}
    found = []
    instructions = list(dis.get_instructions(code))
    for i, (ins, nxt) in enumerate(zip(instructions, instructions[1:])):
        if not ins.opname.startswith(JUMPS) or ins.argval == nxt.offset:
            continue
        first = i  # an EXTENDED_ARG prefix may run as the jump's first unit
        while first and instructions[first - 1].opname == "EXTENDED_ARG":
            first -= 1
        went = set().union(*(after.get(x.offset, ()) for x in instructions[first:i + 1]))
        if not went or line_of.get(ins.offset) is None:
            continue  # never ran, or a jump of no source line
        if ins.argval not in went:
            found.append((line_of[ins.offset], "jump never taken"))
        elif nxt.offset not in went:
            found.append((line_of[ins.offset], "fall-through never taken"))
    return found


def main(args: list[str]) -> int:
    branches = args[:1] == ["--branches"]
    status, ran = traced_run(args[1:] if branches else args, branches)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        codes = [(code, seen) for code, seen in ran.items()
                 if Path(code.co_filename).resolve() == path]
        if branches:
            found = sorted({pair for code, seen in codes for pair in one_way_jumps(code, seen)})
        else:
            lines = set().union(*(seen for _, seen in codes))
            found = [(line, None) for line in sorted(executable_lines(path) - lines)]
        for line, way in found:
            print(f"{path.name}:{line}: {source[line - 1].strip()}" + (f" [{way}]" if way else ""))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
