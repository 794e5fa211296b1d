#!/usr/bin/env python3
"""Lines of src/gameprice that the tier-1 suite never runs.

Runs the suite (pytest over tests/, as the tier-1 command does) in this
process under a sys.settrace line tracer that records only frames of
src/gameprice, then prints each executable line that no test ran, as
`path:line: source`, and their count. Executable lines are the line numbers
of the compiled module's code objects, nested ones included, so a function
that never ran lists every line of its body.

Lines that run only under a test's own trace function (the BTPE
tail-rejection test installs one to count its branches, and restores this
tracer after it), or only in a subprocess (the command-line tests that start
a fresh interpreter), are not seen and are listed. The suite's own result
does not change what is printed, but its exit status is this script's exit
status.

Standard library only, apart from pytest, which runs the suite; about a
minute on a 2-vCPU VM. Arguments after the script's name go to pytest in
place of the suite's path:

    python scripts/untested_lines.py
    python scripts/untested_lines.py tests/test_core.py -k Game
"""

import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gameprice"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from path runs."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    executed: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    # co_filename -> its set in executed, or None outside the package; the
    # same file can be imported under more than one spelling of its path
    by_name: dict[str, set[int] | None] = {}

    def record(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return record

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = executed.get(Path(os.path.realpath(name)))
        ran = by_name[name]
        if ran is None:
            return None
        ran.add(frame.f_lineno)
        return record

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *(argv or ["tests"])])
    finally:
        sys.settrace(None)

    count = 0
    for path in sorted(executed):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - executed[path]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
