"""The lines of ``src/compocheck`` that a test run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer (standard
library only), then prints each executable line of the package that no test
reached, as ``file:line: source``. Run it from the repository root:

    PYTHONPATH=src python tests/line_tracer.py [pytest arguments]

It exits with pytest's status when a test fails, else 1 when a line outside
:data:`SUBPROCESS_ONLY` went unreached, else 0. Lines that only a child
process runs are not traced; they are printed, marked, but do not fail.
"""

from __future__ import annotations

import dis
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "compocheck"

# (file, header line): each line of the block the header opens runs only in a
# child process, which the tracer does not follow.
SUBPROCESS_ONLY = [
    ("cli.py", "except BrokenPipeError:"),  # needs a closed pipe on the real stdout
    ("cli.py", 'if __name__ == "__main__":'),
]


def executable_lines(path: Path) -> set[int]:
    """The lines where a statement of the file's code objects starts; a
    function's first line is left out, since calling it reports no line."""
    def walk(code: types.CodeType, skip: int | None):
        yield from (line for _, line in dis.findlinestarts(code) if line and line != skip)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from walk(const, const.co_firstlineno)

    return set(walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None))


def allowed_lines(path: Path, headers: list[str]) -> set[int]:
    """The lines of each block that one of ``headers`` opens in the file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    allowed: set[int] = set()
    for number, text in enumerate(lines, 1):
        if text.strip() not in headers:
            continue
        indent = len(text) - len(text.lstrip())
        for inner, body in enumerate(lines[number:], number + 1):
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            allowed.add(inner)
    return allowed


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit status and the lines reached in each package file."""
    prefix = str(PACKAGE) + "/"
    reached: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = reached.setdefault(frame.f_code.co_filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), reached


def main(args: list[str]) -> int:
    status, reached = traced_run(args)
    if status:
        return status
    failing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unreached = executable_lines(path) - reached.get(str(path), set())
        allowed = allowed_lines(path, [h for name, h in SUBPROCESS_ONLY if name == path.name])
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(unreached):
            mark = " (child process only)" if line in allowed else ""
            failing += not mark
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: "
                  f"{source[line - 1].strip()}{mark}")
    print(f"{failing} unreached line(s) outside the child-process blocks")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
