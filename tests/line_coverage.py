"""Run pytest under a line tracer and fail if a line of src/windingphase never ran.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Standard library only.  A line is executable when an instruction of its
module's compiled code carries it (``co_lines()``); it counts as run once any
thread, the scheduler's included, executes it.  Exits with pytest's code if a
test fails, else 1 if an executable line never ran, else 0.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(os.path.abspath(__file__)).parent.parent / "src" / "windingphase"
# Lines that only a subprocess runs, by their stripped source text: the tests
# that reach them start one, and a tracer does not follow it there.
EXEMPT = {
    "__main__.py": None,  # the whole file: `python -m windingphase`
    "eventlog.py": {  # _path's refusal, which a test drives through fd 1 in a subprocess
        "except TypeError:",
        'raise DomainError(f"path must be a str, bytes or os.PathLike, got {_shown(path)}") from None',
    },
}
ran = set()


def _tracer(frame, event, arg):
    """The global tracer: trace lines in src/windingphase's code, nothing elsewhere."""
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _executable(code):
    yield from (line for _, _, line in code.co_lines() if line)  # None, or 0 for a module's first instruction
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _executable(const)


def main(args):
    threading.settrace(_tracer)
    sys.settrace(_tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(SRC.glob("*.py")):
        exempt = EXEMPT.get(path.name, set())
        if exempt is None:
            continue
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(set(_executable(compile(source, str(path), "exec")))):
            if (str(path), line) not in ran and text[line - 1].strip() not in exempt:
                missed.append(f"{path.relative_to(SRC.parent.parent)}:{line}: {text[line - 1].strip()}")
    print("\n".join(missed) or f"every executable line of {SRC.name} ran")
    return status or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
