"""Delimited text event logs.

Format: one header line ``time,cycle_index,increment`` followed by one
comma-separated record per event, ordered by (time, cycle_index).  Times and
increments are written with 17 significant decimal digits so reading the log
back reproduces the original doubles bit for bit.

The writer streams the interval in windows of about 16k events (cut by
``sequence._window_cuts``, as the windowed reductions' windows are), so its
memory does not grow with the interval.
The reader parses the body in chunks of lines with ``np.loadtxt`` and still
returns every event of the log as one list.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from typing import List

import numpy as np

from .errors import DomainError, _shown
from .sequence import PhaseEvent, PhaseSequence, _check_window, _window_cuts, event_arrays

HEADER = "time,cycle_index,increment"

# Characters of body read and parsed at once by read_event_log (about 1.6k rows).
_CHUNK_CHARS = 1 << 16

_ROW = np.dtype([("time", "f8"), ("cycle_index", "i8"), ("increment", "f8")])

# Setters of PhaseEvent's slots in _ROW's field order; they write past the
# frozen dataclass's __setattr__ like its own __init__ does.
_SLOT_SETTERS = tuple(getattr(PhaseEvent, name).__set__ for name in _ROW.names)


def write_event_log(path, seq: PhaseSequence, t0: float = 0.0, t1: float = None) -> int:
    """Write all events of ``seq`` in (t0, t1] to ``path``; returns the row count.

    Rows are ``%.17g,%d,%.17g``.  The interval is cut by
    ``sequence._window_cuts``, as the windowed reductions cut theirs, and
    each window's events come from one event_arrays call; a cut's winding
    counts are shared by the windows on either side, so the windows' rows
    concatenate to the rows of the whole interval.  A cycle's increment
    never changes, so the ``,cycle,increment`` end of its rows is formatted
    once and only the time is formatted per row.
    """
    t1 = seq.horizon if t1 is None else t1
    t0, t1 = _check_window(seq, t0, t1)
    idx, periods, increments = seq._active_arrays()
    suffixes = np.empty(len(seq.chain.coefficients), dtype=object)
    suffixes[idx] = [f",{c},{v:.17g}\n" for c, v in zip(idx.tolist(), increments.tolist())]
    cuts = _window_cuts(periods, t0, t1).tolist()
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        for a, b in zip(cuts[:-1], cuts[1:]):
            times, cycles, _ = event_arrays(seq, a, b)
            # time and suffix interleaved, rendered by one %-format per window
            cells = [None] * (2 * times.size)
            cells[0::2] = times.tolist()
            cells[1::2] = suffixes[cycles].tolist()
            fh.write(("%.17g%s" * times.size) % tuple(cells))
            rows += times.size
    return rows


def read_event_log(path) -> List[PhaseEvent]:
    """Read an event log written by write_event_log.

    Blank lines are skipped; every other line must hold a float, an integer
    and a float, read as float(), int() and float() read them.  A malformed
    line raises DomainError naming its line number.

    The body is parsed in chunks of lines by ``np.loadtxt``, which reads the
    numbers it accepts to the same values.  It refuses some lines that the
    builtins accept (``1_0``, a cycle index beyond int64, a whitespace-only
    line); a chunk it refuses is parsed line by line, which gives every
    line's exact result or error.
    """
    events = []
    # the list holds no cycles, so the collections its allocations would
    # trigger find nothing to free
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _check_header(fh.readline())
            lineno = 2
            try:
                while lines := fh.readlines(_CHUNK_CHARS):
                    events.extend(_parse_chunk(lines, lineno))
                    lineno += len(lines)
            except UnicodeDecodeError:
                # the bad bytes may follow a malformed line of this chunk: report
                # whichever a line-by-line read of the whole file meets first
                fh.seek(0)
                _check_header(fh.readline())
                return _parse_lines(fh, 2)
    finally:
        if collecting:
            gc.enable()
    return events


def _check_header(line: str) -> None:
    header = line.strip()
    if header != HEADER:
        raise DomainError(f"unrecognized event log header: {_shown(header)}")


def _parse_chunk(lines, lineno: int):
    """The events of ``lines``, the first of which is line ``lineno`` of the log."""
    if all(map(str.isspace, lines)):  # loadtxt warns on a chunk without data
        return []
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    except ValueError:
        return _parse_lines(lines, lineno)
    # a cycle's increment repeats on all its rows: one float per bit pattern
    bits, which = np.unique(rows["increment"].view(np.int64), return_inverse=True)
    increments = np.array(bits.view(float).tolist(), dtype=object)[which]
    # the events are filled slot by slot, bypassing PhaseEvent.__init__ per row
    events = list(map(object.__new__, itertools.repeat(PhaseEvent, rows.size)))
    columns = (rows["time"].tolist(), rows["cycle_index"].tolist(), increments.tolist())
    for fill, values in zip(_SLOT_SETTERS, columns):
        deque(map(fill, events, values), maxlen=0)
    return events


def _parse_lines(lines, lineno: int) -> List[PhaseEvent]:
    """Parse ``lines`` one at a time, the first of them line ``lineno`` of the log."""
    events = []
    for lineno, line in enumerate(lines, start=lineno):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DomainError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        values = []
        for name, convert, text in zip(_ROW.names, (float, int, float), parts):
            try:
                values.append(convert(text))
            except ValueError:
                raise DomainError(
                    f"line {lineno}: {name} {_shown(text)} is not a valid {convert.__name__}"
                ) from None
        events.append(PhaseEvent(*values))
    return events
