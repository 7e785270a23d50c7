"""Delimited text event logs.

Format: one header line ``time,cycle_index,increment`` followed by one
comma-separated record per event, ordered by (time, cycle_index).  Times and
increments are written with 17 significant decimal digits so reading the log
back reproduces the original doubles bit for bit.
"""

from __future__ import annotations

from typing import List

from .errors import DomainError
from .sequence import PhaseEvent, PhaseSequence, event_arrays

HEADER = "time,cycle_index,increment"


def write_event_log(path, seq: PhaseSequence, t0: float = 0.0, t1: float = None) -> int:
    """Write all events of ``seq`` in (t0, t1] to ``path``; returns the row count."""
    t1 = seq.horizon if t1 is None else t1
    times, cycles, incs = event_arrays(seq, t0, t1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER + "\n")
        fh.writelines(map("{:.17g},{},{:.17g}\n".format, times.tolist(), cycles.tolist(), incs.tolist()))
    return int(times.size)


def read_event_log(path) -> List[PhaseEvent]:
    """Read an event log written by write_event_log."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise DomainError(f"unrecognized event log header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DomainError(f"line {lineno}: expected 3 fields, got {len(parts)}")
            events.append(PhaseEvent(float(parts[0]), int(parts[1]), float(parts[2])))
    return events
