"""Delimited text event logs.

Format: one header line ``time,cycle_index,increment`` followed by one
comma-separated record per event, ordered by (time, cycle_index).  Times and
increments are written with 17 significant decimal digits so reading the log
back reproduces the original doubles bit for bit.

The writer streams the interval in windows of about 16k events (cut by
``sequence._window_cuts``, as the windowed reductions' windows are), so its
memory does not grow with the interval.  Times in [1, 1e16), which ``%.17g``
prints without an exponent, are rendered in numpy a window at a time: with
d = floor(log10 x), the 17 digits are x * 10**(16 - d) rounded half to even.
That scale is an exact double, Dekker's TwoProduct gives the product exactly
as p + e, and p >= 1e16 > 2**53 is an even whole number, so the digits are
int(p) + rint(e).  A window holding any other time formats each with ``%.17g``.
The reader parses the body in chunks of lines with ``np.loadtxt``.  On the
first line that loadtxt refuses, or byte that is not UTF-8, it drops the
chunks and reads the whole log once line by line instead.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

from .errors import DomainError, _shown
from .sequence import PhaseEvent, PhaseSequence, _check_window, _phase_events, _window_cuts, event_arrays

HEADER = "time,cycle_index,increment"

# Characters of body read and parsed at once by read_event_log (about 1.6k rows).
_CHUNK_CHARS = 1 << 16

# exact doubles 10**k; the ASCII of 0000..9999, one uint32 each; _KEEP[L] is 1 in columns < L
_POW10 = np.array([10**k for k in range(17)], dtype=float)
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_KEEP = (np.arange(19)[:, None] > np.arange(18)).astype(np.uint8)

_ROW = np.dtype([("time", "f8"), ("cycle_index", "i8"), ("increment", "f8")])


def write_event_log(path, seq: PhaseSequence, t0: float = 0.0, t1: float = None) -> int:
    """Write all events of ``seq`` in (t0, t1] to ``path``; returns the row count.

    Rows are ``%.17g,%d,%.17g``.  The interval is cut by
    ``sequence._window_cuts``, as the windowed reductions cut theirs, and
    each window's events come from one event_arrays call; a cut's winding
    counts are shared by the windows on either side, so the windows' rows
    concatenate to the rows of the whole interval.  A cycle's increment
    never changes, so the ``,cycle,increment`` end of its rows is formatted
    once, as NUL-padded bytes, and only the time is rendered per row.
    """
    t1 = seq.horizon if t1 is None else t1
    t0, t1 = _check_window(seq, t0, t1)
    idx, periods, increments = seq._active_arrays()
    ends = np.array([b",%d,%.17g\n" % (c, v) for c, v in zip(idx.tolist(), increments.tolist())], dtype=bytes)
    suffixes = np.zeros((len(seq.chain.coefficients), 1), ends.dtype)
    suffixes[idx, 0] = ends
    cuts = _window_cuts(periods, t0, t1).tolist()
    rows = 0
    with open(_path(path), "wb") as fh:
        fh.write(HEADER.encode() + b"\n")
        for a, b in zip(cuts[:-1], cuts[1:]):
            times, cycles, _ = event_arrays(seq, a, b)
            if times.size and 1.0 <= times[0] and times[-1] < 1e16:  # times ascend
                text = _time_text(times)
            else:
                text = np.array([b"%.17g" % t for t in times.tolist()], dtype=bytes)[:, None].view(np.uint8)
            body = np.hstack([text, suffixes[cycles].view(np.uint8)]).ravel()
            fh.write(body[body != 0])
            rows += times.size
    return rows


def _time_text(x):
    """``b"%.17g" % t`` for each of the ascending times ``x`` in [1, 1e16), as NUL-padded rows of 18 bytes."""
    d = np.log10(x).astype(np.int64)
    while True:  # a d that log10 or a rounding carry got wrong gives digits outside [1e16, 1e17)
        scale = _POW10[16 - d]
        p = x * scale
        (xh, xl), (sh, sl) = _split(x), _split(scale)
        n = p.astype(np.int64) + np.rint(((xh * sh - p) + xh * sl + xl * sh) + xl * sl).astype(np.int64)
        off = (n >= 10**17).astype(np.int64) - (n < 10**16)
        if not off.any():
            break
        d += off
    # "000" and the 17 digits; kept counts the digits up to the last nonzero one
    chars = _QUADS.take(np.stack([n // 10**j % 10**4 for j in (16, 12, 8, 4, 0)], axis=1)).view(np.uint8)
    kept = 17 - np.argmax(chars[:, :2:-1] != 48, axis=1)
    # d ascends with x: shift each exponent's integer digits left over a "0" and put the point after them
    cuts = [0, *(np.flatnonzero(np.diff(d)) + 1).tolist(), x.size]
    for a, b, e in zip(cuts[:-1], cuts[1:], d[cuts[:-1]].tolist()):
        chars[a:b, 2 : 3 + e] = chars[a:b, 3 : 4 + e]
        chars[a:b, 3 + e] = 46
    length = np.maximum(kept, d + 1)
    text = chars[:, 2:]
    text *= _KEEP.take(length + (length > d + 1), axis=0)  # the point stays only before a digit
    return text


def _split(a):
    """Veltkamp's split of ``a`` into halves of at most 26 bits, whose products are exact."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def read_event_log(path) -> List[PhaseEvent]:
    """Read an event log written by write_event_log.

    Blank lines are skipped; every other line must hold a float, an integer
    and a float, read as float(), int() and float() read them.  A malformed
    line raises DomainError naming its line number.

    The body is parsed in chunks of lines by ``np.loadtxt``, which reads the
    numbers it accepts to the same values.  It refuses some lines that the
    builtins accept (``1_0``, a cycle index beyond int64, a whitespace-only
    line), and bytes that are not UTF-8 refuse to decode: on the first
    refusal the chunks are dropped and the whole log is read once line by
    line, which gives every line's exact result or error.
    """
    with open(_path(path), "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise DomainError(f"unrecognized event log header: {_shown(header)}")
        try:
            return _phase_events(_chunks(fh))
        except ValueError:  # loadtxt refused a line, or a byte is not UTF-8
            pass  # the line-by-line read below runs once the chunks' events are freed with the traceback
        fh.seek(0)
        fh.readline()
        return _parse_lines(fh)


def _path(path):
    """os.fspath(path), refusing as DomainError what it refuses (open() takes an int or bool as a descriptor)."""
    try:
        return os.fspath(path)
    except TypeError:
        raise DomainError(f"path must be a str, bytes or os.PathLike, got {_shown(path)}") from None


def _chunks(fh):
    """The time, cycle and increment columns of each chunk of ``fh``'s lines, as np.loadtxt reads them."""
    while lines := fh.readlines(_CHUNK_CHARS):
        if all(map(str.isspace, lines)):  # loadtxt warns on a chunk without data
            continue
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
        del lines  # not held while the chunk's events are built
        # a cycle's increment repeats on all its rows: one float per bit pattern
        bits, which = np.unique(rows["increment"].view(np.int64), return_inverse=True)
        yield rows["time"], rows["cycle_index"], np.array(bits.view(float).tolist(), dtype=object)[which]


def _parse_lines(lines) -> List[PhaseEvent]:
    """Parse the log's ``lines`` after its header one at a time, the first of them line 2."""
    events = []
    for lineno, line in enumerate(lines, start=2):
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
                raise DomainError(f"line {lineno}: {name} {_shown(text)} is not a valid {convert.__name__}") from None
        events.append(PhaseEvent(*values))
    return events
