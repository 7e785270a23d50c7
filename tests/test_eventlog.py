import dataclasses
import gc
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import read_event_log_by_line, write_event_log_one_shot
from windingphase import (
    CycleAssignment,
    DomainError,
    PhaseEvent,
    PhaseSequence,
    SurfaceSpec,
    WindingChain,
    event_arrays,
    event_count,
    events_in,
    phase_at,
    read_event_log,
    sequence,
    write_event_log,
    wrap_angle,
)
from windingphase import eventlog

SRC = Path(__file__).resolve().parent.parent / "src"

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def make_seq(horizon=50.0):
    s = SurfaceSpec(1)
    return PhaseSequence(
        s,
        WindingChain(s, (2, -1)),
        CycleAssignment(s, (0.7, 1.9), (1.0, math.sqrt(2.0))),
        horizon,
    )


def test_round_trip_is_bit_exact(tmp_path):
    seq = make_seq()
    path = tmp_path / "events.csv"
    rows = write_event_log(path, seq, 0.0, 40.0)
    reloaded = read_event_log(path)
    original = events_in(seq, 0.0, 40.0)
    assert rows == len(original) == len(reloaded)
    for a, b in zip(original, reloaded):
        assert a.time == b.time
        assert a.cycle_index == b.cycle_index
        assert a.increment == b.increment


def test_header_and_format(tmp_path):
    seq = make_seq()
    path = tmp_path / "events.csv"
    write_event_log(path, seq, 0.0, 3.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,cycle_index,increment"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_default_window_is_full_horizon(tmp_path):
    seq = make_seq(horizon=10.0)
    path = tmp_path / "events.csv"
    rows = write_event_log(path, seq)
    assert rows == len(events_in(seq, 0.0, 10.0))


def test_replay_from_log_matches_closed_form(tmp_path):
    seq = make_seq()
    path = tmp_path / "events.csv"
    write_event_log(path, seq, 0.0, 40.0)
    events = read_event_log(path)
    for tau in (0.5, 7.25, 23.99, 40.0):
        replay = wrap_angle(math.fsum(e.increment for e in events if e.time <= tau))
        d = abs(replay - phase_at(seq, tau)) % (2.0 * math.pi)
        assert min(d, 2.0 * math.pi - d) <= 1e-9


@pytest.mark.parametrize("enabled", [True, False])
def test_reader_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_event_log(good, make_seq())
    bad.write_text("time,cycle_index,increment\n1.0,0\n")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert read_event_log(good)
        assert gc.isenabled() is enabled
        with pytest.raises(DomainError):
            read_event_log(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_read_events_are_frozen_values(tmp_path):
    path = tmp_path / "log.csv"
    write_event_log(path, make_seq())
    events = read_event_log(path)
    built = [PhaseEvent(e.time, e.cycle_index, e.increment) for e in events]
    assert events == built
    assert list(map(hash, events)) == list(map(hash, built))
    assert all(type(e) is PhaseEvent for e in events)
    with pytest.raises(dataclasses.FrozenInstanceError):
        events[0].time = 0.0


def test_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DomainError):
        read_event_log(path)


# open() takes an int or a bool as a file descriptor, which its file object
# closes: read_event_log(True) and write_event_log(1, seq) closed stdout, and
# the next print failed with a bad file descriptor.
@pytest.mark.parametrize("call", ["read_event_log(True)", "write_event_log(1, seq)", "read_event_log(1.5)"])
def test_a_path_that_is_not_a_path_is_refused_and_no_descriptor_is_closed(call):
    script = (
        "from windingphase import *; s = SurfaceSpec(1); "
        "seq = PhaseSequence(s, WindingChain(s, (1, 0)), CycleAssignment(s, (0.5, 0.5), (1.0, 2.0)), 10.0)\n"
        f"try:\n    {call}\nexcept DomainError as e:\n    print('refused:', e)\n"
        "print('still printing')"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    refusal, last = proc.stdout.splitlines()
    assert refusal.startswith("refused: path must be a str, bytes or os.PathLike") and last == "still printing"


def test_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,cycle_index,increment\n1.0,0\n")
    with pytest.raises(DomainError):
        read_event_log(path)


def test_malformed_number_raises_domain_error_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,cycle_index,increment\n0.5,1,2.0\n\nabc,0,1.0\n")
    with pytest.raises(DomainError, match=r"^line 4: time 'abc' is not a valid float$"):
        read_event_log(path)
    path.write_text("time,cycle_index,increment\n1.0,1.0,2.0\n")
    with pytest.raises(DomainError, match=r"^line 2: cycle_index '1.0' is not a valid int$"):
        read_event_log(path)


# -- writer: windowed rows against the one-shot rendering --------------------

GENUS3_PERIODS = tuple(math.sqrt(p) for p in (1.0, 2.0, 3.0, 5.0, 7.0, 11.0))


def genus3_pair(horizon):
    s = SurfaceSpec(3)
    assign = CycleAssignment(s, (0.3, 1.7, 2.9, 4.1, 5.5, 0.01), GENUS3_PERIODS)
    return [
        PhaseSequence(s, WindingChain(s, chain), assign, horizon)
        for chain in ((1, 0, 1, 0, 1, 0), (0, -2, 0, 1, 0, 3))
    ]


def test_multi_window_pair_is_byte_identical_to_one_shot(tmp_path, monkeypatch):
    calls = []

    def counted(seq, t0, t1):
        calls.append((t0, t1))
        return event_arrays(seq, t0, t1)

    monkeypatch.setattr(eventlog, "event_arrays", counted)
    # t0 is an event time of cycle 2, so (t0, t1] starts just after an event
    t0, t1 = 1000.0 * GENUS3_PERIODS[2], 39000.5
    for k, seq in enumerate(genus3_pair(40000.0)):
        calls.clear()
        path, expected = tmp_path / f"events_{k}.csv", tmp_path / f"one_shot_{k}.csv"
        rows = write_event_log(path, seq, t0, t1)
        assert len(calls) >= 3
        assert rows == write_event_log_one_shot(expected, seq, t0, t1) == event_count(seq, t0, t1)
        assert path.read_bytes() == expected.read_bytes()


@st.composite
def sequences(draw):
    """Genus 0-2 sequences; periods 1 and 2 put events of different cycles at the same times."""
    genus = draw(st.integers(0, 2))
    n = 2 * genus
    s = SurfaceSpec(genus)
    assign = CycleAssignment(
        s,
        draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)),
        draw(st.lists(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.3, 3.0)), min_size=n, max_size=n)),
    )
    chain = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return PhaseSequence(s, WindingChain(s, chain), assign, draw(st.floats(1.0, 60.0)))


@PROPERTY
@given(data=st.data(), seq=sequences(), window_events=st.integers(1, 64))
def test_windowed_rows_match_one_shot_and_read_back(tmp_path_factory, data, seq, window_events):
    tmp = tmp_path_factory.mktemp("log")
    t0, t1 = sorted(data.draw(st.lists(st.floats(0.0, seq.horizon), min_size=2, max_size=2, unique=True)))
    if data.draw(st.booleans()) and seq.active_cycles:
        # start the interval on an event time
        times = event_arrays(seq, 0.0, t1)[0]
        times = times[times < t1]
        if times.size:
            t0 = float(data.draw(st.sampled_from(times.tolist())))
    with mock.patch.object(sequence, "_WINDOW_EVENTS", window_events):
        rows = write_event_log(tmp / "events.csv", seq, t0, t1)
    assert rows == write_event_log_one_shot(tmp / "one_shot.csv", seq, t0, t1)
    assert (tmp / "events.csv").read_bytes() == (tmp / "one_shot.csv").read_bytes()
    times, cycles, incs = event_arrays(seq, t0, t1)
    assert [event_bits(e) for e in read_event_log(tmp / "events.csv")] == [
        (float_bits(t), c, float_bits(v)) for t, c, v in zip(times.tolist(), cycles.tolist(), incs.tolist())
    ]


def test_log_without_active_cycles_is_header_only(tmp_path):
    s = SurfaceSpec(2)
    seq = PhaseSequence(
        s, WindingChain.zero(s), CycleAssignment(s, (1.0, 2.0, 3.0, 4.0), (0.5, 0.7, 1.1, 1.3)), 100.0
    )
    path = tmp_path / "events.csv"
    assert write_event_log(path, seq, 3.5, 90.0) == 0
    assert path.read_text() == "time,cycle_index,increment\n"
    assert read_event_log(path) == []
    # an interval shorter than every period holds no event either
    assert write_event_log(path, make_seq(), 0.0, 0.5) == 0
    assert path.read_text() == "time,cycle_index,increment\n"


# Times of [1, 1e16) are written by eventlog._time_text; any window holding
# another time formats each with %.17g.  Both routes write the one-shot bytes.
@pytest.mark.parametrize(
    "periods, horizon, fallback",
    [((0.3, math.sqrt(2.0)), 2000.0, "first"), ((1e13, math.sqrt(2.0) * 1e13), 3e16, "last")],
    ids=["period_below_1", "times_past_1e16"],
)
def test_windows_outside_the_kernel_range_fall_back_to_the_format(tmp_path, monkeypatch, periods, horizon, fallback):
    s = SurfaceSpec(1)
    seq = PhaseSequence(s, WindingChain(s, (2, -1)), CycleAssignment(s, (0.7, 1.9), periods), horizon)
    windows, kernel = [], []
    time_text = eventlog._time_text

    def events(seq, t0, t1):
        arrays = event_arrays(seq, t0, t1)
        windows.append(arrays[0])
        return arrays

    monkeypatch.setattr(eventlog, "event_arrays", events)
    monkeypatch.setattr(eventlog, "_time_text", lambda x: kernel.append(x) or time_text(x))
    with mock.patch.object(sequence, "_WINDOW_EVENTS", 256):
        rows = write_event_log(tmp_path / "events.csv", seq)
    assert rows == write_event_log_one_shot(tmp_path / "one_shot.csv", seq)
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()
    in_range = [1.0 <= w[0] and w[-1] < 1e16 for w in windows]
    assert len(windows) >= 3 and in_range.count(False) >= 1 and len(kernel) == in_range.count(True) >= 1
    assert not in_range[0 if fallback == "first" else -1]


@st.composite
def kernel_times(draw):
    """A double of [1, 1e16): any, a whole number, a few ulps from 10**k, or a tie m * 2**-(k + 1), m odd."""
    kind = draw(st.sampled_from(["any", "integer", "power of ten", "tie"]))
    if kind == "any":
        return draw(st.floats(1.0, 1e16, exclude_max=True))
    if kind == "integer":
        return float(draw(st.integers(1, 2**53)))
    if kind == "power of ten":
        x = struct.unpack("<d", struct.pack("<q", float_bits(float(10 ** draw(st.integers(0, 16)))) + draw(st.integers(-8, 8))))[0]
        assume(1.0 <= x < 1e16)
        return x
    # x * 10**k with d = 16 - k digits before the point ends in exactly .5
    d = draw(st.integers(0, 15))
    k = 16 - d
    m = draw(st.integers(10**d * 2 ** (k + 1), min(10 ** (d + 1) * 2 ** (k + 1), 2**53) - 1))
    return (m | 1) / 2.0 ** (k + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(times=st.lists(kernel_times(), min_size=1, max_size=40))
def test_time_kernel_writes_the_bytes_of_percent_17g(times):
    x = np.sort(np.array(times))
    rows = [bytes(row).rstrip(b"\0") for row in eventlog._time_text(x)]
    assert rows == [b"%.17g" % t for t in x.tolist()]


def write_peak(path, seq):
    tracemalloc.start()
    try:
        rows = write_event_log(path, seq)
        return rows, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_peak_memory_does_not_grow_with_rows(tmp_path):
    # make_seq fires 1 + 1/sqrt(2) events per unit time
    small_rows, small = write_peak(tmp_path / "small.csv", make_seq(horizon=17_600.0))
    large_rows, large = write_peak(tmp_path / "large.csv", make_seq(horizon=176_000.0))
    assert 2.9e4 < small_rows < 3.1e4 and 2.9e5 < large_rows < 3.1e5
    assert large <= 1.5 * small


# -- reader: chunked parse against the line-by-line parser -------------------


def float_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def event_bits(e):
    assert type(e) is PhaseEvent and type(e.time) is float and type(e.increment) is float
    assert type(e.cycle_index) is int
    return float_bits(e.time), e.cycle_index, float_bits(e.increment)


def outcome(read, path):
    try:
        return "events", [event_bits(e) for e in read(path)]
    except DomainError as exc:
        return "DomainError", str(exc)
    except ValueError:
        return "ValueError", None


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    """The rows of a valid log of about 6600 events (three default chunks), each without its newline."""
    s = SurfaceSpec(2)
    seq = PhaseSequence(
        s,
        WindingChain(s, (1, -2, 0, 5)),
        CycleAssignment(s, (0.25, 2.5, 1.0, -7.125), (0.5, 1.0, 2.0, math.sqrt(0.5))),
        1500.0,
    )
    path = tmp_path_factory.mktemp("base") / "events.csv"
    write_event_log(path, seq)
    lines = path.read_text().splitlines()
    assert lines[0] == eventlog.HEADER and len(path.read_text()) > 2 * eventlog._CHUNK_CHARS
    return lines[1:]


def _fields(row):
    return row.split(",")


# Each mutation maps one valid row to the lines that replace it.
MUTATIONS = {
    "blank line": lambda row: ["", row],
    "whitespace-only line": lambda row: [" \t\x0c", row],
    "spaces around fields": lambda row: [" " + " , ".join(_fields(row)) + "\t"],
    "unicode spaces": lambda row: ["\u00a0" + "\u2003,".join(_fields(row)) + "\u3000"],
    "comment line": lambda row: ["# written by hand", row],
    "commented row": lambda row: ["#" + row],
    "two fields": lambda row: [",".join(_fields(row)[:2])],
    "four fields": lambda row: [row + ",1"],
    "trailing comma": lambda row: [row + ","],
    "cycle 1_0": lambda row: ["{0},1_0,{2}".format(*_fields(row))],
    "cycle +1": lambda row: ["{0},+{1},{2}".format(*_fields(row))],
    "cycle 1.0": lambda row: ["{0},{1}.0,{2}".format(*_fields(row))],
    "cycle 20 digits": lambda row: ["{0},99999999999999999999,{2}".format(*_fields(row))],
    "time 1_0": lambda row: ["1_0,{1},{2}".format(*_fields(row))],
    "time nan": lambda row: ["nan,{1},{2}".format(*_fields(row))],
    "increment -nan": lambda row: ["{0},{1},-nan".format(*_fields(row))],
    "time inf": lambda row: ["inf,{1},{2}".format(*_fields(row))],
    "increment -Infinity": lambda row: ["{0},{1},-Infinity".format(*_fields(row))],
    "quoted time": lambda row: ['"{0}",{1},{2}'.format(*_fields(row))],
    "non-numeric time": lambda row: ["abc,{1},{2}".format(*_fields(row))],
    "empty increment": lambda row: ["{0},{1},".format(*_fields(row))],
    "carriage return inside": lambda row: [row[:3] + "\r" + row[3:]],
}


def first_failing_line(path):
    """Line number at which read_event_log_by_line raises, found on prefixes of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    prefix = path.with_name("prefix.csv")

    def fails(n):
        prefix.write_text("".join(lines[:n]), encoding="utf-8", newline="")
        try:
            read_event_log_by_line(prefix)
        except ValueError:
            return True
        return False

    lo, hi = 1, len(lines)  # the first line alone parses; all of them fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return hi


@PROPERTY
@given(
    data=st.data(),
    chunk=st.sampled_from([97, 4096, eventlog._CHUNK_CHARS]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_chunked_reader_matches_line_by_line(tmp_path_factory, base_rows, data, chunk, newline):
    rows = list(base_rows)
    last = len(rows) - 1
    # mutate rows near the start, near the end and anywhere between, last row first
    where = st.one_of(st.integers(0, 3), st.integers(last - 3, last), st.integers(0, last))
    picks = data.draw(st.lists(st.tuples(where, st.sampled_from(sorted(MUTATIONS))), max_size=4))
    for at, kind in sorted(picks, reverse=True):
        rows[at : at + 1] = MUTATIONS[kind](rows[at])
    path = tmp_path_factory.mktemp("log") / "events.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join([eventlog.HEADER] + rows) + data.draw(st.sampled_from(["", newline])))

    with mock.patch.object(eventlog, "_CHUNK_CHARS", chunk):
        got = outcome(read_event_log, path)
    expected = outcome(read_event_log_by_line, path)
    if expected[0] == "ValueError":
        # float() or int() refused a field: now a DomainError naming its line
        assert got[0] == "DomainError"
        assert got[1].startswith(f"line {first_failing_line(path)}: ")
    else:
        assert got == expected


def test_reader_keeps_the_bits_of_signed_zeros_and_nans(tmp_path):
    path = tmp_path / "events.csv"
    rows = ["1,0,0", "2,0,-0.0", "3,1,nan", "4,1,-nan", "-0,2,0.0", "nan,2,-0"]
    path.write_text("\n".join([eventlog.HEADER] + rows) + "\n")
    got = [event_bits(e) for e in read_event_log(path)]
    assert got == outcome(read_event_log_by_line, path)[1]
    assert len({bits for _, _, bits in got}) == 4


def test_only_refused_logs_are_parsed_line_by_line(tmp_path, base_rows, monkeypatch):
    reads = []

    def counted(lines):
        lines = list(lines)
        reads.append(lines)
        return parse_lines(lines)

    parse_lines = eventlog._parse_lines
    monkeypatch.setattr(eventlog, "_parse_lines", counted)
    path = tmp_path / "events.csv"
    # CRLF and LF rows, blank lines between rows and runs of blank lines
    # longer than a chunk parse in chunks
    blank_chunk = "\r\n" * eventlog._CHUNK_CHARS
    body = "\r\n".join(base_rows[:1500]) + "\r\n\r\n\r\n" + blank_chunk + "\n".join(base_rows[1500:])
    path.write_bytes((eventlog.HEADER + "\r\n" + body + "\n\n" + blank_chunk).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events = read_event_log(path)
    assert [event_bits(e) for e in events] == outcome(read_event_log_by_line, path)[1]
    assert len(events) == len(base_rows) and reads == []
    # a whitespace-only line sends the whole log, once and from its start, line by line
    lines = [eventlog.HEADER] + base_rows[:5000] + [" \t"] + base_rows[5000:]
    path.write_text("\n".join(lines) + "\n")
    assert outcome(read_event_log, path) == outcome(read_event_log_by_line, path)
    assert reads == [[line + "\n" for line in lines[1:]]]


# The writer's rows, from its time kernel or from %.17g, are all read by np.loadtxt.
@pytest.mark.parametrize(
    "periods, horizon, kernel",
    [
        ((1.0, math.sqrt(2.0)), 20000.0, True),
        ((0.3, math.sqrt(2.0)), 50.0, False),
        ((1e15, math.sqrt(2.0) * 1e15), 3e16, False),
    ],
    ids=["kernel", "times_below_1", "times_from_1e16"],
)
def test_written_logs_never_reach_the_line_parser(tmp_path, monkeypatch, periods, horizon, kernel):
    def refused(lines):
        raise AssertionError("a written log was parsed line by line")

    rendered = []
    time_text = eventlog._time_text
    monkeypatch.setattr(eventlog, "_time_text", lambda x: rendered.append(x) or time_text(x))
    monkeypatch.setattr(eventlog, "_parse_lines", refused)
    s = SurfaceSpec(1)
    seq = PhaseSequence(s, WindingChain(s, (2, -1)), CycleAssignment(s, (0.7, 1.9), periods), horizon)
    path = tmp_path / "events.csv"
    write_event_log(path, seq)
    assert bool(rendered) is kernel
    times, cycles, incs = event_arrays(seq, 0.0, horizon)
    assert [event_bits(e) for e in read_event_log(path)] == [
        (float_bits(t), c, float_bits(v)) for t, c, v in zip(times.tolist(), cycles.tolist(), incs.tolist())
    ]


@pytest.mark.parametrize("malformed", [False, True])
def test_undecodable_bytes_fail_as_in_the_line_parser(tmp_path, base_rows, malformed):
    rows = list(base_rows)
    if malformed:
        rows[1] = "1.0,0"  # line 3
    data = (eventlog.HEADER + "\n" + "\n".join(rows) + "\n").encode()
    # past the first 8 KiB block the line parser decodes, inside the first chunk
    data = data[:20_000] + b"\xff" + data[20_000:]
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    error = DomainError if malformed else UnicodeDecodeError
    with pytest.raises(error) as expected:
        read_event_log_by_line(path)
    with pytest.raises(error) as got:
        read_event_log(path)
    assert str(got.value) == str(expected.value)
