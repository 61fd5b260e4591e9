"""The artifact writers against the formatting they replace, and the values they may meet.

Each writer formats a line from a per-column template. These tests hold
every line to the generic formatting: ``json.dumps`` of the record as a
sorted-key object for ``trace.jsonl``, and a comma join of each value's
``str`` (None an empty cell) for the CSV files. They also pin that no
non-finite float reaches an artifact, where ``repr`` would write ``nan``
and ``json.dumps`` would write ``NaN``.
"""

import csv
import io
import json
import math
import os
import struct
import sys
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tiersim import (BatteryState, Scenario, extract_latency_series, run_scenario,
                     scenario_from_dict)
from tiersim.energy import EnergyLedger, LedgerEntry
from tiersim.heuristics import update_history
from tiersim.model import AnomalyTracker, SimEvent, new_tracker
from tiersim.summary import (
    ARTIFACTS,
    TRACE_COLUMNS,
    WRITE_CHUNK_ROWS,
    ArtifactSink,
    LatencySample,
    write_energy_csv,
    write_latency_csv,
    write_trace_csv,
    write_trace_jsonl,
)

JSONL_KEYS = (*TRACE_COLUMNS, "detail")  # SimEvent's fields, in order

#: Text that needs escaping or leaves ASCII: a quote, a backslash, control
#: characters, non-ASCII text, U+2028 and a lone surrogate.
TRICKY_TEXT = ['"', "\\", "\x00\x1f\t\n\r", "é ü 温度 🚜", "\u2028\u2029", "\ud800", "a,b", ""]
#: Floats whose text is easy to get wrong: signed zero, small and large
#: exponents, subnormals and the extremes of the finite range.
TRICKY_FLOATS = [0.0, -0.0, 1e-7, 1e22, 1e16, 5e-324, 2.225073858507201e-308,
                 sys.float_info.max, -sys.float_info.max, 0.1, 100.0, 1.0]

#: Fixed examples, and no explain phase: it takes minutes to report a failure here.
EXAMPLES = settings(max_examples=100, derandomize=True, database=None, deadline=None,
                    phases=[Phase.explicit, Phase.generate, Phase.shrink])

texts = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=12))
floats = st.one_of(st.sampled_from(TRICKY_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
counts = st.one_of(st.integers(0, 64), st.integers(-2**63, 2**63))

events = st.builds(
    SimEvent, floats, texts, texts, st.none() | texts, st.none() | texts,
    st.none() | texts, st.none() | counts, st.none() | counts, st.none() | counts,
    st.none() | floats, st.none() | floats, st.none() | texts,
)
entries = st.builds(LedgerEntry, floats, texts, texts, floats, floats)
samples = st.builds(LatencySample, floats, texts, texts, floats)


def _written(write, rows) -> str:
    out = io.StringIO()  # an open file takes the rows alone, without the header
    write(rows, out)
    return out.getvalue()


def _csv_line(values) -> str:
    return ",".join("" if v is None else str(v) for v in values) + "\n"


@EXAMPLES
@given(st.lists(events, max_size=12))
def test_jsonl_line_is_json_dumps_of_the_sorted_record(records):
    expected = "".join(json.dumps(dict(zip(JSONL_KEYS, astuple(r))), sort_keys=True) + "\n"
                       for r in records)
    assert _written(write_trace_jsonl, records) == expected


@EXAMPLES
@given(st.lists(events, max_size=12))
def test_trace_csv_line_is_the_str_join_of_its_cells(records):
    expected = "".join(_csv_line(astuple(r)[:len(TRACE_COLUMNS)]) for r in records)
    assert _written(write_trace_csv, records) == expected


@EXAMPLES
@given(st.lists(entries, max_size=12), st.lists(samples, max_size=12))
def test_energy_and_latency_csv_lines_are_the_str_join_of_their_cells(ledger, series):
    assert _written(write_energy_csv, ledger) == "".join(_csv_line(astuple(e)) for e in ledger)
    assert _written(write_latency_csv, series) == "".join(_csv_line(s) for s in series)


def test_equal_values_with_different_text_keep_their_own_cells():
    # 0.0 and -0.0 are equal dict keys, so a float column must not share cells
    records = [SimEvent(t, "n", "k", latency_ms=t, battery_pct=-t) for t in (0.0, -0.0, 0.0)]
    assert _written(write_trace_csv, records) == "".join(
        _csv_line(astuple(r)[:len(TRACE_COLUMNS)]) for r in records)
    assert [json.loads(line)["latency_ms"] for line in
            _written(write_trace_jsonl, records).splitlines()] == [0.0, -0.0, 0.0]
    assert "-0.0" in _written(write_trace_jsonl, records)


def test_a_path_gets_the_header_and_an_empty_batch_no_rows(tmp_path):
    write_trace_csv([], tmp_path / "trace.csv")
    write_trace_jsonl([], tmp_path / "trace.jsonl")
    write_energy_csv([], tmp_path / "energy.csv")
    assert (tmp_path / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"
    assert (tmp_path / "trace.jsonl").read_text() == ""
    assert (tmp_path / "energy.csv").read_text() == \
        "timestamp_ms,node_id,operation,energy_mJ,battery_pct\n"


#: The tricky text a UTF-8 file can hold: all but the lone surrogate.
FILE_TEXT = [t for t in TRICKY_TEXT if t != "\ud800"]


def _event(i: int) -> SimEvent:
    """A record whose text and counts repeat every few rows and whose floats do not."""
    text = FILE_TEXT[i % len(FILE_TEXT)]
    return SimEvent(i * 0.5, f"node-{i % 7}", text, None if i % 3 else "S", "WORKING",
                    None if i % 2 else format(i % 64, "x"), i % 9, i % 4, None if i % 5 else i % 50,
                    -0.0 if i % 11 == 0 else i / 3, 100.0 - i / 7, None if i % 4 else text)


#: Each writer, the header a path gets, a batch of ``n`` of its rows and each row's line.
WRITERS = {
    "trace.csv": (write_trace_csv, ",".join(TRACE_COLUMNS) + "\n",
                  lambda n: [_event(i) for i in range(n)],
                  lambda r: _csv_line(astuple(r)[:len(TRACE_COLUMNS)])),
    "trace.jsonl": (write_trace_jsonl, "",
                    lambda n: [_event(i) for i in range(n)],
                    lambda r: json.dumps(dict(zip(JSONL_KEYS, astuple(r))), sort_keys=True) + "\n"),
    "energy.csv": (write_energy_csv, "timestamp_ms,node_id,operation,energy_mJ,battery_pct\n",
                   lambda n: [LedgerEntry(i * 0.5, f"node-{i % 7}", FILE_TEXT[i % 7], i / 3,
                                          -0.0 if i % 11 == 0 else 100.0 - i / 7)
                              for i in range(n)],
                   lambda e: _csv_line(astuple(e))),
    "latency.csv": (write_latency_csv, ",".join(LatencySample._fields) + "\n",
                    lambda n: [LatencySample(i * 0.5, f"node-{i % 7}", "SGC"[i % 3], i / 3)
                               for i in range(n)],
                    _csv_line),
}

C = WRITE_CHUNK_ROWS


@pytest.mark.parametrize("name", WRITERS)
# around the first chunk boundary and a later one, and over many chunks
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 1, 4 * C - 1, 4 * C, 4 * C + 1,
                               8 * C + 1])
def test_every_row_is_written_once_across_chunk_boundaries(tmp_path, name, n):
    write, header, batch, line = WRITERS[name]
    rows = batch(n)
    expected = "".join(map(line, rows))
    assert _written(write, rows) == expected
    write(rows, tmp_path / name)
    assert (tmp_path / name).read_bytes().decode("utf-8") == header + expected


file_texts = st.one_of(st.sampled_from(FILE_TEXT), st.text(max_size=12))
#: Records whose latency samples the summary fold can file: every mode is a tier's.
sink_events = st.builds(
    SimEvent, floats, file_texts, st.sampled_from(["predict", "op", "mode-change"]) | file_texts,
    st.sampled_from("SGC"), st.none() | file_texts, st.none() | file_texts,
    st.none() | counts, st.none() | counts, st.none() | counts,
    st.none() | floats, st.none() | floats, st.none() | file_texts,
)
sink_entries = st.builds(LedgerEntry, floats, file_texts, file_texts, floats, floats)


def _cut(rows: list, cuts: list[float]) -> list[list]:
    bounds = [0, *sorted(int(c * len(rows)) for c in cuts), len(rows)]
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@EXAMPLES
@example(records=[SimEvent(0.0, "n", "op", "S", latency_ms=-0.0, battery_pct=0.0)],
         entries=[LedgerEntry(0.0, "n", "op", -0.0, 0.0)], cuts=[], shared=-0.0)
@given(st.lists(sink_events, max_size=12), st.lists(sink_entries, max_size=12),
       st.lists(st.floats(0.0, 1.0), max_size=4), floats)
def test_sink_writes_what_the_standalone_writers_write(records, entries, cuts, shared):
    # one value in the timestamp, latency, battery and energy columns of the first batch
    records = [SimEvent(shared, "n", "predict", "S", latency_ms=shared, battery_pct=shared),
               *records]
    entries = [LedgerEntry(shared, "n", "op", shared, shared), *entries]
    with tempfile.TemporaryDirectory() as out:
        streamed, whole = Path(out, "streamed"), Path(out, "whole")
        streamed.mkdir()
        whole.mkdir()
        ledger = EnergyLedger()
        with ArtifactSink(Scenario(), ledger, streamed) as sink:
            for batch, debited in zip(_cut(records, cuts), _cut(entries, cuts)):
                for entry in debited:
                    ledger.add(*astuple(entry))
                sink(batch)
            sink.close()
        write_trace_csv(records, whole / "trace.csv")
        write_trace_jsonl(records, whole / "trace.jsonl")
        write_energy_csv(entries, whole / "energy.csv")
        write_latency_csv(extract_latency_series(records), whole / "latency.csv")
        for name in ARTIFACTS[:4]:
            assert (streamed / name).read_bytes() == (whole / name).read_bytes(), name


def test_a_number_equal_to_a_float_keeps_its_own_text():
    # 5 == 5.0 and True == 1.0 as dict keys, so neither may share a float's text
    records = [SimEvent(5, "n", "k", latency_ms=5.0, battery_pct=True),
               SimEvent(5.0, "n", "k", latency_ms=5, battery_pct=1.0)]
    assert _written(write_trace_csv, records) == "".join(
        _csv_line(astuple(r)[:len(TRACE_COLUMNS)]) for r in records)
    records = [SimEvent(5, "n", "k"), SimEvent(5.0, "n", "k")]
    assert [line.split(", ")[-1] for line in _written(write_trace_jsonl, records).splitlines()] \
        == ['"timestamp_ms": 5}', '"timestamp_ms": 5.0}']
    assert _written(write_trace_jsonl, records) == "".join(
        json.dumps(dict(zip(JSONL_KEYS, astuple(r))), sort_keys=True) + "\n" for r in records)


def _write_peak(write, rows) -> int:
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write(rows, fh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("write", [write_trace_jsonl, write_trace_csv])
def test_writer_memory_does_not_grow_with_the_batch(write):
    # The records exist before tracing starts: only the writer's own
    # allocations count, and they stay a few chunks' text at any batch size.
    small, large = [_event(i) for i in range(4_096)], [_event(i) for i in range(16_384)]
    assert _write_peak(write, large) <= 1.15 * _write_peak(write, small)


def _finite_number(value) -> bool:
    return isinstance(value, str) or value is None or math.isfinite(value)


def test_largest_sleep_period_puts_no_non_finite_float_in_any_artifact(tmp_path):
    # The largest value the command path accepts makes a sleep energy of
    # inf mJ; the drain clamps it, and the next cycle lands past the end.
    nodes = [{"node_id": mode.lower(), "initial_mode": mode} for mode in "SGC"]
    doc = {"duration_ms": 600_000.0, "seed": 3, "nodes": nodes, "commands": [
        {"at_ms": 1_000.0, "node_id": n["node_id"], "name": "sleep_period",
         "value": sys.float_info.max} for n in nodes]}
    run_scenario(scenario_from_dict(doc), tmp_path)
    rows = [json.loads(line, parse_constant=lambda c: math.nan)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    applied = [r["node_id"] for r in rows if r["event_kind"] == "property-command"
               and r["detail"].startswith("SET sleep_period status=ok")]
    assert sorted(applied) == ["c", "g", "s"]
    assert all(_finite_number(v) for r in rows for v in r.values())
    assert max(r["timestamp_ms"] for r in rows) <= 600_000.0
    for name in ("trace.csv", "energy.csv", "latency.csv"):
        with open(tmp_path / name, newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("timestamp_ms", "latency_ms", "battery_pct", "energy_mJ"):
                    if row.get(key):
                        assert math.isfinite(float(row[key])), (name, row)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@EXAMPLES
@given(st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
       st.lists(st.one_of(st.floats(0.0, 1e9), st.sampled_from([0.0, 5e-324, 1e-7])),
                max_size=200))
def test_battery_level_and_deadness_follow_every_drain_bit_for_bit(capacity_j, drains_mj):
    battery = BatteryState(capacity_j=capacity_j)
    for energy_mj in [None, *drains_mj]:
        if energy_mj is not None:
            battery.drain(energy_mj)
        capacity, consumed = battery.capacity_j, battery.consumed_j
        expected = 100.0 * (capacity - consumed) / capacity if capacity > 0 else 0.0
        assert _bits(battery.level_pct) == _bits(min(expected, 100.0))
        assert battery.dead is (consumed >= capacity)


@EXAMPLES
@given(st.integers(1, 64), st.lists(st.integers(0, 1), max_size=100))
def test_a_shifted_tracker_meets_the_checks_it_skips(depth, bits):
    tracker = new_tracker(depth)
    for bit in bits:
        tracker = update_history(tracker, bit, True)
        assert tracker == AnomalyTracker(tracker.bits, tracker.length, tracker.depth)
