"""Trace serialization and run aggregation.

The trace is the single source of truth: every aggregate here is a pure
function of the trace records plus the scenario constants, so summaries
are recomputable offline from the emitted CSV. Floats are written in
shortest round-trip form, which keeps re-read traces bit-identical.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape  # the C escaper of json.dumps
from pathlib import Path
from typing import NamedTuple, TextIO, get_args, get_type_hints

from .energy import (
    LedgerEntry,
    battery_life_bound,
    cycle_energy,
    energy_savings_percent,
)
from .model import ConfigurationError, InferenceMode, SimEvent
from .scenario import NodeConfig, Scenario

#: The trace format: (column, SimEvent attribute), in SimEvent's field
#: order, which ``read_trace_csv`` relies on to build records by position.
_TRACE_FORMAT = (
    ("timestamp_ms", "timestamp_ms"),
    ("node_id", "node_id"),
    ("event_kind", "kind"),
    ("mode", "mode"),
    ("state", "state"),
    ("H_hex", "history_hex"),
    ("tau", "tau"),
    ("sigma", "sigma"),
    ("q_t", "queue_len"),
    ("latency_ms", "latency_ms"),
    ("battery_pct", "battery_pct"),
)
TRACE_COLUMNS = tuple(column for column, _ in _TRACE_FORMAT)

_kind = operator.attrgetter("kind")
_MODES = tuple(m.value for m in InferenceMode)
_SENSOR = InferenceMode.SENSOR.value

#: Response kinds that complete a round-trip latency measurement.
RESPONSE_KINDS = frozenset({"response-blank", "mode-command"})

#: Rows formatted into one string before it goes to the file: enough that
#: each write is large, few enough that a batch's text is never held whole.
WRITE_CHUNK_ROWS = 512

_ENERGY_FORMAT = (("timestamp_ms", "timestamp_ms"), ("node_id", "node_id"),
                  ("operation", "operation"), ("energy_mJ", "energy_mj"),
                  ("battery_pct", "battery_pct"))


class _Cells(dict):
    """The cell of each distinct value met, ``template % convert(value)``, made once."""

    def __init__(self, template: str, convert: Callable[[object], str]) -> None:
        super().__init__()
        self._template, self._convert = template, convert

    def __missing__(self, value) -> str:
        cell = self[value] = self._template % self._convert(value)
        return cell


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def _json_cell(value) -> str:
    return "null" if value is None else _escape(value) if isinstance(value, str) else repr(value)


class _LineFormat:
    """One artifact's line template, split by column, and each column's conversion.

    ``columns`` pairs each key with the record attribute it shows. A CSV
    line joins each value's ``str`` with commas, None as an empty cell. A
    JSON line is what ``json.dumps(..., sort_keys=True)`` writes for the
    record as an object of these keys: text escaped as ``json.dumps``
    escapes it, numbers in ``repr``, None as ``null``. Each column's
    template holds its key, and the first and last hold the braces.

    An attribute's annotation gives its column's type. Text and counts
    repeat, so each distinct value is converted once per call; a float is
    converted every time, as -0.0 and 0.0 are equal keys with different text.
    """

    def __init__(self, record_type: type, columns, jsonl: bool = False) -> None:
        if jsonl:
            columns = sorted(columns)
            self.header, self._sep, self._cell, null = "", ", ", _json_cell, "null"
            templates = [f"{_escape(key)}: %s" for key, _ in columns]
            templates[0], templates[-1] = "{" + templates[0], templates[-1] + "}"
        else:
            self.header = ",".join(key for key, _ in columns) + "\n"
            self._sep, self._cell, null = ",", _csv_cell, ""
            templates = ["%s"] * len(columns)
        self._null = {None: null}.get  # _null(value, cell): None's cell, else ``cell``
        hints = get_type_hints(record_type)
        self._columns = [
            (template, operator.attrgetter(attr), float in (get_args(hints[attr]) or (hints[attr],)))
            for template, (_, attr) in zip(templates, columns)
        ]

    def _chunks(self, records: Iterable) -> Iterator[str]:
        """The lines, ``WRITE_CHUNK_ROWS`` rows to a string, each ending with a newline."""
        records = records if isinstance(records, list) else list(records)  # read once per column
        columns = [(template, get, None if is_float else _Cells(template, self._cell).__getitem__)
                   for template, get, is_float in self._columns]
        for start in range(0, len(records), WRITE_CHUNK_ROWS):
            chunk = records[start:start + WRITE_CHUNK_ROWS]
            cells = []
            for template, get, cell in columns:
                if cell is None:  # a float column
                    column = map(self._null, map(get, chunk), map(repr, map(get, chunk)))
                    cells.append(column if template == "%s" else map(template.__mod__, column))
                else:
                    cells.append(map(cell, map(get, chunk)))
            # the empty last line ends the chunk with a newline
            yield "\n".join(chain(map(self._sep.join, zip(*cells)), ("",)))

    def write(self, records: Iterable, dest: str | os.PathLike | TextIO) -> None:
        """Append the lines to an open file, or write the header and lines to a new file.

        Every writer takes either destination: a path gets the whole
        artifact, and an open file gets only the rows, so that a caller can
        stream one artifact in batches. Either way the rows reach the file
        in chunks, so no text of the whole batch is held at once.
        """
        if isinstance(dest, (str, os.PathLike)):
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(self.header)
                fh.writelines(self._chunks(records))
        else:
            dest.writelines(self._chunks(records))


_TRACE_CSV = _LineFormat(SimEvent, _TRACE_FORMAT)
#: The JSONL object adds ``detail`` to the trace columns.
_TRACE_JSONL = _LineFormat(SimEvent, (*_TRACE_FORMAT, ("detail", "detail")), jsonl=True)
_ENERGY_CSV = _LineFormat(LedgerEntry, _ENERGY_FORMAT)


def write_trace_csv(records: Iterable[SimEvent], dest: str | os.PathLike | TextIO) -> None:
    _TRACE_CSV.write(records, dest)


def write_trace_jsonl(records: Iterable[SimEvent], dest: str | os.PathLike | TextIO) -> None:
    _TRACE_JSONL.write(records, dest)


def read_trace_csv(path: str | Path) -> list[SimEvent]:
    """Read a trace back row by row; aborts with the row number on any malformed row.

    A trace repeats a few node ids, kinds, states and history windows
    across many rows, so each distinct value is kept as one shared string.
    The table lives only for the call: ``sys.intern`` would keep every
    history window for the life of the process.
    """
    share = {}.setdefault
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != ",".join(TRACE_COLUMNS):
            raise ConfigurationError(f"{path}: row 1: missing or wrong header")
        records = []
        for i, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(TRACE_COLUMNS):
                raise ConfigurationError(
                    f"{path}: row {i}: expected {len(TRACE_COLUMNS)} columns, got {len(cells)}"
                )
            t, node_id, kind, mode, state, bits, tau, sigma, queue, latency, battery = cells
            try:
                records.append(SimEvent(
                    float(t), share(node_id, node_id), share(kind, kind), mode or None,
                    share(state, state) if state else None,
                    share(bits, bits) if bits else None,
                    int(tau) if tau else None, int(sigma) if sigma else None,
                    int(queue) if queue else None, float(latency) if latency else None,
                    float(battery) if battery else None,
                ))
            except ValueError as err:
                raise ConfigurationError(f"{path}: row {i}: {err}") from None
    return records


def write_energy_csv(entries: Iterable[LedgerEntry], dest: str | os.PathLike | TextIO) -> None:
    _ENERGY_CSV.write(entries, dest)


class LatencySample(NamedTuple):
    """One ``latency.csv`` row, its fields in column order."""

    timestamp_ms: float
    node_id: str
    mode: str  # the tier that served the request
    latency_ms: float


class _LatencyMatcher:
    """Recovers the per-mode latency series from a trace, one batch at a time.

    On-device predictions carry their latency directly. An offboard
    response carries the measured latency and is matched to its node's
    outstanding request sent at ``timestamp_ms - latency_ms``, taking the
    nearest send time because the subtraction may round. The mode recorded
    at send time names the serving tier. A dropped request is never
    answered, and its send time is never the nearest to an answer's, so it
    stays outstanding; a timeout retires nothing, because the request it
    names may be one still in service. Requests still outstanding at the
    end of a batch carry over to the next.
    """

    def __init__(self) -> None:
        self._outstanding: dict[str, list[tuple[float, str]]] = {}

    def match(self, records: Iterable[SimEvent]) -> list[LatencySample]:
        outstanding = self._outstanding
        series: list[LatencySample] = []
        for r in records:
            kind = r.kind
            if kind == "predict" and r.latency_ms is not None:
                series.append(LatencySample(r.timestamp_ms, r.node_id, r.mode, r.latency_ms))
            elif kind == "request-send":
                outstanding.setdefault(r.node_id, []).append((r.timestamp_ms, r.mode))
            elif kind in RESPONSE_KINDS:
                pending = outstanding.get(r.node_id)
                if not pending:
                    raise ConfigurationError(
                        f"response for {r.node_id} at {r.timestamp_ms} ms without a request"
                    )
                # Send times rise along the list, so the distance to ``sent``
                # falls and then rises: scan back from the newest to its minimum.
                sent = r.timestamp_ms - r.latency_ms
                i = len(pending) - 1
                while i and abs(pending[i - 1][0] - sent) < abs(pending[i][0] - sent):
                    i -= 1
                origin = pending.pop(i)[1]
                series.append(LatencySample(r.timestamp_ms, r.node_id, origin, r.latency_ms))
        return series


def extract_latency_series(records: Iterable[SimEvent]) -> list[LatencySample]:
    """The latency series of a whole trace: the matcher applied to one batch."""
    return _LatencyMatcher().match(records)


_LATENCY_CSV = _LineFormat(LatencySample, [(name, name) for name in LatencySample._fields])


def write_latency_csv(series: Iterable[LatencySample],
                      dest: str | os.PathLike | TextIO) -> None:
    _LATENCY_CSV.write(series, dest)


@dataclass
class RunSummary:
    """Aggregates of one run; every trace-derived field is recomputable offline."""

    name: str
    duration_ms: float
    node_count: int
    predictions: int = 0
    requests: int = 0
    responses: int = 0
    timeouts: int = 0
    transitions: int = 0
    violations: int = 0
    latency_count: dict[str, int] = field(default_factory=dict)
    mean_latency_ms: dict[str, float] = field(default_factory=dict)
    occupancy: dict[str, float] = field(default_factory=dict)
    total_energy_mj: float = 0.0
    battery_dead_ms: dict[str, float] = field(default_factory=dict)
    onboard_cycle_mj: float = 0.0
    offboard_cycle_mj: float = 0.0
    energy_savings_pct: float = 0.0
    projected_life_onboard_h: float = 0.0
    projected_life_offboard_h: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class SummaryFold:
    """The run summary as a fold over the trace, taken in batches.

    The scenario supplies the constants a trace cannot carry: cycle
    energies, the battery capacity behind the projected-life bounds, and
    the per-node capacities used to convert battery percentages back to
    consumed energy. ``update`` takes the next batch of records in trace
    order and returns its latency samples; ``result`` summarizes every
    record seen so far. However a trace is split into batches, the fold
    gives the same summary and the same latency series.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._capacities = {cfg.node_id: cfg.battery_capacity_j for cfg in scenario.nodes}
        self._kinds: Counter[str] = Counter()
        self._matcher = _LatencyMatcher()
        self._latency_count = dict.fromkeys(_MODES, 0)
        self._latency_total = dict.fromkeys(_MODES, 0.0)
        # Time-weighted mode spans (each node's initial mode holds from
        # t=0), each node's last battery level and battery deaths.
        self._time_in = dict.fromkeys(_MODES, 0.0)
        self._spans: dict[str, tuple[str, float]] = {}  # node -> (mode, since)
        self._last_pct: dict[str, float] = {}
        self._dead_ms: dict[str, float] = {}

    def update(self, records: list[SimEvent]) -> list[LatencySample]:
        """Fold in the next batch of records; returns the batch's latency samples."""
        self._kinds.update(map(_kind, records))
        series = self._matcher.match(records)
        count, total = self._latency_count, self._latency_total
        for sample in series:
            count[sample.mode] += 1
            total[sample.mode] += sample.latency_ms

        capacities, time_in, spans = self._capacities, self._time_in, self._spans
        last_pct, dead_ms = self._last_pct, self._dead_ms
        for r in records:
            node_id, kind, mode = r.node_id, r.kind, r.mode
            if node_id and mode is not None:
                span = spans.get(node_id)
                if span is None:
                    spans[node_id] = (mode, 0.0)
                elif kind == "mode-change":
                    time_in[span[0]] += r.timestamp_ms - span[1]
                    spans[node_id] = (mode, r.timestamp_ms)
            if kind == "battery-dead":
                dead_ms[node_id] = r.timestamp_ms
            elif kind == "predict" and mode != _SENSOR:
                continue  # tier-side rows echo the level attached at send time
            if r.battery_pct is not None and node_id in capacities:
                last_pct[node_id] = r.battery_pct
        return series

    def result(self) -> RunSummary:
        """The summary of every record folded in so far."""
        scenario, kinds = self.scenario, self._kinds
        summary = RunSummary(
            name=scenario.name,
            duration_ms=scenario.duration_ms,
            node_count=len(scenario.nodes),
            predictions=kinds["predict"],
            requests=kinds["request-send"],
            responses=sum(kinds[k] for k in RESPONSE_KINDS),
            timeouts=kinds["request-timeout"],
            transitions=kinds["mode-change"],
            violations=kinds["protocol-violation"],
            latency_count=dict(self._latency_count),
            mean_latency_ms=dict.fromkeys(_MODES, 0.0),
            occupancy=dict.fromkeys(_MODES, 0.0),
            battery_dead_ms=dict(self._dead_ms),
        )
        _fill_analytics(summary, scenario)
        for m, n in self._latency_count.items():
            if n:
                summary.mean_latency_ms[m] = self._latency_total[m] / n

        time_in = dict(self._time_in)
        for mode, since in self._spans.values():
            time_in[mode] += scenario.duration_ms - since
        total = scenario.duration_ms * len(self._spans)
        if total > 0:
            summary.occupancy = {m: time_in[m] / total for m in _MODES}
        for node_id, pct in self._last_pct.items():  # a plain loop: sum() of floats may compensate
            summary.total_energy_mj += self._capacities[node_id] * (1.0 - pct / 100.0) * 1000.0
        return summary


def summarize(records: list[SimEvent], scenario: Scenario) -> RunSummary:
    """Aggregate a whole trace into the run summary: the fold applied to one batch."""
    fold = SummaryFold(scenario)
    fold.update(records)
    return fold.result()


def _fill_analytics(summary: RunSummary, scenario: Scenario) -> None:
    node = scenario.nodes[0] if scenario.nodes else NodeConfig()
    sleep_ms = node.sleep_period_ms
    table = scenario.energy
    summary.onboard_cycle_mj = cycle_energy(InferenceMode.SENSOR, sleep_ms, table)
    summary.offboard_cycle_mj = cycle_energy(InferenceMode.CLOUD, sleep_ms, table)
    summary.energy_savings_pct = energy_savings_percent(
        summary.onboard_cycle_mj, summary.offboard_cycle_mj
    )
    battery = node.make_battery()
    summary.projected_life_onboard_h = battery_life_bound(
        battery, InferenceMode.SENSOR, sleep_ms, table
    )
    summary.projected_life_offboard_h = battery_life_bound(
        battery, InferenceMode.CLOUD, sleep_ms, table
    )
