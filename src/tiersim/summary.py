"""Trace serialization and run aggregation.

The trace is the single source of truth: every aggregate here is a pure
function of the trace records plus the scenario constants, so summaries
are recomputable offline from the emitted CSV. Floats are written in
shortest round-trip form, which keeps re-read traces bit-identical.
"""

from __future__ import annotations

import json
import operator
import os
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape  # the C escaper of json.dumps
from pathlib import Path
from typing import NamedTuple, TextIO, get_args, get_type_hints

from .energy import (
    EnergyLedger,
    LedgerEntry,
    battery_life_bound,
    cycle_energy,
    energy_savings_percent,
)
from .model import ConfigurationError, InferenceMode, NodeState, SimEvent
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
#: Each (mode, state) cell pair a trace row may hold, and the values it
#: reads as: the enums' own strings, and None for an empty cell.
_MODE_STATE_CELLS = {
    (mode, state): (mode or None, state or None)
    for mode in ("", *_MODES) for state in ("", *(s.value for s in NodeState))
}

#: The artifact set of one run, in the order ``ArtifactSink`` opens them.
ARTIFACTS = ("trace.csv", "trace.jsonl", "energy.csv", "latency.csv", "summary.json")

#: Response kinds that complete a round-trip latency measurement.
RESPONSE_KINDS = frozenset({"response-blank", "mode-command"})

#: Rows formatted into one string before it goes to the file: enough that
#: each write is large, few enough that a batch's text is never held whole.
#: The simulator hands an ``ArtifactSink`` batches of this many records.
WRITE_CHUNK_ROWS = 128

_ENERGY_FORMAT = (("timestamp_ms", "timestamp_ms"), ("node_id", "node_id"),
                  ("operation", "operation"), ("energy_mJ", "energy_mj"),
                  ("battery_pct", "battery_pct"))


def _json_cell(value) -> str:
    if value is None or isinstance(value, bool):
        return json.dumps(value)  # null, true or false, where repr writes None, True or False
    return _escape(value) if isinstance(value, str) else repr(value)


#: The types a float column's values share texts within: a value of another
#: type can equal one of them, as ``5 == 5.0 == True`` do.
_FLOATS = {float, type(None)}


class _FloatText(dict):
    """The ``repr`` of each distinct non-zero float in some columns, made once.

    A zero is converted on every lookup, because ``0.0 == -0.0`` makes
    them one key with two texts. None maps to a placeholder, which each
    line format replaces with its own null. Only columns of floats and
    None share texts; for any others ``floats_only`` is false, the table
    is empty, and each line format converts every value on its own.
    """

    def __init__(self, columns: Iterable[list]) -> None:
        columns = tuple(columns)
        self.floats_only = set(map(type, chain.from_iterable(columns))) <= _FLOATS
        distinct = set(chain.from_iterable(columns)) if self.floats_only else set()
        distinct.discard(None)
        distinct.discard(0.0)  # whichever zero came first
        super().__init__(zip(distinct, map(repr, distinct)))
        self[None] = ""

    def __missing__(self, value) -> str:
        return repr(value)


class _Batch:
    """A batch's columns, already read, and the float texts they share.

    ``ArtifactSink`` reads a batch's columns once for every artifact and
    builds one ``_FloatText`` for all of them; a writer given a ``_Batch``
    formats it as one chunk.
    """

    def __init__(self, columns: dict[str, Sequence], texts: _FloatText) -> None:
        self.columns, self.texts = columns, texts


class _LineFormat:
    """One artifact's line template, split by column, and each column's conversion.

    ``columns`` pairs each key with the record attribute it shows. A CSV
    line joins each value's ``str`` with commas, None as an empty cell. A
    JSON line is what ``json.dumps(..., sort_keys=True)`` writes for the
    record as an object of these keys: text escaped as ``json.dumps``
    escapes it, numbers in ``repr``, None as ``null``. Each column's
    template holds its key, and the first and last hold the braces.

    An attribute's annotation gives its column's kind, and each column is
    converted whole, one chunk at a time. A float's text comes from a
    ``_FloatText`` of the chunk, which a sink's batch shares among all
    four artifacts, so each distinct non-zero float of a chunk is
    converted once. Every other column has one rule, ``convert``: the
    JSON escaper for text in a JSON line, ``str`` for CSV text and for
    counts. Its values repeat, so a chunk whose column holds only values
    of the annotated type or None builds a table of each distinct value's
    cell, made once, and each row's cell is one lookup. A chunk whose
    column holds a value of neither, such as a bool, converts that column
    value by value, since ``1 == 1.0 == True`` would share one cell, and
    a JSON line writes a bool as ``json.dumps`` does.
    """

    def __init__(self, record_type: type, columns, jsonl: bool = False) -> None:
        if jsonl:
            columns = sorted(columns)
            self.header, self._sep, self._cell, null, text = "", ", ", _json_cell, "null", _escape
            templates = [f"{_escape(key)}: %s" for key, _ in columns]
            templates[0], templates[-1] = "{" + templates[0], templates[-1] + "}"
        else:
            self.header = ",".join(key for key, _ in columns) + "\n"
            self._sep, self._cell, null = ",", str, ""
            text, templates = str, ["%s"] * len(columns)
        self._null = {None: null}.get  # _null(value, cell): None's cell, else ``cell``
        hints = get_type_hints(record_type)
        # (template, attribute, convert, types): convert gives the text of a value of the
        # annotated types, or is None for a float column; types are those plus None
        self._columns = []
        for template, (_, attr) in zip(templates, columns):
            types = get_args(hints[attr]) or (hints[attr],)
            convert = None if float in types else text if str in types else str
            self._columns.append((template, attr, convert, {*types, type(None)}))
        self.attrs = tuple(attr for _, attr, _, _ in self._columns)
        self.float_attrs = tuple(attr for _, attr, convert, _ in self._columns if convert is None)

    def read(self, rows: list) -> dict[str, list]:
        """Each of this format's attributes' values over the rows, read once."""
        return {attr: list(map(operator.attrgetter(attr), rows)) for attr in self.attrs}

    def _chunks(self, records: Iterable) -> Iterator[str]:
        """The lines, each ending with a newline, one string per chunk.

        A chunk is ``WRITE_CHUNK_ROWS`` rows, or a whole ``_Batch``.
        """
        if isinstance(records, _Batch):
            yield self._lines(records.columns, records.texts)
            return
        records = records if isinstance(records, list) else list(records)
        for start in range(0, len(records), WRITE_CHUNK_ROWS):
            columns = self.read(records[start:start + WRITE_CHUNK_ROWS])
            texts = _FloatText(columns[attr] for attr in self.float_attrs)
            yield self._lines(columns, texts)

    def _lines(self, columns: dict[str, Sequence], texts: _FloatText) -> str:
        null = self._null
        float_text = texts.__getitem__ if texts.floats_only else self._cell
        cells = []
        for template, attr, convert, types in self._columns:
            values = columns[attr]
            if convert is not None and set(map(type, values)) <= types:
                distinct = set(values) - {None}
                table = dict(zip(distinct, map(template.__mod__, map(convert, distinct))))
                table[None] = template % null(None)
                cells.append(map(table.__getitem__, values))
                continue
            column = map(null, values, map(float_text if convert is None else self._cell, values))
            cells.append(column if template == "%s" else map(template.__mod__, column))
        # the empty last line ends the chunk with a newline
        return "\n".join(chain(map(self._sep.join, zip(*cells)), ("",)))

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

    A mode cell must be S, G, C or empty and a state cell a node state or
    empty; both read as the enums' own strings. A trace repeats a few node
    ids, kinds and history windows across many rows, so each distinct
    value is kept as one shared string. The table lives only for the
    call: ``sys.intern`` would keep every history window for the life of
    the process. Consecutive rows often repeat a timestamp (events at one
    instant) or a battery level (a node's rows between two debits), so a
    row whose cell text equals the previous row's shares that row's
    float. The key is the text, not the value, which keeps ``-0.0`` apart
    from ``0.0``. A number that is NaN or infinite is malformed: no writer
    writes one.
    """
    share, inf = {}.setdefault, float("inf")
    t_text = battery_text = None  # the previous row's cells, parsed as t_value, battery_value
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
                if t != t_text:
                    t_value, t_text = float(t), t
                    if not -inf < t_value < inf:
                        raise ValueError(f"timestamp_ms {t!r} is not finite")
                if battery != battery_text:
                    battery_value, battery_text = float(battery) if battery else None, battery
                    if battery and not -inf < battery_value < inf:
                        raise ValueError(f"battery_pct {battery!r} is not finite")
                latency_value = float(latency) if latency else None
                if latency and not -inf < latency_value < inf:
                    raise ValueError(f"latency_ms {latency!r} is not finite")
                mode_value, state_value = _MODE_STATE_CELLS[mode, state]
                records.append(SimEvent(
                    t_value, share(node_id, node_id), share(kind, kind), mode_value, state_value,
                    share(bits, bits) if bits else None,
                    int(tau) if tau else None, int(sigma) if sigma else None,
                    int(queue) if queue else None, latency_value, battery_value,
                ))
            except ValueError as err:
                raise ConfigurationError(f"{path}: row {i}: {err}") from None
            except KeyError:
                wrong = (f"mode {mode!r} is not S, G, C or empty"
                         if (mode, "") not in _MODE_STATE_CELLS
                         else f"state {state!r} is not a node state or empty")
                raise ConfigurationError(f"{path}: row {i}: {wrong}") from None
    return records


def write_energy_csv(entries: Iterable[LedgerEntry], dest: str | os.PathLike | TextIO) -> None:
    _ENERGY_CSV.write(entries, dest)


class LatencySample(NamedTuple):
    """One ``latency.csv`` row, its fields in column order."""

    timestamp_ms: float
    node_id: str
    mode: str  # the tier that served the request
    latency_ms: float


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
    """The run summary and the latency series as one fold over the trace, taken in batches.

    ``update`` takes the next batch of records in trace order and returns
    its latency samples; ``result`` summarizes every record seen so far.
    However a trace is split into batches, the fold gives the same summary
    and the same latency series.

    On-device predictions carry their latency directly. An offboard
    response carries the measured latency and is matched to its node's
    outstanding request sent at ``timestamp_ms - latency_ms``, taking the
    nearest send time because the subtraction may round. The mode recorded
    at send time names the serving tier. A dropped request is never
    answered, and its send time is never the nearest to an answer's, so it
    stays outstanding; a timeout retires nothing, because the request it
    names may be one still in service. Requests still outstanding at the
    end of a batch carry over to the next. A response with no outstanding
    request, or without a latency, is rejected, and so is a prediction with
    a latency, or an answered request, without a mode: the fold cannot tell
    which tier served it. A mode that is not a tier is rejected wherever the
    fold keys on one: there, in a node's first mode and in a mode change.
    """

    def __init__(self) -> None:
        self._kinds: Counter[str] = Counter()
        self._outstanding: dict[str, list[tuple[float, str]]] = {}  # node -> (sent, mode)
        self._latency_count = dict.fromkeys(_MODES, 0)
        self._latency_total = dict.fromkeys(_MODES, 0.0)
        # Time-weighted mode spans (each node's initial mode holds from
        # t=0), each node's last battery level and battery deaths.
        self._time_in = dict.fromkeys(_MODES, 0.0)
        self._spans: dict[str, tuple[str, float]] = {}  # node -> (mode, since)
        self._last_pct: dict[str, float] = {}
        self._dead_ms: dict[str, float] = {}

    def update(self, records: Iterable[SimEvent]) -> list[LatencySample]:
        """Fold in the next batch of records; returns the batch's latency samples."""
        records = records if isinstance(records, list) else list(records)
        self._kinds.update(map(_kind, records))
        outstanding, count, total = self._outstanding, self._latency_count, self._latency_total
        time_in, spans = self._time_in, self._spans
        last_pct, dead_ms = self._last_pct, self._dead_ms
        series: list[LatencySample] = []
        for r in records:
            node_id, kind, mode = r.node_id, r.kind, r.mode
            if node_id not in spans:
                if node_id and mode is not None:
                    if mode not in time_in:
                        raise _no_tier(kind, node_id, r.timestamp_ms, mode)
                    spans[node_id] = (mode, 0.0)
            elif kind == "mode-change" and mode is not None:
                if mode not in time_in:
                    raise _no_tier(kind, node_id, r.timestamp_ms, mode)
                span = spans[node_id]
                time_in[span[0]] += r.timestamp_ms - span[1]
                spans[node_id] = (mode, r.timestamp_ms)
            if kind == "predict":
                latency = r.latency_ms
                if latency is None:
                    # a tier-side row echoes the level attached at send time; its
                    # mode is the node's at service time, which may be S again
                    continue
                if mode not in count:
                    raise _no_tier(kind, node_id, r.timestamp_ms, mode)
                series.append(LatencySample(r.timestamp_ms, node_id, mode, latency))
                count[mode] += 1
                total[mode] += latency
            elif kind == "request-send":
                outstanding.setdefault(node_id, []).append((r.timestamp_ms, mode))
            elif kind in RESPONSE_KINDS:
                pending, latency = outstanding.get(node_id), r.latency_ms
                if not pending or latency is None:
                    missing = "a latency" if pending else "a request"
                    raise ConfigurationError(
                        f"response for {node_id} at {r.timestamp_ms} ms without {missing}")
                # Send times rise along the list, so the distance to ``sent``
                # falls and then rises: scan back from the newest to its minimum.
                sent = r.timestamp_ms - latency
                i = len(pending) - 1
                while i and abs(pending[i - 1][0] - sent) < abs(pending[i][0] - sent):
                    i -= 1
                sent_ms, origin = pending.pop(i)
                if origin not in count:
                    raise _no_tier("request-send", node_id, sent_ms, origin)
                series.append(LatencySample(r.timestamp_ms, node_id, origin, latency))
                count[origin] += 1
                total[origin] += latency
            elif kind == "battery-dead":
                dead_ms[node_id] = r.timestamp_ms
            if r.battery_pct is not None:
                last_pct[node_id] = r.battery_pct
        return series

    def result(self, scenario: Scenario) -> RunSummary:
        """The summary of every record folded in so far.

        The scenario supplies the constants a trace cannot carry: cycle
        energies, the battery capacity behind the projected-life bounds,
        and the per-node capacities that convert the last battery levels
        back to consumed energy; a node the scenario does not hold
        consumes none.
        """
        kinds, table = self._kinds, scenario.energy
        node = scenario.nodes[0] if scenario.nodes else NodeConfig()
        sleep_ms, battery = node.sleep_period_ms, node.make_battery()
        onboard = cycle_energy(InferenceMode.SENSOR, sleep_ms, table)
        offboard = cycle_energy(InferenceMode.CLOUD, sleep_ms, table)
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
            mean_latency_ms={m: self._latency_total[m] / n if n else 0.0
                             for m, n in self._latency_count.items()},
            occupancy=dict.fromkeys(_MODES, 0.0),
            battery_dead_ms=dict(self._dead_ms),
            onboard_cycle_mj=onboard,
            offboard_cycle_mj=offboard,
            energy_savings_pct=energy_savings_percent(onboard, offboard),
            projected_life_onboard_h=battery_life_bound(
                battery, InferenceMode.SENSOR, sleep_ms, table),
            projected_life_offboard_h=battery_life_bound(
                battery, InferenceMode.CLOUD, sleep_ms, table),
        )
        time_in = dict(self._time_in)
        for mode, since in self._spans.values():
            time_in[mode] += scenario.duration_ms - since
        total = scenario.duration_ms * len(self._spans)
        if total > 0:
            summary.occupancy = {m: time_in[m] / total for m in _MODES}
        capacities = {cfg.node_id: cfg.battery_capacity_j for cfg in scenario.nodes}
        for node_id, pct in self._last_pct.items():  # a plain loop: sum() of floats may compensate
            if node_id in capacities:
                summary.total_energy_mj += capacities[node_id] * (1.0 - pct / 100.0) * 1000.0
        return summary


def _no_tier(kind: str, node_id: str, at_ms: float, mode: str | None) -> ConfigurationError:
    """The fold's rejection of a record whose mode names no tier."""
    how = "without a mode" if mode is None else f"with mode {mode!r}, which is not a tier"
    return ConfigurationError(f"{kind} for {node_id} at {at_ms} ms {how}")


def summarize(records: Iterable[SimEvent], scenario: Scenario) -> RunSummary:
    """Aggregate a whole trace into the run summary: the fold applied to one batch."""
    fold = SummaryFold()
    fold.update(records)
    return fold.result(scenario)


def extract_latency_series(records: Iterable[SimEvent]) -> list[LatencySample]:
    """The latency series of a whole trace: the fold applied to one batch."""
    return SummaryFold().update(records)


class ArtifactSink:
    """The five artifacts of one run, written as the simulator hands its trace over.

    Pass the sink to ``Simulator.run``. Each batch of records goes to
    ``trace.csv`` and ``trace.jsonl``, the ledger's debits since the
    previous batch, read with ``EnergyLedger.columns``, to ``energy.csv``,
    and the batch's latency samples, which the summary fold returns, to
    ``latency.csv``. The sink reads a batch's columns once and converts
    each distinct non-zero float in them once for all four files, then
    writes each file through its ``write_*`` function. ``close`` closes
    the files, writes ``summary.json`` and returns the summary; leaving a
    ``with`` block without calling it only closes the files.
    """

    def __init__(self, scenario: Scenario, ledger: EnergyLedger,
                 directory: str | os.PathLike) -> None:
        self._directory, self._scenario = Path(directory), scenario
        self._fold = SummaryFold()
        self._ledger, self._written = ledger, 0  # debits already in energy.csv
        with ExitStack() as stack:  # a failed open closes the files opened before it
            self._files = []
            for name, fmt in zip(ARTIFACTS, (_TRACE_CSV, _TRACE_JSONL, _ENERGY_CSV, _LATENCY_CSV)):
                fh = stack.enter_context(open(self._directory / name, "w", encoding="utf-8"))
                fh.write(fmt.header)
                self._files.append(fh)
            self._open = stack.pop_all()

    def __call__(self, records: list[SimEvent]) -> None:
        ledger, start = self._ledger, self._written
        self._written = len(ledger)
        samples = self._fold.update(records)
        trace = _TRACE_JSONL.read(records)  # every SimEvent attribute, trace.csv's among them
        energy = ledger.columns(start)  # keyed by the LedgerEntry fields the format shows
        latency = _LATENCY_CSV.read(samples)
        texts = _FloatText(chain(
            (trace[attr] for attr in _TRACE_JSONL.float_attrs),
            (energy[attr] for attr in _ENERGY_CSV.float_attrs),
            (latency[attr] for attr in _LATENCY_CSV.float_attrs),
        ))
        trace_csv, trace_jsonl, energy_csv, latency_csv = self._files
        batch = _Batch(trace, texts)
        write_trace_csv(batch, trace_csv)
        write_trace_jsonl(batch, trace_jsonl)
        write_energy_csv(_Batch(energy, texts), energy_csv)
        write_latency_csv(_Batch(latency, texts), latency_csv)

    def close(self) -> RunSummary:
        """Close the row artifacts, then write ``summary.json``; returns the summary."""
        self._open.close()
        summary = self._fold.result(self._scenario)
        (self._directory / ARTIFACTS[-1]).write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8",
        )
        return summary

    def __enter__(self) -> "ArtifactSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self._open.close()
