"""Trace serialization and run aggregation.

The trace is the single source of truth: every aggregate here is a pure
function of the trace records plus the scenario constants, so summaries
are recomputable offline from the emitted CSV. Floats are written in
shortest round-trip form, which keeps re-read traces bit-identical.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .energy import (
    EnergyLedger,
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
_trace_row = operator.attrgetter(*(attr for _, attr in _TRACE_FORMAT))

#: The JSONL object adds ``detail``. Its keys are pre-sorted, so each
#: record dumps in sorted-key order without being sorted again.
_JSONL_KEYS, _JSONL_ATTRS = zip(*sorted((*_TRACE_FORMAT, ("detail", "detail"))))
_jsonl_row = operator.attrgetter(*_JSONL_ATTRS)

#: Response kinds that complete a round-trip latency measurement.
RESPONSE_KINDS = frozenset({"response-blank", "mode-command"})


def _write_csv(path: str | Path, columns, rows) -> None:
    """Write a header and one row per tuple; None is an empty cell, floats round-trip."""
    lines = [",".join(columns)]
    lines.extend(",".join(["" if v is None else str(v) for v in row]) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_csv(records: list[SimEvent], path: str | Path) -> None:
    _write_csv(path, TRACE_COLUMNS, map(_trace_row, records))


def write_trace_jsonl(records: list[SimEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(dict(zip(_JSONL_KEYS, _jsonl_row(r)))) + "\n" for r in records)


def read_trace_csv(path: str | Path) -> list[SimEvent]:
    """Read a trace back; aborts with the row number on any malformed row."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ConfigurationError(f"{path}: row 1: missing or wrong header")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ConfigurationError(
                f"{path}: row {i}: expected {len(TRACE_COLUMNS)} columns, got {len(cells)}"
            )
        t, node_id, kind, mode, state, bits, tau, sigma, queue, latency, battery = cells
        try:
            records.append(SimEvent(
                float(t), node_id, kind, mode or None, state or None, bits or None,
                int(tau) if tau else None, int(sigma) if sigma else None,
                int(queue) if queue else None, float(latency) if latency else None,
                float(battery) if battery else None,
            ))
        except ValueError as err:
            raise ConfigurationError(f"{path}: row {i}: {err}") from None
    return records


def write_energy_csv(ledger: EnergyLedger, path: str | Path) -> None:
    _write_csv(
        path, ("timestamp_ms", "node_id", "operation", "energy_mJ", "battery_pct"),
        map(operator.attrgetter("timestamp_ms", "node_id", "operation", "energy_mj",
                                "battery_pct"), ledger.entries),
    )


@dataclass(frozen=True)
class LatencySample:
    timestamp_ms: float
    node_id: str
    mode: str  # the tier that served the request
    latency_ms: float


def extract_latency_series(records: list[SimEvent]) -> list[LatencySample]:
    """Recover the per-mode latency series from a trace.

    On-device predictions carry their latency directly. Offboard
    round-trips are matched FIFO per node: the mode recorded at
    request-send time names the serving tier, the response (blank or
    mode command) supplies the measured latency.
    """
    outstanding: dict[str, list[str]] = {}
    series: list[LatencySample] = []
    for r in records:
        if r.kind == "predict" and r.latency_ms is not None:
            series.append(LatencySample(r.timestamp_ms, r.node_id, r.mode, r.latency_ms))
        elif r.kind == "request-send":
            outstanding.setdefault(r.node_id, []).append(r.mode)
        elif r.kind in RESPONSE_KINDS:
            pending = outstanding.get(r.node_id)
            if not pending:
                raise ConfigurationError(
                    f"response for {r.node_id} at {r.timestamp_ms} ms without a request"
                )
            origin = pending.pop(0)
            series.append(LatencySample(r.timestamp_ms, r.node_id, origin, r.latency_ms))
        elif r.kind == "request-timeout":
            pending = outstanding.get(r.node_id)
            if pending:
                pending.pop(0)
    return series


def write_latency_csv(series: list[LatencySample], path: str | Path) -> None:
    columns = ("timestamp_ms", "node_id", "mode", "latency_ms")
    _write_csv(path, columns, map(operator.attrgetter(*columns), series))


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


def summarize(records: list[SimEvent], scenario: Scenario,
              series: list[LatencySample] | None = None) -> RunSummary:
    """Aggregate a trace into the run summary.

    The scenario supplies the constants a trace cannot carry: cycle
    energies, the battery capacity behind the projected-life bounds, and
    the per-node capacities used to convert battery percentages back to
    consumed energy. ``series`` is the trace's latency series, when the
    caller has already extracted it; otherwise it is extracted here.
    """
    modes = [m.value for m in InferenceMode]
    kinds = Counter(map(operator.attrgetter("kind"), records))
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
        latency_count=dict.fromkeys(modes, 0),
        mean_latency_ms=dict.fromkeys(modes, 0.0),
        occupancy=dict.fromkeys(modes, 0.0),
    )
    _fill_analytics(summary, scenario)

    totals = dict.fromkeys(modes, 0.0)
    if series is None:
        series = extract_latency_series(records)
    for sample in series:
        summary.latency_count[sample.mode] += 1
        totals[sample.mode] += sample.latency_ms
    for m in modes:
        if summary.latency_count[m]:
            summary.mean_latency_ms[m] = totals[m] / summary.latency_count[m]

    # One pass for the time-weighted mode spans (each node's initial mode
    # holds from t=0), each node's last battery level and battery deaths.
    capacities = {cfg.node_id: cfg.battery_capacity_j for cfg in scenario.nodes}
    time_in = dict.fromkeys(modes, 0.0)
    spans: dict[str, tuple[str, float]] = {}  # node -> (mode, since)
    last_pct: dict[str, float] = {}
    sensor = InferenceMode.SENSOR.value
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
            summary.battery_dead_ms[node_id] = r.timestamp_ms
        elif kind == "predict" and mode != sensor:
            continue  # tier-side rows echo the level attached at send time
        if r.battery_pct is not None and node_id in capacities:
            last_pct[node_id] = r.battery_pct

    for mode, since in spans.values():
        time_in[mode] += scenario.duration_ms - since
    total = scenario.duration_ms * len(spans)
    if total > 0:
        summary.occupancy = {m: time_in[m] / total for m in modes}
    for node_id, pct in last_pct.items():  # a plain loop: sum() of floats may compensate
        summary.total_energy_mj += capacities[node_id] * (1.0 - pct / 100.0) * 1000.0
    return summary


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
