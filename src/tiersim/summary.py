"""Trace serialization and run aggregation.

The trace is the single source of truth: every aggregate here is a pure
function of the trace records plus the scenario constants, so summaries
are recomputable offline from the emitted CSV. Floats are written in
shortest round-trip form, which keeps re-read traces bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .energy import (
    EnergyLedger,
    battery_life_bound,
    cycle_energy,
    energy_savings_percent,
)
from .model import ConfigurationError, InferenceMode, SimEvent
from .scenario import NodeConfig, Scenario

TRACE_COLUMNS = (
    "timestamp_ms", "node_id", "event_kind", "mode", "state",
    "H_hex", "tau", "sigma", "q_t", "latency_ms", "battery_pct",
)

#: Response kinds that complete a round-trip latency measurement.
RESPONSE_KINDS = frozenset({"response-blank", "mode-command"})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv(records: list[SimEvent], path: str | Path) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    for r in records:
        lines.append(",".join((
            _fmt(r.timestamp_ms), r.node_id, r.kind, _fmt(r.mode), _fmt(r.state),
            _fmt(r.history_hex), _fmt(r.tau), _fmt(r.sigma), _fmt(r.queue_len),
            _fmt(r.latency_ms), _fmt(r.battery_pct),
        )))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_jsonl(records: list[SimEvent], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({
                "timestamp_ms": r.timestamp_ms,
                "node_id": r.node_id,
                "event_kind": r.kind,
                "mode": r.mode,
                "state": r.state,
                "H_hex": r.history_hex,
                "tau": r.tau,
                "sigma": r.sigma,
                "q_t": r.queue_len,
                "latency_ms": r.latency_ms,
                "battery_pct": r.battery_pct,
                "detail": r.detail,
            }, sort_keys=True))
            fh.write("\n")


def read_trace_csv(path: str | Path) -> list[SimEvent]:
    """Read a trace back; aborts with the row number on any malformed row."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ConfigurationError(f"{path}: row 1: missing or wrong header")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ConfigurationError(
                f"{path}: row {i}: expected {len(TRACE_COLUMNS)} columns, got {len(parts)}"
            )
        try:
            records.append(SimEvent(
                timestamp_ms=float(parts[0]),
                node_id=parts[1],
                kind=parts[2],
                mode=parts[3] or None,
                state=parts[4] or None,
                history_hex=parts[5] or None,
                tau=int(parts[6]) if parts[6] else None,
                sigma=int(parts[7]) if parts[7] else None,
                queue_len=int(parts[8]) if parts[8] else None,
                latency_ms=float(parts[9]) if parts[9] else None,
                battery_pct=float(parts[10]) if parts[10] else None,
            ))
        except ValueError as err:
            raise ConfigurationError(f"{path}: row {i}: {err}") from None
    return records


def write_energy_csv(ledger: EnergyLedger, path: str | Path) -> None:
    lines = ["timestamp_ms,node_id,operation,energy_mJ,battery_pct"]
    for e in ledger.entries:
        lines.append(",".join((
            _fmt(e.timestamp_ms), e.node_id, e.operation,
            _fmt(e.energy_mj), _fmt(e.battery_pct),
        )))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    lines = ["timestamp_ms,node_id,mode,latency_ms"]
    for s in series:
        lines.append(",".join((_fmt(s.timestamp_ms), s.node_id, s.mode, _fmt(s.latency_ms))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        return {
            "name": self.name,
            "duration_ms": self.duration_ms,
            "node_count": self.node_count,
            "predictions": self.predictions,
            "requests": self.requests,
            "responses": self.responses,
            "timeouts": self.timeouts,
            "transitions": self.transitions,
            "violations": self.violations,
            "latency_count": dict(self.latency_count),
            "mean_latency_ms": dict(self.mean_latency_ms),
            "occupancy": dict(self.occupancy),
            "total_energy_mj": self.total_energy_mj,
            "battery_dead_ms": dict(self.battery_dead_ms),
            "onboard_cycle_mj": self.onboard_cycle_mj,
            "offboard_cycle_mj": self.offboard_cycle_mj,
            "energy_savings_pct": self.energy_savings_pct,
            "projected_life_onboard_h": self.projected_life_onboard_h,
            "projected_life_offboard_h": self.projected_life_offboard_h,
        }


def summarize(records: list[SimEvent], scenario: Scenario) -> RunSummary:
    """Aggregate a trace into the run summary.

    The scenario supplies the constants a trace cannot carry: cycle
    energies, the battery capacity behind the projected-life bounds, and
    the per-node capacities used to convert battery percentages back to
    consumed energy.
    """
    modes = [m.value for m in InferenceMode]
    summary = RunSummary(
        name=scenario.name,
        duration_ms=scenario.duration_ms,
        node_count=len(scenario.nodes),
        latency_count={m: 0 for m in modes},
        mean_latency_ms={m: 0.0 for m in modes},
        occupancy={m: 0.0 for m in modes},
    )
    _fill_analytics(summary, scenario)

    for r in records:
        if r.kind == "predict":
            summary.predictions += 1
        elif r.kind == "request-send":
            summary.requests += 1
        elif r.kind in RESPONSE_KINDS:
            summary.responses += 1
        elif r.kind == "request-timeout":
            summary.timeouts += 1
        elif r.kind == "mode-change":
            summary.transitions += 1
        elif r.kind == "protocol-violation":
            summary.violations += 1
        elif r.kind == "battery-dead":
            summary.battery_dead_ms[r.node_id] = r.timestamp_ms

    totals = {m: 0.0 for m in modes}
    for sample in extract_latency_series(records):
        summary.latency_count[sample.mode] += 1
        totals[sample.mode] += sample.latency_ms
    for m in modes:
        if summary.latency_count[m]:
            summary.mean_latency_ms[m] = totals[m] / summary.latency_count[m]

    summary.occupancy = _occupancy(records, scenario.duration_ms, modes)
    summary.total_energy_mj = _consumed_energy_mj(records, scenario)
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


def _occupancy(records: list[SimEvent], duration_ms: float, modes: list[str]) -> dict[str, float]:
    """Time-weighted fraction each node spent in each mode, pooled over nodes."""
    time_in: dict[str, float] = {m: 0.0 for m in modes}
    current: dict[str, tuple[str, float]] = {}  # node -> (mode, since)
    for r in records:
        if not r.node_id or r.mode is None:
            continue
        if r.node_id not in current:
            current[r.node_id] = (r.mode, 0.0)  # initial mode holds from t=0
        elif r.kind == "mode-change":
            mode, since = current[r.node_id]
            time_in[mode] += r.timestamp_ms - since
            current[r.node_id] = (r.mode, r.timestamp_ms)
    for mode, since in current.values():
        time_in[mode] += duration_ms - since
    total = duration_ms * len(current)
    if total <= 0:
        return {m: 0.0 for m in modes}
    return {m: time_in[m] / total for m in modes}


def _consumed_energy_mj(records: list[SimEvent], scenario: Scenario) -> float:
    """Total energy drawn, reconstructed from each node's last battery level."""
    capacities = {cfg.node_id: cfg.battery_capacity_j for cfg in scenario.nodes}
    last_pct: dict[str, float] = {}
    for r in records:
        if r.kind == "predict" and r.mode != InferenceMode.SENSOR.value:
            continue  # tier-side rows echo the level attached at send time
        if r.battery_pct is not None and r.node_id in capacities:
            last_pct[r.node_id] = r.battery_pct
    total = 0.0
    for node_id, pct in last_pct.items():
        total += capacities[node_id] * (1.0 - pct / 100.0) * 1000.0
    return total
