"""Shared domain types for the tiered-inference network simulator.

Value types only: inference modes, node lifecycle states, the anomaly
history tracker, heuristic thresholds, the latency model, battery state,
and trace records. Behavior lives in the other modules; everything here
is constructors plus validation.
"""

from __future__ import annotations

import enum
import functools
import operator
import re
from dataclasses import dataclass, field, fields, replace

_HISTORY_DEPTHS = "[1, 64]"  # a history must fit one machine word


class ConfigurationError(ValueError):
    """Raised when a parameter or scenario value violates its contract.

    ``path`` holds the JSON keys and list indices of the offending value,
    outermost first, relative to the object whose check raised; the
    scenario loader adds each enclosing key as the error leaves it.
    """

    def __init__(self, message: str, *path: str | int) -> None:
        super().__init__(message)
        self.path = path


class SimulationError(RuntimeError):
    """Raised on internal inconsistencies that indicate a simulator bug."""


@functools.cache
def _intervals(cls) -> tuple:
    """(name, JSON path, lower test, low, upper test, high, interval) of each field
    of ``cls`` whose metadata declares an interval, such as ``[0, inf)``."""
    table = []
    for f in fields(cls):
        interval = f.metadata.get("interval")
        if interval is not None:
            low, high = map(float, interval[1:-1].split(","))
            table.append((f.name, tuple(f.metadata.get("key", f.name).split(".")),
                          operator.le if interval[0] == "[" else operator.lt, low,
                          operator.le if interval[-1] == "]" else operator.lt, high, interval))
    return tuple(table)


def check_intervals(obj) -> None:
    """Reject a field of ``obj`` that lies outside its declared interval.

    NaN fails every bound's test, so it lies outside every interval. Each
    item of a tuple or list is checked on its own, and its path carries its
    index.
    """
    for name, path, above, low, below, high, interval in _intervals(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                if not (above(low, item) and below(item, high)):
                    raise ConfigurationError(
                        f"{path[-1]}[{i}] must be in {interval}, got {item}", *path, i)
        elif not (above(low, value) and below(value, high)):
            raise ConfigurationError(f"{path[-1]} must be in {interval}, got {value}", *path)


class InferenceMode(enum.Enum):
    """Where a node's predictions are computed.

    Escalation moves a node toward the cloud, de-escalation toward the
    sensor.
    """

    SENSOR = "S"
    GATEWAY = "G"
    CLOUD = "C"

    @classmethod
    def parse(cls, text: str, *path: str | int) -> "InferenceMode":
        """The mode spelled ``text``; an error carries ``path``, the JSON path of ``text``."""
        try:
            return cls(text)
        except ValueError:
            raise ConfigurationError(f"unknown inference mode {text!r}", *path) from None


class NodeState(enum.Enum):
    """Lifecycle state of a sensor node."""

    INITIAL = "INITIAL"
    UNLOCKED = "UNLOCKED"
    LOCKED = "LOCKED"
    WORKING = "WORKING"
    IDLE = "IDLE"


class ConditionLabel(enum.IntEnum):
    """Operational-health class emitted by the classifiers."""

    GOOD = 0
    ACCEPTABLE = 1
    UNSATISFACTORY = 2
    UNACCEPTABLE = 3


#: A comma or line break would split a CSV row; a surrogate cannot be
#: encoded as UTF-8, although JSON can spell a lone one.
_BAD_NODE_ID_CHAR = re.compile("[,\r\n\ud800-\udfff]")


def check_node_id(node_id: str) -> None:
    """The rule for every node id, a node's or a command's: it names CSV rows."""
    if not node_id or _BAD_NODE_ID_CHAR.search(node_id):
        raise ConfigurationError(
            f"node id {node_id!r} must be non-empty, free of commas/newlines and "
            "encodable as UTF-8 (it names CSV rows)", "node_id"
        )


@dataclass(frozen=True, slots=True)
class AnomalyTracker:
    """Fixed-depth bitmask of the most recent binary anomaly predictions.

    ``bits`` holds the last ``length`` predictions, newest in bit 0;
    ``length`` counts how many valid entries have accumulated since the
    last reset and saturates at ``depth``.
    """

    bits: int = 0
    length: int = 0
    depth: int = field(default=32, metadata={"interval": _HISTORY_DEPTHS})

    def __post_init__(self) -> None:
        check_intervals(self)
        if not 0 <= self.length <= self.depth:
            raise ConfigurationError(
                f"history length {self.length} outside 0..depth {self.depth}"
            )
        if self.bits < 0 or self.bits >> self.length:
            raise ConfigurationError(
                f"history bits {self.bits:#x} has bits set beyond length {self.length}"
            )

    @property
    def warmed_up(self) -> bool:
        """True once the history window is full."""
        return self.length >= self.depth


@functools.cache
def new_tracker(depth: int) -> AnomalyTracker:
    """The empty anomaly tracker of the given depth (1..64).

    A tracker is frozen, so one empty tracker per depth serves every caller.
    """
    return AnomalyTracker(bits=0, length=0, depth=depth)


@dataclass(frozen=True)
class HeuristicParams:
    """Thresholds consumed by the three adaptive-inference heuristics."""

    low_battery_pct: float = field(default=20.0, metadata={"interval": "(0, 100)"})
    sensor_escalate_count: int = 4
    gateway_deescalate_count: int = 4
    gateway_escalate_count: int = 8
    queue_limit: int = field(default=4, metadata={"interval": "[1, inf)"})
    cloud_deescalate_count: int = 2
    history_depth_sensor: int = field(default=32, metadata={"interval": _HISTORY_DEPTHS})
    history_depth_gateway: int = field(default=16, metadata={"interval": _HISTORY_DEPTHS})
    history_depth_cloud: int = field(default=8, metadata={"interval": _HISTORY_DEPTHS})

    def __post_init__(self) -> None:
        check_intervals(self)
        if not 0 < self.sensor_escalate_count <= self.history_depth_sensor:
            raise ConfigurationError(
                "sensor_escalate_count must satisfy "
                f"0 < value <= history_depth_sensor, got {self.sensor_escalate_count}"
            )
        if not 0 < self.gateway_deescalate_count < self.gateway_escalate_count:
            raise ConfigurationError(
                "gateway thresholds must satisfy 0 < de-escalate < escalate, got "
                f"{self.gateway_deescalate_count} / {self.gateway_escalate_count}"
            )
        if self.gateway_escalate_count > self.history_depth_gateway:
            raise ConfigurationError(
                f"gateway_escalate_count {self.gateway_escalate_count} exceeds "
                f"history_depth_gateway {self.history_depth_gateway}"
            )
        if not 0 < self.cloud_deescalate_count <= self.history_depth_cloud:
            raise ConfigurationError(
                "cloud_deescalate_count must satisfy "
                f"0 < value <= history_depth_cloud, got {self.cloud_deescalate_count}"
            )


@dataclass(frozen=True)
class LatencyModel:
    """Per-mode end-to-end response latency, optionally jittered.

    The constants are end-to-end (transport plus inference) under ideal
    load; queueing delay at a loaded tier adds on top. Jitter is zero-mean
    uniform with the configured half-width.
    """

    sensor_ms: float = field(default=3.33, metadata={"interval": "(0, inf)"})
    gateway_ms: float = field(default=148.15, metadata={"interval": "(0, inf)"})
    cloud_ms: float = field(default=641.71, metadata={"interval": "(0, inf)"})
    jitter_sensor_ms: float = 0.0
    jitter_gateway_ms: float = 0.0
    jitter_cloud_ms: float = 0.0

    def __post_init__(self) -> None:
        check_intervals(self)
        for mode, jitter, constant in (("S", self.jitter_sensor_ms, self.sensor_ms),
                                       ("G", self.jitter_gateway_ms, self.gateway_ms),
                                       ("C", self.jitter_cloud_ms, self.cloud_ms)):
            if not 0 <= jitter < constant:  # below a finite constant, so finite too
                raise ConfigurationError(
                    f"jitter for {mode} must be in [0, latency) to keep latencies positive"
                )

    def with_jitter_fraction(self, fraction: float) -> "LatencyModel":
        """Copy with per-mode jitter half-widths set to a fraction of each constant."""
        if not 0 <= fraction < 1:
            raise ConfigurationError(f"jitter fraction must be in [0, 1), got {fraction}")
        return replace(
            self,
            jitter_sensor_ms=fraction * self.sensor_ms,
            jitter_gateway_ms=fraction * self.gateway_ms,
            jitter_cloud_ms=fraction * self.cloud_ms,
        )


@dataclass
class BatteryState:
    """Battery bookkeeping in joules; ``drain`` keeps the percent level current.

    Storing consumed joules rather than a percent avoids cumulative
    rounding across many small debits. ``drain`` is the only way charge is
    consumed, so the level and deadness it derives are read for free.
    """

    capacity_j: float = field(default=18648.0, metadata={"interval": "[0, inf)"})  # 1400 mAh, 3.7 V
    consumed_j: float = 0.0
    level_pct: float = field(init=False)  # remaining charge in [0, 100]
    dead: bool = field(init=False)

    def __post_init__(self) -> None:
        check_intervals(self)
        if not 0 <= self.consumed_j <= self.capacity_j:
            raise ConfigurationError(
                f"consumed {self.consumed_j} J outside 0..capacity {self.capacity_j} J"
            )
        self._derive()

    def _derive(self) -> None:
        capacity_j, consumed_j = self.capacity_j, self.consumed_j
        level = 100.0 * (capacity_j - consumed_j) / capacity_j if capacity_j > 0 else 0.0
        # 100 * c / c rounds above 100 for some capacities, such as 10485.870612460774 J
        self.level_pct = level if level <= 100.0 else 100.0
        self.dead = consumed_j >= capacity_j

    def drain(self, energy_mj: float) -> float:
        """Consume energy (millijoules); returns the mJ drawn.

        The drain that exhausts the battery clamps at capacity and draws
        only the charge that was left, so a dead battery draws 0.0. A NaN
        or negative draw is rejected; ``inf`` drains what is left.
        """
        if not energy_mj >= 0:  # NaN fails every comparison; -0.0 passes
            raise ConfigurationError(f"energy drawn must be >= 0 mJ, got {energy_mj}")
        before_j = self.consumed_j
        self.consumed_j = min(self.capacity_j, before_j + energy_mj / 1000.0)
        self._derive()
        return (self.capacity_j - before_j) * 1000.0 if self.dead else energy_mj


@dataclass(slots=True)
class SimEvent:
    """One observable simulation event; doubles as a trace record.

    Fields that do not apply to a given event kind stay ``None`` and are
    emitted as empty CSV cells. ``detail`` carries free-form context and
    is only exported in the structured (JSONL) trace.
    """

    timestamp_ms: float
    node_id: str
    kind: str
    mode: str | None = None
    state: str | None = None
    history_hex: str | None = None
    tau: int | None = None
    sigma: int | None = None
    queue_len: int | None = None
    latency_ms: float | None = None
    battery_pct: float | None = None
    detail: str | None = None
