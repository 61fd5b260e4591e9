"""Scenario configuration: schema, defaults, JSON loading, and presets.

A scenario is a single JSON document; every omitted field takes the
default below, so the empty document ``{}`` reproduces the reference
latency experiment (one node, back-to-back 10 s windows, 30 simulated
minutes, anomaly probability 0.3, published heuristic thresholds).
"""

from __future__ import annotations

import functools
import json
import math
import types
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .energy import EnergyTable
from .engine import LatencyModel
from .model import (
    BatteryState,
    ConditionLabel,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
)
from .node import PropertyCommand, PropertyMethod
from .oracle import DEFAULT_PROFILES, GroundTruthProcess, TierAccuracyProfile


@dataclass(frozen=True)
class NodeConfig:
    node_id: str = "node-0"
    initial_mode: str = "S"
    battery_capacity_j: float = BatteryState.capacity_j
    battery_voltage_v: float = BatteryState.voltage_v
    sleep_period_ms: float = 0.0  # back-to-back windows; battery studies use 30 s

    def __post_init__(self) -> None:
        if not self.node_id or any(c in self.node_id for c in ",\n\r"):
            raise ConfigurationError(
                f"node id {self.node_id!r} must be non-empty and free of "
                "commas/newlines (it names CSV rows)"
            )
        InferenceMode.parse(self.initial_mode)
        if self.battery_capacity_j < 0:
            raise ConfigurationError(
                f"battery_capacity_j must be >= 0, got {self.battery_capacity_j}"
            )
        if self.sleep_period_ms < 0:
            raise ConfigurationError(f"sleep_period_ms must be >= 0, got {self.sleep_period_ms}")
        self.make_battery()  # the battery's own checks, such as voltage > 0

    def make_battery(self) -> BatteryState:
        return BatteryState(capacity_j=self.battery_capacity_j,
                            voltage_v=self.battery_voltage_v)


@dataclass(frozen=True)
class TimedCommand:
    at_ms: float
    node_id: str
    name: str
    method: str
    value: object | None = None

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ConfigurationError(f"at_ms must be >= 0, got {self.at_ms}")
        self.to_property_command()  # rejects an unknown method

    def to_property_command(self) -> PropertyCommand:
        try:
            method = PropertyMethod(self.method)
        except ValueError:
            raise ConfigurationError(f"unknown property method {self.method!r}") from None
        return PropertyCommand(self.node_id, self.name, method, self.value)


class _EntryError(ConfigurationError):
    """A check of a whole object that one entry of it fails; ``where`` names the entry."""

    def __init__(self, where: str, message: str) -> None:
        super().__init__(message)
        self.where = where


@dataclass(frozen=True)
class Scenario:
    """Validated inputs for one simulation run."""

    name: str = "scenario"
    duration_ms: float = 1_800_000.0  # 30 simulated minutes
    seed: int = 7
    nodes: tuple[NodeConfig, ...] = (NodeConfig(),)
    params: HeuristicParams = field(default_factory=HeuristicParams)
    energy: EnergyTable = field(default_factory=EnergyTable)
    latency: LatencyModel = field(default_factory=LatencyModel)
    profiles: dict[InferenceMode, TierAccuracyProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    anomaly_probability: float = GroundTruthProcess.anomaly_probability
    healthy_split: float = GroundTruthProcess.healthy_split
    degraded_split: float = GroundTruthProcess.degraded_split
    anomaly_labels: tuple[int, ...] = (2, 3)
    poll_enabled: bool = True
    poll_every_cycles: int = 3
    empty_poll_fraction: float = 0.1
    gateway_service_ms: float = 0.0
    cloud_service_ms: float = 0.0
    provisioning_stage_ms: float = 100.0
    adaptive: bool = True
    drop_probability: float = 0.0
    request_timeout_ms: float = 10_000.0
    commands: tuple[TimedCommand, ...] = ()
    out_dir: str | None = None  # default artifact directory; CLI --out wins

    def __post_init__(self) -> None:
        if self.duration_ms < 0:
            raise ConfigurationError(f"duration_ms must be >= 0, got {self.duration_ms}")
        seen = set()
        for i, cfg in enumerate(self.nodes):
            if cfg.node_id in seen:
                raise _EntryError(f"nodes[{i}]", f"duplicate node id {cfg.node_id!r}")
            seen.add(cfg.node_id)
        for mode in InferenceMode:
            if mode not in self.profiles:
                raise ConfigurationError(f"missing accuracy profile for mode {mode.value}")
        for label in self.anomaly_labels:
            if label not in (0, 1, 2, 3):
                raise ConfigurationError(f"anomaly label {label} outside 0..3")
        if self.poll_every_cycles < 1:
            raise ConfigurationError("poll_every_cycles must be >= 1")
        if not 0.0 <= self.empty_poll_fraction <= 1.0:
            raise ConfigurationError("empty_poll_fraction must be in [0, 1]")
        if not 0.0 <= self.anomaly_probability <= 1.0:
            raise ConfigurationError("anomaly_probability must be in [0, 1]")
        if self.gateway_service_ms < 0 or self.cloud_service_ms < 0:
            raise ConfigurationError("tier service times must be >= 0")
        if self.provisioning_stage_ms < 0:
            raise ConfigurationError("provisioning_stage_ms must be >= 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop_probability must be in [0, 1)")
        if self.request_timeout_ms <= 0:
            raise ConfigurationError("request_timeout_ms must be > 0")

    def anomaly_label_set(self) -> frozenset[ConditionLabel]:
        return frozenset(ConditionLabel(v) for v in self.anomaly_labels)


# -- JSON loading: the dataclasses above are the schema ---------------------

#: JSON keys of the Scenario fields whose key is not the field name; a
#: dotted key sits in a group object ("poll.enabled" is {"poll": {"enabled"}}).
_SCENARIO_KEYS = {
    "params": "heuristics",
    "anomaly_probability": "ground_truth.anomaly_probability",
    "healthy_split": "ground_truth.healthy_split",
    "degraded_split": "ground_truth.degraded_split",
    "poll_enabled": "poll.enabled",
    "poll_every_cycles": "poll.every_cycles",
    "empty_poll_fraction": "poll.empty_fraction",
}

#: Keys that a list entry takes, by its index, when it leaves them out.
_ENTRY_DEFAULTS = {
    NodeConfig: lambda i: {"node_id": f"node-{i}"},
    TimedCommand: lambda i: {"at_ms": 0.0, "method": "SET"},
}


class _LocatedError(ConfigurationError):
    """A load error whose message already names its JSON path."""

    def __init__(self, source: str, path: str, err: object) -> None:
        super().__init__(f"{source}: {path or 'top level'}: {err}")


def _float(value, *_) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _int(value, *_) -> int:
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _exact(tp: type, expected: str):
    """A coercer that admits only JSON values that already have type ``tp``."""
    def coerce(value, *_):
        if not isinstance(value, tp):
            raise TypeError(f"must be {expected}, got {value!r}")
        return value
    return coerce


#: Coercers of the scalar field types; each takes (value, source, path).
_SCALARS = {float: _float, int: _int, bool: _exact(bool, "true or false"),
            str: _exact(str, "a string"), object: lambda value, *_: value}


def _coercer(tp, f):
    """How a JSON value becomes field ``f`` of type ``tp``; None if it has no JSON form."""
    if is_dataclass(tp):
        base = f.default if isinstance(f.default, tp) else None
        return lambda value, source, path: _load(tp, value, source, path, base)
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # X | None
        item = _coercer(args[0], f)
        return lambda value, source, path: None if value is None else item(value, source, path)
    if origin is tuple:
        item, start = _coercer(args[0], f), _ENTRY_DEFAULTS.get(args[0])
        return lambda value, source, path: tuple(
            item({**start(i), **v} if start and isinstance(v, dict) else v, source, f"{path}[{i}]")
            for i, v in enumerate(value))
    if origin is dict:  # an object keyed by enum value; each entry merges onto its default
        defaults = f.default_factory()
        table = {k.value: (k, lambda value, source, path, base=defaults[k]:
                           _load(args[1], value, source, path, base)) for k in args[0]}
        return lambda value, source, path: _collect(table, value, source, path, dict(defaults))
    return _SCALARS.get(tp)


@functools.cache
def _table(cls) -> dict:
    """JSON key -> (field name, coercer) for ``cls``; a group maps to a nested table."""
    hints = get_type_hints(cls)
    keys = _SCENARIO_KEYS if cls is Scenario else {}
    table: dict = {}
    for f in fields(cls):
        coerce = _coercer(hints[f.name], f)
        if coerce is None:
            continue  # set by the document's structure: a profile's tier is its key
        group, _, key = keys.get(f.name, f.name).rpartition(".")
        (table.setdefault(group, {}) if group else table)[key] = (f.name, coerce)
    return table


def _collect(table: dict, raw, source: str, path: str, kwargs: dict) -> dict:
    """Coerce the keys of the JSON object ``raw`` by ``table`` into ``kwargs``."""
    if not isinstance(raw, dict):
        raise _LocatedError(source, path, f"expected a JSON object, got {type(raw).__name__}")
    unknown = raw.keys() - table.keys()
    if unknown:
        raise _LocatedError(source, path, f"unknown field(s) {sorted(unknown)} (check spelling)")
    for key, value in raw.items():
        entry = table[key]
        where = f"{path}.{key}" if path else key
        if isinstance(entry, dict):  # a group object: its keys are fields of this class
            _collect(entry, value, source, where, kwargs)
            continue
        name, coerce = entry
        try:
            kwargs[name] = coerce(value, source, where)
        except _LocatedError:
            raise
        except (TypeError, ValueError, OverflowError) as err:  # int(inf), float(10**400)
            raise _LocatedError(source, where, err) from None
    return kwargs


def _load(cls, raw, source: str, path: str, base=None):
    """Build ``cls`` from the JSON object ``raw`` found at ``path``.

    Only the keys present are passed on, so an absent key keeps the
    field's default, or ``base``'s value when ``base`` is given.
    """
    kwargs = _collect(_table(cls), raw, source, path, {})
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except _EntryError as err:
        raise _LocatedError(source, f"{path}.{err.where}" if path else err.where, err) from None
    except (TypeError, ValueError) as err:
        raise _LocatedError(source, path, err) from None


def scenario_from_dict(data: dict, source: str = "<scenario>") -> Scenario:
    """Build and validate a Scenario from parsed JSON, defaulting omitted fields."""
    return _load(Scenario, data, source, "")


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file; parse errors carry line/column positions."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigurationError(f"{path}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}"
        ) from None
    return scenario_from_dict(data, source=str(path))


# -- presets ----------------------------------------------------------------


def preset_latency() -> Scenario:
    """The round-trip latency experiment: one node, 30 minutes, 10 s windows.

    The seed is chosen so the default run visits all three inference
    modes; per-mode latency series would otherwise be empty.
    """
    return Scenario(name="paper-latency")


def preset_battery_bounds() -> Scenario:
    """Projected-lifetime run: fixed on-device mode, 30 s sleep, run to exhaustion.

    Heuristics and command polling are disabled so the simulated lifetime
    matches the closed-form bound cycle for cycle.
    """
    return Scenario(
        name="paper-battery-bounds",
        duration_ms=500 * 3_600_000.0,  # past any possible lifetime
        nodes=(NodeConfig(sleep_period_ms=30_000.0),),
        adaptive=False,
        poll_enabled=False,
    )


def preset_savings() -> Scenario:
    """Zero-duration scenario whose summary carries the cycle-energy comparison."""
    return Scenario(
        name="paper-savings",
        duration_ms=0.0,
        nodes=(NodeConfig(sleep_period_ms=30_000.0),),
    )


PRESETS = {
    "paper-latency": preset_latency,
    "paper-battery-bounds": preset_battery_bounds,
    "paper-savings": preset_savings,
}


def load_preset(name: str) -> Scenario:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return builder()


def with_overrides(
    scenario: Scenario, seed: int | None = None, duration_ms: float | None = None
) -> Scenario:
    """Apply command-line overrides with the same checks as file values."""
    overrides = {"seed": seed, "duration_ms": duration_ms}
    return _load(Scenario, {k: v for k, v in overrides.items() if v is not None},
                 "<command line>", "", scenario)
