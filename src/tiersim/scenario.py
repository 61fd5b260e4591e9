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
import sys
import types
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .energy import EnergyTable
from .model import (
    BatteryState,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
    LatencyModel,
    check_node_id,
)
from .node import PropertyCommand, PropertyMethod, SensorNode
from .oracle import DEFAULT_PROFILES, GroundTruthProcess, TierAccuracyProfile


@dataclass(frozen=True)
class NodeConfig:
    node_id: str = "node-0"
    initial_mode: str = "S"
    battery_capacity_j: float = BatteryState.capacity_j
    sleep_period_ms: float = SensorNode.sleep_period_ms

    def __post_init__(self) -> None:
        check_node_id(self.node_id)
        InferenceMode.parse(self.initial_mode)
        # NaN fails every comparison, so these also reject it
        if not 0 <= self.battery_capacity_j < math.inf:
            raise ConfigurationError(
                f"battery_capacity_j must be finite and >= 0, got {self.battery_capacity_j}"
            )
        if not 0 <= self.sleep_period_ms < math.inf:
            raise ConfigurationError(
                f"sleep_period_ms must be finite and >= 0, got {self.sleep_period_ms}"
            )

    def make_battery(self) -> BatteryState:
        return BatteryState(capacity_j=self.battery_capacity_j)


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
    # frozen, so every scenario that keeps a default shares one instance
    params: HeuristicParams = HeuristicParams()
    energy: EnergyTable = EnergyTable()
    latency: LatencyModel = LatencyModel()
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
    commands: tuple[PropertyCommand, ...] = ()
    out_dir: str | None = None  # default artifact directory; CLI --out wins

    def __post_init__(self) -> None:
        # NaN fails every comparison, so the time checks below also reject it
        if not 0 <= self.duration_ms < math.inf:
            raise ConfigurationError(
                f"duration_ms must be finite and >= 0, got {self.duration_ms}"
            )
        try:  # every stream's seed is derived from the seed's decimal text
            str(self.seed)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise _EntryError(
                "seed", f"seed has more than {sys.get_int_max_str_digits()} decimal digits"
            ) from None
        seen = set()
        for i, cfg in enumerate(self.nodes):
            if cfg.node_id in seen:
                raise _EntryError(f"nodes[{i}]", f"duplicate node id {cfg.node_id!r}")
            seen.add(cfg.node_id)
        for mode in InferenceMode:
            if mode not in self.profiles:
                raise ConfigurationError(f"missing accuracy profile for mode {mode.value}")
        for i, label in enumerate(self.anomaly_labels):
            if label not in (0, 1, 2, 3):
                raise _EntryError(f"anomaly_labels[{i}]", f"anomaly label {label} outside 0..3")
        if self.poll_every_cycles < 1:
            raise _EntryError("poll.every_cycles",
                              f"poll_every_cycles must be >= 1, got {self.poll_every_cycles}")
        if not 0.0 <= self.empty_poll_fraction <= 1.0:
            raise _EntryError("poll.empty_fraction", "empty_poll_fraction must be in [0, 1], "
                              f"got {self.empty_poll_fraction}")
        for name in ("gateway_service_ms", "cloud_service_ms"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise _EntryError(name, f"{name} must be finite and >= 0, got {value}")
        if not 0 <= self.provisioning_stage_ms < math.inf:
            raise ConfigurationError("provisioning_stage_ms must be finite and >= 0")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop_probability must be in [0, 1)")
        if not 0 < self.request_timeout_ms < math.inf:
            raise ConfigurationError("request_timeout_ms must be finite and > 0")
        try:  # the process's own checks, which the engine repeats per node
            GroundTruthProcess(anomaly_probability=self.anomaly_probability,
                               healthy_split=self.healthy_split,
                               degraded_split=self.degraded_split)
        except ConfigurationError as err:
            raise _EntryError("ground_truth", str(err)) from None


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
_ENTRY_DEFAULTS = {NodeConfig: lambda i: {"node_id": f"node-{i}"}}


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


def _method(value, *_) -> PropertyMethod:
    try:  # only a string can name a method
        return PropertyMethod(value)
    except ValueError:
        raise ValueError(f"unknown property method {value!r}") from None


#: Coercers of the scalar field types; each takes (value, source, path, key).
_SCALARS = {float: _float, int: _int, bool: _exact(bool, "true or false"),
            str: _exact(str, "a string"), object: lambda value, *_: value,
            PropertyMethod: _method}


def _where(path: str, key: str | int) -> str:
    """The JSON path of member ``key`` of the object or list found at ``path``."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _coercer(tp, f):
    """How a JSON value becomes field ``f`` of type ``tp``; None if it has no JSON form.

    A coercer takes (value, source, path, key), the value being member
    ``key`` of the object or list at ``path``; only a coercer that loads
    an object spells out the value's own path.
    """
    if is_dataclass(tp):  # a frozen default is the base the document's keys merge onto
        base = f.default if isinstance(f.default, tp) else None
        return lambda value, source, path, key: _load(tp, value, source, _where(path, key), base)
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # X | None
        item = _coercer(args[0], f)
        return lambda value, *at: None if value is None else item(value, *at)
    if origin is tuple:
        item, start = _coercer(args[0], f), _ENTRY_DEFAULTS.get(args[0])

        def entries(value, source, path, key):
            where = _where(path, key)
            return tuple(
                item({**start(i), **v} if start and isinstance(v, dict) else v, source, where, i)
                for i, v in enumerate(value))
        return entries
    if origin is dict:  # an object keyed by enum value; each entry merges onto its default
        defaults = f.default_factory()
        table = {k.value: (k, lambda value, source, path, key, base=defaults[k]:
                           _load(args[1], value, source, _where(path, key), base))
                 for k in args[0]}
        return lambda value, source, path, key: _collect(
            table, value, source, _where(path, key), dict(defaults))
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
    if not raw.keys() <= table.keys():
        unknown = sorted(raw.keys() - table.keys())
        raise _LocatedError(source, path, f"unknown field(s) {unknown} (check spelling)")
    for key, value in raw.items():
        entry = table[key]
        if isinstance(entry, dict):  # a group object: its keys are fields of this class
            _collect(entry, value, source, _where(path, key), kwargs)
            continue
        name, coerce = entry
        try:
            kwargs[name] = coerce(value, source, path, key)
        except _LocatedError:
            raise
        except (TypeError, ValueError, OverflowError) as err:  # int(inf), float(10**400)
            raise _LocatedError(source, _where(path, key), err) from None
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
    except (ValueError, RecursionError) as err:
        # an integer past sys.get_int_max_str_digits(), or nesting past the recursion limit
        raise ConfigurationError(f"{path}: invalid JSON: {err}") from None
    return scenario_from_dict(data, source=str(path))


# -- presets ----------------------------------------------------------------

#: Built-in scenario documents, loaded by the same loader as a file.
PRESETS: dict[str, dict] = {
    # The round-trip latency experiment: one node, 30 minutes, 10 s windows.
    # The default seed is chosen so the run visits all three inference
    # modes; per-mode latency series would otherwise be empty.
    "paper-latency": {"name": "paper-latency"},
    # Projected-lifetime run: fixed on-device mode, 30 s sleep, run to
    # exhaustion. Heuristics and command polling are off so the simulated
    # lifetime matches the closed-form bound cycle for cycle.
    "paper-battery-bounds": {
        "name": "paper-battery-bounds",
        "duration_ms": 500 * 3_600_000.0,  # past any possible lifetime
        "nodes": [{"sleep_period_ms": 30_000.0}],
        "adaptive": False,
        "poll": {"enabled": False},
    },
    # Zero duration: the trace is empty, and the summary carries the
    # per-cycle energy comparison and battery-life bounds of the first node.
    "paper-savings": {
        "name": "paper-savings",
        "duration_ms": 0.0,
        "nodes": [{"sleep_period_ms": 30_000.0}],
    },
}


def load_preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return scenario_from_dict(PRESETS[name], source=f"preset {name}")


def with_overrides(
    scenario: Scenario, seed: int | None = None, duration_ms: float | None = None
) -> Scenario:
    """Apply command-line overrides with the same checks as file values."""
    overrides = {"seed": seed, "duration_ms": duration_ms}
    return _load(Scenario, {k: v for k, v in overrides.items() if v is not None},
                 "<command line>", "", scenario)
