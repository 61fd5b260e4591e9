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
    check_intervals,
    check_node_id,
)
from .node import PropertyCommand, PropertyMethod, SensorNode
from .oracle import DEFAULT_PROFILES, GroundTruthProcess, TierAccuracyProfile


@dataclass(frozen=True)
class NodeConfig:
    node_id: str = "node-0"
    initial_mode: str = "S"
    battery_capacity_j: float = field(default=BatteryState.capacity_j,
                                      metadata={"interval": "[0, inf)"})
    sleep_period_ms: float = field(default=SensorNode.sleep_period_ms,
                                   metadata={"interval": "[0, inf)"})

    def __post_init__(self) -> None:
        check_node_id(self.node_id)
        InferenceMode.parse(self.initial_mode, "initial_mode")
        check_intervals(self)

    def make_battery(self) -> BatteryState:
        return BatteryState(capacity_j=self.battery_capacity_j)


@dataclass(frozen=True)
class Scenario:
    """Validated inputs for one simulation run."""

    name: str = "scenario"
    duration_ms: float = field(default=1_800_000.0,  # 30 simulated minutes
                               metadata={"interval": "[0, inf)"})
    seed: int = 7
    nodes: tuple[NodeConfig, ...] = (NodeConfig(),)
    # frozen, so every scenario that keeps a default shares one instance
    params: HeuristicParams = field(default=HeuristicParams(), metadata={"key": "heuristics"})
    energy: EnergyTable = EnergyTable()
    latency: LatencyModel = LatencyModel()
    profiles: dict[InferenceMode, TierAccuracyProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    anomaly_probability: float = field(default=GroundTruthProcess.anomaly_probability, metadata={
        "interval": "[0, 1]", "key": "ground_truth.anomaly_probability"})
    healthy_split: float = field(default=GroundTruthProcess.healthy_split, metadata={
        "interval": "[0, 1]", "key": "ground_truth.healthy_split"})
    degraded_split: float = field(default=GroundTruthProcess.degraded_split, metadata={
        "interval": "[0, 1]", "key": "ground_truth.degraded_split"})
    anomaly_labels: tuple[int, ...] = (2, 3)
    poll_enabled: bool = field(default=True, metadata={"key": "poll.enabled"})
    poll_every_cycles: int = field(
        default=3, metadata={"interval": "[1, inf)", "key": "poll.every_cycles"})
    empty_poll_fraction: float = field(
        default=0.1, metadata={"interval": "[0, 1]", "key": "poll.empty_fraction"})
    gateway_service_ms: float = field(default=0.0, metadata={"interval": "[0, inf)"})
    cloud_service_ms: float = field(default=0.0, metadata={"interval": "[0, inf)"})
    provisioning_stage_ms: float = field(default=100.0, metadata={"interval": "[0, inf)"})
    adaptive: bool = True
    drop_probability: float = field(default=0.0, metadata={"interval": "[0, 1)"})
    request_timeout_ms: float = field(default=10_000.0, metadata={"interval": "(0, inf)"})
    commands: tuple[PropertyCommand, ...] = ()
    out_dir: str | None = None  # default artifact directory; CLI --out wins

    def __post_init__(self) -> None:
        check_intervals(self)
        try:  # every stream's seed is derived from the seed's decimal text
            str(self.seed)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ConfigurationError(
                f"seed has more than {sys.get_int_max_str_digits()} decimal digits", "seed"
            ) from None
        seen = set()
        for i, cfg in enumerate(self.nodes):
            if cfg.node_id in seen:
                raise ConfigurationError(f"duplicate node id {cfg.node_id!r}", "nodes", i)
            seen.add(cfg.node_id)
        for mode in InferenceMode:  # an oracle seeds its stream from its profile's tier
            if mode not in self.profiles:
                raise ConfigurationError(f"missing accuracy profile for mode {mode.value}",
                                         "profiles")
            if (tier := self.profiles[mode].tier) is not mode:
                raise ConfigurationError(
                    f"accuracy profile for mode {mode.value} is for tier {tier.value}",
                    "profiles", mode.value)
        for i, label in enumerate(self.anomaly_labels):
            if label not in (0, 1, 2, 3):
                raise ConfigurationError(f"anomaly label {label} outside 0..3",
                                         "anomaly_labels", i)


# -- JSON loading: the dataclasses above are the schema ---------------------

#: Keys that a list entry takes, by its index, when it leaves them out.
_ENTRY_DEFAULTS = {NodeConfig: lambda i: {"node_id": f"node-{i}"}}


def _member(key: str | int, coerce, value):
    """``coerce(value)`` for member ``key`` of an object or list; an error gains ``key``."""
    try:
        return coerce(value)
    except ConfigurationError as err:
        err.path = (key, *err.path)
        raise
    except (TypeError, ValueError, OverflowError) as err:  # int(inf), float(10**400)
        raise ConfigurationError(str(err), key) from None


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _int(value) -> int:
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _exact(tp: type, expected: str):
    """A coercer that admits only JSON values that already have type ``tp``."""
    def coerce(value):
        if not isinstance(value, tp):
            raise TypeError(f"must be {expected}, got {value!r}")
        return value
    return coerce


def _method(value) -> PropertyMethod:
    try:  # only a string can name a method
        return PropertyMethod(value)
    except ValueError:
        raise ValueError(f"unknown property method {value!r}") from None


#: Coercers of the scalar field types.
_SCALARS = {float: _float, int: _int, bool: _exact(bool, "true or false"),
            str: _exact(str, "a string"), object: lambda value: value,
            PropertyMethod: _method}


def _coercer(tp, f):
    """How a JSON value becomes field ``f`` of type ``tp``; None if it has no JSON form."""
    if is_dataclass(tp):  # a frozen default is the base the document's keys merge onto
        base = f.default if isinstance(f.default, tp) else None
        return lambda value: _load(tp, value, base)
    origin, args = get_origin(tp), get_args(tp)
    if origin is types.UnionType:  # X | None
        item = _coercer(args[0], f)
        return lambda value: None if value is None else item(value)
    if origin is tuple:  # only a JSON list: a string or an object would iterate too
        item, start = _coercer(args[0], f), _ENTRY_DEFAULTS.get(args[0])
        as_list = _exact(list, "a list")
        return lambda value: tuple(
            _member(i, item, {**start(i), **v} if start and isinstance(v, dict) else v)
            for i, v in enumerate(as_list(value)))
    if origin is dict:  # an object keyed by enum value; each entry merges onto its default
        defaults = f.default_factory()
        table = {k.value: (k, lambda value, base=defaults[k]: _load(args[1], value, base))
                 for k in args[0]}
        return lambda value: _collect(table, value, dict(defaults))
    return _SCALARS.get(tp)


@functools.cache
def _table(cls) -> dict:
    """JSON key -> (field name, coercer) for ``cls``; a group maps to a nested table.

    A field's key is its name unless its metadata gives one; a dotted key
    sits in a group (``poll.enabled`` is ``{"poll": {"enabled": ...}}``)."""
    hints = get_type_hints(cls)
    table: dict = {}
    for f in fields(cls):
        coerce = _coercer(hints[f.name], f)
        if coerce is None:
            continue  # set by the document's structure: a profile's tier is its key
        group, _, key = f.metadata.get("key", f.name).rpartition(".")
        (table.setdefault(group, {}) if group else table)[key] = (f.name, coerce)
    return table


def _collect(table: dict, raw, kwargs: dict) -> dict:
    """Coerce the keys of the JSON object ``raw`` by ``table`` into ``kwargs``."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"expected a JSON object, got {type(raw).__name__}")
    if not raw.keys() <= table.keys():
        unknown = sorted(raw.keys() - table.keys(), key=str)  # keys of a Python dict may mix types
        raise ConfigurationError(f"unknown field(s) {unknown} (check spelling)")
    for key, value in raw.items():
        entry = table[key]
        if isinstance(entry, dict):  # a group object: its keys are fields of this class
            _member(key, lambda group: _collect(entry, group, kwargs), value)
        else:
            kwargs[entry[0]] = _member(key, entry[1], value)
    return kwargs


def _load(cls, raw, base=None):
    """Build ``cls`` from the JSON object ``raw``.

    Only the keys present are passed on, so an absent key keeps the
    field's default, or ``base``'s value when ``base`` is given.
    """
    kwargs = _collect(_table(cls), raw, {})
    return cls(**kwargs) if base is None else replace(base, **kwargs)


def _build_scenario(raw, source: str, base: Scenario | None = None) -> Scenario:
    """``_load(Scenario, ...)`` whose error text names ``source`` and the JSON path."""
    try:
        return _load(Scenario, raw, base)
    except ConfigurationError as err:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in err.path)
        raise ConfigurationError(f"{source}: {where[1:] or 'top level'}: {err}",
                                 *err.path) from None


def scenario_from_dict(data: dict, source: str = "<scenario>") -> Scenario:
    """Build and validate a Scenario from parsed JSON, defaulting omitted fields.

    A ConfigurationError reads ``source: path: message``; its ``path``
    holds the offending value's JSON keys and list indices.
    """
    return _build_scenario(data, source)


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
    return _build_scenario({k: v for k, v in overrides.items() if v is not None},
                           "<command line>", scenario)
