"""Tests for the shared domain value types."""

import dataclasses
import importlib
import math
import pkgutil

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tiersim
from tiersim import (
    AnomalyTracker,
    BatteryState,
    ConditionLabel,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
    new_tracker,
)

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD


def test_new_tracker_initial_state():
    tracker = new_tracker(32)
    assert (tracker.bits, tracker.length, tracker.depth) == (0, 0, 32)
    assert new_tracker(8).depth == 8


@pytest.mark.parametrize("depth", [0, -1, 65, 1000])
def test_new_tracker_rejects_bad_depth(depth):
    with pytest.raises(ConfigurationError):
        new_tracker(depth)


def test_tracker_rejects_inconsistent_fields():
    with pytest.raises(ConfigurationError):
        AnomalyTracker(bits=0, length=9, depth=8)  # length beyond depth
    with pytest.raises(ConfigurationError):
        AnomalyTracker(bits=0b100, length=2, depth=8)  # stale bit beyond length


@pytest.mark.parametrize("name", ["bits", "length", "depth"])
def test_tracker_is_frozen_so_empty_windows_can_be_shared(name):
    tracker = new_tracker(8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(tracker, name, 1)
    assert (tracker.bits, tracker.length, tracker.depth) == (0, 0, 8)


def test_mode_parse():
    assert InferenceMode.parse("S") is S
    with pytest.raises(ConfigurationError):
        InferenceMode.parse("X")


def test_battery_level_and_death():
    battery = BatteryState(capacity_j=100.0)
    assert battery.level_pct == 100.0
    battery.drain(25_000.0)  # 25 J
    assert battery.level_pct == 75.0
    assert not battery.dead
    battery.drain(1e9)
    assert battery.consumed_j == 100.0  # clamped at capacity
    assert battery.dead and battery.level_pct == 0.0
    battery.drain(50.0)  # dead battery: no-op
    assert battery.consumed_j == 100.0


def test_battery_zero_capacity_is_dead():
    battery = BatteryState(capacity_j=0.0)
    assert battery.dead and battery.level_pct == 0.0


def test_battery_validation():
    with pytest.raises(ConfigurationError):
        BatteryState(capacity_j=10.0, consumed_j=11.0)
    for capacity in (-1.0, math.nan):
        with pytest.raises(ConfigurationError,
                           match=rf"capacity_j must be in \[0, inf\), got {capacity}") as info:
            BatteryState(capacity_j=capacity)
        assert info.value.path == ("capacity_j",)


# 100 * c / c rounds to 100.00000000000001 for this capacity
@example(capacity=10485.870612460774, amounts=[])
@given(capacity=st.floats(40.0, 18_648.0), amounts=st.lists(st.floats(0, 1e6), max_size=50))
def test_battery_consumption_monotone(capacity, amounts):
    battery = BatteryState(capacity_j=capacity)
    assert battery.level_pct <= 100.0
    last = 0.0
    for amount in amounts:
        battery.drain(amount)
        assert battery.consumed_j >= last
        assert 0.0 <= battery.level_pct <= 100.0
        last = battery.consumed_j


def test_default_params_match_published_configuration():
    params = HeuristicParams()
    assert params.history_depth_sensor == 32
    assert params.history_depth_gateway == 16
    assert params.history_depth_cloud == 8
    assert params.sensor_escalate_count == 4
    assert params.gateway_deescalate_count == 4
    assert params.gateway_escalate_count == 8
    assert params.cloud_deescalate_count == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"low_battery_pct": 0.0},
        {"low_battery_pct": 100.0},
        {"sensor_escalate_count": 0},
        {"sensor_escalate_count": 33},
        {"gateway_deescalate_count": 8, "gateway_escalate_count": 8},
        {"gateway_escalate_count": 17},
        {"cloud_deescalate_count": 0},
        {"cloud_deescalate_count": 9},
        {"queue_limit": 0},
        {"history_depth_sensor": 65},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConfigurationError):
        HeuristicParams(**kwargs)


def test_condition_labels():
    assert [label.value for label in ConditionLabel] == [0, 1, 2, 3]


#: Values for the fields a declaring type requires, where its defaults do not serve.
_REQUIRED = {
    "OperationCost": {"duration_ms": 1.0, "energy_mj": 1.0},
    "TierAccuracyProfile": {"tier": S, "accuracy": 1.0, "recall_per_class": (1.0,) * 4},
    "PropertyCommand": {"node_id": "n0", "name": "state"},
    "SensorNode": {"node_id": "n0"},
}


def _declared_fields():
    """(type, field) of every field that declares an interval, in every tiersim module."""
    for info in pkgutil.iter_modules(tiersim.__path__):
        module = importlib.import_module(f"tiersim.{info.name}")
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                for f in dataclasses.fields(cls):
                    if "interval" in f.metadata:
                        yield cls, f


def test_every_value_type_declares_its_intervals():
    assert {cls.__name__ for cls, _ in _declared_fields()} == {
        "AnomalyTracker", "HeuristicParams", "LatencyModel", "BatteryState", "OperationCost",
        "EnergyTable", "TierAccuracyProfile", "GroundTruthProcess", "PropertyCommand",
        "SensorNode", "NodeConfig", "Scenario"}


@pytest.mark.parametrize("cls, f", list(_declared_fields()),
                         ids=lambda x: getattr(x, "__name__", getattr(x, "name", None)))
def test_each_bound_admits_its_inside_and_rejects_its_outside_at_the_key(cls, f):
    interval = f.metadata["interval"]
    low, high = map(float, interval[1:-1].split(","))
    cases = [(math.nan, False)]
    for bound, closed, outward in ((low, interval[0] == "[", -math.inf),
                                   (high, interval[-1] == "]", math.inf)):
        cases += [(math.nextafter(bound, -outward), True), (bound, closed),
                  (math.nextafter(bound, outward), False)]  # inf's next float is inf
    base = _REQUIRED.get(cls.__name__, {})
    path = tuple(f.metadata.get("key", f.name).split("."))
    default = base.get(f.name, f.default)
    # a tuple field is checked item by item, each at a path that carries its index
    where = ([(path + (i,), lambda v, i=i: (*default[:i], v, *default[i + 1:]))
              for i in range(len(default))] if isinstance(default, tuple)
             else [(path, lambda v: v)])
    for value, inside in cases:
        for at, substitute in where:
            try:
                cls(**{**base, f.name: substitute(value)})
            except ConfigurationError as err:
                # inside, only a check that relates this field to another may refuse it
                assert err.path[:len(at)] != at if inside else err.path == at, (value, str(err))
            else:
                assert inside, value
