"""Tests for the shared domain value types."""

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tiersim import (
    AnomalyTracker,
    BatteryState,
    ConditionLabel,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
    NodeState,
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


def test_node_state_parse():
    assert NodeState.parse("WORKING") is NodeState.WORKING
    with pytest.raises(ConfigurationError):
        NodeState.parse("BROKEN")


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


def test_params_depth_lookup():
    params = HeuristicParams()
    assert params.history_depth(S) == 32
    assert params.history_depth(G) == 16
    assert params.history_depth(C) == 8


def test_condition_labels():
    assert [label.value for label in ConditionLabel] == [0, 1, 2, 3]
