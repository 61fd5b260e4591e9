"""Tests for the sensor node: state machine, properties, cycle planning."""

import pytest

from tiersim import (
    EnergyTable,
    InferenceMode,
    LifecycleEvent,
    NodeState,
    PropertyCommand,
    PropertyMethod,
    SensorNode,
    SimulationError,
    new_tracker,
)
from tiersim.node import (
    InvalidTransitionError,
    PROPERTY_TABLE,
    TRANSITIONS,
)

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD
TABLE = EnergyTable()


def working_node(**kwargs) -> SensorNode:
    node = SensorNode(node_id="n0", **kwargs)
    node.state = NodeState.WORKING
    return node


# -- state machine ---------------------------------------------------------

def test_happy_path_to_working():
    node = SensorNode(node_id="n0")
    assert node.state is NodeState.INITIAL
    node.step_state(LifecycleEvent.PROVISIONING_COMPLETE)
    assert node.state is NodeState.UNLOCKED
    node.step_state(LifecycleEvent.PROPERTIES_UPDATED)
    assert node.state is NodeState.LOCKED
    node.step_state(LifecycleEvent.CONFIG_CONFIRM)
    assert node.state is NodeState.WORKING


def test_config_reject_reverts_to_unlocked():
    node = SensorNode(node_id="n0", state=NodeState.LOCKED)
    node.step_state(LifecycleEvent.CONFIG_REJECT)
    assert node.state is NodeState.UNLOCKED


def test_idle_and_reset():
    node = working_node()
    node.step_state(LifecycleEvent.IDLE_COMMAND)
    assert node.state is NodeState.IDLE
    node.step_state(LifecycleEvent.RESET_COMMAND)
    assert node.state is NodeState.UNLOCKED


def test_undefined_transition_raises_and_preserves_state():
    node = working_node()
    with pytest.raises(InvalidTransitionError):
        node.step_state(LifecycleEvent.PROVISIONING_COMPLETE)
    assert node.state is NodeState.WORKING


def test_transition_table_has_exactly_six_edges():
    assert len(TRANSITIONS) == 6


# -- properties -------------------------------------------------------------

def cmd(name, method, value=None):
    return PropertyCommand("n0", name, PropertyMethod(method), value)


def test_get_sleep_period_default():
    node = SensorNode(node_id="n0")
    response = node.apply_command(cmd("sleep_period", "GET"))
    assert response.ok and response.value == 30_000.0


def test_set_sleep_period():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("sleep_period", "SET", 5_000)).ok
    assert node.sleep_period_ms == 5_000.0
    for bad in (-1, "nan", "inf", float("nan")):
        assert node.apply_command(cmd("sleep_period", "SET", bad)).status == "invalid-value"
    assert node.sleep_period_ms == 5_000.0


def test_set_inference_mode_resets_tracker():
    node = working_node()
    node.tracker = new_tracker(32)
    from tiersim import update_history
    for bit in (1, 1, 0, 1):
        node.tracker = update_history(node.tracker, bit, True)
    assert node.tracker.length == 4
    response = node.apply_command(cmd("inference_mode", "SET", "G"))
    assert response.ok
    assert node.mode is G
    assert (node.tracker.bits, node.tracker.length) == (0, 0)


def test_set_same_mode_keeps_tracker():
    node = working_node()
    from tiersim import update_history
    node.tracker = update_history(node.tracker, 1, True)
    node.apply_command(cmd("inference_mode", "SET", "S"))
    assert node.tracker.length == 1  # no change, no reset


def test_sensor_id_is_get_only():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("sensor_id", "GET")).value == "n0"
    assert node.apply_command(cmd("sensor_id", "SET", "x")).status == "method-not-allowed"


def test_set_state_drives_state_machine():
    node = working_node()
    response = node.apply_command(cmd("state", "SET", "IDLE"))
    assert response.ok and node.state is NodeState.IDLE
    assert response.value is LifecycleEvent.IDLE_COMMAND
    # no edge from IDLE to WORKING
    assert node.apply_command(cmd("state", "SET", "WORKING")).status == "protocol-violation"
    assert node.state is NodeState.IDLE


def test_unknown_property_and_gateway_target():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("nonsense", "GET")).status == "unknown-property"
    assert node.apply_command(cmd("gateway_id", "GET")).status == "unknown-property"


def test_model_properties_recorded():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("tf_model_size", "SET", 30_720)).ok
    assert node.properties["tf_model_size"] == 30_720
    assert node.apply_command(cmd("tf_model_bytes", "GET")).status == "method-not-allowed"


def test_property_table_matches_registry_contract():
    assert PROPERTY_TABLE["provisioned_nodes"].methods == {
        PropertyMethod.SET, PropertyMethod.GET, PropertyMethod.ADD
    }
    assert PROPERTY_TABLE["inference_mode"].target == "sensor"
    assert PROPERTY_TABLE["gateway_id"].target == "gateway"
    assert len(PROPERTY_TABLE) == 8


# -- cycle planning ---------------------------------------------------------

def test_onboard_cycle_layout_and_additivity():
    node = working_node(sleep_period_ms=30_000.0)
    plan = node.plan_cycle(1_000.0, TABLE)
    kinds = [s.kind for s in plan.steps]
    assert kinds == ["sleep", "sample", "infer-local"]
    assert plan.predict_at == 1_000.0 + 30_000.0 + 10_000.0 + 14.0
    assert plan.end_ms == plan.predict_at
    assert plan.end_ms - 1_000.0 == 40_014.0  # sleep + active, exactly
    assert plan.request_at is None and plan.poll_at is None


def test_offboard_cycle_layout_and_additivity():
    node = working_node(sleep_period_ms=30_000.0, mode=G)
    plan = node.plan_cycle(0.0, TABLE)
    kinds = [s.kind for s in plan.steps]
    assert kinds == ["sleep", "sample", "compress", "radio-tx"]
    assert plan.request_at == 40_050.0
    assert plan.end_ms == 44_750.0
    durations = sum(s.duration_ms for s in plan.steps)
    assert plan.end_ms == durations  # the cycle starts at 0.0


def test_poll_cycle_defers_end():
    node = working_node(sleep_period_ms=0.0)
    plan = node.plan_cycle(0.0, TABLE, poll_due=True)
    assert plan.poll_at == 10_014.0
    assert plan.end_ms is None


def test_cycle_requires_working_state():
    node = SensorNode(node_id="n0")  # INITIAL
    with pytest.raises(SimulationError):
        node.plan_cycle(0.0, TABLE)


def test_cycle_index_increments():
    node = working_node(sleep_period_ms=0.0)
    node.plan_cycle(0.0, TABLE)
    node.plan_cycle(10_014.0, TABLE)
    assert node.cycle_index == 2
