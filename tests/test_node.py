"""Tests for the sensor node: state machine, properties, cycle planning."""

from collections import deque

import pytest

from tiersim import (
    ConfigurationError,
    EnergyTable,
    InferenceMode,
    LifecycleEvent,
    NodeConfig,
    NodeState,
    PropertyCommand,
    PropertyMethod,
    Scenario,
    SensorNode,
    SimulationError,
    Simulator,
)
from tiersim.node import (
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
    assert node.step_state(LifecycleEvent.PROVISIONING_COMPLETE) is None
    assert node.state is NodeState.WORKING


def test_transition_table_has_exactly_six_edges():
    assert len(TRANSITIONS) == 6


# -- properties -------------------------------------------------------------

def cmd(name, method, value=None):
    return PropertyCommand("n0", name, PropertyMethod(method), value)


def test_command_time_must_be_finite_and_non_negative():
    for at_ms in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match=r"at_ms must be in \[0, inf\), got "):
            PropertyCommand("n0", "state", at_ms=at_ms)


def test_get_sleep_period_default():
    # one default, declared on the node and read by the scenario's node config
    node = SensorNode(node_id="n0")
    status, value = node.apply_command(cmd("sleep_period", "GET"))
    assert status == "ok" and value == NodeConfig().sleep_period_ms == 0.0


def test_set_sleep_period():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("sleep_period", "SET", 5_000)) == ("ok", None)
    assert node.sleep_period_ms == 5_000.0
    for bad in (-1, "nan", "inf", float("nan"), float("inf"), 10**400, True, "5000", None, [1]):
        assert node.apply_command(cmd("sleep_period", "SET", bad)) == ("invalid-value", None)
    assert node.sleep_period_ms == 5_000.0


def test_set_inference_mode_sets_the_mode():
    node = working_node()
    assert node.apply_command(cmd("inference_mode", "SET", "G")) == ("ok", None)
    assert node.mode is G
    assert node.apply_command(cmd("inference_mode", "SET", "G")) == ("ok", None)  # same mode: no-op
    assert node.mode is G


def delivered_mode_set(mode: str):
    """Deliver ``SET inference_mode`` to a WORKING S node whose S window holds four bits.

    The node keeps no window of its own: the simulator holds one per
    tier and empties all of them when a command changes the node's mode.
    """
    sim = Simulator(Scenario(duration_ms=1_000.0, poll_enabled=False))
    node = sim.nodes["node-0"]
    node.state = NodeState.WORKING
    from tiersim import update_history
    window = sim.tiers[S].trackers["node-0"]
    for bit in (1, 1, 0, 1):
        window = update_history(window, bit, True)
    sim.tiers[S].trackers["node-0"] = window
    assert window.length == 4
    sim.pending_commands.setdefault("node-0", deque()).append(
        PropertyCommand("node-0", "inference_mode", PropertyMethod.SET, mode))
    sim._deliver_pending_commands(node)
    return sim, node


def test_set_inference_mode_resets_tracker():
    sim, node = delivered_mode_set("G")
    assert node.mode is G
    for tier in sim.tiers.values():
        window = tier.trackers["node-0"]
        assert (window.bits, window.length) == (0, 0)


def test_set_same_mode_keeps_tracker():
    sim, node = delivered_mode_set("S")
    assert node.mode is S
    assert sim.tiers[S].trackers["node-0"].length == 4  # no change, no reset


def test_sensor_id_is_get_only():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("sensor_id", "GET")) == ("ok", "n0")
    assert node.apply_command(cmd("sensor_id", "SET", "x")) == ("method-not-allowed", None)


def test_set_state_drives_state_machine():
    node = working_node()
    status, event = node.apply_command(cmd("state", "SET", "IDLE"))
    assert status == "ok" and node.state is NodeState.IDLE
    assert event is LifecycleEvent.IDLE_COMMAND
    # no edge from IDLE to WORKING
    assert node.apply_command(cmd("state", "SET", "WORKING")) == ("protocol-violation", None)
    assert node.state is NodeState.IDLE
    assert node.apply_command(cmd("state", "SET", "BROKEN")) == ("invalid-value", None)
    assert node.state is NodeState.IDLE


def test_unknown_property_and_gateway_target():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("nonsense", "GET")) == ("unknown-property", None)
    assert node.apply_command(cmd("gateway_id", "GET")) == ("unknown-property", None)


def test_model_properties_recorded():
    node = SensorNode(node_id="n0")
    assert node.apply_command(cmd("tf_model_size", "SET", 30_720)) == ("ok", None)
    assert node.apply_command(cmd("tf_model_bytes", "GET")) == ("method-not-allowed", None)


def test_property_table_matches_registry_contract():
    assert PROPERTY_TABLE["provisioned_nodes"] == (
        "gateway", {PropertyMethod.SET, PropertyMethod.GET, PropertyMethod.ADD})
    assert PROPERTY_TABLE["inference_mode"][0] == "sensor"
    assert PROPERTY_TABLE["gateway_id"] == ("gateway", {PropertyMethod.GET})
    assert len(PROPERTY_TABLE) == 8


# -- cycle planning ---------------------------------------------------------
#
# The node lists a cycle's steps; the engine times them from the cycle's
# start, so layouts are read off the records of a one-node run, whose
# first cycle starts at 600 ms when provisioning ends.

START = 600.0


def one_node_run(mode="S", sleep_period_ms=30_000.0, duration_ms=100_000.0, **kwargs):
    kwargs.setdefault("poll_enabled", False)
    plan = Scenario(
        duration_ms=duration_ms, adaptive=False,
        nodes=(NodeConfig(initial_mode=mode, sleep_period_ms=sleep_period_ms),), **kwargs,
    )
    return Simulator(plan).run()


def times(records, kind):
    return [r.timestamp_ms for r in records if r.kind == kind]


def test_onboard_cycle_layout_and_additivity():
    records = one_node_run()
    kinds = [r.kind for r in records if START <= r.timestamp_ms < START + 40_014.0]
    assert kinds[kinds.index("sleep"):] == ["sleep", "sample", "infer-local"]
    assert times(records, "sleep")[0] == START
    assert times(records, "sample")[0] == START + 30_000.0
    assert times(records, "predict")[0] == START + 30_000.0 + 10_000.0 + 14.0
    end = times(records, "sleep")[1]  # the next cycle starts where this one ends
    assert end == times(records, "predict")[0]
    assert end - START == 40_014.0  # sleep + active, exactly
    assert times(records, "request-send") == [] and times(records, "poll") == []


def test_offboard_cycle_layout_and_additivity():
    records = one_node_run(mode="G")
    first = [r for r in records if START <= r.timestamp_ms < START + 44_750.0
             and r.kind in ("sleep", "sample", "compress", "radio-tx")]
    assert [r.kind for r in first] == ["sleep", "sample", "compress", "radio-tx"]
    assert times(records, "request-send")[0] == START + 40_050.0
    end = times(records, "sleep")[1]
    assert end == START + 44_750.0
    durations = sum(float(r.detail.removeprefix("duration_ms=")) for r in first)
    assert end - START == durations


def test_poll_cycle_defers_end():
    records = one_node_run(sleep_period_ms=0.0, duration_ms=30_000.0,
                           poll_enabled=True, poll_every_cycles=1)
    assert times(records, "poll-empty")[0] == START + 10_014.0
    # no cycle-start at the predict: the next cycle waits for the poll's radio time
    assert times(records, "sleep")[1] == START + 10_014.0 + TABLE.radio_tx.duration_ms * 0.1


def test_cycle_requires_working_state():
    node = SensorNode(node_id="n0")  # INITIAL
    with pytest.raises(SimulationError):
        node.plan_cycle(TABLE)


def test_cycle_index_increments():
    node = working_node(sleep_period_ms=0.0)
    node.plan_cycle(TABLE)
    node.plan_cycle(TABLE)
    assert node.cycle_index == 2


def test_cycle_steps_are_reused_while_mode_and_sleep_period_hold():
    node = working_node(sleep_period_ms=30_000.0)
    steps = node.plan_cycle(TABLE)
    assert [(kind, detail) for kind, _, _, _, detail in steps] == [
        ("sleep", "duration_ms=30000.0"), ("sample", "duration_ms=10000.0"),
        ("infer-local", "duration_ms=14.0"),
    ]
    assert node.plan_cycle(TABLE) is steps
    assert node.apply_command(cmd("sleep_period", "GET")) == ("ok", 30_000.0)
    assert node.plan_cycle(TABLE) is steps


def test_cycle_steps_are_rebuilt_after_sleep_period_and_mode_changes():
    node = working_node(sleep_period_ms=0.0)
    steps = node.plan_cycle(TABLE)
    assert node.apply_command(cmd("sleep_period", "SET", -0.0)) == ("ok", None)
    negative_zero = node.plan_cycle(TABLE)  # equal to 0.0, but printed as -0.0
    assert negative_zero is not steps
    assert negative_zero[0][4] == "duration_ms=-0.0"
    assert node.apply_command(cmd("sleep_period", "SET", 5_000)) == ("ok", None)
    slept = node.plan_cycle(TABLE)
    assert slept[0] == ("sleep", 5_000.0, "deep_sleep", TABLE.sleep_energy_mj(5_000.0),
                        "duration_ms=5000.0")
    assert node.apply_command(cmd("inference_mode", "SET", "G")) == ("ok", None)
    offboard = node.plan_cycle(TABLE)
    assert [step[0] for step in offboard] == ["sleep", "sample", "compress", "radio-tx"]
    assert offboard[0] == slept[0]


def test_mid_cycle_sleep_period_change_moves_only_the_next_cycle():
    # a transmitting node takes the command at its first radio window, mid-cycle
    commands = (PropertyCommand("node-0", "sleep_period", value=5_000, at_ms=1_000.0),)
    records = one_node_run(mode="G", commands=commands)
    applied = [r for r in records if r.kind == "property-command"]
    assert [r.timestamp_ms for r in applied] == [START + 40_050.0]
    sleeps = [(r.timestamp_ms, r.detail) for r in records if r.kind == "sleep"][:3]
    end = START + 44_750.0
    assert sleeps == [
        (START, "duration_ms=30000.0"),
        (end, "duration_ms=5000.0"),
        (end + 5_000.0 + 14_750.0, "duration_ms=5000.0"),
    ]
