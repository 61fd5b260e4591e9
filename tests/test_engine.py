"""Tests for the discrete-event engine: scheduling, tiers, requests and responses."""

import dataclasses
import gc
import hashlib
import math
import tracemalloc
import weakref

import pytest

from tiersim import (
    HeuristicParams,
    InferenceMode,
    LatencyModel,
    NodeConfig,
    Scenario,
    SimulationError,
    Simulator,
    new_tracker,
)
from tiersim.cli import run_scenario
from tiersim.engine import Tier
from tiersim.node import LifecycleEvent, PropertyCommand, PropertyMethod
from tiersim.oracle import TierAccuracyProfile
from tiersim.scenario import scenario_from_dict
from tiersim.summary import WRITE_CHUNK_ROWS

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD

PERFECT = {mode: TierAccuracyProfile.perfect(mode) for mode in InferenceMode}


def scenario(**kwargs) -> Scenario:
    defaults = dict(duration_ms=120_000.0, poll_enabled=False)
    defaults.update(kwargs)
    return Scenario(**defaults)


def kinds_for(records, node_id, kind):
    return [r for r in records if r.node_id == node_id and r.kind == kind]


# -- provisioning and lifecycle ----------------------------------------------

def test_provisioning_reaches_working_after_six_stages():
    records = Simulator(scenario(duration_ms=1_000.0)).run()
    kinds = [(r.timestamp_ms, r.kind) for r in records[:8]]
    assert kinds == [
        (100.0, "provision-stage"),
        (200.0, "provision-stage"),
        (300.0, "provision-stage"),
        (400.0, "provision-stage"),
        (400.0, "provision-complete"),
        (500.0, "properties-updated"),
        (600.0, "config-confirm"),
        (600.0, "sleep"),  # first duty cycle starts the moment WORKING is entered
    ]
    assert records[6].state == "WORKING"


def test_invalid_lifecycle_event_records_violation_and_keeps_state():
    sim = Simulator(scenario(duration_ms=5_000.0))
    sim.run_until(700.0)  # node is WORKING now
    sim.schedule(800.0, "lifecycle", "node-0", LifecycleEvent.PROVISIONING_COMPLETE)
    records = sim.run_until(1_000.0)
    violations = kinds_for(records, "node-0", "protocol-violation")
    assert len(violations) == 1
    assert violations[0].state == "WORKING"


def test_scheduling_into_the_past_aborts():
    sim = Simulator(scenario())
    sim.run_until(10_000.0)
    with pytest.raises(SimulationError):
        sim.schedule(5_000.0, "cycle-start", "node-0")


def test_scheduling_at_nan_aborts():
    sim = Simulator(scenario())
    sim.run_until(10_000.0)
    with pytest.raises(SimulationError, match="scheduled at nan ms"):
        sim.schedule(math.nan, "cycle-start", "node-0")


def test_unknown_event_kind_is_rejected_when_scheduled():
    sim = Simulator(scenario())
    with pytest.raises(SimulationError, match="no handler for event kind 'no-such-kind'"):
        sim.schedule(0.0, "no-such-kind", "node-0")


def test_equal_timestamps_execute_in_insertion_order():
    cmds = (
        PropertyCommand("node-0", "gateway_id", PropertyMethod.GET, at_ms=1_000.0),
        PropertyCommand("node-0", "provisioned_nodes", PropertyMethod.GET, at_ms=1_000.0),
    )
    records = Simulator(scenario(commands=cmds, duration_ms=2_000.0)).run()
    props = [r.detail for r in records if r.kind == "property-command"]
    assert props[0].startswith("GET gateway_id")
    assert props[1].startswith("GET provisioned_nodes")


def test_empty_scenario_produces_empty_trace():
    assert Simulator(scenario(nodes=())).run_until(1_000_000.0) == []


def test_each_tier_is_built_from_its_own_scenario_fields():
    # every value differs between tiers, so two tiers' swapped fields show
    plan = scenario(
        params=HeuristicParams(history_depth_sensor=30, history_depth_gateway=12,
                               history_depth_cloud=5),
        latency=LatencyModel(sensor_ms=3.0, gateway_ms=150.0, cloud_ms=600.0,
                             jitter_sensor_ms=1.0, jitter_gateway_ms=20.0, jitter_cloud_ms=50.0),
        gateway_service_ms=7.0, cloud_service_ms=9.0)
    sim = Simulator(plan)
    assert [f.name for f in dataclasses.fields(Tier)] == [
        "mode", "depth", "latency_ms", "jitter_ms", "service_ms", "queue", "trackers", "oracles"]
    expected = {S: (30, 3.0, 1.0, 0.0), G: (12, 150.0, 20.0, 7.0), C: (5, 600.0, 50.0, 9.0)}
    assert list(sim.tiers) == [S, G, C] and sim.tiers[G] is sim.gateway
    for mode, (depth, latency_ms, jitter_ms, service_ms) in expected.items():
        tier = sim.tiers[mode]
        assert (tier.mode, tier.depth, tier.latency_ms, tier.jitter_ms, tier.service_ms) == \
            (mode, depth, latency_ms, jitter_ms, service_ms)
        assert (list(tier.queue), tier.trackers, tier.oracles) == \
            ([], {"node-0": new_tracker(depth)}, {})


# -- prediction cadence ------------------------------------------------------

def test_thirty_minutes_of_ten_second_windows():
    # back-to-back 10 s sampling windows produce one prediction per ~10 s
    plan = scenario(duration_ms=1_800_000.0, adaptive=False)
    records = Simulator(plan).run()
    predictions = kinds_for(records, "node-0", "predict")
    assert 179 <= len(predictions) <= 181


# -- on-device prediction and escalation -----------------------------------

def test_sensor_escalates_after_warmup_under_constant_anomalies():
    plan = scenario(
        duration_ms=600_000.0, anomaly_probability=1.0, profiles=dict(PERFECT)
    )
    records = Simulator(plan).run()
    changes = kinds_for(records, "node-0", "mode-change")
    assert changes and changes[0].detail == "sensor-heuristic"
    assert changes[0].mode == "G"
    # exactly after the 32-step warm-up, never earlier
    predictions = kinds_for(records, "node-0", "predict")
    sensor_preds = [r for r in predictions if r.timestamp_ms <= changes[0].timestamp_ms]
    assert len(sensor_preds) == 32
    assert changes[0].tau == 0 and changes[0].sigma == 0  # reset coupled to change


def test_full_escalation_chain_reaches_cloud_and_stays():
    plan = scenario(
        duration_ms=1_800_000.0, anomaly_probability=1.0, profiles=dict(PERFECT)
    )
    records = Simulator(plan).run()
    path = [r.mode for r in kinds_for(records, "node-0", "mode-change")]
    assert path == ["G", "C"]  # S -> G -> C, then the cloud holds it


def test_quiet_gateway_node_deescalates_with_mode_command():
    plan = scenario(
        duration_ms=900_000.0,
        nodes=(NodeConfig(initial_mode="G"),),
        anomaly_probability=0.0,
        profiles=dict(PERFECT),
    )
    records = Simulator(plan).run()
    blanks = kinds_for(records, "node-0", "response-blank")
    # the window is live on the update that fills it, so predictions
    # 1..15 blank and the 16th already de-escalates
    assert len(blanks) == 15
    commands = kinds_for(records, "node-0", "mode-command")
    assert commands and commands[0].latency_ms == pytest.approx(148.15, abs=1e-9)
    changes = kinds_for(records, "node-0", "mode-change")
    assert changes[0].mode == "S" and changes[0].detail == "G-heuristic"


def test_quiet_cloud_node_steps_down_one_tier():
    plan = scenario(
        duration_ms=900_000.0,
        nodes=(NodeConfig(initial_mode="C"),),
        anomaly_probability=0.0,
        profiles=dict(PERFECT),
    )
    records = Simulator(plan).run()
    changes = kinds_for(records, "node-0", "mode-change")
    assert changes[0].mode == "G" and changes[0].detail == "C-heuristic"


def test_gateway_mode_command_reaching_an_idle_node_is_applied():
    # A 20 s gateway service backs requests up for minutes, so answers to
    # requests sent before the IDLE command keep arriving after it.
    # Operator commands apply at once outside WORKING; a tier's does too.
    plan = Scenario(
        duration_ms=1_800_000.0, seed=3, nodes=(NodeConfig(initial_mode="G"),),
        gateway_service_ms=20_000.0,
        commands=(PropertyCommand("node-0", "state", value="IDLE", at_ms=900_000.0),),
    )
    records = Simulator(plan).run()
    [i] = [i for i, r in enumerate(records) if r.kind == "mode-command" and r.state == "IDLE"]
    command, change = records[i], records[i + 1]
    assert command.timestamp_ms > 900_000.0 and command.detail == "origin=G mode=S"
    assert (change.kind, change.detail, change.mode, change.state) == \
        ("mode-change", "G-heuristic", "S", "IDLE")


def test_mode_transitions_follow_the_legal_graph():
    plan = Scenario(duration_ms=1_800_000.0)
    records = Simulator(plan).run()
    legal = {"S": {"G"}, "G": {"S", "C"}, "C": {"S", "G"}}
    current = "S"
    for r in kinds_for(records, "node-0", "mode-change"):
        assert r.mode in legal[current], f"illegal transition {current} -> {r.mode}"
        current = r.mode


# -- offboard round trips ---------------------------------------------------

def test_request_conservation_and_latency_matching():
    plan = Scenario(duration_ms=1_800_000.0)
    records = Simulator(plan).run()
    requests = len(kinds_for(records, "node-0", "request-send"))
    blanks = len(kinds_for(records, "node-0", "response-blank"))
    commands = len(kinds_for(records, "node-0", "mode-command"))
    timeouts = len(kinds_for(records, "node-0", "request-timeout"))
    assert requests == blanks + commands + timeouts
    assert requests > 0


def test_dropped_requests_time_out():
    plan = scenario(
        duration_ms=600_000.0,
        nodes=(NodeConfig(initial_mode="G"),),
        adaptive=False,
        drop_probability=0.8,
        request_timeout_ms=10_000.0,
    )
    records = Simulator(plan).run()
    requests = len(kinds_for(records, "node-0", "request-send"))
    blanks = len(kinds_for(records, "node-0", "response-blank"))
    timeouts = len(kinds_for(records, "node-0", "request-timeout"))
    assert timeouts > 0
    assert requests == blanks + timeouts


@pytest.mark.parametrize("labels", [None, (0,)], ids=["default", "good-only"])
def test_history_bit_marks_the_scenario_anomaly_labels(labels):
    # Perfect classifiers predict the truth, so each predict row's newest
    # history bit must say whether the truth is one of the anomaly labels.
    extra = {} if labels is None else {"anomaly_labels": labels}
    plan = scenario(
        duration_ms=600_000.0, profiles=PERFECT, anomaly_probability=0.5,
        nodes=(NodeConfig("s", "S"), NodeConfig("g", "G"), NodeConfig("c", "C")), **extra,
    )
    anomalous = set(plan.anomaly_labels)
    assert anomalous == ({2, 3} if labels is None else {0})
    seen = {"S": 0, "G": 0, "C": 0}
    for r in Simulator(plan).run():
        if r.kind != "predict":
            continue
        fields = dict(item.split("=") for item in r.detail.split())
        seen[fields.get("tier", "S")] += 1
        assert int(r.history_hex, 16) & 1 == (int(fields["truth"]) in anomalous), r
    assert all(seen.values()), seen


def test_tracker_isolation_across_nodes():
    plan = scenario(
        duration_ms=300_000.0,
        nodes=(NodeConfig(node_id="a", initial_mode="G"),
               NodeConfig(node_id="b", initial_mode="G")),
        adaptive=False,
    )
    sim = Simulator(plan)
    sim.run_until(700.0)
    before = sim.gateway.trackers["b"]
    for _ in range(10):
        sim._handle_prediction(sim.gateway, "a", 700.0, 99.0)
    assert sim.gateway.trackers["b"] == before
    assert sim.gateway.trackers["a"].length == 10


def test_a_mode_change_leaves_other_nodes_on_the_shared_empty_window():
    # the command reaches "a" before it works, so it is applied at once
    plan = scenario(
        nodes=(NodeConfig(node_id="a"), NodeConfig(node_id="b")), adaptive=False,
        commands=(PropertyCommand("a", "inference_mode", PropertyMethod.SET, "G"),),
    )
    sim = Simulator(plan)
    records = sim.run()
    assert [r.detail for r in kinds_for(records, "a", "mode-change")] == ["operator"]
    at_gateway = [r for r in kinds_for(records, "a", "predict") if "tier=G" in r.detail]
    assert len(at_gateway) >= 3
    gateway = sim.gateway
    assert gateway.trackers["a"].length == min(len(at_gateway), gateway.depth)
    assert gateway.trackers["b"] is new_tracker(gateway.depth)  # the one shared empty window
    assert gateway.trackers["b"].length == 0
    for tier in sim.tiers.values():
        empty = new_tracker(tier.depth)
        assert (empty.bits, empty.length, empty.depth) == (0, 0, tier.depth)


def test_construction_keeps_under_1500_bytes_per_node():
    # windows are shared; the truth process and the outbox wait for first use
    def traced_bytes(nodes: int) -> int:
        plan = scenario(nodes=tuple(NodeConfig(node_id=f"n{i}") for i in range(nodes)))
        gc.collect()
        tracemalloc.start()
        try:
            sim = Simulator(plan)
            assert len(sim.nodes) == nodes
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    per_node = (traced_bytes(1_000) - traced_bytes(10)) / 990
    assert per_node < 1_500


def test_gateway_queue_counts_enqueued_minus_serviced():
    plan = scenario(
        duration_ms=120_000.0,
        nodes=tuple(NodeConfig(node_id=f"n{i}", initial_mode="G") for i in range(3)),
        adaptive=False,
        gateway_service_ms=200.0,
    )
    records = Simulator(plan).run()
    sent = served = 0
    samples = []
    for r in records:
        if r.kind == "request-send":
            sent += 1
        elif r.kind == "predict":
            served += 1
            assert r.queue_len == sent - served
            samples.append(r.queue_len)
    # all three nodes transmit in lockstep, so the queue actually backs up
    assert max(samples) == 2


def test_latency_includes_queue_wait_under_load():
    plan = scenario(
        duration_ms=120_000.0,
        nodes=tuple(NodeConfig(node_id=f"n{i}", initial_mode="G") for i in range(3)),
        adaptive=False,
        gateway_service_ms=200.0,
    )
    records = Simulator(plan).run()
    latencies = sorted(
        r.latency_ms for r in records if r.kind == "response-blank"
    )
    # first served: constant + service; last served: + two queue waits
    assert latencies[0] == pytest.approx(148.15 + 200.0, abs=1e-6)
    assert latencies[-1] == pytest.approx(148.15 + 3 * 200.0, abs=1e-6)


# -- command delivery and polling ---------------------------------------------

def test_command_to_sensor_node_waits_for_poll():
    cmds = (PropertyCommand("node-0", "sleep_period", value=1_000, at_ms=5_000.0),)
    plan = scenario(
        duration_ms=120_000.0, adaptive=False, commands=cmds,
        poll_enabled=True, poll_every_cycles=2,
    )
    sim = Simulator(plan)
    records = sim.run()
    queued = [r for r in records if r.kind == "command-queued"]
    applied = [r for r in records if r.kind == "property-command"]
    polls = [r for r in records if r.kind == "poll"]
    assert queued and applied and polls
    assert applied[0].timestamp_ms == polls[0].timestamp_ms
    assert applied[0].timestamp_ms > queued[0].timestamp_ms
    assert sim.nodes["node-0"].sleep_period_ms == 1_000.0


def test_empty_poll_charges_fraction_of_radio():
    plan = scenario(
        duration_ms=60_000.0, adaptive=False,
        poll_enabled=True, poll_every_cycles=1, empty_poll_fraction=0.1,
    )
    sim = Simulator(plan)
    records = sim.run()
    assert [r for r in records if r.kind == "poll-empty"]
    fractions = [e for e in sim.ledger.entries if e.operation == "radio_poll_empty"]
    assert fractions and all(e.energy_mj == pytest.approx(157.0) for e in fractions)


def test_command_to_idle_node_is_delivered_immediately():
    cmds = (
        PropertyCommand("node-0", "state", value="IDLE", at_ms=50_000.0),
        PropertyCommand("node-0", "state", value="UNLOCKED", at_ms=80_000.0),  # reset
    )
    plan = scenario(duration_ms=200_000.0, adaptive=False, commands=cmds,
                    poll_enabled=True, poll_every_cycles=1)
    sim = Simulator(plan)
    records = sim.run()
    # the reset lands while IDLE (radio listening), then re-orchestration
    # brings the node back to WORKING
    idle = [r for r in records if r.kind == "idle-command"]
    reset = [r for r in records if r.kind == "reset-command"]
    assert idle and reset
    assert reset[0].timestamp_ms == 80_000.0
    assert sim.nodes["node-0"].state.value == "WORKING"


def test_reset_drops_the_cycle_start_left_from_before_idle():
    # IDLE lands at the 10.65 s radio window, whose cycle-start is still
    # pending when the reset brings the node back to WORKING
    cmds = (
        PropertyCommand("node-0", "state", value="IDLE", at_ms=5_000.0),
        PropertyCommand("node-0", "state", value="UNLOCKED", at_ms=12_000.0),
    )
    plan = scenario(duration_ms=600_000.0, adaptive=False, commands=cmds,
                    nodes=(NodeConfig(initial_mode="G", sleep_period_ms=0.0),))
    records = Simulator(plan).run()
    assert [r.timestamp_ms for r in records if r.kind == "idle-command"] == [10_650.0]
    samples = [r.timestamp_ms for r in kinds_for(records, "node-0", "sample")]
    assert len(samples) == 41
    window = plan.energy.sampling.duration_ms
    assert all(b - a >= window for a, b in zip(samples, samples[1:]))


def test_command_to_transmitting_node_applies_at_radio_window():
    cmds = (PropertyCommand("node-0", "sleep_period", value=2_000, at_ms=5_000.0),)
    plan = scenario(
        duration_ms=60_000.0, adaptive=False, commands=cmds,
        nodes=(NodeConfig(initial_mode="G"),),
    )
    sim = Simulator(plan)
    records = sim.run()
    applied = [r for r in records if r.kind == "property-command"]
    windows = [r for r in records if r.kind == "request-send"]
    assert applied and windows
    assert applied[0].timestamp_ms == windows[0].timestamp_ms
    assert sim.nodes["node-0"].sleep_period_ms == 2_000.0


def test_mode_command_while_sensor_mode_arrives_at_next_poll():
    cmds = (PropertyCommand("node-0", "inference_mode", value="G", at_ms=1_000.0),)
    plan = scenario(duration_ms=120_000.0, adaptive=False, commands=cmds,
                    poll_enabled=True, poll_every_cycles=1)
    sim = Simulator(plan)
    records = sim.run()
    change = [r for r in records if r.kind == "mode-change"]
    assert change and change[0].detail == "operator"
    first_poll = [r for r in records if r.kind == "poll"][0]
    assert change[0].timestamp_ms == first_poll.timestamp_ms
    assert sim.nodes["node-0"].mode is G


def test_operator_mode_set_empties_the_windows_only_on_a_change():
    cmds = (PropertyCommand("node-0", "inference_mode", value="S", at_ms=1_000.0),
            PropertyCommand("node-0", "inference_mode", value="G", at_ms=40_000.0),
            PropertyCommand("node-0", "inference_mode", value="S", at_ms=70_000.0))
    plan = scenario(duration_ms=120_000.0, adaptive=False, commands=cmds,
                    poll_enabled=True, poll_every_cycles=1)
    records = Simulator(plan).run()
    applied = kinds_for(records, "node-0", "property-command")
    assert [r.detail for r in applied] == ["SET inference_mode status=ok"] * 3
    changes = kinds_for(records, "node-0", "mode-change")
    assert [(r.timestamp_ms, r.detail, r.mode, r.history_hex, r.tau, r.sigma)
            for r in changes] == [(r.timestamp_ms, "operator", mode, "0", 0, 0)
                                  for r, mode in zip(applied[1:], "GS")]
    predictions = kinds_for(records, "node-0", "predict")
    # the SET to the current mode, at the first poll, leaves the S window counting up
    assert applied[0].timestamp_ms < predictions[1].timestamp_ms
    assert [r.tau for r in predictions if r.timestamp_ms <= changes[0].timestamp_ms] == \
        [1, 2, 3, 4]
    for change, tier in zip(changes, ("tier=G", "label=")):
        after = next(r for r in predictions if r.timestamp_ms > change.timestamp_ms)
        assert after.detail.startswith(tier) and after.tau == 1


def test_provisioned_nodes_takes_a_list_of_ids_or_one_id():
    sim = Simulator(scenario())

    def status(method, value=None):
        cmd = PropertyCommand("gateway", "provisioned_nodes", PropertyMethod(method), value)
        status, _ = sim.apply_gateway_command(cmd)
        return status

    assert status("SET", ["a", "b"]) == "ok"
    assert status("ADD", "c") == "ok"
    for method, bad in (("SET", 5), ("SET", "abc"), ("SET", {"a": 1}), ("SET", ["a", 1]),
                        ("SET", None), ("ADD", None), ("ADD", 5), ("ADD", ["d"])):
        assert status(method, bad) == "invalid-value", (method, bad)
    assert sim.provisioned_nodes == ["a", "b", "c"]
    get = PropertyCommand("gateway", "provisioned_nodes", PropertyMethod.GET)
    assert sim.apply_gateway_command(get) == ("ok", ["a", "b", "c"])


# -- battery exhaustion -------------------------------------------------------

def test_battery_death_is_terminal():
    plan = scenario(
        duration_ms=600_000.0, adaptive=False,
        nodes=(NodeConfig(battery_capacity_j=5.0),),  # ~2 cycles
    )
    records = Simulator(plan).run()
    dead = [r for r in records if r.kind == "battery-dead"]
    assert len(dead) == 1
    after = [r for r in records if r.timestamp_ms > dead[0].timestamp_ms]
    assert after == []


# -- sink ---------------------------------------------------------------------

@pytest.mark.parametrize("rows", [WRITE_CHUNK_ROWS, 4 * WRITE_CHUNK_ROWS, 1])
def test_sink_gets_the_trace_one_write_chunk_at_a_time(monkeypatch, rows):
    # With one row to a chunk, an event that records several rows (a
    # prediction and the mode change it causes) spans several batches.
    monkeypatch.setattr("tiersim.summary.WRITE_CHUNK_ROWS", rows)
    plan = Scenario(duration_ms=1_800_000.0, seed=3,
                    nodes=tuple(NodeConfig(f"n{i}", "SGC"[i % 3]) for i in range(4)))
    batches = []
    assert Simulator(plan).run(batches.append) == []
    assert len(batches) > 2
    assert all(len(batch) == rows for batch in batches[:-1])
    assert len(batches[-1]) <= rows
    assert [r for batch in batches for r in batch] == Simulator(plan).run()


# -- determinism --------------------------------------------------------------

def test_identical_seeds_replay_identical_traces():
    plan = Scenario(duration_ms=600_000.0, seed=123)
    first = Simulator(plan).run()
    second = Simulator(plan).run()
    assert first == second


def test_different_seeds_diverge():
    base = Scenario(duration_ms=1_800_000.0, seed=1)
    other = dataclasses.replace(base, seed=2)
    assert Simulator(base).run() != Simulator(other).run()


def test_negative_zero_sleep_period_keeps_its_own_text(tmp_path):
    # 0.0 == -0.0, but the sleep rows' detail and energy cells print the
    # sign, so each node's cycle steps must follow its own float
    doc = {
        "duration_ms": 120000, "seed": 3,
        "nodes": [{"node_id": "a", "sleep_period_ms": 0.0},
                  {"node_id": "b", "sleep_period_ms": -0.0}],
        "commands": [{"at_ms": 30000, "node_id": "a", "name": "sleep_period", "value": -0.0}],
    }
    run_scenario(scenario_from_dict(doc), tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("trace.jsonl", "energy.csv")}
    assert digests == {
        "trace.jsonl": "42a157883c78c30317724d9b6272bb9cc2d37533b0c7b5daa3344469d0054924",
        "energy.csv": "bca44484b4f527c8caeff069275cddbbe21c70db0808d78209b1c9d022f70ac1",
    }


def test_adding_a_node_leaves_the_other_nodes_streams_alone():
    plan = scenario(
        seed=5, duration_ms=600_000.0, drop_probability=0.2,
        latency=LatencyModel().with_jitter_fraction(0.2),
    )
    # a's own sleep period keeps its requests apart from the others' in the
    # shared gateway queue, so only the random streams could couple them
    a = NodeConfig(node_id="a", initial_mode="G", sleep_period_ms=2_500.0)
    fleets = (
        (a,),
        (NodeConfig(node_id="b"), a),
        (a, NodeConfig(node_id="z", initial_mode="C")),
    )
    rows = [
        [r for r in Simulator(dataclasses.replace(plan, nodes=nodes)).run() if r.node_id == "a"]
        for nodes in fleets
    ]
    assert {r.kind for r in rows[0]} >= {"predict", "request-timeout", "response-blank"}
    assert rows[1] == rows[0]
    assert rows[2] == rows[0]


def test_finished_simulator_is_freed_without_the_cyclic_collector():
    plan = scenario(
        duration_ms=300_000.0, drop_probability=0.3,
        nodes=(NodeConfig(node_id="g", initial_mode="G"),
               NodeConfig(node_id="c", initial_mode="C")),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator(plan)
        records = sim.run()
        refs = (weakref.ref(sim), weakref.ref(sim.ledger))
        del sim
        assert records
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
