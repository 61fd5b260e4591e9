"""Cross-module invariants checked over whole simulation traces."""

import json
import math
import operator
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tiersim import (
    BatteryState,
    EnergyTable,
    HeuristicParams,
    InferenceMode,
    LatencyModel,
    NodeConfig,
    NodeState,
    Scenario,
    SimEvent,
    Simulator,
    battery_life_bound,
    cycle_energy,
    extract_latency_series,
    read_trace_csv,
    run_scenario,
    summarize,
)
from tiersim.node import LifecycleEvent, PropertyCommand, PropertyMethod, TRANSITIONS
from tiersim.oracle import TierAccuracyProfile
from tiersim.summary import (
    ARTIFACTS,
    RESPONSE_KINDS,
    SummaryFold,
    write_energy_csv,
    write_latency_csv,
    write_trace_csv,
    write_trace_jsonl,
)

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD
TABLE = EnergyTable()
PERFECT = {mode: TierAccuracyProfile.perfect(mode) for mode in InferenceMode}

LIFECYCLE_KINDS = {e.value: e for e in LifecycleEvent}
_CSV_FIELDS = operator.attrgetter(*(f.name for f in fields(SimEvent) if f.name != "detail"))


def test_state_machine_safety_over_trace():
    commands = (
        PropertyCommand("node-0", "state", value="IDLE", at_ms=100_000.0),
        PropertyCommand("node-0", "state", value="UNLOCKED", at_ms=150_000.0),
    )
    scenario = Scenario(duration_ms=400_000.0, adaptive=False, commands=commands)
    records = Simulator(scenario).run()
    state = "INITIAL"
    triples = []
    for r in records:
        if r.node_id != "node-0" or r.state is None:
            continue
        if r.kind in LIFECYCLE_KINDS:
            triples.append((state, LIFECYCLE_KINDS[r.kind], r.state))
        state = r.state
    assert triples, "trace exercised no lifecycle transitions"
    for before, event, after in triples:
        key = (NodeState(before), event)
        assert key in TRANSITIONS and TRANSITIONS[key] is NodeState(after)
    # the full idle/reset/re-provision loop was walked
    events = [t[1] for t in triples]
    assert LifecycleEvent.IDLE_COMMAND in events
    assert LifecycleEvent.RESET_COMMAND in events
    assert events.count(LifecycleEvent.CONFIG_CONFIRM) == 2


def test_node_mode_is_stable_inside_a_cycle_without_commands():
    scenario = Scenario(duration_ms=600_000.0, adaptive=False, poll_enabled=False)
    records = Simulator(scenario).run()
    assert all(r.mode == "S" for r in records if r.node_id == "node-0")
    assert not [r for r in records if r.kind == "mode-change"]


def _per_cycle_entry_groups(entries):
    """Split one node's ledger entries into duty cycles (each starts at deep_sleep)."""
    groups = []
    for entry in entries:
        if entry.operation == "deep_sleep":
            groups.append([])
        groups[-1].append(entry)
    return groups


@pytest.mark.parametrize("mode,ops", [
    ("S", {"deep_sleep", "sampling", "local_inference"}),
    ("C", {"deep_sleep", "sampling", "compression", "radio_tx"}),
])
def test_ledger_total_equals_cycle_energy_sum(mode, ops):
    scenario = Scenario(
        duration_ms=3_600_000.0,
        nodes=(NodeConfig(sleep_period_ms=30_000.0, initial_mode=mode),),
        adaptive=False,
        poll_enabled=False,
    )
    sim = Simulator(scenario)
    sim.run()
    groups = _per_cycle_entry_groups(sim.ledger.entries)
    if {e.operation for e in groups[-1]} != ops:
        groups.pop()  # run boundary cut the final cycle short
    assert groups
    expected = cycle_energy(InferenceMode.parse(mode), 30_000.0, TABLE)
    for group in groups:
        by_op = {e.operation: e.energy_mj for e in group}
        assert set(by_op) == ops
        sleep = by_op.pop("deep_sleep")
        active = sum(by_op.values())
        # identical addend order as the closed form, so bit-exact
        assert active + sleep == expected
    complete = [e for group in groups for e in group]
    assert math.fsum(e.energy_mj for e in complete) == pytest.approx(
        len(groups) * expected, rel=1e-12
    )


def test_mixed_mode_lifetime_sits_between_bounds():
    capacity = 250.0  # joules; dies within a couple of simulated hours
    scenario = Scenario(
        duration_ms=3 * 3_600_000.0,
        nodes=(NodeConfig(sleep_period_ms=30_000.0, battery_capacity_j=capacity),),
        anomaly_probability=0.3,
        profiles=dict(PERFECT),
        poll_enabled=False,
        seed=5,
    )
    records = Simulator(scenario).run()
    dead = [r for r in records if r.kind == "battery-dead"]
    assert dead, "battery never died inside the window"
    lifetime_ms = dead[0].timestamp_ms
    battery = BatteryState(capacity_j=capacity)
    lower_h = battery_life_bound(battery, C, 30_000.0, TABLE)
    upper_h = battery_life_bound(battery, S, 30_000.0, TABLE)
    slack_ms = 45_000.0  # death is detected at the next cycle boundary
    assert lower_h * 3_600_000.0 - slack_ms <= lifetime_ms <= upper_h * 3_600_000.0 + slack_ms
    # the run genuinely mixed modes
    assert [r for r in records if r.kind == "mode-change"]


def test_battery_level_non_increasing_over_trace():
    scenario = Scenario(duration_ms=1_800_000.0)
    records = Simulator(scenario).run()
    last = 100.0
    for r in records:
        if r.battery_pct is None or r.kind == "predict" and r.mode != "S":
            continue  # tier rows echo the level attached at send time
        assert r.battery_pct <= last + 1e-12
        last = r.battery_pct


# -- invariants under random fleets and operator scripts ----------------------

# every property, valid and bad values, and a name no device knows
_COMMAND_VALUES = {
    "state": st.sampled_from([s.value for s in NodeState]),
    "inference_mode": st.sampled_from(["S", "G", "C", "Z"]),
    "sleep_period": st.sampled_from([0, 1_000, 5_000, 30_000, -1, True, "5000"]),
    "provisioned_nodes": st.sampled_from([["n0", "n1"], [], "n9", 5, {"a": 1}, None]),
    "gateway_id": st.none(),
    "sensor_id": st.none(),
    "tf_model_bytes": st.none(),
    "tf_model_size": st.just(30_720),
    "nonsense": st.none(),
}

_STATUSES = {"ok", "method-not-allowed", "unknown-property", "invalid-value",
             "protocol-violation"}


@st.composite
def _fuzzed_scenarios(draw):
    nodes = tuple(
        NodeConfig(
            node_id=f"n{i}",
            initial_mode=draw(st.sampled_from(["S", "G", "C"])),
            sleep_period_ms=draw(st.sampled_from([0.0, 5_000.0, 30_000.0])),
            battery_capacity_j=draw(st.floats(40.0, 18_648.0)),
        )
        for i in range(draw(st.integers(1, 8)))
    )
    commands = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(sorted(_COMMAND_VALUES)))
        commands.append(PropertyCommand(
            node_id=draw(st.sampled_from([n.node_id for n in nodes] + ["ghost"])),
            name=name, method=draw(st.sampled_from(PropertyMethod)),
            value=draw(_COMMAND_VALUES[name]),
            at_ms=float(draw(st.integers(0, 1_800_000))),
        ))
    return Scenario(
        duration_ms=1_800_000.0,
        seed=draw(st.integers(0, 2**16)),
        nodes=nodes,
        params=HeuristicParams(queue_limit=draw(st.sampled_from([1, 4]))),
        latency=LatencyModel().with_jitter_fraction(draw(st.floats(0.0, 0.9))),
        gateway_service_ms=draw(st.floats(0.0, 20_000.0)),
        cloud_service_ms=draw(st.floats(0.0, 5_000.0)),
        adaptive=draw(st.booleans()),
        drop_probability=draw(st.floats(0.0, 0.6)),
        request_timeout_ms=draw(st.floats(1_000.0, 40_000.0)),
        commands=tuple(commands),
    )


# No shrink phase: each example is a 30-minute fleet run, so shrinking a
# failure takes minutes; the falsifying scenario is printed unshrunk.
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_fuzzed_scenarios())
def test_trace_invariants_hold_under_random_fleets_and_commands(scenario):
    sim = Simulator(scenario)
    records = sim.run()  # completes: no runtime abort on a valid scenario

    last_ms = 0.0
    requests = dict.fromkeys((n.node_id for n in scenario.nodes), 0)
    closed = dict(requests)
    origins = []
    for r in records:
        assert r.timestamp_ms >= last_ms, r
        last_ms = r.timestamp_ms
        if r.kind == "request-send":
            requests[r.node_id] += 1
        elif r.kind in RESPONSE_KINDS or r.kind == "request-timeout":
            closed[r.node_id] += 1
            assert closed[r.node_id] <= requests[r.node_id], r
            if r.kind != "request-timeout":
                origins.append(r.detail.split()[0].removeprefix("origin="))
        elif r.kind == "property-command":
            assert r.detail.split()[2].removeprefix("status=") in _STATUSES, r

    # every offboard latency sample is filed under the tier that answered
    assert [s.mode for s in extract_latency_series(records) if s.mode != "S"] == origins

    total = 0.0  # the ledger's own order of additions
    for entry in sim.ledger.entries:
        total += entry.energy_mj
    assert sim.ledger.total_mj == total

    # each node's level only falls; a tier's predict row, whose mode may
    # already be S again, echoes the level attached at send time
    levels = {}
    for r in records:
        if r.battery_pct is None or r.detail and r.detail.startswith("tier="):
            continue
        assert r.battery_pct <= levels.setdefault(r.node_id, r.battery_pct), r
        levels[r.node_id] = r.battery_pct
    # the summary fold, which has no detail to read, keeps the same last levels
    fold = SummaryFold()
    fold.update(records)
    assert fold._last_pct == levels

    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "trace.csv"
        write_trace_csv(records, path)
        loaded = read_trace_csv(path)
    # every field but the JSONL-only detail reads back exactly, -0.0 included
    assert len(loaded) == len(records)
    for r, back in zip(records, loaded):
        assert repr(_CSV_FIELDS(back)) == repr(_CSV_FIELDS(r)), r
    assert summarize(loaded, scenario) == fold.result(scenario)


# Ten documents keep this within Tier-1's time budget; each is run twice.
@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          phases=(Phase.explicit, Phase.generate))
@given(_fuzzed_scenarios())
def test_streamed_artifacts_match_the_whole_list_writers_under_random_fleets(scenario):
    with tempfile.TemporaryDirectory() as out:
        streamed, whole = Path(out, "streamed"), Path(out, "whole")
        summary = run_scenario(scenario, streamed)
        sim = Simulator(scenario)
        records = sim.run()
        whole.mkdir()
        write_trace_csv(records, whole / "trace.csv")
        write_trace_jsonl(records, whole / "trace.jsonl")
        write_energy_csv(sim.ledger.entries, whole / "energy.csv")
        write_latency_csv(extract_latency_series(records), whole / "latency.csv")
        for name in ARTIFACTS[:4]:
            assert (streamed / name).read_bytes() == (whole / name).read_bytes(), name
        assert summary == summarize(records, scenario)
        assert json.loads((streamed / "summary.json").read_text()) == summary.to_dict()
