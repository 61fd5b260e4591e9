"""Tests for scenario loading and the command-line interface."""

import copy
import json
import math
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

import tiersim.cli
import tiersim.engine
import tiersim.summary
from tiersim import (
    DEFAULT_PROFILES,
    BatteryState,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
    LatencyModel,
    NodeConfig,
    PropertyCommand,
    PropertyMethod,
    Scenario,
    SensorNode,
    Simulator,
    extract_latency_series,
    load_scenario,
    read_trace_csv,
    summarize,
)
from tiersim.cli import main, run_scenario
from tiersim.scenario import PRESETS, load_preset, scenario_from_dict
from tiersim.summary import (
    WRITE_CHUNK_ROWS,
    write_energy_csv,
    write_latency_csv,
    write_trace_csv,
    write_trace_jsonl,
)

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD


# -- scenario loading -------------------------------------------------------

def test_empty_document_reproduces_reference_setup():
    scenario = scenario_from_dict({})
    assert scenario.duration_ms == 1_800_000.0
    assert len(scenario.nodes) == 1
    assert scenario.nodes[0].sleep_period_ms == 0.0  # back-to-back windows
    assert scenario.anomaly_probability == 0.3
    assert scenario.params.history_depth_sensor == 32
    assert scenario.latency.gateway_ms == 148.15
    assert scenario.energy.radio_tx.energy_mj == 1_570.0
    assert scenario.profiles[C].accuracy == 0.9938


def _readme_document() -> dict:
    """The scenario document that README's schema block spells out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_schema_documents_the_defaults():
    scenario = scenario_from_dict(_readme_document())
    # the documented command is an example; by default there are none
    assert scenario.commands == (
        PropertyCommand("node-0", "sleep_period", value=5000, at_ms=60_000.0),)
    assert replace(scenario, commands=()) == Scenario()


def _member_paths(value, path=()):
    """The JSON path of every member of every object and list in ``value``."""
    for key, member in value.items() if isinstance(value, dict) else enumerate(value):
        yield (*path, key)
        if isinstance(member, (dict, list)):
            yield from _member_paths(member, (*path, key))


#: Members whose range check reads another field too, so it names their object.
_CROSS_FIELD = {
    **{("heuristics", f"{key}_count"): ("heuristics",) for key in (
        "sensor_escalate", "gateway_deescalate", "gateway_escalate", "cloud_deescalate")},
    **{("latency", f"jitter_{tier}_ms"): ("latency",) for tier in ("sensor", "gateway", "cloud")},
}


@pytest.mark.parametrize("bad", ["x", True, -1, math.nan], ids=repr)
def test_every_readme_value_loads_or_is_rejected_at_its_path(bad):
    document, checked = _readme_document(), 0
    for path in _member_paths(document):
        doc = copy.deepcopy(document)
        *outer, last = path
        parent = doc
        for key in outer:
            parent = parent[key]
        parent[last] = bad
        try:
            scenario_from_dict(doc)
        except ConfigurationError as err:
            assert err.path in (path, _CROSS_FIELD.get(path)), (path, str(err))
            text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in err.path)
            assert str(err).startswith(f"<scenario>: {text[1:]}: "), str(err)
            checked += 1
    assert checked >= 75  # nearly every value rejects each of the four


def _schema_intervals(cls=Scenario, prefix=""):
    """(JSON key, interval) of each declared interval in the schema, in README's notation."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key, tp = prefix + f.metadata.get("key", f.name), hints[f.name]
        origin, args = get_origin(tp), get_args(tp)
        if "interval" in f.metadata:
            yield key + ("[i]" if origin is tuple else ""), f.metadata["interval"]
        elif is_dataclass(tp):
            yield from _schema_intervals(tp, f"{key}.")
        elif origin is tuple and is_dataclass(args[0]):
            yield from _schema_intervals(args[0], f"{key}[i].")
        elif origin is dict:
            yield from _schema_intervals(args[1], f"{key}.<tier>.")


def test_readme_lists_every_declared_interval():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    documented = [(key, interval) for interval, keys in re.findall(
                      r"^- `([\[(][^`]*[\])])`: (.*?)(?=^- |^$)", section, re.M | re.S)
                  for key in re.findall(r"`([^`]+)`", keys)]
    assert sorted(documented) == sorted(_schema_intervals())


def test_scenario_overrides_apply(tmp_path):
    doc = {
        "name": "custom",
        "seed": 5,
        "nodes": [{"node_id": "a", "initial_mode": "G", "sleep_period_ms": 500}],
        "heuristics": {"queue_limit": 2},
        "latency": {"gateway_ms": 100.0},
        "ground_truth": {"anomaly_probability": 0.9},
        "poll": {"enabled": False},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    assert scenario.name == "custom"
    assert scenario.nodes[0].initial_mode == "G"
    assert scenario.params.queue_limit == 2
    assert scenario.latency.gateway_ms == 100.0
    assert scenario.anomaly_probability == 0.9
    assert not scenario.poll_enabled


def test_unknown_field_is_rejected_with_path():
    with pytest.raises(ConfigurationError, match=r"^<scenario>: latency: unknown field"):
        scenario_from_dict({"latency": {"gatway_ms": 1.0}})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: top level: unknown field"):
        scenario_from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: profiles: unknown field.*'Q'"):
        scenario_from_dict({"profiles": {"Q": {}}})


def test_parse_error_carries_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "duration_ms": \n}\n')
    with pytest.raises(ConfigurationError, match=r"broken\.json:\d+:\d+"):
        load_scenario(path)


def _int_digit_limit() -> int:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    return limit


@pytest.mark.parametrize("text", [
    lambda limit: '{"seed": ' + "9" * (limit + 1) + ', "duration_ms": 1000}',
    lambda limit: '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}",  # past the recursion limit
], ids=["long-integer", "deep-nesting"])
def test_json_the_parser_cannot_hold_exits_2_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "huge.json"
    path.write_text(text(_int_digit_limit()))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert "huge.json: invalid JSON: " in capsys.readouterr().err


def test_seed_past_the_int_digit_limit_is_rejected_at_load():
    too_long = 10 ** _int_digit_limit()  # one digit more than str() may spell
    with pytest.raises(ConfigurationError, match=r"^<scenario>: seed: seed has more than "):
        scenario_from_dict({"seed": too_long})
    with pytest.raises(ConfigurationError, match=r"^seed has more than "):
        Scenario(seed=-too_long)


def test_seeds_within_the_int_digit_limit_load_and_run():
    longest = 10 ** _int_digit_limit() - 1
    for seed in (-7, 2**64 + 3, 1e300, -1e300, longest, -longest):
        scenario = scenario_from_dict({"seed": seed, "duration_ms": 12_000})
        assert scenario.seed == int(seed)
        assert any(r.kind == "predict" for r in Simulator(scenario).run())


def test_documents_merge_onto_shared_frozen_defaults_without_changing_them():
    defaults = Scenario()
    a = scenario_from_dict({"heuristics": {"queue_limit": 2}, "latency": {"cloud_ms": 700.0}})
    b = scenario_from_dict({"heuristics": {"low_battery_pct": 30.0}})
    assert (a.params.queue_limit, a.params.low_battery_pct) == (2, 20.0)
    assert (b.params.queue_limit, b.params.low_battery_pct) == (4, 30.0)
    assert (a.latency.cloud_ms, b.latency.cloud_ms) == (700.0, 641.71)
    assert b.latency is defaults.latency and b.energy is defaults.energy
    assert Scenario().params is defaults.params
    assert defaults.params == HeuristicParams()
    assert defaults.latency.cloud_ms == 641.71
    assert Scenario() == defaults


def test_invalid_values_rejected():
    # every message names its JSON path once, right after the source
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: duration_ms: duration_ms must be in [0, inf), got -1.0")):
        scenario_from_dict({"duration_ms": -1})
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: provisioning_stage_ms: provisioning_stage_ms must be in [0, inf), "
            "got -5.0")):
        scenario_from_dict({"provisioning_stage_ms": -5})
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: drop_probability: drop_probability must be in [0, 1), got 1.5")):
        scenario_from_dict({"drop_probability": 1.5})
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: request_timeout_ms: request_timeout_ms must be in (0, inf), got 0.0")):
        scenario_from_dict({"request_timeout_ms": 0})
    with pytest.raises(ConfigurationError,
                       match=r"^<scenario>: nodes\[0\]\.initial_mode: unknown inference"):
        scenario_from_dict({"nodes": [{"initial_mode": "Z"}]})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: heuristics: gateway"):
        scenario_from_dict({"heuristics": {"gateway_escalate_count": 3}})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: commands\[0\]: .*'name'"):
        scenario_from_dict({"commands": [{"node_id": "n"}]})
    with pytest.raises(ConfigurationError,
                       match=r"^<scenario>: nodes\[1\]\.node_id: node id 'a,b'"):
        scenario_from_dict({"nodes": [{}, {"node_id": "a,b"}]})  # would corrupt the CSV
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: energy.radio_tx.energy_mj: energy_mj must be in (0, inf), got -1.0")):
        scenario_from_dict({"energy": {"radio_tx": {"energy_mj": -1}}})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: nodes\[1\]: duplicate node id 'a'"):
        scenario_from_dict({"nodes": [{"node_id": "a"}, {"node_id": "a"}]})
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: poll.every_cycles: every_cycles must be in [1, inf), got 0")):
        scenario_from_dict({"poll": {"every_cycles": 0}})
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: cloud_service_ms: cloud_service_ms must be in [0, inf), got -1.0")):
        scenario_from_dict({"cloud_service_ms": -1})
    # built in Python, past the loader: a document's profiles merge onto the defaults
    with pytest.raises(ConfigurationError, match="missing accuracy profile for mode S"):
        Scenario(profiles={})
    with pytest.raises(ConfigurationError, match=r"jitter fraction must be in \[0, 1\), got 1.0"):
        LatencyModel().with_jitter_fraction(1.0)


@pytest.mark.parametrize("doc, path", [
    ({"duration_ms": float("nan")}, "duration_ms"),
    ({"latency": {"cloud_ms": float("inf")}}, "latency.cloud_ms"),
    ({"seed": float("inf")}, "seed"),
    ({"out_dir": 5}, "out_dir"),
    ({"adaptive": "false"}, "adaptive"),
    ({"poll": {"enabled": 0}}, "poll.enabled"),
    # a case's id keeps the path it had when range errors named only their object
    pytest.param({"commands": [{"at_ms": -5, "node_id": "node-0", "name": "state"}]},
                 "commands[0].at_ms", id="doc6-commands[0]"),
    ({"nodes": [{"node_id": None}]}, "nodes[0].node_id"),  # loaded as "None"
    ({"seed": 2.5}, "seed"),  # loaded as 2
    ({"seed": True}, "seed"),  # loaded as 1
    ({"name": {"a": 1}}, "name"),  # loaded as "{'a': 1}"
    ({"heuristics": {"queue_limit": 2.9}}, "heuristics.queue_limit"),  # loaded as 2
    ({"duration_ms": "60000"}, "duration_ms"),  # loaded as 60000.0
    ({"duration_ms": True}, "duration_ms"),  # loaded as 1.0
    ({"nodes": [{"sleep_period_ms": " 1e3 "}]}, "nodes[0].sleep_period_ms"),  # loaded as 1000.0
    pytest.param({"ground_truth": {"healthy_split": 2.0}}, "ground_truth.healthy_split",
                 id="doc15-ground_truth"),  # crashed the engine
    pytest.param({"ground_truth": {"degraded_split": -0.5}, "nodes": []},
                 "ground_truth.degraded_split", id="doc16-ground_truth"),  # ran
    pytest.param({"ground_truth": {"anomaly_probability": 1.5}},
                 "ground_truth.anomaly_probability", id="doc17-ground_truth"),
    ({"commands": [{"node_id": "n", "name": "state", "method": "PUT"}]}, "commands[0].method"),
    ({"commands": [{"node_id": "n", "name": "state", "method": 1}]}, "commands[0].method"),
    # one node-id rule for nodes and commands
    pytest.param({"duration_ms": 60000, "nodes": [{"node_id": "a"}], "commands": [
        {"at_ms": 10, "node_id": "gh,o\"st\n", "name": "sleep_period", "value": 5}]},
        "commands[0].node_id", id="doc20-commands[0]"),  # wrote a row read_trace_csv rejects
    pytest.param({"nodes": [{"node_id": "a\ud800"}]}, "nodes[0].node_id",
                 id="doc21-nodes[0]"),  # crashed deriving the node's seeds
    pytest.param({"commands": [{"node_id": "a\ud800", "name": "state"}]}, "commands[0].node_id",
                 id="doc22-commands[0]"),
    pytest.param({"commands": [{"node_id": "", "name": "state"}]}, "commands[0].node_id",
                 id="doc23-commands[0]"),
    pytest.param({"commands": [{"node_id": "a\rb", "name": "state"}]}, "commands[0].node_id",
                 id="doc24-commands[0]"),
    pytest.param({"nodes": [{"node_id": "a\rb"}]}, "nodes[0].node_id", id="doc25-nodes[0]"),
    # values that no code reads are not in the schema, so naming one fails
    ({"nodes": [{"battery_voltage_v": 3.7}]}, "nodes[0]"),
    ({"energy": {"radio_tx": {"size_kb": 3.0}}}, "energy.radio_tx"),
    # Scenario's own checks name the key they read
    ({"poll": {"every_cycles": 0}}, "poll.every_cycles"),
    ({"poll": {"empty_fraction": 1.5}}, "poll.empty_fraction"),
    ({"anomaly_labels": [2, 4]}, "anomaly_labels[1]"),
    ({"gateway_service_ms": -1}, "gateway_service_ms"),
    ({"cloud_service_ms": -0.5}, "cloud_service_ms"),
    ({"latency": {"jitter_sensor_ms": 3.33}}, "latency"),
    ({"drop_probability": 1.0}, "drop_probability"),
    ([], "top level"),  # a document that is not an object
    ({"nodes": ""}, "nodes"),  # loaded as no nodes
    ({"anomaly_labels": {}}, "anomaly_labels"),  # loaded as no labels
    ({1: 2, "zz": 3}, "top level"),  # a dict built in Python; sorting its keys raised TypeError
])
def test_bad_values_rejected_at_load_with_path(doc, path):
    with pytest.raises(ConfigurationError, match=rf"^<scenario>: {re.escape(path)}: "):
        scenario_from_dict(doc)


def test_profile_filed_under_another_tiers_key_is_rejected():
    # an oracle seeds its stream from its profile's tier: S and C would share one stream
    with pytest.raises(ConfigurationError,
                       match=r"^accuracy profile for mode S is for tier C$") as info:
        Scenario(profiles={**DEFAULT_PROFILES, S: DEFAULT_PROFILES[C]})
    assert info.value.path == ("profiles", "S")
    with pytest.raises(ConfigurationError, match="^missing accuracy profile for mode G$") as info:
        Scenario(profiles={S: DEFAULT_PROFILES[S]})
    assert info.value.path == ("profiles",)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("make, name", [
    *((Scenario, name) for name in ("duration_ms", "provisioning_stage_ms", "gateway_service_ms",
                                    "cloud_service_ms", "request_timeout_ms")),
    (NodeConfig, "sleep_period_ms"),
    (NodeConfig, "battery_capacity_j"),
    (lambda **kwargs: SensorNode("n0", **kwargs), "sleep_period_ms"),
    *((LatencyModel, f.name) for f in fields(LatencyModel)),
    (Scenario, "poll_every_cycles"),  # never polled: (cycle + 1) % nan is never 0
    (HeuristicParams, "queue_limit"),
    (BatteryState, "capacity_j"),  # an infinite battery stayed at 100 % and never died
])
def test_library_constructors_reject_non_finite_values(make, name, bad):
    # the loader rejects these too, but objects built in Python skip it
    with pytest.raises(ConfigurationError):
        make(**{name: bad})


def test_ground_truth_error_names_the_field_and_value():
    with pytest.raises(ConfigurationError, match=re.escape(
            "<scenario>: ground_truth.healthy_split: healthy_split must be in [0, 1], got 2.0")):
        scenario_from_dict({"ground_truth": {"healthy_split": 2.0}})


def test_command_defaults_to_set_at_time_zero():
    (cmd,) = scenario_from_dict({"commands": [{"node_id": "n", "name": "state"}]}).commands
    assert cmd == PropertyCommand("n", "state", PropertyMethod.SET, None, 0.0)


def test_presets_exist_and_validate():
    latency = load_preset("paper-latency")
    assert latency.duration_ms == 1_800_000.0
    battery = load_preset("paper-battery-bounds")
    assert battery.nodes[0].sleep_period_ms == 30_000.0
    assert not battery.adaptive and not battery.poll_enabled
    savings = load_preset("paper-savings")
    assert savings.duration_ms == 0.0
    with pytest.raises(ConfigurationError):
        load_preset("nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_is_a_json_document(name):
    document = json.loads(json.dumps(PRESETS[name]))
    assert scenario_from_dict(document) == load_preset(name)


# -- run_scenario artifacts --------------------------------------------------

def test_run_writes_full_artifact_set(tmp_path):
    scenario = Scenario(duration_ms=120_000.0)
    summary = run_scenario(scenario, tmp_path / "out")
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {"trace.csv", "trace.jsonl", "energy.csv", "latency.csv",
                     "summary.json"}
    stored = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert stored == summary.to_dict()
    assert stored["predictions"] > 0


def test_run_extracts_the_latency_series_once(tmp_path, monkeypatch):
    # Every record passes the summary fold once, across several batches.
    seen = []
    update = tiersim.summary.SummaryFold.update

    def counted(self, records):
        seen.append(len(records))
        return update(self, records)

    monkeypatch.setattr("tiersim.summary.SummaryFold.update", counted)
    monkeypatch.setattr("tiersim.summary.WRITE_CHUNK_ROWS", 64)
    run_scenario(Scenario(duration_ms=120_000.0, nodes=(NodeConfig(initial_mode="G"),)),
                 tmp_path / "out")
    records = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(seen) > 1 and sum(seen) == len(records)
    series = extract_latency_series(records)
    write_latency_csv(series, tmp_path / "expected.csv")
    assert len(series) > 0
    assert (tmp_path / "out" / "latency.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


def _fleet_document(hours: float, command_at_ms: float) -> dict:
    """Twelve S/G/C nodes with jitter, drops, long timeouts and operator commands."""
    return {
        "name": "fleet", "seed": 4, "duration_ms": hours * 3_600_000.0,
        "nodes": [{"node_id": f"n{i:02d}", "initial_mode": "SGC"[i % 3],
                   "sleep_period_ms": 1_000.0 * (i % 4)} for i in range(12)],
        "latency": {"jitter_gateway_ms": 20.0, "jitter_cloud_ms": 60.0},
        "drop_probability": 0.1, "request_timeout_ms": 30_000.0,
        "commands": [
            {"at_ms": command_at_ms, "node_id": "n01", "name": "inference_mode", "value": "C"},
            {"at_ms": command_at_ms, "node_id": "n02", "name": "state", "value": "IDLE"},
        ],
    }


@pytest.mark.parametrize("name", ["fleet", "paper-latency", "paper-savings",
                                  "paper-battery-bounds", "int-stage"])
def test_streamed_artifacts_match_the_whole_list_writers(tmp_path, name):
    if name == "fleet":
        scenario = scenario_from_dict(_fleet_document(1.0, 1_800_000.0))
    elif name == "int-stage":
        # the provisioning rows' int times share batches with float times
        scenario = Scenario(provisioning_stage_ms=100, duration_ms=60_000.0)
    else:
        scenario = load_preset(name)
    streamed = tmp_path / "streamed"
    summary = run_scenario(scenario, streamed)

    sim = Simulator(scenario)
    records = sim.run()
    whole = tmp_path / "whole"
    whole.mkdir()
    write_trace_csv(records, whole / "trace.csv")
    write_trace_jsonl(records, whole / "trace.jsonl")
    write_energy_csv(sim.ledger.entries, whole / "energy.csv")
    write_latency_csv(extract_latency_series(records), whole / "latency.csv")
    for artifact in ("trace.csv", "trace.jsonl", "energy.csv", "latency.csv"):
        assert (streamed / artifact).read_bytes() == (whole / artifact).read_bytes(), artifact
    if name == "fleet":
        # several batches and a remainder
        assert len(records) > 2 * WRITE_CHUNK_ROWS and len(records) % WRITE_CHUNK_ROWS
    if name == "int-stage":
        rows = (streamed / "trace.csv").read_text().splitlines()
        assert rows[1].startswith("100,") and rows[-1].split(",", 1)[0].endswith(".0")

    stored = json.loads((streamed / "summary.json").read_text())
    assert stored == summary.to_dict()
    assert stored == summarize(read_trace_csv(streamed / "trace.csv"), scenario).to_dict()


def test_sink_fed_by_two_run_until_calls_writes_what_one_run_writes(tmp_path):
    # the second call's first energy.csv row is the first debit after the
    # first call's last batch: the sink keeps its ledger offset across calls
    scenario = scenario_from_dict(_fleet_document(1.0, 1_800_000.0))
    once, split = tmp_path / "once", tmp_path / "split"
    once.mkdir()
    split.mkdir()
    sim = Simulator(scenario)
    with tiersim.summary.ArtifactSink(scenario, sim.ledger, once) as sink:
        sim.run(sink)
        sink.close()
    sim = Simulator(scenario)
    with tiersim.summary.ArtifactSink(scenario, sim.ledger, split) as sink:
        sim.run_until(scenario.duration_ms / 3, sink)
        debited = len(sim.ledger.entries)
        sim.run(sink)
        sink.close()
    assert 0 < debited < len(sim.ledger.entries)
    for name in tiersim.summary.ARTIFACTS:
        assert (split / name).read_bytes() == (once / name).read_bytes(), name


def test_sink_converts_each_distinct_float_of_a_batch_once(tmp_path, monkeypatch):
    # Every float reaches an artifact through ``repr`` in tiersim.summary. A
    # batch's records and the ledger entries debited with them hold every
    # float its four artifacts show. A zero is converted at each cell, since
    # 0.0 == -0.0; this fleet's zero-length sleeps debit 0.0 mJ.
    conversions = zeros = 0

    def counted_repr(value):
        nonlocal conversions, zeros
        if type(value) is float:
            conversions += value != 0.0
            zeros += value == 0.0
        return repr(value)

    monkeypatch.setattr(tiersim.summary, "repr", counted_repr, raising=False)
    scenario = scenario_from_dict(_fleet_document(1.0, 1_800_000.0))
    sim = Simulator(scenario)
    ledger = sim.ledger
    bound = debited = cells = 0

    def feed(records):
        nonlocal bound, debited, cells
        start, debited = debited, len(ledger)
        floats = [v for r in records for v in (r.timestamp_ms, r.latency_ms, r.battery_pct)]
        columns = ledger.columns(start)
        floats += [v for attr in ("timestamp_ms", "energy_mj", "battery_pct")
                   for v in columns[attr]]
        bound += len({v for v in floats if v})
        cells += sum(v is not None for v in floats)
        sink(records)

    with tiersim.summary.ArtifactSink(scenario, ledger, tmp_path) as sink:
        sim.run(feed)
        sink.close()
    assert debited == len(ledger.entries) > 0
    assert 0 < conversions <= bound < cells
    assert zeros > 0  # the run meets zeros, which the float table leaves out


def test_command_from_a_tier_the_node_has_left_is_not_applied(tmp_path):
    # n0 moves G -> S while its backlog at the slow gateway is still being
    # answered; one late answer commands C, which S cannot reach directly.
    doc = {
        "seed": 3599, "nodes": [{"node_id": "n0", "sleep_period_ms": 5000}, {"node_id": "n1"}],
        "heuristics": {"queue_limit": 1}, "gateway_service_ms": 20000,
        "drop_probability": 0.2, "request_timeout_ms": 1000,
        "commands": [{"at_ms": 0, "node_id": "n0", "name": "inference_mode", "value": "C"}],
    }
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    rows = map(json.loads, (tmp_path / "out" / "trace.jsonl").read_text().splitlines())
    ignored = [r["detail"] for r in rows if r["event_kind"] == "mode-command"
               and r["node_id"] == "n0" and r["mode"] != "G"]
    assert "origin=G mode=C" in ignored  # recorded, not applied


def test_cli_runtime_abort_exits_3_without_artifacts(tmp_path, monkeypatch, capsys):
    # No valid scenario aborts at run time, so the commands' arrival is made
    # to schedule an event in the past, after several batches were written.
    def schedule_in_the_past(sim, node_id, data):
        sim.schedule(sim.now_ms - 1.0, "poll", node_id)

    monkeypatch.setitem(tiersim.engine._HANDLERS, "command-arrival", schedule_in_the_past)
    writes = []
    write = tiersim.summary.write_trace_csv  # the name the artifact sink writes through
    # the sink hands each write one batch, whose columns all hold its rows
    monkeypatch.setattr("tiersim.summary.write_trace_csv", lambda batch, dest: writes.append(
        len(batch.columns["timestamp_ms"])) or write(batch, dest))
    path = tmp_path / "abort.json"
    path.write_text(json.dumps(_fleet_document(1.0, 3_000_000.0)))
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("unrelated")
    for out in (tmp_path / "new" / "out", kept):
        writes.clear()
        assert main([str(path), "--out", str(out), "--quiet"]) == 3
        assert "scheduled at" in capsys.readouterr().err
        assert sum(writes) > WRITE_CHUNK_ROWS  # rows reached the files before the abort
        assert all(n == WRITE_CHUNK_ROWS for n in writes if n)  # whole chunks, then none
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abort.json", "kept"]
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


# -- CLI ----------------------------------------------------------------------

def test_cli_get_state_reports_the_lifecycle_state(tmp_path):
    path = tmp_path / "get.json"
    path.write_text(json.dumps({"duration_ms": 120_000.0, "commands": [
        {"at_ms": at_ms, "node_id": "node-0", "name": "state", "method": "GET"}
        for at_ms in (50, 60_000)]}))
    assert main([str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    rows = map(json.loads, (tmp_path / "out" / "trace.jsonl").read_text().splitlines())
    assert [r["detail"] for r in rows if r["event_kind"] == "property-command"] == [
        "GET state status=ok value=INITIAL", "GET state status=ok value=WORKING"]


def test_cli_runs_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"duration_ms": 60_000.0}))
    code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "scenario scenario" in capsys.readouterr().out
    assert (tmp_path / "out" / "trace.csv").exists()


def test_cli_summary_reports_a_dead_battery(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"duration_ms": 120_000,
                                "nodes": [{"battery_capacity_j": 5.0}]}))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 0
    assert "  battery dead: node-0 at 31112 ms (0.0 h)\n" in capsys.readouterr().out


def test_cli_preset_with_overrides(tmp_path, capsys):
    code = main(["--preset", "paper-savings", "--out", str(tmp_path / "o"),
                 "--seed", "3", "--until", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "44.1% saving" in out


def test_cli_zero_duration_scenario_emits_empty_trace(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"duration_ms": 0}))
    code = main([str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(trace) == 1  # header only
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["predictions"] == 0 and summary["transitions"] == 0


def test_cli_config_error_exits_2_without_artifacts(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": [{"battery_capacity_j": -1}]}))
    code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()
    assert "battery_capacity_j" in capsys.readouterr().err


def test_cli_nan_duration_exits_2_without_artifacts(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"duration_ms": NaN}')
    # --until is checked like a file value
    for argv in ([str(path)], ["--preset", "paper-latency", "--until", "nan"],
                 ["--preset", "paper-latency", "--until", "inf"]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2, argv
        assert not (tmp_path / "out").exists()
        assert "duration_ms: must be a finite number" in capsys.readouterr().err


def test_cli_bad_node_ids_exit_2_with_the_path(tmp_path, capsys):
    for doc, where in (
        ({"nodes": [{"node_id": "a\ud800"}]}, "nodes[0].node_id"),
        ({"nodes": [{"node_id": "a"}], "commands": [
            {"at_ms": 10, "node_id": "gh,o\"st\n", "name": "sleep_period", "value": 5}]},
         "commands[0].node_id"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # the surrogate travels as a \ud800 escape
        assert main([str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert f"bad.json: {where}: node id " in capsys.readouterr().err


def _run_fails_if_reached(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("the run started although --out cannot be written")
    monkeypatch.setattr("tiersim.cli.Simulator", run)


def test_cli_out_naming_a_file_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    _run_fails_if_reached(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("unrelated")
    assert main(["--preset", "paper-latency", "--out", str(taken), "--quiet"]) == 2
    assert capsys.readouterr().err == f"tiersim: {taken}: {taken} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no staging directory
    assert taken.read_text() == "unrelated"


def test_cli_out_below_a_file_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    _run_fails_if_reached(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("unrelated")
    out = taken / "sub" / "out"
    assert main(["--preset", "paper-latency", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"tiersim: {out}: {taken} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_cli_requires_exactly_one_source(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_scenario_out_dir_used_unless_overridden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"duration_ms": 0, "out_dir": "artifacts"}))
    assert main([str(path), "--quiet"]) == 0
    assert (tmp_path / "artifacts" / "summary.json").exists()
    assert main([str(path), "--quiet", "--out", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / "summary.json").exists()


def test_cli_quiet_suppresses_summary(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text("{}")
    code = main([str(path), "--out", str(tmp_path / "out"), "--quiet",
                 "--until", "60000"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_console_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tiersim.cli", "--preset", "paper-savings",
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "summary.json").exists()
    assert "RuntimeWarning" not in result.stderr  # the module runs once, as __main__
