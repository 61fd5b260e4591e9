"""Tests for scenario loading and the command-line interface."""

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tiersim.cli
import tiersim.engine
import tiersim.summary
from tiersim import (
    ConfigurationError,
    InferenceMode,
    NodeConfig,
    Scenario,
    Simulator,
    extract_latency_series,
    load_scenario,
    read_trace_csv,
    summarize,
)
from tiersim.cli import main, run_scenario
from tiersim.engine import SINK_BATCH_RECORDS
from tiersim.scenario import TimedCommand, load_preset, scenario_from_dict
from tiersim.summary import (
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


def test_readme_schema_documents_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    scenario = scenario_from_dict(json.loads(re.sub(r"//.*", "", block)))
    # the documented command is an example; by default there are none
    assert scenario.commands == (TimedCommand(60_000.0, "node-0", "sleep_period", "SET", 5000),)
    assert replace(scenario, commands=()) == scenario_from_dict({})


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


def test_invalid_values_rejected():
    # every message names its JSON path once, right after the source
    with pytest.raises(ConfigurationError, match=r"^<scenario>: top level: duration_ms"):
        scenario_from_dict({"duration_ms": -1})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: nodes\[0\]: unknown inference"):
        scenario_from_dict({"nodes": [{"initial_mode": "Z"}]})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: heuristics: gateway"):
        scenario_from_dict({"heuristics": {"gateway_escalate_count": 3}})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: commands\[0\]: .*'name'"):
        scenario_from_dict({"commands": [{"node_id": "n"}]})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: nodes\[1\]: node id 'a,b'"):
        scenario_from_dict({"nodes": [{}, {"node_id": "a,b"}]})  # would corrupt the CSV
    with pytest.raises(ConfigurationError, match=r"^<scenario>: nodes\[0\]: battery voltage"):
        scenario_from_dict({"nodes": [{"battery_voltage_v": 0}]})  # caught at load, not at run time
    with pytest.raises(ConfigurationError, match=r"^<scenario>: energy\.radio_tx: operation"):
        scenario_from_dict({"energy": {"radio_tx": {"energy_mj": -1}}})
    with pytest.raises(ConfigurationError, match=r"^<scenario>: nodes\[1\]: duplicate node id 'a'"):
        scenario_from_dict({"nodes": [{"node_id": "a"}, {"node_id": "a"}]})


@pytest.mark.parametrize("doc, path", [
    ({"duration_ms": float("nan")}, "duration_ms"),
    ({"latency": {"cloud_ms": float("inf")}}, "latency.cloud_ms"),
    ({"seed": float("inf")}, "seed"),
    ({"heuristics": {"cloud_escalate_count": "x"}}, "heuristics.cloud_escalate_count"),
    ({"adaptive": "false"}, "adaptive"),
    ({"poll": {"enabled": 0}}, "poll.enabled"),
    ({"commands": [{"at_ms": -5, "node_id": "node-0", "name": "state"}]}, "commands[0]"),
    ({"nodes": [{"node_id": None}]}, "nodes[0].node_id"),  # loaded as "None"
    ({"seed": 2.5}, "seed"),  # loaded as 2
    ({"seed": True}, "seed"),  # loaded as 1
    ({"name": {"a": 1}}, "name"),  # loaded as "{'a': 1}"
    ({"heuristics": {"queue_limit": 2.9}}, "heuristics.queue_limit"),  # loaded as 2
    ({"duration_ms": "60000"}, "duration_ms"),  # loaded as 60000.0
    ({"duration_ms": True}, "duration_ms"),  # loaded as 1.0
    ({"nodes": [{"sleep_period_ms": " 1e3 "}]}, "nodes[0].sleep_period_ms"),  # loaded as 1000.0
])
def test_bad_values_rejected_at_load_with_path(doc, path):
    with pytest.raises(ConfigurationError, match=rf"^<scenario>: {re.escape(path)}: "):
        scenario_from_dict(doc)


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
    # Every record passes the latency matcher once, across several batches.
    seen = []
    match = tiersim.summary._LatencyMatcher.match

    def counted(self, records):
        seen.append(len(records))
        return match(self, records)

    monkeypatch.setattr("tiersim.summary._LatencyMatcher.match", counted)
    monkeypatch.setattr("tiersim.engine.SINK_BATCH_RECORDS", 64)
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
                                  "paper-battery-bounds"])
def test_streamed_artifacts_match_the_whole_list_writers(tmp_path, name):
    if name == "fleet":
        scenario = scenario_from_dict(_fleet_document(1.0, 1_800_000.0))
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
        assert len(records) > 2 * SINK_BATCH_RECORDS  # several batches and a remainder

    stored = json.loads((streamed / "summary.json").read_text())
    assert stored == summary.to_dict()
    assert stored == summarize(read_trace_csv(streamed / "trace.csv"), scenario).to_dict()


def test_cli_runtime_abort_exits_3_without_artifacts(tmp_path, monkeypatch, capsys):
    # No valid scenario aborts at run time, so the commands' arrival is made
    # to schedule an event in the past, after several batches were written.
    def schedule_in_the_past(sim, node_id, data):
        sim.schedule(sim.now_ms - 1.0, "poll", node_id)

    monkeypatch.setitem(tiersim.engine._HANDLERS, "command-arrival", schedule_in_the_past)
    writes = []
    write = tiersim.cli.write_trace_csv
    monkeypatch.setattr("tiersim.cli.write_trace_csv",
                        lambda records, dest: writes.append(len(records)) or write(records, dest))
    path = tmp_path / "abort.json"
    path.write_text(json.dumps(_fleet_document(1.0, 3_000_000.0)))
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("unrelated")
    for out in (tmp_path / "new" / "out", kept):
        writes.clear()
        assert main([str(path), "--out", str(out), "--quiet"]) == 3
        assert "scheduled at" in capsys.readouterr().err
        assert sum(writes) > SINK_BATCH_RECORDS  # rows reached the files before the abort
    assert sorted(p.name for p in tmp_path.iterdir()) == ["abort.json", "kept"]
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


# -- CLI ----------------------------------------------------------------------

def test_cli_runs_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"duration_ms": 60_000.0}))
    code = main([str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "scenario scenario" in capsys.readouterr().out
    assert (tmp_path / "out" / "trace.csv").exists()


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
