"""Tests for trace serialization and run aggregation."""

import functools
import json
import math
import re
import tracemalloc
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import (
    ConfigurationError,
    InferenceMode,
    LatencyModel,
    NodeConfig,
    NodeState,
    Scenario,
    SimEvent,
    Simulator,
    extract_latency_series,
    load_preset,
    read_trace_csv,
    run_scenario,
    scenario_from_dict,
    summarize,
)
from tiersim.summary import (
    RESPONSE_KINDS,
    TRACE_COLUMNS,
    LatencySample,
    SummaryFold,
    write_latency_csv,
    write_trace_csv,
    write_trace_jsonl,
)


def run(scenario):
    sim = Simulator(scenario)
    return sim.run(), sim


def test_csv_round_trip_preserves_records(tmp_path):
    scenario = Scenario(duration_ms=600_000.0)
    records, _ = run(scenario)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    loaded = read_trace_csv(path)
    stripped = [
        replace(r, detail=None) for r in records
    ]
    assert loaded == stripped


def test_malformed_row_aborts_with_row_number(tmp_path):
    path = tmp_path / "trace.csv"
    scenario = Scenario(duration_ms=30_000.0)
    records, _ = run(scenario)
    write_trace_csv(records, path)
    lines = path.read_text().splitlines()
    lines[3] = "not-a-number,x,y,,,,,,,,"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match="row 4"):
        read_trace_csv(path)


@pytest.mark.parametrize("mode,state,message", [
    ("Z", "WORKING", "row 3: mode 'Z' is not S, G, C or empty"),
    ("s", "", "row 3: mode 's' is not S, G, C or empty"),
    ("S", "SLEEPING", "row 3: state 'SLEEPING' is not a node state or empty"),
])
def test_mode_or_state_cell_outside_its_values_aborts_with_row_number(tmp_path, mode, state,
                                                                       message):
    # summarize would otherwise meet the unknown mode as a bare KeyError
    path = tmp_path / "trace.csv"
    rows = ["0.0,n0,cycle-start,S,WORKING,,,,,,100.0",
            f"5.0,n0,mode-change,{mode},{state},,,,,,99.0"]
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_trace_csv(path)


def test_mode_and_state_cells_read_as_the_enums_strings(tmp_path):
    path = tmp_path / "trace.csv"
    rows = ["0.0,n0,cycle-start,S,WORKING,,,,,,100.0", "1.0,n1,poll,,,,,,,,",
            "2.0,n0,mode-change,G,IDLE,,,,,,99.0"]
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    records = read_trace_csv(path)
    assert [(r.mode, r.state) for r in records] == [("S", "WORKING"), (None, None), ("G", "IDLE")]
    assert records[0].mode is InferenceMode.SENSOR.value
    assert records[2].state is NodeState.IDLE.value


def test_crlf_and_missing_final_newline_read_the_same(tmp_path):
    path = tmp_path / "trace.csv"
    records, _ = run(Scenario(duration_ms=30_000.0))
    write_trace_csv(records, path)
    expected = read_trace_csv(path)
    text = path.read_text()
    crlf = text.replace("\n", "\r\n")
    for variant in (crlf, text[:-1], crlf[:-2]):
        path.write_bytes(variant.encode("utf-8"))
        assert read_trace_csv(path) == expected


def test_read_back_shares_repeated_strings(tmp_path):
    doc = {"name": "readback", "seed": 5, "duration_ms": 1_800_000.0,
           "nodes": [{"node_id": f"n{i}", "initial_mode": "SGC"[i % 3]} for i in range(6)],
           "latency": {"jitter_gateway_ms": 20.0}, "drop_probability": 0.1}
    run_scenario(scenario_from_dict(doc), tmp_path)
    tracemalloc.start()
    try:
        records = read_trace_csv(tmp_path / "trace.csv")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A record with its own copies of these strings costs about 360 B, and
    # one with its own timestamp and battery floats about 193 B.
    assert retained / len(records) < 180
    for attr in ("node_id", "kind", "state", "history_hex"):
        first = {}
        for r in records:
            value = getattr(r, attr)
            assert first.setdefault(value, value) is value, (attr, value)
        assert len(first) < len(records) / 4, attr


def test_read_back_shares_a_float_with_the_previous_row_of_the_same_text(tmp_path):
    path = tmp_path / "trace.csv"
    rows = ["0.0,n0,sample,S,,,,,,,100.0",
            "0.0,n1,sample,S,,,,,,,100.0",  # both cells repeat the row before
            "-0.0,n0,sample,S,,,,,,,-0.0",  # equal values, other texts
            "2.5,n0,sample,S,,,,,,,",
            "2.5,n1,sample,S,,,,,,,",
            "3.0,n1,sample,S,,,,,,,1e-3"]
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    records = read_trace_csv(path)
    assert records[1].timestamp_ms is records[0].timestamp_ms
    assert records[1].battery_pct is records[0].battery_pct
    assert math.copysign(1.0, records[2].timestamp_ms) == -1.0
    assert math.copysign(1.0, records[2].battery_pct) == -1.0
    assert records[4].timestamp_ms is records[3].timestamp_ms
    assert records[3].battery_pct is None and records[4].battery_pct is None
    assert [(r.timestamp_ms, r.battery_pct) for r in records] == [
        (0.0, 100.0), (0.0, 100.0), (0.0, 0.0), (2.5, None), (2.5, None), (3.0, 0.001)]

    for bad in ("2.5,n1,sample,S,,,,,,,1e-3x", "x2.5,n1,sample,S,,,,,,,"):
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows[:4] + [bad]) + "\n")
        with pytest.raises(ConfigurationError, match="row 6: could not convert"):
            read_trace_csv(path)


@pytest.mark.parametrize("column", ["timestamp_ms", "latency_ms", "battery_pct"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_aborts_with_row_number(tmp_path, column, value):
    # no writer writes one, and summarize would otherwise fold it in
    path = tmp_path / "trace.csv"
    row = dict(zip(TRACE_COLUMNS, "1.0,n0,predict,S,,,,,,2.0,99.0".split(",")), **{column: value})
    path.write_text(",".join(TRACE_COLUMNS) + "\n0.0,n0,sample,S,,,,,,,100.0\n"
                    + ",".join(row.values()) + "\n")
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(f'{path}: row 3: {column} {value!r} is not finite')}$"):
        read_trace_csv(path)


@pytest.mark.parametrize("count", [10, 12])
def test_row_of_another_column_count_aborts_with_row_number(tmp_path, count):
    path = tmp_path / "trace.csv"
    cells = ["1.0", "n0", "sample", "S", *[""] * (count - 5), "99.0"]
    path.write_text(",".join(TRACE_COLUMNS) + "\n0.0,n0,sample,S,,,,,,,100.0\n"
                    + ",".join(cells) + "\n")
    message = f"{path}: row 3: expected 11 columns, got {count}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        read_trace_csv(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ConfigurationError, match="row 1"):
        read_trace_csv(path)


def test_summary_round_trip_matches_in_run_aggregation(tmp_path):
    scenario = Scenario(duration_ms=1_800_000.0)
    records, _ = run(scenario)
    direct = summarize(records, scenario)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    recomputed = summarize(read_trace_csv(path), scenario)
    assert recomputed == direct


def test_single_mode_trace_has_unit_occupancy():
    scenario = Scenario(duration_ms=600_000.0, adaptive=False)
    records, _ = run(scenario)
    summary = summarize(records, scenario)
    assert summary.occupancy == {"S": 1.0, "G": 0.0, "C": 0.0}


def test_mixed_trace_occupancy_sums_to_one():
    scenario = Scenario(duration_ms=1_800_000.0)
    records, _ = run(scenario)
    summary = summarize(records, scenario)
    assert sum(summary.occupancy.values()) == pytest.approx(1.0, abs=1e-9)
    assert summary.transitions > 0


def test_transition_count_equals_mode_change_rows():
    scenario = Scenario(duration_ms=1_800_000.0)
    records, _ = run(scenario)
    summary = summarize(records, scenario)
    assert summary.transitions == sum(1 for r in records if r.kind == "mode-change")


def test_zero_duration_summary_is_all_zeros():
    scenario = Scenario(duration_ms=0.0)
    records, _ = run(scenario)
    assert records == []
    summary = summarize(records, scenario)
    assert summary.predictions == 0
    assert summary.occupancy == {"S": 0.0, "G": 0.0, "C": 0.0}
    assert summary.mean_latency_ms == {"S": 0.0, "G": 0.0, "C": 0.0}
    assert summary.total_energy_mj == 0.0
    # the analytic fields are scenario constants, still present
    assert summary.onboard_cycle_mj == pytest.approx(2_002.72)


def test_total_energy_matches_ledger_within_float_reconstruction():
    # the second fleet's 50 J node dies: its last debit draws only the charge left
    dying = (NodeConfig("s", "S"), NodeConfig("g", "G", battery_capacity_j=50.0),
             NodeConfig("c", "C"))
    for scenario in (Scenario(duration_ms=600_000.0),
                     Scenario(duration_ms=600_000.0, nodes=dying)):
        records, sim = run(scenario)
        summary = summarize(records, scenario)
        assert summary.total_energy_mj == pytest.approx(sim.ledger.total_mj, rel=1e-9)
        assert sum(summary.occupancy.values()) == pytest.approx(1.0, abs=1e-9)
    assert list(summary.battery_dead_ms) == ["g"]


def test_fold_ignores_the_level_a_tier_side_prediction_echoes():
    # A tier serves a request after the node is back in S: its predict row
    # carries mode S, no latency and the level attached at send time.
    scenario = Scenario(nodes=(NodeConfig("n", battery_capacity_j=100.0),))
    records = [
        SimEvent(1_000.0, "n", "sample", "S", "WORKING", battery_pct=80.0),
        SimEvent(2_000.0, "n", "predict", "S", "WORKING", "1", 1, 1, battery_pct=90.0),
    ]
    assert summarize(records, scenario).total_energy_mj == pytest.approx(20_000.0)


def test_latency_series_extraction_matches_counts():
    scenario = Scenario(duration_ms=1_800_000.0)
    records, _ = run(scenario)
    series = extract_latency_series(records)
    predicts_with_latency = sum(
        1 for r in records if r.kind == "predict" and r.latency_ms is not None
    )
    responses = sum(
        1 for r in records if r.kind in ("response-blank", "mode-command")
    )
    assert len(series) == predicts_with_latency + responses
    for sample in series:
        assert sample.mode in ("S", "G", "C")
        assert sample.latency_ms >= 0


def test_latency_sample_names_the_tier_that_answered():
    # A dropped request stays outstanding until its 40 s timeout, longer
    # than one 14.75 s offboard cycle, so the next response may answer a
    # newer request than the node's oldest outstanding one.
    for seed in range(1, 40):
        scenario = Scenario(duration_ms=3_600_000.0, seed=seed,
                            nodes=(NodeConfig(initial_mode="G"),),
                            drop_probability=0.3, request_timeout_ms=40_000.0)
        records, _ = run(scenario)
        answered = [(r.timestamp_ms, r.detail.split()[0].removeprefix("origin="))
                    for r in records if r.kind in RESPONSE_KINDS]
        offboard = [(s.timestamp_ms, s.mode)  # on-device samples are the S ones
                    for s in extract_latency_series(records) if s.mode != "S"]
        assert offboard == answered, f"seed {seed}"


def test_timeout_does_not_retire_a_request_still_in_service():
    # A 20 s gateway service keeps answers queued far longer than the 1 s
    # timeout, so a timeout fires while older requests are still in service.
    for seed in range(1, 21):
        scenario = Scenario(duration_ms=3_600_000.0, seed=seed,
                            nodes=(NodeConfig(initial_mode="G"),),
                            gateway_service_ms=20_000.0, drop_probability=0.3,
                            request_timeout_ms=1_000.0)
        records, _ = run(scenario)
        answered = [r.detail.split()[0].removeprefix("origin=")
                    for r in records if r.kind in RESPONSE_KINDS]
        offboard = [s.mode for s in extract_latency_series(records) if s.mode != "S"]
        assert offboard == answered, f"seed {seed}"


#: Both ways to fold a whole trace; each must reject what the fold rejects.
ENTRY_POINTS = (extract_latency_series, lambda records: summarize(records, Scenario()))


@pytest.mark.parametrize("kind", sorted(RESPONSE_KINDS))
def test_response_without_a_latency_is_rejected(kind):
    records = [SimEvent(0.0, "n0", "request-send", mode="G"),
               SimEvent(150.0, "n0", kind, mode="G")]
    for entry in ENTRY_POINTS:
        with pytest.raises(ConfigurationError, match="n0 at 150.0 ms without a latency"):
            entry(records)


@pytest.mark.parametrize("kind", sorted(RESPONSE_KINDS))
def test_response_without_a_request_is_rejected(kind):
    # the first response answers n0's only request; nothing is left for the second,
    # and n1 never sent one
    for records in ([SimEvent(0.0, "n0", "request-send", mode="G"),
                     SimEvent(150.0, "n0", kind, mode="G", latency_ms=150.0),
                     SimEvent(300.0, "n0", kind, mode="G", latency_ms=300.0)],
                    [SimEvent(0.0, "n0", "request-send", mode="G"),
                     SimEvent(300.0, "n1", kind, mode="G", latency_ms=300.0)]):
        for entry in ENTRY_POINTS:
            with pytest.raises(ConfigurationError,
                               match=f"{records[-1].node_id} at 300.0 ms without a request"):
                entry(records)


@pytest.mark.parametrize("rows,message", [
    (["0.0,n0,predict,,,,,,,5.0,99.0"], "predict for n0 at 0.0 ms without a mode"),
    (["0.0,n0,request-send,,,,,,,,99.0", "10.0,n0,response-blank,,,,,,,10.0,99.0"],
     "request-send for n0 at 0.0 ms without a mode"),
], ids=["predict", "response"])
def test_record_whose_tier_the_fold_cannot_find_is_rejected(tmp_path, rows, message):
    # read_trace_csv accepts an empty mode; the fold needs it to name the serving tier
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    records = read_trace_csv(path)
    for entry in ENTRY_POINTS:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            entry(records)


def test_latency_sample_is_an_immutable_row():
    sample = LatencySample(1_000.0, "n1", "G", 148.15)
    assert (sample.timestamp_ms, sample.node_id, sample.mode, sample.latency_ms) == \
        (1_000.0, "n1", "G", 148.15)
    with pytest.raises(AttributeError):
        sample.mode = "C"


def test_latency_csv_rows_are_the_samples_in_column_order(tmp_path):
    scenario = load_preset("paper-latency")
    series = extract_latency_series(Simulator(scenario).run())
    assert len(series) > 0
    write_latency_csv(series, tmp_path / "latency.csv")
    rows = "".join(f"{s.timestamp_ms},{s.node_id},{s.mode},{s.latency_ms}\n" for s in series)
    assert (tmp_path / "latency.csv").read_text() == \
        "timestamp_ms,node_id,mode,latency_ms\n" + rows


@functools.cache
def _eventful_run():
    """A small S/G/C fleet with drops, long timeouts, jitter and a battery death."""
    scenario = Scenario(
        duration_ms=900_000.0, seed=11,
        nodes=(NodeConfig("s", "S"), NodeConfig("g", "G", battery_capacity_j=60.0),
               NodeConfig("c", "C", sleep_period_ms=2_000.0)),
        drop_probability=0.3, request_timeout_ms=40_000.0,
        latency=LatencyModel().with_jitter_fraction(0.2),
    )
    return scenario, Simulator(scenario).run()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=12))
def test_fold_is_independent_of_batch_boundaries(cuts):
    scenario, records = _eventful_run()
    bounds = sorted(int(c * len(records)) for c in cuts)
    fold = SummaryFold()
    series = []
    for lo, hi in zip([0, *bounds], [*bounds, len(records)]):
        series += fold.update(records[lo:hi])
    whole = SummaryFold()
    assert series == whole.update(records)
    assert fold.result(scenario) == whole.result(scenario)


def test_jsonl_written_one_record_per_line(tmp_path):
    scenario = Scenario(duration_ms=60_000.0)
    records, _ = run(scenario)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    first = json.loads(lines[0])
    assert first["event_kind"] == "provision-stage"
    assert first["detail"] == "device-discovery"
    for line, record in zip(lines, records):  # the eleven trace columns plus detail
        assert json.loads(line) == dict(zip((*TRACE_COLUMNS, "detail"), astuple(record)))
