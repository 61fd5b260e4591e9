"""One repetition of one benchmark workload, run in a process of its own.

``run.py`` starts this script once per repetition, so that ``import
tiersim`` is timed in a fresh interpreter and ``ru_maxrss`` is the
workload's own. Usage::

    python3 perfbench/worker.py '<request JSON>'

The request names the workload, seed, sizes, a work directory, and whether
to trace. The last line printed is one JSON object: host times, counts,
the behaviour fingerprints, every output-check failure, and (traced
repetitions only) the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
FLEET_ARTIFACTS = ("trace.csv", "trace.jsonl", "energy.csv", "latency.csv", "summary.json")

#: Every event kind the engine schedules today; ``engine.events.<kind>``.
EVENT_KINDS = (
    "provision-stage", "lifecycle", "cycle-start", "op", "predict-local",
    "radio-window", "poll", "tier-arrival", "tier-complete",
    "response-arrival", "request-timeout", "command-arrival",
)

#: Per-layer metrics in report order, with their units.
PER_LAYER_UNITS = {
    "scenario.load.calls": "count", "scenario.load_s": "s",
    "engine.init_s": "s", "engine.run_s": "s", "engine.self_s": "s",
    "engine.schedule.calls": "count", "engine.schedule_s": "s",
    "engine.record.calls": "count", "engine.record_s": "s",
    "engine.heap_peak": "count",
    **{f"engine.events.{kind}": "count" for kind in EVENT_KINDS},
    "node.plan_cycle.calls": "count", "node.plan_cycle_s": "s",
    "node.apply_command.calls": "count",
    "oracle.truth.calls": "count", "oracle.truth_s": "s",
    "oracle.predict.calls": "count", "oracle.predict_s": "s",
    "heuristics.update.calls": "count", "heuristics.update_s": "s",
    "heuristics.decide.calls": "count", "heuristics.decide_s": "s",
    "heuristics.mode_change_ratio": "fraction",
    "energy.debit.calls": "count", "energy.debit_s": "s",
    "energy.ledger_entries": "count",
    "summary.write_trace_csv_s": "s", "summary.write_trace_jsonl_s": "s",
    "summary.write_energy_csv_s": "s", "summary.write_latency_csv_s": "s",
    "summary.bytes_written": "bytes",
    "summary.summarize_s": "s", "summary.latency_series_s": "s",
    "summary.read_trace_csv_s": "s",
    "cli.run_scenario_s": "s", "cli.self_s": "s",
    "model.records": "count", "model.transitions": "count",
    "model.timeouts": "count", "model.gateway.q_max": "count",
    "trace.overhead_frac": "fraction", "trace.seams_absent": "count",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _non_decreasing(times) -> bool:
    previous = float("-inf")
    for t in times:
        if t < previous:
            return False
        previous = t
    return True


def _csv_column0(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",", 1)[0]) for line in lines]


def _model_counts(records, summary: dict) -> dict:
    return {
        "model.records": len(records),
        "model.transitions": summary["transitions"],
        "model.timeouts": summary["timeouts"],
        "model.gateway.q_max": max((r.queue_len or 0 for r in records), default=0),
    }


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, import_s: float) -> None:
        self.setup_s = import_s
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.records = 0
        self.peak_rss_mb = 0.0
        self.attempted = 1
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.model: dict[str, float] = {}
        self.extra: dict[str, float] = {}

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(message)


# -- fleet: one in-process CLI run writing all five artifacts --------------


def run_fleet(req: dict, rep: Rep, tracer: Tracer | None):
    import tiersim.cli
    import tiersim.engine

    work = Path(req["work"])
    scenario_path = work / "scenario.json"
    out = work / "out"
    simulator = tiersim.engine.Simulator
    original_run = simulator.run
    run_entered: list[float] = []

    def stamped_run(self, *args, **kwargs):
        # Set-up ends where the simulation starts, inside the measured
        # CLI call: argument parsing, scenario load and validation,
        # overrides and Simulator construction all come before it.
        run_entered.append(time.perf_counter())
        return original_run(self, *args, **kwargs)

    if tracer is None:
        simulator.run = stamped_run
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        code = tiersim.cli.main([str(scenario_path), "--out", str(out), "--quiet"])
    except Exception:
        code = None
        rep.fail(0, "fleet: CLI raised\n" + traceback.format_exc())
    finally:
        simulator.run = original_run
    rep.wall_s = time.perf_counter() - start
    rep.cpu_s = time.process_time() - cpu_start
    rep.peak_rss_mb = _peak_rss_mb()
    if code not in (0, None):
        rep.fail(0, f"fleet: CLI exited with {code}")
    if tracer is None:
        if run_entered:
            rep.setup_s += run_entered[0] - start
        elif code == 0:
            rep.fail(0, "fleet: the CLI never called Simulator.run, so set-up was not timed")
    return lambda: check_fleet(scenario_path, out, rep, tracer)


def check_fleet(scenario_path: Path, out: Path, rep: Rep, tracer: Tracer | None) -> None:
    from tiersim.scenario import load_scenario
    from tiersim.summary import extract_latency_series, read_trace_csv, summarize

    missing = [name for name in FLEET_ARTIFACTS if not (out / name).is_file()]
    if missing:
        rep.fail(0, f"fleet: missing artifacts {missing}")
        return
    rep.fingerprints = {name: _sha256(out / name) for name in FLEET_ARTIFACTS}
    rep.extra["summary.bytes_written"] = sum((out / n).stat().st_size for n in FLEET_ARTIFACTS)
    records = read_trace_csv(out / "trace.csv")
    rep.records = len(records)
    written = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    recomputed = summarize(records, load_scenario(scenario_path)).to_dict()
    if recomputed != written:
        rep.fail(0, "fleet: summary.json differs from summarize(read_trace_csv(trace.csv))")
    if not _non_decreasing(r.timestamp_ms for r in records):
        rep.fail(0, "fleet: trace.csv timestamps decrease")
    energy_times = _csv_column0(out / "energy.csv")
    if not _non_decreasing(energy_times):
        rep.fail(0, "fleet: energy.csv timestamps decrease")
    with open(out / "trace.jsonl", "rb") as fh:
        jsonl_rows = sum(1 for _ in fh)
    if jsonl_rows != len(records):
        rep.fail(0, f"fleet: trace.jsonl has {jsonl_rows} rows, trace.csv {len(records)}")
    latency_rows = len(_csv_column0(out / "latency.csv"))
    if latency_rows != len(extract_latency_series(records)):
        rep.fail(0, "fleet: latency.csv rows differ from the trace's latency series")
    rep.model = _model_counts(records, written)
    if tracer is not None:
        ledger = getattr(tracer.last_simulator, "ledger", None)
        if ledger is not None:
            rep.extra["energy.ledger_entries"] = len(ledger.entries)
            if len(energy_times) != len(ledger.entries):
                rep.fail(0, f"fleet: energy.csv has {len(energy_times)} rows, "
                            f"ledger {len(ledger.entries)} entries")
        _check_record_calls(rep, tracer, "fleet")


# -- sweep: many small scenarios through the library API ---------------------


def run_sweep(req: dict, rep: Rep, tracer: Tracer | None):
    import tiersim.engine
    import tiersim.scenario
    import tiersim.summary

    docs = workloads.sweep_scenarios(req["seed"], **req["sizes"])
    rep.attempted = len(docs)
    digest = hashlib.sha256()
    ledger_entries = transitions = timeouts = q_max = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    for i, doc in enumerate(docs):
        # Only scenario load, construction, run and summary are timed; the
        # checks between scenarios are not.
        start, cpu_start = clock(), cpu_clock()
        built = None
        try:
            scenario = tiersim.scenario.scenario_from_dict(doc, source=doc["name"])
            sim = tiersim.engine.Simulator(scenario)
            built = clock()
            records = sim.run()
            summary = tiersim.summary.summarize(records, scenario)
        except Exception as err:
            rep.fail(i, f"sweep: {doc['name']} raised {err!r}")
            continue
        finally:
            end = clock()
            rep.cpu_s += cpu_clock() - cpu_start
            rep.wall_s += end - start
            rep.setup_s += (built or end) - start
        result = summary.to_dict()
        digest.update(_digest([result, len(records)]).encode("ascii"))
        if not _non_decreasing(r.timestamp_ms for r in records):
            rep.fail(i, f"sweep: {doc['name']} timestamps decrease")
        total = sim.ledger.total_mj
        if abs(result["total_energy_mj"] - total) > 1e-9 * max(1.0, abs(total)):
            rep.fail(i, f"sweep: {doc['name']} summary energy {result['total_energy_mj']} "
                        f"!= ledger total {total}")
        rep.records += len(records)
        ledger_entries += len(sim.ledger.entries)
        transitions += result["transitions"]
        timeouts += result["timeouts"]
        q_max = max([q_max] + [r.queue_len for r in records if r.queue_len is not None])
    rep.peak_rss_mb = _peak_rss_mb()
    rep.fingerprints = {"summaries": digest.hexdigest()}
    rep.model = {"model.records": rep.records, "model.transitions": transitions,
                 "model.timeouts": timeouts, "model.gateway.q_max": q_max}
    rep.extra["energy.ledger_entries"] = ledger_entries
    return (lambda: _check_record_calls(rep, tracer, "sweep")) if tracer else None


# -- replay: re-analyse a stored fleet-shaped trace ---------------------------


def run_replay(req: dict, rep: Rep, tracer: Tracer | None):
    import tiersim.scenario
    import tiersim.summary

    source = Path(req["source"])
    start = time.perf_counter()
    scenario = tiersim.scenario.scenario_from_dict(
        workloads.replay_scenario(req["seed"], **req["sizes"]))
    rep.setup_s += time.perf_counter() - start
    start, cpu_start = time.perf_counter(), time.process_time()
    records = tiersim.summary.read_trace_csv(source / "trace.csv")
    summary = tiersim.summary.summarize(records, scenario).to_dict()
    series = tiersim.summary.extract_latency_series(records)
    rep.wall_s = time.perf_counter() - start
    rep.cpu_s = time.process_time() - cpu_start
    rep.peak_rss_mb = _peak_rss_mb()
    rep.records = len(records)

    def check() -> None:
        written = json.loads((source / "summary.json").read_text(encoding="utf-8"))
        if summary != written:
            rep.fail(0, "replay: recomputed summary differs from the run's summary.json")
        if len(series) != len(_csv_column0(source / "latency.csv")):
            rep.fail(0, "replay: latency series differs in length from latency.csv")
        if not _non_decreasing(r.timestamp_ms for r in records):
            rep.fail(0, "replay: trace.csv timestamps decrease")
        rep.fingerprints = {"summary": _digest([summary, len(records)])}
        rep.model = _model_counts(records, summary)
    return check


def _check_record_calls(rep: Rep, tracer: Tracer, name: str) -> None:
    if "tiersim.engine.Simulator._record" in tracer.absent:
        return
    calls = tracer.calls["engine.record"]
    if calls != rep.model["model.records"]:
        rep.fail(0, f"{name}: engine.record.calls {calls} != model.records "
                    f"{rep.model['model.records']}")


def prepare_replay(req: dict) -> dict:
    """Write the trace that ``replay`` re-analyses, with the real CLI."""
    work = Path(req["work"])
    work.mkdir(parents=True, exist_ok=True)
    scenario_path = work / "scenario.json"
    scenario_path.write_text(
        json.dumps(workloads.replay_scenario(req["seed"], **req["sizes"])), encoding="utf-8")
    sys.path.insert(0, str(ROOT / "src"))
    import tiersim.cli

    code = tiersim.cli.main([str(scenario_path), "--out", str(work), "--quiet"])
    return {"failures": [] if code == 0 else [f"replay: preparing the trace exited {code}"]}


RUNNERS = {"fleet": run_fleet, "sweep": run_sweep, "replay": run_replay}


def layer_metrics(tracer: Tracer, rep: Rep) -> dict:
    calls, total_s = tracer.calls, tracer.total_s
    metrics = {name: 0 for name in PER_LAYER_UNITS}
    for seam in ("scenario.load", "engine.schedule", "engine.record", "node.plan_cycle",
                 "node.apply_command", "oracle.truth", "oracle.predict",
                 "heuristics.update", "heuristics.decide", "energy.debit"):
        metrics[f"{seam}.calls"] = calls[seam]
    for seam in ("scenario.load", "engine.init", "engine.run", "engine.schedule",
                 "engine.record", "node.plan_cycle", "oracle.truth", "oracle.predict",
                 "heuristics.update", "heuristics.decide", "energy.debit",
                 "summary.write_trace_csv", "summary.write_trace_jsonl",
                 "summary.write_energy_csv", "summary.write_latency_csv",
                 "summary.summarize", "summary.latency_series",
                 "summary.read_trace_csv", "cli.run_scenario"):
        metrics[f"{seam}_s"] = total_s[seam]
    metrics["engine.self_s"] = tracer.self_s["engine.run"]
    metrics["cli.self_s"] = tracer.self_s["cli.run_scenario"]
    metrics["engine.heap_peak"] = tracer.heap_peak
    for kind in EVENT_KINDS:
        metrics[f"engine.events.{kind}"] = tracer.events.get(kind, 0)
    decisions = calls["heuristics.decide"]
    metrics["heuristics.mode_change_ratio"] = tracer.mode_changes / decisions if decisions else 0.0
    metrics["trace.seams_absent"] = len(tracer.absent)
    metrics.update(rep.model)
    metrics.update({k: v for k, v in rep.extra.items() if k in PER_LAYER_UNITS})
    return metrics


def run(req: dict, before_check=None) -> dict:
    """Run one repetition; ``before_check(work_dir)`` lets the self-test alter outputs."""
    workload = req["workload"]
    work = Path(req["work"])
    work.mkdir(parents=True, exist_ok=True)
    if workload == "fleet":
        (work / "scenario.json").write_text(
            json.dumps(workloads.fleet_scenario(req["seed"], **req["sizes"])), encoding="utf-8")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import tiersim  # noqa: F401  (timed: part of set-up)
    rep = Rep(time.perf_counter() - start)
    tracer = Tracer().install() if req["traced"] else None
    try:
        check = RUNNERS[workload](req, rep, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if before_check is not None:
        before_check(work)
    try:
        if check is not None:
            check()
    except Exception:
        rep.fail(0, f"{workload}: output check raised\n" + traceback.format_exc())
    result = {
        "setup_s": rep.setup_s, "wall_s": rep.wall_s,
        "cpu_s": rep.cpu_s, "records": rep.records, "peak_rss_mb": rep.peak_rss_mb,
        "attempted": rep.attempted, "failed": len(rep.failed_ops),
        "failures": rep.failures, "fingerprints": rep.fingerprints,
        "traced": bool(tracer),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, rep)
        result["absent_seams"] = tracer.absent
        result["unknown_events"] = sorted(set(tracer.events) - set(EVENT_KINDS))
        (work / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    outcome = prepare_replay(request) if request.get("prepare") else run(request)
    print(json.dumps(outcome))
