"""tiersim benchmark: fleet, sweep and replay workloads.

Usage::

    python3 perfbench/run.py --workload {fleet,sweep,replay,all} [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-fingerprints

Run it from the repository root; it imports ``src/tiersim`` from there.
Each workload is a closed loop with one client: repetitions run one
after another, each in a fresh worker process, until ``--seconds`` have
passed (at least three untraced repetitions). End-to-end host times are
means over the untraced repetitions; peak RSS is their median. With
``--trace 1`` traced repetitions alternate with untraced ones and the
per-layer metrics are reported instead; ``trace.overhead_frac`` compares
the two kinds.

Every repetition's outputs are checked (self-consistency on any seed,
plus the stored behaviour fingerprints on the default seed), and
repetitions of one run must agree with each other exactly. The last line
printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--record-fingerprints`` re-records ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("fleet", "sweep", "replay")
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "records_per_s": "records/s", "peak_rss_mb": "MB",
}
MIN_REPS = 3
WORKER_TIMEOUT_S = 150.0
#: No repetition starts once this much of the run has passed, so that a
#: run ends well inside three minutes even on a slow machine.
HARD_STOP_S = 120.0


def _call_worker(request: dict) -> dict:
    """Run one worker process and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exited with {proc.returncode}"}
    return json.loads(lines[-1])


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: dict,
                 expected: dict | None = None) -> dict:
    """Run one workload of the given ``sizes`` for ``seconds``; return its aggregated result.

    ``expected`` holds the stored fingerprints when they apply (default
    seed, full size); otherwise only the self-consistency checks and the
    agreement between repetitions are enforced.
    """
    run_dir = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    base = {"workload": workload, "seed": seed, "sizes": sizes}
    failures: list[str] = []
    try:
        if workload == "replay":
            # Untimed, and in its own process, so that the memory of the
            # run that wrote the trace does not mask the replay's own.
            prepared = _call_worker({**base, "prepare": True, "work": str(run_dir / "source")})
            failures += prepared.get("failures", []) + ([prepared["crashed"]] if "crashed" in prepared else [])
            base["source"] = str(run_dir / "source")
        reps: list[dict] = []
        start = time.monotonic()
        while True:
            untraced = [r for r in reps if not r.get("traced")]
            traced = [r for r in reps if r.get("traced")]
            elapsed = time.monotonic() - start
            enough = len(untraced) >= MIN_REPS and (not trace or len(traced) >= 2)
            if (enough and elapsed >= seconds) or (reps and elapsed >= HARD_STOP_S):
                break
            use_trace = trace and len(traced) < len(untraced)
            rep_dir = run_dir / f"rep{len(reps)}"
            result = _call_worker({**base, "work": str(rep_dir), "traced": use_trace})
            result.setdefault("traced", use_trace)
            reps.append(result)
            if use_trace and (rep_dir / "spans.json").is_file():
                shutil.copy(rep_dir / "spans.json", WORK_ROOT / f"spans-{workload}.json")
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return aggregate(workload, reps, failures, expected)


def compare_fingerprints(got: dict, expected: dict) -> list[str]:
    """Names of the fingerprints that differ from the expected ones."""
    return sorted(name for name in expected if got.get(name) != expected[name])


def aggregate(workload: str, reps: list[dict], failures: list[str],
              expected: dict | None) -> dict:
    """Turn the repetitions into metrics, counting every failed operation."""
    attempted = failed = 0
    reference = expected
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            attempted += 1
            failed += 1
            failures.append(f"{workload} rep {i}: {rep['crashed']}")
            continue
        attempted += rep["attempted"]
        rep_failed = rep["failed"]
        failures += rep["failures"]
        if reference is None and not rep["traced"] and rep["fingerprints"]:
            reference = rep["fingerprints"]  # later repetitions must agree
        differing = compare_fingerprints(rep["fingerprints"], reference or {})
        if differing:
            kind = "stored fingerprint" if expected else "first repetition"
            failures.append(f"{workload} rep {i}{' (traced)' if rep['traced'] else ''}: "
                            f"fingerprint mismatch against the {kind}: {', '.join(differing)}")
            rep_failed = rep["attempted"]
        failed += rep_failed
    if failures and not failed:
        attempted, failed = max(attempted, 1), 1  # a failed preparation step
    good = [r for r in reps if "crashed" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    # Host times are means over the repetitions: on a shared host whose
    # speed flips every few seconds, the median of the resulting bimodal
    # sample jumps between the modes from run to run.
    wall = sum(r["wall_s"] for r in untraced)
    metrics = {
        "setup_s": _mean([r["setup_s"] for r in untraced]),
        "wall_s": _mean([r["wall_s"] for r in untraced]),
        "cpu_s": _mean([r["cpu_s"] for r in untraced]),
        "records_per_s": sum(r["records"] for r in untraced) / wall if wall else 0.0,
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]) if untraced else 0.0,
    }
    layers = {}
    if traced:
        layers = {name: _mean([r["layers"][name] for r in traced]) for name in PER_LAYER_UNITS}
        untraced_wall = metrics["wall_s"]
        layers["trace.overhead_frac"] = (
            _mean([r["wall_s"] for r in traced]) / untraced_wall - 1.0 if untraced_wall else 0.0)
    return {
        "workload": workload, "attempted": max(attempted, 1), "failed": failed,
        "failures": failures, "reps": len(untraced), "traced_reps": len(traced),
        "metrics": metrics, "layers": layers,
        "fingerprints": reference or {},
        "absent_seams": traced[0]["absent_seams"] if traced else [],
        "unknown_events": traced[0]["unknown_events"] if traced else [],
    }


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the contract JSON object."""
    name = result["workload"]
    frac = result["failed"] / result["attempted"]
    print(f"{name}: {result['reps']} untraced + {result['traced_reps']} traced repetitions; "
          f"host times are means over repetitions, peak RSS the median")
    for metric, unit in END_TO_END_UNITS.items():
        print(f"  {name:6s} {metric:16s} {result['metrics'][metric]:14.6g} {unit}")
    print(f"  {name:6s} {'failed_frac':16s} {frac:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    for artifact, digest in sorted(result["fingerprints"].items()):
        print(f"  fingerprint {artifact}: {digest}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    if trace:
        for metric, unit in PER_LAYER_UNITS.items():
            print(f"  {name:6s} {metric:34s} {result['layers'].get(metric, 0):14.6g} {unit}")
        for seam in result["absent_seams"]:
            print(f"  absent seam (not traced): {seam}")
        for kind in result["unknown_events"]:
            print(f"  event kind not in the per-layer list: {kind}")
        metrics = {m: {"value": result["layers"].get(m, 0), "unit": u}
                   for m, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {m: {"value": result["metrics"][m], "unit": u}
                   for m, u in END_TO_END_UNITS.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def stored_fingerprints(workload: str, seed: int) -> dict | None:
    """The recorded fingerprints of ``workload``; they hold for the default seed only."""
    if seed != DEFAULT_SEED or not FINGERPRINTS.is_file():
        return None
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload)


def record_fingerprints() -> int:
    stored = {}
    for workload in WORKLOADS:
        result = run_workload(workload, DEFAULT_SEED, 0.0, False, workloads.SIZES["full"][workload])
        if result["failed"]:
            report(result, False)
            return 1
        stored[workload] = result["fingerprints"]
    FINGERPRINTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {FINGERPRINTS.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tiersim" / "__init__.py").is_file():
        print(f"perfbench: no tiersim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    if args.record_fingerprints:
        return record_fingerprints()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              workloads.SIZES["full"][name], stored_fingerprints(name, args.seed))
        outputs[name] = report(result, bool(args.trace))
    print(json.dumps(outputs[names[0]] if len(names) == 1 else outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
