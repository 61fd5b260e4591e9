"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the metric names the benchmark prints are exactly the
ones ``BENCHMARK.json`` declares, that an altered artifact or a worker
that times out is counted as a failed operation, that a missing seam is
reported instead of failing the traced run, and that a checkout without
the sources is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _tiny_fleet_rep(name: str, before_check=None) -> dict:
    request = {"workload": "fleet", "seed": 3, "sizes": workloads.SIZES["tiny"]["fleet"],
               "work": str(SCRATCH / name), "traced": False}
    try:
        return worker.run(request, before_check)
    finally:
        shutil.rmtree(SCRATCH / name, ignore_errors=True)


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        kinds = {False: declared["end_to_end"], True: declared["per_layer"]}
        for workload in declared["workloads"]:
            name = workload["name"]
            for traced, entries in kinds.items():
                with self.subTest(workload=name, traced=traced):
                    printed_lines = io.StringIO()
                    with contextlib.redirect_stdout(printed_lines):
                        aggregated = run.run_workload(name, 3, 0.0, traced,
                                                      workloads.SIZES["tiny"][name])
                        result = run.report(aggregated, traced)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], printed_lines.getvalue())
                    self.assertEqual(result["failed"], 0)
                    printed = {metric: m["unit"] for metric, m in result["metrics"].items()}
                    self.assertEqual(printed, {e["name"]: e["unit"] for e in entries})


class OutputChecks(unittest.TestCase):
    def test_altered_trace_fails_the_self_consistency_check(self):
        def alter(work: Path) -> None:
            path = work / "out" / "trace.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            row = next(i for i, line in enumerate(lines) if ",response-blank," in line)
            cells = lines[row].split(",")
            cells[9] = repr(float(cells[9]) + 1.0)  # latency_ms
            lines[row] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        rep = _tiny_fleet_rep("altered-csv", alter)
        self.assertEqual(rep["failed"], 1)
        self.assertTrue(any("summary.json" in f for f in rep["failures"]), rep["failures"])
        result = run.aggregate("fleet", [rep], [], None)
        self.assertEqual(result["failed"] / result["attempted"], 1.0)

    def test_altered_artifact_fails_the_fingerprint_check(self):
        clean = _tiny_fleet_rep("clean")
        self.assertEqual(clean["failed"], 0, clean["failures"])

        def alter(work: Path) -> None:
            path = work / "out" / "trace.jsonl"
            text = path.read_text(encoding="utf-8")
            # Same row count, different bytes.
            path.write_text(text.replace('"WORKING"', '"working"', 1), encoding="utf-8")

        altered = _tiny_fleet_rep("altered-jsonl", alter)
        self.assertEqual(altered["failed"], 0)  # self-consistent, so only the hash can tell
        result = run.aggregate("fleet", [altered], [], clean["fingerprints"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("trace.jsonl" in f for f in result["failures"]), result["failures"])
        self.assertFalse(any("trace.csv" in f for f in result["failures"]))

    def test_disagreeing_repetitions_fail(self):
        clean = _tiny_fleet_rep("first")
        changed = dict(clean, fingerprints=dict(clean["fingerprints"], **{"energy.csv": "0"}))
        result = run.aggregate("fleet", [clean, changed], [], None)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))


class Workers(unittest.TestCase):
    def test_a_worker_that_times_out_counts_as_failed(self):
        original = run.WORKER_TIMEOUT_S
        run.WORKER_TIMEOUT_S = 0.01
        try:
            rep = run._call_worker({"workload": "fleet", "seed": 3,
                                    "sizes": workloads.SIZES["tiny"]["fleet"],
                                    "work": str(SCRATCH / "timeout"), "traced": False})
        finally:
            run.WORKER_TIMEOUT_S = original
        self.assertIn("timed out", rep["crashed"])
        result = run.aggregate("fleet", [rep], [], None)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))


class Tracing(unittest.TestCase):
    def test_missing_seam_is_reported_not_fatal(self):
        sys.path.insert(0, str(ROOT / "src"))
        import tiersim  # noqa: F401

        missing = ("engine.run", "tiersim.engine", "Simulator.no_such_method", False)
        original = tracer.SEAMS
        tracer.SEAMS = original + (missing,)
        try:
            t = tracer.Tracer().install()
            t.uninstall()
        finally:
            tracer.SEAMS = original
        self.assertEqual(t.absent, ["tiersim.engine.Simulator.no_such_method"])

    def test_uninstall_restores_every_seam(self):
        sys.path.insert(0, str(ROOT / "src"))
        import tiersim.cli
        import tiersim.engine

        before = (tiersim.cli.write_trace_jsonl, tiersim.engine.Simulator.schedule,
                  tiersim.engine.debit)
        t = tracer.Tracer().install()
        self.assertIsNot(tiersim.cli.write_trace_jsonl, before[0])
        t.uninstall()
        after = (tiersim.cli.write_trace_jsonl, tiersim.engine.Simulator.schedule,
                 tiersim.engine.debit)
        self.assertEqual(before, after)


class Checkout(unittest.TestCase):
    def test_refuses_a_directory_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "fleet", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
