"""The benchmark tracer's seams, and the other names the benchmark uses, must exist.

``perfbench/tracer.py`` wraps each seam only if it resolves, and reports a
missing one as ``trace.seams_absent`` rather than failing. These tests turn
a renamed or folded seam into a failing test instead, and so too a name
the benchmark reads or patches outside the seams.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tiersim import Simulator, scenario_from_dict, summarize

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _seams():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SEAMS


@pytest.mark.parametrize("module, path", [(m, p) for _, m, p, _ in _seams()])
def test_seam_resolves(module, path):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


@pytest.mark.parametrize("module, name, source", [
    # the tracer patches a seam function in every module that imported it by
    # name, and ``perfbench/selftest.py`` checks these copies are patched
    *(("tiersim.cli", f"write_{artifact}", "tiersim.summary")
      for artifact in ("trace_csv", "trace_jsonl", "energy_csv", "latency_csv")),
    ("tiersim.engine", "debit", "tiersim.energy"),
])
def test_imported_seam_is_the_seam_itself(module, name, source):
    imported = getattr(importlib.import_module(module), name)
    assert imported is getattr(importlib.import_module(source), name)


def test_run_leaves_the_ledger_the_sweep_and_fleet_checks_read():
    # ``perfbench/worker.py`` compares ``ledger.total_mj`` with the summary's
    # energy and counts ``ledger.entries`` against energy.csv's rows
    scenario = scenario_from_dict({"duration_ms": 120_000.0, "nodes": [{}, {"initial_mode": "G"}]})
    sim = Simulator(scenario)
    records = sim.run()
    assert sim.ledger.total_mj > 0
    assert summarize(records, scenario).total_energy_mj == pytest.approx(sim.ledger.total_mj)
    assert len(sim.ledger.entries) == sum(r.kind in ("sleep", "sample", "infer-local",
                                                      "compress", "radio-tx", "poll", "poll-empty")
                                          for r in records)
