"""Command-line entry point: load a scenario, simulate, emit artifacts.

Artifacts land in the output directory as plottable CSVs plus a JSON
summary. The run streams them: the simulator hands its trace over in
fixed-size batches to a ``summary.ArtifactSink``, which writes each
batch's rows straight to the open artifact files and folds them into
the summary, so the trace never sits whole in memory. The files are
written into a temporary directory beside the output directory and
moved into place only when the run completes, so a failed invocation
(exit 2 or 3) leaves no partial files and no new directory; other files
already in the output directory are left alone.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

from .engine import Simulator
from .model import ConfigurationError, SimulationError
from .scenario import PRESETS, Scenario, load_preset, load_scenario, with_overrides
# The writers stay importable from here, as before the sink wrote through
# them; perfbench/selftest.py checks the tracer's patching on this module.
from .summary import (  # noqa: F401
    ARTIFACTS,
    ArtifactSink,
    RunSummary,
    write_energy_csv,
    write_latency_csv,
    write_trace_csv,
    write_trace_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def run_scenario(scenario: Scenario, out_dir: str | Path) -> RunSummary:
    """Simulate one scenario, write its artifact set to ``out_dir``, return the summary.

    Artifacts: trace.csv, trace.jsonl, energy.csv, latency.csv,
    summary.json. They appear in ``out_dir`` only if the run completes.
    An ``out_dir`` that is a file, or lies below one, raises
    ConfigurationError before anything runs.
    """
    out = Path(out_dir)
    anchor = out.absolute()
    while not anchor.is_dir():  # the nearest existing ancestor; out and its parents may not exist yet
        if anchor.exists():  # checked before the run, which could only fail at its end
            raise ConfigurationError(f"{out}: {anchor} is not a directory")
        anchor = anchor.parent
    if anchor == out.absolute():  # the staging directory goes beside out, not inside it
        anchor = anchor.parent
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}-", dir=anchor))
    try:
        summary = _stream_run(scenario, staging)
        out.mkdir(parents=True, exist_ok=True)
        for name in ARTIFACTS:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return summary


def _stream_run(scenario: Scenario, staging: Path) -> RunSummary:
    """Run the scenario, writing each trace batch to the artifacts in ``staging``."""
    sim = Simulator(scenario)
    with ArtifactSink(scenario, sim.ledger, staging) as sink:
        sim.run(sink)
        return sink.close()


def _print_summary(summary: RunSummary) -> None:
    print(f"scenario {summary.name}: {summary.duration_ms:.0f} ms, "
          f"{summary.node_count} node(s)")
    print(f"  predictions={summary.predictions} requests={summary.requests} "
          f"responses={summary.responses} transitions={summary.transitions} "
          f"timeouts={summary.timeouts} violations={summary.violations}")
    for mode in ("S", "G", "C"):
        print(f"  mode {mode}: mean latency {summary.mean_latency_ms[mode]:.2f} ms "
              f"({summary.latency_count[mode]} samples), "
              f"occupancy {summary.occupancy[mode]:.3f}")
    print(f"  energy: total {summary.total_energy_mj:.2f} mJ; cycle "
          f"{summary.onboard_cycle_mj:.2f} mJ onboard vs "
          f"{summary.offboard_cycle_mj:.2f} mJ offboard "
          f"({summary.energy_savings_pct:.1f}% saving)")
    print(f"  projected life: {summary.projected_life_onboard_h:.1f} h onboard, "
          f"{summary.projected_life_offboard_h:.1f} h offboard")
    for node_id, t in summary.battery_dead_ms.items():
        print(f"  battery dead: {node_id} at {t:.0f} ms ({t / 3_600_000.0:.1f} h)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiersim",
        description="Simulate a sensor/gateway/cloud adaptive-inference network.",
    )
    parser.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="run a built-in scenario instead of a file")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--until", type=float, metavar="MS",
                        help="override the simulated duration in milliseconds")
    parser.add_argument("--out", metavar="DIR",
                        help="artifact output directory (default: the scenario's "
                             "out_dir, else ./out)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.scenario is None) == (args.preset is None):
        parser.print_usage(sys.stderr)
        print("tiersim: provide exactly one of a scenario file or --preset",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        scenario = load_preset(args.preset) if args.preset else load_scenario(args.scenario)
        scenario = with_overrides(scenario, seed=args.seed, duration_ms=args.until)
    except ConfigurationError as err:
        print(f"tiersim: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or scenario.out_dir or "out"
    try:
        summary = run_scenario(scenario, out_dir)
    except ConfigurationError as err:
        print(f"tiersim: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as err:
        print(f"tiersim: runtime abort: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        _print_summary(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
