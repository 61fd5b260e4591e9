"""tiersim: deterministic simulator of a three-tier adaptive-inference network.

Battery-powered sensor nodes classify machine condition on-device, on a
gateway, or in the cloud; anomaly-history heuristics move each node
between tiers to trade latency and accuracy against battery life.
"""

from .model import (
    AnomalyTracker,
    BatteryState,
    ConditionLabel,
    ConfigurationError,
    HeuristicParams,
    InferenceMode,
    NodeState,
    SimEvent,
    SimulationError,
    new_tracker,
)
from .heuristics import (
    anomaly_count,
    cloud_heuristic,
    gateway_heuristic,
    sensor_heuristic,
    update_history,
)
from .energy import (
    EnergyLedger,
    EnergyTable,
    battery_life_bound,
    cycle_duration,
    cycle_energy,
    debit,
    debit_sleep,
    energy_savings_percent,
)
from .oracle import (
    ClassifierOracle,
    DEFAULT_PROFILES,
    GroundTruthProcess,
    TierAccuracyProfile,
    draw_ground_truth,
    predict_label,
)
from .node import (
    LifecycleEvent,
    PropertyCommand,
    PropertyMethod,
    PropertyResponse,
    SensorNode,
)
from .engine import LatencyModel, Message, Simulator, measure_latency
from .scenario import (
    NodeConfig,
    PRESETS,
    Scenario,
    load_preset,
    load_scenario,
    scenario_from_dict,
)
from .summary import RunSummary, extract_latency_series, read_trace_csv, summarize

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``run_scenario`` is imported from ``cli`` on first use, so that
    # ``import tiersim`` does not load the CLI and ``python -m tiersim.cli``
    # runs that module once, as ``__main__``.
    if name == "run_scenario":
        from .cli import run_scenario

        return run_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
