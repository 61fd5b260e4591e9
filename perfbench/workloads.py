"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed and a size, so
the same seed always yields the same scenario documents. The simulator
only ever sees the generated documents; the workload seed never reaches
it directly (each document carries its own derived ``seed`` field).

This module imports nothing from ``tiersim``: the worker process times
``import tiersim`` itself, which must not have happened earlier.
"""

from __future__ import annotations

import random

MS_PER_HOUR = 3_600_000.0

#: Workload sizes. ``full`` is what the benchmark measures; ``tiny`` is
#: for the self-test and keeps every code path at a fraction of the cost.
SIZES = {
    "full": {
        "fleet": {"nodes": 100, "hours": 0.5},
        "sweep": {"scenarios": 500, "minutes": 2.0},
        "replay": {"nodes": 100, "hours": 4.0},
    },
    "tiny": {
        "fleet": {"nodes": 12, "hours": 0.25},
        "sweep": {"scenarios": 20, "minutes": 2.0},
        "replay": {"nodes": 12, "hours": 0.5},
    },
}

_MODES = ("S", "G", "C")
_DEFAULT_LATENCY_MS = {"sensor": 3.33, "gateway": 148.15, "cloud": 641.71}


def fleet_scenario(seed: int, nodes: int, hours: float, name: str = "bench-fleet") -> dict:
    """A mixed fleet with queueing, jitter, drops and scripted operator commands.

    Initial modes are spread evenly over S/G/C and shuffled; sleep periods
    are staggered over 20-40 s so that cycles do not align. The script
    sets one node's sleep period, one node's inference mode, and takes a
    third node to IDLE and later back to UNLOCKED (which re-provisions it).
    """
    rng = random.Random(f"fleet|{seed}|{nodes}|{hours}")
    duration_ms = hours * MS_PER_HOUR
    modes = [_MODES[i % 3] for i in range(nodes)]
    rng.shuffle(modes)
    node_docs = [
        {
            "node_id": f"n{i:03d}",
            "initial_mode": modes[i],
            "sleep_period_ms": float(rng.randrange(20_000, 40_001, 250)),
        }
        for i in range(nodes)
    ]
    jitter = rng.uniform(0.05, 0.2)
    picked = rng.sample(range(nodes), 3)
    idle_at = round(rng.uniform(0.3, 0.5) * duration_ms)
    commands = [
        {"at_ms": float(round(rng.uniform(0.1, 0.3) * duration_ms)),
         "node_id": f"n{picked[0]:03d}", "name": "sleep_period",
         "value": float(rng.randrange(20_000, 40_001, 250))},
        {"at_ms": float(round(rng.uniform(0.2, 0.6) * duration_ms)),
         "node_id": f"n{picked[1]:03d}", "name": "inference_mode",
         "value": rng.choice(_MODES)},
        {"at_ms": float(idle_at), "node_id": f"n{picked[2]:03d}",
         "name": "state", "value": "IDLE"},
        {"at_ms": float(idle_at + rng.randrange(60_000, 180_001, 1000)),
         "node_id": f"n{picked[2]:03d}", "name": "state", "value": "UNLOCKED"},
    ]
    return {
        "name": name,
        "duration_ms": duration_ms,
        "seed": rng.randrange(2**31),
        "nodes": node_docs,
        "gateway_service_ms": round(rng.uniform(5.0, 25.0), 3),
        "latency": {
            f"jitter_{tier}_ms": round(jitter * ms, 4)
            for tier, ms in _DEFAULT_LATENCY_MS.items()
        },
        "drop_probability": round(rng.uniform(0.01, 0.03), 4),
        "commands": commands,
    }


def sweep_scenarios(seed: int, scenarios: int, minutes: float) -> list[dict]:
    """Many short, small scenarios whose parameters vary with the index.

    Node count cycles through 1-8 and initial modes rotate with the
    index; sleep period, heuristic thresholds, queue limit and gateway
    service time are drawn per scenario within their legal ranges.
    """
    rng = random.Random(f"sweep|{seed}|{scenarios}|{minutes}")
    docs = []
    for i in range(scenarios):
        n_nodes = 1 + i % 8
        sleep_ms = float(rng.choice((0, 5_000, 10_000, 20_000, 30_000)))
        deescalate = rng.randint(1, 4)
        sensor_depth = rng.choice((4, 8, 16, 32))
        docs.append({
            "name": f"sweep-{i:04d}",
            "duration_ms": minutes * 60_000.0,
            "seed": rng.randrange(2**31),
            "nodes": [
                {"node_id": f"s{j}", "initial_mode": _MODES[(i + j) % 3],
                 "sleep_period_ms": sleep_ms}
                for j in range(n_nodes)
            ],
            "heuristics": {
                "sensor_escalate_count": rng.randint(1, min(8, sensor_depth)),
                "gateway_deescalate_count": deescalate,
                "gateway_escalate_count": rng.randint(deescalate + 1, 10),
                "cloud_deescalate_count": rng.randint(1, 4),
                "queue_limit": 1 + i % 4,
                "history_depth_sensor": sensor_depth,
                "history_depth_gateway": rng.choice((10, 16)),
                "history_depth_cloud": rng.choice((4, 8)),
            },
            "gateway_service_ms": float(rng.choice((0, 10, 50, 200))),
        })
    return docs


def replay_scenario(seed: int, nodes: int, hours: float) -> dict:
    """The fleet shape, run longer, as the source of the trace to re-analyse."""
    return fleet_scenario(seed, nodes, hours, name="bench-replay")
