"""Anomaly-history update and the three adaptive-inference heuristics.

Pure functions over value types: no clock, no I/O, no randomness. The
history update and the mode decisions are split so a caller can log the
intermediate tracker state between the two steps. Each tier's tracker
depth comes from ``HeuristicParams``, which validates it once.
"""

from __future__ import annotations

from .model import AnomalyTracker, HeuristicParams, InferenceMode, new_tracker

_new, _set = object.__new__, object.__setattr__  # how a frozen dataclass sets fields


def update_history(tracker: AnomalyTracker, anomaly_bit: int, mode_unchanged: bool) -> AnomalyTracker:
    """Shift the newest anomaly bit into the history window.

    While the node stays in the same inference mode the window shifts
    left, the new bit lands in position 0, and anything older than
    ``depth`` falls off. A mode change discards the history entirely so
    the new tier starts from a clean window.
    """
    if anomaly_bit not in (0, 1):
        raise ValueError(f"anomaly bit must be 0 or 1, got {anomaly_bit}")
    depth = tracker.depth
    if not mode_unchanged:
        return new_tracker(depth)
    # A shift keeps the invariants (bits within length within depth), so the
    # tracker of every prediction is built without rerunning its checks.
    shifted = _new(AnomalyTracker)
    _set(shifted, "bits", ((tracker.bits << 1) | anomaly_bit) & ((1 << depth) - 1))
    _set(shifted, "length", min(depth, tracker.length + 1))
    _set(shifted, "depth", depth)
    return shifted


def anomaly_count(tracker: AnomalyTracker) -> int:
    """Number of anomalies in the window (popcount of the valid bits)."""
    return tracker.bits.bit_count()


def sensor_heuristic(
    tracker: AnomalyTracker, battery_pct: float, params: HeuristicParams
) -> InferenceMode:
    """Decide whether an on-device node stays put or escalates to the gateway.

    Order of precedence: a low battery pins the node to on-device
    inference (escalating would cost radio energy it cannot afford), an
    unfilled history window defers any decision, and only then does the
    anomaly count get compared against the escalation threshold.
    """
    if battery_pct < params.low_battery_pct:
        return InferenceMode.SENSOR
    if not tracker.warmed_up:
        return InferenceMode.SENSOR
    if anomaly_count(tracker) >= params.sensor_escalate_count:
        return InferenceMode.GATEWAY
    return InferenceMode.SENSOR


def gateway_heuristic(
    tracker: AnomalyTracker,
    battery_pct: float,
    queue_len: int,
    params: HeuristicParams,
) -> InferenceMode:
    """Decide whether a gateway-served node de-escalates, stays, or escalates.

    A low battery forces the node all the way back to on-device
    inference. Otherwise: few anomalies send it back to the sensor, a
    moderate count keeps it on the gateway while the inference queue has
    room, and anything else (many anomalies, or a congested queue)
    escalates to the cloud.
    """
    if battery_pct < params.low_battery_pct:
        return InferenceMode.SENSOR
    if not tracker.warmed_up:
        return InferenceMode.GATEWAY
    count = anomaly_count(tracker)
    if count < params.gateway_deescalate_count:
        return InferenceMode.SENSOR
    if count < params.gateway_escalate_count and queue_len < params.queue_limit:
        return InferenceMode.GATEWAY
    return InferenceMode.CLOUD


def cloud_heuristic(
    tracker: AnomalyTracker, battery_pct: float, params: HeuristicParams
) -> InferenceMode:
    """Decide whether a cloud-served node de-escalates or stays.

    There is no escalation branch: the cloud is the top tier, so the else
    arm keeps the node where it is.
    """
    if battery_pct < params.low_battery_pct:
        return InferenceMode.SENSOR
    if not tracker.warmed_up:
        return InferenceMode.CLOUD
    if anomaly_count(tracker) < params.cloud_deescalate_count:
        return InferenceMode.GATEWAY
    return InferenceMode.CLOUD
