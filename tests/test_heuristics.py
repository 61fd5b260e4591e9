"""Tests for the anomaly-history update and the three tier heuristics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiersim import (
    AnomalyTracker,
    HeuristicParams,
    InferenceMode,
    anomaly_count,
    cloud_heuristic,
    gateway_heuristic,
    new_tracker,
    sensor_heuristic,
    update_history,
)

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD


class ListHistory:
    """Reference implementation: an explicit list of the last n bits."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.bits: list[int] = []

    def update(self, bit: int, mode_unchanged: bool) -> None:
        if not mode_unchanged:
            self.bits = []
            return
        self.bits.append(bit)
        if len(self.bits) > self.depth:
            self.bits.pop(0)

    @property
    def sigma(self) -> int:
        return sum(self.bits)

    @property
    def tau(self) -> int:
        return len(self.bits)


def tracker_with(bits: list[int], depth: int) -> AnomalyTracker:
    """Build a tracker whose window holds the given bits (newest last)."""
    value = 0
    for i, bit in enumerate(reversed(bits)):
        value |= bit << i
    return AnomalyTracker(bits=value, length=len(bits), depth=depth)


# -- update_history ---------------------------------------------------------

def test_update_shifts_and_inserts():
    tracker = AnomalyTracker(bits=0b0101, length=4, depth=8)
    updated = update_history(tracker, 1, True)
    assert (updated.bits, updated.length, updated.depth) == (0b1011, 5, 8)


def test_update_drops_oldest_bit_at_full_depth():
    tracker = AnomalyTracker(bits=0b1111, length=4, depth=4)
    updated = update_history(tracker, 0, True)
    assert (updated.bits, updated.length) == (0b1110, 4)


def test_update_resets_on_mode_change():
    tracker = AnomalyTracker(bits=0b1011, length=7, depth=8)
    updated = update_history(tracker, 1, False)
    assert (updated.bits, updated.length, updated.depth) == (0, 0, 8)


def test_update_rejects_non_bit():
    with pytest.raises(ValueError):
        update_history(new_tracker(8), 2, True)


# -- anomaly_count --------------------------------------------------------

def test_count_popcounts_window():
    assert anomaly_count(AnomalyTracker(bits=0b1011, length=5, depth=8)) == 3


def test_count_empty_history():
    assert anomaly_count(new_tracker(32)) == 0


def test_count_saturated_history():
    full = AnomalyTracker(bits=(1 << 16) - 1, length=16, depth=16)
    assert anomaly_count(full) == 16


# -- sensor heuristic -------------------------------------------------------

PARAMS = HeuristicParams()  # published defaults: 20 / 4 / 4,8 / 2, depths 32/16/8


def sensor_tracker(sigma: int, tau: int) -> AnomalyTracker:
    return tracker_with([1] * sigma + [0] * (tau - sigma), depth=32)


def test_sensor_escalates_on_anomaly_count():
    tracker = sensor_tracker(sigma=5, tau=32)
    assert sensor_heuristic(tracker, 50.0, PARAMS) is G


def test_sensor_low_battery_cannot_escalate():
    tracker = sensor_tracker(sigma=31, tau=32)
    assert sensor_heuristic(tracker, 10.0, PARAMS) is S


def test_sensor_waits_for_history_fill():
    tracker = sensor_tracker(sigma=4, tau=12)
    assert sensor_heuristic(tracker, 90.0, PARAMS) is S


# -- gateway heuristic -------------------------------------------------------

def gateway_tracker(sigma: int, tau: int) -> AnomalyTracker:
    return tracker_with([1] * sigma + [0] * (tau - sigma), depth=16)


def test_gateway_deescalates_when_quiet():
    assert gateway_heuristic(gateway_tracker(2, 16), 80.0, 0, PARAMS) is S


def test_gateway_holds_midband_with_queue_room():
    assert gateway_heuristic(gateway_tracker(5, 16), 80.0, 2, PARAMS) is G


def test_gateway_escalates_midband_when_queue_full():
    assert gateway_heuristic(gateway_tracker(5, 16), 80.0, 9, PARAMS) is C


def test_gateway_escalates_on_high_count():
    assert gateway_heuristic(gateway_tracker(9, 16), 80.0, 0, PARAMS) is C


def test_gateway_low_battery_deescalates_to_sensor():
    assert gateway_heuristic(gateway_tracker(16, 16), 5.0, 0, PARAMS) is S


def test_gateway_warmup_stays():
    assert gateway_heuristic(gateway_tracker(8, 10), 80.0, 0, PARAMS) is G


# -- cloud heuristic -------------------------------------------------------

def cloud_tracker(sigma: int, tau: int) -> AnomalyTracker:
    return tracker_with([1] * sigma + [0] * (tau - sigma), depth=8)


def test_cloud_deescalates_when_quiet():
    assert cloud_heuristic(cloud_tracker(1, 8), 70.0, PARAMS) is G


def test_cloud_stays_on_anomalies():
    assert cloud_heuristic(cloud_tracker(6, 8), 70.0, PARAMS) is C


def test_cloud_low_battery_deescalates_to_sensor():
    assert cloud_heuristic(cloud_tracker(8, 8), 5.0, PARAMS) is S


def test_cloud_warmup_stays():
    assert cloud_heuristic(cloud_tracker(2, 5), 70.0, PARAMS) is C


# -- properties -----------------------------------------------------------

update_sequences = st.lists(
    st.tuples(st.integers(0, 1), st.booleans()), min_size=0, max_size=200
)


@settings(deadline=None)
@given(depth=st.integers(1, 64), seq=update_sequences)
def test_tracker_matches_list_reference(depth, seq):
    tracker = new_tracker(depth)
    reference = ListHistory(depth)
    for bit, unchanged in seq:
        tracker = update_history(tracker, bit, unchanged)
        reference.update(bit, unchanged)
        assert anomaly_count(tracker) == reference.sigma
        assert tracker.length == reference.tau


@settings(deadline=None)
@given(depth=st.integers(1, 64), seq=update_sequences)
def test_tracker_invariants_hold_after_every_step(depth, seq):
    tracker = new_tracker(depth)
    for bit, unchanged in seq:
        tracker = update_history(tracker, bit, unchanged)
        assert 0 <= tracker.length <= tracker.depth
        assert tracker.bits >> tracker.length == 0
        assert anomaly_count(tracker) <= tracker.length


@given(
    bits=st.integers(0, 1), depth=st.integers(1, 64),
    prefill=st.lists(st.integers(0, 1), max_size=64),
)
def test_reset_arm_always_clears(bits, depth, prefill):
    tracker = new_tracker(depth)
    for bit in prefill:
        tracker = update_history(tracker, bit, True)
    reset = update_history(tracker, bits, False)
    assert (reset.bits, reset.length) == (0, 0)


@given(
    sigma=st.integers(0, 32), warm=st.booleans(), queue=st.integers(0, 20),
    battery=st.floats(0.0, 19.999),
)
def test_low_battery_dominates_all_tiers(sigma, warm, queue, battery):
    sensor = tracker_with([1] * min(sigma, 32), 32)
    gateway = tracker_with([1] * min(sigma, 16), 16)
    cloud = tracker_with([1] * min(sigma, 8), 8)
    assert sensor_heuristic(sensor, battery, PARAMS) is S
    assert gateway_heuristic(gateway, battery, queue, PARAMS) is S
    assert cloud_heuristic(cloud, battery, PARAMS) is S


@given(
    filled=st.integers(0, 63), bit=st.integers(0, 1),
    battery=st.floats(20.0, 100.0), queue=st.integers(0, 20),
)
def test_warmup_never_changes_mode(filled, bit, battery, queue):
    for depth, heuristic, stay in (
        (32, lambda t: sensor_heuristic(t, battery, PARAMS), S),
        (16, lambda t: gateway_heuristic(t, battery, queue, PARAMS), G),
        (8, lambda t: cloud_heuristic(t, battery, PARAMS), C),
    ):
        length = min(filled, depth - 1)
        tracker = tracker_with([bit] * length, depth)
        assert heuristic(tracker) is stay


def test_all_anomaly_saturation():
    assert sensor_heuristic(tracker_with([1] * 32, 32), 90.0, PARAMS) is G
    assert gateway_heuristic(tracker_with([1] * 16, 16), 90.0, 0, PARAMS) is C
    assert cloud_heuristic(tracker_with([1] * 8, 8), 90.0, PARAMS) is C


def test_all_clear():
    assert sensor_heuristic(tracker_with([0] * 32, 32), 90.0, PARAMS) is S
    assert gateway_heuristic(tracker_with([0] * 16, 16), 90.0, 0, PARAMS) is S
    assert cloud_heuristic(tracker_with([0] * 8, 8), 90.0, PARAMS) is G


@given(
    sigma=st.integers(0, 16), tau=st.integers(0, 16),
    battery=st.floats(0, 100), queue=st.integers(0, 10),
)
def test_heuristics_are_pure(sigma, tau, battery, queue):
    tau = max(tau, sigma)
    tracker = gateway_tracker(sigma, tau)
    first = gateway_heuristic(tracker, battery, queue, PARAMS)
    assert all(
        gateway_heuristic(tracker, battery, queue, PARAMS) is first for _ in range(3)
    )


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(st.integers(0, 1), min_size=1, max_size=100))
def test_sigma_step_bound(seq):
    """One update moves the count by at most one (plus the falling-off bit)."""
    tracker = new_tracker(8)
    for bit in seq:
        before, was_full = anomaly_count(tracker), tracker.warmed_up
        tracker = update_history(tracker, bit, True)
        delta = anomaly_count(tracker) - before
        if was_full:
            assert delta in (-1, 0, 1)
        else:
            assert delta in (0, 1) and delta == bit
