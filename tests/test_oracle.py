"""Tests for the stochastic classifier stand-in."""

import hashlib
import random

import pytest

from tiersim import (
    ClassifierOracle,
    ConditionLabel,
    ConfigurationError,
    DEFAULT_PROFILES,
    GroundTruthProcess,
    InferenceMode,
    TierAccuracyProfile,
    draw_ground_truth,
    predict_label,
)
from tiersim.oracle import _counter_uniforms, derive_seed

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD
ANOMALOUS = {ConditionLabel.UNSATISFACTORY, ConditionLabel.UNACCEPTABLE}


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "node-0", "truth") == derive_seed(1, "node-0", "truth")
    assert derive_seed(1, "node-0", "truth") != derive_seed(1, "node-1", "truth")
    assert derive_seed(1, "node-0", "truth") != derive_seed(2, "node-0", "truth")


@pytest.mark.parametrize("seed", [0, -987_654_321, 2**64 + 12_345])
def test_counter_uniforms_equal_the_sliced_digest_formula(seed):
    def sliced(seed: int, counter: int, n: int = 2) -> tuple[float, ...]:
        digest = hashlib.blake2b(f"{seed}|{counter}".encode("utf-8"), digest_size=8 * n).digest()
        return tuple(int.from_bytes(digest[8 * i : 8 * (i + 1)], "big") / 2**64
                     for i in range(n))

    counters = range(100_000)
    assert [_counter_uniforms(seed, c) for c in counters] == [sliced(seed, c) for c in counters]
    for n in (1, 3, 8):
        assert _counter_uniforms(seed, 7, n) == sliced(seed, 7, n)


def test_ground_truth_degenerate_probabilities():
    never = GroundTruthProcess(seed=3, anomaly_probability=0.0)
    always = GroundTruthProcess(seed=3, anomaly_probability=1.0)
    for t in range(500):
        assert draw_ground_truth(never, t) not in ANOMALOUS
        assert draw_ground_truth(always, t) in ANOMALOUS


def test_ground_truth_frequency_converges():
    process = GroundTruthProcess(seed=11, anomaly_probability=0.3)
    hits = sum(draw_ground_truth(process, t) in ANOMALOUS for t in range(100_000))
    assert hits / 100_000 == pytest.approx(0.300, abs=0.01)


def test_ground_truth_is_deterministic_in_seed_and_step():
    process = GroundTruthProcess(seed=42, anomaly_probability=0.5)
    again = GroundTruthProcess(seed=42, anomaly_probability=0.5)
    assert [draw_ground_truth(process, t) for t in range(200)] == [
        draw_ground_truth(again, t) for t in range(200)
    ]


def test_default_profiles_cover_all_tiers():
    assert DEFAULT_PROFILES[C].accuracy == 0.9938
    assert DEFAULT_PROFILES[C].recall_per_class == (0.9811, 0.9971, 0.9856, 0.9969)
    assert DEFAULT_PROFILES[G].recall_per_class == (0.8440, 0.9677, 0.9809, 0.9511)
    assert DEFAULT_PROFILES[S].recall_per_class == (0.8113, 0.9941, 0.9781, 0.9961)


def test_profile_validation():
    with pytest.raises(Exception):
        TierAccuracyProfile(S, 1.5, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(Exception):
        TierAccuracyProfile(S, 0.9, (1.0, 1.0, 1.0))
    with pytest.raises(ConfigurationError,
                       match=r"recall_per_class\[1\] must be in \[0, 1\], got 1.5"):
        TierAccuracyProfile(S, 0.9, (1.0, 1.5, 1.0, 1.0))


def _correct_fraction(profile, true_label, trials=100_000, seed=5):
    rng = random.Random(seed)
    hits = sum(
        predict_label(profile, true_label, rng) == true_label for _ in range(trials)
    )
    return hits / trials


def test_cloud_recall_on_good_class():
    fraction = _correct_fraction(DEFAULT_PROFILES[C], ConditionLabel.GOOD)
    assert fraction == pytest.approx(0.9811, abs=0.005)


def test_sensor_recall_on_good_class():
    fraction = _correct_fraction(DEFAULT_PROFILES[S], ConditionLabel.GOOD)
    assert fraction == pytest.approx(0.8113, abs=0.005)


def test_perfect_profile_never_errs():
    profile = TierAccuracyProfile.perfect(S)
    rng = random.Random(0)
    for label in ConditionLabel:
        assert all(predict_label(profile, label, rng) == label for _ in range(200))


def test_errors_spread_over_other_classes():
    blind = TierAccuracyProfile(S, 0.0, (0.0, 0.0, 0.0, 0.0))  # always misclassifies
    rng = random.Random(9)
    seen = {predict_label(blind, ConditionLabel.GOOD, rng) for _ in range(1000)}
    assert seen == {ConditionLabel.ACCEPTABLE, ConditionLabel.UNSATISFACTORY,
                    ConditionLabel.UNACCEPTABLE}


def test_predict_consumes_fixed_draw_count():
    # stream position must depend only on the number of calls, not outcomes
    profile = DEFAULT_PROFILES[S]
    rng_a, rng_b = random.Random(7), random.Random(7)
    for _ in range(50):
        predict_label(profile, ConditionLabel.GOOD, rng_a)
        rng_b.random(), rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_oracle_reproducible_per_seed_node_tier():
    runs = []
    for _ in range(2):
        oracle = ClassifierOracle.create(99, "node-0", DEFAULT_PROFILES[G])
        truth = GroundTruthProcess(seed=derive_seed(99, "node-0", "truth"))
        runs.append([
            oracle.predict(draw_ground_truth(truth, t)) for t in range(300)
        ])
    assert runs[0] == runs[1]


def test_oracle_streams_differ_across_nodes_and_tiers():
    base = ClassifierOracle.create(99, "node-0", DEFAULT_PROFILES[S])
    other_node = ClassifierOracle.create(99, "node-1", DEFAULT_PROFILES[S])
    other_tier = ClassifierOracle.create(99, "node-0", DEFAULT_PROFILES[G])
    labels = [ConditionLabel.GOOD] * 200
    out = lambda o: [o.predict(lbl) for lbl in labels]
    a, b, c = out(base), out(other_node), out(other_tier)
    assert a != b and a != c
