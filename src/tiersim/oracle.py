"""Stochastic stand-in for the per-tier condition classifiers.

Generates ground-truth health labels and tier predictions whose
per-class recall matches the published model scores, without running any
actual model. All draws are derived from labeled sub-seeds, so streams
are reproducible and independent across nodes and tiers.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

from .model import ConditionLabel, ConfigurationError, InferenceMode

_LABELS = tuple(ConditionLabel)


def derive_seed(master_seed: int, *labels: str) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path.

    Hash-based derivation keeps streams independent: adding a node or a
    tier never perturbs the draws of existing ones.
    """
    text = f"{master_seed}|" + "|".join(labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _counter_uniforms(seed: int, counter: int, n: int = 2) -> tuple[float, ...]:
    """n uniforms in [0, 1) determined entirely by (seed, counter)."""
    digest = hashlib.blake2b(
        f"{seed}|{counter}".encode("utf-8"), digest_size=8 * n
    ).digest()
    return tuple([word / 2**64 for word in struct.unpack(f">{n}Q", digest)])


@dataclass(frozen=True)
class TierAccuracyProfile:
    """Published accuracy/recall scores for one tier's classifier.

    ``accuracy`` is recorded for reporting only; the recalls are the
    primitives that drive prediction draws.
    """

    tier: InferenceMode
    accuracy: float
    recall_per_class: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigurationError(f"accuracy must be in [0, 1], got {self.accuracy}",
                                     "accuracy")
        if len(self.recall_per_class) != 4:
            raise ConfigurationError("recall_per_class must have exactly 4 entries",
                                     "recall_per_class")
        for i, r in enumerate(self.recall_per_class):
            if not 0.0 <= r <= 1.0:
                raise ConfigurationError(f"recall must be in [0, 1], got {r}",
                                         "recall_per_class", i)

    @classmethod
    def perfect(cls, tier: InferenceMode) -> "TierAccuracyProfile":
        return cls(tier=tier, accuracy=1.0, recall_per_class=(1.0, 1.0, 1.0, 1.0))


# Published evaluation scores for the three deployed model sizes.
DEFAULT_PROFILES: dict[InferenceMode, TierAccuracyProfile] = {
    InferenceMode.CLOUD: TierAccuracyProfile(
        InferenceMode.CLOUD, 0.9938, (0.9811, 0.9971, 0.9856, 0.9969)
    ),
    InferenceMode.GATEWAY: TierAccuracyProfile(
        InferenceMode.GATEWAY, 0.9406, (0.8440, 0.9677, 0.9809, 0.9511)
    ),
    InferenceMode.SENSOR: TierAccuracyProfile(
        InferenceMode.SENSOR, 0.9140, (0.8113, 0.9941, 0.9781, 0.9961)
    ),
}


@dataclass(frozen=True)
class GroundTruthProcess:
    """Seeded generator of true machine-condition labels over time.

    Each timestep's label is a pure function of (seed, step): an anomaly
    coin decides between the healthy pair and the degraded pair, then a
    second coin splits the pair.
    """

    seed: int = 0
    anomaly_probability: float = 0.3
    healthy_split: float = 0.5  # P(GOOD | healthy)
    degraded_split: float = 0.5  # P(UNSATISFACTORY | anomalous)

    def __post_init__(self) -> None:
        for name in ("anomaly_probability", "healthy_split", "degraded_split"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}", name)


def draw_ground_truth(process: GroundTruthProcess, step: int) -> ConditionLabel:
    """True condition label for one timestep; deterministic in (seed, step)."""
    u_anom, u_split = _counter_uniforms(process.seed, step)
    if u_anom < process.anomaly_probability:
        if u_split < process.degraded_split:
            return ConditionLabel.UNSATISFACTORY
        return ConditionLabel.UNACCEPTABLE
    if u_split < process.healthy_split:
        return ConditionLabel.GOOD
    return ConditionLabel.ACCEPTABLE


def predict_label(
    profile: TierAccuracyProfile, true_label: ConditionLabel, rng: random.Random
) -> ConditionLabel:
    """Draw the tier's predicted label for a known true label.

    With probability recall[true] the prediction is correct; otherwise it
    is drawn uniformly from the other three classes. Exactly two uniforms
    are consumed per call so a stream's position stays in lockstep with
    the number of predictions made.
    """
    u_hit = rng.random()
    u_err = rng.random()
    if u_hit < profile.recall_per_class[true_label]:
        return true_label
    others = [label for label in _LABELS if label != true_label]
    return others[min(int(u_err * 3), 2)]


@dataclass
class ClassifierOracle:
    """Source of one node's predicted labels at one tier.

    Owns its rng stream, derived from the master seed, node id, and tier.
    """

    profile: TierAccuracyProfile
    rng: random.Random

    @classmethod
    def create(
        cls, master_seed: int, node_id: str, profile: TierAccuracyProfile
    ) -> "ClassifierOracle":
        seed = derive_seed(master_seed, node_id, profile.tier.value, "predict")
        return cls(profile=profile, rng=random.Random(seed))

    def predict(self, true_label: ConditionLabel) -> ConditionLabel:
        return predict_label(self.profile, true_label, self.rng)
