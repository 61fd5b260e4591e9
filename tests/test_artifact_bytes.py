"""Byte-identity of the artifact set.

Pins the sha256 of all five artifacts ``run_scenario`` writes for the
three presets and for one mixed document that reaches most engine paths:
S/G/C nodes, gateway and cloud service times with jitter, dropped
requests with a long timeout, an IDLE-then-reset command pair, operator
mode and sleep-period changes, a gateway property read, command polls
with and without pending commands, and a battery that dies mid-run. A
refactor that claims to keep every byte must leave these hashes as they
are; a change that moves an artifact on purpose re-records them and says
why.
"""

import hashlib

import pytest

from tiersim.cli import ARTIFACTS, run_scenario
from tiersim.scenario import load_preset, scenario_from_dict

MIXED = {
    "name": "mixed",
    "seed": 11,
    "duration_ms": 3_600_000.0,
    "nodes": [
        {"node_id": "s", "initial_mode": "S"},
        {"node_id": "g", "initial_mode": "G", "battery_capacity_j": 40.0},
        {"node_id": "c", "initial_mode": "C"},
    ],
    "latency": {"jitter_gateway_ms": 30.0, "jitter_cloud_ms": 100.0},
    "gateway_service_ms": 40.0,
    "cloud_service_ms": 10.0,
    "drop_probability": 0.2,
    "request_timeout_ms": 40_000.0,
    "commands": [
        {"at_ms": 150_000.0, "node_id": "s", "name": "sleep_period", "value": 5000},
        {"at_ms": 600_000.0, "node_id": "c", "name": "state", "value": "IDLE"},
        {"at_ms": 900_000.0, "node_id": "c", "name": "state", "value": "UNLOCKED"},
        {"at_ms": 1_200_000.0, "node_id": "s", "name": "inference_mode", "value": "C"},
        {"at_ms": 1_800_000.0, "node_id": "gateway", "name": "provisioned_nodes",
         "method": "GET"},
    ],
}

#: sha256 of each artifact, in ``ARTIFACTS`` order.
EXPECTED = {
    "mixed": (
        "7b57481cc3d03bca9101f8455e25e2366c776b6266b67544e6c039685062c3a4",
        "b077d2f65176e0b68f7a92b6c7ed44efeda375590f0f1c397ce508f66f6983d8",
        "2d7adf0dbeea2be84905ca9d12c0c60f001c7d79b25444a0a8622b068be1d30d",
        "0d6bf1dd8332e163ef7a2eacbf1e061ff82deb22b7ba26cb9851d3c31b1c7277",
        "6b74b4ddee6f6d394f99ce3f1dc3ee883e5cd8018b010656f69fb1748cccf07f",
    ),
    "paper-latency": (
        "68397d8252480fe4b2d9966dc15e11cbe8311bc00ef64ca5d73e17464bc8faf9",
        "52d43f77cc24b354018d215f884eedf71635e391ab351fc0772eb1e52da35fa4",
        "bc1cf46b4c577e9e16e3b87983f5b799e09d48ecbac883ac7e277dcbbdf143a9",
        "804024e8ebbcb2adc8fc98b8eef438381d0bcf03bb2fe528e7f3ce308fad85fb",
        "634ce753e10c8a492d77707ee60c6289f647b509e06a09a2ddbfc6cf66256667",
    ),
    "paper-battery-bounds": (
        "66ccd5e4931a5486251f20f53aeed97e1d3e6f3f264b0507f6959af01f142ea4",
        "3d4e4ccf412e6d5aa8fddacf1e3454d8ddd9de1cdf260e7e2674b2878a418d28",
        "14e37e40913440f7916fc5f9a14c22fa8920db6a275ec17ffccdfbfff5fb9f61",
        "ac9a2f0606ce5f092fc8fd65f7535f4d3fee3d7c0c16f55042db217e922d7c72",
        "a1f0c1efcb48f5d2f90390fb3538a9db2ccfdc5c3cdbcee7628e6f7328ec379d",
    ),
    "paper-savings": (
        "8b1d1d725025ee4b41101897ec9f7fb8211a9c14e772534ba9bfde0c33730f0b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "204f1a169b2f2a623eb39ae5766e7a1c5938809dbd834c0462ad7033f3a7a723",
        "a74908f3293ecd92b2196d31bd1b9654f7f7110526886bfa3fe66196713e0185",
        "94b100464d6af0c007124e6a694f81f54c04d608a34e9612da4a56db54e2a938",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_artifacts_are_byte_identical(name, tmp_path):
    scenario = scenario_from_dict(MIXED) if name == "mixed" else load_preset(name)
    run_scenario(scenario, tmp_path)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    assert digests == dict(zip(ARTIFACTS, EXPECTED[name]))


def test_mixed_document_reaches_the_paths_it_pins(tmp_path):
    run_scenario(scenario_from_dict(MIXED), tmp_path)
    kinds = [line.split(",")[2] for line in
             (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]]
    operations = [line.split(",")[2] for line in
                  (tmp_path / "energy.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert kinds.count("battery-dead") == 1
    for kind in ("poll", "poll-empty", "request-timeout", "idle-command", "reset-command",
                 "mode-change", "property-command"):
        assert kind in kinds
    for operation in ("deep_sleep", "sampling", "local_inference", "compression",
                      "radio_tx", "radio_poll", "radio_poll_empty"):
        assert operation in operations
