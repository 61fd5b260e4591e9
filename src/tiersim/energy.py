"""Deterministic energy accounting for sensor nodes.

Per-operation energy costs measured on the target hardware, duty-cycle
totals, battery-life bounds, and the savings computation. The continuous
power integral is realized as a ledger of per-operation products, which
is exact for piecewise-constant power.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .model import BatteryState, ConfigurationError, InferenceMode

MS_PER_HOUR = 3_600_000.0


@dataclass(frozen=True)
class OperationCost:
    """Measured duration and energy of one node operation."""

    duration_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it is rejected too; it would reach the scheduler
        if not (0 < self.duration_ms < math.inf and 0 < self.energy_mj < math.inf):
            raise ConfigurationError(
                "operation duration and energy must both be positive and finite, got "
                f"({self.duration_ms} ms, {self.energy_mj} mJ)"
            )


@dataclass(frozen=True)
class EnergyTable:
    """Per-operation energy model of the sensor node.

    Defaults are the measured values for the target hardware: a 10 s
    sampling window at 50 Hz, on-device quantize+infer, window
    compression, radio transmission of the compressed window, and the
    deep-sleep floor current.
    """

    sampling: OperationCost = OperationCost(10_000.0, 2_000.00)
    local_inference: OperationCost = OperationCost(14.0, 2.72)
    compression: OperationCost = OperationCost(50.0, 10.67)
    radio_tx: OperationCost = OperationCost(4_700.0, 1_570.00)
    deep_sleep_current_ua: float = 10.0
    supply_voltage_v: float = 3.7

    def __post_init__(self) -> None:
        if not 0 < self.deep_sleep_current_ua < math.inf:
            raise ConfigurationError(
                f"deep sleep current must be finite and > 0 uA, got {self.deep_sleep_current_ua}"
            )
        if not 0 < self.supply_voltage_v < math.inf:
            raise ConfigurationError(
                f"supply voltage must be finite and > 0 V, got {self.supply_voltage_v}"
            )

    def sleep_energy_mj(self, sleep_ms: float) -> float:
        """Deep-sleep energy for a sleep phase of the given duration."""
        if sleep_ms < 0:
            raise ConfigurationError(f"sleep duration must be >= 0 ms, got {sleep_ms}")
        # uA * V = uW; uW * ms = nJ; /1e6 -> mJ
        return self.deep_sleep_current_ua * self.supply_voltage_v * sleep_ms / 1e6

    def active_phase(self, mode: InferenceMode) -> tuple[tuple[str, str, OperationCost], ...]:
        """(trace kind, ledger tag, cost) of each active-phase operation, in order."""
        if mode is InferenceMode.SENSOR:
            return (("sample", "sampling", self.sampling),
                    ("infer-local", "local_inference", self.local_inference))
        return (("sample", "sampling", self.sampling),
                ("compress", "compression", self.compression),
                ("radio-tx", "radio_tx", self.radio_tx))

    def active_energy_mj(self, mode: InferenceMode) -> float:
        total = 0.0  # a plain loop: sum() of floats may compensate
        for _, _, cost in self.active_phase(mode):
            total += cost.energy_mj
        return total

    def active_duration_ms(self, mode: InferenceMode) -> float:
        total = 0.0
        for _, _, cost in self.active_phase(mode):
            total += cost.duration_ms
        return total


def cycle_energy(mode: InferenceMode, sleep_ms: float, table: EnergyTable) -> float:
    """Total energy (mJ) of one duty cycle: active phase plus sleep phase."""
    return table.active_energy_mj(mode) + table.sleep_energy_mj(sleep_ms)


def cycle_duration(mode: InferenceMode, sleep_ms: float, table: EnergyTable) -> float:
    """Total duration (ms) of one duty cycle: sleep phase plus active phase."""
    if sleep_ms < 0:
        raise ConfigurationError(f"sleep duration must be >= 0 ms, got {sleep_ms}")
    return sleep_ms + table.active_duration_ms(mode)


def battery_life_bound(
    battery: BatteryState, mode: InferenceMode, sleep_ms: float, table: EnergyTable
) -> float:
    """Projected battery life (hours) if every cycle ran in the given mode.

    With adaptive switching the true lifetime falls between the
    all-offboard (lower) and all-onboard (upper) bounds.
    """
    if battery.consumed_j != 0:
        raise ConfigurationError("battery life bound expects a fresh battery")
    if battery.capacity_j <= 0:
        return 0.0
    cycles = battery.capacity_j / (cycle_energy(mode, sleep_ms, table) / 1000.0)
    return cycles * cycle_duration(mode, sleep_ms, table) / MS_PER_HOUR


def energy_savings_percent(onboard_cycle_mj: float, offboard_cycle_mj: float) -> float:
    """Relative saving of onboard over offboard cycles, in percent."""
    if offboard_cycle_mj <= 0:
        raise ConfigurationError(
            f"offboard cycle energy must be > 0 mJ, got {offboard_cycle_mj}"
        )
    return 100.0 * (offboard_cycle_mj - onboard_cycle_mj) / offboard_cycle_mj


@dataclass(slots=True)
class LedgerEntry:
    timestamp_ms: float
    node_id: str
    operation: str
    energy_mj: float
    battery_pct: float


class EnergyLedger:
    """Ordered record of every energy debit in a run, about 21 B a debit.

    A debit's time and level are kept as C doubles in ``array('d')``
    columns. Its node, operation and energy repeat across a run, so the
    ledger keeps each distinct ``(node_id, operation, energy_mj)`` triple
    once, in the order first debited, and a debit keeps only its
    triple's index in an ``array('I')``. The key that finds a triple's
    index adds the energy's sign, which keeps ``-0.0`` apart from
    ``0.0``; ``2`` and ``2.0`` share a triple, whose energy is stored as
    ``float(energy_mj)``, so a number read back is always a float.

    ``len(ledger)`` counts the debits, ``columns(start)`` reads each
    field from a given debit on, and ``entries`` builds every debit as a
    ``LedgerEntry``.
    """

    def __init__(self) -> None:
        self._timestamp_ms, self._battery_pct = array("d"), array("d")
        self._triple_of = array("I")  # each debit's index into the triple table
        self._index = {}  # (node_id, operation, energy_mj, its sign) -> triple index
        self._node_ids, self._operations, self._energies = [], [], []  # the triple table
        self.total_mj = 0.0

    def __len__(self) -> int:
        return len(self._triple_of)

    def columns(self, start: int = 0) -> dict[str, Sequence]:
        """Each ``LedgerEntry`` field's values from debit ``start`` on, by field name.

        The fields come in ``LedgerEntry`` order. Times and levels are
        ``array('d')`` slices, the other fields lists.
        """
        triples = self._triple_of[start:]
        return {
            "timestamp_ms": self._timestamp_ms[start:],
            "node_id": list(map(self._node_ids.__getitem__, triples)),
            "operation": list(map(self._operations.__getitem__, triples)),
            "energy_mj": list(map(self._energies.__getitem__, triples)),
            "battery_pct": self._battery_pct[start:],
        }

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        """Every debit as a ``LedgerEntry``, built anew on each read."""
        return tuple(map(LedgerEntry, *self.columns().values()))

    def add(
        self,
        timestamp_ms: float,
        node_id: str,
        operation: str,
        energy_mj: float,
        battery_pct: float,
    ) -> None:
        key = (node_id, operation, energy_mj, math.copysign(1.0, energy_mj))
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self._energies)
            self._node_ids.append(node_id)
            self._operations.append(operation)
            self._energies.append(float(energy_mj))
        self._timestamp_ms.append(timestamp_ms)
        self._triple_of.append(index)
        self._battery_pct.append(battery_pct)
        self.total_mj += energy_mj


def debit(
    battery: BatteryState,
    ledger: EnergyLedger,
    operation: str,
    energy_mj: float,
    timestamp_ms: float,
    node_id: str,
) -> float:
    """Charge ``energy_mj`` against a battery and record it as ``operation``.

    A dead battery is left untouched (no entry, nothing debited), and the
    debit that empties it records only the charge that was left.
    Returns the energy actually debited in mJ.
    """
    if battery.dead:
        return 0.0
    energy_mj = battery.drain(energy_mj)
    ledger.add(timestamp_ms, node_id, operation, energy_mj, battery.level_pct)
    return energy_mj


def debit_sleep(
    battery: BatteryState,
    ledger: EnergyLedger,
    sleep_ms: float,
    table: EnergyTable,
    timestamp_ms: float = 0.0,
    node_id: str = "",
) -> float:
    """Charge a deep-sleep phase of the given duration. Returns mJ debited.

    The engine debits sleep through ``debit`` with the cost its cycle plan
    resolved; this wrapper stays while ``perfbench/tracer.py`` names it.
    """
    return debit(battery, ledger, "deep_sleep", table.sleep_energy_mj(sleep_ms),
                 timestamp_ms, node_id)
