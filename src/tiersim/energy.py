"""Deterministic energy accounting for sensor nodes.

Per-operation energy costs measured on the target hardware, duty-cycle
totals, battery-life bounds, and the savings computation. The continuous
power integral is realized as a ledger of per-operation products, which
is exact for piecewise-constant power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import BatteryState, ConfigurationError, InferenceMode

MS_PER_HOUR = 3_600_000.0


@dataclass(frozen=True)
class OperationCost:
    """Measured data size, duration, and energy for one node operation."""

    size_kb: float
    duration_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        if self.size_kb <= 0 or self.duration_ms <= 0 or self.energy_mj <= 0:
            raise ConfigurationError(
                "operation size, duration, and energy must all be positive, got "
                f"({self.size_kb} KB, {self.duration_ms} ms, {self.energy_mj} mJ)"
            )


@dataclass(frozen=True)
class EnergyTable:
    """Per-operation energy model of the sensor node.

    Defaults are the measured values for the target hardware: a 10 s
    sampling window at 50 Hz, on-device quantize+infer, window
    compression, radio transmission of the compressed window, and the
    deep-sleep floor current.
    """

    sampling: OperationCost = OperationCost(5.86, 10_000.0, 2_000.00)
    local_inference: OperationCost = OperationCost(2.92, 14.0, 2.72)
    compression: OperationCost = OperationCost(5.86, 50.0, 10.67)
    radio_tx: OperationCost = OperationCost(3.00, 4_700.0, 1_570.00)
    deep_sleep_current_ua: float = 10.0
    supply_voltage_v: float = 3.7

    def __post_init__(self) -> None:
        if self.deep_sleep_current_ua <= 0:
            raise ConfigurationError(
                f"deep sleep current must be > 0 uA, got {self.deep_sleep_current_ua}"
            )
        if self.supply_voltage_v <= 0:
            raise ConfigurationError(
                f"supply voltage must be > 0 V, got {self.supply_voltage_v}"
            )

    def sleep_energy_mj(self, sleep_ms: float) -> float:
        """Deep-sleep energy for a sleep phase of the given duration."""
        if sleep_ms < 0:
            raise ConfigurationError(f"sleep duration must be >= 0 ms, got {sleep_ms}")
        # uA * V = uW; uW * ms = nJ; /1e6 -> mJ
        return self.deep_sleep_current_ua * self.supply_voltage_v * sleep_ms / 1e6

    def active_energy_mj(self, mode: InferenceMode) -> float:
        """Active-phase energy: sample+infer on device, sample+compress+transmit off device."""
        if mode is InferenceMode.SENSOR:
            return self.sampling.energy_mj + self.local_inference.energy_mj
        return self.sampling.energy_mj + self.compression.energy_mj + self.radio_tx.energy_mj

    def active_duration_ms(self, mode: InferenceMode) -> float:
        if mode is InferenceMode.SENSOR:
            return self.sampling.duration_ms + self.local_inference.duration_ms
        return (
            self.sampling.duration_ms
            + self.compression.duration_ms
            + self.radio_tx.duration_ms
        )


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


@dataclass
class EnergyLedger:
    """Ordered record of every energy debit in a run."""

    entries: list[LedgerEntry] = field(default_factory=list)
    total_mj: float = 0.0

    def add(
        self,
        timestamp_ms: float,
        node_id: str,
        operation: str,
        energy_mj: float,
        battery_pct: float,
    ) -> None:
        self.entries.append(
            LedgerEntry(timestamp_ms, node_id, operation, energy_mj, battery_pct)
        )
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
