"""Tests for the energy model: cycle arithmetic, bounds, ledger."""

import math

import pytest

from tiersim import (
    BatteryState,
    ConfigurationError,
    EnergyLedger,
    EnergyTable,
    InferenceMode,
    battery_life_bound,
    cycle_duration,
    cycle_energy,
    debit,
    debit_sleep,
    energy_savings_percent,
)
from tiersim.energy import OperationCost

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD
TABLE = EnergyTable()


def test_table_defaults():
    assert TABLE.sampling == OperationCost(5.86, 10_000.0, 2_000.00)
    assert TABLE.local_inference == OperationCost(2.92, 14.0, 2.72)
    assert TABLE.compression == OperationCost(5.86, 50.0, 10.67)
    assert TABLE.radio_tx == OperationCost(3.00, 4_700.0, 1_570.00)
    assert TABLE.deep_sleep_current_ua == 10.0


def test_operation_cost_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        OperationCost(0.0, 10.0, 1.0)
    with pytest.raises(ConfigurationError):
        OperationCost(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        OperationCost(1.0, 10.0, -1.0)


def test_sleep_energy_30s_is_1_11_mj():
    assert TABLE.sleep_energy_mj(30_000.0) == pytest.approx(1.11, abs=1e-9)


def test_onboard_cycle_energy_exact():
    assert cycle_energy(S, 30_000.0, TABLE) == pytest.approx(2_003.83, abs=1e-9)


def test_offboard_cycle_energy():
    assert cycle_energy(G, 30_000.0, TABLE) == pytest.approx(3_581.78, abs=2.0)
    assert cycle_energy(G, 30_000.0, TABLE) == cycle_energy(C, 30_000.0, TABLE)


def test_cycle_energy_zero_sleep():
    assert cycle_energy(S, 0.0, TABLE) == pytest.approx(2_002.72, abs=1e-9)


def test_cycle_durations_exact():
    assert cycle_duration(S, 30_000.0, TABLE) == 40_014.0
    assert cycle_duration(G, 30_000.0, TABLE) == 44_750.0


def test_battery_life_bounds():
    battery = BatteryState(capacity_j=18_648.0)
    assert battery_life_bound(battery, S, 30_000.0, TABLE) == pytest.approx(104.0, abs=2.0)
    assert battery_life_bound(battery, C, 30_000.0, TABLE) == pytest.approx(65.0, abs=2.0)


def test_battery_life_zero_capacity():
    assert battery_life_bound(BatteryState(capacity_j=0.0), S, 30_000.0, TABLE) == 0.0


def test_battery_life_requires_fresh_battery():
    used = BatteryState(capacity_j=100.0, consumed_j=1.0)
    with pytest.raises(ConfigurationError):
        battery_life_bound(used, S, 30_000.0, TABLE)


def test_savings_versus_published_number():
    assert energy_savings_percent(2_003.83, 3_578.67) == pytest.approx(44.0, abs=0.5)


def test_savings_equal_cycles_is_zero():
    assert energy_savings_percent(1_234.5, 1_234.5) == 0.0


def test_savings_on_component_summed_cycle():
    assert energy_savings_percent(2_003.83, 3_581.78) == pytest.approx(44.05, abs=0.01)


def test_savings_rejects_nonpositive_offboard():
    with pytest.raises(ConfigurationError):
        energy_savings_percent(1.0, 0.0)


def test_debit_single_operation():
    battery = BatteryState(capacity_j=18_648.0)
    ledger = EnergyLedger()
    debited = debit(battery, ledger, "sampling", TABLE.sampling.energy_mj, 123.0, "n0")
    assert debited == 2_000.00
    assert battery.consumed_j == pytest.approx(2.0)
    assert ledger.entries[0].operation == "sampling"
    assert ledger.total_mj == 2_000.00


def test_debit_dead_battery_is_noop():
    battery = BatteryState(capacity_j=1.0, consumed_j=1.0)
    ledger = EnergyLedger()
    assert debit(battery, ledger, "sampling", TABLE.sampling.energy_mj, 0.0, "n0") == 0.0
    assert ledger.entries == [] and battery.dead


def test_thousand_radio_debits_leave_battery_alive():
    battery = BatteryState(capacity_j=18_648.0)
    ledger = EnergyLedger()
    for _ in range(1000):
        debit(battery, ledger, "radio_tx", TABLE.radio_tx.energy_mj, 0.0, "n0")
    assert battery.consumed_j == pytest.approx(1_570.0)
    assert not battery.dead


def test_debit_sleep():
    battery = BatteryState(capacity_j=18_648.0)
    ledger = EnergyLedger()
    assert debit_sleep(battery, ledger, 30_000.0, TABLE) == pytest.approx(1.11, abs=1e-9)
    assert ledger.entries[0].operation == "deep_sleep"


def test_ledger_total_matches_entry_sum():
    battery = BatteryState(capacity_j=18_648.0)
    ledger = EnergyLedger()
    for tag in ("sampling", "local_inference", "compression", "radio_tx"):
        debit(battery, ledger, tag, getattr(TABLE, tag).energy_mj, 0.0, "n0")
    debit_sleep(battery, ledger, 30_000.0, TABLE, node_id="n0")
    assert ledger.total_mj == pytest.approx(math.fsum(e.energy_mj for e in ledger.entries),
                                            rel=1e-12)
