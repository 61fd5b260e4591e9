"""Tests for the energy model: cycle arithmetic, bounds, ledger."""

import math
import sys
import tracemalloc

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
    scenario_from_dict,
)
from tiersim.energy import LedgerEntry, OperationCost
from tiersim.summary import ArtifactSink

S, G, C = InferenceMode.SENSOR, InferenceMode.GATEWAY, InferenceMode.CLOUD
TABLE = EnergyTable()


def test_table_defaults():
    assert TABLE.sampling == OperationCost(10_000.0, 2_000.00)
    assert TABLE.local_inference == OperationCost(14.0, 2.72)
    assert TABLE.compression == OperationCost(50.0, 10.67)
    assert TABLE.radio_tx == OperationCost(4_700.0, 1_570.00)
    assert TABLE.deep_sleep_current_ua == 10.0


def test_operation_cost_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        OperationCost(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        OperationCost(10.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_costs_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        OperationCost(bad, 2.72)
    with pytest.raises(ConfigurationError):
        OperationCost(14.0, bad)
    with pytest.raises(ConfigurationError):
        EnergyTable(deep_sleep_current_ua=bad)
    with pytest.raises(ConfigurationError):
        EnergyTable(supply_voltage_v=bad)


def test_sleep_energy_30s_is_1_11_mj():
    assert TABLE.sleep_energy_mj(30_000.0) == pytest.approx(1.11, abs=1e-9)
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigurationError, match=f"sleep duration must be >= 0 ms, got {bad}"):
            TABLE.sleep_energy_mj(bad)


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
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigurationError, match=f"sleep duration must be >= 0 ms, got {bad}"):
            cycle_duration(S, bad, TABLE)
        with pytest.raises(ConfigurationError, match=f"sleep duration must be >= 0 ms, got {bad}"):
            battery_life_bound(BatteryState(), S, bad, TABLE)


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
    assert ledger.entries == () and battery.dead


@pytest.mark.parametrize("energy_mj", [math.nan, -5.0])
def test_debit_rejects_nan_and_negative_energy(energy_mj):
    # a NaN once emptied a fresh battery and booked 18,648,000 mJ; -5 mJ
    # drove consumed_j below 0
    battery = BatteryState()
    ledger = EnergyLedger()
    with pytest.raises(ConfigurationError, match="energy drawn must be >= 0 mJ"):
        debit(battery, ledger, "x", energy_mj, 0.0, "n")
    assert battery.consumed_j == 0.0 and battery.level_pct == 100.0
    assert ledger.entries == () and ledger.total_mj == 0.0


def test_debit_of_infinite_energy_drains_what_is_left():
    # a sleep period near the float maximum overflows the sleep energy to inf
    battery = BatteryState(capacity_j=10.0, consumed_j=4.0)
    ledger = EnergyLedger()
    assert TABLE.sleep_energy_mj(sys.float_info.max) == math.inf
    assert debit_sleep(battery, ledger, sys.float_info.max, TABLE) == 6_000.0
    assert battery.dead and battery.consumed_j == 10.0
    assert [e.energy_mj for e in ledger.entries] == [6_000.0] and ledger.total_mj == 6_000.0


def test_debit_of_negative_zero_keeps_its_sign():
    battery = BatteryState()
    ledger = EnergyLedger()
    debited = debit(battery, ledger, "deep_sleep", -0.0, 0.0, "n")
    assert math.copysign(1.0, debited) == -1.0
    assert math.copysign(1.0, ledger.entries[0].energy_mj) == -1.0
    assert battery.consumed_j == 0.0 and not battery.dead


def test_ledger_keeps_at_most_24_bytes_per_debit():
    # each debit's time and level are fresh floats, as in a run; the
    # columns keep their values, not the float objects. The debits cycle
    # through 20 nodes and five tags, so the 100 triples they repeat are
    # counted too.
    ledger = EnergyLedger()
    debits = 50_000
    node_ids = [f"n{i}" for i in range(20)]
    costs = [(tag, getattr(TABLE, tag).energy_mj)
             for tag in ("sampling", "local_inference", "compression", "radio_tx")]
    costs.append(("deep_sleep", TABLE.sleep_energy_mj(30_000.0)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(debits):
            tag, energy_mj = costs[i % len(costs)]
            ledger.add(i * 10.5, node_ids[i // len(costs) % len(node_ids)], tag, energy_mj,
                       100.0 - i * 1e-4)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ledger) == len(ledger.entries) == debits
    assert len({(e.node_id, e.operation) for e in ledger.entries}) == 100
    assert grown / debits <= 24


def test_ledger_keeps_negative_zero_apart_and_reads_an_int_energy_as_a_float(tmp_path):
    # 0.0 == -0.0 and 2 == 2.0, so the ledger's triple key must add the
    # sign to tell the zeros apart, and its stored energy must be a float
    ledger = EnergyLedger()
    for energy_mj in (0.0, -0.0, 2, 2.0):
        ledger.add(1.0, "n0", "deep_sleep", energy_mj, 100.0)
    energies = [e.energy_mj for e in ledger.entries]
    assert list(map(repr, energies)) == ["0.0", "-0.0", "2.0", "2.0"]
    assert set(map(type, energies)) == {float} and ledger.total_mj == 4.0
    with ArtifactSink(scenario_from_dict({}), ledger, tmp_path) as sink:
        sink([])
    rows = (tmp_path / "energy.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0.0", "-0.0", "2.0", "2.0"]


def test_ledger_entries_are_rebuilt_from_the_columns_on_each_read():
    ledger = EnergyLedger()
    ledger.add(1.0, "n0", "sampling", 2.0, 99.5)
    first = ledger.entries
    ledger.add(2.0, "n1", "radio_tx", 3.0, 98.0)
    assert first == (LedgerEntry(1.0, "n0", "sampling", 2.0, 99.5),)
    assert ledger.entries == (*first, LedgerEntry(2.0, "n1", "radio_tx", 3.0, 98.0))
    assert ledger.entries[0] is not first[0]
    assert ledger.total_mj == 5.0


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
