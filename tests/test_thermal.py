"""Thermal parameter derivation: hand-computed values and scaling laws."""

import random

import pytest

from heatflex import (
    CapacityLevel,
    DomainError,
    StockVariant,
    derive_all,
    heat_loss_coefficient,
    size_heat_pump,
    thermal_capacity,
    total_installed_thermal_kw,
)

from conftest import GAS_DETACHED, make_record, make_region_table


def test_heat_loss_hand_values():
    # Wales: 2058.9 degree days -> 49413.6 degree hours
    assert heat_loss_coefficient(10000, 2058.9) == pytest.approx(10000 / 49413.6, rel=1e-12)
    assert heat_loss_coefficient(10000, 2058.9) == pytest.approx(0.2023733, rel=1e-6)
    # constructed so the degree hours divide evenly
    assert heat_loss_coefficient(4941.36, 2058.9) == pytest.approx(0.1, rel=1e-12)


def test_heat_loss_linear_in_demand():
    base = heat_loss_coefficient(8000, 2216.8)
    assert heat_loss_coefficient(16000, 2216.8) == pytest.approx(2 * base, rel=1e-12)


def test_heat_loss_domain_errors():
    with pytest.raises(DomainError):
        heat_loss_coefficient(0, 2000)
    with pytest.raises(DomainError):
        heat_loss_coefficient(10000, 0)


def test_thermal_capacity_levels():
    assert thermal_capacity(100, CapacityLevel.MEDIUM) == 25000.0
    assert thermal_capacity(100, CapacityLevel.MEDIUM_PLUS_10) == 27500.0
    assert thermal_capacity(100, CapacityLevel.MEDIUM_MINUS_10) == 22500.0
    with pytest.raises(DomainError):
        thermal_capacity(0, CapacityLevel.MEDIUM)


def test_capacity_level_constants():
    assert CapacityLevel.MEDIUM.specific_capacity == 250.0
    assert CapacityLevel.MEDIUM_PLUS_10.specific_capacity == 275.0
    assert CapacityLevel.MEDIUM_MINUS_10.specific_capacity == 225.0
    assert CapacityLevel.parse("medium+10") is CapacityLevel.MEDIUM_PLUS_10


def test_size_heat_pump_hand_values():
    assert size_heat_pump(0.2, -3.0) == pytest.approx(4.8, rel=1e-12)
    assert size_heat_pump(0.2, -5.0) == pytest.approx(5.2, rel=1e-12)
    with pytest.raises(DomainError):
        size_heat_pump(0.2, 21.0, 21.0)


def test_derive_all_composition():
    record = make_record(lsoa_id="W01000001", before=10000, after=5000, floor_area=100)
    table = make_region_table({"W01000001": ("Wales", "Cardiff")})

    params = derive_all([record], table)[("W01000001", GAS_DETACHED)]
    assert params.heat_loss == pytest.approx(0.2023733, rel=1e-6)
    assert params.capacitance == 25000.0
    assert params.hp_size_thermal == pytest.approx(4.85696, rel=1e-5)
    assert params.design_temp == -3.0

    after = derive_all([record], table, variant=StockVariant.AFTER_EE)[
        ("W01000001", GAS_DETACHED)
    ]
    assert after.heat_loss == pytest.approx(params.heat_loss / 2, rel=1e-12)
    assert after.hp_size_thermal == pytest.approx(params.hp_size_thermal / 2, rel=1e-12)
    assert after.capacitance == params.capacitance


def test_derive_all_skips_zero_count():
    records = [
        make_record(lsoa_id="E01000001", count=3),
        make_record(lsoa_id="E01000002", count=0, before=0, after=0, floor_area=0),
    ]
    table = make_region_table({
        "E01000001": ("London", "Camden"),
        "E01000002": ("London", "Camden"),
    })
    params = derive_all(records, table)
    assert set(params) == {("E01000001", GAS_DETACHED)}


def test_size_over_heat_loss_identity(small_stock):
    records, table = small_stock
    params = derive_all(records, table)
    for (lsoa, _), p in params.items():
        assert p.hp_size_thermal / p.heat_loss == pytest.approx(
            21.0 - p.design_temp, rel=1e-12
        )


def test_retrofit_never_increases_losses(small_stock):
    records, table = small_stock
    before = derive_all(records, table, variant=StockVariant.BEFORE_EE)
    after = derive_all(records, table, variant=StockVariant.AFTER_EE)
    for key, b in before.items():
        a = after[key]
        assert a.heat_loss <= b.heat_loss
        assert a.hp_size_thermal <= b.hp_size_thermal
        assert a.capacitance == b.capacitance


def test_national_total_invariant_to_order_and_partition(small_stock):
    stock, table = small_stock
    records = list(stock)  # rows, to shuffle and split

    def total(part):
        return total_installed_thermal_kw(derive_all(part, table))

    whole = total(records)
    # the loop over records that the column sum replaced, kept as the reference
    params, reference = derive_all(records, table), 0.0
    for r in records:
        if not r.skippable:
            reference += r.count * params[(r.lsoa_id, r.category)].hp_size_thermal
    assert whole == reference > 0

    shuffled = list(records)
    random.Random(4).shuffle(shuffled)
    assert total(shuffled) == pytest.approx(whole, rel=1e-6)

    mid = len(records) // 3
    assert total(records[:mid]) + total(records[mid:]) == pytest.approx(whole, rel=1e-6)
    assert total([]) == 0.0
