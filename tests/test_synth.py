"""Synthetic stock generator: determinism, totals, downstream compatibility."""

import pytest

from heatflex import load_stock, write_stock
from heatflex.synth import LSOAS_PER_LOCAL_AUTHORITY, generate_stock, write_lookup

from conftest import make_region_table


def test_deterministic_for_seed():
    a_records, a_lookup = generate_stock(3000, seed=5)
    b_records, b_lookup = generate_stock(3000, seed=5)
    c_records, _ = generate_stock(3000, seed=6)
    assert a_records == b_records
    assert a_lookup == b_lookup
    assert a_records != c_records


def test_total_dwellings_exact():
    records, _ = generate_stock(12345, seed=1)
    assert sum(r.count for r in records) == 12345


def test_every_lsoa_resolves():
    records, lookup = generate_stock(5000, seed=2)
    table = make_region_table({l: (r, la) for l, r, la in lookup})
    table.validate_lsoas(r.lsoa_id for r in records)


def test_records_survive_csv_round_trip(tmp_path):
    records, lookup = generate_stock(4000, seed=9)
    stock_path = tmp_path / "stock.csv"
    write_stock(records, stock_path)
    assert load_stock(stock_path) == records
    write_lookup(lookup, tmp_path / "lookup.csv")
    header = (tmp_path / "lookup.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "lsoa_id,region,local_authority"


def test_local_authorities_nest_lsoas_of_one_region():
    _, lookup = generate_stock(200_000, seed=4)
    regions_of_la, lsoas_of_la = {}, {}
    for lsoa, region, la in lookup:
        regions_of_la.setdefault(la, set()).add(region)
        lsoas_of_la.setdefault(la, set()).add(lsoa)
    assert all(len(regions) == 1 for regions in regions_of_la.values())
    assert all(len(lsoas) <= LSOAS_PER_LOCAL_AUTHORITY for lsoas in lsoas_of_la.values())
    # LA rollups merge LSOAs: 333 LSOAs fill far fewer than 333 authorities
    assert len(lookup) == 333
    assert len(lsoas_of_la) == 70


def test_empty_stock():
    records, _ = generate_stock(0, seed=1)
    assert sum(r.count for r in records) == 0


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_stock(-1, seed=1)
