"""Synthetic stock generator: determinism, totals, downstream compatibility."""

import csv

import numpy as np
import pytest

from heatflex import load_region_table, load_stock, write_stock
from heatflex.synth import LSOAS_PER_LOCAL_AUTHORITY, generate_stock, write_lookup

from conftest import make_region_table

COLUMNS = ("lsoa_code", "category_code", "count", "demand_before", "demand_after", "floor_area")


def same_table(a, b):
    """Equal LSOA ids and every column equal, element for element and in dtype."""
    return a.lsoa_ids == b.lsoa_ids and all(
        getattr(a, c).dtype == getattr(b, c).dtype and np.array_equal(getattr(a, c), getattr(b, c))
        for c in COLUMNS)


def test_deterministic_for_seed():
    a_stock, a_lookup = generate_stock(3000, seed=5)
    b_stock, b_lookup = generate_stock(3000, seed=5)
    c_stock, _ = generate_stock(3000, seed=6)
    assert same_table(a_stock, b_stock)
    assert a_lookup == b_lookup
    assert not same_table(a_stock, c_stock)


def test_total_dwellings_exact():
    stock, _ = generate_stock(12345, seed=1)
    assert sum(r.count for r in stock) == 12345


def test_every_lsoa_resolves():
    stock, lookup = generate_stock(5000, seed=2)
    table = make_region_table({l: (r, la) for l, r, la in lookup})
    table.validate_lsoas(r.lsoa_id for r in stock)


def test_records_survive_csv_round_trip(tmp_path):
    stock, lookup = generate_stock(4000, seed=9)
    stock_path = tmp_path / "stock.csv"
    write_stock(stock, stock_path)
    assert same_table(load_stock(stock_path), stock)
    write_lookup(lookup, tmp_path / "lookup.csv")
    header = (tmp_path / "lookup.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "lsoa_id,region,local_authority"


@pytest.mark.parametrize("n_dwellings, seed, lsoa_count", [
    (1, 3, None), (7, 1, 20), (40, 8, 100), (2000, 11, 20), (30_000, 2024, None),
], ids=["one dwelling", "fewer dwellings than LSOAs", "sparse", "dense", "default layout"])
def test_table_is_what_load_stock_reads(tmp_path, n_dwellings, seed, lsoa_count):
    # the table synth builds is the one load_stock reads from its file, with
    # the same dtypes, and its LSOAs are those with a row, in the order the
    # rows first name them, even where some LSOA gets no dwellings
    stock, lookup = generate_stock(n_dwellings, seed, lsoa_count)
    write_stock(stock, tmp_path / "stock.csv")
    assert same_table(load_stock(tmp_path / "stock.csv"), stock)
    assert int(stock.count.sum()) == n_dwellings and (stock.count > 0).all()
    first = dict.fromkeys(stock.lsoa_code.tolist())
    assert list(first) == list(range(len(stock.lsoa_ids)))
    assert set(stock.lsoa_ids) <= {lsoa for lsoa, _, _ in lookup}
    assert list(stock.lsoa_ids) == sorted(stock.lsoa_ids)  # the lookup's order
    if lsoa_count is not None and n_dwellings < lsoa_count:
        assert len(stock.lsoa_ids) <= n_dwellings < len(lookup)


def test_lookup_writes_what_csv_writer_writes(tmp_path):
    _, lookup = generate_stock(5000, seed=2)
    write_lookup(lookup, tmp_path / "lookup.csv")
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lsoa_id", "region", "local_authority"])
        writer.writerows(lookup)
    assert (tmp_path / "lookup.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("lsoa, la", [
    ("E01000001", "Cardiff"), ("a\rb", "c\rd"), ("a\nb", "c\nd"), ('a,"b"', 'c,"d"'),
], ids=["plain", "carriage return", "newline", "comma and quotes"])
def test_lookup_reads_back(tmp_path, lsoa, la):
    # every LSOA id and local-authority name reads back whole, a bare \r too
    write_lookup([(lsoa, "Wales", la), ("E01000002", "London", "Camden")], tmp_path / "lookup.csv")
    table = load_region_table(None, tmp_path / "lookup.csv")
    assert table.lsoa_to_region == {lsoa: "Wales", "E01000002": "London"}
    assert table.lsoa_to_local_authority == {lsoa: la, "E01000002": "Camden"}


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


def test_empty_stock(tmp_path):
    stock, _ = generate_stock(0, seed=1)
    assert sum(r.count for r in stock) == 0
    assert len(stock) == 0 and stock.lsoa_ids == ()
    assert [getattr(stock, c).dtype for c in COLUMNS] == [
        np.intp, np.int8, np.int64, np.float64, np.float64, np.float64]
    write_stock(stock, tmp_path / "stock.csv")
    assert (tmp_path / "stock.csv").read_text(encoding="utf-8") == (
        "lsoa_id,form,heating,count,heat_demand_before_kwh,heat_demand_after_kwh,floor_area_m2\n")
    assert same_table(load_stock(tmp_path / "stock.csv"), stock)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_stock(-1, seed=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"lsoa_count": 0}, "lsoa_count must be >= 1, got 0"),
    ({"lsoa_count": -3}, "lsoa_count must be >= 1, got -3"),
    ({"region_names": []}, "region_names must name at least one region"),
], ids=["no LSOAs", "negative LSOA count", "no regions"])
def test_empty_layout_rejected(kwargs, message):
    # a layout with nowhere to put dwellings is refused by name, not with a
    # ZeroDivisionError from spreading them over it
    for n_dwellings in (0, 100):
        with pytest.raises(ValueError, match=message):
            generate_stock(n_dwellings, seed=1, **kwargs)
