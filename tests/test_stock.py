"""Stock ingestion: CSV round trip, validation errors, winsorization."""

import csv
import json
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatflex import (
    CapacityLevel,
    DataValidationError,
    DomainError,
    DuplicateRecordError,
    DwellingCategory,
    DwellingForm,
    DwellingRecord,
    HeatingSystem,
    ParseError,
    RegionInfo,
    RegionTable,
    SchemaError,
    StockVariant,
    derive_all,
    heat_loss_coefficient,
    load_stock,
    size_heat_pump,
    thermal_capacity,
    winsorize_stock,
    write_params_csv,
    write_stock,
)
from heatflex import stock as stock_module
from heatflex.stock import StockTable, float_text
from heatflex.synth import generate_stock

from conftest import GAS_DETACHED, GAS_FLAT, make_record, make_region_table, percentile_by_hand

HEADER = "lsoa_id,form,heating,count,heat_demand_before_kwh,heat_demand_after_kwh,floor_area_m2\n"


def write_csv(path, rows, header=HEADER):
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


def test_sixteen_categories_exist():
    cats = DwellingCategory.all()
    assert len(cats) == 16
    assert len(set(cats)) == 16
    # enumerate by hand: 4 forms x 4 heating systems
    expected = {
        (form, heating)
        for form in DwellingForm
        for heating in HeatingSystem
    }
    assert {(c.form, c.heating) for c in cats} == expected


def test_load_stock_preserves_order(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        "E01000001,detached,gas_boiler,5,12000,9000,110\n",
        "E01000001,flat,resistance_heater,3,7000,5000,50\n",
        "E01000002,terraced,oil_boiler,0,0,0,0\n",
    ])
    records = list(load_stock(path))
    assert len(records) == 3
    assert [r.lsoa_id for r in records] == ["E01000001", "E01000001", "E01000002"]
    assert records[0].category == GAS_DETACHED
    assert records[1].annual_heat_demand_after == 5000
    assert records[2].skippable and not records[0].skippable


def test_load_stock_all_sixteen_categories(tmp_path):
    rows = [
        f"E01000001,{c.form.value},{c.heating.value},1,10000,8000,90\n"
        for c in DwellingCategory.all()
    ]
    records = load_stock(write_csv(tmp_path / "s.csv", rows))
    assert len(records) == 16
    assert len({r.category for r in records}) == 16


def test_load_stock_missing_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "lsoa_id,form,heating,count,heat_demand_before_kwh,heat_demand_after_kwh\n"
        "E01000001,detached,gas_boiler,5,12000,9000\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="floor_area_m2"):
        load_stock(path)


def test_load_stock_non_numeric_cell_names_row(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        "E01000001,detached,gas_boiler,5,12000,9000,110\n",
        "E01000002,flat,gas_boiler,5,oops,9000,110\n",
    ])
    with pytest.raises(ParseError, match="row 2"):
        load_stock(path)


def test_load_stock_duplicate_key(tmp_path):
    path = write_csv(tmp_path / "s.csv", [
        "E01000001,detached,gas_boiler,5,12000,9000,110\n",
        "E01000001,detached,gas_boiler,7,11000,9000,100\n",
    ])
    with pytest.raises(DuplicateRecordError):
        load_stock(path)


def test_load_stock_custom_schema(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "area,type,fuel,n,q_before,q_after,tfa\n"
        "E01000001,detached,gas_boiler,5,12000,9000,110\n",
        encoding="utf-8",
    )
    records = list(load_stock(path, schema={
        "lsoa_id": "area", "form": "type", "heating": "fuel", "count": "n",
        "annual_heat_demand_before": "q_before",
        "annual_heat_demand_after": "q_after",
        "floor_area": "tfa",
    }))
    assert records[0].floor_area == 110


def test_record_invariants():
    with pytest.raises(DataValidationError):
        make_record(count=-1)
    with pytest.raises(DataValidationError):
        make_record(before=0.0)
    with pytest.raises(DataValidationError):
        make_record(before=5000.0, after=6000.0)
    with pytest.raises(DataValidationError):
        make_record(floor_area=0.0)
    # zero-count rows may carry zero values
    zero = DwellingRecord("E01000001", GAS_DETACHED, 0, 0.0, 0.0, 0.0)
    assert zero.skippable


def test_round_trip_identity(tmp_path):
    records = [
        make_record(count=5, before=12345.678, after=9876.543, floor_area=101.25),
        make_record(category=GAS_FLAT, count=0, before=0.0, after=0.0, floor_area=0.0),
        make_record(lsoa_id="W01000009", count=2, before=8000.125, after=7000.0625,
                    floor_area=64.5),
        make_record(lsoa_id="a\rb", count=3),  # a bare carriage return reads back whole
    ]
    path = tmp_path / "out.csv"
    write_stock(StockTable.from_records(records), path)
    assert list(load_stock(path)) == records


@pytest.mark.parametrize("text_rows", [4096, 5])
def test_stock_and_params_writers_write_what_csv_writer_writes(tmp_path, monkeypatch, text_rows):
    # write_stock and write_params_csv write their rows without csv.writer;
    # the bytes must stay those of a writerow loop with repr, whatever the
    # LSOA id holds and wherever the floats lie, however many blocks of rows
    # float_text writes
    monkeypatch.setattr(stock_module, "_TEXT_ROWS", text_rows)
    ids = ["E01000001", "comma, id", 'quote " id', "new\nline", "carriage\rreturn", " space"]
    values = [(1e16, 1e16, 1e300), (12345.678, float(np.nextafter(1e-4, 0)), 5e-324),
              (1e-4, 1e-5, 101.25), (9.999e15, 5e-324, 0.1)]
    records = [make_record(lsoa_id=lsoa, category=category, count=i % 3 + 1, before=before,
                           after=after, floor_area=area)
               for i, (lsoa, (before, after, area), category) in enumerate(
                   (lsoa, v, c) for lsoa in ids for v, c in zip(values, (GAS_DETACHED, GAS_FLAT)))]
    records.insert(3, make_record(lsoa_id="E01000002", count=0, before=0.0, after=0.0,
                                  floor_area=0.0))

    def reference(path, header, rows):
        # csv.writer quotes a cell holding a bare \r only when its terminator
        # holds one: the rows end \r\n and then \n; no id here holds \r\n
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)
        return path.read_bytes().replace(b"\r\n", b"\n")

    write_stock(StockTable.from_records(records), tmp_path / "stock.csv")
    assert (tmp_path / "stock.csv").read_bytes() == reference(
        tmp_path / "stock_reference.csv", list(stock_module.DEFAULT_STOCK_SCHEMA.values()),
        ([r.lsoa_id, r.category.form.value, r.category.heating.value, r.count,
          repr(r.annual_heat_demand_before), repr(r.annual_heat_demand_after),
          repr(r.floor_area)] for r in records))

    params = derive_all(records, make_region_table(
        {lsoa: ("Wales", "LA") for lsoa in [*ids, "E01000002"]}))
    write_params_csv(params, tmp_path / "params.csv")
    live = [r for r in records if not r.skippable]
    assert (tmp_path / "params.csv").read_bytes() == reference(
        tmp_path / "params_reference.csv",
        ["lsoa_id", "form", "heating", "count", "ql_kw_per_c", "c_kj_per_k", "hp_kw"],
        ([r.lsoa_id, r.category.form.value, r.category.heating.value, r.count,
          *map(repr, values)] for r, values in zip(live, zip(
              params.heat_loss.tolist(), params.capacitance.tolist(), params.hp_size.tolist()))))


@pytest.mark.parametrize("json_layout", [False, True], ids=["csv", "json"])
def test_float_text_spells_every_float_as_repr(json_layout):
    # orjson spells a float as repr does only for +-0.0 and 1e-4 <= |x| < 1e16;
    # float_text must write repr's spelling of any float64 (json's NaN,
    # Infinity and -Infinity in the json layout), in the compact layout or in
    # json.dumps(indent=2)'s. A future orjson that spells a float another way
    # fails here
    rng = np.random.default_rng(22)
    bits = np.frombuffer(rng.bytes(8 * 1_000_000), dtype=np.float64)  # any bit pattern
    edges = [1e-4, 1e16, *(np.nextafter(v, to) for v in (1e-4, 1e16) for to in (0.0, np.inf))]
    named = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             np.nan, np.inf, -np.inf]
    blocks = [np.concatenate([bits, edges, np.negative(edges), named]).reshape(-1, 2),
              np.array([[1e16, np.nan], [5e-324, -np.inf], [1e-5, -1e300]]),  # all outside
              np.array([[1.0, 2.5], [1e-4, -0.0], [0.0, 9999999999999998.0]])]  # none outside
    special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"} if json_layout else {}
    for block in blocks:
        texts = list(float_text(block.T, json=json_layout))
        numbers = b",".join(texts).translate(None, b"[] \n").split(b",")
        assert numbers == [special.get(s, s).encode() for s in map(repr, block.ravel().tolist())]
        rows = block[:stock_module._TEXT_ROWS].tolist()  # the first block's layout, without
        assert bytes(texts[0]) == (  # the lists around the rows
            json.dumps([[[rows]]], indent=2)[19:-20] if json_layout else
            "],[".join(",".join(map(repr, r)) for r in rows)).encode()
    assert len(texts) == 1 and blocks[0].shape[0] > stock_module._TEXT_ROWS


# ---------------------------------------------------------------------------
# winsorization
# ---------------------------------------------------------------------------

def stock_with_demands(demands, category=GAS_DETACHED):
    return [
        make_record(lsoa_id=f"E01{i:06d}", category=category, count=1,
                    before=d, after=d / 2, floor_area=80.0)
        for i, d in enumerate(demands, start=1)
    ]


def test_winsorize_clamps_to_hand_computed_percentiles():
    demands = [float(i) for i in range(1, 101)]
    out = list(winsorize_stock(StockTable.from_records(stock_with_demands(demands)), 0.01, 0.99))

    lo = percentile_by_hand(demands, 0.01)
    hi = percentile_by_hand(demands, 0.99)
    expected = [min(max(d, lo), hi) for d in demands]
    assert [r.annual_heat_demand_before for r in out] == pytest.approx(expected)
    # endpoints moved, interior untouched
    assert out[0].annual_heat_demand_before == pytest.approx(1.99)
    assert out[-1].annual_heat_demand_before == pytest.approx(99.01)
    assert [r.annual_heat_demand_before for r in out[1:-1]] == demands[1:-1]
    # clipped-field extrema equal the computed bounds whenever clipping occurred
    assert min(r.annual_heat_demand_before for r in out) == pytest.approx(lo)
    assert max(r.annual_heat_demand_before for r in out) == pytest.approx(hi)


def test_winsorize_identical_values_noop():
    records = stock_with_demands([5000.0] * 20)
    assert list(winsorize_stock(StockTable.from_records(records))) == records


def test_winsorize_single_record_warns():
    records = stock_with_demands([5000.0])
    with pytest.warns(UserWarning, match="clipping skipped"):
        out = winsorize_stock(StockTable.from_records(records))
    assert list(out) == records


def test_winsorize_preserves_counts_order_and_length():
    demands = [float(i * 37 % 101 + 1) for i in range(60)]
    records = stock_with_demands(demands)
    out = winsorize_stock(StockTable.from_records(records))
    assert len(out) == len(records)
    assert [r.count for r in out] == [r.count for r in records]
    assert [r.lsoa_id for r in out] == [r.lsoa_id for r in records]


def test_winsorize_idempotent_at_order_statistic_positions():
    # 101 records put the 1st/99th percentiles exactly on order statistics,
    # where repeated clipping is a fixed point.
    demands = [float(i) for i in range(1, 102)]
    once = list(winsorize_stock(StockTable.from_records(stock_with_demands(demands)), 0.01, 0.99))
    twice = list(winsorize_stock(StockTable.from_records(once), 0.01, 0.99))
    assert twice == once
    assert max(r.annual_heat_demand_before for r in once) == 100.0
    assert min(r.annual_heat_demand_before for r in once) == 2.0


def test_winsorize_groups_per_category():
    # the flat group is tight, the detached group has an outlier; only the
    # detached group should move
    detached = stock_with_demands([1000.0] * 50 + [50000.0], category=GAS_DETACHED)
    flats = stock_with_demands([4000.0] * 30, category=GAS_FLAT)
    out = winsorize_stock(StockTable.from_records(detached + flats))
    assert all(r.annual_heat_demand_before == 4000.0 for r in out if r.category == GAS_FLAT)
    assert max(r.annual_heat_demand_before for r in out if r.category == GAS_DETACHED) < 50000.0


def test_winsorize_skips_zero_count_rows():
    records = stock_with_demands([float(i) for i in range(1, 101)])
    ghost = DwellingRecord("E01999999", GAS_DETACHED, 0, 1e9, 1e9, 1e9)
    out = list(winsorize_stock(StockTable.from_records(records + [ghost])))
    # the ghost neither moves the bounds nor gets clipped
    assert out[-1] == ghost
    assert out[:-1] == list(winsorize_stock(StockTable.from_records(records)))


def test_winsorize_bad_bounds():
    records = StockTable.from_records(stock_with_demands([1.0, 2.0]))
    with pytest.raises(DomainError):
        winsorize_stock(records, 0.5, 0.5)
    with pytest.raises(DomainError):
        winsorize_stock(records, -0.1, 0.9)


# ---------------------------------------------------------------------------
# the columnar path against the row-by-row reference
# ---------------------------------------------------------------------------

CATEGORIES = DwellingCategory.all()
FORM_SPELLINGS = {
    DwellingForm.DETACHED: ["detached", " Detached "],
    DwellingForm.SEMI_DETACHED: ["semi_detached", "Semi-Detached", "semidetached"],
    DwellingForm.TERRACED: ["terraced", "TERRACED"],
    DwellingForm.FLAT: ["flat", "Flat "],
}
HEATING_SPELLINGS = {
    HeatingSystem.GAS_BOILER: ["gas_boiler", "Gas Boiler", "gas"],
    HeatingSystem.RESISTANCE_HEATER: ["resistance_heater", "resistance heater", "Resistance"],
    HeatingSystem.BIOMASS_BOILER: ["biomass_boiler", "biomass"],
    HeatingSystem.OIL_BOILER: ["oil_boiler", "Oil Boiler", "oil"],
}
LSOA_REGIONS = {f"E0100000{i}": region for i, region in enumerate(
    ["Wales", "London", "North East", "South West", "East", "North West"], start=1)}


def reference_winsorize(records, lower_pct=0.01, upper_pct=0.99):
    """The record-by-record winsorize loop the columnar one replaced."""
    fields = ("annual_heat_demand_before", "annual_heat_demand_after", "floor_area")
    by_category = {}
    for i, record in enumerate(records):
        if not record.skippable:
            by_category.setdefault(record.category, []).append(i)
    out = list(records)
    for category, idxs in by_category.items():
        if len(idxs) < 2:
            warnings.warn(
                f"category {category.label()}: {len(idxs)} record(s), outlier clipping skipped")
            continue
        bounds = {}
        for field in fields:
            values = np.array([getattr(records[i], field) for i in idxs], dtype=float)
            lo, hi = np.percentile(values, [lower_pct * 100, upper_pct * 100])
            bounds[field] = (float(lo), float(hi))
        for i in idxs:
            out[i] = replace(records[i], **{f: min(max(getattr(records[i], f), lo), hi)
                                            for f, (lo, hi) in bounds.items()})
    return out


def reference_derive(records, regions, level, variant):
    """(heat loss, capacitance, heat pump size) of each live record from the scalar functions."""
    rows = []
    for r in records:
        if r.skippable:
            continue
        info = regions.info_for_lsoa(r.lsoa_id)
        demand = (r.annual_heat_demand_before if variant is StockVariant.BEFORE_EE
                  else r.annual_heat_demand_after)
        ql = heat_loss_coefficient(demand, info.heating_degree_days)
        rows.append((ql, thermal_capacity(r.floor_area, level),
                     size_heat_pump(ql, info.design_temp)))
    return np.array(rows, dtype=float).reshape(-1, 3).T


@st.composite
def stock_rows(draw):
    """(record, form spelling, heating spelling) rows with unique keys, zero-count rows
    among them, and one live record of the last category, which is alone in it."""
    keys = draw(st.lists(st.tuples(st.sampled_from(sorted(LSOA_REGIONS)),
                                   st.integers(0, len(CATEGORIES) - 2)),
                         unique=True, max_size=40))
    keys.append((draw(st.sampled_from(sorted(LSOA_REGIONS))), len(CATEGORIES) - 1))
    rows = []
    for i, (lsoa, code) in enumerate(keys):
        category = CATEGORIES[code]
        count = draw(st.integers(1 if i == len(keys) - 1 else 0, 300))
        if count == 0 and draw(st.booleans()):
            before = after = area = 0.0
        else:
            before = draw(st.floats(1.0, 1e6))
            after = before * draw(st.floats(0.01, 1.0))
            area = draw(st.floats(1.0, 2000.0))
        rows.append((DwellingRecord(lsoa, category, count, before, after, area),
                     draw(st.sampled_from(FORM_SPELLINGS[category.form])),
                     draw(st.sampled_from(HEATING_SPELLINGS[category.heating]))))
    return rows


def warning_texts(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(rows=stock_rows(), level=st.sampled_from(list(CapacityLevel)),
       variant=st.sampled_from(list(StockVariant)))
def test_columnar_stages_equal_record_reference(rows, level, variant):
    records = [r for r, _, _ in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path, aliased, rewritten = (Path(tmp) / name for name in ("s.csv", "a.csv", "r.csv"))
        write_stock(StockTable.from_records(records), path)
        write_stock(load_stock(path), rewritten)
        assert rewritten.read_bytes() == path.read_bytes()
        with open(aliased, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(path.read_text(encoding="utf-8").splitlines()[0].split(","))
            writer.writerows([r.lsoa_id, form, heating, r.count, repr(r.annual_heat_demand_before),
                              repr(r.annual_heat_demand_after), repr(r.floor_area)]
                             for r, form, heating in rows)
        stock = load_stock(aliased)
    assert len(stock) == len(records)
    assert list(stock) == records

    clipped, warned = warning_texts(winsorize_stock, stock)
    expected, expected_warned = warning_texts(reference_winsorize, records)
    assert warned == expected_warned
    assert any(CATEGORIES[-1].label() in w for w in warned)
    for column, field in (("demand_before", "annual_heat_demand_before"),
                          ("demand_after", "annual_heat_demand_after"),
                          ("floor_area", "floor_area")):
        assert np.array_equal(getattr(clipped, column),
                              np.array([getattr(r, field) for r in expected], dtype=float))
    assert list(clipped) == expected

    regions = make_region_table({lsoa: (region, "LA") for lsoa, region in LSOA_REGIONS.items()})
    params = derive_all(clipped, regions, level, variant)
    heat_loss, capacitance, hp_size = reference_derive(expected, regions, level, variant)
    assert np.array_equal(params.heat_loss, heat_loss)
    assert np.array_equal(params.capacitance, capacitance)
    assert np.array_equal(params.hp_size, hp_size)
    live = [r for r in expected if not r.skippable]
    assert list(params) == [(r.lsoa_id, r.category) for r in live]
    assert [params[(r.lsoa_id, r.category)].hp_size_thermal for r in live] == list(hp_size)


GOOD_ROWS = [
    "E01000001,detached,gas_boiler,5,12000,9000,110\n",
    "E01000001,semi_detached,gas_boiler,3,11000,8000,90\n",
]
LATER_BAD_ROW = "E01000003,igloo,gas_boiler,-1,x,1,1\n"  # faults of every kind, after row 3


FIRST_FAILING_ROWS = [
    ("E01000002,bungalow,gas_boiler,5,12000,9000,110", ParseError,
     "unknown dwelling form 'bungalow'"),
    ("E01000002,detached,steam,5,12000,9000,110", ParseError,
     "unknown heating system 'steam'"),
    ("E01000002,detached,gas_boiler,5,12k,9000,110", ParseError,
     "expected a number, got '12k'"),
    ("E01000002,detached,gas_boiler,2.5,12000,9000,110", ParseError,
     "expected an integer, got '2.5'"),
    ("E01000002,detached,gas_boiler,-1,12000,9000,110", DataValidationError,
     "E01000002: negative dwelling count -1"),
    ("E01000002,detached,gas_boiler,5,9000,12000,110", DataValidationError,
     "E01000002/detached/gas_boiler: heat demand after efficiency measures exceeds "
     "the demand before them"),
    ("E01000002,detached,gas_boiler,5,12000,9000,0", DataValidationError,
     "E01000002/detached/gas_boiler: floor area must be > 0"),
    ("E01000001,Semi-Detached,gas,4,12000,9000,110", DuplicateRecordError,
     "duplicate record for (E01000001, semi_detached/gas_boiler)"),
    ("E01000002,detached", ParseError, "unknown heating system ''"),  # a short row
    ("E01000002,detached,gas_boiler,inf,12000,9000,110", ParseError,
     "expected an integer, got 'inf'"),
    ("E01000002,detached,gas_boiler,5,nan,9000,110", ParseError,
     "expected a finite number, got 'nan'"),
    ("E01000002,detached,gas_boiler,5,12000,9000,-inf", ParseError,
     "expected a finite number, got '-inf'"),
]


@pytest.mark.parametrize("row, error, message", FIRST_FAILING_ROWS)
def test_load_stock_error_names_first_failing_row(tmp_path, row, error, message):
    # the class and full text a row-by-row reader gives, for the first row
    # that fails, whatever faults later rows hold
    path = write_csv(tmp_path / "s.csv", GOOD_ROWS + [row + "\n", LATER_BAD_ROW])
    with pytest.raises(DataValidationError) as info:
        load_stock(path)
    assert info.type is error
    assert str(info.value) == f"{path}: row 3: {message}"


# ---------------------------------------------------------------------------
# load_stock's row blocks, made 3 rows long so that small files span several
# ---------------------------------------------------------------------------

FILLER_ROWS = [f"E0100010{k},flat,gas_boiler,2,9000,8000,60\n" for k in range(8)]


def reference_load(path):
    """The stock a row-by-row csv.DictReader gives, for a file without faults."""
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [{k: v or "" for k, v in row.items()} for row in csv.DictReader(fh)]
    return StockTable.from_records(
        DwellingRecord(row["lsoa_id"].strip(), DwellingCategory.parse(row["form"], row["heating"]),
                       int(row["count"]), float(row["heat_demand_before_kwh"]),
                       float(row["heat_demand_after_kwh"]), float(row["floor_area_m2"]))
        for row in cells)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9])
def test_load_stock_across_blocks_equals_row_reader(tmp_path, monkeypatch, n):
    # the LSOA id is the last column, so every third row can stop short of
    # it and read as LSOA ""; LSOAs and spellings recur across blocks, and
    # blank lines sit between rows and at the end
    monkeypatch.setattr(stock_module, "_BLOCK", 3)
    lines = []
    for i in range(n):
        category = CATEGORIES[i]
        spellings = (FORM_SPELLINGS[category.form], HEATING_SPELLINGS[category.heating])
        form, heating = (names[i % len(names)] for names in spellings)
        count = i % 3  # rows 0, 3 and 6 are zero-count, and 0 and 6 carry zeros
        numbers = (["0"] * 3 if i % 6 == 0 else [f"{9000 + i}.5", f"{8000 + i}.25", f"{60 + i}"])
        cells = [form, heating, str(count), *numbers]
        if count != 2:
            cells.append(f"E0100000{i % 2}")
        lines.append(",".join(cells) + "\n")
        if i % 4 == 1:
            lines.append("\n")
    path = write_csv(tmp_path / "s.csv", lines + ["\n"],
                     header="form,heating,count,heat_demand_before_kwh,heat_demand_after_kwh,"
                            "floor_area_m2,lsoa_id\n")
    stock, expected = load_stock(path), reference_load(path)
    assert len(stock) == n
    assert stock.lsoa_ids == expected.lsoa_ids
    for name in ("lsoa_code", "category_code", "count", "demand_before", "demand_after",
                 "floor_area"):
        column, reference = getattr(stock, name), getattr(expected, name)
        assert column.dtype == reference.dtype and np.array_equal(column, reference), name
    assert list(stock) == list(expected)


@pytest.mark.parametrize("position", [3, 4, 8])  # block 1's last row, block 2's first, in block 3
@pytest.mark.parametrize("row, error, message", FIRST_FAILING_ROWS)
def test_load_stock_error_across_blocks(tmp_path, monkeypatch, position, row, error, message):
    monkeypatch.setattr(stock_module, "_BLOCK", 3)
    rows = GOOD_ROWS + FILLER_ROWS[:position - 3] + [row + "\n", LATER_BAD_ROW] + FILLER_ROWS[5:]
    path = write_csv(tmp_path / "s.csv", rows)
    with pytest.raises(DataValidationError) as info:
        load_stock(path)
    assert info.type is error
    assert str(info.value) == f"{path}: row {position}: {message}"


DUPLICATE_OF_ROW_1 = ("E01000001,detached,gas_boiler,7,11000,9000,100", DuplicateRecordError,
                      "duplicate record for (E01000001, detached/gas_boiler)")
BAD_CELL = ("E01000009,flat,gas_boiler,1,x,1,1", ParseError, "expected a number, got 'x'")


@pytest.mark.parametrize("first, second", [(DUPLICATE_OF_ROW_1, BAD_CELL),
                                           (BAD_CELL, DUPLICATE_OF_ROW_1)])
def test_load_stock_first_fault_wins_across_blocks(tmp_path, monkeypatch, first, second):
    # one fault at row 2 in block 1, the other at row 7 in block 3: the
    # earlier row names the error
    monkeypatch.setattr(stock_module, "_BLOCK", 3)
    path = write_csv(tmp_path / "s.csv", [GOOD_ROWS[0], first[0] + "\n", *FILLER_ROWS[:4],
                                          second[0] + "\n", FILLER_ROWS[4]])
    with pytest.raises(DataValidationError) as info:
        load_stock(path)
    assert info.type is first[1]
    assert str(info.value) == f"{path}: row 2: {first[2]}"


def test_load_stock_peak_memory_per_row(tmp_path):
    # the load holds the cell strings of one block at a time, not of the
    # whole file: about 110 bytes per row at the peak, where a loader that
    # keeps every cell until the end takes about 340
    records, _ = generate_stock(800_000, 7)
    path = tmp_path / "s.csv"
    write_stock(records, path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stock = load_stock(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(stock) >= 20_000
    assert peak / len(stock) < 200


def test_derive_error_names_first_failing_row():
    records = [make_record(lsoa_id=lsoa) for lsoa in ("E01000001", "E01000002", "E01000003")]
    table = RegionTable(
        regions={"Mild": RegionInfo("Mild", 2000.0, -3.0), "Hot": RegionInfo("Hot", 2000.0, 22.0),
                 "Dry": RegionInfo("Dry", 0.0, -3.0)},
        lsoa_to_region={"E01000001": "Mild", "E01000002": "Hot", "E01000003": "Dry"},
    )
    with pytest.raises(DomainError) as info:
        derive_all(records, table)
    assert str(info.value) == (
        "(E01000002, detached/gas_boiler): indoor design temperature 21.0 C must exceed "
        "the outdoor design temperature 22.0 C")
    with pytest.raises(DomainError) as info:
        derive_all(records[::-1], table)
    assert str(info.value) == (
        "(E01000003, detached/gas_boiler): heating degree days must be > 0, got 0.0")
