"""Regional climate table: packaged defaults, lookup validation."""

import pytest

from heatflex import (
    DanglingRegionError,
    DataValidationError,
    ParseError,
    SchemaError,
    UnresolvedLsoaError,
    load_region_table,
    thermal,
)
from heatflex.cli import EXIT_DATA, EXIT_OK, main
from heatflex.regions import DEFAULT_INDOOR_DESIGN_TEMP, default_regions_path

# The ten regions of England and Wales: heating degree days (base 15.5 C)
# and outdoor design temperature, transcribed independently of the shipped
# data file so a regression in either is caught.
EXPECTED_REGIONS = {
    "East": (1873.6, -3.0),
    "East Midlands": (2055.7, -3.0),
    "London": (1773.5, -2.0),
    "North East": (2216.8, -5.0),
    "North West": (2359.8, -5.0),
    "South East": (1815.7, -1.0),
    "South West": (1740.6, -2.0),
    "Wales": (2058.9, -3.0),
    "West Midlands": (2055.7, -3.0),
    "Yorkshire and The Humber": (2216.8, -5.0),
}


def test_default_table_matches_published_values(default_regions):
    assert set(default_regions.regions) == set(EXPECTED_REGIONS)
    for name, (hdd, design) in EXPECTED_REGIONS.items():
        info = default_regions.regions[name]
        assert info.heating_degree_days == hdd
        assert info.design_temp == design


def test_named_queries(default_regions):
    wales = default_regions.info_for_region("Wales")
    assert (wales.heating_degree_days, wales.design_temp) == (2058.9, -3.0)
    nw = default_regions.info_for_region("North West")
    assert (nw.heating_degree_days, nw.design_temp) == (2359.8, -5.0)


def test_lookup_resolution(tmp_path):
    lookup = tmp_path / "lookup.csv"
    lookup.write_text(
        "lsoa_id,region,local_authority\n"
        "E01000001,Wales,Cardiff\n"
        "E01000002,London,Camden\n",
        encoding="utf-8",
    )
    table = load_region_table(lsoa_lookup_path=lookup)
    assert table.region_of("E01000001") == "Wales"
    assert table.local_authority_of("E01000002") == "Camden"
    assert table.info_for_lsoa("E01000001").design_temp == -3.0
    table.validate_lsoas(["E01000001", "E01000002"])


def test_dangling_region_rejected(tmp_path):
    lookup = tmp_path / "lookup.csv"
    lookup.write_text(
        "lsoa_id,region,local_authority\nS01000001,Scotland,Glasgow\n",
        encoding="utf-8",
    )
    with pytest.raises(DanglingRegionError, match="Scotland"):
        load_region_table(lsoa_lookup_path=lookup)


def test_unresolved_lsoas_listed(default_regions):
    with pytest.raises(UnresolvedLsoaError) as excinfo:
        default_regions.validate_lsoas(["E01xxxxxx", "E01yyyyyy"])
    assert excinfo.value.lsoa_ids == ("E01xxxxxx", "E01yyyyyy")
    assert "E01xxxxxx" in str(excinfo.value)


@pytest.mark.parametrize("rows", [
    "E01000001,Wales,Cardiff\nE01000001,London,Camden\n",
    # a blank local authority is none, which conflicts with a named one
    "E01000001,Wales,\nE01000001,Wales,Cardiff\n",
    "E01000001,Wales,Cardiff\nE01000001,Wales, \n",
])
def test_conflicting_lookup_rows_rejected(tmp_path, rows):
    lookup = tmp_path / "lookup.csv"
    lookup.write_text("lsoa_id,region,local_authority\n" + rows, encoding="utf-8")
    with pytest.raises(DataValidationError, match="conflicting"):
        load_region_table(lsoa_lookup_path=lookup)


def test_blank_local_authority_is_none(tmp_path):
    # a blank cell leaves the LSOA in its region but in no local authority,
    # rather than in one whose name is empty; a repeat of the row agrees
    lookup = tmp_path / "lookup.csv"
    lookup.write_text(
        "lsoa_id,region,local_authority\n"
        "E01000001,Wales,\n"
        "E01000002,Wales,Cardiff\n"
        "E01000001,Wales,  \n",
        encoding="utf-8",
    )
    table = load_region_table(lsoa_lookup_path=lookup)
    assert table.region_of("E01000001") == "Wales"
    assert table.local_authority_of("E01000001") is None
    assert table.lsoa_to_local_authority == {"E01000002": "Cardiff"}


def test_regions_file_validation(tmp_path):
    bad_hdd = tmp_path / "r1.csv"
    bad_hdd.write_text("region,hdd,design_temp_c\nNowhere,0,-3\n", encoding="utf-8")
    with pytest.raises(DataValidationError):
        load_region_table(bad_hdd)

    bad_design = tmp_path / "r2.csv"
    bad_design.write_text("region,hdd,design_temp_c\nNowhere,2000,25\n", encoding="utf-8")
    with pytest.raises(DataValidationError):
        load_region_table(bad_design)

    missing_col = tmp_path / "r3.csv"
    missing_col.write_text("region,hdd\nNowhere,2000\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="design_temp_c"):
        load_region_table(missing_col)


def test_region_at_the_indoor_design_temperature_is_refused(tmp_path):
    # a heat pump is sized by the gap between the indoor and the outdoor design
    # temperatures, so a region at the indoor one is refused, naming the value;
    # the table and the sizing read the same constant
    assert thermal.DEFAULT_INDOOR_DESIGN_TEMP is DEFAULT_INDOOR_DESIGN_TEMP == 21.0
    regions = tmp_path / "regions.csv"
    regions.write_text(f"region,hdd,design_temp_c\nLondon,1800,{DEFAULT_INDOOR_DESIGN_TEMP}\n",
                       encoding="utf-8")
    with pytest.raises(DataValidationError,
                       match=f"{regions}: London: design temperature 21.0 C is not below 21 C"):
        load_region_table(regions)
    regions.write_text("region,hdd,design_temp_c\nLondon,1800,20.9\n", encoding="utf-8")
    assert load_region_table(regions).regions["London"].design_temp == 20.9


def test_dangling_region_names_the_regions_file_too(tmp_path):
    # a region dropped from the regions file shows as a lookup row naming it:
    # the error names both files, since either may be the one at fault
    regions = tmp_path / "regions.csv"
    regions.write_text("region,hdd,design_temp_c\nLondon,1800,-2\n", encoding="utf-8")
    lookup = tmp_path / "lookup.csv"
    lookup.write_text("lsoa_id,region,local_authority\nE01000001,Wales,Cardiff\n",
                      encoding="utf-8")
    with pytest.raises(DanglingRegionError) as excinfo:
        load_region_table(regions, lookup)
    assert str(excinfo.value) == (
        f"{lookup}: row 1: region 'Wales' not present in the regions table {regions}")


def test_short_regions_row_is_a_non_numeric_cell(tmp_path):
    # a row that stops before design_temp_c reads that cell as "", which is
    # not a number, rather than as None
    regions = tmp_path / "regions.csv"
    regions.write_text("region,hdd,design_temp_c\nLondon,1800\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"{regions}: row 1: non-numeric cell"):
        load_region_table(regions)


def test_short_lookup_rows(tmp_path):
    # a lookup row that stops before local_authority leaves its LSOA in no
    # local authority, as a blank cell does; one that stops before region
    # names the region "", which the regions table does not have
    lookup = tmp_path / "lookup.csv"
    lookup.write_text("lsoa_id,region,local_authority\nE01000001,London\n", encoding="utf-8")
    table = load_region_table(lsoa_lookup_path=lookup)
    assert table.region_of("E01000001") == "London"
    assert table.local_authority_of("E01000001") is None

    lookup.write_text("lsoa_id,region,local_authority\nE01000001\n", encoding="utf-8")
    with pytest.raises(DanglingRegionError, match=f"{lookup}: row 1: region '' not present"):
        load_region_table(lsoa_lookup_path=lookup)


@pytest.mark.parametrize("regions_text, lookup_row, message", [
    ("region,hdd,design_temp_c\nLondon,1800\n", None, "{regions}: row 1: non-numeric cell"),
    (None, "E01000001", "{lookup}: row 1: region '' not present in the regions table {regions}"),
])
def test_short_rows_exit_2_from_the_cli(tmp_path, capsys, regions_text, lookup_row, message):
    stock, lookup = tmp_path / "stock.csv", tmp_path / "stock_lookup.csv"
    assert main(["synth", "--dwellings", "50", "--seed", "1", "--out", str(stock)]) == EXIT_OK
    argv = ["derive", "--stock", str(stock), "--lookup", str(lookup), "--winsorize", "none",
            "--out", str(tmp_path / "params.csv")]
    regions = default_regions_path()  # the table a lookup error names, with the lookup
    if regions_text is not None:
        regions = tmp_path / "regions.csv"
        regions.write_text(regions_text, encoding="utf-8")
        argv += ["--regions", str(regions)]
    if lookup_row is not None:
        lookup.write_text("lsoa_id,region,local_authority\n" + lookup_row + "\n",
                          encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "heatflex: data error: " + message.format(regions=regions, lookup=lookup)]
