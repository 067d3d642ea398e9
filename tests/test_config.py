"""Scenario file round trip and strict key validation."""

import pytest

from heatflex import (
    CapacityLevel,
    ComfortBand,
    ConfigError,
    CopCurve,
    FixedIndoor,
    ScenarioSpec,
    StockVariant,
    TruncatedNormalIndoor,
    read_scenario,
    write_scenario,
)


def test_round_trip_fixed(tmp_path):
    spec = ScenarioSpec(
        outdoor_temp=-5.0,
        indoor_model=FixedIndoor(20.5),
        stock_variant=StockVariant.AFTER_EE,
        capacity_level=CapacityLevel.MEDIUM_PLUS_10,
        uptake_fraction=0.28,
        comfort_band=ComfortBand(low=17.0, high=25.0),
        cop_curve=CopCurve(points=((-7.0, 1.9), (12.0, 2.8))),
    )
    path = tmp_path / "scenario.ini"
    write_scenario(spec, path)
    assert read_scenario(path) == spec


def test_round_trip_truncated_normal(tmp_path):
    spec = ScenarioSpec(
        outdoor_temp=10.0,
        indoor_model=TruncatedNormalIndoor(mean=18.5, sd=2.0, low=15.0, high=23.0, seed=99),
    )
    path = tmp_path / "scenario.ini"
    write_scenario(spec, path)
    assert read_scenario(path) == spec


def test_defaults_applied(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = fixed\ntemp = 19\n",
        encoding="utf-8",
    )
    spec = read_scenario(path)
    assert spec.uptake_fraction == 1.0
    assert spec.stock_variant is StockVariant.BEFORE_EE
    assert spec.capacity_level is CapacityLevel.MEDIUM
    assert spec.comfort_band == ComfortBand(18.0, 24.0)
    assert spec.cop_curve == CopCurve.default()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\noutdoor_temp = 5\nwind_speed = 3\n\n[indoor]\nmodel = fixed\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="wind_speed"):
        read_scenario(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = fixed\n\n[solar]\ngain = 1\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="solar"):
        read_scenario(path)


def test_missing_pieces_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[scenario]\noutdoor_temp = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="indoor"):
        read_scenario(path)

    path.write_text("[scenario]\nuptake_fraction = 1\n\n[indoor]\nmodel = fixed\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="outdoor_temp"):
        read_scenario(path)

    path.write_text("[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = sinusoid\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="model"):
        read_scenario(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        read_scenario(tmp_path / "nope.ini")


def test_bad_cop_points_rejected(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = fixed\n\n"
        "[cop]\npoints = -5;2.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="COP point"):
        read_scenario(path)


@pytest.mark.parametrize("body, message", [
    ("[scenario]\noutdoor_temp = nan\n", "[scenario] outdoor_temp: expected a finite number"),
    ("[scenario]\noutdoor_temp = 5\nuptake_fraction = 1e999\n",
     "[scenario] uptake_fraction: expected a finite number, got '1e999'"),
    ("[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = truncated_normal\nsd = nan\n",
     "[indoor] sd: expected a finite number, got 'nan'"),
    ("[scenario]\noutdoor_temp = 5\n\n[indoor]\nmodel = fixed\ntemp = -inf\n",
     "[indoor] temp: expected a finite number, got '-inf'"),
    ("[scenario]\noutdoor_temp = 5\n\n[comfort]\nlow = nan\n",
     "[comfort] low: expected a finite number, got 'nan'"),
    ("[scenario]\noutdoor_temp = 5\n\n[cop]\npoints = -5:2.0, inf:2.3\n",
     "[cop] points: bad COP point 'inf:2.3'"),
    ("[scenario]\noutdoor_temp = 5\n\n[cop]\npoints = -5:nan, 0:2.3\n",
     "[cop] points: bad COP point '-5:nan'"),
])
def test_non_finite_number_rejected_naming_section_and_key(tmp_path, body, message):
    path = tmp_path / "scenario.ini"
    if "[indoor]" not in body:
        body += "\n[indoor]\nmodel = fixed\n"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        read_scenario(path)
    assert message in str(exc.value)
