"""Plain-text scenario files.

A scenario file is an INI-style document with key = value sections:

    [scenario]
    outdoor_temp = 5.0
    stock_variant = before        ; before | after
    capacity_level = medium       ; medium | medium+10 | medium-10
    uptake_fraction = 1.0

    [indoor]
    model = fixed                 ; fixed | truncated_normal
    temp = 19.0                   ; fixed only
    ; truncated_normal takes: mean, sd, low, high, seed

    [comfort]
    low = 18.0
    high = 24.0

    [cop]
    points = -5:2.0, 0:2.3, 5:2.4, 10:2.6

[comfort] and [cop] may be omitted and default to the values above.
Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import ConfigError, DomainError
from .rc import ComfortBand, CopCurve
from .scenario import FixedIndoor, ScenarioSpec, TruncatedNormalIndoor
from .thermal import CapacityLevel, StockVariant

_SCENARIO_KEYS = {"outdoor_temp", "stock_variant", "capacity_level", "uptake_fraction"}
_INDOOR_KEYS = {"model", "temp", "mean", "sd", "low", "high", "seed"}
_COMFORT_KEYS = {"low", "high"}
_COP_KEYS = {"points"}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "indoor": _INDOOR_KEYS,
    "comfort": _COMFORT_KEYS,
    "cop": _COP_KEYS,
}


def read_scenario(path: str | Path) -> ScenarioSpec:
    """The spec a scenario file describes; any refusal is a ConfigError that names the file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if parser.read(path, encoding="utf-8"):
            return _spec(parser)
    except (configparser.Error, UnicodeDecodeError, ConfigError, DomainError) as exc:
        raise ConfigError(f"{path}: {exc}") from None  # DomainError: an unknown capacity level
    raise ConfigError(f"scenario file not found: {path}")


def _spec(parser: configparser.ConfigParser) -> ScenarioSpec:
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        # items interpolates each value: a bad %(name)s raises here, not later
        unknown = {key for key, _ in parser.items(section)} - _SECTIONS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    for required in ("scenario", "indoor"):
        if required not in parser:
            raise ConfigError(f"missing required section [{required}]")

    sc = parser["scenario"]
    if "outdoor_temp" not in sc:
        raise ConfigError("[scenario] needs outdoor_temp")
    outdoor = _number(sc, "outdoor_temp", "")
    uptake = _number(sc, "uptake_fraction", "1.0")
    variant_token = sc.get("stock_variant", "before").strip().lower()
    try:
        variant = StockVariant(variant_token)
    except ValueError:
        raise ConfigError(f"unknown stock_variant {variant_token!r}") from None
    level = CapacityLevel.parse(sc.get("capacity_level", "medium"))

    indoor = _read_indoor(parser["indoor"])

    band = ComfortBand()
    if "comfort" in parser:
        cf = parser["comfort"]
        band = ComfortBand(low=_number(cf, "low", "18.0"), high=_number(cf, "high", "24.0"))

    curve = CopCurve.default()
    if "cop" in parser and "points" in parser["cop"]:
        curve = _parse_cop_points(parser["cop"]["points"])

    return ScenarioSpec(
        outdoor_temp=outdoor,
        indoor_model=indoor,
        stock_variant=variant,
        capacity_level=level,
        uptake_fraction=uptake,
        comfort_band=band,
        cop_curve=curve,
    )


def finite_float(raw: str) -> float:
    """raw as a float; ValueError unless it parses to a finite number."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _number(section, key: str, default: str) -> float:
    """section[key], or default when absent, as a finite float."""
    try:
        return finite_float(section.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from None


def _read_indoor(section):
    model = section.get("model", "").strip().lower()
    try:
        if model == "fixed":
            return FixedIndoor(temp=_number(section, "temp", "19.0"))
        if model == "truncated_normal":
            return TruncatedNormalIndoor(
                mean=_number(section, "mean", "19.0"),
                sd=_number(section, "sd", "2.5"),
                low=_number(section, "low", "14.0"),
                high=_number(section, "high", "24.0"),
                seed=int(section.get("seed", "0")),
            )
    except ValueError as exc:  # the seed
        raise ConfigError(f"[indoor]: {exc}") from None
    raise ConfigError("[indoor] model must be 'fixed' or 'truncated_normal'")


def _parse_cop_points(raw: str) -> CopCurve:
    points = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            temp_s, cop_s = token.split(":")
            points.append((finite_float(temp_s), finite_float(cop_s)))
        except ValueError:
            raise ConfigError(f"[cop] points: bad COP point {token!r}, "
                              "expected finite temp:cop") from None
    return CopCurve(points=tuple(points))


def write_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    """Write a scenario file that read_scenario maps back to an equal spec."""
    parser = configparser.ConfigParser()
    parser["scenario"] = {
        "outdoor_temp": repr(spec.outdoor_temp),
        "stock_variant": spec.stock_variant.value,
        "capacity_level": spec.capacity_level.token,
        "uptake_fraction": repr(spec.uptake_fraction),
    }
    if isinstance(spec.indoor_model, FixedIndoor):
        parser["indoor"] = {"model": "fixed", "temp": repr(spec.indoor_model.temp)}
    else:
        m = spec.indoor_model
        parser["indoor"] = {
            "model": "truncated_normal",
            "mean": repr(m.mean),
            "sd": repr(m.sd),
            "low": repr(m.low),
            "high": repr(m.high),
            "seed": str(m.seed),
        }
    parser["comfort"] = {
        "low": repr(spec.comfort_band.low),
        "high": repr(spec.comfort_band.high),
    }
    parser["cop"] = {
        "points": ", ".join(f"{t}:{c}" for t, c in spec.cop_curve.points)
    }
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
