"""Per-dwelling thermal physics derived from the stock table.

Three quantities per (LSOA, category) record:

  heat loss coefficient  [kW/C]  = annual heat demand / heating degree hours
  thermal capacitance    [kJ/K]  = floor area * specific thermal capacity
  heat pump size         [kW_th] = (indoor design temp - outdoor design temp) * heat loss

Heating degree days are published per region in C*days; the heat-loss
formula consumes degree hours, hence the fixed *24 conversion. Units here
stay in kW and kJ; the transient core converts to W and J at its boundary.

`derive_all` computes the three quantities for every live row of a stock at
once and returns a `ThermalTable` of columns. It does the float operations
of the scalar functions below in the same order, so each row equals what
they return for it; they stay as the reference that tests check it against,
and they word the error for the first row outside their domain. The table
holds its stock, so what reads it next takes the table alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .regions import DEFAULT_INDOOR_DESIGN_TEMP, RegionTable
from .stock import (CATEGORIES, CATEGORY_CODE, DwellingCategory, DwellingRecord, StockTable,
                    _write_rows)

HOURS_PER_DAY = 24.0  # degree days -> degree hours


class CapacityLevel(Enum):
    """Specific thermal capacity level, kJ/m2/K."""

    MEDIUM = 250.0
    MEDIUM_PLUS_10 = 275.0
    MEDIUM_MINUS_10 = 225.0

    @property
    def specific_capacity(self) -> float:
        return self.value

    @staticmethod
    def parse(token: str) -> "CapacityLevel":
        try:
            return _CAPACITY_TOKENS[token.strip().lower()]
        except KeyError:
            raise DomainError(f"unknown capacity level {token!r}") from None

    @property
    def token(self) -> str:
        return next(token for token, level in _CAPACITY_TOKENS.items() if level is self)


_CAPACITY_TOKENS = {
    "medium": CapacityLevel.MEDIUM,
    "medium+10": CapacityLevel.MEDIUM_PLUS_10,
    "medium-10": CapacityLevel.MEDIUM_MINUS_10,
}


class StockVariant(Enum):
    BEFORE_EE = "before"  # heat demand before energy efficiency measures
    AFTER_EE = "after"  # reduced demand, heat pumps resized accordingly


@dataclass(frozen=True)
class ThermalParams:
    heat_loss: float  # kW/C
    capacitance: float  # kJ/K
    hp_size_thermal: float  # kW thermal output at design conditions
    design_temp: float  # C, regional outdoor design temperature


def heat_loss_coefficient(annual_heat_demand: float, hdd: float) -> float:
    """Heat loss in kW/C from annual demand (kWh/year) and degree days (C*days)."""
    if annual_heat_demand <= 0:
        raise DomainError(f"annual heat demand must be > 0, got {annual_heat_demand}")
    if hdd <= 0:
        raise DomainError(f"heating degree days must be > 0, got {hdd}")
    return annual_heat_demand / (hdd * HOURS_PER_DAY)


def thermal_capacity(floor_area: float, level: CapacityLevel) -> float:
    """Thermal capacitance in kJ/K from floor area (m2) and capacity level."""
    if floor_area <= 0:
        raise DomainError(f"floor area must be > 0, got {floor_area}")
    return floor_area * level.specific_capacity


def size_heat_pump(
    heat_loss: float,
    design_temp: float,
    indoor_design_temp: float = DEFAULT_INDOOR_DESIGN_TEMP,
) -> float:
    """Heat pump thermal size in kW: holds the indoor design temp at the design outdoor temp."""
    if indoor_design_temp <= design_temp:
        raise DomainError(
            f"indoor design temperature {indoor_design_temp} C must exceed the "
            f"outdoor design temperature {design_temp} C"
        )
    if heat_loss <= 0:
        raise DomainError(f"heat loss must be > 0, got {heat_loss}")
    return (indoor_design_temp - design_temp) * heat_loss


@dataclass(frozen=True, eq=False)
class ThermalTable(Mapping):
    """Derived parameters of a stock's live rows (count > 0), as columns.

    Row j holds the parameters of stock row rows[j]. The table is also a
    read-only mapping from (lsoa_id, category) to ThermalParams, for callers
    that look records up one at a time; its index is built on the first lookup.
    """

    stock: StockTable  # the stock the parameters were derived from
    rows: np.ndarray  # indices of its live rows, in row order
    heat_loss: np.ndarray  # kW/C
    capacitance: np.ndarray  # kJ/K
    hp_size: np.ndarray  # kW thermal output at design conditions
    design_temp: np.ndarray  # C, regional outdoor design temperature

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[str, DwellingCategory]]:
        return ((lsoa_id, CATEGORIES[code]) for lsoa_id, code in self.stock.keys(self.rows))

    def __getitem__(self, key: tuple[str, DwellingCategory]) -> ThermalParams:
        j = self._index[(key[0], CATEGORY_CODE[key[1]])]
        return ThermalParams(float(self.heat_loss[j]), float(self.capacitance[j]),
                             float(self.hp_size[j]), float(self.design_temp[j]))

    @cached_property
    def _index(self) -> dict[tuple[str, int], int]:
        return {key: j for j, key in enumerate(self.stock.keys(self.rows))}


def derive_all(
    stock: StockTable | Iterable[DwellingRecord],
    regions: RegionTable,
    level: CapacityLevel = CapacityLevel.MEDIUM,
    variant: StockVariant = StockVariant.BEFORE_EE,
) -> ThermalTable:
    """Derive the thermal parameters of every row with count > 0.

    The stock variant selects which annual heat demand drives the heat loss;
    under AFTER_EE the heat pump is resized from the reduced heat loss while
    the capacitance (floor area based) is unchanged. Heat pumps are sized
    for DEFAULT_INDOOR_DESIGN_TEMP indoors. Degree days and design
    temperature are looked up once per distinct LSOA. A row outside the
    domain of the scalar functions raises their DomainError, for the first
    such row.
    """
    if not isinstance(stock, StockTable):  # records: perfbench/worker.py is the last such caller
        stock = StockTable.from_records(stock)
    rows = np.flatnonzero(stock.count > 0)
    lsoa = stock.lsoa_code[rows]
    used = np.unique(lsoa).tolist()
    regions.validate_lsoas({stock.lsoa_ids[c] for c in used})
    climate = np.zeros((len(stock.lsoa_ids), 2))  # (degree days, design temperature) per LSOA
    for c in used:
        info = regions.info_for_lsoa(stock.lsoa_ids[c])
        climate[c] = info.heating_degree_days, info.design_temp
    hdd, design = climate[lsoa].T
    demand = (stock.demand_before if variant is StockVariant.BEFORE_EE
              else stock.demand_after)[rows]
    area = stock.floor_area[rows]
    with np.errstate(all="ignore"):  # rows outside the domain are reported below
        ql = demand / (hdd * HOURS_PER_DAY)
        cap = area * level.specific_capacity
        size = (DEFAULT_INDOOR_DESIGN_TEMP - design) * ql
    bad = ((demand <= 0) | (hdd <= 0) | (area <= 0) | (DEFAULT_INDOOR_DESIGN_TEMP <= design)
           | (ql <= 0))
    if bad.any():
        j = int(np.argmax(bad))
        try:
            heat_loss = heat_loss_coefficient(float(demand[j]), float(hdd[j]))
            thermal_capacity(float(area[j]), level)
            size_heat_pump(heat_loss, float(design[j]))
        except DomainError as exc:
            lsoa_id, code = stock.keys(rows[j:j + 1])[0]
            raise DomainError(f"({lsoa_id}, {CATEGORIES[code].label()}): {exc}") from exc
        raise AssertionError(f"live row {j} is outside the domain of derive_all only")
    return ThermalTable(stock, rows, ql, cap, size, design)


def total_installed_thermal_kw(params: ThermalTable) -> float:
    """Installed heat pump capacity of the stock, kW thermal = sum(count * size), in row order."""
    total = np.cumsum(params.stock.count[params.rows] * params.hp_size)  # left to right
    return float(total[-1]) if len(total) else 0.0


def write_params_csv(params: ThermalTable, path: str | Path) -> None:
    """Export derived parameters, one row per stock row with count > 0."""
    with open(path, "wb") as fh:
        fh.write(b"lsoa_id,form,heating,count,ql_kw_per_c,c_kj_per_k,hp_kw\n")
        _write_rows(fh, params.stock, params.rows,
                    (params.heat_loss, params.capacitance, params.hp_size))
