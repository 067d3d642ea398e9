"""Regional climate table and LSOA lookup.

Each region carries its heating degree days (base 15.5 C) and the outdoor
design temperature its heating systems are sized against. The packaged
default table covers the ten regions of England and Wales; users can supply
their own regions file to rerun with updated climates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import DanglingRegionError, DataValidationError, ParseError, UnresolvedLsoaError
from .stock import read_rows

# C, the indoor temperature every heat pump is sized to hold at its region's
# outdoor design temperature, which must therefore lie below it
DEFAULT_INDOOR_DESIGN_TEMP = 21.0


@dataclass(frozen=True)
class RegionInfo:
    name: str
    heating_degree_days: float  # C*days, base 15.5 C
    design_temp: float  # C, outdoor design temperature


@dataclass
class RegionTable:
    regions: dict[str, RegionInfo]
    lsoa_to_region: dict[str, str] = field(default_factory=dict)
    lsoa_to_local_authority: dict[str, str] = field(default_factory=dict)

    def info_for_region(self, region: str) -> RegionInfo:
        try:
            return self.regions[region]
        except KeyError:
            raise DanglingRegionError(f"unknown region {region!r}") from None

    def info_for_lsoa(self, lsoa_id: str) -> RegionInfo:
        region = self.lsoa_to_region.get(lsoa_id)
        if region is None:
            raise UnresolvedLsoaError([lsoa_id])
        return self.info_for_region(region)

    def local_authority_of(self, lsoa_id: str) -> str | None:
        return self.lsoa_to_local_authority.get(lsoa_id)

    def region_of(self, lsoa_id: str) -> str | None:
        return self.lsoa_to_region.get(lsoa_id)

    def validate_lsoas(self, lsoa_ids: Iterable[str]) -> None:
        """Raise UnresolvedLsoaError listing every id with no region mapping."""
        missing = {i for i in lsoa_ids if i not in self.lsoa_to_region}
        if missing:
            raise UnresolvedLsoaError(missing)


def default_regions_path() -> Path:
    """Path of the regional climate table shipped with the package."""
    return Path(str(resources.files("heatflex").joinpath("data/regions.csv")))


def load_region_table(
    regions_path: str | Path | None = None,
    lsoa_lookup_path: str | Path | None = None,
) -> RegionTable:
    """Load and validate the regions file plus an optional LSOA lookup.

    regions file columns: region, hdd, design_temp_c
    lookup file columns:  lsoa_id, region, local_authority

    Every lookup region must exist in the regions file (DanglingRegionError
    otherwise); conflicting duplicate lookup rows are rejected. A blank
    local_authority cell leaves its LSOA in no local authority.
    """
    if regions_path is None:
        regions_path = default_regions_path()

    regions: dict[str, RegionInfo] = {}
    rows = read_rows(regions_path, ("region", "hdd", "design_temp_c"))
    for row_no, (name, hdd, design) in enumerate(rows, start=1):
        name = name.strip()
        try:
            hdd = float(hdd)
            design = float(design)
        except ValueError:
            raise ParseError(f"{regions_path}: row {row_no}: non-numeric cell") from None
        if not (math.isfinite(hdd) and math.isfinite(design)):
            raise ParseError(f"{regions_path}: row {row_no}: non-finite cell")
        if hdd <= 0:
            raise DataValidationError(f"{regions_path}: {name}: heating degree days must be > 0")
        if design >= DEFAULT_INDOOR_DESIGN_TEMP:
            raise DataValidationError(
                f"{regions_path}: {name}: design temperature {design} C is not below "
                f"{DEFAULT_INDOOR_DESIGN_TEMP:g} C"
            )
        if name in regions:
            raise DataValidationError(f"{regions_path}: duplicate region {name!r}")
        regions[name] = RegionInfo(name, hdd, design)

    table = RegionTable(regions=regions)
    if lsoa_lookup_path is not None:
        _load_lookup(table, lsoa_lookup_path, regions_path)
    return table


def _load_lookup(table: RegionTable, path: str | Path, regions_path: str | Path) -> None:
    rows = read_rows(path, ("lsoa_id", "region", "local_authority"))
    for row_no, (lsoa, region, la) in enumerate(rows, start=1):
        lsoa = lsoa.strip()
        region = region.strip()
        la = la.strip() or None  # a blank cell: no local authority
        if region not in table.regions:
            raise DanglingRegionError(
                f"{path}: row {row_no}: region {region!r} not present in the regions table "
                f"{regions_path}"
            )
        prev = table.lsoa_to_region.get(lsoa)
        if prev is not None and (prev != region
                                 or table.lsoa_to_local_authority.get(lsoa) != la):
            raise DataValidationError(
                f"{path}: row {row_no}: conflicting mapping for LSOA {lsoa!r}"
            )
        table.lsoa_to_region[lsoa] = region
        if la is not None:
            table.lsoa_to_local_authority[lsoa] = la
