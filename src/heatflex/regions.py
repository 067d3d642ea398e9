"""Regional climate table and LSOA lookup.

Each region carries its heating degree days (base 15.5 C) and the outdoor
design temperature its heating systems are sized against. The packaged
default table covers the ten regions of England and Wales; users can supply
their own regions file to rerun with updated climates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import (
    DanglingRegionError,
    DataValidationError,
    ParseError,
    SchemaError,
    UnresolvedLsoaError,
    csv_errors,
)


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
    with open(regions_path, newline="", encoding="utf-8") as fh, csv_errors(regions_path):
        reader = csv.DictReader(fh, restval="")  # a missing cell reads ""
        _require_columns(reader.fieldnames, ("region", "hdd", "design_temp_c"), regions_path)
        for row_no, row in enumerate(reader, start=1):
            name = row["region"].strip()
            try:
                hdd = float(row["hdd"])
                design = float(row["design_temp_c"])
            except ValueError:
                raise ParseError(f"{regions_path}: row {row_no}: non-numeric cell") from None
            if not (math.isfinite(hdd) and math.isfinite(design)):
                raise ParseError(f"{regions_path}: row {row_no}: non-finite cell")
            if hdd <= 0:
                raise DataValidationError(f"{regions_path}: {name}: heating degree days must be > 0")
            if design >= 21:
                raise DataValidationError(
                    f"{regions_path}: {name}: design temperature {design} C is not below 21 C"
                )
            if name in regions:
                raise DataValidationError(f"{regions_path}: duplicate region {name!r}")
            regions[name] = RegionInfo(name, hdd, design)

    table = RegionTable(regions=regions)
    if lsoa_lookup_path is not None:
        _load_lookup(table, lsoa_lookup_path)
    return table


def _load_lookup(table: RegionTable, path: str | Path) -> None:
    with open(path, newline="", encoding="utf-8") as fh, csv_errors(path):
        reader = csv.DictReader(fh, restval="")  # a missing cell reads ""
        _require_columns(reader.fieldnames, ("lsoa_id", "region", "local_authority"), path)
        for row_no, row in enumerate(reader, start=1):
            lsoa = row["lsoa_id"].strip()
            region = row["region"].strip()
            la = row["local_authority"].strip() or None  # a blank cell: no local authority
            if region not in table.regions:
                raise DanglingRegionError(
                    f"{path}: row {row_no}: region {region!r} not present in the regions table"
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


def _require_columns(fieldnames, required, path) -> None:
    present = fieldnames or []
    missing = [c for c in required if c not in present]
    if missing:
        raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
