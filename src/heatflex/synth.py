"""Synthetic dwelling stock generator for tests and demos.

Produces a stock table plus the matching LSOA lookup, with category mix,
heat demands and floor areas loosely shaped like the England and Wales
housing stock: gas boilers dominate, semi-detached houses are the largest
form, detached houses have the largest demands and floor areas. Fully
deterministic for a given seed.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from .regions import load_region_table
from .stock import DwellingCategory, DwellingForm, DwellingRecord, HeatingSystem

_FORM_WEIGHTS = {
    DwellingForm.DETACHED: 0.23,
    DwellingForm.SEMI_DETACHED: 0.31,
    DwellingForm.TERRACED: 0.23,
    DwellingForm.FLAT: 0.23,
}

_HEATING_WEIGHTS = {
    HeatingSystem.GAS_BOILER: 0.85,
    HeatingSystem.RESISTANCE_HEATER: 0.09,
    HeatingSystem.BIOMASS_BOILER: 0.03,
    HeatingSystem.OIL_BOILER: 0.03,
}

# (annual heat demand kWh/year, floor area m2) medians per form
_FORM_BASE = {
    DwellingForm.DETACHED: (16000.0, 120.0),
    DwellingForm.SEMI_DETACHED: (12000.0, 90.0),
    DwellingForm.TERRACED: (10000.0, 80.0),
    DwellingForm.FLAT: (7000.0, 55.0),
}

LSOAS_PER_LOCAL_AUTHORITY = 5


def generate_stock(
    n_dwellings: int,
    seed: int,
    lsoa_count: int | None = None,
    region_names: Sequence[str] | None = None,
) -> tuple[list[DwellingRecord], list[tuple[str, str, str]]]:
    """Build (records, lookup_rows) totalling exactly n_dwellings.

    lookup_rows are (lsoa_id, region, local_authority) tuples cycling the
    LSOAs through the supplied region names (the packaged regions by
    default); each local authority holds LSOAS_PER_LOCAL_AUTHORITY
    consecutive LSOAs of one region. Only non-empty (count > 0) cells are
    emitted.
    """
    if n_dwellings < 0:
        raise ValueError(f"dwelling count must be >= 0, got {n_dwellings}")
    if region_names is None:
        region_names = sorted(load_region_table().regions)
    rng = np.random.default_rng(seed)

    if lsoa_count is None:
        lsoa_count = max(1, n_dwellings // 600)

    categories = DwellingCategory.all()
    cat_weights = np.array(
        [_FORM_WEIGHTS[c.form] * _HEATING_WEIGHTS[c.heating] for c in categories]
    )
    cat_weights /= cat_weights.sum()

    lsoa_ids = [f"E01{i:06d}" for i in range(1, lsoa_count + 1)]
    lookup: list[tuple[str, str, str]] = []
    for i, lsoa in enumerate(lsoa_ids):
        region = region_names[i % len(region_names)]
        la_index = (i // len(region_names)) // LSOAS_PER_LOCAL_AUTHORITY
        lookup.append((lsoa, region, f"{region} LA {la_index:03d}"))

    per_lsoa = rng.multinomial(n_dwellings, np.full(lsoa_count, 1.0 / lsoa_count))
    records: list[DwellingRecord] = []
    for lsoa, lsoa_total in zip(lsoa_ids, per_lsoa):
        if lsoa_total == 0:
            continue
        per_cat = rng.multinomial(int(lsoa_total), cat_weights)
        for category, count in zip(categories, per_cat):
            if count == 0:
                continue
            demand_base, area_base = _FORM_BASE[category.form]
            before = float(demand_base * rng.lognormal(0.0, 0.15))
            after = float(before * rng.uniform(0.55, 0.85))
            area = float(area_base * rng.lognormal(0.0, 0.12))
            records.append(
                DwellingRecord(
                    lsoa_id=lsoa,
                    category=category,
                    count=int(count),
                    annual_heat_demand_before=before,
                    annual_heat_demand_after=after,
                    floor_area=area,
                )
            )
    return records, lookup


def write_lookup(lookup: Sequence[tuple[str, str, str]], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lsoa_id", "region", "local_authority"])
        writer.writerows(lookup)
