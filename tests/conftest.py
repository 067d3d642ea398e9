"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from heatflex import (
    Direction,
    Duration,
    DurationKind,
    DwellingCategory,
    DwellingForm,
    DwellingRecord,
    FixedIndoor,
    FlexOutcome,
    HeatingSystem,
    RegionTable,
    SampleTable,
    ScenarioRun,
    ScenarioSpec,
    load_region_table,
)
from heatflex.scenario import FAILED, FINITE, UNBOUNDED, ZERO
from heatflex.synth import generate_stock

GAS_DETACHED = DwellingCategory(DwellingForm.DETACHED, HeatingSystem.GAS_BOILER)
GAS_FLAT = DwellingCategory(DwellingForm.FLAT, HeatingSystem.GAS_BOILER)


@pytest.fixture(scope="session")
def default_regions() -> RegionTable:
    return load_region_table()


def make_region_table(lsoa_regions: dict[str, tuple[str, str]]) -> RegionTable:
    """Default regional climates plus an in-memory lsoa -> (region, la) lookup."""
    table = load_region_table()
    for lsoa, (region, la) in lsoa_regions.items():
        table.lsoa_to_region[lsoa] = region
        table.lsoa_to_local_authority[lsoa] = la
    return table


def make_record(
    lsoa_id: str = "E01000001",
    category: DwellingCategory = GAS_DETACHED,
    count: int = 10,
    before: float = 10000.0,
    after: float = 5000.0,
    floor_area: float = 100.0,
) -> DwellingRecord:
    return DwellingRecord(
        lsoa_id=lsoa_id,
        category=category,
        count=count,
        annual_heat_demand_before=before,
        annual_heat_demand_after=after,
        floor_area=floor_area,
    )


class Sample(NamedTuple):
    """One row of a SampleTable, as tests write samples by hand and read them back."""

    lsoa_id: str
    weight: float
    indoor_temp: float
    heat_loss: float
    capacitance: float
    hp_size: float


_FLOAT_COLUMNS = ("weight", "indoor_temp", "heat_loss", "capacitance", "hp_size")
_RECORD_COLUMNS = ("lsoa_code", "weight", "heat_loss", "capacitance", "hp_size")


def column(table: SampleTable, name: str) -> np.ndarray:
    """One value per sample of any column: a record column is gathered through record."""
    values = getattr(table, name)
    return values if name == "indoor_temp" else values[table.record]


def make_sample(
    weight: float = 1.0,
    indoor: float = 19.0,
    heat_loss: float = 0.2,
    capacitance: float = 25000.0,
    hp_size: float = 4.8,
    lsoa_id: str = "E01000001",
) -> Sample:
    return Sample(lsoa_id, weight, indoor, heat_loss, capacitance, hp_size)


def make_table(samples: list[Sample]) -> SampleTable:
    """A table with one record per sample."""
    lsoa_ids = tuple(dict.fromkeys(s.lsoa_id for s in samples))
    code = {lsoa: i for i, lsoa in enumerate(lsoa_ids)}
    return SampleTable(
        lsoa_ids,
        np.array([code[s.lsoa_id] for s in samples], dtype=np.intp),
        *(np.array([getattr(s, c) for s in samples], dtype=float) for c in _RECORD_COLUMNS[1:]),
        record=np.arange(len(samples), dtype=np.int32),
        indoor_temp=np.array([s.indoor_temp for s in samples], dtype=float),
    )


def samples_of(table: SampleTable) -> list[Sample]:
    columns = [column(table, c).tolist() for c in _FLOAT_COLUMNS]
    return [Sample(table.lsoa_ids[code], *row)
            for code, *row in zip(column(table, "lsoa_code").tolist(), *columns)]


_KIND_CODES = {DurationKind.ZERO: ZERO, DurationKind.FINITE: FINITE,
               DurationKind.UNBOUNDED: UNBOUNDED}


def make_run(pairs: list[tuple[Sample, FlexOutcome]]) -> ScenarioRun:
    """The run columns holding these (sample, outcome) pairs, none failed."""
    durations = [o.duration for _, o in pairs]
    return ScenarioRun(
        samples=make_table([s for s, _ in pairs]),
        spec=ScenarioSpec(outdoor_temp=0.0, indoor_model=FixedIndoor()),
        direction=Direction.NEGATIVE,  # used only to report failed rows, and none fail
        magnitude=np.array([o.magnitude_electric for _, o in pairs], dtype=float),
        duration=np.array([d.seconds if d.is_finite else np.inf if d.is_unbounded else 0.0
                           for d in durations], dtype=float),
        kind=np.array([_KIND_CODES[d.kind] for d in durations], dtype=np.int8),
    )


def outcome_at(run: ScenarioRun, i: int) -> FlexOutcome:
    """Row i of a run as the scalar rc.evaluate would return it."""
    code = int(run.kind[i])
    assert code < FAILED
    duration = (Duration.finite(float(run.duration[i])) if code == FINITE
                else Duration.unbounded() if code == UNBOUNDED else Duration.zero())
    return FlexOutcome(magnitude_electric=float(run.magnitude[i]), duration=duration)


def pairs_of(run: ScenarioRun) -> list[tuple[Sample, FlexOutcome]]:
    """(sample, outcome) for every row that did not fail, in row order."""
    samples = samples_of(run.samples)
    return [(samples[i], outcome_at(run, i)) for i in np.flatnonzero(run.kind < FAILED)]


def concat_runs(head: ScenarioRun, tail: ScenarioRun) -> ScenarioRun:
    """Two runs of one scenario over slices of one sample table, joined back in order."""
    assert head.samples.lsoa_ids == tail.samples.lsoa_ids
    assert all(getattr(head.samples, c) is getattr(tail.samples, c) for c in _RECORD_COLUMNS)
    assert (head.spec, head.direction) == (tail.spec, tail.direction)
    return ScenarioRun(
        samples=replace(head.samples, **{
            c: np.concatenate([getattr(head.samples, c), getattr(tail.samples, c)])
            for c in ("record", "indoor_temp")}),
        spec=head.spec,
        direction=head.direction,
        magnitude=np.concatenate([head.magnitude, tail.magnitude]),
        duration=np.concatenate([head.duration, tail.duration]),
        kind=np.concatenate([head.kind, tail.kind]),
    )


def runs_equal(a: ScenarioRun, b: ScenarioRun) -> bool:
    """Same samples (each sample's LSOA, weight, parameters and indoor
    temperature), equal outcome columns (nan equal to nan), same failures."""
    columns = [(column(a.samples, c), column(b.samples, c))
               for c in ("lsoa_code", *_FLOAT_COLUMNS)]
    columns += [(a.magnitude, b.magnitude), (a.duration, b.duration), (a.kind, b.kind)]
    return (
        a.samples.lsoa_ids == b.samples.lsoa_ids
        and all(np.array_equal(x, y, equal_nan=True) for x, y in columns)
        and a.failures() == b.failures()
    )


@pytest.fixture(scope="session")
def small_stock():
    """A deterministic 2000-dwelling stock covering all ten regions."""
    records, lookup = generate_stock(2000, seed=11, lsoa_count=20)
    table = make_region_table({l: (r, la) for l, r, la in lookup})
    return records, table


# ---------------------------------------------------------------------------
# Independent oracles. These never call into the code paths they check.
# ---------------------------------------------------------------------------

def percentile_by_hand(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, written from scratch."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    lo = int(position)
    frac = position - lo
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def euler_time_to_limit(
    resistance: float,
    capacitance: float,
    indoor: float,
    outdoor: float,
    power: float,
    limit: float,
    rising: bool,
    steps_per_tau: int = 1000,
) -> tuple[str, float | None]:
    """Forward-Euler time-to-threshold of the heat balance equation.

    Classification mirrors the exponential approach to the steady state:
    zero if the start is already at/beyond the limit, unbounded if the limit
    is not strictly between the start and the steady state (the trajectory
    is monotone), finite otherwise with the crossing time interpolated
    within the crossing step.
    """
    if rising and indoor >= limit:
        return ("zero", None)
    if not rising and indoor <= limit:
        return ("zero", None)
    steady = outdoor + power * resistance
    if not (min(indoor, steady) < limit < max(indoor, steady)):
        return ("unbounded", None)
    tau = resistance * capacitance
    dt = tau / steps_per_tau
    temp = indoor
    elapsed = 0.0
    while True:
        new = temp + dt * (power - (temp - outdoor) / resistance) / capacitance
        if (rising and new >= limit) or (not rising and new <= limit):
            frac = (limit - temp) / (new - temp)
            return ("finite", elapsed + frac * dt)
        temp = new
        elapsed += dt
        if elapsed > 1000 * tau:  # safety net, unreachable for finite cases
            raise AssertionError("euler oracle failed to cross the limit")
