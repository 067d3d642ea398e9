"""Scenario assembly: indoor temperature assignment and stock-wide evaluation.

A scenario fixes the outdoor temperature, the indoor temperature model
(a single shared value or a truncated normal draw per dwelling), the stock
variant, the thermal capacity level and the heat pump uptake fraction, then
drives the RC core across every dwelling record. `run_sweep` is the one run
engine: it evaluates a list of scenarios in order (a capacity, outdoor or
indoor sweep, a before/after retrofit pair, or a single scenario) and
derives parameters and draws samples only when a scenario changes them.

Samples and outcomes are columns, one numpy array per field: `build_samples`
returns a `SampleTable` and `run_scenario` evaluates the whole table with
masked array expressions into a `ScenarioRun`. The kernel does the float
operations of `rc.evaluate` in the same order, so every row equals what the
scalar functions in `rc`, kept as the reference, return for it.

Randomness is reproducible and order-independent: each stock record owns a
counter-based Philox stream keyed by a stable hash of its (LSOA, category)
identity combined with the scenario seed, so reordering records, changing
the uptake fraction or sweeping capacity levels never perturbs the
temperatures any record receives.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, DomainError, MissingParamsError
from .rc import (INDOOR_TEMP_MAX, INDOOR_TEMP_MIN, ComfortBand, CopCurve, Direction,
                 RcDwelling, cop_at, evaluate)
from .regions import RegionTable
from .stock import DwellingCategory, DwellingRecord
from .thermal import CapacityLevel, ParamsMap, StockVariant, derive_all

DEFAULT_EXPANSION = 10  # sub-samples per record under a stochastic indoor model


@dataclass(frozen=True)
class FixedIndoor:
    """Every dwelling starts at the same indoor temperature."""

    temp: float = 19.0


@dataclass(frozen=True)
class TruncatedNormalIndoor:
    """Indoor temperatures drawn from a normal restricted to [low, high].

    Defaults describe typical wintertime indoor temperatures of UK housing.
    Draws use inverse-CDF sampling: a uniform variate is mapped through the
    normal quantile function restricted to the truncation interval, which is
    exact, vectorises well and is stable under seeding.
    """

    mean: float = 19.0
    sd: float = 2.5
    low: float = 14.0
    high: float = 24.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sd <= 0:
            raise ConfigError(f"standard deviation must be > 0, got {self.sd}")
        if self.low >= self.high:
            raise ConfigError(f"truncation bounds ({self.low}, {self.high}) are inverted")


IndoorTempModel = FixedIndoor | TruncatedNormalIndoor


def _uniforms(model: TruncatedNormalIndoor, n: int, stream_key: int) -> np.ndarray:
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([model.seed, stream_key]))
    )
    return rng.random(n)


def _truncated_normal(model: TruncatedNormalIndoor, u: np.ndarray) -> np.ndarray:
    """Map uniforms of any shape through the truncated normal quantile function."""
    a = (model.low - model.mean) / model.sd
    b = (model.high - model.mean) / model.sd
    fa, fb = ndtr(a), ndtr(b)
    return model.mean + model.sd * ndtri(fa + u * (fb - fa))


def sample_indoor_temps(
    model: IndoorTempModel, n: int, stream_key: int = 0
) -> np.ndarray:
    """Draw n indoor temperatures; deterministic given (model.seed, stream_key)."""
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    if isinstance(model, FixedIndoor):
        return np.full(n, model.temp, dtype=float)
    return _truncated_normal(model, _uniforms(model, n, stream_key))


def _record_stream_key(lsoa_id: str, category: DwellingCategory) -> int:
    """Stable 64-bit key for a record identity; independent of list order."""
    ident = f"{lsoa_id}|{category.form.value}|{category.heating.value}"
    return int.from_bytes(hashlib.blake2b(ident.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one run."""

    outdoor_temp: float
    indoor_model: IndoorTempModel
    stock_variant: StockVariant = StockVariant.BEFORE_EE
    capacity_level: CapacityLevel = CapacityLevel.MEDIUM
    uptake_fraction: float = 1.0
    comfort_band: ComfortBand = field(default_factory=ComfortBand)
    cop_curve: CopCurve = field(default_factory=CopCurve.default)

    def __post_init__(self) -> None:
        if not 0.0 <= self.uptake_fraction <= 1.0:
            raise ConfigError(
                f"uptake fraction must be within [0, 1], got {self.uptake_fraction}"
            )


_SAMPLE_COLUMNS = ("lsoa_code", "weight", "indoor_temp", "heat_loss", "capacitance", "hp_size")


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Evaluation samples as parallel columns, one row per sample.

    A sample is a (possibly fractional) bundle of identical dwellings.
    lsoa_code indexes lsoa_ids, the distinct LSOAs in order of first
    appearance; the thermal parameters keep the units of ThermalParams.
    """

    lsoa_ids: tuple[str, ...]
    lsoa_code: np.ndarray  # int, index into lsoa_ids
    weight: np.ndarray  # dwellings represented: count * uptake (/ expansion)
    indoor_temp: np.ndarray  # C
    heat_loss: np.ndarray  # kW/C
    capacitance: np.ndarray  # kJ/K
    hp_size: np.ndarray  # kW thermal

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, rows) -> "SampleTable":
        """The rows a slice, index array or mask selects; lsoa_ids is kept whole."""
        return SampleTable(self.lsoa_ids, *(getattr(self, c)[rows] for c in _SAMPLE_COLUMNS))


def build_samples(
    records: Sequence[DwellingRecord],
    params_map: ParamsMap,
    spec: ScenarioSpec,
    expansion: int = DEFAULT_EXPANSION,
) -> SampleTable:
    """Expand stock records into weighted evaluation samples.

    Under a fixed indoor model one sample per record suffices, since every
    dwelling in a record is identical. Under the stochastic model each record
    becomes `expansion` consecutive sub-samples of equal weight with
    independent temperature draws from the record's own stream.
    """
    if expansion < 1:
        raise ConfigError(f"expansion factor must be >= 1, got {expansion}")
    live = [r for r in records if not r.skippable]
    params = []
    for record in live:
        p = params_map.get((record.lsoa_id, record.category))
        if p is None:
            raise MissingParamsError(
                f"no derived parameters for ({record.lsoa_id}, {record.category.label()})"
            )
        params.append(p)
    codes: dict[str, int] = {}
    columns = [
        np.array([codes.setdefault(r.lsoa_id, len(codes)) for r in live], dtype=np.intp),
        np.array([r.count for r in live], dtype=float) * spec.uptake_fraction,
        np.array([p.heat_loss for p in params], dtype=float),
        np.array([p.capacitance for p in params], dtype=float),
        np.array([p.hp_size_thermal for p in params], dtype=float),
    ]
    model = spec.indoor_model
    if isinstance(model, FixedIndoor):
        indoor = np.full(len(live), model.temp, dtype=float)
    else:
        u = np.empty((len(live), expansion))
        for row, record in zip(u, live):
            row[:] = _uniforms(model, expansion, _record_stream_key(record.lsoa_id, record.category))
        indoor = _truncated_normal(model, u).ravel()
        columns[1] = columns[1] / expansion
        columns = [np.repeat(c, expansion) for c in columns]
    code, weight, heat_loss, capacitance, hp_size = columns
    return SampleTable(tuple(codes), code, weight, indoor, heat_loss, capacitance, hp_size)


ZERO, FINITE, UNBOUNDED, FAILED = range(4)  # codes of ScenarioRun.kind


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """Outcome columns of one scenario/direction run, row for row with its samples.

    magnitude is the signed electrical power in W (0 on zero and failed
    rows); duration is in seconds on finite rows, 0 on zero rows, inf on
    unbounded rows and nan on failed rows; kind holds a code per row.
    """

    samples: SampleTable
    spec: ScenarioSpec
    direction: Direction
    magnitude: np.ndarray
    duration: np.ndarray
    kind: np.ndarray  # int8: ZERO, FINITE, UNBOUNDED or FAILED

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, rows) -> "ScenarioRun":
        """The rows a slice, index array or mask selects."""
        return replace(self, samples=self.samples[rows], magnitude=self.magnitude[rows],
                       duration=self.duration[rows], kind=self.kind[rows])

    @cached_property
    def errors(self) -> tuple[tuple[int, str], ...]:
        """(row, rc's message) for every failed row, in row order."""
        return tuple((i, _failure(self.samples, i, self.spec, self.direction))
                     for i in np.flatnonzero(self.kind == FAILED).tolist())


def run_scenario(
    samples: SampleTable, spec: ScenarioSpec, direction: Direction
) -> ScenarioRun:
    """Evaluate every sample at the scenario's outdoor temperature.

    Each row gets what rc.evaluate returns for its dwelling: the array
    expressions below repeat its float operations in its order, and
    durations take math.log per row because np.log can differ in the last
    place. A row rc would reject (a non-positive R, C or heat pump size, an
    indoor temperature outside [INDOOR_TEMP_MIN, INDOOR_TEMP_MAX] or nan)
    is marked FAILED with rc's message instead of aborting the run. Rows
    are independent, so running the parts of any partition and
    concatenating gives the same run.
    """
    band, outdoor = spec.comfort_band, spec.outdoor_temp
    indoor = samples.indoor_temp
    with np.errstate(all="ignore"):  # failed rows may hold nan or inf
        # RcDwelling.from_params: kW/C -> C/W, kJ/K -> J/K, kW -> W
        r = 1.0 / (samples.heat_loss * 1000.0)
        c = samples.capacitance * 1000.0
        p_max = samples.hp_size * 1000.0
        failed = (r <= 0) | (c <= 0) | (p_max <= 0)
        failed |= ~((INDOOR_TEMP_MIN <= indoor) & (indoor <= INDOOR_TEMP_MAX))
        if direction is Direction.POSITIVE:
            limit = band.high
            t_ss = outdoor + p_max * r
            zero, unbounded = indoor >= limit, t_ss <= limit
        else:
            limit = band.low
            t_ss = outdoor + 0.0 * r
            zero, unbounded = indoor <= limit, t_ss >= limit
        kind = np.where(zero, ZERO, np.where(unbounded, UNBOUNDED, FINITE)).astype(np.int8)
        kind[failed] = FAILED
        finite = kind == FINITE

        duration = np.where(kind == UNBOUNDED, np.inf, 0.0)
        duration[failed] = np.nan
        ratio = (indoor[finite] - t_ss[finite]) / (limit - t_ss[finite])
        logs = np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
        duration[finite] = (r[finite] * c[finite]) * logs

        iq = np.minimum(np.maximum((indoor - outdoor) / r, 0.0), p_max)  # clamped output
        cop = cop_at(spec.cop_curve, outdoor)
        magnitude = (p_max - iq) / cop if direction is Direction.POSITIVE else -iq / cop
        magnitude[(kind == ZERO) | failed] = 0.0

    return ScenarioRun(samples, spec, direction, magnitude, duration, kind)


def _failure(samples: SampleTable, i: int, spec: ScenarioSpec, direction: Direction) -> str:
    """rc's message for a row the kernel marked failed."""
    try:
        dwelling = RcDwelling(
            resistance=1.0 / (float(samples.heat_loss[i]) * 1000.0),
            capacitance=float(samples.capacitance[i]) * 1000.0,
            hp_max_thermal=float(samples.hp_size[i]) * 1000.0,
        )
        evaluate(dwelling, float(samples.indoor_temp[i]), spec.outdoor_temp,
                 spec.cop_curve, spec.comfort_band, direction)
    except DomainError as exc:
        return str(exc)
    raise AssertionError(f"sample {i} failed in run_scenario but not in rc.evaluate")


def run_sweep(
    records: Sequence[DwellingRecord],
    regions: RegionTable,
    specs: Sequence[ScenarioSpec],
    direction: Direction,
    expansion: int = DEFAULT_EXPANSION,
) -> Iterator[ScenarioRun]:
    """Yield one run per spec, in order, reusing what consecutive specs share.

    Parameters depend only on (capacity_level, stock_variant), and samples
    only on the parameters and (indoor_model, uptake_fraction), so each is
    rebuilt only when those differ from the previous spec: an outdoor sweep
    derives and draws once. Draws are keyed by record identity and seed, so
    reuse never changes a run. The parameters are released before the last
    run is yielded; its samples stay with the run the caller holds.
    """
    if not specs:
        raise ConfigError("a sweep needs at least one scenario")
    params = samples = params_key = samples_key = None
    for i, spec in enumerate(specs):
        key = (spec.capacity_level, spec.stock_variant)
        if key != params_key:
            params = samples = None  # free the old ones before building new ones
            params, params_key = derive_all(records, regions, *key), key
        draw_key = (params_key, spec.indoor_model, spec.uptake_fraction)
        if draw_key != samples_key:
            samples = None
            samples, samples_key = build_samples(records, params, spec, expansion), draw_key
        run = run_scenario(samples, spec, direction)
        if i == len(specs) - 1:
            params = samples = None
        yield run
        run = None  # the caller owns it now; do not keep it through the next spec


def run_stock_scenario(
    records: Sequence[DwellingRecord],
    regions: RegionTable,
    spec: ScenarioSpec,
    direction: Direction,
    expansion: int = DEFAULT_EXPANSION,
) -> ScenarioRun:
    """Derive parameters, build samples and run one scenario: a one-spec sweep."""
    return next(run_sweep(records, regions, [spec], direction, expansion))
