"""Scenario assembly: indoor temperature assignment and stock-wide evaluation.

A scenario fixes the outdoor temperature, the indoor temperature model
(a single shared value or a truncated normal draw per dwelling), the stock
variant, the thermal capacity level and the heat pump uptake fraction, then
drives the RC core across every dwelling record. `run_sweep` is the one run
engine: it evaluates a list of scenarios in order (a capacity, outdoor or
indoor sweep, a before/after retrofit pair, or a single scenario) and
derives parameters and draws samples only when a scenario changes them.

Randomness is reproducible and order-independent: each stock record owns a
counter-based Philox stream keyed by a stable hash of its (LSOA, category)
identity combined with the scenario seed, so reordering records, changing
the uptake fraction or sweeping capacity levels never perturbs the
temperatures any record receives.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, MissingParamsError
from .rc import ComfortBand, CopCurve, Direction, FlexOutcome, RcDwelling, evaluate
from .regions import RegionTable
from .stock import DwellingCategory, DwellingRecord
from .thermal import CapacityLevel, ParamsMap, StockVariant, ThermalParams, derive_all

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


def sample_indoor_temps(
    model: IndoorTempModel, n: int, stream_key: int = 0
) -> np.ndarray:
    """Draw n indoor temperatures; deterministic given (model.seed, stream_key)."""
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    if isinstance(model, FixedIndoor):
        return np.full(n, model.temp, dtype=float)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([model.seed, stream_key]))
    )
    a = (model.low - model.mean) / model.sd
    b = (model.high - model.mean) / model.sd
    fa, fb = ndtr(a), ndtr(b)
    u = rng.random(n)
    return model.mean + model.sd * ndtri(fa + u * (fb - fa))


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


@dataclass(frozen=True)
class DwellingSample:
    """One evaluation unit: a (possibly fractional) bundle of identical dwellings."""

    lsoa_id: str
    category: DwellingCategory
    weight: float  # dwellings represented: count * uptake (/ expansion)
    indoor_temp: float
    params: ThermalParams

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError(f"sample weight must be >= 0, got {self.weight}")

    @property
    def max_heat_output_w(self) -> float:
        return self.params.hp_size_thermal * 1000.0


def build_samples(
    records: Sequence[DwellingRecord],
    params_map: ParamsMap,
    spec: ScenarioSpec,
    expansion: int = DEFAULT_EXPANSION,
) -> list[DwellingSample]:
    """Expand stock records into weighted evaluation samples.

    Under a fixed indoor model one sample per record suffices, since every
    dwelling in a record is identical. Under the stochastic model each record
    becomes `expansion` sub-samples of equal weight with independent
    temperature draws from the record's own stream.
    """
    if expansion < 1:
        raise ConfigError(f"expansion factor must be >= 1, got {expansion}")
    samples: list[DwellingSample] = []
    for record in records:
        if record.skippable:
            continue
        key = (record.lsoa_id, record.category)
        params = params_map.get(key)
        if params is None:
            raise MissingParamsError(
                f"no derived parameters for ({record.lsoa_id}, {record.category.label()})"
            )
        weight = record.count * spec.uptake_fraction
        if isinstance(spec.indoor_model, FixedIndoor):
            samples.append(
                DwellingSample(
                    lsoa_id=record.lsoa_id,
                    category=record.category,
                    weight=weight,
                    indoor_temp=spec.indoor_model.temp,
                    params=params,
                )
            )
        else:
            stream = _record_stream_key(record.lsoa_id, record.category)
            temps = sample_indoor_temps(spec.indoor_model, expansion, stream_key=stream)
            sub_weight = weight / expansion
            for temp in temps:
                samples.append(
                    DwellingSample(
                        lsoa_id=record.lsoa_id,
                        category=record.category,
                        weight=sub_weight,
                        indoor_temp=float(temp),
                        params=params,
                    )
                )
    return samples


@dataclass
class ScenarioRun:
    """Outcome of one scenario/direction run over a sample list."""

    outcomes: list[tuple[DwellingSample, FlexOutcome]]
    errors: list[tuple[DwellingSample, str]]


def _evaluate_sample(
    sample: DwellingSample, spec: ScenarioSpec, direction: Direction
) -> FlexOutcome:
    dwelling = RcDwelling.from_params(sample.params)
    return evaluate(
        dwelling,
        indoor=sample.indoor_temp,
        outdoor=spec.outdoor_temp,
        curve=spec.cop_curve,
        band=spec.comfort_band,
        direction=direction,
    )


def run_scenario(
    samples: Sequence[DwellingSample], spec: ScenarioSpec, direction: Direction
) -> ScenarioRun:
    """Evaluate every sample at the scenario's outdoor temperature.

    Outcomes and errors keep input order; a failing sample is collected into
    the error report instead of aborting the run. Samples are independent, so
    running the parts of any partition and concatenating gives the same run.
    """
    outcomes: list[tuple[DwellingSample, FlexOutcome]] = []
    errors: list[tuple[DwellingSample, str]] = []
    for sample in samples:
        try:
            outcomes.append((sample, _evaluate_sample(sample, spec, direction)))
        except Exception as exc:  # noqa: BLE001 - reported per sample
            errors.append((sample, str(exc)))
    return ScenarioRun(outcomes=outcomes, errors=errors)


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
    reuse never changes a run. Parameters and samples are released before
    the last run is yielded, so the caller exports it without them.
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
