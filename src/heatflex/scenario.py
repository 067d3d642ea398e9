"""Scenario assembly: indoor temperature assignment and stock-wide evaluation.

A scenario fixes the outdoor temperature, the indoor temperature model
(a single shared value or a truncated normal draw per dwelling), the stock
variant, the thermal capacity level and the heat pump uptake fraction, then
evaluates the RC core over the live rows of a stock. One sweep engine builds
the samples of a list of scenarios in order (a capacity, outdoor or indoor
sweep, a before/after retrofit pair, or a single scenario), deriving
parameters only when a scenario changes them and drawing indoor
temperatures only when it changes the indoor model; `run_sweep` runs each.

Stock, parameters, samples and outcomes are all columns, one numpy array
per field. `build_samples` keeps the live rows of a `ThermalTable` and its
stock once, as the record columns of a `SampleTable`, and gives a sample
only its record's index and its indoor temperature. The one kernel,
`evaluate_blocks`, evaluates the table in row blocks with masked array
expressions and yields each block's outcome columns, which `run_scenario`
holds as a `ScenarioRun` and the CLI folds as they come; no temporary grows
with the table. It does the float operations of `rc.evaluate` in the same
order, so every row equals what the scalar reference functions in `rc` return.

Randomness is reproducible and order-independent: each stock record owns a
counter-based Philox stream keyed by a stable hash of its (LSOA, category)
identity combined with the scenario seed, so reordering records, changing
the uptake fraction or sweeping capacity levels never perturbs the
temperatures any record receives. Record i's stream is numpy's
Generator(Philox(SeedSequence([seed, key_i]))), but a block of records is
drawn in array passes: `_philox_keys` ports SeedSequence's key mixing (after
O'Neill's seed_seq_fe) and `_philox_uniforms` runs Philox4x64-10 (Salmon et
al., SC'11) on a (records, blocks) counter array, bit for bit. The
quantile function is `normal.ndtri`, a port of Moshier's Cephes `ndtri`
(with its `ndtr`) that returns what scipy.special does, bit for bit.
"""

from __future__ import annotations

import math
from _blake2 import blake2b  # what hashlib.blake2b returns; hashlib would also load OpenSSL
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .normal import ndtr, ndtri
from .rc import (INDOOR_TEMP_MAX, INDOOR_TEMP_MIN, ComfortBand, CopCurve, Direction,
                 RcDwelling, cop_at, evaluate)
from .regions import RegionTable
from .stock import CATEGORIES, StockTable
from .thermal import CapacityLevel, StockVariant, ThermalTable, derive_all

DEFAULT_EXPANSION = 10  # sub-samples per record under a stochastic indoor model
_BLOCK = 16384  # rows each pass over a run, or values drawn, at a time; bounds temporaries


def _blocks(n: int) -> list[slice]:
    """Slices of _BLOCK rows, as _BLOCK is now, that cover rows 0..n-1 in order."""
    return [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]


@dataclass(frozen=True)
class FixedIndoor:
    """Every dwelling starts at the same indoor temperature."""

    temp: float = 19.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.temp):
            raise ConfigError(f"indoor temperature must be finite, got {self.temp}")


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
        if not (0 < self.sd < math.inf and math.isfinite(self.mean)):  # nan fails too
            raise ConfigError(f"need a finite mean and sd > 0, got {self.mean}, {self.sd}")
        if not -math.inf < self.low < self.high < math.inf:
            raise ConfigError(f"truncation bounds ({self.low}, {self.high}) need finite low < high")
        if ndtr(self._standard_interval()[1]) == 0.0:  # every draw would be -inf or inf
            raise ConfigError(f"truncation bounds ({self.low}, {self.high}) lie too far from "
                              f"mean {self.mean} for sd {self.sd}: their probability is 0.0")
        if self.seed < 0:
            raise ConfigError(f"indoor seed must be a non-negative integer, got {self.seed}")

    def _standard_interval(self) -> tuple[float, float, float]:
        """(a, b, sign): draws are mean + sign * sd * z, z normal on [a, b]. An
        interval above the mean is drawn as its mirror [-b, -a]: ndtr keeps its
        relative precision in the lower tail only."""
        a = (self.low - self.mean) / self.sd
        b = (self.high - self.mean) / self.sd
        return (-b, -a, -1.0) if a > 0 else (a, b, 1.0)


IndoorTempModel = FixedIndoor | TruncatedNormalIndoor


# Key mixing of numpy's SeedSequence, after O'Neill's seed_seq_fe
# ("Developing a seed_seq alternative", pcg-random.org, 2015): uint32 words
# with wrapping arithmetic, a pool of four words, XSHIFT = 16.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11), the bit generator behind numpy's Philox.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32 words, at least one."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over columns: entropy[i] holds word i of every row."""
    hash_const = _INIT_A  # the same for every row, so a Python int

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _philox_keys(seed: int, stream_keys: np.ndarray) -> np.ndarray:
    """Row i is SeedSequence([seed, stream_keys[i]]).generate_state(2, np.uint64).

    A key below 2**32 is one entropy word and any other key two, so the
    rows are mixed in two groups of equal entropy length.
    """
    lo = (stream_keys & np.uint64(_MASK32)).astype(np.uint32)
    hi = (stream_keys >> np.uint64(32)).astype(np.uint32)
    seed_words = _uint32_words(seed)
    keys = np.empty((len(stream_keys), 2), dtype=np.uint64)
    wide = hi != 0
    for rows, key_words in ((~wide, [lo]), (wide, [lo, hi])):
        entropy = [np.full(int(rows.sum()), w, dtype=np.uint32) for w in seed_words]
        pool = _seed_pool(entropy + [w[rows] for w in key_words])
        hash_const, state = _INIT_B, []
        for word in pool:  # generate_state: 2 uint64 are the 4 pool words, hashed
            value = word ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * np.uint32(hash_const)
            state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
        keys[rows, 0] = state[0] | (state[1] << np.uint64(32))
        keys[rows, 1] = state[2] | (state[3] << np.uint64(32))
    return keys


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit product m * x.

    The high word sums four 32-bit partial products (Warren, Hacker's
    Delight, mulhu); no partial sum can overflow 64 bits.
    """
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    shift, mask = np.uint64(32), np.uint64(_MASK32)
    x_lo, x_hi = x & mask, x >> shift
    mid = x_hi * m_lo + ((x_lo * m_lo) >> shift)
    low_mid = x_lo * m_hi + (mid & mask)
    return x_hi * m_hi + (mid >> shift) + (low_mid >> shift), x * np.uint64(m)


def _philox_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """Row i is Generator(Philox(key=keys[i])).random(n), for (rows, 2) uint64 keys.

    numpy's Philox bumps its counter before the first block, so block j of
    every row runs from the counter (j + 1, 0, 0, 0); each block gives four
    uint64 outputs, and a double is the top 53 bits of one output.
    """
    blocks = -(-n // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = keys[:, :1], keys[:, 1:]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + np.uint64(_PHILOX_W0), k1 + np.uint64(_PHILOX_W1)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    bits = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * blocks)[:, :n]
    return (bits >> np.uint64(11)) * 2.0**-53


def _truncated_normal(model: TruncatedNormalIndoor, u: np.ndarray) -> np.ndarray:
    """Map uniforms of any shape through the truncated normal quantile function."""
    a, b, sign = model._standard_interval()
    fa, fb = ndtr(a), ndtr(b)
    return model.mean + sign * model.sd * ndtri(fa + u * (fb - fa))


def _draw_indoor_temps(
    model: TruncatedNormalIndoor, stream_keys: np.ndarray, n: int
) -> np.ndarray:
    """Row i holds n draws from the stream of (model.seed, stream_keys[i])."""
    out = np.empty((len(stream_keys), n))
    step = max(1, _BLOCK // max(n, 1))  # rows per block of about _BLOCK draws
    for a in range(0, len(stream_keys), step):
        keys = _philox_keys(model.seed, stream_keys[a:a + step])
        out[a:a + step] = _truncated_normal(model, _philox_uniforms(keys, n))
    return out


def sample_indoor_temps(
    model: IndoorTempModel, n: int, stream_key: int = 0
) -> np.ndarray:
    """Draw n indoor temperatures; deterministic given (model.seed, stream_key).

    stream_key is an unsigned 64-bit integer; the draws are those of
    Generator(Philox(SeedSequence([model.seed, stream_key]))).random(n)
    mapped through the truncated normal.
    """
    if n < 0:
        raise ConfigError(f"sample count must be >= 0, got {n}")
    if not 0 <= stream_key < 2**64:
        raise ConfigError(f"stream key must be within [0, 2**64), got {stream_key}")
    if isinstance(model, FixedIndoor):
        return np.full(n, model.temp, dtype=float)
    return _draw_indoor_temps(model, np.array([stream_key], dtype=np.uint64), n)[0]


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
        if not math.isfinite(self.outdoor_temp):
            raise ConfigError(f"outdoor temperature must be finite, got {self.outdoor_temp}")
        if not 0.0 <= self.uptake_fraction <= 1.0:
            raise ConfigError(
                f"uptake fraction must be within [0, 1], got {self.uptake_fraction}"
            )


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Evaluation samples: record columns held once, and two columns per sample.

    A sample is a (possibly fractional) bundle of identical dwellings of one
    stock record. lsoa_code, weight and the thermal parameters (in the units
    of ThermalParams) have one entry per live record; a sample holds the
    index of its record and its own indoor temperature. lsoa_code indexes
    lsoa_ids, which build_samples takes from the stock whole.
    """

    lsoa_ids: tuple[str, ...]
    lsoa_code: np.ndarray  # int, index into lsoa_ids
    weight: np.ndarray  # dwellings a sample represents: count * uptake (/ expansion)
    heat_loss: np.ndarray  # kW/C
    capacitance: np.ndarray  # kJ/K
    hp_size: np.ndarray  # kW thermal
    record: np.ndarray  # int32 per sample, index into the record columns
    indoor_temp: np.ndarray  # C per sample

    def __len__(self) -> int:
        return len(self.record)

    def __getitem__(self, rows) -> "SampleTable":
        """The samples a slice, index array or mask selects; the record columns are shared."""
        return replace(self, record=self.record[rows], indoor_temp=self.indoor_temp[rows])


def build_samples(
    params: ThermalTable,
    spec: ScenarioSpec,
    expansion: int = DEFAULT_EXPANSION,
    indoor: np.ndarray | None = None,
) -> SampleTable:
    """Expand the live rows of the stock params was derived from into weighted samples.

    Under a fixed indoor model one sample per row suffices, since every
    dwelling in a row is identical. Under the stochastic model each row
    becomes `expansion` consecutive sub-samples of equal weight with
    independent temperature draws from the row's own stream. indoor, if
    given, is the indoor column of an earlier call on the same stock with the
    same indoor model and expansion, used instead of drawing again.
    """
    if expansion < 1:
        raise ConfigError(f"expansion factor must be >= 1, got {expansion}")
    stock, rows = params.stock, params.rows
    weight = stock.count[rows].astype(float) * spec.uptake_fraction
    record = np.arange(len(rows), dtype=np.int32)
    model = spec.indoor_model
    if isinstance(model, FixedIndoor):
        if indoor is None:
            indoor = np.full(len(rows), model.temp, dtype=float)
    else:
        if indoor is None:
            # a record's stream key: the 8-byte blake2b digest of "lsoa|form|heating",
            # big-endian, so it depends on the record's identity and not on its row
            ids, idents = stock.lsoa_ids, [f"{c.form.value}|{c.heating.value}" for c in CATEGORIES]
            keys = np.frombuffer(b"".join([
                blake2b(f"{ids[c]}|{idents[k]}".encode(), digest_size=8).digest()
                for c, k in zip(stock.lsoa_code[rows].tolist(), stock.category_code[rows].tolist())
            ]), ">u8")
            indoor = _draw_indoor_temps(model, keys, expansion).ravel()
        weight /= expansion
        record = np.repeat(record, expansion)
    return SampleTable(stock.lsoa_ids, stock.lsoa_code[rows], weight, params.heat_loss,
                       params.capacitance, params.hp_size, record, indoor)


ZERO, FINITE, UNBOUNDED, FAILED, FAILED_INDOOR = range(5)  # codes of ScenarioRun.kind
Block = tuple[slice, np.ndarray, np.ndarray, np.ndarray]  # rows, magnitude, duration, kind


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """Outcome columns of one scenario/direction run, row for row with its samples.

    magnitude is the signed electrical power in W (0 on zero and failed
    rows); duration is in seconds on finite rows, 0 on zero rows, inf on
    unbounded rows and nan on failed rows; kind holds a code per row, and a
    failed row's code (FAILED or FAILED_INDOOR, so kind >= FAILED) is its reason.
    """

    samples: SampleTable
    spec: ScenarioSpec
    direction: Direction
    magnitude: np.ndarray
    duration: np.ndarray
    kind: np.ndarray  # int8: ZERO, FINITE, UNBOUNDED, FAILED or FAILED_INDOOR

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, rows) -> "ScenarioRun":
        """The rows a slice, index array or mask selects."""
        return replace(self, samples=self.samples[rows], magnitude=self.magnitude[rows],
                       duration=self.duration[rows], kind=self.kind[rows])

    def blocks(self) -> Iterator[Block]:
        """The held columns as the blocks evaluate_blocks yields."""
        return ((rows, self.magnitude[rows], self.duration[rows], self.kind[rows])
                for rows in _blocks(len(self)))

    def failures(self) -> list[tuple[int, str]]:
        """(rows, rc's message for the first of them) per failure reason, in code order."""
        masks = (self.kind == code for code in (FAILED, FAILED_INDOOR))  # one at a time
        return [(int(np.count_nonzero(m)),
                 failure_message(self.samples, self.spec, self.direction, int(m.argmax())))
                for m in masks if m.any()]


def evaluate_blocks(samples: SampleTable, spec: ScenarioSpec,
                    direction: Direction) -> Iterator[Block]:
    """Evaluate every sample at the scenario's outdoor temperature: yields each
    block of rows, in order, with its outcome columns as ScenarioRun holds them.

    Each row gets what rc.evaluate returns for its dwelling: the array
    expressions below repeat its float operations in its order, and
    durations take math.log1p per row because np.log1p can differ in the
    last place. A row rc would reject (a non-positive R, C or heat pump
    size, an indoor temperature outside [INDOOR_TEMP_MIN, INDOOR_TEMP_MAX]
    or nan) gets the code of the first check rc fails, FAILED or
    FAILED_INDOOR, instead of aborting the run. Rows are independent, so
    evaluating the parts of any partition gives the same rows.
    """
    band, outdoor = spec.comfort_band, spec.outdoor_temp
    limit = band.high if direction is Direction.POSITIVE else band.low
    cop = cop_at(spec.cop_curve, outdoor)
    for rows in _blocks(len(samples)):  # the temporaries stay block-sized
        rec, indoor = samples.record[rows], samples.indoor_temp[rows]
        with np.errstate(all="ignore"):  # failed rows may hold nan or inf
            # RcDwelling.from_params: kW/C -> C/W, kJ/K -> J/K, kW -> W
            r = 1.0 / (samples.heat_loss[rec] * 1000.0)
            c = samples.capacitance[rec] * 1000.0
            p_max = samples.hp_size[rec] * 1000.0
            bad_params = (r <= 0) | (c <= 0) | (p_max <= 0)
            failed = bad_params | ~((INDOOR_TEMP_MIN <= indoor) & (indoor <= INDOOR_TEMP_MAX))
            if direction is Direction.POSITIVE:
                t_ss = outdoor + p_max * r
                zero, unbounded = indoor >= limit, t_ss <= limit
            else:
                t_ss = outdoor + 0.0 * r
                zero, unbounded = indoor <= limit, t_ss >= limit
            k = np.where(zero, ZERO, np.where(unbounded, UNBOUNDED, FINITE)).astype(np.int8)
            k[failed] = np.where(bad_params[failed], FAILED, FAILED_INDOOR)  # rc's order
            finite = k == FINITE
            d = np.where(k == UNBOUNDED, np.inf, 0.0)
            d[failed] = np.nan
            excess = (indoor[finite] - limit) / (limit - t_ss[finite])
            logs = np.fromiter(map(math.log1p, excess.tolist()), float, len(excess))
            d[finite] = (r[finite] * c[finite]) * logs
            iq = np.minimum(np.maximum((indoor - outdoor) / r, 0.0), p_max)  # clamped output
            m = (p_max - iq) / cop if direction is Direction.POSITIVE else -iq / cop
            m[(k == ZERO) | failed] = 0.0
        yield rows, m, d, k


def run_scenario(samples: SampleTable, spec: ScenarioSpec, direction: Direction) -> ScenarioRun:
    """Every block of evaluate_blocks, held as one ScenarioRun. Running the
    parts of any partition and concatenating gives the same run."""
    magnitude, duration = np.empty(len(samples)), np.empty(len(samples))
    kind = np.empty(len(samples), dtype=np.int8)
    for rows, *columns in evaluate_blocks(samples, spec, direction):
        magnitude[rows], duration[rows], kind[rows] = columns
    return ScenarioRun(samples, spec, direction, magnitude, duration, kind)


def failure_message(samples: SampleTable, spec: ScenarioSpec, direction: Direction,
                    i: int) -> str:
    """rc's message for sample i, a row the kernel marked failed."""
    rec = samples.record[i]
    try:
        dwelling = RcDwelling(
            resistance=1.0 / (float(samples.heat_loss[rec]) * 1000.0),
            capacitance=float(samples.capacitance[rec]) * 1000.0,
            hp_max_thermal=float(samples.hp_size[rec]) * 1000.0,
        )
        evaluate(dwelling, float(samples.indoor_temp[i]), spec.outdoor_temp,
                 spec.cop_curve, spec.comfort_band, direction)
    except DomainError as exc:
        return str(exc)
    raise AssertionError(f"sample {i} failed in the kernel but not in rc.evaluate")


def _sweep_samples(stock: StockTable, regions: RegionTable, specs: Sequence[ScenarioSpec],
                   expansion: int) -> Iterator[tuple[SampleTable, ScenarioSpec]]:
    """Yield each spec's samples with it, in order, reusing what consecutive specs share.

    Parameters depend only on (capacity_level, stock_variant), indoor
    temperatures only on the indoor model, and samples on both plus the
    uptake fraction, so each is rebuilt only when those differ from the
    previous spec: an outdoor sweep derives and draws once, and a capacity
    sweep or a retrofit pair draws once and swaps the parameter columns.
    Draws are keyed by record identity and seed, so reuse never changes a
    run. Nothing here keeps the last spec's samples once they are yielded.
    """
    if not specs:
        raise ConfigError("a sweep needs at least one scenario")
    params = indoor = params_key = samples_key = None
    held = []  # the current samples, kept for the next spec to reuse
    for i, spec in enumerate(specs):
        key = (spec.capacity_level, spec.stock_variant)
        if (key, spec.indoor_model, spec.uptake_fraction) != samples_key:
            if samples_key and spec.indoor_model != samples_key[1]:
                indoor = None  # temperatures are reused only under the same indoor model
            held.clear()  # free the old samples (all but their temperatures) first
            if key != params_key:
                params = None
                params, params_key = derive_all(stock, regions, *key), key
            samples_key = (key, spec.indoor_model, spec.uptake_fraction)
            held.append(build_samples(params, spec, expansion, indoor))
            indoor = held[0].indoor_temp
        if i == len(specs) - 1:  # hand the last samples over: the caller's release frees them
            params = indoor = None
        yield held.pop() if i == len(specs) - 1 else held[0], spec


def run_sweep(
    stock: StockTable,
    regions: RegionTable,
    specs: Sequence[ScenarioSpec],
    direction: Direction,
    expansion: int = DEFAULT_EXPANSION,
) -> Iterator[ScenarioRun]:
    """Yield one run per spec, in order, from the samples _sweep_samples
    builds and reuses; the last run alone holds the last samples."""
    for samples, spec in _sweep_samples(stock, regions, specs, expansion):
        yield run_scenario(samples, spec, direction)


def run_stock_scenario(
    stock: StockTable,
    regions: RegionTable,
    spec: ScenarioSpec,
    direction: Direction,
    expansion: int = DEFAULT_EXPANSION,
) -> ScenarioRun:
    """Derive parameters, build samples and run one scenario: a one-spec sweep."""
    return next(run_sweep(stock, regions, [spec], direction, expansion))
