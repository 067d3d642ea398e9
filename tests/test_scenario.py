"""Scenario engine: sampling, determinism, sweeps and scaling laws."""

import _blake2
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatflex import (
    CapacityLevel,
    ComfortBand,
    ConfigError,
    CopCurve,
    Direction,
    DomainError,
    FixedIndoor,
    Level,
    RcDwelling,
    SampleTable,
    ScenarioSpec,
    StockTable,
    StockVariant,
    TruncatedNormalIndoor,
    build_envelope,
    build_samples,
    derive_all,
    evaluate,
    load_region_table,
    rollup,
    run_scenario,
    run_stock_scenario,
    run_sweep,
    sample_indoor_temps,
)
from heatflex import scenario
from heatflex.normal import ndtr, ndtri
from heatflex.scenario import FAILED, FAILED_INDOOR

from conftest import (
    GAS_FLAT,
    column,
    concat_runs,
    make_record,
    make_region_table,
    make_sample,
    make_table,
    outcome_at,
    pairs_of,
    runs_equal,
    samples_of,
)


def spec_at(outdoor, indoor_model=None, **kw):
    return ScenarioSpec(
        outdoor_temp=outdoor,
        indoor_model=indoor_model or FixedIndoor(19.0),
        **kw,
    )


def rc_oracle(heat_loss, capacitance, hp_size, indoor, spec, direction):
    """(None, rc.evaluate's outcome) for one row, or (reason code, rc's message)
    when rc refuses it: FAILED if RcDwelling raises, FAILED_INDOOR if evaluate does."""
    try:
        dwelling = RcDwelling(resistance=1.0 / (heat_loss * 1000.0),
                              capacitance=capacitance * 1000.0,
                              hp_max_thermal=hp_size * 1000.0)
    except DomainError as exc:
        return FAILED, str(exc)
    try:
        return None, evaluate(dwelling, indoor, spec.outdoor_temp, spec.cop_curve,
                              spec.comfort_band, direction)
    except DomainError as exc:
        return FAILED_INDOOR, str(exc)


def failures_of(errors):
    """ScenarioRun.failures() from (row, code, message) per failed row in row
    order: per code, in code order, its row count and its first row's message."""
    return [(len(messages), messages[0]) for code in (FAILED, FAILED_INDOOR)
            if (messages := [message for _, c, message in errors if c == code])]


# ---------------------------------------------------------------------------
# indoor temperature sampling
# ---------------------------------------------------------------------------

def test_fixed_model_repeats_value():
    temps = sample_indoor_temps(FixedIndoor(19.0), 5)
    assert list(temps) == [19.0] * 5


def test_truncated_normal_statistics():
    model = TruncatedNormalIndoor(seed=123)
    temps = sample_indoor_temps(model, 1_000_000)
    # bounds are symmetric around the mean, so the truncated mean is 19
    assert temps.mean() == pytest.approx(19.0, abs=0.02)
    assert temps.min() >= 14.0
    assert temps.max() <= 24.0
    # mass below the 18 C comfort threshold, exact value 0.33717
    below = float((temps < 18.0).mean())
    assert below == pytest.approx(0.337, abs=0.005)


def test_truncated_normal_deterministic_per_seed_and_stream():
    model = TruncatedNormalIndoor(seed=9)
    a = sample_indoor_temps(model, 1000, stream_key=5)
    b = sample_indoor_temps(model, 1000, stream_key=5)
    c = sample_indoor_temps(model, 1000, stream_key=6)
    d = sample_indoor_temps(TruncatedNormalIndoor(seed=10), 1000, stream_key=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_truncated_normal_validation():
    with pytest.raises(ConfigError):
        TruncatedNormalIndoor(sd=0.0)
    with pytest.raises(ConfigError):
        TruncatedNormalIndoor(low=24.0, high=14.0)
    with pytest.raises(ConfigError):
        sample_indoor_temps(FixedIndoor(19.0), -1)
    with pytest.raises(ConfigError, match="seed"):
        TruncatedNormalIndoor(seed=-3)
    for key in (-1, 2**64):
        with pytest.raises(ConfigError, match="stream key"):
            sample_indoor_temps(TruncatedNormalIndoor(), 4, stream_key=key)


@pytest.mark.parametrize("model", [FixedIndoor(19.0), TruncatedNormalIndoor()])
@pytest.mark.parametrize("key", [-5, -1, 2**64])
def test_stream_key_range_checked_for_every_model(model, key):
    # the key is checked before the model is looked at, so a fixed model
    # refuses the keys the truncated normal refuses
    with pytest.raises(ConfigError, match="stream key"):
        sample_indoor_temps(model, 4, stream_key=key)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda v: TruncatedNormalIndoor(sd=v),
    lambda v: ComfortBand(low=v),
    lambda v: CopCurve(points=((v, 2.0),)),
    lambda v: FixedIndoor(v),
    lambda v: ScenarioSpec(outdoor_temp=v, indoor_model=FixedIndoor(19.0)),
], ids=["normal_sd", "comfort_low", "cop_temp", "fixed_indoor", "outdoor_temp"])
def test_scenario_parts_reject_non_finite_numbers(build, value):
    # nan compares false, so a check written as "x <= 0" lets it through
    with pytest.raises(ConfigError):
        build(value)


def test_upper_tail_interval_draws_the_mirror_of_the_lower_one():
    # 16 to 18 sd above the mean, ndtr rounds both bounds to 1.0; the mirror
    # interval below the mean keeps its precision
    def draws(low, high):
        model = TruncatedNormalIndoor(mean=19.0, sd=0.5, low=low, high=high, seed=4)
        return sample_indoor_temps(model, 1000, stream_key=9)

    upper, lower = draws(27.0, 28.0), draws(10.0, 11.0)
    assert np.isfinite(upper).all() and ((27.0 <= upper) & (upper <= 28.0)).all()
    np.testing.assert_allclose(upper - 19.0, 19.0 - lower, rtol=0, atol=1e-12)
    # where the direct mapping is still accurate, the mirror draws its
    # quantile at 1 - u: the same distribution
    model = TruncatedNormalIndoor(mean=19.0, sd=2.5, low=20.0, high=24.0)
    u = np.linspace(0.0, 1.0, 101)
    fa, fb = ndtr(0.4), ndtr(2.0)
    direct = 19.0 + 2.5 * ndtri(fa + (1.0 - u) * (fb - fa))
    np.testing.assert_allclose(scenario._truncated_normal(model, u), direct, rtol=1e-12)



@pytest.mark.parametrize("low, high", [(-1.0, 0.0), (38.0, 39.0)])
def test_interval_with_no_probability_is_refused(low, high):
    # more than about 37.7 sd from the mean, in either tail, ndtr of the
    # (mirrored) upper bound underflows to 0.0 and every draw would be infinite
    with pytest.raises(ConfigError, match="probability is 0.0"):
        TruncatedNormalIndoor(mean=19.0, sd=0.5, low=low, high=high)


@pytest.mark.parametrize("low, high", [(-1.0, 0.17), (37.83, 39.0)])
def test_interval_just_inside_the_limit_draws_within_it(low, high):
    model = TruncatedNormalIndoor(mean=19.0, sd=0.5, low=low, high=high, seed=4)
    temps = sample_indoor_temps(model, 1000, stream_key=9)
    assert np.isfinite(temps).all() and ((low <= temps) & (temps <= high)).all()

# The vectorised draw path must give numpy's own per-record streams bit for
# bit: keys from SeedSequence([seed, stream_key]), uniforms from
# Generator(Philox(key=...)). These edge values cross every word-count
# boundary of the key mixing (one or two key words; one, two or more seed
# words, the last overflowing the four-word pool).
EDGE_STREAM_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
EDGE_SEEDS = [0, 7, 42, 2**32 + 5, 2**130 + 3]
u64 = st.integers(min_value=0, max_value=2**64 - 1)


def reference_keys(seed, stream_keys):
    return np.array([np.random.SeedSequence([seed, k]).generate_state(2, np.uint64)
                     for k in stream_keys], dtype=np.uint64).reshape(-1, 2)


def reference_uniforms(keys, n):
    return np.array([np.random.Generator(np.random.Philox(key=k)).random(n) for k in keys],
                    dtype=float).reshape(len(keys), n)


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**160)),
       stream_keys=st.lists(st.one_of(st.sampled_from(EDGE_STREAM_KEYS), u64), max_size=12))
@example(seed=0, stream_keys=EDGE_STREAM_KEYS)
@example(seed=7, stream_keys=EDGE_STREAM_KEYS)
@example(seed=42, stream_keys=EDGE_STREAM_KEYS)
@example(seed=2**32 + 5, stream_keys=EDGE_STREAM_KEYS)
@example(seed=2**130 + 3, stream_keys=EDGE_STREAM_KEYS)
def test_philox_keys_equal_seed_sequence(seed, stream_keys):
    got = scenario._philox_keys(seed, np.array(stream_keys, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_keys(seed, stream_keys))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(u64, u64), min_size=1, max_size=6),
       n=st.integers(min_value=0, max_value=41))
@example(keys=[(0, 0), (2**64 - 1, 2**64 - 1), (1, 2**32)], n=1)
@example(keys=[(0, 0), (2**64 - 1, 2**64 - 1), (1, 2**32)], n=10)
@example(keys=[(2**32 - 1, 5)], n=4)
def test_philox_uniforms_equal_generator(keys, n):
    keys = np.array(keys, dtype=np.uint64)
    got = scenario._philox_uniforms(keys, n)
    assert got.shape == (len(keys), n)
    assert np.array_equal(got, reference_uniforms(keys, n))


def test_stream_keys_hash_with_hashlibs_blake2b():
    # scenario imports blake2b from _blake2 to keep OpenSSL out of the
    # process; it is the very constructor hashlib.blake2b returns
    assert scenario.blake2b is _blake2.blake2b is hashlib.blake2b


def record_stream_key(lsoa_id, category):
    """A record's stream key: blake2b-64 of its identity, big-endian."""
    ident = f"{lsoa_id}|{category.form.value}|{category.heating.value}"
    return int.from_bytes(hashlib.blake2b(ident.encode(), digest_size=8).digest(), "big")


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_draws_equal_per_record_generators(small_stock, seed):
    # the loop the vectorised path replaced, kept as the reference: one
    # Generator(Philox(SeedSequence([seed, key]))) per record
    model = TruncatedNormalIndoor(seed=seed)

    def reference(key, n):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, key])))
        return scenario._truncated_normal(model, rng.random(n))

    for key in EDGE_STREAM_KEYS:
        for n in (1, 3, 10):
            assert np.array_equal(sample_indoor_temps(model, n, key), reference(key, n))

    records, table = small_stock
    live = [r for r in records if not r.skippable]
    samples = build_samples(derive_all(records, table),
                            spec_at(5.0, indoor_model=model), expansion=7)
    want = np.concatenate([
        reference(record_stream_key(r.lsoa_id, r.category), 7) for r in live
    ])
    assert np.array_equal(samples.indoor_temp, want)


# ---------------------------------------------------------------------------
# sample building
# ---------------------------------------------------------------------------

def one_record_setup(count=100, lsoa="E01000001"):
    record = make_record(lsoa_id=lsoa, count=count)
    table = make_region_table({lsoa: ("Wales", "Cardiff")})
    params = derive_all([record], table)
    return record, table, params


def test_build_samples_fixed_weight_arithmetic():
    record, _, params = one_record_setup(count=100)
    spec = spec_at(5.0, uptake_fraction=0.5)
    samples = build_samples(params, spec)
    assert len(samples) == 1
    assert samples.weight[0] == 50.0
    assert samples.indoor_temp[0] == 19.0


def test_build_samples_stochastic_expansion():
    record, _, params = one_record_setup(count=100)
    spec = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=3))
    samples = build_samples(params, spec, expansion=10)
    assert len(samples) == 10
    assert all(s.weight == pytest.approx(10.0) for s in samples_of(samples))
    assert all(14.0 <= s.indoor_temp <= 24.0 for s in samples_of(samples))


def test_draws_cross_record_blocks():
    # more records than one draw block holds: each record still gets the
    # draws of its own stream, whichever block it falls in
    from heatflex.synth import generate_stock

    records, lookup = generate_stock(20000, seed=3, lsoa_count=300)
    table = make_region_table({l: (r, la) for l, r, la in lookup})
    model, expansion = TruncatedNormalIndoor(seed=12), 10
    params = derive_all(records, table)
    assert len(params.rows) > 1.5 * (scenario._BLOCK // expansion)
    samples = build_samples(params, spec_at(5.0, indoor_model=model), expansion)
    want = np.concatenate([
        sample_indoor_temps(model, expansion, record_stream_key(r.lsoa_id, r.category))
        for r in records if not r.skippable
    ])
    assert np.array_equal(samples.indoor_temp, want)


def test_sample_table_holds_record_columns_once(small_stock):
    # the layout: one entry per live record for each record column, and
    # only a 4-byte record index and an 8-byte temperature per sample
    records, table = small_stock
    params = derive_all(records, table)
    spec = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=2))
    samples = build_samples(params, spec, expansion=10)
    record_columns = ("lsoa_code", "weight", "heat_loss", "capacitance", "hp_size")
    assert len(samples) == 10 * len(params.rows) > 0
    assert all(len(getattr(samples, c)) == len(params.rows) for c in record_columns)
    assert samples.record.dtype == np.int32
    columns = [getattr(samples, f.name) for f in fields(samples)]
    per_sample = [c for c in columns if isinstance(c, np.ndarray) and len(c) == len(samples)]
    assert sum(c.nbytes for c in per_sample) == 12 * len(samples)
    half = samples[::2]  # a selection shares the record columns
    assert all(np.shares_memory(getattr(half, c), getattr(samples, c)) for c in record_columns)


def test_build_samples_empty_and_missing_params():
    record, table, _ = one_record_setup()
    assert len(build_samples(derive_all([], table), spec_at(5.0))) == 0
    # zero-count rows carry no parameters and need none
    ghost = make_record(category=GAS_FLAT, count=0)
    assert len(build_samples(derive_all([ghost, record], table), spec_at(5.0))) == 1
    assert len(build_samples(derive_all([ghost], table), spec_at(5.0))) == 0


def test_build_samples_index_the_stock_lsoa_ids():
    # a zero-count row puts E01000003 first in the stock, and E01000002
    # has no live row at all: the samples keep the stock's LSOA ids whole
    # and each sample's code is its stock row's
    a, b, c = "E01000001", "E01000002", "E01000003"
    records = [make_record(lsoa_id=c, count=0), make_record(lsoa_id=a),
               make_record(lsoa_id=b, count=0),
               make_record(lsoa_id=c, category=GAS_FLAT, floor_area=60.0)]
    table = make_region_table({a: ("Wales", "Cardiff"), c: ("London", "Camden")})
    params = derive_all(records, table)
    for model in (FixedIndoor(19.0), TruncatedNormalIndoor(seed=5)):
        samples = build_samples(params, spec_at(5.0, indoor_model=model), expansion=3)
        assert samples.lsoa_ids is params.stock.lsoa_ids == (c, a, b)
        per_row = len(samples) // 2
        assert column(samples, "lsoa_code").tolist() == [1] * per_row + [0] * per_row
        assert [(s.lsoa_id, s.capacitance) for s in samples_of(samples)] == (
            [(a, 25000.0)] * per_row + [(c, 15000.0)] * per_row)


def test_uptake_fraction_bounds():
    with pytest.raises(ConfigError):
        spec_at(5.0, uptake_fraction=1.5)


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

def test_run_scenario_deterministic(small_stock):
    records, table = small_stock
    spec = spec_at(0.0, indoor_model=TruncatedNormalIndoor(seed=77))
    a = run_stock_scenario(records, table, spec, Direction.NEGATIVE)
    b = run_stock_scenario(records, table, spec, Direction.NEGATIVE)
    assert runs_equal(a, b)
    assert a.failures() == []


def test_parallel_equals_serial(small_stock):
    # samples are independent: the parts of any partition, evaluated apart
    # (and so in parallel) and concatenated, equal evaluating the whole
    records, table = small_stock
    spec = spec_at(-5.0, indoor_model=TruncatedNormalIndoor(seed=21))
    params = derive_all(records, table, spec.capacity_level, spec.stock_variant)
    samples = build_samples(params, spec)
    whole = run_scenario(samples, spec, Direction.POSITIVE)
    n = len(samples)
    for split in (0, 1, n // 3, n):
        head = run_scenario(samples[:split], spec, Direction.POSITIVE)
        tail = run_scenario(samples[split:], spec, Direction.POSITIVE)
        merged = concat_runs(head, tail)
        assert runs_equal(merged, whole)  # outcomes and failures
        assert merged.failures() == whole.failures()
        assert build_envelope(merged) == build_envelope(whole)


# indoor temperatures on and just past rc's plausible range and the comfort limits
_EDGE_INDOOR = [18.0, 24.0, -50.0, 60.0, math.nextafter(-50.0, -math.inf),
                math.nextafter(60.0, math.inf), -80.0, 95.0, math.nan, math.inf]


@st.composite
def oracle_rows(draw):
    heat_loss = draw(st.floats(min_value=1e-3, max_value=2.0))  # kW/C
    indoor = draw(st.one_of(st.floats(min_value=-60.0, max_value=70.0),
                            st.sampled_from(_EDGE_INDOOR)))
    return make_sample(
        indoor=indoor,
        heat_loss=heat_loss,
        capacitance=draw(st.floats(min_value=1.0, max_value=1e5)),  # kJ/K
        hp_size=draw(st.one_of(
            st.floats(min_value=0.1, max_value=50.0),  # kW
            # sized so that the positive steady state lands on the comfort ceiling
            st.builds(lambda out: (24.0 - out) * heat_loss,
                      st.floats(min_value=-20.0, max_value=20.0)),
        )),
    )


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(oracle_rows(), min_size=1, max_size=12),
    outdoor=st.one_of(st.floats(min_value=-20.0, max_value=30.0),
                      st.sampled_from([18.0, 24.0, -5.0, 10.0])),
)
# steady state exactly at each limit: 18 + 6144 W * (1/1024) C/W = 24, and
# switched off at 18 outdoors; indoor exactly at each limit
@example(rows=[make_sample(indoor=20.0, heat_loss=1.024, hp_size=6.144)], outdoor=18.0)
@example(rows=[make_sample(indoor=18.0), make_sample(indoor=24.0)], outdoor=5.0)
def test_kernel_equals_rc_oracle(rows, outdoor):
    # every row of the columnar kernel is exactly what the scalar rc.evaluate
    # returns for it, in both directions; rows rc rejects carry the code of
    # the check that raised, are counted with its message and stay out of
    # every envelope
    table = make_table(rows)
    for direction in Direction:
        spec = spec_at(outdoor)
        run = run_scenario(table, spec, direction)
        expected_errors = []
        for i, row in enumerate(rows):
            code, expected = rc_oracle(row.heat_loss, row.capacitance, row.hp_size,
                                       row.indoor_temp, spec, direction)
            if code is not None:
                assert run.kind[i] == code
                expected_errors.append((i, code, expected))
                continue
            got = outcome_at(run, i)
            assert got.duration.kind == expected.duration.kind
            assert got.magnitude_electric == expected.magnitude_electric
            assert got.duration.seconds == expected.duration.seconds
        assert run.failures() == failures_of(expected_errors)

        kept = run[run.kind < FAILED]
        assert build_envelope(run) == build_envelope(kept)
        assert rollup(run, load_region_table(), Level.LSOA) == \
            rollup(kept, load_region_table(), Level.LSOA)


def test_kernel_blocks_equal_rc_oracle(monkeypatch):
    # two whole row blocks and one row more, with failed rows in the second
    # and third blocks: every row is what the scalar rc.evaluate returns,
    # and the run equals one evaluated as a single block
    block = scenario._BLOCK
    n, m = 2 * block + 1, 500  # samples; good records, plus one rc refuses
    rng = np.random.default_rng(5)
    heat_loss = rng.uniform(0.05, 0.6, m + 1)
    hp_size = heat_loss * rng.uniform(10.0, 40.0, m + 1)
    hp_size[m] = 0.0
    record = rng.integers(0, m, n, dtype=np.int32)
    record[[block + 7, 2 * block]] = m
    indoor = rng.uniform(14.0, 24.0, n)
    indoor[block], indoor[2 * block - 1] = 500.0, math.nan
    table = SampleTable(("E01000001",), np.zeros(m + 1, dtype=np.intp), np.ones(m + 1),
                        heat_loss, rng.uniform(5e3, 5e4, m + 1), hp_size,
                        record=record, indoor_temp=indoor)
    for direction in Direction:
        spec = spec_at(5.0)
        run = run_scenario(table, spec, direction)
        expected_errors = []
        for i, (r, t) in enumerate(zip(record.tolist(), indoor.tolist())):
            code, expected = rc_oracle(float(heat_loss[r]), float(table.capacitance[r]),
                                       float(hp_size[r]), t, spec, direction)
            if code is not None:
                assert run.kind[i] == code
                expected_errors.append((i, code, expected))
                continue
            got = outcome_at(run, i)
            assert got.duration.kind == expected.duration.kind
            assert got.magnitude_electric == expected.magnitude_electric
            assert got.duration.seconds == expected.duration.seconds
        assert [(i, code) for i, code, _ in expected_errors] == [
            (block, FAILED_INDOOR), (block + 7, FAILED), (2 * block - 1, FAILED_INDOOR),
            (2 * block, FAILED)]
        assert run.failures() == failures_of(expected_errors)
        with monkeypatch.context() as patch:
            patch.setattr(scenario, "_BLOCK", n)
            whole = run_scenario(table, spec, direction)
        assert runs_equal(run, whole)


def test_positive_magnitude_by_region_at_minus5():
    # at outdoor -5 / indoor 19 a region at its design temperature has no
    # headroom left, while a -5-design region retains a 2/26 fraction
    records = [
        make_record(lsoa_id="E01000001", count=10),
        make_record(lsoa_id="E01000002", count=10),
    ]
    table = make_region_table({
        "E01000001": ("North West", "Manchester"),  # design -5
        "E01000002": ("South East", "Oxford"),  # design -1
    })
    spec = spec_at(-5.0)
    run = run_stock_scenario(StockTable.from_records(records), table, spec, Direction.POSITIVE)
    by_lsoa = {s.lsoa_id: o for s, o in pairs_of(run)}

    nw = by_lsoa["E01000001"]
    se = by_lsoa["E01000002"]
    # North West: IQ/MQ = 24/26
    params = derive_all(records, table)[("E01000001", records[0].category)]
    mq = params.hp_size_thermal * 1000
    assert nw.magnitude_electric == pytest.approx((1 - 24 / 26) * mq / 2.0, rel=1e-9)
    assert se.magnitude_electric == 0.0


def test_bad_sample_collected_not_fatal():
    # a corrupt indoor temperature fails its own sample only
    record, _, params = one_record_setup()
    spec = spec_at(5.0)
    good = samples_of(build_samples(params, spec))
    bad = good[0]._replace(indoor_temp=500.0)
    run = run_scenario(make_table([bad] + good), spec, Direction.NEGATIVE)
    assert len(pairs_of(run)) == 1
    assert run.kind[0] == FAILED_INDOOR and run.samples.indoor_temp[0] == 500.0
    message = run.failures()[0][1]
    assert run.failures() == [(1, message)]
    assert "500" in message


def test_failures_counted_by_reason_code():
    # a zero heat pump size, a row at 500 C and a row with both faults: rc
    # checks R, C and size before the temperature, so two rows fail on their
    # parameters and one on its temperature, and each reason is listed once,
    # in code order, with rc's message for its first row
    rows = [make_sample(), make_sample(hp_size=0.0), make_sample(indoor=500.0),
            make_sample(indoor=500.0, hp_size=0.0), make_sample()]
    for direction in Direction:
        spec = spec_at(5.0)
        run = run_scenario(make_table(rows), spec, direction)
        assert run.kind[1:4].tolist() == [FAILED, FAILED_INDOOR, FAILED]
        assert run.kind[0] < FAILED and run.kind[4] < FAILED
        assert run.failures() == [
            (2, "RcDwelling parameters must be positive: R=0.005, C=25000000.0, max=0.0"),
            (1, "indoor temperature 500.0 C outside plausible range [-50.0, 60.0]"),
        ]
        assert [rc_oracle(r.heat_loss, r.capacitance, r.hp_size, r.indoor_temp, spec,
                          direction)[0] for r in rows] == [None, FAILED, FAILED_INDOOR, FAILED, None]


def test_uptake_zero_gives_zero_weights(small_stock):
    records, table = small_stock
    spec = spec_at(5.0, uptake_fraction=0.0)
    run = run_stock_scenario(records, table, spec, Direction.NEGATIVE)
    assert all(s.weight == 0.0 for s, _ in pairs_of(run))


def test_uptake_linearity(small_stock):
    records, table = small_stock
    full = run_stock_scenario(records, table, spec_at(5.0, uptake_fraction=1.0),
                              Direction.NEGATIVE)
    half = run_stock_scenario(records, table, spec_at(5.0, uptake_fraction=0.5),
                              Direction.NEGATIVE)
    total_full = sum(s.weight * abs(o.magnitude_electric) for s, o in pairs_of(full))
    total_half = sum(s.weight * abs(o.magnitude_electric) for s, o in pairs_of(half))
    assert total_half == pytest.approx(0.5 * total_full, rel=1e-12)


def test_fixed_model_invariant_to_expansion(small_stock):
    records, table = small_stock
    spec = spec_at(5.0)
    a = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=1)
    b = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=7)
    assert runs_equal(a, b)


# ---------------------------------------------------------------------------
# retrofit and capacity comparisons
# ---------------------------------------------------------------------------

def retrofit_runs(records, table, spec, direction, **kw):
    variants = (StockVariant.BEFORE_EE, StockVariant.AFTER_EE)
    specs = [replace(spec, stock_variant=v) for v in variants]
    return list(run_sweep(records, table, specs, direction, **kw))


def test_retrofit_directional_effects(small_stock):
    records, table = small_stock
    spec = spec_at(5.0)
    before, after = (pairs_of(r) for r in retrofit_runs(records, table, spec, Direction.NEGATIVE))
    assert len(before) == len(after)
    for (sb, ob), (sa, oa) in zip(before, after):
        # same dwellings: the floor-area capacitance survives the retrofit
        assert (sb.lsoa_id, sb.capacitance, sb.indoor_temp) == \
            (sa.lsoa_id, sa.capacitance, sa.indoor_temp)
        assert abs(oa.magnitude_electric) <= abs(ob.magnitude_electric) + 1e-12
        if ob.duration.is_finite and oa.duration.is_finite:
            assert oa.duration.seconds >= ob.duration.seconds


def test_retrofit_noop_when_demands_equal():
    record = make_record(before=9000.0, after=9000.0)
    table = make_region_table({"E01000001": ("Wales", "Cardiff")})
    before, after = retrofit_runs(StockTable.from_records([record]), table, spec_at(5.0),
                                  Direction.NEGATIVE)
    assert pairs_of(before) == pairs_of(after)


def test_capacity_sweep_scales_durations_only(small_stock):
    records, table = small_stock
    spec = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=5))
    levels = [CapacityLevel.MEDIUM, CapacityLevel.MEDIUM_PLUS_10, CapacityLevel.MEDIUM_MINUS_10]
    specs = [replace(spec, capacity_level=level) for level in levels]
    runs = dict(zip(levels, run_sweep(records, table, specs, Direction.NEGATIVE)))
    medium = pairs_of(runs[CapacityLevel.MEDIUM])
    for level, ratio in [(CapacityLevel.MEDIUM_PLUS_10, 1.1),
                         (CapacityLevel.MEDIUM_MINUS_10, 0.9)]:
        other = pairs_of(runs[level])
        assert len(other) == len(medium)
        for (sm, om), (so, oo) in zip(medium, other):
            # same seed, same record keys: identical temperature draws
            assert sm.indoor_temp == so.indoor_temp
            assert oo.magnitude_electric == om.magnitude_electric
            assert oo.duration.kind == om.duration.kind
            if om.duration.is_finite:
                assert oo.duration.seconds == pytest.approx(
                    om.duration.seconds * ratio, rel=1e-9
                )


def test_capacity_sweep_single_level_matches_plain_run(small_stock):
    records, table = small_stock
    spec = spec_at(5.0)
    specs = [replace(spec, capacity_level=CapacityLevel.MEDIUM)]
    [sweep] = run_sweep(records, table, specs, Direction.NEGATIVE)
    plain = run_stock_scenario(records, table, spec, Direction.NEGATIVE)
    assert runs_equal(sweep, plain)


def test_capacity_sweep_needs_levels(small_stock):
    records, table = small_stock
    with pytest.raises(ConfigError):
        list(run_sweep(records, table, [], Direction.NEGATIVE))


def test_sweep_derives_and_draws_only_on_change(small_stock, monkeypatch):
    records, table = small_stock
    base = spec_at(0.0, indoor_model=TruncatedNormalIndoor(seed=4))
    specs = [
        base,
        replace(base, outdoor_temp=5.0),  # reuses parameters and samples
        replace(base, outdoor_temp=5.0, uptake_fraction=0.5),  # new samples
        replace(base, capacity_level=CapacityLevel.MEDIUM_PLUS_10),  # new both
        replace(base, capacity_level=CapacityLevel.MEDIUM_PLUS_10,
                stock_variant=StockVariant.AFTER_EE),  # new both
        replace(base, capacity_level=CapacityLevel.MEDIUM_PLUS_10,
                stock_variant=StockVariant.AFTER_EE,
                indoor_model=FixedIndoor(20.0)),  # new samples
    ]
    expected = [run_stock_scenario(records, table, s, Direction.NEGATIVE) for s in specs]
    calls = {"derive": 0, "samples": 0, "draws": 0}
    monkeypatch.setattr(scenario, "derive_all", counted(calls, "derive", scenario.derive_all))
    monkeypatch.setattr(scenario, "build_samples",
                        counted(calls, "samples", scenario.build_samples))
    monkeypatch.setattr(scenario, "_draw_indoor_temps",
                        counted(calls, "draws", scenario._draw_indoor_temps))
    runs = list(run_sweep(records, table, specs, Direction.NEGATIVE))
    # the five specs with the seed-4 model share one set of draws
    assert calls == {"derive": 3, "samples": 5, "draws": 1}
    assert len(runs) == len(expected)
    assert all(runs_equal(r, e) for r, e in zip(runs, expected))


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("axis, values", [
    ("capacity_level", list(CapacityLevel)),
    ("stock_variant", [StockVariant.BEFORE_EE, StockVariant.AFTER_EE]),
])
def test_capacity_sweep_and_retrofit_pair_draw_once(small_stock, monkeypatch, axis, values):
    # temperatures depend only on the records and the indoor model: a change
    # of capacity or variant swaps the parameter columns without redrawing
    records, table = small_stock
    base = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=8))
    specs = [replace(base, **{axis: value}) for value in values]
    expected = [run_stock_scenario(records, table, s, Direction.NEGATIVE) for s in specs]
    calls = {"draws": 0}
    monkeypatch.setattr(scenario, "_draw_indoor_temps",
                        counted(calls, "draws", scenario._draw_indoor_temps))
    runs = list(run_sweep(records, table, specs, Direction.NEGATIVE))
    assert calls == {"draws": 1}
    assert all(runs_equal(r, e) for r, e in zip(runs, expected))


def test_aggregate_stable_across_seeds():
    # expectation of the national aggregate is seed independent; with
    # ~48k draws the Monte Carlo scatter sits well inside 1 percent
    from heatflex.synth import generate_stock

    records, lookup = generate_stock(12000, seed=42, lsoa_count=100)
    table = make_region_table({l: (r, la) for l, r, la in lookup})
    totals = []
    for seed in range(20):
        spec = spec_at(-5.0, indoor_model=TruncatedNormalIndoor(seed=seed))
        run = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=32)
        totals.append(sum(s.weight * abs(o.magnitude_electric) for s, o in pairs_of(run)))
    totals = np.array(totals)
    assert totals.std() / totals.mean() < 0.01
    assert (totals.max() - totals.min()) / totals.mean() < 0.03
