"""Scenario engine: sampling, determinism, sweeps and scaling laws."""

from dataclasses import replace

import numpy as np
import pytest

from heatflex import (
    CapacityLevel,
    ConfigError,
    Direction,
    FixedIndoor,
    MissingParamsError,
    ScenarioSpec,
    StockVariant,
    TruncatedNormalIndoor,
    build_envelope,
    build_samples,
    derive_all,
    run_scenario,
    run_stock_scenario,
    run_sweep,
    sample_indoor_temps,
)
from heatflex import scenario

from conftest import make_record, make_region_table


def spec_at(outdoor, indoor_model=None, **kw):
    return ScenarioSpec(
        outdoor_temp=outdoor,
        indoor_model=indoor_model or FixedIndoor(19.0),
        **kw,
    )


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
    samples = build_samples([record], params, spec)
    assert len(samples) == 1
    assert samples[0].weight == 50.0
    assert samples[0].indoor_temp == 19.0


def test_build_samples_stochastic_expansion():
    record, _, params = one_record_setup(count=100)
    spec = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=3))
    samples = build_samples([record], params, spec, expansion=10)
    assert len(samples) == 10
    assert all(s.weight == pytest.approx(10.0) for s in samples)
    assert all(14.0 <= s.indoor_temp <= 24.0 for s in samples)


def test_build_samples_empty_and_missing_params():
    assert build_samples([], {}, spec_at(5.0)) == []
    record, _, _ = one_record_setup()
    with pytest.raises(MissingParamsError):
        build_samples([record], {}, spec_at(5.0))


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
    assert a.outcomes == b.outcomes
    assert not a.errors


def test_parallel_equals_serial(small_stock):
    # samples are independent: the parts of any partition, evaluated apart
    # (and so in parallel) and concatenated, equal evaluating the whole
    records, table = small_stock
    spec = spec_at(-5.0, indoor_model=TruncatedNormalIndoor(seed=21))
    params = derive_all(records, table, spec.capacity_level, spec.stock_variant)
    samples = build_samples(records, params, spec)
    whole = run_scenario(samples, spec, Direction.POSITIVE)
    n = len(samples)
    for split in (0, 1, n // 3, n):
        head = run_scenario(samples[:split], spec, Direction.POSITIVE)
        tail = run_scenario(samples[split:], spec, Direction.POSITIVE)
        assert head.outcomes + tail.outcomes == whole.outcomes
        assert head.errors + tail.errors == whole.errors
        assert build_envelope(head.outcomes + tail.outcomes) == build_envelope(whole.outcomes)


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
    run = run_stock_scenario(records, table, spec, Direction.POSITIVE)
    by_lsoa = {s.lsoa_id: o for s, o in run.outcomes}

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
    good = build_samples([record], params, spec)
    from dataclasses import replace as dc_replace
    bad = dc_replace(good[0], indoor_temp=500.0)
    run = run_scenario([bad] + good, spec, Direction.NEGATIVE)
    assert len(run.outcomes) == 1
    assert len(run.errors) == 1
    failed_sample, message = run.errors[0]
    assert failed_sample.indoor_temp == 500.0
    assert "500" in message


def test_uptake_zero_gives_zero_weights(small_stock):
    records, table = small_stock
    spec = spec_at(5.0, uptake_fraction=0.0)
    run = run_stock_scenario(records, table, spec, Direction.NEGATIVE)
    assert all(s.weight == 0.0 for s, _ in run.outcomes)


def test_uptake_linearity(small_stock):
    records, table = small_stock
    full = run_stock_scenario(records, table, spec_at(5.0, uptake_fraction=1.0),
                              Direction.NEGATIVE)
    half = run_stock_scenario(records, table, spec_at(5.0, uptake_fraction=0.5),
                              Direction.NEGATIVE)
    total_full = sum(s.weight * abs(o.magnitude_electric) for s, o in full.outcomes)
    total_half = sum(s.weight * abs(o.magnitude_electric) for s, o in half.outcomes)
    assert total_half == pytest.approx(0.5 * total_full, rel=1e-12)


def test_fixed_model_invariant_to_expansion(small_stock):
    records, table = small_stock
    spec = spec_at(5.0)
    a = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=1)
    b = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=7)
    assert a.outcomes == b.outcomes


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
    before, after = (r.outcomes for r in retrofit_runs(records, table, spec, Direction.NEGATIVE))
    assert len(before) == len(after)
    for (sb, ob), (sa, oa) in zip(before, after):
        assert (sb.lsoa_id, sb.category, sb.indoor_temp) == (sa.lsoa_id, sa.category, sa.indoor_temp)
        assert abs(oa.magnitude_electric) <= abs(ob.magnitude_electric) + 1e-12
        if ob.duration.is_finite and oa.duration.is_finite:
            assert oa.duration.seconds >= ob.duration.seconds


def test_retrofit_noop_when_demands_equal():
    record = make_record(before=9000.0, after=9000.0)
    table = make_region_table({"E01000001": ("Wales", "Cardiff")})
    before, after = retrofit_runs([record], table, spec_at(5.0), Direction.NEGATIVE)
    assert before.outcomes == after.outcomes


def test_capacity_sweep_scales_durations_only(small_stock):
    records, table = small_stock
    spec = spec_at(5.0, indoor_model=TruncatedNormalIndoor(seed=5))
    levels = [CapacityLevel.MEDIUM, CapacityLevel.MEDIUM_PLUS_10, CapacityLevel.MEDIUM_MINUS_10]
    specs = [replace(spec, capacity_level=level) for level in levels]
    runs = dict(zip(levels, run_sweep(records, table, specs, Direction.NEGATIVE)))
    medium = runs[CapacityLevel.MEDIUM].outcomes
    for level, ratio in [(CapacityLevel.MEDIUM_PLUS_10, 1.1),
                         (CapacityLevel.MEDIUM_MINUS_10, 0.9)]:
        other = runs[level].outcomes
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
    assert sweep.outcomes == plain.outcomes


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
    calls = {"derive": 0, "samples": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenario, "derive_all", counted("derive", scenario.derive_all))
    monkeypatch.setattr(scenario, "build_samples", counted("samples", scenario.build_samples))
    runs = list(run_sweep(records, table, specs, Direction.NEGATIVE))
    assert calls == {"derive": 3, "samples": 5}
    assert [r.outcomes for r in runs] == [r.outcomes for r in expected]


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
        totals.append(sum(s.weight * abs(o.magnitude_electric) for s, o in run.outcomes))
    totals = np.array(totals)
    assert totals.std() / totals.mean() < 0.01
    assert (totals.max() - totals.min()) / totals.mean() < 0.03
