"""Envelopes, energy totals, spatial rollups and deterministic exports."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatflex import (
    AggregateReport,
    DataValidationError,
    Direction,
    Duration,
    Envelope,
    ExportFormat,
    FiniteEnergy,
    FixedIndoor,
    FlexOutcome,
    GroupStats,
    HeatflexError,
    Level,
    SampleTable,
    ScenarioRun,
    ScenarioSpec,
    SchemaError,
    TruncatedNormalIndoor,
    build_envelope,
    capped_energy,
    export_report,
    finite_energy,
    load_report,
    rollup,
    run_stock_scenario,
)
from heatflex import scenario as scenario_module
from heatflex import stock as stock_module
from heatflex.scenario import FAILED, FAILED_INDOOR, FINITE, UNBOUNDED, ZERO
from heatflex.synth import generate_stock

from conftest import column, make_region_table, make_run, make_sample


def outcome(mag, duration):
    return FlexOutcome(magnitude_electric=mag, duration=duration)


def envelope_of(breakpoints, total_power, unbounded_power):
    """An Envelope from (duration_s, power_w) pairs."""
    return Envelope([d for d, _ in breakpoints], [p for _, p in breakpoints],
                    total_power, unbounded_power)


def report_of(level, groups, *totals, **rest):
    """An AggregateReport holding these GroupStats by key, laid out as its
    columns: the groups in key order, their steps end to end."""
    keys = sorted(groups)
    envelopes = [groups[key].envelope for key in keys]
    offsets = np.cumsum([0, *(len(e.durations) for e in envelopes)])
    summary = np.array([[g.installed_thermal_w, g.magnitude_at_zero_w, g.unbounded_power_w,
                         g.finite_energy_wh] for g in map(groups.get, keys)]).reshape(-1, 4)
    return AggregateReport(level, tuple(keys), offsets,
                           np.concatenate([np.empty(0), *(e.durations for e in envelopes)]),
                           np.concatenate([np.empty(0), *(e.power for e in envelopes)]),
                           summary, *totals, **rest)


def test_envelope_two_sample_example():
    outcomes = [
        (make_sample(weight=1.0), outcome(-100.0, Duration.finite(3600.0))),
        (make_sample(weight=1.0), outcome(-50.0, Duration.unbounded())),
    ]
    env = build_envelope(make_run(outcomes))
    assert env.total_power == pytest.approx(150.0)
    assert env.unbounded_power == pytest.approx(50.0)
    assert env.breakpoints == ((3600.0, 150.0),)
    # brute-force sum at sampled times: within [0, 3600] both contribute
    for t in (0.0, 1.0, 1800.0, 3600.0):
        assert env.power_at(t) == pytest.approx(150.0)
    for t in (3600.1, 7200.0, 1e9):
        assert env.power_at(t) == pytest.approx(50.0)


def test_envelope_all_zero():
    outcomes = [(make_sample(weight=2.0), outcome(0.0, Duration.zero()))] * 3
    env = build_envelope(make_run(outcomes))
    assert env.total_power == 0.0
    assert env.unbounded_power == 0.0
    assert env.breakpoints == ()
    assert env.power_at(0.0) == 0.0


def test_envelope_single_rectangle():
    env = build_envelope(make_run([(make_sample(weight=3.0),
                                   outcome(200.0, Duration.finite(60.0)))]))
    assert env.total_power == pytest.approx(600.0)
    assert env.power_at(60.0) == pytest.approx(600.0)
    assert env.power_at(60.01) == 0.0


def test_envelope_rejects_mixed_directions():
    outcomes = [
        (make_sample(), outcome(100.0, Duration.finite(60.0))),
        (make_sample(), outcome(-100.0, Duration.finite(60.0))),
    ]
    with pytest.raises(ValueError, match="mix"):
        build_envelope(make_run(outcomes))


def test_envelope_monotone_and_partition_additive():
    rng = np.random.default_rng(8)
    outcomes = []
    for _ in range(500):
        w = float(rng.uniform(0.5, 5))
        mag = -float(rng.uniform(10, 500))
        r = rng.random()
        if r < 0.1:
            d = Duration.zero()
            mag = 0.0
        elif r < 0.25:
            d = Duration.unbounded()
        else:
            d = Duration.finite(float(rng.uniform(60, 86400)))
        outcomes.append((make_sample(weight=w), outcome(mag, d)))

    whole = build_envelope(make_run(outcomes))
    powers = [p for _, p in whole.breakpoints]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert all(p >= whole.unbounded_power >= 0 for p in powers)

    parts = [build_envelope(make_run(outcomes[i::3])) for i in range(3)]
    checkpoints = [0.0] + list(whole.durations) + [whole.durations[-1] + 1.0]
    for t in checkpoints:
        assert sum(p.power_at(t) for p in parts) == pytest.approx(
            whole.power_at(t), rel=1e-9
        )

    def scanned_power_at(t):
        # linear scan: power of the first breakpoint at or beyond t
        if t <= 0:
            return whole.total_power
        for d, p in whole.breakpoints:
            if d >= t:
                return p
        return whole.unbounded_power

    durations = whole.durations
    on = list(durations)
    between = [(a + b) / 2 for a, b in zip(durations, durations[1:])]
    past = [durations[-1] + 1.0, durations[-1] * 10, float("inf")]
    for t in [-1.0, 0.0, durations[0] / 2, *on, *between, *past]:
        assert whole.power_at(t) == scanned_power_at(t)


def test_power_at_refuses_nan():
    # nan is neither <= 0 nor before any duration, so it would read the floor
    env = envelope_of([(30.0, 10.0)], 12.0, 1.0)
    with pytest.raises(HeatflexError, match="nan"):
        env.power_at(math.nan)
    assert env.power_at(math.inf) == 1.0


def test_finite_energy_arithmetic():
    res = finite_energy(make_run([
        (make_sample(weight=2.0), outcome(-1000.0, Duration.finite(3600.0))),
    ]))
    assert res.energy_wh == pytest.approx(2000.0)
    assert res.unbounded_count == 0

    mixed = finite_energy(make_run([
        (make_sample(weight=2.0), outcome(-1000.0, Duration.finite(3600.0))),
        (make_sample(weight=1.0), outcome(-500.0, Duration.unbounded())),
    ]))
    assert mixed.energy_wh == pytest.approx(2000.0)
    assert mixed.unbounded_count == 1
    assert mixed.unbounded_power_w == pytest.approx(500.0)


def test_finite_energy_all_unbounded():
    res = finite_energy(make_run([
        (make_sample(weight=1.0), outcome(-500.0, Duration.unbounded())),
        (make_sample(weight=2.0), outcome(-100.0, Duration.unbounded())),
    ]))
    assert res.energy_wh == 0.0
    assert res.unbounded_count == 2
    assert res.unbounded_power_w == pytest.approx(700.0)


def test_capped_energy_counts_unbounded_at_cap():
    outcomes = [
        (make_sample(weight=1.0), outcome(-100.0, Duration.finite(7200.0))),
        (make_sample(weight=1.0), outcome(-100.0, Duration.unbounded())),
    ]
    assert capped_energy(make_run(outcomes), cap_s=3600.0) == pytest.approx(200.0)
    assert capped_energy(make_run(outcomes), cap_s=0.0) == 0.0
    # caps that are not finite and >= 0; let through they gave a negative, nan or inf energy
    for cap_s in (-1.0, math.nan, math.inf):
        with pytest.raises(HeatflexError, match="display cap"):
            capped_energy(make_run(outcomes), cap_s=cap_s)


# ---------------------------------------------------------------------------
# rollups
# ---------------------------------------------------------------------------

def la_fixture():
    table = make_region_table({
        "E01000001": ("Wales", "Cardiff"),
        "E01000002": ("Wales", "Cardiff"),
        "E01000003": ("Wales", "Swansea"),
    })
    outcomes = [
        (make_sample(weight=2.0, lsoa_id="E01000001"), outcome(-100.0, Duration.finite(600.0))),
        (make_sample(weight=1.0, lsoa_id="E01000002"), outcome(-80.0, Duration.finite(1200.0))),
        (make_sample(weight=1.0, lsoa_id="E01000003"), outcome(-50.0, Duration.unbounded())),
    ]
    return table, outcomes


def test_rollup_merges_lsoas_within_local_authority():
    table, outcomes = la_fixture()
    report = rollup(make_run(outcomes), table, Level.LOCAL_AUTHORITY)
    assert set(report.groups) == {"Cardiff", "Swansea"}
    cardiff = report.groups["Cardiff"].envelope
    merged = build_envelope(make_run(outcomes[:2]))
    assert cardiff.breakpoints == merged.breakpoints
    assert cardiff.total_power == pytest.approx(280.0)


def test_rollup_national_single_group():
    table, outcomes = la_fixture()
    report = rollup(make_run(outcomes), table, Level.NATIONAL)
    assert set(report.groups) == {"national"}
    assert report.total_magnitude_at_zero_w == pytest.approx(330.0)
    assert report.groups["national"].envelope.total_power == pytest.approx(330.0)


def test_rollup_totals_equal_sum_of_groups():
    table, outcomes = la_fixture()
    for level in Level:
        report = rollup(make_run(outcomes), table, level)
        assert report.total_magnitude_at_zero_w == pytest.approx(
            sum(g.magnitude_at_zero_w for g in report.groups.values()), rel=1e-9
        )
        assert report.total_installed_thermal_w == pytest.approx(
            sum(g.installed_thermal_w for g in report.groups.values()), rel=1e-9
        )


def test_rollup_reports_unresolved_lsoas():
    table, outcomes = la_fixture()
    stray = (make_sample(weight=1.0, lsoa_id="E01999999"),
             outcome(-40.0, Duration.finite(60.0)))
    report = rollup(make_run(outcomes + [stray]), table, Level.REGION)
    assert report.unresolved_lsoas == ("E01999999",)
    assert report.excluded_power_w == pytest.approx(40.0)
    assert report.total_magnitude_at_zero_w == pytest.approx(330.0)


def _reference_sum(values):
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def reference_envelope(run):
    """The per-group envelope the one-pass fold replaced: np.unique, np.bincount
    and a reverse np.cumsum seeded with the unbounded power."""
    power = column(run.samples, "weight") * np.abs(run.magnitude)
    unbounded = _reference_sum(power[run.kind == UNBOUNDED])
    finite = run.kind == FINITE
    durations, slot = np.unique(run.duration[finite], return_inverse=True)
    mass = np.bincount(slot, weights=power[finite], minlength=len(durations))
    running = np.cumsum(np.concatenate(([unbounded], mass[::-1])))[:0:-1]
    total = float(running[0]) if len(running) else unbounded
    return Envelope(durations, running, total_power=total, unbounded_power=unbounded)


def reference_rollup(run, regions, level):
    """The per-group loop the one-pass rollup replaced: each group's rows cut
    out of the run in sample order and folded on their own."""
    def key_of(lsoa_id):
        return {Level.NATIONAL: "national", Level.LSOA: lsoa_id,
                Level.REGION: regions.region_of(lsoa_id),
                Level.LOCAL_AUTHORITY: regions.local_authority_of(lsoa_id)}[level]

    power = column(run.samples, "weight") * np.abs(run.magnitude)
    rows_of, unresolved, excluded = {}, set(), []
    for i, code in enumerate(column(run.samples, "lsoa_code").tolist()):
        if run.kind[i] >= FAILED:
            continue
        lsoa_id = run.samples.lsoa_ids[code]
        key = key_of(lsoa_id)
        if key is None:
            unresolved.add(lsoa_id)
            excluded.append(power[i])
        else:
            rows_of.setdefault(key, []).append(i)

    groups = {}
    totals = [0.0, 0.0, 0.0, 0.0]
    for key in sorted(rows_of):
        part = run[np.array(rows_of[key])]
        envelope = reference_envelope(part)
        part_power = column(part.samples, "weight") * np.abs(part.magnitude)
        finite = part.kind == FINITE
        installed = _reference_sum(column(part.samples, "weight")
                                   * (column(part.samples, "hp_size") * 1000.0))
        energy = _reference_sum(part_power[finite] * part.duration[finite] / 3600.0)
        groups[key] = GroupStats(envelope=envelope, installed_thermal_w=installed,
                                 finite_energy_wh=energy)
        for j, value in enumerate((installed, envelope.total_power,
                                   envelope.unbounded_power, energy)):
            totals[j] += value
    return report_of(
        level, groups,
        total_installed_thermal_w=totals[0], total_magnitude_at_zero_w=totals[1],
        total_unbounded_w=totals[2], total_finite_energy_wh=totals[3],
        unresolved_lsoas=tuple(sorted(unresolved)),
        excluded_power_w=_reference_sum(np.array(excluded, dtype=float)),
    )


# eleven LSOAs in two regions and three local authorities, the last of them
# with no local authority; E01099999 is in no lookup
ORACLE_LOOKUP = {f"E0100{i:04d}": (("Wales", "London")[i % 2], f"LA {i % 3}")
                 for i in range(11)}
ORACLE_LSOAS = (*ORACLE_LOOKUP, "E01099999")


@st.composite
def oracle_runs(draw):
    """Up to 400 rows of every kind, both failure codes among them, over up
    to 60 records in the oracle LSOAs, all in one direction; most finite
    durations come from a short list, so durations repeat within and across
    groups."""
    n, records = draw(st.integers(0, 400)), draw(st.integers(1, 60))
    sign = draw(st.sampled_from([1.0, -1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(np.array([ZERO, FINITE, FINITE, UNBOUNDED, FAILED, FAILED_INDOOR],
                               dtype=np.int8), n)
    magnitude = sign * rng.uniform(0.0, 5000.0, n)
    magnitude[(kind == ZERO) | (kind >= FAILED)] = 0.0
    duration = np.where(rng.random(n) < 0.7, rng.choice([60.0, 600.0, 3600.0], n),
                        rng.uniform(1.0, 1e5, n))
    duration[kind == UNBOUNDED] = np.inf
    duration[kind == ZERO] = 0.0
    duration[kind >= FAILED] = np.nan
    samples = SampleTable(ORACLE_LSOAS, rng.integers(0, len(ORACLE_LSOAS), records),
                          rng.uniform(0.01, 10.0, records), np.full(records, 0.2),
                          np.full(records, 25000.0), rng.uniform(0.5, 20.0, records),
                          record=rng.integers(0, records, n, dtype=np.int32),
                          indoor_temp=np.full(n, 19.0))
    return ScenarioRun(samples=samples,
                       spec=ScenarioSpec(outdoor_temp=0.0, indoor_model=FixedIndoor()),
                       direction=Direction.POSITIVE if sign > 0 else Direction.NEGATIVE,
                       magnitude=magnitude, duration=duration, kind=kind)


def assert_rollup_equals_the_per_group_loop(run):
    regions = make_region_table(ORACLE_LOOKUP)
    del regions.lsoa_to_local_authority["E01000010"]
    for level in Level:
        assert rollup(run, regions, level) == reference_rollup(run, regions, level), level
    whole = reference_envelope(run)
    assert build_envelope(run) == whole
    power = column(run.samples, "weight") * np.abs(run.magnitude)
    finite = run.kind == FINITE
    assert finite_energy(run) == FiniteEnergy(
        energy_wh=_reference_sum(power[finite] * run.duration[finite] / 3600.0),
        unbounded_count=int(np.count_nonzero(run.kind == UNBOUNDED)),
        unbounded_power_w=whole.unbounded_power)


@settings(max_examples=200, deadline=None)
@given(oracle_runs())
def test_rollup_equals_the_per_group_loop(run):
    assert_rollup_equals_the_per_group_loop(run)


@settings(max_examples=100, deadline=None)
@given(oracle_runs(), st.integers(1, 40))
def test_rollup_across_blocks_equals_the_per_group_loop(run, block):
    # the fold reads the run a block of rows at a time, once in sample order
    # and once in (group, duration) order; any block size gives the same floats
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario_module, "_BLOCK", block)
        assert_rollup_equals_the_per_group_loop(run)


def test_rollup_rows_on_both_sides_of_block_boundaries(monkeypatch):
    # 2 blocks of 6 rows and 1 more: equal durations in one group straddle
    # both boundaries in sample order (rows 5|6, 11|12) and the first in
    # (group, duration) order at national level; failed, unbounded and
    # unresolved rows sit on both sides of the first and before the second
    monkeypatch.setattr(scenario_module, "_BLOCK", 6)
    a, b, stray = 0, 1, ORACLE_LSOAS.index("E01099999")  # Wales/LA 0, London/LA 1, no lookup
    rows = [(FINITE, a, 600.0), (ZERO, b, 0.0), (FAILED, a, math.nan), (UNBOUNDED, b, math.inf),
            (FINITE, stray, 600.0), (FINITE, a, 600.0),
            (FINITE, a, 600.0), (UNBOUNDED, stray, math.inf), (FAILED_INDOOR, b, math.nan),
            (FINITE, b, 60.0), (FINITE, stray, 600.0), (FINITE, b, 600.0),
            (FINITE, b, 600.0)]
    kind, lsoa, duration = (np.array(c) for c in zip(*rows))
    n = len(rows)
    magnitude = np.where((kind == FINITE) | (kind == UNBOUNDED), -100.0 - np.arange(n) / 7, 0.0)
    samples = SampleTable(ORACLE_LSOAS, lsoa, 0.5 + np.arange(n) / 3, np.full(n, 0.2),
                          np.full(n, 25000.0), 1.0 + np.arange(n) / 9,
                          record=np.arange(n, dtype=np.int32), indoor_temp=np.full(n, 19.0))
    run = ScenarioRun(samples=samples,
                      spec=ScenarioSpec(outdoor_temp=0.0, indoor_model=FixedIndoor()),
                      direction=Direction.NEGATIVE, magnitude=magnitude,
                      duration=duration, kind=kind.astype(np.int8))
    assert n == 2 * scenario_module._BLOCK + 1
    assert_rollup_equals_the_per_group_loop(run)
    assert build_envelope(run).durations.tolist() == [60.0, 600.0]


def test_rollup_peak_memory_per_sample():
    # beyond the sort of its finite rows, the fold keeps no array the size of
    # the run: about 18 bytes per sample at the peak on a national run, where
    # a fold that gathers power, codes and slots for every row takes about 41
    records, lookup = generate_stock(800_000, 7)
    regions = make_region_table({lsoa: (region, la) for lsoa, region, la in lookup})
    spec = ScenarioSpec(outdoor_temp=5.0, indoor_model=TruncatedNormalIndoor(seed=7))
    run = run_stock_scenario(records, regions, spec, Direction.NEGATIVE, expansion=10)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = rollup(run, regions, Level.NATIONAL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(run) >= 200_000 and len(report.groups["national"].envelope.durations) > 0
    assert peak / len(run) < 30


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def assert_export_round_trip(tmp_path, la, lsoa):
    table, outcomes = la_fixture()
    table.lsoa_to_local_authority["E01000001"] = la
    stray = (make_sample(weight=1.0, lsoa_id=lsoa),
             outcome(-40.0, Duration.finite(60.0)))
    report = rollup(make_run(outcomes + [stray]), table, Level.LOCAL_AUTHORITY)

    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    assert load_report(tmp_path / "csv", ExportFormat.CSV) == report

    export_report(report, ExportFormat.JSON, tmp_path / "json")
    assert load_report(tmp_path / "json", ExportFormat.JSON) == report


def test_export_round_trip_both_formats(tmp_path):
    assert_export_round_trip(tmp_path, "Cardiff", "E01999999")


@pytest.mark.parametrize("la, lsoa", [("a\rb", "a\rb"), ("", "")],
                         ids=["carriage return", "empty"])
def test_export_round_trip_awkward_keys(tmp_path, la, lsoa):
    # a group key holding a bare \r reads back from summary.csv and as an
    # envelope.csv prefix, and such an LSOA id from unresolved.csv; so does
    # an empty one, which alone on its row must be quoted
    assert_export_round_trip(tmp_path, la, lsoa)


def test_envelope_columns_are_frozen_float_arrays(tmp_path):
    # rollup and load_report hand out envelopes whose two columns cannot be
    # written through, and breakpoints is the pair view perfbench reads
    table, outcomes = la_fixture()
    report = rollup(make_run(outcomes), table, Level.LOCAL_AUTHORITY)
    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    export_report(report, ExportFormat.JSON, tmp_path / "json")
    for r in (report, load_report(tmp_path / "csv", ExportFormat.CSV),
              load_report(tmp_path / "json", ExportFormat.JSON)):
        assert r.groups["Cardiff"].envelope.breakpoints == ((600.0, 280.0), (1200.0, 80.0))
        for g in r.groups.values():
            env = g.envelope
            for column in (env.durations, env.power):
                assert column.dtype == np.float64 and column.ndim == 1
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[:] = 0.0
            assert env.breakpoints == tuple(zip(env.durations.tolist(), env.power.tolist()))

    # equality compares every element of both columns and both powers
    env = report.groups["Cardiff"].envelope
    assert env == envelope_of(env.breakpoints, 280.0, 0.0)
    assert env != envelope_of([(600.0, 280.0), (1200.0, 80.5)], 280.0, 0.0)
    assert env != envelope_of([(600.0, 280.0), (1201.0, 80.0)], 280.0, 0.0)
    assert env != envelope_of([(600.0, 280.0)], 280.0, 0.0)
    assert env != envelope_of(env.breakpoints, 280.0, 1.0)
    assert env != envelope_of(env.breakpoints, 281.0, 0.0)


def test_excluded_power_only_on_total_row(tmp_path):
    # excluded power comes from unresolved LSOAs, which join no group: the
    # group rows leave the cell empty, and a loader meeting a filled one
    # refuses the file rather than drop the value
    table, outcomes = la_fixture()
    stray = (make_sample(weight=1.0, lsoa_id="E01999999"),
             outcome(-40.0, Duration.finite(60.0)))
    report = rollup(make_run(outcomes + [stray]), table, Level.LOCAL_AUTHORITY)
    export_report(report, ExportFormat.CSV, tmp_path)
    summary = tmp_path / "summary.csv"
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["excluded_power_w"] for r in rows if r["key"] != "__total__"] == [""] * len(
        report.groups)
    assert rows[-1]["key"] == "__total__"
    assert rows[-1]["excluded_power_w"] == repr(40.0)

    lines = summary.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].endswith(",\n")
    summary.write_text(lines[0] + lines[1][:-1] + "0.0\n" + "".join(lines[2:]),
                       encoding="utf-8")
    with pytest.raises(DataValidationError, match="excluded_power_w"):
        load_report(tmp_path, ExportFormat.CSV)


def lsoa_report():
    """Three LSOA groups: E01000001 with two steps, E01000002 with one and
    E01000003 with none (its only sample is unbounded)."""
    table, outcomes = la_fixture()
    extra = (make_sample(weight=1.0, lsoa_id="E01000001"), outcome(-30.0, Duration.finite(900.0)))
    return rollup(make_run(outcomes + [extra]), table, Level.LSOA)


def edit_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


@pytest.mark.parametrize("name, edit, message", [
    ("envelope.csv", lambda lines: [*lines, "E01000009,60.0,1.0"], "keys are not summary"),
    ("summary.csv", lambda lines: [*lines[:2], *lines[1:]],
     "group 'E01000001' follows 'E01000001'"),
    ("summary.csv", lambda lines: [lines[0], "la" + lines[1][len("lsoa"):], *lines[2:]],
     "rows of more than one level"),
    ("summary.csv", lambda lines: [lines[0], lines[-1], *lines[1:-1]], "not ending in a total row"),
    ("envelope.csv", lambda lines: [lines[0], lines[3], lines[1], lines[2]],
     "keys are not summary"),
    ("envelope.csv", lambda lines: [lines[0], lines[1], lines[3], lines[2]],
     "keys are not summary"),
    ("envelope.csv", lambda lines: [lines[0], "E01000001,600.0", *lines[2:]],
     "malformed export (ValueError: could not convert string to float: '')"),
    ("envelope.csv", lambda lines: [lines[0], "E01000001,600.0,x", *lines[2:]],
     "malformed export (ValueError: could not convert string to float: 'x')"),
    ("summary.csv", lambda lines: [lines[0], lines[1].replace("14400.0", "x"), *lines[2:]],
     "malformed export (ValueError: could not convert string to float: 'x')"),
    ("summary.csv", lambda lines: [lines[0].replace(",key,", ",name,"), *lines[1:]],
     "missing column(s): key"),
    ("envelope.csv", lambda lines: [lines[0], '"' + lines[1], *lines[2:], *lines[1:] * 3000],
     "malformed CSV: field larger than field limit (131072)"),
], ids=["envelope key with no summary row", "repeated summary key", "two levels",
        "total row first", "envelope rows out of key order", "a group's envelope rows apart",
        "envelope row of two cells", "non-numeric envelope cell", "non-numeric summary cell",
        "summary key column renamed", "stray quote past the field limit"])
def test_csv_load_refuses_a_malformed_export(tmp_path, name, edit, message):
    # the loader lays the steps out in summary.csv's key order, so it refuses
    # a file whose keys do not strictly increase, or whose envelope rows are
    # not the summary keys in that order, each group's rows together; it also
    # refuses a summary of two levels, or one that does not end in its total,
    # a row too short (its missing cells read as empty), a cell that is not a
    # number and a missing column
    report = lsoa_report()
    export_report(report, ExportFormat.CSV, tmp_path)
    assert load_report(tmp_path, ExportFormat.CSV) == report
    assert [line.split(",")[0] for line in
            (tmp_path / "envelope.csv").read_text(encoding="utf-8").splitlines()] == [
        "key", "E01000001", "E01000001", "E01000002"]
    edit_lines(tmp_path / name, edit)
    with pytest.raises(DataValidationError) as excinfo:
        load_report(tmp_path, ExportFormat.CSV)
    assert str(excinfo.value).startswith(f"{tmp_path / name}: ")
    assert message in str(excinfo.value)


def test_csv_load_reads_reordered_envelope_columns(tmp_path):
    # envelope.csv's columns are found by header name: reordered with their
    # data, they reload to the same report rather than power read as duration
    report = lsoa_report()
    export_report(report, ExportFormat.CSV, tmp_path)
    envelope = tmp_path / "envelope.csv"
    edit_lines(envelope, lambda lines: [
        ",".join((key, power, duration))
        for key, duration, power in (line.split(",") for line in lines)])
    assert envelope.read_text(encoding="utf-8").splitlines()[0] == "key,power_w,duration_s"
    assert load_report(tmp_path, ExportFormat.CSV) == report


def test_csv_load_refuses_a_renamed_envelope_column(tmp_path):
    export_report(lsoa_report(), ExportFormat.CSV, tmp_path)
    envelope = tmp_path / "envelope.csv"
    edit_lines(envelope, lambda lines: ["key,duration_s,watts", *lines[1:]])
    with pytest.raises(SchemaError) as excinfo:
        load_report(tmp_path, ExportFormat.CSV)
    assert str(excinfo.value) == f"{envelope}: missing column(s): power_w"


def test_json_load_refuses_groups_out_of_key_order(tmp_path):
    report = lsoa_report()
    path = export_report(report, ExportFormat.JSON, tmp_path)[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["groups"] = dict(reversed(doc["groups"].items()))
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    with pytest.raises(DataValidationError,
                       match=f"{path}: group 'E01000002' follows 'E01000003'"):
        load_report(tmp_path, ExportFormat.JSON)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["groups"]["E01000001"]["breakpoints"][0].append(1.0),
     "malformed export (ValueError: setting an array element with a sequence"),
    (lambda doc: doc.pop("totals"), "malformed export (KeyError: 'totals')"),
    (lambda doc: doc["totals"].update(installed_w="x"),
     "malformed export (ValueError: could not convert string to float: 'x')"),
    (lambda doc: doc.update(groups=list(doc["groups"].values())),
     "malformed export (AttributeError: 'list' object has no attribute 'values')"),
], ids=["breakpoint of three numbers", "no totals", "non-numeric total", "groups a list"])
def test_json_load_refuses_a_malformed_export(tmp_path, edit, message):
    # a step that is not a pair, a missing field or a value that is not a
    # number is refused as a data error that names the file
    report = lsoa_report()
    path = export_report(report, ExportFormat.JSON, tmp_path)[0]
    assert load_report(tmp_path, ExportFormat.JSON) == report
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    with pytest.raises(DataValidationError) as excinfo:
        load_report(tmp_path, ExportFormat.JSON)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert message in str(excinfo.value)


def test_load_keeps_the_summary_as_written(tmp_path):
    # a raised first step must not carry into the group's power at zero
    # duration: the loaders read it from the summary, never from the steps,
    # which is how a check can see the two disagree
    report = lsoa_report()
    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    edit_lines(tmp_path / "csv" / "envelope.csv", lambda lines: [
        lines[0], "E01000001,600.0," + repr(float(lines[1].split(",")[2]) + 1.0), *lines[2:]])
    path = export_report(report, ExportFormat.JSON, tmp_path / "json")[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["groups"]["E01000001"]["breakpoints"][0][1] += 1.0
    path.write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")

    written = report.groups["E01000001"]
    assert written.magnitude_at_zero_w == written.envelope.power[0] == 230.0
    for fmt, where in ((ExportFormat.CSV, tmp_path / "csv"), (ExportFormat.JSON, path)):
        loaded = load_report(where, fmt).groups["E01000001"]
        assert loaded.magnitude_at_zero_w == 230.0
        assert loaded.envelope.power[0] == 231.0
        assert loaded.magnitude_at_zero_w != loaded.envelope.power[0]


def test_total_unbounded_power_is_sum_of_groups(tmp_path, small_stock):
    # a demand-increase run at 0 C leaves some heat pumps unable to reach
    # the comfort ceiling: their groups carry unbounded power
    records, table = small_stock
    spec = ScenarioSpec(outdoor_temp=0.0, indoor_model=TruncatedNormalIndoor(seed=13))
    run = run_stock_scenario(records, table, spec, Direction.POSITIVE, expansion=4)
    report = rollup(run, table, Level.REGION)
    groups_w = sum(g.unbounded_power_w for g in report.groups.values())
    assert sum(g.unbounded_power_w > 0 for g in report.groups.values()) >= 2
    assert report.total_unbounded_w == pytest.approx(groups_w, rel=1e-12)

    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    with open(tmp_path / "csv" / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    total = next(r for r in rows if r["key"] == "__total__")
    assert float(total["unbounded_w"]) == report.total_unbounded_w
    assert float(total["unbounded_w"]) == pytest.approx(
        sum(float(r["unbounded_w"]) for r in rows if r["key"] != "__total__"), rel=1e-12
    )
    assert load_report(tmp_path / "csv", ExportFormat.CSV) == report

    export_report(report, ExportFormat.JSON, tmp_path / "json")
    doc = json.loads((tmp_path / "json" / "report.json").read_text(encoding="utf-8"))
    assert doc["totals"]["unbounded_w"] == report.total_unbounded_w
    assert load_report(tmp_path / "json", ExportFormat.JSON) == report


def test_csv_reexport_removes_a_stale_unresolved_file(tmp_path):
    # a report with no unresolved LSOA, exported over one that had some,
    # must read back as itself and not with the older report's list
    table, outcomes = la_fixture()
    stray = (make_sample(weight=1.0, lsoa_id="E01999999"),
             outcome(-40.0, Duration.finite(60.0)))
    export_report(rollup(make_run(outcomes + [stray]), table, Level.LOCAL_AUTHORITY),
                  ExportFormat.CSV, tmp_path)
    assert (tmp_path / "unresolved.csv").exists()
    report = rollup(make_run(outcomes), table, Level.LOCAL_AUTHORITY)
    assert report.unresolved_lsoas == ()
    export_report(report, ExportFormat.CSV, tmp_path)
    assert not (tmp_path / "unresolved.csv").exists()
    assert load_report(tmp_path, ExportFormat.CSV) == report


def test_export_idempotent_bytes(tmp_path):
    table, outcomes = la_fixture()
    report = rollup(make_run(outcomes), table, Level.LOCAL_AUTHORITY)
    paths_a = export_report(report, ExportFormat.CSV, tmp_path / "a")
    paths_b = export_report(report, ExportFormat.CSV, tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def json_module_report(report):
    """report.json as json.dumps(doc, sort_keys=True, indent=2) writes it."""
    doc = {
        "level": report.level.value,
        "groups": {
            key: {
                "installed_w": g.installed_thermal_w,
                "magnitude_at_0_w": g.magnitude_at_zero_w,
                "unbounded_w": g.unbounded_power_w,
                "finite_energy_wh": g.finite_energy_wh,
                "breakpoints": [list(bp) for bp in g.envelope.breakpoints],
            }
            for key, g in report.groups.items()
        },
        "totals": {"installed_w": report.total_installed_thermal_w,
                   "magnitude_at_0_w": report.total_magnitude_at_zero_w,
                   "unbounded_w": report.total_unbounded_w,
                   "finite_energy_wh": report.total_finite_energy_wh},
        "unresolved_lsoas": list(report.unresolved_lsoas),
        "excluded_power_w": report.excluded_power_w,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def csv_writer_envelope(report, path):
    """envelope.csv as a csv.writer row loop writes it. csv.writer quotes a
    cell holding a bare \r only when its terminator holds one, so the rows end
    \r\n and then \n; no key here holds \r\n."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["key", "duration_s", "power_w"])
        for key in sorted(report.groups):
            for d, p in report.groups[key].envelope.breakpoints:
                writer.writerow([key, repr(d), repr(p)])
    return path.read_bytes().replace(b"\r\n", b"\n")


def test_json_export_writes_what_json_module_writes(tmp_path):
    # report.json writes its breakpoint lists without the json encoder; the
    # bytes must stay those of json.dump(doc, sort_keys=True, indent=2)
    def group(breakpoints, unbounded):
        power = breakpoints[0][1] if breakpoints else unbounded
        return GroupStats(envelope_of(breakpoints, power, unbounded), 1.5, 0.1)

    groups = {
        "z": group([(60.0, 3.0), (1e-300, 2.0), (7200.5, 1.0),
                    (1e16, float(np.nextafter(1e-4, 0))), (5e-324, 0.5)], 0.5),
        "all unbounded": group([], 4.0),
        'quote " and breakpoints': group([(1.0, float("inf")), (2.0, float("nan"))], 0.0),
        "breakpoints": group([(0.1, 0.2)], 0.0),
    }
    report = report_of(Level.LSOA, groups, 6.0, 7.0, 4.5, 0.4,
                             unresolved_lsoas=("E01999999",), excluded_power_w=3.25)
    export_report(report, ExportFormat.JSON, tmp_path)
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == json_module_report(report)


def test_csv_envelope_writes_what_csv_writer_writes(tmp_path):
    # envelope.csv writes its rows without csv.writer; the bytes must stay
    # those of the writerow loop kept here, whatever the key holds
    def group(breakpoints):
        return GroupStats(envelope_of(breakpoints, 1.0, 0.0), 1.5, 0.1)

    breakpoints = [(60.0, 3.0), (1e-300, 2.0), (7200.5, float("inf")), (2.0, float("nan"))]
    keys = ["E01000001", "comma, key", 'quote " key', "new\nline", "carriage\rreturn",
            " leading space", "", "\"", "tab\tkey"]
    groups = {key: group(breakpoints[:i % 4 + 1]) for i, key in enumerate(keys)}
    groups["no breakpoints"] = group([])
    groups["edges"] = group([(1e16, float(np.nextafter(1e-4, 0))), (5e-324, 1.0)])
    report = report_of(Level.LSOA, groups, 6.0, 7.0, 4.5, 0.4)
    export_report(report, ExportFormat.CSV, tmp_path)
    assert (tmp_path / "envelope.csv").read_bytes() == csv_writer_envelope(
        report, tmp_path / "reference.csv")


def test_exports_cross_block_boundaries(tmp_path):
    # the exporters turn an envelope into Python floats a block of rows at a
    # time; a group of 150,001 crosses several block boundaries and ends in a
    # part block, next to a group with none
    rng = np.random.default_rng(5)
    durations = np.cumsum(rng.random(150_001) * 100.0 + 1e-3)
    power = np.cumsum(rng.random(150_001))[::-1] + 0.25
    groups = {"long": GroupStats(Envelope(durations, power, float(power[0]), 0.25), 9.5, 1.25),
              "empty": GroupStats(Envelope([], [], 3.0, 3.0), 4.0, 0.0)}
    report = report_of(Level.LSOA, groups, 13.5, float(power[0]) + 3.0, 3.25, 1.25)

    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    assert (tmp_path / "csv" / "envelope.csv").read_bytes() == csv_writer_envelope(
        report, tmp_path / "reference.csv")
    assert load_report(tmp_path / "csv", ExportFormat.CSV) == report

    export_report(report, ExportFormat.JSON, tmp_path / "json")
    assert (tmp_path / "json" / "report.json").read_text(encoding="utf-8") == \
        json_module_report(report)
    assert load_report(tmp_path / "json", ExportFormat.JSON) == report


def test_exports_equal_across_block_sizes(tmp_path, monkeypatch):
    # a block of 3 splits 11 breakpoints into 3 + 3 + 3 + 2 and 3 into one
    # whole block; neither export may move a byte
    rng = np.random.default_rng(11)
    durations, power = np.cumsum(rng.random(11) * 600.0), np.cumsum(rng.random(11))[::-1]
    groups = {"long": GroupStats(Envelope(durations, power, float(power[0]), 0.0), 9.5, 1.25),
              "three": GroupStats(envelope_of([(1e-300, 3.0), (1.5, 2.0), (2.5, 1.0)],
                                              3.0, 0.5), 4.0, 0.5),
              "empty": GroupStats(Envelope([], [], 3.0, 3.0), 4.0, 0.0)}
    report = report_of(Level.LSOA, groups, 17.5, float(power[0]) + 6.0, 3.5, 1.75,
                             unresolved_lsoas=("E01999999",), excluded_power_w=2.5)
    whole = {p.name: p.read_bytes() for fmt in ExportFormat
             for p in export_report(report, fmt, tmp_path / "whole")}
    monkeypatch.setattr(scenario_module, "_BLOCK", 3)
    monkeypatch.setattr(stock_module, "_TEXT_ROWS", 3)
    blocks = {p.name: p.read_bytes() for fmt in ExportFormat
              for p in export_report(report, fmt, tmp_path / "blocks")}
    assert len(durations) >= 10 and sorted(whole) == sorted(blocks) == [
        "envelope.csv", "report.json", "summary.csv", "unresolved.csv"]
    assert blocks == whole


def test_export_empty_report(tmp_path):
    table, _ = la_fixture()
    report = rollup(make_run([]), table, Level.NATIONAL)
    paths = export_report(report, ExportFormat.CSV, tmp_path)
    envelope_csv = paths[0].read_text(encoding="utf-8")
    assert envelope_csv == "key,duration_s,power_w\n"
    assert load_report(tmp_path, ExportFormat.CSV) == report


# ---------------------------------------------------------------------------
# pipeline-level consistency
# ---------------------------------------------------------------------------

def test_rollup_consistency_across_levels(small_stock):
    records, table = small_stock
    spec = ScenarioSpec(outdoor_temp=0.0, indoor_model=TruncatedNormalIndoor(seed=13))
    run = run_stock_scenario(records, table, spec, Direction.NEGATIVE, expansion=4)

    national = rollup(run, table, Level.NATIONAL)
    by_region = rollup(run, table, Level.REGION)
    by_la = rollup(run, table, Level.LOCAL_AUTHORITY)
    by_lsoa = rollup(run, table, Level.LSOA)

    nat_env = national.groups["national"].envelope
    checkpoints = [0.0] + list(nat_env.durations) + [nat_env.durations[-1] + 1.0]
    for report in (by_region, by_la, by_lsoa):
        assert report.total_magnitude_at_zero_w == pytest.approx(
            national.total_magnitude_at_zero_w, rel=1e-9
        )
        for t in checkpoints:
            summed = sum(g.envelope.power_at(t) for g in report.groups.values())
            assert summed == pytest.approx(nat_env.power_at(t), rel=1e-6)


def test_positive_headroom_by_region_at_minus5(small_stock):
    # at outdoor -5 / indoor 19, regions designed for -1 run flat out and
    # cannot ramp, while -5-design regions keep a 2/26 capacity margin
    records, table = small_stock
    spec = ScenarioSpec(outdoor_temp=-5.0, indoor_model=FixedIndoor(19.0))
    run = run_stock_scenario(records, table, spec, Direction.POSITIVE)
    report = rollup(run, table, Level.REGION)
    assert report.groups["South East"].magnitude_at_zero_w == pytest.approx(0.0, abs=1e-9)
    nw = report.groups["North West"]
    assert nw.magnitude_at_zero_w == pytest.approx(
        (2 / 26) * nw.installed_thermal_w / 2.0, rel=1e-9
    )
