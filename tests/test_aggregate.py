"""Envelopes, energy totals, spatial rollups and deterministic exports."""

import csv
import json

import numpy as np
import pytest

from heatflex import (
    AggregateReport,
    Direction,
    Duration,
    Envelope,
    ExportFormat,
    FixedIndoor,
    FlexOutcome,
    GroupStats,
    Level,
    ScenarioSpec,
    TruncatedNormalIndoor,
    build_envelope,
    capped_energy,
    export_plot_grid,
    export_report,
    finite_energy,
    load_report,
    rollup,
    run_stock_scenario,
)

from conftest import make_region_table, make_run, make_sample


def outcome(mag, duration):
    return FlexOutcome(magnitude_electric=mag, duration=duration)


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


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_export_round_trip_both_formats(tmp_path):
    table, outcomes = la_fixture()
    stray = (make_sample(weight=1.0, lsoa_id="E01999999"),
             outcome(-40.0, Duration.finite(60.0)))
    report = rollup(make_run(outcomes + [stray]), table, Level.LOCAL_AUTHORITY)

    export_report(report, ExportFormat.CSV, tmp_path / "csv")
    assert load_report(tmp_path / "csv", ExportFormat.CSV) == report

    export_report(report, ExportFormat.JSON, tmp_path / "json")
    assert load_report(tmp_path / "json", ExportFormat.JSON) == report


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


def test_export_idempotent_bytes(tmp_path):
    table, outcomes = la_fixture()
    report = rollup(make_run(outcomes), table, Level.LOCAL_AUTHORITY)
    paths_a = export_report(report, ExportFormat.CSV, tmp_path / "a")
    paths_b = export_report(report, ExportFormat.CSV, tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_json_export_writes_what_json_module_writes(tmp_path):
    # report.json writes its breakpoint lists without the json encoder; the
    # bytes must stay those of json.dump(doc, sort_keys=True, indent=2)
    def group(breakpoints, unbounded):
        power = breakpoints[0][1] if breakpoints else unbounded
        return GroupStats(Envelope(tuple(breakpoints), power, unbounded), 1.5, 0.1)

    groups = {
        "z": group([(60.0, 3.0), (1e-300, 2.0), (7200.5, 1.0)], 0.5),
        "all unbounded": group([], 4.0),
        'quote " and breakpoints': group([(1.0, float("inf")), (2.0, float("nan"))], 0.0),
        "breakpoints": group([(0.1, 0.2)], 0.0),
    }
    report = AggregateReport(Level.LSOA, groups, 6.0, 7.0, 4.5, 0.4,
                             unresolved_lsoas=("E01999999",), excluded_power_w=3.25)
    export_report(report, ExportFormat.JSON, tmp_path)
    doc = {
        "level": "lsoa",
        "groups": {
            key: {
                "installed_w": g.installed_thermal_w,
                "magnitude_at_0_w": g.magnitude_at_zero_w,
                "unbounded_w": g.unbounded_power_w,
                "finite_energy_wh": g.finite_energy_wh,
                "breakpoints": [list(bp) for bp in g.envelope.breakpoints],
            }
            for key, g in groups.items()
        },
        "totals": {"installed_w": 6.0, "magnitude_at_0_w": 7.0, "unbounded_w": 4.5,
                   "finite_energy_wh": 0.4},
        "unresolved_lsoas": ["E01999999"],
        "excluded_power_w": 3.25,
    }
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == expected


def test_export_empty_report(tmp_path):
    table, _ = la_fixture()
    report = rollup(make_run([]), table, Level.NATIONAL)
    paths = export_report(report, ExportFormat.CSV, tmp_path)
    envelope_csv = paths[0].read_text(encoding="utf-8")
    assert envelope_csv == "key,duration_s,power_w\n"
    assert load_report(tmp_path, ExportFormat.CSV) == report


def test_plot_grid_export(tmp_path):
    env = build_envelope(make_run([
        (make_sample(weight=1.0), outcome(-100.0, Duration.finite(90.0))),
    ]))
    path = export_plot_grid(env, tmp_path / "grid.csv", grid_s=60.0, cap_s=180.0)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "duration_s,power_w"
    assert len(lines) == 5  # t = 0, 60, 120, 180
    assert lines[1].endswith("100.0")
    assert lines[3].endswith("0.0")


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
