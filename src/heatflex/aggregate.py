"""Fold per-dwelling outcomes into flexibility envelopes and spatial rollups.

The envelope of a fleet maps a service duration t to the total electrical
power the fleet can sustain for at least t:

    power(t) = sum over samples with (finite D_i >= t, or unbounded D_i)
               of weight_i * |magnitude_i|

It is a non-increasing step function, exact over the distinct finite
durations; unbounded samples set its floor. Envelope construction is a
commutative fold, so partial envelopes built in parallel merge losslessly.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .errors import DataValidationError, HeatflexError
from .rc import FlexOutcome
from .regions import RegionTable
from .scenario import DwellingSample

Outcomes = Sequence[tuple[DwellingSample, FlexOutcome]]

DISPLAY_CAP_S = 86400.0  # 24 h, export/plotting cap only, never used in totals


class Level(Enum):
    LSOA = "lsoa"
    LOCAL_AUTHORITY = "la"
    REGION = "region"
    NATIONAL = "national"


@dataclass(frozen=True)
class Envelope:
    """Step function of available power vs sustained duration.

    breakpoints hold (duration_s, power_w) with strictly increasing
    durations and the power available AT that duration (inclusive);
    total_power is the power at t = 0 and unbounded_power the floor beyond
    the last finite duration.
    """

    breakpoints: tuple[tuple[float, float], ...]
    total_power: float
    unbounded_power: float

    def power_at(self, t: float) -> float:
        if t <= 0:
            return self.total_power
        i = bisect.bisect_left(self.breakpoints, t, key=itemgetter(0))
        if i >= len(self.breakpoints):
            return self.unbounded_power
        return self.breakpoints[i][1]

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.breakpoints)


def _check_single_direction(outcomes: Outcomes) -> None:
    has_pos = any(o.magnitude_electric > 0 for _, o in outcomes)
    has_neg = any(o.magnitude_electric < 0 for _, o in outcomes)
    if has_pos and has_neg:
        raise ValueError("outcomes mix demand-increase and demand-reduction services")


def build_envelope(outcomes: Outcomes) -> Envelope:
    """Exact step envelope of one direction's outcomes."""
    _check_single_direction(outcomes)
    mass_at: dict[float, float] = {}
    unbounded = 0.0
    for sample, outcome in outcomes:
        power = sample.weight * abs(outcome.magnitude_electric)
        if outcome.duration.is_unbounded:
            unbounded += power
        elif outcome.duration.is_finite:
            d = outcome.duration.seconds
            mass_at[d] = mass_at.get(d, 0.0) + power
        # zero-duration samples carry magnitude 0 by contract; nothing to add

    durations = sorted(mass_at)
    breakpoints = []
    running = unbounded
    for d in reversed(durations):
        running += mass_at[d]
        breakpoints.append((d, running))
    breakpoints.reverse()
    total = breakpoints[0][1] if breakpoints else unbounded
    return Envelope(
        breakpoints=tuple(breakpoints), total_power=total, unbounded_power=unbounded
    )


@dataclass(frozen=True)
class FiniteEnergy:
    """Energy deliverable over the finite-duration samples.

    Unbounded samples have no defined energy; they are excluded and
    reported here instead of being silently folded in.
    """

    energy_wh: float
    unbounded_count: int
    unbounded_power_w: float


def finite_energy(outcomes: Outcomes) -> FiniteEnergy:
    """Sum of weight * |magnitude| * duration over finite samples, in Wh."""
    _check_single_direction(outcomes)
    energy = 0.0
    unbounded_count = 0
    unbounded_power = 0.0
    for sample, outcome in outcomes:
        power = sample.weight * abs(outcome.magnitude_electric)
        if outcome.duration.is_finite:
            energy += power * outcome.duration.seconds / 3600.0
        elif outcome.duration.is_unbounded:
            unbounded_count += 1
            unbounded_power += power
    return FiniteEnergy(energy, unbounded_count, unbounded_power)


def capped_energy(outcomes: Outcomes, cap_s: float = DISPLAY_CAP_S) -> float:
    """Display-oriented energy with every duration capped at cap_s, in Wh.

    Counts unbounded samples at the cap. Only meaningful for plotting and
    informal comparisons; totals and reports use finite_energy.
    """
    energy = 0.0
    for sample, outcome in outcomes:
        power = sample.weight * abs(outcome.magnitude_electric)
        if outcome.duration.is_finite:
            energy += power * min(outcome.duration.seconds, cap_s) / 3600.0
        elif outcome.duration.is_unbounded:
            energy += power * cap_s / 3600.0
    return energy


@dataclass(frozen=True)
class GroupStats:
    envelope: Envelope
    installed_thermal_w: float
    finite_energy_wh: float

    @property
    def magnitude_at_zero_w(self) -> float:
        return self.envelope.total_power

    @property
    def unbounded_power_w(self) -> float:
        return self.envelope.unbounded_power


@dataclass
class AggregateReport:
    level: Level
    groups: dict[str, GroupStats]
    total_installed_thermal_w: float
    total_magnitude_at_zero_w: float
    total_unbounded_w: float
    total_finite_energy_wh: float
    unresolved_lsoas: tuple[str, ...] = ()
    excluded_power_w: float = 0.0


def _group_key(sample: DwellingSample, regions: RegionTable, level: Level) -> str | None:
    if level is Level.NATIONAL:
        return "national"
    if level is Level.LSOA:
        return sample.lsoa_id
    if level is Level.REGION:
        return regions.region_of(sample.lsoa_id)
    return regions.local_authority_of(sample.lsoa_id)


def rollup(outcomes: Outcomes, regions: RegionTable, level: Level) -> AggregateReport:
    """Group outcomes by the requested spatial level and summarise each group.

    Samples whose LSOA cannot be resolved at the requested level are listed
    and their power reported as excluded; the run continues without them.
    """
    grouped: dict[str, list[tuple[DwellingSample, FlexOutcome]]] = {}
    unresolved: set[str] = set()
    excluded_power = 0.0
    for sample, outcome in outcomes:
        key = _group_key(sample, regions, level)
        if key is None:
            unresolved.add(sample.lsoa_id)
            excluded_power += sample.weight * abs(outcome.magnitude_electric)
            continue
        grouped.setdefault(key, []).append((sample, outcome))

    groups: dict[str, GroupStats] = {}
    total_installed = 0.0
    total_magnitude = 0.0
    total_unbounded = 0.0
    total_energy = 0.0
    for key in sorted(grouped):
        bucket = grouped[key]
        envelope = build_envelope(bucket)
        installed = sum(s.weight * s.max_heat_output_w for s, _ in bucket)
        energy = finite_energy(bucket).energy_wh
        groups[key] = GroupStats(
            envelope=envelope, installed_thermal_w=installed, finite_energy_wh=energy
        )
        total_installed += installed
        total_magnitude += envelope.total_power
        total_unbounded += envelope.unbounded_power
        total_energy += energy

    return AggregateReport(
        level=level,
        groups=groups,
        total_installed_thermal_w=total_installed,
        total_magnitude_at_zero_w=total_magnitude,
        total_unbounded_w=total_unbounded,
        total_finite_energy_wh=total_energy,
        unresolved_lsoas=tuple(sorted(unresolved)),
        excluded_power_w=excluded_power,
    )


class ExportFormat(Enum):
    CSV = "csv"
    JSON = "json"


_TOTAL_KEY = "__total__"


def export_report(report: AggregateReport, fmt: ExportFormat, out_dir: str | Path) -> list[Path]:
    """Write a report deterministically; returns the written paths.

    CSV produces envelope.csv (key, duration_s, power_w), summary.csv
    (level, key, installed_w, magnitude_at_0_w, unbounded_w,
    finite_energy_wh, excluded_power_w) with a trailing __total__ row, and
    unresolved.csv when any LSOA failed to resolve. JSON produces a single
    report.json. Keys are ordered lexicographically, breakpoints ascending,
    floats written in full round-trip precision, so identical reports export
    byte-identically.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt is ExportFormat.JSON:
        return [_export_json(report, out_dir / "report.json")]
    return _export_csv(report, out_dir)


def _export_csv(report: AggregateReport, out_dir: Path) -> list[Path]:
    envelope_path = out_dir / "envelope.csv"
    summary_path = out_dir / "summary.csv"
    written = [envelope_path, summary_path]

    with open(envelope_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "duration_s", "power_w"])
        for key in sorted(report.groups):
            for d, p in report.groups[key].envelope.breakpoints:
                writer.writerow([key, repr(d), repr(p)])

    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "level", "key", "installed_w", "magnitude_at_0_w",
            "unbounded_w", "finite_energy_wh", "excluded_power_w",
        ])
        for key in sorted(report.groups):
            g = report.groups[key]
            writer.writerow([
                report.level.value, key, repr(g.installed_thermal_w),
                repr(g.magnitude_at_zero_w), repr(g.unbounded_power_w),
                repr(g.finite_energy_wh), repr(0.0),
            ])
        writer.writerow([
            report.level.value, _TOTAL_KEY, repr(report.total_installed_thermal_w),
            repr(report.total_magnitude_at_zero_w), repr(report.total_unbounded_w),
            repr(report.total_finite_energy_wh), repr(report.excluded_power_w),
        ])

    if report.unresolved_lsoas:
        unresolved_path = out_dir / "unresolved.csv"
        with open(unresolved_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lsoa_id"])
            for lsoa in report.unresolved_lsoas:
                writer.writerow([lsoa])
        written.append(unresolved_path)
    return written


def _export_json(report: AggregateReport, path: Path) -> Path:
    doc = {
        "level": report.level.value,
        "groups": {
            key: {
                "installed_w": g.installed_thermal_w,
                "magnitude_at_0_w": g.magnitude_at_zero_w,
                "unbounded_w": g.unbounded_power_w,
                "finite_energy_wh": g.finite_energy_wh,
                "breakpoints": [[d, p] for d, p in g.envelope.breakpoints],
            }
            for key, g in report.groups.items()
        },
        "totals": {
            "installed_w": report.total_installed_thermal_w,
            "magnitude_at_0_w": report.total_magnitude_at_zero_w,
            "unbounded_w": report.total_unbounded_w,
            "finite_energy_wh": report.total_finite_energy_wh,
        },
        "unresolved_lsoas": list(report.unresolved_lsoas),
        "excluded_power_w": report.excluded_power_w,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def load_report(path_or_dir: str | Path, fmt: ExportFormat) -> AggregateReport:
    """Read back an exported report (inverse of export_report)."""
    path = Path(path_or_dir)
    if fmt is ExportFormat.JSON:
        source = path if path.is_file() else path / "report.json"
        return _load_json(source)
    return _load_csv(path)


def _load_json(path: Path) -> AggregateReport:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    groups = {}
    for key, g in doc["groups"].items():
        breakpoints = tuple((float(d), float(p)) for d, p in g["breakpoints"])
        envelope = Envelope(
            breakpoints=breakpoints,
            total_power=float(g["magnitude_at_0_w"]),
            unbounded_power=float(g["unbounded_w"]),
        )
        groups[key] = GroupStats(
            envelope=envelope,
            installed_thermal_w=float(g["installed_w"]),
            finite_energy_wh=float(g["finite_energy_wh"]),
        )
    return AggregateReport(
        level=Level(doc["level"]),
        groups=groups,
        total_installed_thermal_w=float(doc["totals"]["installed_w"]),
        total_magnitude_at_zero_w=float(doc["totals"]["magnitude_at_0_w"]),
        total_unbounded_w=float(doc["totals"]["unbounded_w"]),
        total_finite_energy_wh=float(doc["totals"]["finite_energy_wh"]),
        unresolved_lsoas=tuple(doc["unresolved_lsoas"]),
        excluded_power_w=float(doc["excluded_power_w"]),
    )


def _load_csv(out_dir: Path) -> AggregateReport:
    breakpoints_by_key: dict[str, list[tuple[float, float]]] = {}
    with open(out_dir / "envelope.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            breakpoints_by_key.setdefault(row["key"], []).append(
                (float(row["duration_s"]), float(row["power_w"]))
            )

    groups: dict[str, GroupStats] = {}
    level: Level | None = None
    totals: dict[str, float] = {}
    excluded = 0.0
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            level = Level(row["level"])
            if row["key"] == _TOTAL_KEY:
                totals = {
                    "installed": float(row["installed_w"]),
                    "magnitude": float(row["magnitude_at_0_w"]),
                    "unbounded": float(row["unbounded_w"]),
                    "energy": float(row["finite_energy_wh"]),
                }
                excluded = float(row["excluded_power_w"])
                continue
            envelope = Envelope(
                breakpoints=tuple(breakpoints_by_key.get(row["key"], [])),
                total_power=float(row["magnitude_at_0_w"]),
                unbounded_power=float(row["unbounded_w"]),
            )
            groups[row["key"]] = GroupStats(
                envelope=envelope,
                installed_thermal_w=float(row["installed_w"]),
                finite_energy_wh=float(row["finite_energy_wh"]),
            )
    if level is None or not totals:
        raise DataValidationError(f"{out_dir}: summary.csv is empty or lacks a total row")

    unresolved: tuple[str, ...] = ()
    unresolved_path = out_dir / "unresolved.csv"
    if unresolved_path.exists():
        with open(unresolved_path, newline="", encoding="utf-8") as fh:
            unresolved = tuple(row["lsoa_id"] for row in csv.DictReader(fh))

    return AggregateReport(
        level=level,
        groups=groups,
        total_installed_thermal_w=totals["installed"],
        total_magnitude_at_zero_w=totals["magnitude"],
        total_unbounded_w=totals["unbounded"],
        total_finite_energy_wh=totals["energy"],
        unresolved_lsoas=unresolved,
        excluded_power_w=excluded,
    )


def export_plot_grid(
    envelope: Envelope,
    path: str | Path,
    grid_s: float = 60.0,
    cap_s: float = DISPLAY_CAP_S,
) -> Path:
    """Resample an envelope onto a uniform grid for plot tooling.

    Lossy by construction (fixed grid, durations capped at cap_s); the
    exact step representation lives in the report exports.
    """
    if grid_s <= 0:
        raise HeatflexError(f"grid step must be > 0, got {grid_s}")
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["duration_s", "power_w"])
        t = 0.0
        while t <= cap_s:
            writer.writerow([repr(t), repr(envelope.power_at(t))])
            t += grid_s
    return path
