"""Fold outcome columns into flexibility envelopes and spatial rollups.

The envelope of a fleet maps a service duration t to the total electrical
power the fleet can sustain for at least t:

    power(t) = sum over samples with (finite D_i >= t, or unbounded D_i)
               of weight_i * |magnitude_i|

It is a non-increasing step function, exact over the distinct finite
durations; unbounded samples set its floor. Envelope construction is a
commutative fold, so partial envelopes built in parallel merge losslessly.

Everything here works on the columns of a `ScenarioRun`. Sums run left to
right in sample order (np.cumsum, not the pairwise np.sum), so each total is
the same float a loop over the samples would give, and exports do not
depend on how the sums are vectorised.
"""

from __future__ import annotations

import bisect
import csv
import json
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataValidationError, HeatflexError
from .regions import RegionTable
from .scenario import FAILED, FINITE, UNBOUNDED, ScenarioRun

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


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum, the float a Python loop gives (np.sum adds pairwise)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _power(run: ScenarioRun) -> np.ndarray:
    return run.samples.weight * np.abs(run.magnitude)


def _check_single_direction(run: ScenarioRun) -> None:
    if (run.magnitude > 0).any() and (run.magnitude < 0).any():
        raise ValueError("outcomes mix demand-increase and demand-reduction services")


def build_envelope(run: ScenarioRun) -> Envelope:
    """Exact step envelope of one direction's outcomes."""
    _check_single_direction(run)
    power = _power(run)
    unbounded = _ordered_sum(power[run.kind == UNBOUNDED])
    finite = run.kind == FINITE
    durations, slot = np.unique(run.duration[finite], return_inverse=True)
    mass = np.bincount(slot, weights=power[finite], minlength=len(durations))
    # power at each duration: the floor plus the mass at it and at every
    # longer duration, added from the longest duration down
    running = np.cumsum(np.concatenate(([unbounded], mass[::-1])))[:0:-1]
    breakpoints = tuple(zip(durations.tolist(), running.tolist()))
    total = breakpoints[0][1] if breakpoints else unbounded
    return Envelope(
        breakpoints=breakpoints, total_power=total, unbounded_power=unbounded
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


def finite_energy(run: ScenarioRun) -> FiniteEnergy:
    """Sum of weight * |magnitude| * duration over finite samples, in Wh."""
    _check_single_direction(run)
    power = _power(run)
    finite, unbounded = run.kind == FINITE, run.kind == UNBOUNDED
    return FiniteEnergy(
        energy_wh=_ordered_sum(power[finite] * run.duration[finite] / 3600.0),
        unbounded_count=int(np.count_nonzero(unbounded)),
        unbounded_power_w=_ordered_sum(power[unbounded]),
    )


def capped_energy(run: ScenarioRun, cap_s: float = DISPLAY_CAP_S) -> float:
    """Display-oriented energy with every duration capped at cap_s, in Wh.

    Counts unbounded samples at the cap. Only meaningful for plotting and
    informal comparisons; totals and reports use finite_energy.
    """
    counted = (run.kind == FINITE) | (run.kind == UNBOUNDED)
    capped = np.minimum(run.duration[counted], cap_s)  # unbounded: inf -> cap_s
    return _ordered_sum(_power(run)[counted] * capped / 3600.0)


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


def _lsoa_group_key(lsoa_id: str, regions: RegionTable, level: Level) -> str | None:
    if level is Level.NATIONAL:
        return "national"
    if level is Level.LSOA:
        return lsoa_id
    if level is Level.REGION:
        return regions.region_of(lsoa_id)
    return regions.local_authority_of(lsoa_id)


def rollup(run: ScenarioRun, regions: RegionTable, level: Level) -> AggregateReport:
    """Group outcomes by the requested spatial level and summarise each group.

    Failed samples belong to no group. Samples whose LSOA cannot be resolved
    at the requested level are listed and their power reported as excluded;
    the run continues without them. The group key is looked up once per
    distinct LSOA, and a stable sort keeps each group's samples in order.
    """
    samples, kept = run.samples, run.kind != FAILED
    key_of = {code: _lsoa_group_key(samples.lsoa_ids[code], regions, level)
              for code in np.unique(samples.lsoa_code[kept]).tolist()}
    keys = sorted({key for key in key_of.values() if key is not None})
    index = {key: g for g, key in enumerate(keys)}
    group_of_lsoa = np.full(len(samples.lsoa_ids), -1, dtype=np.intp)
    for code, key in key_of.items():
        if key is not None:
            group_of_lsoa[code] = index[key]
    group = group_of_lsoa[samples.lsoa_code]
    unresolved = (group < 0) & kept
    group[~kept] = -2

    order = np.argsort(group, kind="stable")  # failed (-2), then unresolved (-1) rows first
    bounds = np.searchsorted(group[order], np.arange(len(keys) + 1)).tolist()
    ordered = run[order]

    groups: dict[str, GroupStats] = {}
    total_installed = 0.0
    total_magnitude = 0.0
    total_unbounded = 0.0
    total_energy = 0.0
    for key, lo, hi in zip(keys, bounds, bounds[1:]):
        part = ordered[lo:hi]
        envelope = build_envelope(part)
        installed = _ordered_sum(part.samples.weight * (part.samples.hp_size * 1000.0))
        energy = finite_energy(part).energy_wh
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
        unresolved_lsoas=tuple(sorted(samples.lsoa_ids[code]
                                      for code, key in key_of.items() if key is None)),
        excluded_power_w=_ordered_sum(_power(run)[unresolved]),
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


# Stands in for each group's breakpoint list when json lays out the rest of
# report.json; no group key can produce this text, since json escapes every
# quote inside a string.
_BREAKPOINTS_SLOT = '"breakpoints": "@"'
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _export_json(report: AggregateReport, path: Path) -> Path:
    doc = {
        "level": report.level.value,
        "groups": {
            key: {
                "installed_w": g.installed_thermal_w,
                "magnitude_at_0_w": g.magnitude_at_zero_w,
                "unbounded_w": g.unbounded_power_w,
                "finite_energy_wh": g.finite_energy_wh,
                "breakpoints": "@",
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
    # json's Python encoder lays out the small part; the breakpoint lists,
    # most of the bytes, are written directly in the same layout
    head, *tails = json.dumps(doc, sort_keys=True, indent=2).split(_BREAKPOINTS_SLOT)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for key, tail in zip(sorted(report.groups), tails):
            fh.write('"breakpoints": ')
            fh.writelines(_json_pairs(report.groups[key].envelope.breakpoints, indent=6))
            fh.write(tail)
        fh.write("\n")
    return path


def _json_pairs(pairs: Iterable[tuple[float, float]], indent: int) -> Iterator[str]:
    """A list of number pairs as json.dumps(..., indent=2) writes it at this indent."""
    outer, pair, number = (" " * (indent + k) for k in (0, 2, 4))
    first = "[\n" + pair + "[\n" + number
    between = "\n" + pair + "],\n" + pair + "[\n" + number
    comma = ",\n" + number
    sep = first
    for d, p in pairs:
        d, p = repr(d), repr(p)
        yield sep + _JSON_SPECIAL.get(d, d) + comma + _JSON_SPECIAL.get(p, p)
        sep = between
    yield "[]" if sep is first else "\n" + pair + "]\n" + outer + "]"


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
