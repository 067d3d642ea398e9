"""Fold outcome columns into flexibility envelopes and spatial rollups.

The envelope of a fleet maps a service duration t to the total electrical
power the fleet can sustain for at least t:

    power(t) = sum over samples with (finite D_i >= t, or unbounded D_i)
               of weight_i * |magnitude_i|

It is a non-increasing step function, exact over the distinct finite
durations; unbounded samples set its floor. Envelope construction is a
commutative fold, so partial envelopes built in parallel merge losslessly.

A `Fold` reads a run as blocks of outcome columns, those
`scenario.evaluate_blocks` yields or those a `ScenarioRun` holds, once and in
sample order: it adds each row into its group's sums and keeps each finite
row's group, duration and mass. Its report sorts those rows by (group,
duration), which gives each its slot, and adds their masses into their slots
with np.add.at. Sums run left to right in sample order (np.add.at and
np.cumsum, not the pairwise np.sum), so each is the float a loop over the
samples would give, whatever the blocks. A report holds the fold's columns,
which the exporters write a block of rows at a time with `stock.float_text`;
per-group objects are built only when asked for.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain, groupby, pairwise
from operator import itemgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataValidationError, HeatflexError
from .regions import RegionTable
from .scenario import (FAILED, FAILED_INDOOR, FINITE, UNBOUNDED, Block, SampleTable,
                       ScenarioRun, _blocks)
from .stock import _csv_cells, float_text, read_rows

DISPLAY_CAP_S = 86400.0  # 24 h, export/plotting cap only, never used in totals


class Level(Enum):
    LSOA = "lsoa"
    LOCAL_AUTHORITY = "la"
    REGION = "region"
    NATIONAL = "national"


@dataclass(frozen=True, eq=False)
class Envelope:
    """Step function of available power vs sustained duration.

    durations and power are 1-D float64 arrays, held read-only, with strictly
    increasing durations and the power available AT each one (inclusive);
    total_power is the power at t = 0 and unbounded_power the floor beyond
    the last finite duration. Equal envelopes have equal arrays and powers.
    """

    durations: np.ndarray
    power: np.ndarray
    total_power: float
    unbounded_power: float

    def __post_init__(self):
        for name in ("durations", "power"):
            view = np.asarray(getattr(self, name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __eq__(self, other):
        return (isinstance(other, Envelope) and self.total_power == other.total_power
                and self.unbounded_power == other.unbounded_power
                and np.array_equal(self.durations, other.durations)
                and np.array_equal(self.power, other.power))

    def power_at(self, t: float) -> float:
        if math.isnan(t):  # would otherwise read as past the last duration
            raise HeatflexError("power_at needs a duration, got nan")
        if t <= 0:
            return self.total_power
        i = np.searchsorted(self.durations, t)
        return self.unbounded_power if i >= len(self.durations) else float(self.power[i])

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        """(duration_s, power_w) pairs, built on each call from the arrays."""
        return tuple(zip(self.durations.tolist(), self.power.tolist()))


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum, the float a Python loop gives (np.sum adds pairwise)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class Fold:
    """A run's blocks folded by a spatial level in one pass, all but the steps.

    Failed samples belong to no group, and a group or an unresolved LSOA counts
    only if a non-failed sample reaches it; the power of the other samples whose
    LSOA has no key at the level is excluded. failed holds (rows, first row) per
    failure reason, in code order. The fold holds no sample column: its caller
    may release the samples before report()."""

    def __init__(self, samples: SampleTable, blocks: Iterable[Block], regions: RegionTable,
                 level: Level):
        key_at_level = {Level.NATIONAL: lambda lsoa: "national", Level.LSOA: lambda lsoa: lsoa,
                        Level.REGION: regions.region_of,
                        Level.LOCAL_AUTHORITY: regions.local_authority_of}[level]
        key_of = {code: key_at_level(samples.lsoa_ids[code])
                  for code in np.unique(samples.lsoa_code).tolist()}
        keys = tuple(sorted({key for key in key_of.values() if key is not None}))
        index = {key: g for g, key in enumerate(keys)}  # an LSOA with no key maps to -1
        group_of_lsoa = np.array([index.get(key_of.get(code), -1)
                                  for code in range(len(samples.lsoa_ids))], dtype=np.int32)
        group_of_record = group_of_lsoa[samples.lsoa_code]
        summary = np.zeros((len(keys), len(_FIELDS)))  # all but magnitude_at_0_w, added up here
        installed, _, unbounded, energy = summary.T  # its columns, as views
        installed_of_record = samples.weight * (samples.hp_size * 1000.0)
        used = np.zeros(len(samples.weight), dtype=bool)  # records a non-failed sample reaches
        failed = {FAILED: [0, 0], FAILED_INDOOR: [0, 0]}  # reason: [rows, first row]
        code_type, excluded, signs = np.min_scalar_type(len(keys)), 0.0, np.zeros(2, bool)
        finite = [(np.empty(0, code_type), np.empty(0), np.empty(0))]  # never an empty list
        for rows, magnitude, duration, kind in blocks:
            signs |= (magnitude > 0).any(), (magnitude < 0).any()  # any positive, any negative
            rec, ok = samples.record[rows], kind < FAILED
            used[rec[ok]] = True
            for reason, counted in failed.items() if not ok.all() else ():
                hits = kind == reason
                if hits.any() and not counted[0]:
                    counted[1] = rows.start + int(hits.argmax())
                counted[0] += int(np.count_nonzero(hits))
            mass, group = samples.weight[rec] * np.abs(magnitude), group_of_record[rec]
            member = ok & (group >= 0)
            np.add.at(installed, group[member], installed_of_record[rec[member]])
            excluded = _ordered_sum(np.append(excluded, mass[ok & (group < 0)]))
            floor = member & (kind == UNBOUNDED)
            np.add.at(unbounded, group[floor], mass[floor])
            steps = member & (kind == FINITE)
            group, duration, mass = group[steps], duration[steps], mass[steps]
            np.add.at(energy, group, mass * duration / 3600.0)
            finite.append((group.astype(code_type), duration, mass))
        if signs.all():
            raise ValueError("outcomes mix demand-increase and demand-reduction services")
        reached = np.unique(samples.lsoa_code[used])  # the LSOAs a non-failed sample reaches
        self.level, self.keys, self.summary, self.excluded_power_w = level, keys, summary, excluded
        self.reported = np.isin(np.arange(len(keys)), group_of_lsoa[reached])  # groups reached
        self.unresolved_lsoas = tuple(sorted(samples.lsoa_ids[code] for code in reached.tolist()
                                             if key_of[code] is None))
        self.failed, self.finite = [(n, first) for n, first in failed.values() if n], finite

    def report(self) -> AggregateReport:
        """The report; the fold hands its finite rows to the sort, so it gives it once."""
        finite, self.finite = self.finite, []
        code = np.concatenate([c for c, _, _ in finite])
        duration = np.concatenate([d for _, d, _ in finite])
        masses = [mass for _, _, mass in finite]
        del finite  # the duration blocks go: their concatenation is the one sorted
        # by group, then duration; numpy sorts 8- and 16-bit codes stably by radix
        order = np.argsort(duration)
        by_group = np.argsort(code[order], kind="stable") if len(self.keys) > 1 else None
        place, per_group = np.empty(len(duration), np.int32), np.zeros(len(self.keys), np.intp)
        slots, last = 0, None
        for block in _blocks(len(duration)):
            rows = order[block] if by_group is None else order[by_group[block]]
            c, d = code[rows], duration[rows]
            first = np.empty(len(rows), dtype=bool)  # the rows that open a slot
            first[0] = last != (c[0], d[0])
            first[1:] = (c[1:] != c[:-1]) | (d[1:] != d[:-1])
            place[rows] = np.cumsum(first) + (slots - 1)
            np.add.at(per_group, c[first], 1)
            slots, last = slots + np.count_nonzero(first), (c[-1], d[-1])
        order = by_group = code = rows = None  # rows may be a view of order
        per_group, summary = per_group[self.reported], self.summary[self.reported]
        offsets = np.append(0, np.cumsum(per_group))
        durations = np.zeros(offsets[-1])
        durations[place] = duration  # every row of a slot has its duration
        del duration
        power, end = np.zeros(offsets[-1]), 0
        for mass in masses:  # in sample order; np.add.at adds in index order, as a loop would
            np.add.at(power, place[end:end + len(mass)], mass)
            end += len(mass)

        # power at each duration: the floor plus the mass at it and at every
        # longer duration, added from the longest duration down. Once the floor is
        # in the mass at its group's longest duration (m + floor, the float floor
        # + m is), a group read backwards is one running sum in place on a reversed
        # view (np.add.accumulate, what np.cumsum calls, without its overhead)
        _, magnitude, unbounded, _ = summary.T  # its columns, as views
        filled = per_group > 0  # the groups with a finite duration
        power[offsets[1:][filled] - 1] += unbounded[filled]
        backwards = power[::-1]
        for a, b in zip((len(power) - offsets[1:]).tolist(), (len(power) - offsets[:-1]).tolist()):
            sums = backwards[a:b]
            np.add.accumulate(sums, out=sums)
        durations.flags.writeable = power.flags.writeable = False
        magnitude[:] = unbounded  # the power at t = 0: the first step, else the floor
        magnitude[filled] = power[offsets[:-1][filled]]
        return AggregateReport(self.level, tuple(k for k, r in zip(self.keys, self.reported) if r),
                               offsets, durations, power, summary,
                               *map(_ordered_sum, summary.T),
                               self.unresolved_lsoas, self.excluded_power_w)


def build_envelope(run: ScenarioRun) -> Envelope:
    """Exact step envelope of one direction's outcomes."""
    groups = rollup(run, RegionTable({}), Level.NATIONAL).groups  # none if every sample failed
    return groups["national"].envelope if groups else Envelope(np.empty(0), np.empty(0), 0.0, 0.0)


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
    report = rollup(run, RegionTable({}), Level.NATIONAL)
    return FiniteEnergy(
        energy_wh=report.total_finite_energy_wh,
        unbounded_count=int(np.count_nonzero(run.kind == UNBOUNDED)),
        unbounded_power_w=report.total_unbounded_w,
    )


def capped_energy(run: ScenarioRun, cap_s: float = DISPLAY_CAP_S) -> float:
    """Display-oriented energy with every duration capped at cap_s, in Wh.

    Counts unbounded samples at the cap. Only meaningful for plotting and
    informal comparisons; totals and reports use finite_energy.
    """
    if not 0 <= cap_s < np.inf:  # nan fails too
        raise HeatflexError(f"display cap must be finite and >= 0, got {cap_s}")
    counted = (run.kind == FINITE) | (run.kind == UNBOUNDED)
    capped = np.minimum(run.duration[counted], cap_s)  # unbounded: inf -> cap_s
    power = run.samples.weight[run.samples.record[counted]] * np.abs(run.magnitude[counted])
    return _ordered_sum(power * capped / 3600.0)


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


@dataclass(eq=False)
class AggregateReport:
    """The groups of one level as columns, their keys strictly increasing: group
    g's steps are durations[offsets[g]:offsets[g + 1]] and power[...], both
    read-only, and summary[g] holds its _FIELDS."""

    level: Level
    keys: tuple[str, ...]
    offsets: np.ndarray
    durations: np.ndarray
    power: np.ndarray
    summary: np.ndarray
    total_installed_thermal_w: float
    total_magnitude_at_zero_w: float
    total_unbounded_w: float
    total_finite_energy_wh: float
    unresolved_lsoas: tuple[str, ...] = ()
    excluded_power_w: float = 0.0

    def __eq__(self, other):  # every field equal, the arrays and tuples element by element
        return isinstance(other, AggregateReport) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @cached_property
    def groups(self) -> dict[str, GroupStats]:
        """Each group's envelope and summary as objects, by key, built on first use."""
        bounds = self.offsets.tolist()
        return {key: GroupStats(Envelope(self.durations[a:b], self.power[a:b], magnitude, floor),
                                installed, energy)
                for key, a, b, (installed, magnitude, floor, energy)
                in zip(self.keys, bounds, bounds[1:], self.summary.tolist())}


def rollup(run: ScenarioRun, regions: RegionTable, level: Level) -> AggregateReport:
    """Group outcomes by the requested spatial level and summarise each group:
    the fold of the run's held blocks."""
    return Fold(run.samples, run.blocks(), regions, level).report()


class ExportFormat(Enum):
    CSV = "csv"
    JSON = "json"


_TOTAL_KEY = "__total__"
# The summary of a group and of the totals: summary.csv's columns and
# report.json's keys, in the order of AggregateReport's totals.
_FIELDS = ("installed_w", "magnitude_at_0_w", "unbounded_w", "finite_energy_wh")


def _totals(report: AggregateReport) -> tuple[float, float, float, float]:
    return (report.total_installed_thermal_w, report.total_magnitude_at_zero_w,
            report.total_unbounded_w, report.total_finite_energy_wh)


def export_report(report: AggregateReport, fmt: ExportFormat, out_dir: str | Path) -> list[Path]:
    """Write a report deterministically; returns the written paths.

    CSV produces envelope.csv (key, duration_s, power_w), summary.csv
    (level, key, installed_w, magnitude_at_0_w, unbounded_w,
    finite_energy_wh, excluded_power_w) with a trailing __total__ row, the
    only row whose excluded_power_w cell is filled, and
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
    keys = _csv_cells(report.keys)

    with open(envelope_path, "wb") as fh:
        fh.write(b"key,duration_s,power_w\n")
        for prefix, (a, b) in zip(keys, pairwise(report.offsets.tolist())):
            for text in float_text((report.durations[a:b], report.power[a:b])):  # d,p],[d,p
                fh.writelines((prefix, text.replace(b"],[", b"\n" + prefix), b"\n"))

    level = f"{report.level.value},".encode()  # of the cells, only a group key can need quotes
    with open(summary_path, "wb") as fh:
        fh.write(",".join(["level", "key", *_FIELDS, "excluded_power_w\n"]).encode())
        for key, row in zip(keys, report.summary.tolist()):  # no group has excluded power
            fh.write(level + key + ",".join([*map(repr, row), "\n"]).encode())
        fh.write(level + ",".join([_TOTAL_KEY, *map(repr, _totals(report)),
                                   repr(report.excluded_power_w) + "\n"]).encode())

    unresolved_path = out_dir / "unresolved.csv"
    unresolved_path.unlink(missing_ok=True)  # else an older copy is read back with this report
    if report.unresolved_lsoas:
        with open(unresolved_path, "wb") as fh:  # csv.writer quotes a lone empty cell
            fh.writelines(cell[:-1] + b"\n" if cell != b"," else b'""\n'
                          for cell in _csv_cells(("lsoa_id", *report.unresolved_lsoas)))
        written.append(unresolved_path)
    return written


# Stands in for each group's breakpoint list when json lays out the rest of
# report.json; no group key can produce this text, since json escapes every
# quote inside a string.
_BREAKPOINTS_SLOT = '"breakpoints": "@"'


def _export_json(report: AggregateReport, path: Path) -> Path:
    doc = {
        "level": report.level.value,
        "groups": {key: dict(zip(_FIELDS, row), breakpoints="@")
                   for key, row in zip(report.keys, report.summary.tolist())},
        "totals": dict(zip(_FIELDS, _totals(report))),
        "unresolved_lsoas": list(report.unresolved_lsoas),
        "excluded_power_w": report.excluded_power_w,
    }
    # json's Python encoder lays out the small part; the breakpoint lists,
    # most of the bytes, are float_text's blocks, laid out four lists deep as here
    head, *tails = json.dumps(doc, sort_keys=True, indent=2).split(_BREAKPOINTS_SLOT)
    with open(path, "wb") as fh:
        fh.write(head.encode())
        # json sorts the keys as report.keys are
        for tail, (a, b) in zip(tails, pairwise(report.offsets.tolist())):
            texts = float_text((report.durations[a:b], report.power[a:b]), json=True)
            fh.write(b'"breakpoints": [')
            for i, text in enumerate(texts):
                fh.writelines((b"," if i else b"", text))
            fh.writelines((b"\n      ]" if b > a else b"]", tail.encode()))
        fh.write(b"\n")
    return path


def load_report(path_or_dir: str | Path, fmt: ExportFormat) -> AggregateReport:
    """Read back an exported report (inverse of export_report)."""
    path = Path(path_or_dir)
    if fmt is ExportFormat.JSON:
        source = path if path.is_file() else path / "report.json"
        return _load_json(source)
    return _load_csv(path)


@contextmanager
def _malformed(source: Path):
    """Raise a missing field, an unreadable value or a value of the wrong type
    (a list for a mapping, say) met in the body as a DataValidationError that names source."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise DataValidationError(f"{source}: malformed export ({type(exc).__name__}: "
                                  f"{exc})") from None


def _loaded(source: Path, level: Level, keys: list[str], counts, steps, rows,
            **rest) -> AggregateReport:
    """A report read from source, its values kept as written: group keys[g] has
    the _FIELDS of rows[g] and the next counts[g] (duration, power) pairs of
    steps, and the totals are the _FIELDS of the last row."""
    for a, b in zip(keys, keys[1:]):
        if not a < b:
            raise DataValidationError(f"{source}: group {b!r} follows {a!r}; keys must rise")
    offsets = np.append(0, np.cumsum(counts, dtype=np.intp))
    durations, power = np.asarray(steps, dtype=np.float64).reshape(offsets[-1], 2).T
    durations.flags.writeable = power.flags.writeable = False
    *summary, totals = [[float(value) for value in row] for row in rows]
    return AggregateReport(level, tuple(keys), offsets, durations, power,
                           np.array(summary).reshape(-1, 4), *totals, **rest)


def _load_json(path: Path) -> AggregateReport:
    with open(path, encoding="utf-8") as fh, _malformed(path):
        doc = json.load(fh)
        groups = doc["groups"].values()
        return _loaded(path, Level(doc["level"]), list(doc["groups"]),
                       [len(g["breakpoints"]) for g in groups],
                       list(chain.from_iterable(g["breakpoints"] for g in groups)),
                       [[row[name] for name in _FIELDS] for row in (*groups, doc["totals"])],
                       unresolved_lsoas=tuple(doc["unresolved_lsoas"]),
                       excluded_power_w=float(doc["excluded_power_w"]))


def _load_csv(out_dir: Path) -> AggregateReport:
    summary = out_dir / "summary.csv"
    rows = list(read_rows(summary, ("level", "key", *_FIELDS, "excluded_power_w")))
    if not rows or rows[-1][1] != _TOTAL_KEY:
        raise DataValidationError(f"{summary}: empty, or not ending in a total row")
    if len({row[0] for row in rows}) > 1:
        raise DataValidationError(f"{summary}: rows of more than one level")
    for _, key, *_, excluded in rows[:-1]:
        if excluded:
            raise DataValidationError(
                f"{summary}: group {key!r} has excluded_power_w "
                f"{excluded!r}; only the {_TOTAL_KEY} row carries it"
            )
    keys = [row[1] for row in rows[:-1]]

    steps, runs = array("d"), []  # every step in file order; each key's run of rows and its start
    envelope = out_dir / "envelope.csv"
    with _malformed(envelope):
        for key, rows_of_key in groupby(read_rows(envelope, ("key", "duration_s", "power_w")),
                                        key=itemgetter(0)):
            runs.append((key, len(steps) // 2))
            steps.extend(float(x) for _, d, p in rows_of_key for x in (d, p))
    index = {key: g for g, key in enumerate(keys)}
    at = [index.get(key, -1) for key, _ in runs]
    if any(a >= b for a, b in zip([-1, *at], at)):  # a key unknown, repeated or out of order
        raise DataValidationError(f"{envelope}: keys are not summary.csv's, in its order, "
                                  f"with each group's rows together (summary {summary})")
    counts = np.zeros(len(keys), dtype=np.intp)
    counts[at] = np.diff([start for _, start in runs] + [len(steps) // 2])

    unresolved_path = out_dir / "unresolved.csv"
    unresolved = (tuple(lsoa for lsoa, in read_rows(unresolved_path, ("lsoa_id",)))
                  if unresolved_path.exists() else ())

    with _malformed(summary):
        return _loaded(summary, Level(rows[-1][0]), keys, counts, steps,
                       [row[2:6] for row in rows], unresolved_lsoas=unresolved,
                       excluded_power_w=float(rows[-1][6]))
