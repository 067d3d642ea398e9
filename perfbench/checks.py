"""Output checks on heatflex exports.

Every gating check returns a list of problems; an empty list means the export
passed. `total_unbounded_defect` reports a known defect without gating on it.
"""

import csv
import hashlib
import math
from pathlib import Path

from heatflex import aggregate

REL_TOL = 1e-9


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def export_digest(out_dir):
    """SHA-256 over every exported file's relative path and bytes."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def envelope_problems(key, group):
    """Durations strictly increase, power never increases, magnitude matches the first step."""
    bps = group.envelope.breakpoints
    for (d0, p0), (d1, p1) in zip(bps, bps[1:]):
        if not d1 > d0:
            return [f"{key}: durations not strictly increasing at {d0!r} -> {d1!r}"]
        if p1 > p0:
            return [f"{key}: power rises from {p0!r} to {p1!r} at duration {d1!r}"]
    expected = bps[0][1] if bps else group.unbounded_power_w
    if group.magnitude_at_zero_w != expected:
        return [f"{key}: magnitude_at_0_w {group.magnitude_at_zero_w!r} != {expected!r}"]
    return []


def report_problems(report, installed_ref_w):
    """Envelope shape per group, totals against their groups and against the set-up reference."""
    problems = []
    for key, group in report.groups.items():
        problems += envelope_problems(key, group)
    installed = sum(g.installed_thermal_w for g in report.groups.values())
    magnitude = sum(g.magnitude_at_zero_w for g in report.groups.values())
    if not _close(report.total_installed_thermal_w, installed):
        problems.append(f"total installed_w {report.total_installed_thermal_w!r} "
                        f"!= sum over groups {installed!r}")
    if not _close(report.total_magnitude_at_zero_w, magnitude):
        problems.append(f"total magnitude_at_0_w {report.total_magnitude_at_zero_w!r} "
                        f"!= sum over groups {magnitude!r}")
    if not _close(report.total_installed_thermal_w, installed_ref_w):
        problems.append(f"total installed_w {report.total_installed_thermal_w!r} "
                        f"!= reference {installed_ref_w!r}")
    return problems


def oracle_problems(report, oracle_w):
    """Each group's magnitude_at_0_w against the scalar rc.evaluate sum over its records."""
    if set(report.groups) != set(oracle_w):
        return [f"groups differ from the oracle's: {len(report.groups)} vs {len(oracle_w)}"]
    bad = [k for k, g in report.groups.items() if not _close(g.magnitude_at_zero_w, oracle_w[k])]
    if bad:
        k = bad[0]
        return [f"{len(bad)} group(s) differ from the rc.evaluate oracle; first {k}: "
                f"{report.groups[k].magnitude_at_zero_w!r} vs {oracle_w[k]!r}"]
    return []


def total_unbounded_defect(report, out_dir, fmt):
    """Known defect (ROADMAP open item 4): the total row drops the groups' unbounded power.

    `report` is the export at out_dir, already loaded. Returns a message when the
    export shows the defect, None when it does not.
    """
    if fmt is aggregate.ExportFormat.JSON:
        groups_w = sum(g.unbounded_power_w for g in report.groups.values())
        if groups_w != 0.0:
            return f"JSON totals have no unbounded_w; groups sum to {groups_w!r} W"
        return None
    with open(Path(out_dir) / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    total = next(float(r["unbounded_w"]) for r in rows if r["key"] == "__total__")
    groups_w = math.fsum(float(r["unbounded_w"]) for r in rows if r["key"] != "__total__")
    if not _close(total, groups_w):
        return f"__total__ writes unbounded_w {total!r}; groups sum to {groups_w!r} W"
    return None
