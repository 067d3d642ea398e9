"""The benchmark's own work on heatflex, kept out of the process that spawns the CLI.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR REPEATS
    python3 perfbench/worker.py check WORKLOAD WORKDIR

run.py runs this as a child next to the CLI children, never as their parent.
A child inherits its parent's ru_maxrss high-water mark through fork and exec,
so the process that spawns the CLI must stay smaller than any CLI run; this
one loads the stock and the exports and does not.

setup   writes the synthetic stock, lookup and scenario file into WORKDIR and
        reference.json beside them, REPEATS times; prints {"setup_s": [...]}.
check   runs the gating checks on WORKDIR/out against reference.json; prints
        {"problems": [...], "defect": str or null, "digest": str}.
"""

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import EXPANSION, SRC, WINSORIZE, WORKLOADS


def import_heatflex():
    """Import heatflex from SRC, and refuse a copy installed anywhere else."""
    sys.path.insert(0, str(SRC))
    import heatflex

    if Path(heatflex.__file__).resolve().parent != SRC / "heatflex":
        print(f"perfbench: heatflex imported from {heatflex.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def set_up(w, seed, work):
    """Write the inputs of one workload; return its reference values."""
    from heatflex import config, rc, synth
    from heatflex.regions import load_region_table
    from heatflex.scenario import FixedIndoor
    from heatflex.stock import load_stock, winsorize_stock, write_stock
    from heatflex.thermal import derive_all

    records, lookup = synth.generate_stock(w.dwellings, seed)
    write_stock(records, work / "stock.csv")
    synth.write_lookup(lookup, work / "lookup.csv")
    (work / "scenario.ini").write_text(w.scenario_ini(seed), encoding="utf-8")

    spec = config.read_scenario(work / "scenario.ini")
    records = winsorize_stock(load_stock(work / "stock.csv"), *WINSORIZE)
    records = [r for r in records if not r.skippable]
    regions = load_region_table(None, work / "lookup.csv")
    params = derive_all(records, regions, spec.capacity_level, spec.stock_variant)
    installed = math.fsum(
        r.count * spec.uptake_fraction * params[(r.lsoa_id, r.category)].hp_size_thermal * 1000.0
        for r in records
    )
    fixed = isinstance(spec.indoor_model, FixedIndoor)
    samples = len(records) * (1 if fixed else EXPANSION) * max(1, len(w.sweep_values))
    oracle = None
    if w.level == "lsoa":
        # the scalar rc.evaluate summed per LSOA: what each group's magnitude must be
        direction = rc.Direction.POSITIVE if w.direction == "pos" else rc.Direction.NEGATIVE
        oracle = defaultdict(float)
        for r in records:
            outcome = rc.evaluate(
                rc.RcDwelling.from_params(params[(r.lsoa_id, r.category)]),
                indoor=spec.indoor_model.temp, outdoor=spec.outdoor_temp,
                curve=spec.cop_curve, band=spec.comfort_band, direction=direction,
            )
            oracle[r.lsoa_id] += r.count * spec.uptake_fraction * abs(outcome.magnitude_electric)
    return {"installed_w": installed, "samples": samples, "oracle_w": oracle}


def check_outputs(w, out, ref):
    """Gating checks on one run's exports; returns (problems, known defect or None)."""
    import checks
    from heatflex import aggregate

    fmt = aggregate.ExportFormat(w.fmt)
    dirs = [out / f"outdoor={v}" for v in w.sweep_values] if w.sweep_values else [out]
    problems, defects, totals = [], [], []
    for d in dirs:
        try:
            report = aggregate.load_report(d, fmt)
        except (OSError, ValueError, KeyError, aggregate.HeatflexError) as exc:
            problems.append(f"{d.name}: export does not reload: {exc!r}")
            continue
        problems += [f"{d.name}: {p}" for p in checks.report_problems(report, ref["installed_w"])]
        if ref["oracle_w"] is not None:
            problems += checks.oracle_problems(report, ref["oracle_w"])
        totals.append(report.total_magnitude_at_zero_w)
        defect = checks.total_unbounded_defect(report, d, fmt)
        if defect:
            defects.append(f"{d.name}: {defect}")
    rising = [(a, b) for a, b in zip(totals, totals[1:]) if b > a]
    if w.sweep_values and rising:
        problems.append(f"__total__ magnitude_at_0_w rises with outdoor temperature: {rising[0]}")
    return problems, (defects[0] if defects else None)


def main(argv):
    import_heatflex()
    import checks

    command, w = argv[0], WORKLOADS[argv[1]]
    if command == "setup":
        seed, work, repeats = int(argv[2]), Path(argv[3]), int(argv[4])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ref = set_up(w, seed, work)
            (work / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
            times.append(time.perf_counter() - t0)
        print(json.dumps({"setup_s": times, "installed_w": ref["installed_w"],
                          "samples": ref["samples"]}))
    elif command == "check":
        work = Path(argv[2])
        ref = json.loads((work / "reference.json").read_text(encoding="utf-8"))
        problems, defect = check_outputs(w, work / "out", ref)
        print(json.dumps({"problems": problems, "defect": defect,
                          "digest": checks.export_digest(work / "out")}))
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
