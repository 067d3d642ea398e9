"""Self-test of the benchmark's output checks: one corrupted power value must fail them.

    python3 perfbench/selftest.py

For a CSV and a JSON workload, at 20,000 dwellings, it runs the CLI once,
requires the export to pass every gating check, then changes one power value
in a copy of the export and requires the checks to fail and the digest to
change. Exits 0 when all of that holds, 1 otherwise.
"""

import csv
import json
import shutil
import sys
import time
from dataclasses import replace

import run
import worker

DWELLINGS = 20_000


def raise_first_step_csv(out):
    """Add 1 W to the first envelope step of the first group in envelope.csv."""
    path = out / "envelope.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = repr(float(rows[1][2]) + 1.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def raise_middle_step_json(out):
    """Set one mid-envelope power in report.json just above the step before it."""
    path = out / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    steps = next(iter(doc["groups"].values()))["breakpoints"]
    i = len(steps) // 2
    steps[i][1] = steps[i - 1][1] + 1.0
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


CASES = {
    "flex_lsoa_fixed": raise_first_step_csv,
    "flex_national_stochastic": raise_middle_step_json,
}


def main():
    worker.import_heatflex()
    import checks

    ok = True
    try:
        for name, corrupt in CASES.items():
            w = replace(run.WORKLOADS[name], dwellings=DWELLINGS)
            work = run.WORK / "selftest" / name
            work.mkdir(parents=True)
            ref = worker.set_up(w, 1, work)
            (work / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
            result = run.run_once(w, work, time.perf_counter() + run.RUN_DEADLINE_S,
                                  traced=False)
            copy = work / "corrupted"
            shutil.copytree(work / "out", copy)
            corrupt(copy)
            problems, _ = worker.check_outputs(w, copy, ref)
            digest_changed = checks.export_digest(copy) != result.digest
            passed = not result.problems and bool(problems) and digest_changed
            ok = ok and passed
            print(f"{name}: untouched export {result.problems or 'passes'}; corrupted copy "
                  f"{problems[:1] or 'PASSES (check is blind)'}; digest "
                  f"{'changed' if digest_changed else 'UNCHANGED'}: "
                  f"{'ok' if passed else 'FAIL'}")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
