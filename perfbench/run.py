"""Benchmark of the heatflex CLI: end-to-end wall time and memory, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the program runs from the src/ directory next to this one.
Each invocation sets up one workload's inputs from the seed SETUP_REPEATS
times (worker.py setup), then runs the CLI as a fresh child process, one at a
time, at --workers 1:

  --trace 0  untraced runs until their wall times add up to --seconds, and at
             least MIN_RUNS; prints the end-to-end metrics.
  --trace 1  one untraced run, then one run under perfbench/tracer.py that
             wraps the layer functions in spans; prints the per-layer metrics.
  all        every workload, untraced runs and one traced run each.

A worker child checks every run's exports (worker.py check); a run that exits
non-zero or fails a check counts as failed. This process never imports
heatflex, so it stays smaller than any CLI child and its ru_maxrss does not
leak into theirs. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Work files go to .perfbench_work/ at
the repository root and are removed at exit.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_REPEATS = 3
MIN_RUNS = 2
RUN_DEADLINE_S = 170.0  # no CLI run starts after this, and a running one is killed
WINSORIZE = (0.01, 0.99)  # passed to the CLI and used for the reference values
EXPANSION = 10

STOCHASTIC_INDOOR = """[indoor]
model = truncated_normal
mean = 19.0
sd = 2.5
low = 14.0
high = 24.0
seed = {seed}
"""
FIXED_INDOOR = """[indoor]
model = fixed
temp = 21.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    dwellings: int
    outdoor: float
    indoor: str
    direction: str
    level: str
    fmt: str
    command: str = "flex"
    sweep_values: tuple = ()

    def argv(self):
        args = [
            self.command, "--stock", "stock.csv", "--lookup", "lookup.csv",
            "--scenario", "scenario.ini", "--winsorize", ",".join(map(str, WINSORIZE)),
            "--direction", self.direction, "--level", self.level, "--format", self.fmt,
            "--expansion", str(EXPANSION), "--workers", "1", "--out", "out",
        ]
        if self.sweep_values:
            args += ["--axis", "outdoor", "--values=" + ",".join(map(str, self.sweep_values))]
        return args

    def scenario_ini(self, seed):
        return f"[scenario]\noutdoor_temp = {self.outdoor!r}\n\n" + self.indoor.format(seed=seed)


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("flex_national_stochastic", 2_000_000, 5.0, STOCHASTIC_INDOOR,
                 "neg", "national", "json"),
        Workload("flex_lsoa_fixed", 2_000_000, 0.0, FIXED_INDOOR, "pos", "lsoa", "csv"),
        Workload("sweep_outdoor", 200_000, 0.0, STOCHASTIC_INDOOR, "neg", "region", "csv",
                 command="sweep", sweep_values=(-4, -2, 0, 2, 4, 6, 8, 10)),
    )
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "samples_per_s": "1/s", "setup_s": "s"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.self_s": "s", "cli.exit_s": "s",
    "stock.load_s": "s", "stock.winsorize_s": "s", "stock.records": "count",
    "regions.load_s": "s",
    "thermal.derive_s": "s", "thermal.derive_calls": "count",
    "scenario.build_samples_s": "s", "scenario.build_samples_calls": "count",
    "scenario.samples": "count", "scenario.run_s": "s", "scenario.failed_samples": "count",
    "scenario.maxrss_growth_mb": "MB", "scenario.bytes_per_sample": "B",
    "rc.finite": "count", "rc.unbounded": "count", "rc.zero": "count",
    "aggregate.rollup_s": "s", "aggregate.envelope_s": "s", "aggregate.envelope_calls": "count",
    "aggregate.energy_s": "s", "aggregate.groups": "count", "aggregate.breakpoints": "count",
    "aggregate.export_s": "s", "aggregate.export_bytes": "B",
    "trace.overhead_s": "s", "trace.unaccounted_s": "s", "trace.missing": "count",
}
# per-layer time metric -> the traced function whose self time it is
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "stock.load_s": "stock.load_stock",
    "stock.winsorize_s": "stock.winsorize_stock",
    "regions.load_s": "regions.load_region_table",
    "thermal.derive_s": "thermal.derive_all",
    "scenario.build_samples_s": "scenario.build_samples",
    "scenario.run_s": "scenario.run_scenario",
    "aggregate.rollup_s": "aggregate.rollup",
    "aggregate.envelope_s": "aggregate.build_envelope",
    "aggregate.energy_s": "aggregate.finite_energy",
    "aggregate.export_s": "aggregate.export_report",
}
CALLS = {
    "thermal.derive_calls": "thermal.derive_all",
    "scenario.build_samples_calls": "scenario.build_samples",
    "aggregate.envelope_calls": "aggregate.build_envelope",
}
COUNTS = ("stock.records", "scenario.samples", "scenario.failed_samples", "rc.finite",
          "rc.unbounded", "rc.zero", "aggregate.groups", "aggregate.breakpoints",
          "aggregate.export_bytes")
FAILED_SAMPLES = re.compile(r"\[heatflex\] (\d+) sample\(s\) failed")


def run_worker(args, timeout_s):
    """Run perfbench/worker.py to exit and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], capture_output=True,
                          text=True, timeout=max(1.0, timeout_s), stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    exit_code: int
    failed_samples: int
    problems: list = field(default_factory=list)
    digest: str = ""
    defect: str | None = None
    trace: dict | None = None


def spawn(argv, cwd, timeout_s):
    """Run one child to exit; return (wall_s from spawn, its own rusage, exit code, stderr).

    The child finds the spawn time in PERFBENCH_SPAWN_T (time.perf_counter, which
    is CLOCK_MONOTONIC and so comparable across processes).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        env["PERFBENCH_SPAWN_T"] = repr(t0)
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, timeout_s), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep the
            # largest ru_maxrss of every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return wall, usage, proc.returncode, stderr


def run_once(w, work, deadline, traced):
    """One CLI child, untraced or under the tracer, then its exports checked by a worker."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans_path = work / "spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACER), str(spans_path), "--", *w.argv()]
    else:
        argv = [sys.executable, "-m", "heatflex.cli", *w.argv()]
    wall, usage, code, stderr = spawn(argv, work, deadline - time.perf_counter())
    failed = sum(int(n) for n in FAILED_SAMPLES.findall(stderr))
    run = Run(wall, usage.ru_maxrss / 1024.0, code, failed)
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        run.problems.append(f"exit code {code}: {tail[0]}")
        return run
    try:
        result = run_worker(["check", w.name, work], deadline - time.perf_counter())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        run.problems.append(f"checks did not run: {exc}")
        return run
    run.problems, run.defect, run.digest = result["problems"], result["defect"], result["digest"]
    if traced:
        run.trace = json.loads(spans_path.read_text(encoding="utf-8"))
    return run


def layer_metrics(trace, untraced_wall_s, traced_wall_s):
    """Per-layer metrics from one traced run; missing names and counts read 0 and are counted."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    self_s, calls = defaultdict(float), Counter()
    for span, child_s in zip(spans, covered):
        self_s[span["name"]] += span["end"] - span["start"] - child_s
        calls[span["name"]] += 1
    counts = trace["counts"]
    missing = list(trace["missing"]) + [k for k in counts if k.startswith("missing:")]

    m = {"cli.startup_s": trace["startup_s"], "cli.exit_s": traced_wall_s - trace["main_end_s"]}
    m.update({metric: self_s[name] for metric, name in SELF_TIMES.items()})
    m.update({metric: calls[name] for metric, name in CALLS.items()})
    m.update({metric: counts.get(metric, 0) for metric in COUNTS})
    # ru_maxrss high-water growth from each build_samples start to the next run_scenario end
    growth_kb, start = 0, None
    for span in spans:
        if span["name"] == "scenario.build_samples" and start is None:
            start = span["maxrss_start_kb"]
        elif span["name"] == "scenario.run_scenario" and start is not None:
            growth_kb, start = max(growth_kb, span["maxrss_end_kb"] - start), None
    per_call = m["scenario.samples"] / max(1, m["scenario.build_samples_calls"])
    m["scenario.maxrss_growth_mb"] = growth_kb / 1024.0
    m["scenario.bytes_per_sample"] = growth_kb * 1024.0 / per_call if per_call else 0.0
    layer_s = sum(t for name, t in self_s.items() if name != "trace.bookkeeping")
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.unaccounted_s"] = untraced_wall_s - m["cli.startup_s"] - layer_s - m["cli.exit_s"]
    m["trace.missing"] = len(missing)
    return m, missing


def describe_machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"nproc {os.cpu_count()}, {model}, Python {sys.version.split()[0]}"


def measure(w, seed, seconds, untraced_min_runs, traced, deadline):
    """Set up, run, check; return (end-to-end metrics, per-layer metrics or None, runs, ok)."""
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"== {w.name}  seed {seed}  ({w.dwellings:,} dwellings)")
    print("   argv: heatflex " + " ".join(w.argv()))

    ref = run_worker(["setup", w.name, seed, work, SETUP_REPEATS], deadline - time.perf_counter())
    setup_times, samples = ref["setup_s"], ref["samples"]
    print(f"   setup: {', '.join(f'{t:.3f}' for t in setup_times)} s; "
          f"reference installed {ref['installed_w']:.6e} W, {samples:,} samples")

    runs, measured_s = [], 0.0
    while len(runs) < untraced_min_runs or measured_s < seconds:
        run = run_once(w, work, deadline, traced=False)
        runs.append(run)
        measured_s += run.wall_s
        report_run("run", len(runs), run)
        if run.exit_code != 0 or time.perf_counter() > deadline:
            break
    traced_run = None
    if traced and runs[-1].exit_code == 0 and time.perf_counter() < deadline:
        traced_run = run_once(w, work, deadline, traced=True)
        report_run("traced", 1, traced_run)

    every = runs + ([traced_run] if traced_run else [])
    digests = [r.digest for r in every if r.exit_code == 0]
    for r in every:
        if r.exit_code == 0 and r.digest != digests[0]:
            r.problems.append("export digest differs from the first run's")
    for run in every:
        for problem in run.problems:
            print(f"   FAIL {problem}")
    defect = next((r.defect for r in every if r.defect), None)
    print("   known defect total_unbounded_w (ROADMAP item 4, not gating): "
          + (f"FAIL {defect}" if defect else "not shown"))

    walls = [r.wall_s for r in runs]
    e2e = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "samples_per_s": statistics.median(samples / t for t in walls),
        "setup_s": statistics.median(setup_times),
    }
    failed_runs = sum(1 for r in every if r.problems)
    failed_samples = sum(r.failed_samples for r in every)
    print(f"   run_fail_frac {failed_runs / len(every):.4f} ({failed_runs}/{len(every)} runs)")
    print(f"   sample_fail_frac {failed_samples / (samples * len(every)):.6f} "
          f"({failed_samples}/{samples * len(every)} samples)")
    print(f"   medians over {len(walls)} untraced run(s), wall_s min {min(walls):.3f} "
          f"max {max(walls):.3f}; setup_s over {SETUP_REPEATS} set-ups")
    for name, value in e2e.items():
        print(f"   {name:<28} {value:>16.4f} {END_TO_END[name]}")

    layers = None
    if traced_run is not None and traced_run.trace is not None:
        layers, missing = layer_metrics(traced_run.trace, e2e["wall_s"], traced_run.wall_s)
        for name, unit in PER_LAYER.items():
            value = layers[name]
            shown = f"{value:>16.4f}" if isinstance(value, float) else f"{value:>16d}"
            print(f"   {name:<28} {shown} {unit}")
        if missing:
            print(f"   trace: missing {', '.join(missing)}")
        gap, overhead = layers["trace.unaccounted_s"], layers["trace.overhead_s"]
        print(f"   accounting: startup + layer self times + exit = {e2e['wall_s'] - gap:.3f} s "
              f"vs untraced wall_s {e2e['wall_s']:.3f} s; gap {gap:+.3f} s is "
              + ("within" if abs(gap) <= abs(overhead) else "NOT within")
              + f" the trace overhead {overhead:+.3f} s")
    ok = failed_runs == 0 and (not traced or layers is not None)
    return e2e, layers, every, ok


def report_run(kind, i, run):
    status = "ok" if not run.problems else f"{len(run.problems)} problem(s)"
    print(f"   {kind} {i}: wall {run.wall_s:.3f} s, peak RSS {run.rss_mb:.1f} MB, "
          f"exit {run.exit_code}, checks {status}", flush=True)


def metric_doc(values, units):
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "heatflex" / "cli.py").is_file():
        print(f"perfbench: no heatflex sources under {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench: {describe_machine()}")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        if args.workload == "all":
            metrics, attempted, failed, ok = {}, 0, 0, True
            for w in WORKLOADS.values():
                e2e, layers, runs, w_ok = measure(w, args.seed, args.seconds, MIN_RUNS, True,
                                                  time.perf_counter() + RUN_DEADLINE_S)
                for name, value in metric_doc(e2e, END_TO_END).items():
                    metrics[f"{w.name}/{name}"] = value
                for name, value in metric_doc(layers or {}, PER_LAYER).items():
                    metrics[f"{w.name}/{name}"] = value
                attempted += len(runs)
                failed += sum(1 for r in runs if r.problems)
                ok = ok and w_ok
        else:
            w = WORKLOADS[args.workload]
            if args.trace:
                e2e, layers, runs, ok = measure(w, args.seed, 0.0, 1, True, deadline)
                metrics = metric_doc(layers or {}, PER_LAYER)
            else:
                e2e, _, runs, ok = measure(w, args.seed, args.seconds, MIN_RUNS, False, deadline)
                metrics = metric_doc(e2e, END_TO_END)
            attempted, failed = len(runs), sum(1 for r in runs if r.problems)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
