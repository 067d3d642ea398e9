"""Run the heatflex CLI in this process with its layer functions wrapped in spans.

Usage (run.py starts it as a fresh child process):

    PERFBENCH_SPAWN_T=<t> python3 perfbench/tracer.py SPANS_JSON -- <heatflex CLI arguments>

PERFBENCH_SPAWN_T is the parent's time.perf_counter() just before it spawned
this process; perf_counter is CLOCK_MONOTONIC on Linux, so it is comparable
across processes, and the start-up time runs from spawn to the end of
`import heatflex.cli`. The tracer imports heatflex.cli, wraps every name in LAYERS in each
heatflex.* module that binds it, calls heatflex.cli.main(argv), and on exit
writes the spans, the counts taken from returned values, the names that no
longer exist, the start-up time and the time main returned (both measured
from spawn) to SPANS_JSON. It exits with main's code.

rc.evaluate is deliberately not wrapped: it runs once per sample (529,950
times on the national workload) and a span per call would swamp the trace.
"""

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import Counter


def _records(counts, result):
    counts["stock.records"] += len(result)


def _samples(counts, result):
    counts["scenario.samples"] += len(result)


def _run(counts, result):
    outcomes = getattr(result, "outcomes", None)
    errors = getattr(result, "errors", None)
    if outcomes is None or errors is None:
        counts["missing:ScenarioRun.outcomes/errors"] += 1
        return
    kinds = Counter(outcome.duration.kind.value for _, outcome in outcomes)
    for kind in ("finite", "unbounded", "zero"):
        counts[f"rc.{kind}"] += kinds[kind]
    counts["scenario.failed_samples"] += len(errors)


def _report(counts, result):
    groups = getattr(result, "groups", None)
    if groups is None:
        counts["missing:AggregateReport.groups"] += 1
        return
    counts["aggregate.groups"] += len(groups)
    counts["aggregate.breakpoints"] += sum(len(g.envelope.breakpoints) for g in groups.values())


def _exported(counts, result):
    counts["aggregate.export_bytes"] += sum(os.path.getsize(p) for p in result)


# Public functions timed as layers: "module.function" -> hook that takes counts
# from the returned value (None: time and call count only).
LAYERS = {
    "cli.main": None,
    "stock.load_stock": _records,
    "stock.winsorize_stock": None,
    "regions.load_region_table": None,
    "thermal.derive_all": None,
    "scenario.build_samples": _samples,
    "scenario.run_scenario": _run,
    "aggregate.rollup": _report,
    "aggregate.build_envelope": None,
    "aggregate.finite_energy": None,
    "aggregate.export_report": _exported,
}

BOOKKEEPING = "trace.bookkeeping"  # time spent in hooks, kept out of layer self times


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, maxrss_start_kb, maxrss_end_kb]
        self.stack = []
        self.counts = Counter()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.spans.append([name, parent, time.perf_counter(), None, rss, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[3] = time.perf_counter()
        span[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.stack.pop()

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                book = self._open(BOOKKEEPING)
                try:
                    hook(self.counts, result)
                finally:
                    self._close(book)
            return result

        return traced

    def install(self):
        """Wrap each LAYERS name wherever a heatflex module binds it; return the missing names."""
        missing = []
        for qualname, hook in LAYERS.items():
            module_name, attr = qualname.split(".")
            try:
                fn = getattr(importlib.import_module(f"heatflex.{module_name}"), attr)
            except (ImportError, AttributeError):
                missing.append(qualname)
                continue
            wrapper = self.wrap(qualname, fn, hook)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "heatflex" or mod_name.startswith("heatflex."):
                    for bound, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, bound, wrapper)
        return missing


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <heatflex arguments>", file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    import heatflex.cli  # the import is the start-up being timed

    startup_s = time.perf_counter() - spawn_t
    tracer = Tracer()
    missing = tracer.install()
    code = 3
    try:
        code = heatflex.cli.main(cli_argv)
    finally:
        main_end_s = time.perf_counter() - spawn_t
        doc = {
            "startup_s": startup_s,
            "main_end_s": main_end_s,
            "exit_code": code,
            "missing": missing,
            "counts": dict(tracer.counts),
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e,
                 "maxrss_start_kb": r0, "maxrss_end_kb": r1}
                for n, p, s, e, r0, r1 in tracer.spans
            ],
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
