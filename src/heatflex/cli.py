"""Command line interface.

Subcommands:
  derive            stock -> per-record thermal parameters CSV
  flex              one scenario run -> envelope/summary exports
  sweep             repeat a scenario along one axis (capacity, outdoor, indoor)
  retrofit-compare  same scenario before and after energy efficiency measures
  synth             synthetic stock + lookup generator for tests and demos

flex, sweep and retrofit-compare share one path: each builds a list of
(output subdirectory, scenario) jobs, every sweep value parsed and checked
before anything runs, and scenario.run_sweep evaluates the list while each
run is exported as soon as it is done.

Exit codes: 0 success, 1 usage or configuration error, 2 data validation
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from . import aggregate, config, scenario, synth
from .errors import ConfigError, DataValidationError, HeatflexError
from .rc import Direction
from .regions import default_regions_path, load_region_table
from .scenario import FixedIndoor
from .stock import load_stock, winsorize_stock, write_stock
from .thermal import CapacityLevel, StockVariant, derive_all, write_params_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_DIRECTIONS = {"pos": Direction.POSITIVE, "neg": Direction.NEGATIVE}
_LEVELS = {
    "lsoa": aggregate.Level.LSOA,
    "la": aggregate.Level.LOCAL_AUTHORITY,
    "region": aggregate.Level.REGION,
    "national": aggregate.Level.NATIONAL,
}


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("temperatures must be finite")
    return value


# sweep axis -> (base spec, value token) -> the spec for that value
_SWEEP_AXES = {
    "capacity": lambda spec, t: replace(spec, capacity_level=CapacityLevel.parse(t)),
    "outdoor": lambda spec, t: replace(spec, outdoor_temp=_finite(t)),
    "indoor": lambda spec, t: replace(spec, indoor_model=FixedIndoor(_finite(t))),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Timer:
    def __init__(self, verbose: bool):
        self.verbose = verbose

    def stage(self, name: str, detail: str = ""):
        return _Stage(name, detail, self.verbose)


class _Stage:
    def __init__(self, name, detail, verbose):
        self.name, self.detail, self.verbose = name, detail, verbose

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def done(self, detail: str):
        self.detail = detail

    def __exit__(self, *exc):
        if self.verbose and exc[0] is None:
            dt = time.perf_counter() - self.t0
            suffix = f" ({self.detail})" if self.detail else ""
            print(f"[heatflex] {self.name}: {dt:.3f}s{suffix}", file=sys.stderr)
        return False


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stock", required=True, help="stock CSV path")
    p.add_argument(
        "--regions",
        default=None,
        help=f"regions CSV (default: packaged table at {default_regions_path().name})",
    )
    p.add_argument("--lookup", required=True, help="LSOA -> region/local authority CSV")
    p.add_argument(
        "--winsorize",
        default="0.01,0.99",
        metavar="LO,HI",
        help="percentile clipping bounds, or 'none' to disable (default 0.01,0.99)",
    )
    p.add_argument("--verbose", action="store_true", help="per-stage timing on stderr")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--direction", required=True, choices=sorted(_DIRECTIONS))
    p.add_argument("--level", default="national", choices=sorted(_LEVELS))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--expansion", type=int, default=scenario.DEFAULT_EXPANSION,
                   help="sub-samples per record under a stochastic indoor model")
    # accepted so that existing scripts keep working; evaluation is single-threaded
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heatflex", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_derive = sub.add_parser("derive", help="derive thermal parameters")
    _add_input_args(p_derive)
    p_derive.add_argument("--capacity", default="medium",
                          choices=["medium", "medium+10", "medium-10"])
    p_derive.add_argument("--variant", default="before", choices=["before", "after"])
    p_derive.add_argument("--out", required=True, help="output CSV path")

    p_flex = sub.add_parser("flex", help="run one scenario")
    _add_input_args(p_flex)
    _add_run_args(p_flex)

    p_sweep = sub.add_parser("sweep", help="sweep a scenario along one axis")
    _add_input_args(p_sweep)
    _add_run_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, e.g. 'medium,medium+10'")

    p_retro = sub.add_parser("retrofit-compare",
                             help="compare before/after energy efficiency measures")
    _add_input_args(p_retro)
    _add_run_args(p_retro)

    p_synth = sub.add_parser("synth", help="generate a synthetic stock")
    p_synth.add_argument("--dwellings", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True, help="stock CSV path")
    p_synth.add_argument("--lookup-out", default=None,
                         help="lookup CSV path (default: <out stem>_lookup.csv)")
    p_synth.add_argument("--verbose", action="store_true")

    return parser


def _parse_winsorize(raw: str) -> tuple[float, float] | None:
    raw = raw.strip().lower()
    if raw == "none":
        return None
    try:
        lo_s, hi_s = raw.split(",")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise ConfigError(f"bad --winsorize value {raw!r}, expected LO,HI or 'none'") from None


def _load_inputs(args, timer: _Timer):
    with timer.stage("load stock") as st:
        records = load_stock(args.stock)
        st.done(f"{len(records)} records")
    bounds = _parse_winsorize(args.winsorize)
    if bounds is not None:
        with timer.stage("winsorize") as st:
            records = winsorize_stock(records, *bounds)
            st.done(f"bounds {bounds}")
    with timer.stage("load regions"):
        regions = load_region_table(args.regions, args.lookup)
    return records, regions


def _cmd_derive(args) -> int:
    timer = _Timer(args.verbose)
    records, regions = _load_inputs(args, timer)
    level = CapacityLevel.parse(args.capacity)
    variant = StockVariant(args.variant)
    with timer.stage("derive") as st:
        params = derive_all(records, regions, level, variant)
        st.done(f"{len(params)} parameter sets")
    write_params_csv(records, params, args.out)
    return EXIT_OK


def _run_jobs(args, jobs: list[tuple[str, scenario.ScenarioSpec]]) -> int:
    """Run each (subdir, spec) job in order and export it under --out/subdir as it arrives."""
    timer = _Timer(args.verbose)
    records, regions = _load_inputs(args, timer)
    level, fmt = _LEVELS[args.level], aggregate.ExportFormat(args.format)
    runs = scenario.run_sweep(records, regions, [spec for _, spec in jobs],
                              _DIRECTIONS[args.direction], args.expansion)
    for subdir, _ in jobs:
        with timer.stage(f"evaluate {subdir}".rstrip()) as st:
            run = next(runs)
            st.done(f"{len(run) - len(run.errors)} outcomes")
        with timer.stage("aggregate") as st:
            report = aggregate.rollup(run, regions, level)
            st.done(f"{len(report.groups)} group(s)")
        aggregate.export_report(report, fmt, Path(args.out) / subdir)
        if run.errors:
            _report_failures(run.errors)
        del run, report  # free this run before the next one is evaluated
    return EXIT_OK


def _report_failures(errors) -> None:
    """One line with the failed count, then the count of each distinct reason."""
    reasons = Counter(message for _, message in errors)
    print(f"[heatflex] {len(errors)} sample(s) failed, "
          f"{len(reasons)} distinct reason(s):", file=sys.stderr)
    for message, count in reasons.most_common():
        print(f"[heatflex]   {count} x {message}", file=sys.stderr)


def _cmd_flex(args) -> int:
    return _run_jobs(args, [("", config.read_scenario(args.scenario))])


def _cmd_sweep(args) -> int:
    spec = config.read_scenario(args.scenario)
    tokens = [t.strip() for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--values is empty")
    jobs = []
    for token in tokens:  # every value is checked before the first run writes anything
        try:
            jobs.append((f"{args.axis}={token}", _SWEEP_AXES[args.axis](spec, token)))
        except ValueError as exc:
            raise ConfigError(f"bad --values entry {token!r} for --axis {args.axis}: "
                              f"{exc}") from None
    return _run_jobs(args, jobs)


def _cmd_retrofit(args) -> int:
    spec = config.read_scenario(args.scenario)
    return _run_jobs(args, [(v.value, replace(spec, stock_variant=v))
                            for v in (StockVariant.BEFORE_EE, StockVariant.AFTER_EE)])


def _cmd_synth(args) -> int:
    records, lookup = synth.generate_stock(args.dwellings, args.seed)
    write_stock(records, args.out)
    lookup_out = args.lookup_out
    if lookup_out is None:
        out = Path(args.out)
        lookup_out = out.with_name(out.stem + "_lookup.csv")
    synth.write_lookup(lookup, lookup_out)
    if args.verbose:
        print(f"[heatflex] wrote {len(records)} records to {args.out}, "
              f"{len(lookup)} lookup rows to {lookup_out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "derive": _cmd_derive,
    "flex": _cmd_flex,
    "sweep": _cmd_sweep,
    "retrofit-compare": _cmd_retrofit,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"heatflex: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataValidationError, HeatflexError) as exc:
        print(f"heatflex: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"heatflex: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"heatflex: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
