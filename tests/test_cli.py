"""Command line flows and exit-code contract."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heatflex import DwellingRecord, aggregate, default_regions_path, load_stock, scenario
from heatflex.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

SCENARIO_FIXED = """\
[scenario]
outdoor_temp = 5.0

[indoor]
model = fixed
temp = 19.0
"""

SCENARIO_PDF = """\
[scenario]
outdoor_temp = 0.0

[indoor]
model = truncated_normal
seed = 42
"""


@pytest.fixture()
def workspace(tmp_path):
    assert main(["synth", "--dwellings", "2000", "--seed", "3",
                 "--out", str(tmp_path / "stock.csv")]) == EXIT_OK
    scenario = tmp_path / "scenario.ini"
    scenario.write_text(SCENARIO_FIXED, encoding="utf-8")
    return tmp_path


def test_synth_writes_stock_and_lookup(workspace):
    assert (workspace / "stock.csv").exists()
    assert (workspace / "stock_lookup.csv").exists()


def test_derive_flow(workspace):
    out = workspace / "params.csv"
    code = main([
        "derive",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "lsoa_id,form,heating,count,ql_kw_per_c,c_kj_per_k,hp_kw"


def test_flex_flow_csv_and_json(workspace):
    for fmt, probe in [("csv", "summary.csv"), ("json", "report.json")]:
        out = workspace / f"flex_{fmt}"
        code = main([
            "flex",
            "--stock", str(workspace / "stock.csv"),
            "--lookup", str(workspace / "stock_lookup.csv"),
            "--scenario", str(workspace / "scenario.ini"),
            "--direction", "neg",
            "--level", "la",
            "--format", fmt,
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / probe).exists()


def test_flex_reruns_byte_identical(workspace):
    scenario = workspace / "pdf.ini"
    scenario.write_text(SCENARIO_PDF, encoding="utf-8")
    args = [
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(scenario),
        "--direction", "neg",
        "--level", "region",
    ]
    assert main(args + ["--out", str(workspace / "run1")]) == EXIT_OK
    assert main(args + ["--out", str(workspace / "run2")]) == EXIT_OK
    for name in ("envelope.csv", "summary.csv"):
        assert (workspace / "run1" / name).read_bytes() == \
            (workspace / "run2" / name).read_bytes()


def test_sweep_flow(workspace):
    code = main([
        "sweep",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "neg",
        "--axis", "capacity",
        "--values", "medium,medium+10,medium-10",
        "--out", str(workspace / "sweepout"),
    ])
    assert code == EXIT_OK
    for name in ("capacity=medium", "capacity=medium+10", "capacity=medium-10"):
        assert (workspace / "sweepout" / name / "summary.csv").exists()


def test_sweep_outdoor_axis(workspace):
    code = main([
        "sweep",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "pos",
        "--axis", "outdoor",
        "--values=-5,0,5,10",  # '=' form keeps the leading minus out of flag parsing
        "--out", str(workspace / "sweepout2"),
    ])
    assert code == EXIT_OK
    assert (workspace / "sweepout2" / "outdoor=0" / "summary.csv").exists()


@pytest.mark.parametrize("axis, values", [
    ("capacity", "medium,bogus"),
    ("outdoor", "0,abc"),
    ("outdoor", "0,nan"),
    ("indoor", "19,inf"),
])
def test_bad_sweep_value_exits_1_before_any_run(workspace, axis, values):
    out = workspace / "badsweep"
    code = main([
        "sweep",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "neg",
        "--axis", axis,
        f"--values={values}",
        "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert not out.exists()


def _load_benchmark_runner():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_runs(runner):
    """(name, scenario file text, argv): each workload's command line, plus a
    retrofit-compare and a capacity sweep built from them, so that every
    kind of run_sweep job list is covered."""
    runs = [(w.name, w.scenario_ini(seed=1), w.argv()) for w in runner.WORKLOADS.values()]
    fixed = runner.WORKLOADS["flex_lsoa_fixed"]
    drawn = runner.WORKLOADS["flex_national_stochastic"]
    runs.append(("retrofit_compare", fixed.scenario_ini(seed=1),
                 ["retrofit-compare", *fixed.argv()[1:]]))
    runs.append(("sweep_capacity", drawn.scenario_ini(seed=1),
                 ["sweep", *drawn.argv()[1:], "--axis", "capacity",
                  "--values", "medium,medium+10,medium-10"]))
    return runs


# Drawn indoor temperatures from 0 to 70 C on a positive run at 0 C outdoors:
# zero rows (at or above the 24 C ceiling), finite and unbounded rows (by
# region), and failed rows above rc's 60 C limit.
SCENARIO_HOT_TAIL = """\
[scenario]
outdoor_temp = 0.0

[indoor]
model = truncated_normal
mean = 25.0
sd = 20.0
low = 0.0
high = 70.0
seed = 11
"""


def _blank_local_authority(lookup_path, lsoa_id):
    """Blank the local_authority cell of lsoa_id's row in a lookup file, which
    leaves that LSOA in its region but in no local authority."""
    with open(lookup_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("local_authority")
    for row in rows[1:]:
        if row[0] == lsoa_id:
            row[column] = ""
    with open(lookup_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _export_digests(runner) -> dict[str, dict[str, str]]:
    """Run each benchmark command line on a 2,000-dwelling synth stock in the
    working directory, then an LA-level flex with failed samples and an
    unresolved LSOA (its lookup row has a blank local authority) on a
    6,000-dwelling one, exported as CSV and as JSON; return the SHA-256 of
    every exported file, by run and path."""
    def digests_of(argv):
        assert main(argv) == EXIT_OK, argv
        found = {
            path.relative_to("out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("out").rglob("*")) if path.is_file()
        }
        shutil.rmtree("out")
        return found

    assert main(["synth", "--dwellings", "2000", "--seed", "3", "--out", "stock.csv",
                 "--lookup-out", "lookup.csv"]) == EXIT_OK
    digests = {}
    for name, scenario_text, argv in _benchmark_runs(runner):
        Path("scenario.ini").write_text(scenario_text, encoding="utf-8")
        digests[name] = digests_of(argv)

    assert main(["synth", "--dwellings", "6000", "--seed", "3", "--out", "mixed.csv",
                 "--lookup-out", "mixed_lookup.csv"]) == EXIT_OK
    Path("hot.ini").write_text(SCENARIO_HOT_TAIL, encoding="utf-8")
    _blank_local_authority("mixed_lookup.csv", load_stock("mixed.csv").lsoa_ids[0])
    argv = ["flex", "--stock", "mixed.csv", "--lookup", "mixed_lookup.csv", "--scenario",
            "hot.ini", "--direction", "pos", "--level", "la", "--expansion", "2", "--out", "out"]
    digests["flex_la_failed_unresolved"] = digests_of(argv)
    digests["flex_la_failed_unresolved_json"] = digests_of([*argv, "--format", "json"])
    return digests


# SHA-256 of every file the benchmark command lines export on the small
# stock, and of the failed-and-unresolved LA run. Last recorded when
# durations moved to the log1p form and group rows of summary.csv stopped
# writing excluded_power_w; the vectorised draws before that left every
# digest unchanged, and flex_la_failed_unresolved was added later without
# re-pinning the others, as was its JSON export, the one report.json here
# with more than one group. A change that alters any exported byte fails here.
GOLDEN_EXPORTS = {
    "flex_la_failed_unresolved": {
        "envelope.csv":
            "3777f84da4f918a07613b29f2117ba5fecc948da66114ce37016ba53387a691d",
        "summary.csv":
            "a4f193b42123c6ee325370c6de6f59b9266d7a40e59a6f037f748b2644ca5846",
        "unresolved.csv":
            "5ec6185b31b6ab749f201a3b2df8dc8014adc1abd5074fac9826037b33b03bee",
    },
    "flex_la_failed_unresolved_json": {
        "report.json":
            "487df2082b260e3f198f4838fb6a16d97d329380bc9216c5553d6aafbb7fcc11",
    },
    "flex_lsoa_fixed": {
        "envelope.csv":
            "786657ee476effa88300df3d779c8cd049a82b3eb969c3753e884c49bc3740b9",
        "summary.csv":
            "0eca5f4bfd4e3ddcb3e5c184e5e5ef0e48f5d3235d4d83087fb851032bfc4de1",
    },
    "flex_national_stochastic": {
        "report.json":
            "dace78b8c9861340401afd2b817f7bc50fcb8869cb012c94e52d37f3b346fea3",
    },
    "retrofit_compare": {
        "after/envelope.csv":
            "240708c305b3f6b29ddb0a7f13864459f837beac5b7f637df884b33b4773b6dc",
        "after/summary.csv":
            "81f6736abe2d8202f3beb3d910302b220eae39ddcbe2b367beab62d6e67a5c47",
        "before/envelope.csv":
            "786657ee476effa88300df3d779c8cd049a82b3eb969c3753e884c49bc3740b9",
        "before/summary.csv":
            "0eca5f4bfd4e3ddcb3e5c184e5e5ef0e48f5d3235d4d83087fb851032bfc4de1",
    },
    "sweep_capacity": {
        "capacity=medium+10/report.json":
            "165311f2b3508af83a069ed5854cef3cfd3b1602219288f9ee6ad7cbf2b4d3e3",
        "capacity=medium-10/report.json":
            "5a10932dbf1a6373d44906b06a857bbe706a4cdc374a5d163aaaaa8f1d0a55a0",
        "capacity=medium/report.json":
            "dace78b8c9861340401afd2b817f7bc50fcb8869cb012c94e52d37f3b346fea3",
    },
    "sweep_outdoor": {
        "outdoor=-2/envelope.csv":
            "db6b9a9133f174d4acb8f77a5a550fa26af8393d23d11254b80bb664c215c999",
        "outdoor=-2/summary.csv":
            "797e3fcb9353a5bb2b8849cc7ef6d3004e9106a0cb1b382ddfcce54d20caa51b",
        "outdoor=-4/envelope.csv":
            "e9e529a67ccace32b3d39155779e258aa60c48d3d4b3569617fc5d3b123d50f6",
        "outdoor=-4/summary.csv":
            "fb332fd07bf67a201377f9fd719c5c909d29ee7fa7304931a7b1cef9c6c9463b",
        "outdoor=0/envelope.csv":
            "cf25ef97be6e2f208dd6e7fd58a5a5a7795bb195b95a2689c0355666772f3a1a",
        "outdoor=0/summary.csv":
            "82e2472b3b4f7eb6dc0ca798bf3faad65cf9c96ce2cb87cd3de32aed3907d2d7",
        "outdoor=10/envelope.csv":
            "662bc1095c164d24a96b4bf51fae8eb0c325f6e965554c0574b538cbbc9426ab",
        "outdoor=10/summary.csv":
            "39f7a77985acbf0c8937e2ef35a492dd946fbd25413f470606840cfe40c0fd44",
        "outdoor=2/envelope.csv":
            "78eba4b62953a3aa4c932652bc0fa313567509d446318223611209bf6f012e30",
        "outdoor=2/summary.csv":
            "cc8d449f6b14df4f2f294732fbc9847928690a89b18e0fa78602ea94130c29a1",
        "outdoor=4/envelope.csv":
            "0d084dd4a0989f8114d6344b9a919a808f0fa4638e103bcb4799986e6e26017f",
        "outdoor=4/summary.csv":
            "289d6b2a259cd9777006c13ee3e9633e366efd8b322ccaf02bebf308c08b9a7a",
        "outdoor=6/envelope.csv":
            "4cc07825e35ed4c31ff5a4827d805491ce055f081fc361fddf25ad4e36286be6",
        "outdoor=6/summary.csv":
            "e63e3dbfc6a2e6f1732f79b8c91dc71ba720a23096fd57ec1f43917c9d547974",
        "outdoor=8/envelope.csv":
            "bf0e480a13388e108a1cd0a5f2a514a48c0d6215453bea8edb0ae07c3d7ff315",
        "outdoor=8/summary.csv":
            "a3778ccd3d7db6b9a22c6d646b3df9e7afa1cec97c52fb9aaf94888f9a21eb4f",
    },
}


def test_benchmark_argv_contract(tmp_path, monkeypatch):
    # the benchmark runs these exact command lines (hidden --workers flag,
    # '--values=-4,...'); they must keep working on a small stock and keep
    # exporting the same bytes, as must a run whose rollup leaves out failed
    # samples and an unresolved LSOA
    runner = _load_benchmark_runner()
    monkeypatch.chdir(tmp_path)
    assert _export_digests(runner) == GOLDEN_EXPORTS


def test_tracer_runs_every_workload(tmp_path, monkeypatch):
    # the benchmark's traced run wraps the layer functions by name and reads
    # counts from what they return; a name that no longer exists or a crash
    # in its hooks would count against the benchmark as a failed run
    runner = _load_benchmark_runner()
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--dwellings", "2000", "--seed", "3", "--out", "stock.csv",
                 "--lookup-out", "lookup.csv"]) == EXIT_OK
    for workload in runner.WORKLOADS.values():
        Path("scenario.ini").write_text(workload.scenario_ini(seed=1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(runner.SRC),
                   PERFBENCH_SPAWN_T=repr(time.perf_counter()))
        proc = subprocess.run(
            [sys.executable, str(runner.TRACER), "spans.json", "--", *workload.argv()],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == EXIT_OK, (workload.name, proc.stderr)
        trace = json.loads(Path("spans.json").read_text(encoding="utf-8"))
        assert trace["exit_code"] == EXIT_OK
        assert trace["missing"] == [], workload.name
        shutil.rmtree("out")


def _load_perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, loaded as _load_benchmark_runner loads run.py; the
    modules it imports by bare name (run, checks) are registered for this test only."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    for dependency in ("run", "checks"):
        spec = importlib.util.spec_from_file_location(dependency, perfbench / f"{dependency}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, dependency, module)
        spec.loader.exec_module(module)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", perfbench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_setup_and_checks_run(tmp_path, monkeypatch):
    # the benchmark's worker writes each workload's inputs and reference
    # values through the library API, then checks the CLI's exports against
    # them; a failure in either counts as a failed benchmark run
    worker = _load_perfbench_module("worker", monkeypatch)
    monkeypatch.chdir(tmp_path)
    for workload in worker.WORKLOADS.values():
        small = dataclasses.replace(workload, dwellings=2000)
        reference = worker.set_up(small, 5, tmp_path)
        assert reference["installed_w"] > 0 and reference["samples"] > 0
        assert main(small.argv()) == EXIT_OK, workload.name
        problems, _ = worker.check_outputs(small, tmp_path / "out", reference)
        assert problems == [], workload.name
        shutil.rmtree(tmp_path / "out")


def _set_cell(path, row, column, value):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cells


@pytest.mark.parametrize("column, value, message", [
    (3, "inf", "expected an integer, got 'inf'"),
    (4, "nan", "expected a finite number, got 'nan'"),
    (6, "inf", "expected a finite number, got 'inf'"),
    (3, "-1", "{lsoa}: negative dwelling count -1"),
])
def test_bad_stock_number_exits_2_naming_file_and_row(workspace, capsys, column, value, message):
    stock = workspace / "stock.csv"
    cells = _set_cell(stock, 5, column, value)
    out = workspace / "bad"
    code = main(["flex", "--stock", str(stock), "--lookup", str(workspace / "stock_lookup.csv"),
                 "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                 "--out", str(out)])
    assert code == EXIT_DATA
    expected = f"heatflex: data error: {stock}: row 5: " + message.format(lsoa=cells[0])
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not out.exists()


@pytest.mark.parametrize("column, value", [(1, "nan"), (2, "-inf")])
def test_non_finite_region_exits_2_naming_file_and_row(workspace, capsys, column, value):
    regions = workspace / "regions.csv"
    shutil.copyfile(default_regions_path(), regions)
    _set_cell(regions, 3, column, value)
    code = main(["flex", "--stock", str(workspace / "stock.csv"), "--regions", str(regions),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                 "--level", "region", "--out", str(workspace / "bad")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        f"heatflex: data error: {regions}: row 3: non-finite cell"]


@pytest.mark.parametrize("command, runs", [
    (["flex"], 1),
    (["sweep", "--axis", "outdoor", "--values=0,5"], 2),
    (["retrofit-compare"], 2),
], ids=["flex", "sweep", "retrofit-compare"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_builds_no_per_group_objects(workspace, monkeypatch, capsys, command, runs, fmt):
    # the rollup and both exports work on the report's columns; an Envelope
    # or GroupStats per group is built only for a caller that asks for groups,
    # and the stock is read into columns, with no DwellingRecord per row
    def refuse(*args, **kwargs):
        raise AssertionError("per-group object built")

    monkeypatch.setattr(aggregate.Envelope, "__post_init__", refuse)
    monkeypatch.setattr(aggregate.GroupStats, "__init__", refuse)
    monkeypatch.setattr(DwellingRecord, "__post_init__", refuse)
    out = workspace / "out"
    code = main([*command, "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                 "--level", "lsoa", "--format", fmt, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    names = sorted(path.name for path in out.rglob("*.*"))
    assert names == sorted({"csv": ["envelope.csv", "summary.csv"], "json": ["report.json"]}[fmt]
                           * runs)
    with pytest.raises(AssertionError, match="per-group object built"):
        aggregate.load_report(next(out.rglob("*.*")).parent, aggregate.ExportFormat(fmt)).groups


@pytest.mark.parametrize("command", [
    ["synth", "--dwellings", "2000", "--seed", "3"],
    ["derive", "--stock", "{work}/stock.csv", "--lookup", "{work}/stock_lookup.csv"],
], ids=["synth", "derive"])
def test_cli_builds_no_per_row_objects(workspace, monkeypatch, capsys, command):
    # synth gathers the stock's columns in the order it draws them, and
    # derive reads and writes columns: neither builds a DwellingRecord per row
    def refuse(*args, **kwargs):
        raise AssertionError("per-row object built")

    monkeypatch.setattr(DwellingRecord, "__post_init__", refuse)
    out = workspace / "out.csv"
    code = main([arg.format(work=workspace) for arg in command] + ["--out", str(out)])
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    assert len(out.read_text(encoding="utf-8").splitlines()) > 1
    with pytest.raises(AssertionError, match="per-row object built"):
        next(iter(load_stock(workspace / "stock.csv")))


def test_retrofit_compare_flow(workspace):
    code = main([
        "retrofit-compare",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "neg",
        "--out", str(workspace / "retro"),
    ])
    assert code == EXIT_OK
    assert (workspace / "retro" / "before" / "summary.csv").exists()
    assert (workspace / "retro" / "after" / "summary.csv").exists()


def test_failed_samples_counted_by_reason(workspace, capsys):
    # 70 C is outside rc's plausible indoor range: every sample fails, and
    # the report counts them under the one reason they share
    scenario = workspace / "hot.ini"
    scenario.write_text(SCENARIO_FIXED.replace("temp = 19.0", "temp = 70.0"), encoding="utf-8")
    capsys.readouterr()
    code = main([
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(scenario),
        "--direction", "neg",
        "--out", str(workspace / "hot"),
    ])
    assert code == EXIT_OK
    samples = sum(1 for r in load_stock(workspace / "stock.csv") if not r.skippable)
    lines = capsys.readouterr().err.splitlines()
    header = re.fullmatch(r"\[heatflex\] (\d+) sample\(s\) failed, (\d+) distinct reason\(s\):",
                          lines[0])
    assert header is not None, lines[0]
    assert int(header.group(1)) == samples > 0
    counts = [re.fullmatch(r"\[heatflex\]   (\d+) x (.*)", line) for line in lines[1:]]
    assert all(counts) and len(counts) == int(header.group(2)) == 1
    assert sum(int(m.group(1)) for m in counts) == samples
    assert counts[0].group(2) == "indoor temperature 70.0 C outside plausible range [-50.0, 60.0]"


def _flex_at_70c(workspace):
    """Exit code of a flex run whose every sample starts at 70 C, outside rc's plausible range."""
    scenario_path = workspace / "hot.ini"
    scenario_path.write_text(SCENARIO_FIXED.replace("temp = 19.0", "temp = 70.0"),
                             encoding="utf-8")
    return main(["flex", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"), "--scenario", str(scenario_path),
                 "--direction", "neg", "--out", str(workspace / "hot")])


def test_failure_report_asks_rc_once_per_reason(workspace, monkeypatch, capsys):
    # every sample of the 70 C run fails for one reason: the kernel's code
    # counts them, and rc is asked for the message of that reason's first
    # sample only, not once per failed sample
    calls = []
    evaluate = scenario.evaluate
    monkeypatch.setattr(scenario, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
    capsys.readouterr()
    assert _flex_at_70c(workspace) == EXIT_OK
    assert len(capsys.readouterr().err.splitlines()) == 2
    assert len(calls) == 1


def test_benchmark_reads_the_failed_count(workspace, capsys):
    # perfbench/run.py counts failed samples with its FAILED_SAMPLES pattern
    # on the CLI's stderr; were the header to drift, the benchmark's failed
    # share would silently read 0
    pattern = _load_benchmark_runner().FAILED_SAMPLES
    capsys.readouterr()
    assert _flex_at_70c(workspace) == EXIT_OK
    samples = sum(1 for r in load_stock(workspace / "stock.csv") if not r.skippable)
    assert pattern.findall(capsys.readouterr().err) == [str(samples)]


def test_usage_errors_exit_1(workspace, capsys):
    assert main(["flex", "--bogus-flag"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    # bad winsorize bounds are a configuration problem, found before the
    # stock is read: a missing stock file would exit 3
    for bounds in ("nonsense", "0.9,0.1", "0,1.5", "nan,0.9"):
        assert main([
            "derive",
            "--stock", str(workspace / "no_such_stock.csv"),
            "--lookup", str(workspace / "stock_lookup.csv"),
            "--winsorize", bounds,
            "--out", str(workspace / "p.csv"),
        ]) == EXIT_USAGE, bounds
        assert "--winsorize" in capsys.readouterr().err
    # so are a negative synth count or seed, and an expansion below 1,
    # found before anything runs: synth writes no stock, and flex loads none
    for flag, value in (("--dwellings", "-1"), ("--seed", "-1")):
        args = {"--dwellings": "10", "--seed": "3", flag: value}
        assert main(["synth", *(t for kv in args.items() for t in kv),
                     "--out", str(workspace / "bad.csv")]) == EXIT_USAGE, flag
        assert flag in capsys.readouterr().err
        assert not (workspace / "bad.csv").exists()
    for expansion in ("0", "-3"):
        assert main(["flex", "--stock", str(workspace / "no_such_stock.csv"),
                     "--lookup", str(workspace / "stock_lookup.csv"),
                     "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                     "--expansion", expansion, "--out", str(workspace / "x"),
                     "--verbose"]) == EXIT_USAGE, expansion
        err = capsys.readouterr().err
        assert "--expansion" in err and "load stock" not in err


def test_verbose_times_every_stage(workspace, capsys):
    capsys.readouterr()
    assert main(["flex", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                 "--out", str(workspace / "timed"), "--verbose"]) == EXIT_OK
    stages = re.findall(r"^\[heatflex\] ([a-z ]+): \d+\.\d{3}s", capsys.readouterr().err, re.M)
    assert stages == ["load stock", "winsorize", "load regions", "evaluate", "aggregate",
                      "export"]


def test_verbose_stages_end_with_the_peak_rss(workspace, capsys):
    capsys.readouterr()
    assert main(["sweep", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--scenario", str(workspace / "scenario.ini"), "--direction", "neg",
                 "--axis", "outdoor", "--values", "0,5",
                 "--out", str(workspace / "peaks"), "--verbose"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().err.splitlines()
             if re.match(r"\[heatflex\] [^:]+: \d+\.\d{3}s", line)]
    peaks = [float(re.fullmatch(r".*, peak RSS (\d+\.\d) MB", line)[1]) for line in lines]
    assert len(peaks) == 9  # load, winsorize, regions, then evaluate, aggregate, export twice
    assert all(0 < a <= b for a, b in zip(peaks, peaks[1:]))


def test_verbose_derive_times_its_stages(workspace, capsys):
    capsys.readouterr()
    assert main(["derive", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--out", str(workspace / "params.csv"), "--verbose"]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    stages = [re.fullmatch(r"\[heatflex\] ([a-z ]+): \d+\.\d{3}s.*, peak RSS \d+\.\d MB",
                           line) for line in lines]
    assert all(stages), lines
    assert [m[1] for m in stages] == ["load stock", "winsorize", "load regions", "derive"]


def test_bad_scenario_exits_1(workspace):
    bad = workspace / "bad.ini"
    bad.write_text("[scenario]\noutdoor_temp = 5\nunknown_key = 1\n\n[indoor]\nmodel = fixed\n",
                   encoding="utf-8")
    code = main([
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(bad),
        "--direction", "neg",
        "--out", str(workspace / "x"),
    ])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("text, message", [
    (SCENARIO_FIXED.replace("outdoor_temp = 5.0", "outdoor_temp = 5.0\noutdoor_temp = 6.0"),
     "option 'outdoor_temp' in section 'scenario' already exists"),
    (SCENARIO_FIXED.replace("[scenario]\n", ""), "File contains no section headers"),
    (SCENARIO_FIXED.replace("[indoor]", "[indoor]\n[scenario]"),
     "section 'scenario' already exists"),
    (SCENARIO_FIXED + "a line with no key\n", "Source contains parsing errors"),
    (SCENARIO_FIXED.replace("5.0", "5%"), "'%' must be followed by '%' or '('"),
    (SCENARIO_FIXED.replace("model = fixed", "model = %(shape)s"), "Bad value substitution"),
], ids=["repeated key", "no section header", "repeated section", "unparsable line", "percent",
        "unknown reference"])
def test_unparsable_scenario_exits_1_naming_the_file(workspace, capsys, text, message):
    # configparser's own errors are configuration errors, like every other
    # fault of the scenario file, not the last-resort exit 3
    bad = workspace / "unparsable.ini"
    bad.write_text(text, encoding="utf-8")
    out = workspace / "unparsable"
    assert main(["flex", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"), "--scenario", str(bad),
                 "--direction", "neg", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"heatflex: configuration error: {bad}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, key", [
    ("outdoor_temp = 0.0", "outdoor_temp = nan", "[scenario] outdoor_temp"),
    ("seed = 42", "seed = 42\nsd = nan", "[indoor] sd"),
    ("seed = 42", "seed = 42\n\n[comfort]\nlow = nan", "[comfort] low"),
])
def test_non_finite_scenario_number_exits_1(workspace, capsys, old, new, key):
    bad = workspace / "nonfinite.ini"
    bad.write_text(SCENARIO_PDF.replace(old, new), encoding="utf-8")
    out = workspace / "nonfinite"
    code = main([
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(bad),
        "--direction", "neg",
        "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert f"{key}: expected a finite number, got 'nan'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_indoor_seed_exits_1_naming_the_seed(workspace, capsys):
    bad = workspace / "negseed.ini"
    bad.write_text(SCENARIO_PDF.replace("seed = 42", "seed = -3"), encoding="utf-8")
    out = workspace / "negseed"
    code = main([
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(bad),
        "--direction", "neg",
        "--out", str(out),
    ])
    assert code == EXIT_USAGE
    assert "indoor seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_runs_without_scipy(workspace):
    # scipy is only a test dependency: with it blocked the CLI imports, a
    # fixed-indoor and a truncated-normal flex both succeed, and the drawn
    # exports equal, byte for byte, those of the same run without the block
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    block = "import sys; sys.modules['scipy'] = None\n"

    def python(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=workspace,
                              capture_output=True, text=True, timeout=120)

    probe = python(block + "import heatflex.cli")
    assert probe.returncode == 0, probe.stderr
    (workspace / "pdf.ini").write_text(SCENARIO_PDF, encoding="utf-8")
    run_main = "import sys\nfrom heatflex.cli import main\nsys.exit(main(sys.argv[1:]))"
    runs = [("free", "", "pdf.ini"), ("blocked", block, "scenario.ini"),
            ("blocked", block, "pdf.ini")]
    for tag, prefix, scenario in runs:
        run = python(prefix + run_main, "flex", "--stock", "stock.csv", "--lookup",
                     "stock_lookup.csv", "--scenario", scenario, "--direction", "neg",
                     "--out", f"{tag}_{scenario}")
        assert run.returncode == EXIT_OK, (tag, scenario, run.stderr)
    assert (workspace / "blocked_scenario.ini" / "summary.csv").exists()
    drawn, free = workspace / "blocked_pdf.ini", workspace / "free_pdf.ini"
    assert sorted(p.name for p in drawn.iterdir()) == ["envelope.csv", "summary.csv"]
    for path in drawn.iterdir():
        assert path.read_bytes() == (free / path.name).read_bytes(), path.name


@pytest.mark.parametrize("command", [
    ["flex", "--scenario", "pdf.ini", "--direction", "neg"],
    ["sweep", "--scenario", "pdf.ini", "--direction", "neg", "--axis", "outdoor",
     "--values=0,5"],
    ["retrofit-compare", "--scenario", "pdf.ini", "--direction", "neg"],
    ["derive"],
], ids=lambda command: command[0])
def test_runs_without_openssl(workspace, command):
    # the stream keys take blake2b from CPython's _blake2, the constructor
    # hashlib.blake2b returns; importing hashlib would also load _hashlib and
    # map OpenSSL's libcrypto into the process. No command that reads a stock
    # imports either. synth does, through numpy.random's import of secrets.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    (workspace / "pdf.ini").write_text(SCENARIO_PDF, encoding="utf-8")
    command = [*command, "--stock", "stock.csv", "--lookup", "stock_lookup.csv"]
    code = ("import sys\nbefore = set(sys.modules)\nfrom heatflex.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", code, *command, "--out", "out"], env=env,
                         cwd=workspace, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, f"{EXIT_OK} []\n"), run.stderr


def test_data_errors_exit_2(workspace, tmp_path):
    broken = tmp_path / "broken.csv"
    broken.write_text("lsoa_id,form,heating,count\nE01,detached,gas_boiler,1\n",
                      encoding="utf-8")
    code = main([
        "derive",
        "--stock", str(broken),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == EXIT_DATA


def test_unresolved_lsoa_exits_2(workspace, tmp_path, capsys):
    # the message lists the unmapped LSOAs and names the stock and the lookup
    stock, lookup = workspace / "stock.csv", tmp_path / "empty_lookup.csv"
    lookup.write_text("lsoa_id,region,local_authority\n", encoding="utf-8")
    capsys.readouterr()
    code = main([
        "derive",
        "--stock", str(stock),
        "--lookup", str(lookup),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "heatflex: data error: 3 LSOA(s) have no region mapping: E01000001, E01000002, "
        f"E01000003 (stock {stock}, lookup {lookup})"]


@pytest.mark.parametrize("name", ["stock.csv", "stock_lookup.csv", "regions.csv"])
def test_stray_quote_exits_2_naming_the_file(workspace, capsys, name):
    # a quote opened in front of a data row runs its cell to the end of the
    # file; past the csv module's 131,072-character field limit the reader
    # raises csv.Error, which must exit 2 as a data error naming the file
    shutil.copyfile(default_regions_path(), workspace / "regions.csv")
    path = workspace / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = '"' + lines[2]
    lines += lines[3:] * (1 + 131_072 // len("\n".join(lines[3:])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["derive", "--stock", str(workspace / "stock.csv"),
                 "--lookup", str(workspace / "stock_lookup.csv"),
                 "--regions", str(workspace / "regions.csv"), "--out", str(workspace / "p.csv")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        f"heatflex: data error: {path}: malformed CSV: field larger than field limit (131072)"]


def test_sweep_indoor_axis(workspace):
    code = main([
        "sweep",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "neg",
        "--axis", "indoor",
        "--values", "18.5,19,20",
        "--out", str(workspace / "sweepout3"),
    ])
    assert code == EXIT_OK
    assert (workspace / "sweepout3" / "indoor=20" / "summary.csv").exists()


def test_io_failure_exits_3(workspace):
    blocker = workspace / "blocked"
    blocker.write_text("a file in the way", encoding="utf-8")
    code = main([
        "flex",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--scenario", str(workspace / "scenario.ini"),
        "--direction", "neg",
        "--out", str(blocker / "sub"),
    ])
    assert code == EXIT_RUNTIME


def test_winsorize_none_accepted(workspace):
    code = main([
        "derive",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--winsorize", "none",
        "--out", str(workspace / "raw_params.csv"),
    ])
    assert code == EXIT_OK
