"""Command line flows and exit-code contract."""

import importlib.util
import shutil
from pathlib import Path

import pytest

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


def test_benchmark_argv_contract(tmp_path, monkeypatch):
    # the benchmark runs these exact command lines (hidden --workers flag,
    # '--values=-4,...'); they must keep working on a small stock
    runner = _load_benchmark_runner()
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--dwellings", "2000", "--seed", "3", "--out", "stock.csv",
                 "--lookup-out", "lookup.csv"]) == EXIT_OK
    for workload in runner.WORKLOADS.values():
        Path("scenario.ini").write_text(workload.scenario_ini(seed=1), encoding="utf-8")
        assert main(workload.argv()) == EXIT_OK, workload.name
        shutil.rmtree("out")


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


def test_usage_errors_exit_1(workspace, capsys):
    assert main(["flex", "--bogus-flag"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    # bad winsorize bounds are a configuration problem
    assert main([
        "derive",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(workspace / "stock_lookup.csv"),
        "--winsorize", "nonsense",
        "--out", str(workspace / "p.csv"),
    ]) == EXIT_USAGE
    capsys.readouterr()


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


def test_unresolved_lsoa_exits_2(workspace, tmp_path):
    lookup = tmp_path / "empty_lookup.csv"
    lookup.write_text("lsoa_id,region,local_authority\n", encoding="utf-8")
    code = main([
        "derive",
        "--stock", str(workspace / "stock.csv"),
        "--lookup", str(lookup),
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == EXIT_DATA


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
