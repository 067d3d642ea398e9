"""Command line flows and exit-code contract."""

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

from heatflex import load_stock
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


def _export_digests(runner) -> dict[str, dict[str, str]]:
    """Run each benchmark command line on a 2,000-dwelling synth stock in the
    working directory; return the SHA-256 of every exported file, by run and path."""
    assert main(["synth", "--dwellings", "2000", "--seed", "3", "--out", "stock.csv",
                 "--lookup-out", "lookup.csv"]) == EXIT_OK
    digests = {}
    for name, scenario_text, argv in _benchmark_runs(runner):
        Path("scenario.ini").write_text(scenario_text, encoding="utf-8")
        assert main(argv) == EXIT_OK, name
        digests[name] = {
            path.relative_to("out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("out").rglob("*")) if path.is_file()
        }
        shutil.rmtree("out")
    return digests


# SHA-256 of every file the benchmark command lines export on the small
# stock, recorded with the object-per-sample evaluation that preceded the
# columnar core. A change that alters any exported byte fails here.
GOLDEN_EXPORTS = {
    "flex_lsoa_fixed": {
        "envelope.csv":
            "786657ee476effa88300df3d779c8cd049a82b3eb969c3753e884c49bc3740b9",
        "summary.csv":
            "d6846fd5d1464cabeed58cddc3704f8569a110c415e204a89a7758e5d75f641a",
    },
    "flex_national_stochastic": {
        "report.json":
            "1de948617d352dba94fdb806b23e44108b438136c792331bc1d0bb800a89f969",
    },
    "retrofit_compare": {
        "after/envelope.csv":
            "240708c305b3f6b29ddb0a7f13864459f837beac5b7f637df884b33b4773b6dc",
        "after/summary.csv":
            "3490a2a8dfcaf56b3d3254aa14f849e2e338d4c0647afcc6c79f09a8fb308f82",
        "before/envelope.csv":
            "786657ee476effa88300df3d779c8cd049a82b3eb969c3753e884c49bc3740b9",
        "before/summary.csv":
            "d6846fd5d1464cabeed58cddc3704f8569a110c415e204a89a7758e5d75f641a",
    },
    "sweep_capacity": {
        "capacity=medium+10/report.json":
            "4dd219cc8b0ff1589fbeef91215c056654f14f91cd76e4bc24e02b890bc6d56b",
        "capacity=medium-10/report.json":
            "56758d864e36770c045a74d51c91f02aeeaece96bcd45e31a90237093625351f",
        "capacity=medium/report.json":
            "1de948617d352dba94fdb806b23e44108b438136c792331bc1d0bb800a89f969",
    },
    "sweep_outdoor": {
        "outdoor=-2/envelope.csv":
            "36e24f17a8b9dd5905ff7dda1006338ed82354deb2b0fa615255a8d17bd6d29d",
        "outdoor=-2/summary.csv":
            "1578a05151d99b941569eafefc0fd350a0ca5694aa6d365f68d437e86465b1e5",
        "outdoor=-4/envelope.csv":
            "675decf356eb58925371af3254153e813d1a20a3ac6075f28a319b633c0767c4",
        "outdoor=-4/summary.csv":
            "f97083bc9560837d34a8af6a19a619c59097df81613deb0cc5ebacd78f0be19d",
        "outdoor=0/envelope.csv":
            "cdd32af0ea66e257cf400b63c5c2c65cb5f122fc8512515b00ce9de1a82759bb",
        "outdoor=0/summary.csv":
            "85631812810bfa4e6e0704bc6026968678cf9c63f1a2356fb77bc43f17f49854",
        "outdoor=10/envelope.csv":
            "1f6d1ff9505f0911e339b7686137d5afd80cea1d4be73c4a1597368dc28e4a58",
        "outdoor=10/summary.csv":
            "e66c088e5faa8545a1e7e6a2884d6e6c03dd80a12b9f2f743b5be72dc62f7c58",
        "outdoor=2/envelope.csv":
            "9633514c7fb264f22cd21007c521abdb1112c4b9c2d7cc8bb9413d3f5687e3b3",
        "outdoor=2/summary.csv":
            "59662ba7218ef623307df66bdbdb1c2c813ff1d580bf809afc39310a7ab24166",
        "outdoor=4/envelope.csv":
            "c9272cd9098c9cbb8e1fcd711e430e5bd2fd1bbe691430f12159a65f83d29886",
        "outdoor=4/summary.csv":
            "72f7ee85131b08029ed9470a42e43e284757ff2b198fcfcc8796c478989432b0",
        "outdoor=6/envelope.csv":
            "a63677f890b6a7307b9babcbd044fd003eb4a02c20d5b0b7af98a1fde820aaa6",
        "outdoor=6/summary.csv":
            "4be57baf2c0c26f9963b36e6a104b04d15bb3d52dde5172df9dda017fe9f9c40",
        "outdoor=8/envelope.csv":
            "d85a550315728a316dc858edbe234fc70ff33e2186862f45b937ee5e8bc1c6c2",
        "outdoor=8/summary.csv":
            "717cf703c2e3a9dadb3616777612c8310799f79eaac17678c328330782c1d15a",
    },
}


def test_benchmark_argv_contract(tmp_path, monkeypatch):
    # the benchmark runs these exact command lines (hidden --workers flag,
    # '--values=-4,...'); they must keep working on a small stock and keep
    # exporting the same bytes
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
