"""Self-tests of the benchmark: python -m pytest bench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import fixtures
import run
from workloads import SIMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _read_all(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("make", [
    lambda seed, d: fixtures.make_dense(seed, d, 0.7),
    lambda seed, d: fixtures.make_relm(seed, d, 150, True, 0.7),
], ids=["dense", "relm"])
def test_fixture_is_a_function_of_the_seed(tmp_path, make):
    infos = []
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        os.makedirs(tmp_path / name)
        info = make(seed, str(tmp_path / name))
        info.pop("files")
        infos.append(info)
    first, again, other = (_read_all(tmp_path / n) for n in "abc")
    assert first == again
    assert infos[0] == infos[1]
    assert first != other
    # the layout is fixed, so sizes do not move with the seed
    assert infos[0]["forecast_rows"] == infos[2]["forecast_rows"]
    assert infos[0]["active_pixels"] == infos[2]["active_pixels"]


def test_fixture_labels_match_filter_catalog(tmp_path):
    from quakeresid import filter_catalog, parse_catalog, parse_forecast
    info = fixtures.make_dense(7, str(tmp_path), 0.7)
    forecast = parse_forecast(open(info["files"]["forecast_dense"]).read())
    catalog = parse_catalog(open(info["files"]["catalog_dense"]).read())
    kept = filter_catalog(catalog, forecast, fixtures.MAG_MIN,
                          fixtures.DEPTH_MAX)
    labels = info["catalogs"]["catalog_dense"]
    assert len(catalog) == labels["events_read"]
    assert len(kept) == labels["events_kept"]
    for reason, n in kept.dropped.items():
        assert n == labels[f"dropped_{reason}"]


def _ntest_invocation(tmp_path, name):
    from quakeresid.cli import main
    info = fixtures.make_dense(2, str(tmp_path), 0.7)
    out_dir = tmp_path / name
    out_dir.mkdir()
    assert main(["ntest", "--forecast", info["files"]["forecast_dense"],
                 "--catalog", info["files"]["catalog_dense"], "--analytic",
                 "--out", str(out_dir / "score.json")]) == 0
    expect = dict(info["catalogs"]["catalog_dense"],
                  active_pixels=info["active_pixels"],
                  expected_count=info["expected_count"], sims=int(SIMS))
    return {"label": "ntest --analytic", "check": "ntest_analytic",
            "dir": str(out_dir), "exit": 0, "stdout": ""}, expect


def test_corrupted_output_counts_as_failed(tmp_path):
    good, expect = _ntest_invocation(tmp_path, "good")
    bad = dict(good, dir=str(tmp_path / "bad"))
    shutil.copytree(good["dir"], bad["dir"])
    path = os.path.join(bad["dir"], "score.json")
    record = json.load(open(path))
    record["value"] = record["value"] * 0.5 + 0.25
    with open(path, "w") as fh:
        json.dump(record, fh)

    problems = run._check_invocations([good, bad], expect)
    assert good["problems"] == []
    assert bad["problems"] and "poisson.cdf" in bad["problems"][0]
    assert len(problems) == 1


def test_repeat_with_different_bytes_counts_as_failed(tmp_path):
    good, expect = _ntest_invocation(tmp_path, "good")
    repeat = dict(good, stdout="extra output\n")
    run._check_invocations([good, repeat], expect)
    assert good["problems"] == []
    assert repeat["repeat_checked"]
    assert repeat["problems"] == ["outputs differ from the command's first run"]


def test_failed_exit_counts_as_failed(tmp_path):
    good, expect = _ntest_invocation(tmp_path, "good")
    crashed = dict(good, exit=3)
    run._check_invocations([crashed], expect)
    assert crashed["problems"] == ["exit status 3"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-sims",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-sims",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile(list(range(11)))
    assert (pct, value) == (9, 0)
    pct, value = run.tail_percentile(list(range(100)))
    assert (pct, value) == (90, 89)
