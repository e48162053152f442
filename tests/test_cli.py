import json
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import quakeresid
from quakeresid.cli import main

FORECAST = """\
0 0.5 0 0.5 0 30 3.95 4.05 2.0 1
0.5 1 0 0.5 0 30 3.95 4.05 4.0 1
0 0.5 0.5 1 0 30 3.95 4.05 6.0 1
0.5 1 0.5 1 0 30 3.95 4.05 8.0 1
"""


@pytest.fixture
def workspace(tmp_path):
    fc = tmp_path / "fc.txt"
    fc.write_text(FORECAST)
    cat = tmp_path / "cat.csv"
    rc = main(["simulate", "--forecast", str(fc), "--seed", "5",
               "--out", str(cat)])
    assert rc == 0
    return tmp_path, fc, cat


def test_simulate_deterministic(workspace):
    tmp, fc, cat = workspace
    other = tmp / "cat2.csv"
    assert main(["simulate", "--forecast", str(fc), "--seed", "5",
                 "--out", str(other)]) == 0
    assert cat.read_bytes() == other.read_bytes()


def test_simulate_zero_forecast_header_only(tmp_path):
    fc = tmp_path / "zero.txt"
    fc.write_text("0 0.5 0 0.5 0 30 3.95 4.05 0.0 1\n")
    out = tmp_path / "cat.csv"
    assert main(["simulate", "--forecast", str(fc), "--out", str(out)]) == 0
    assert out.read_text() == "time,lon,lat,depth,mag\n"


def test_ntest_json_and_manifest(workspace, capsys):
    tmp, fc, cat = workspace
    out = tmp / "score.json"
    rc = main(["ntest", "--forecast", str(fc), "--catalog", str(cat),
               "--analytic", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["statistic"] == "delta"
    assert record["method"] == "analytic"
    assert 0.0 <= record["value"] <= 1.0
    assert "reject_at_5pct" in record
    manifest = json.loads((tmp / "score.json.manifest.json").read_text())
    assert manifest["command"] == "ntest"
    assert str(fc) in manifest["inputs"]


def test_ntest_simulated_deterministic(workspace, capsys):
    tmp, fc, cat = workspace
    args = ["ntest", "--forecast", str(fc), "--catalog", str(cat),
            "--sims", "200", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_ltest_runs(workspace, capsys):
    tmp, fc, cat = workspace
    rc = main(["ltest", "--forecast", str(fc), "--catalog", str(cat),
               "--sims", "100"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["statistic"] == "gamma"


def test_resid_raw_csv_and_svg(workspace):
    tmp, fc, cat = workspace
    out = tmp / "raw.csv"
    svg = tmp / "raw.svg"
    rc = main(["resid", "--forecast", str(fc), "--catalog", str(cat),
               "--kind", "raw", "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pixel_index,lon_center,lat_center,value,flag"
    assert len(lines) == 5
    xml.dom.minidom.parseString(svg.read_text())


def test_resid_deviance_identical_forecasts(workspace, capsys):
    tmp, fc, cat = workspace
    out = tmp / "dev.csv"
    rc = main(["resid", "--forecast-a", str(fc), "--forecast-b", str(fc),
               "--catalog", str(cat), "--kind", "deviance",
               "--out", str(out)])
    assert rc == 0
    footer = json.loads(capsys.readouterr().out)
    assert footer["lr_score"] == 0.0
    values = [float(ln.split(",")[3]) for ln in
              out.read_text().splitlines()[1:]]
    assert values == [0.0] * 4


def test_resid_deviance_missing_forecast_usage_error(workspace):
    tmp, fc, cat = workspace
    with pytest.raises(SystemExit) as exc:
        main(["resid", "--forecast-a", str(fc), "--catalog", str(cat),
              "--kind", "deviance"])
    assert exc.value.code == 2


def test_k_csv(workspace):
    tmp, fc, cat = workspace
    out = tmp / "k.csv"
    rc = main(["k", "--forecast", str(fc), "--catalog", str(cat),
               "--weighted", "--rmax", "0.5", "--dr", "0.05",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,k,centered_l,lower,upper,kind"
    assert len(lines) == 11
    assert lines[1].endswith(",weighted")


def test_transform_bare_k_flag_usage_error(workspace):
    tmp, fc, cat = workspace
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--forecast", str(fc), "--catalog", str(cat),
              "--kind", "superthin", "--k", "3"])
    assert exc.value.code == 2


def test_transform_superthin_with_assessment(workspace):
    tmp, fc, cat = workspace
    out = tmp / "st.csv"
    svg = tmp / "st.svg"
    rc = main(["transform", "--forecast", str(fc), "--catalog", str(cat),
               "--kind", "superthin", "--assess", "--sims", "20",
               "--rmax", "0.4", "--dr", "0.1",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    assert out.read_text().startswith("x,y,label,transform,seed")
    assess = (tmp / "st_assess.csv").read_text()
    assert assess.startswith("r,k,centered_l,lower,upper,kind")
    xml.dom.minidom.parseString(svg.read_text())
    xml.dom.minidom.parseString((tmp / "st_assess.svg").read_text())


def test_transform_rescale_region_csv(workspace):
    tmp, fc, cat = workspace
    out = tmp / "rs.csv"
    rc = main(["transform", "--forecast", str(fc), "--catalog", str(cat),
               "--kind", "rescale", "--out", str(out)])
    assert rc == 0
    region = (tmp / "rs_region.csv").read_text()
    assert region.startswith("band_lo,band_hi,interval_length")
    total = float(region.splitlines()[-1].split(",")[1])
    assert total == pytest.approx(20.0)   # forecast total rate


def test_missing_file_exit_code(workspace):
    tmp, fc, cat = workspace
    rc = main(["ntest", "--forecast", str(tmp / "nope.txt"),
               "--catalog", str(cat), "--analytic"])
    assert rc == 3


def test_validation_error_exit_code(tmp_path):
    fc = tmp_path / "fc.txt"
    fc.write_text("0 0.5 0 0.5 0 30 3.95 4.05 2.0 1\n")
    cat = tmp_path / "one.csv"
    cat.write_text("time,lon,lat,depth,mag\n"
                   "2006-01-01T00:00:00Z,0.25,0.25,5,4.0\n")
    rc = main(["k", "--forecast", str(fc), "--catalog", str(cat)])
    assert rc == 3     # fewer than two events


def test_non_finite_forecast_edge_exit_code(tmp_path, capsys):
    fc = tmp_path / "fc.txt"
    fc.write_text("# edges\n-120 nan 30 31 0 30 4.95 5.05 1.0 1\n")
    cat = tmp_path / "empty.csv"
    cat.write_text("time,lon,lat,depth,mag\n")
    rc = main(["ntest", "--forecast", str(fc), "--catalog", str(cat),
               "--analytic"])
    assert rc == 3
    assert "line 2: pixel edges must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["ntest", "--sims", "10"], ["ltest", "--sims", "10"], ["simulate"]])
def test_huge_finite_rate_exit_code(tmp_path, command):
    # a mean past the Poisson sampler's cap is a validation error, not an
    # integer overflow
    fc = tmp_path / "fc.txt"
    fc.write_text("0 0.5 0 0.5 0 30 3.95 4.05 1e30 1\n")
    cat = tmp_path / "empty.csv"
    cat.write_text("time,lon,lat,depth,mag\n")
    args = command + ["--forecast", str(fc)]
    if command[0] != "simulate":
        args += ["--catalog", str(cat)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "quakeresid.cli", *args, "--out",
         str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "largest supported mean 1e+12" in out.stderr


@pytest.mark.parametrize("command", [
    ["simulate"], ["transform", "--kind", "superpose"]])
def test_points_beyond_memory_exit_code(tmp_path, command):
    # means under the Poisson cap whose points would not fit: run in a child
    # whose address space is capped at 1 GiB, so placing them would fail
    fc = tmp_path / "fc.txt"
    fc.write_text("0 0.5 0 0.5 0 30 3.95 4.05 1e11 1\n"
                  "0.5 1 0 0.5 0 30 3.95 4.05 1.0 1\n")
    cat = tmp_path / "empty.csv"
    cat.write_text("time,lon,lat,depth,mag\n")
    args = command + ["--forecast", str(fc), "--out", str(tmp_path / "out")]
    if command[0] != "simulate":
        args += ["--catalog", str(cat)]
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quakeresid.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "simulated points, above the supported 1e+07" in out.stderr


def test_report_directory(workspace):
    tmp, fc, cat = workspace
    outdir = tmp / "report"
    rc = main(["report", "--forecast", str(fc), "--catalog", str(cat),
               "--sims", "50", "--rmax", "0.4", "--dr", "0.1",
               "--out", str(outdir)])
    assert rc == 0
    names = {p.name for p in outdir.iterdir()}
    assert {"scores.json", "residuals_raw.csv", "residuals_pearson.csv",
            "superthin.csv", "manifest.json"} <= names
    scores = json.loads((outdir / "scores.json").read_text())
    assert "ntest" in scores and "ltest" in scores
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["version"]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs about a second of start-up in every command;
    # scipy.spatial (the pair search) loads only in commands that use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import quakeresid.cli, sys; "
         "print([m in sys.modules for m in ('scipy.stats', 'scipy.spatial')])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_the_toolkit_version():
    # pyproject.toml takes its version from TOOLKIT_VERSION, the string
    # every manifest records
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = pyproject.read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == quakeresid.TOOLKIT_VERSION
