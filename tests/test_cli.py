import ast
import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import quakeresid
from quakeresid import cli, secondorder
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


def test_manifest_digests_the_bytes_parsed(workspace, monkeypatch):
    tmp, fc, cat = workspace
    parsed = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (fc, cat)}
    filter_catalog = cli.filter_catalog

    def replace_inputs_then_filter(*args, **kwargs):
        fc.write_text(FORECAST.replace("2.0", "3.0"))
        cat.write_text("time,lon,lat,depth,mag\n")
        return filter_catalog(*args, **kwargs)

    monkeypatch.setattr(cli, "filter_catalog", replace_inputs_then_filter)
    assert main(["ntest", "--forecast", str(fc), "--catalog", str(cat),
                 "--analytic", "--out", str(tmp / "score.json")]) == 0
    record = json.loads((tmp / "score.json.manifest.json").read_text())
    assert record["inputs"] == parsed
    assert hashlib.sha256(fc.read_bytes()).hexdigest() != parsed[str(fc)]


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


def test_weighted_k_with_zero_infimum_exits_3(tmp_path, capsys):
    # the events miss the zero-rate pixel; the weighted K would still be 0
    # at every radius
    (tmp_path / "fc.txt").write_text(FORECAST.replace("4.05 2.0", "4.05 0.0"))
    (tmp_path / "cat.csv").write_text("time,lon,lat,depth,mag\n"
                                      "2007-01-01T00:00:00Z,0.7,0.2,5,4.0\n"
                                      "2007-02-01T00:00:00Z,0.8,0.7,5,4.0\n"
                                      "2007-03-01T00:00:00Z,0.2,0.8,5,4.0\n")
    before = sorted(os.listdir(tmp_path))
    rc = main(["k", "--weighted", "--forecast", str(tmp_path / "fc.txt"),
               "--catalog", str(tmp_path / "cat.csv"),
               "--out", str(tmp_path / "k.csv"),
               "--svg", str(tmp_path / "k.svg")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "infimum is zero" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_weighted_k_with_subnormal_rate_exits_3(tmp_path, capsys):
    # a bin rate of 1e-320 gives the events in its pixel the weight
    # 1 / rate = inf, which would put inf in the K rows
    (tmp_path / "fc.txt").write_text(
        FORECAST.replace("4.05 2.0", "4.05 1e-320"))
    (tmp_path / "cat.csv").write_text("time,lon,lat,depth,mag\n"
                                      "2007-01-01T00:00:00Z,0.2,0.2,5,4.0\n"
                                      "2007-02-01T00:00:00Z,0.3,0.3,5,4.0\n"
                                      "2007-03-01T00:00:00Z,0.8,0.7,5,4.0\n")
    before = sorted(os.listdir(tmp_path))
    rc = main(["k", "--weighted", "--forecast", str(tmp_path / "fc.txt"),
               "--catalog", str(tmp_path / "cat.csv"),
               "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "point at index 0 (lon 0.2, lat 0.2) has null rate" in err
    assert "whose weight 1/rate is not finite" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_weighted_k_with_overflowing_pair_weights_exits_3(tmp_path, capsys):
    # a bin rate of 1e-160 gives finite weights 1 / rate, but two events in
    # its pixel have the pair weight 1 / rate^2 = inf
    (tmp_path / "fc.txt").write_text(
        FORECAST.replace("4.05 2.0", "4.05 1e-160"))
    (tmp_path / "cat.csv").write_text("time,lon,lat,depth,mag\n"
                                      "2007-01-01T00:00:00Z,0.2,0.2,5,4.0\n"
                                      "2007-02-01T00:00:00Z,0.3,0.3,5,4.0\n")
    before = sorted(os.listdir(tmp_path))
    rc = main(["k", "--weighted", "--forecast", str(tmp_path / "fc.txt"),
               "--catalog", str(tmp_path / "cat.csv"),
               "--out", str(tmp_path / "k.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "weighted K is not finite" in err
    assert "overflow at null rate 4e-160" in err
    assert sorted(os.listdir(tmp_path)) == before


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


def _run_cli(args, tmp_path, code=None):
    """Run the CLI in a fresh interpreter, from this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    command = ["-m", "quakeresid.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *args], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("bad", ["forecast", "catalog"])
def test_non_utf8_input_exit_code(tmp_path, capsys, bad):
    fc = tmp_path / "fc.txt"
    fc.write_bytes(FORECAST.encode() + (b"# \xff\n" if bad == "forecast"
                                        else b""))
    cat = tmp_path / "cat.csv"
    cat.write_bytes(b"time,lon,lat,depth,mag\n" + (b"# \xff\n" if bad ==
                                                  "catalog" else b""))
    line = 5 if bad == "forecast" else 2
    args = ["ntest", "--forecast", str(fc), "--catalog", str(cat),
            "--analytic"]
    assert main(args) == 3
    assert capsys.readouterr().err == \
        f"error: line {line}: not valid UTF-8 text\n"
    out = _run_cli(args, tmp_path)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert f"line {line}: not valid UTF-8 text" in out.stderr


def test_oversized_catalog_field_exit_code(tmp_path, capsys):
    fc = tmp_path / "fc.txt"
    fc.write_text(FORECAST)
    cat = tmp_path / "cat.csv"
    cat.write_text("time,lon,lat,depth,mag\n"
                   f"2006-01-01T00:00:00Z,{'1' * 200_000},0.25,5,4\n")
    args = ["ntest", "--forecast", str(fc), "--catalog", str(cat),
            "--analytic"]
    message = "line 2: field larger than field limit (131072)"
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    out = _run_cli(args, tmp_path)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert message in out.stderr


def _relm_like_forecast(n_x, n_y, n_mag):
    """Rows of an n_x by n_y grid of 0.1-degree pixels with n_mag bins,
    written as RELM forecasts are (about 54 bytes a row)."""
    rates = np.random.default_rng(3).lognormal(-9.0, 1.0, n_x * n_y * n_mag)
    lines, k = ["# generated RELM-like forecast"], 0
    for iy in range(n_y):
        for ix in range(n_x):
            head = "%.1f %.1f %.1f %.1f 0 30 " % (
                -125 + ix / 10, -125 + (ix + 1) / 10, 32 + iy / 10,
                32 + (iy + 1) / 10)
            for m in range(n_mag):
                lines.append(head + "%.2f %.2f %.6e 1" % (
                    4.95 + m / 10, 5.05 + m / 10, rates[k]))
                k += 1
    return "\n".join(lines) + "\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs VmHWM from /proc/self/status")
def test_forecast_parse_peak_memory_follows_the_file(tmp_path):
    # A child's VmHWM, read after importing the CLI and again after one
    # command, bounds what that command added to the peak.  Parsing needs
    # the file's bytes, the (n, 10) row array and the kept columns: about
    # 4.7 times the file here.  A whole-file str plus a UCS-4 copy for
    # np.loadtxt took 7.9 times.
    fc = tmp_path / "fc.txt"
    fc.write_text(_relm_like_forecast(75, 50, 40))     # 150,000 rows
    cat = tmp_path / "cat.csv"
    cat.write_text("time,lon,lat,depth,mag\n"
                   "2006-06-01T00:00:00Z,-124.95,32.05,5,5.0\n")
    code = ("import sys\n"
            "def hwm_kb():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            "from quakeresid.cli import main\n"
            "before = hwm_kb()\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, hwm_kb() - before)\n")
    out = _run_cli(["resid", "--kind", "pearson", "--forecast", str(fc),
                    "--catalog", str(cat), "--out", str(tmp_path / "r.csv")],
                   tmp_path, code)
    assert out.returncode == 0, out.stderr
    rc, added_kb = map(int, out.stdout.split())
    assert rc == 0
    assert added_kb * 1024 < 6 * fc.stat().st_size, added_kb


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
    out = _run_cli(args + ["--out", str(tmp_path / "out")], tmp_path)
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
    out = _run_cli(args, tmp_path, code)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "simulated points, above the supported 1e+07" in out.stderr


def test_envelope_beyond_memory_exit_code(workspace):
    # an envelope of 1e11 replicates would need 50.9 TiB: run in a child
    # whose address space is capped at 1 GiB, so allocating it would fail;
    # the envelope's size check stops it before anything is simulated, and
    # a failed command writes no output
    tmp, fc, cat = workspace
    before = sorted(os.listdir(tmp))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quakeresid.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = _run_cli(["transform", "--kind", "rescale", "--assess", "--sims",
                    "100000000000", "--forecast", str(fc), "--catalog",
                    str(cat), "--out", str(tmp / "rs.csv")], tmp, code)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "100000000000 simulations at 70 radii are above the supported " \
        "10000000 envelope values" in out.stderr
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("sims", ["1", "0"])
def test_envelope_of_fewer_than_two_sims_exit_code(workspace, capsys, sims):
    tmp, fc, cat = workspace
    before = sorted(os.listdir(tmp))
    rc = main(["transform", "--kind", "rescale", "--assess", "--sims", sims,
               "--forecast", str(fc), "--catalog", str(cat),
               "--out", str(tmp / "rs.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "envelope needs at least two simulations" in err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("axis", ["horizontal", "vertical"])
def test_sparse_rescaled_region_assessed_in_bounded_memory(tmp_path, axis):
    # two pixels 350 degrees apart across the stretched axis: the rescaled
    # region fills 0.057% of its bounding box, where drawing candidates from
    # the box would take 13 GiB for its 1e6 expected points; placing each
    # point in its cell fits the child's address space, capped at 1 GiB
    far = ["0 0.1 349.9 350", "349.9 350 0 0.1"][axis == "vertical"]
    fc = tmp_path / "fc.txt"
    fc.write_text(f"0 0.1 0 0.1 0 30 3.95 4.05 5e5 1\n"
                  f"{far} 0 30 3.95 4.05 5e5 1\n")
    cat = tmp_path / "cat.csv"
    x0, y0 = map(float, far.split()[::2])
    cat.write_text("time,lon,lat,depth,mag\n" + "".join(
        f"2007-0{i + 1}-01T00:00:00Z,{x:.2f},{y:.2f},5,4.0\n" for i, (x, y) in
        enumerate([(0.05, 0.05)] * 3 + [(x0 + 0.05, y0 + 0.05)] * 3)))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quakeresid.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = _run_cli(["transform", "--kind", "rescale", "--axis", axis,
                    "--assess", "--sims", "2", "--rmax", "0.1", "--dr",
                    "0.05", "--forecast", str(fc), "--catalog", str(cat),
                    "--out", str(tmp_path / "rs.csv")], tmp_path, code)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert sorted(os.listdir(tmp_path)) == [
        "cat.csv", "fc.txt", "rs.csv", "rs.csv.manifest.json",
        "rs_assess.csv", "rs_region.csv"]
    assert len((tmp_path / "rs_assess.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("assess", [[], ["--assess", "--sims", "19"]])
def test_overflowing_rescale_exit_code(tmp_path, capsys, assess):
    # each pixel's rate is finite, but the integral along the row is not
    fc = tmp_path / "fc.txt"
    fc.write_text("0 1 0 1 0 30 3.95 4.05 1e308 1\n"
                  "1 2 0 1 0 30 3.95 4.05 1e308 1\n")
    cat = tmp_path / "cat.csv"
    cat.write_text("time,lon,lat,depth,mag\n"
                   "2007-01-01T00:00:00Z,0.5,0.5,5,4.0\n")
    args = ["transform", "--kind", "rescale", *assess, "--forecast", str(fc),
            "--catalog", str(cat), "--out", str(tmp_path / "rs.csv")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "model rate integrates to inf" in err
    assert not (tmp_path / "rs.csv").exists()
    out = _run_cli(args, tmp_path)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "model rate integrates to inf" in out.stderr


@pytest.mark.parametrize("command, message", [
    (["ntest", "--analytic"], "expected count is not finite"),
    (["k", "--weighted"], "expected count is not finite"),
    (["ltest", "--sims", "10"], "expected total count inf is above"),
    (["transform", "--kind", "superthin"], "expected count is not finite"),
])
def test_overflowing_expected_count_exit_code(tmp_path, command, message):
    # each pixel's rate is finite, but their sum is not; numpy's overflow
    # warning must not reach stderr either
    (tmp_path / "fc.txt").write_text("0 1 0 1 0 30 3.95 4.05 1e308 1\n"
                                     "1 2 0 1 0 30 3.95 4.05 1e308 1\n")
    (tmp_path / "cat.csv").write_text("time,lon,lat,depth,mag\n"
                                      "2007-01-01T00:00:00Z,0.5,0.5,5,4.0\n"
                                      "2007-02-01T00:00:00Z,1.5,0.5,5,4.0\n")
    before = sorted(os.listdir(tmp_path))
    out = _run_cli(command + ["--forecast", "fc.txt", "--catalog", "cat.csv",
                              "--out", "out"], tmp_path)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert message in out.stderr
    assert sorted(os.listdir(tmp_path)) == before


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


def test_report_into_an_earlier_report_keeps_no_stale_file(workspace):
    # one event has no weighted K: the first run's weighted_k files go, a
    # file under another name stays
    tmp, fc, cat = workspace
    one = tmp / "one.csv"
    one.write_text("".join(cat.read_text().splitlines(True)[:2]))
    reused, fresh = tmp / "reused", tmp / "fresh"
    flags = ["--forecast", str(fc), "--sims", "20", "--rmax", "0.4", "--dr",
             "0.1"]
    assert main(["report", *flags, "--catalog", str(cat),
                 "--out", str(reused)]) == 0
    assert (reused / "weighted_k.csv").exists()
    (reused / "notes.txt").write_text("kept\n")
    for out in (reused, fresh):
        assert main(["report", *flags, "--catalog", str(one),
                     "--out", str(out)]) == 0
    assert sorted(os.listdir(reused)) == sorted(os.listdir(fresh) +
                                                ["notes.txt"])
    assert "weighted_k.csv" not in os.listdir(fresh)
    assert (reused / "notes.txt").read_text() == "kept\n"
    assert json.loads((reused / "scores.json").read_text())[
        "observed_count"] == 1


def _scipy_modules_after(commands):
    """The scipy modules loaded after importing the CLI and after each
    command, run in order in one fresh interpreter."""
    code = ("import json, sys\n"
            "import quakeresid, quakeresid.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "seen = {'import': scipy_modules()}\n"
            "for name, argv in json.loads(sys.argv[1]).items():\n"
            "    assert quakeresid.cli.main(argv) == 0, name\n"
            "    seen[name] = scipy_modules()\n"
            "print(json.dumps(seen))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_leaves_scipy_stats_unloaded(workspace):
    # scipy.special alone costs about 0.3 s of start-up, and no command
    # loads scipy: the analytic N-test takes its Poisson CDF from math and
    # numpy, the analytic K bands take the normal quantile from the
    # standard library and the pair search is numpy.  A module stays
    # loaded once imported, so seen[name] holds what that command and
    # every one before it loaded.
    tmp, fc, cat = workspace
    files = ["--forecast", str(fc), "--catalog", str(cat)]
    seen = _scipy_modules_after({
        "resid": ["resid", *files, "--kind", "pearson",
                  "--svg", str(tmp / "r.svg"), "--out", str(tmp / "r.csv")],
        "ltest": ["ltest", *files, "--sims", "50",
                  "--out", str(tmp / "l.json")],
        "k": ["k", *files, "--weighted", "--edge", "isotropic",
              "--out", str(tmp / "k.csv")],
        "transform": ["transform", *files, "--kind", "superthin", "--assess",
                      "--edge", "isotropic", "--out", str(tmp / "t.csv")],
        "report": ["report", *files, "--sims", "20", "--edge", "isotropic",
                   "--out", str(tmp / "rep")],
        "ntest": ["ntest", *files, "--analytic",
                  "--out", str(tmp / "n.json")],
    })
    for name, modules in seen.items():
        assert modules == [], name


def test_package_imports_only_the_standard_library_and_numpy():
    # every import statement at any depth, since a lazy import inside a
    # function passes every other test on a machine that has the module
    pkg = pathlib.Path(quakeresid.__file__).parent
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert foreign == []


def test_only_secondorder_computes_a_k_band():
    # k_with_bands is the one place that chooses and computes a K band, so
    # a change to the band is made there alone
    pkg = pathlib.Path(quakeresid.__file__).parent
    callers = []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("wk_confidence_bands", "envelope_bands"):
                    callers.append(f"{path.name}:{node.lineno}: {name}")
    assert callers and all(c.startswith("secondorder.py:") for c in callers)


def test_one_timestamp_codec():
    # catalogs is the one module that writes or reads a timestamp, so the
    # bulk pass and the row reader cannot drift from another codec, and
    # simulated times are built in bulk, not one timedelta at a time
    pkg = pathlib.Path(quakeresid.__file__).parent
    callers, simulate_imports = [], []
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("strftime", "fromisoformat", "datetime_as_string"):
                    callers.append(f"{path.name}:{node.lineno}: {name}")
            elif path.name == "simulate.py" and isinstance(
                    node, (ast.Import, ast.ImportFrom)):
                simulate_imports += [alias.name for alias in node.names]
    assert callers and all(c.startswith("catalogs.py:") for c in callers)
    assert "timedelta" not in simulate_imports


def test_one_edge_correction_routine():
    # circle_fraction_mask is the one edge-correction routine: only it calls
    # the rectangle arithmetic, and only secondorder calls it, so its
    # interior filter cannot grow into a second path
    pkg = pathlib.Path(quakeresid.__file__).parent
    callers = {"circle_fraction_rect": set(), "circle_fraction_mask": set()}
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in callers:
                scope = node
                while scope in parent and not isinstance(
                        scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = parent[scope]
                callers[name].add(f"{path.name}:{getattr(scope, 'name', '')}")
    assert callers["circle_fraction_rect"] == {
        "secondorder.py:circle_fraction_mask"}
    assert callers["circle_fraction_mask"] and all(
        c.startswith("secondorder.py:")
        for c in callers["circle_fraction_mask"])


def test_one_replicate_scorer_and_stream_addressing():
    # the simulated quantile tests score replicates through one function,
    # and only three loops derive replicate substreams, so no statistic
    # invents its own replicate loop or stream addressing
    pkg = pathlib.Path(quakeresid.__file__).parent
    callers = {"replicate_counts": set(), "substream": set()}
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in callers:
                scope = node
                while scope in parent and not isinstance(
                        scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = parent[scope]
                callers[name].add(f"{path.name}:{getattr(scope, 'name', '')}")
    assert callers == {
        "replicate_counts": {"consistency.py:_simulated_score"},
        "substream": {"simulate.py:replicate_counts",
                      "secondorder.py:envelope_bands",
                      "transforms.py:super_thin"}}


def test_ptrs_draws_leave_scipy_special_unloaded(tmp_path):
    # every pixel mean is at least 10, so every Poisson draw of these
    # commands is PTRS, which needs no scipy
    fc = tmp_path / "dense.txt"
    fc.write_text("0 0.5 0 0.5 0 30 3.95 4.05 12.0 1\n"
                  "0.5 1 0 0.5 0 30 3.95 4.05 25.0 1\n"
                  "0 0.5 0.5 1 0 30 3.95 4.05 40.0 1\n"
                  "0.5 1 0.5 1 0 30 3.95 4.05 15.0 1\n")
    cat = tmp_path / "cat.csv"
    files = ["--forecast", str(fc), "--catalog", str(cat)]
    seen = _scipy_modules_after({
        "simulate": ["simulate", "--forecast", str(fc), "--seed", "3",
                     "--out", str(cat)],
        "ntest": ["ntest", *files, "--sims", "200",
                  "--out", str(tmp_path / "n.json")],
        "ltest": ["ltest", *files, "--sims", "200",
                  "--out", str(tmp_path / "l.json")],
        "transform": ["transform", *files, "--kind", "rescale", "--assess",
                      "--sims", "5", "--out", str(tmp_path / "t.csv")],
    })
    for name, modules in seen.items():
        assert not [m for m in modules if m == "scipy.special"
                    or m.startswith("scipy.special.")], name


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_is_the_toolkit_version():
    # pyproject.toml takes its version from TOOLKIT_VERSION, the string
    # every manifest records
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = pyproject.read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == quakeresid.TOOLKIT_VERSION


@pytest.mark.parametrize("command", [
    ["k"], ["transform", "--kind", "superthin", "--assess"], ["report"]])
@pytest.mark.parametrize("flags", [
    ["--rmax", "nan"], ["--rmax", "inf"], ["--dr", "nan"], ["--dr", "0"],
    ["--dr", "-0.1"], ["--rmax", "1e300", "--dr", "1e-300"]])
def test_non_finite_radius_flags_exit_code(workspace, capsys, command, flags):
    tmp, fc, cat = workspace
    rc = main([*command, "--forecast", str(fc), "--catalog", str(cat),
               *flags, "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "rmax" in err


@pytest.mark.parametrize("command", [
    ["k"], ["transform", "--kind", "superthin", "--assess"], ["report"]])
def test_radius_count_cap_exit_code(workspace, capsys, monkeypatch, command):
    # the cap is checked before the radii are allocated; a cap of 5 makes
    # six radii a request above it, so the test allocates nothing large
    monkeypatch.setattr(secondorder, "MAX_RADII", 5)
    tmp, fc, cat = workspace
    rc = main([*command, "--forecast", str(fc), "--catalog", str(cat),
               "--rmax", "0.6", "--dr", "0.1", "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "asks for 6 radii, above the supported 5" in err


@pytest.mark.parametrize("command", [
    ["transform", "--kind", "superthin"], ["report", "--sims", "10"]])
@pytest.mark.parametrize("k_rate", ["nan", "inf", "-inf", "0", "-1"])
def test_non_finite_k_rate_exit_code(workspace, capsys, command, k_rate):
    # the rate is checked before any output file or directory is made
    tmp, fc, cat = workspace
    before = sorted(os.listdir(tmp))
    rc = main([*command, "--forecast", str(fc), "--catalog", str(cat),
               f"--k-rate={k_rate}", "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "k_rate must be finite and positive" in err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("assess", [[], ["--assess"]])
@pytest.mark.parametrize("k_count", ["nan", "inf", "-inf", "0", "-1"])
def test_non_finite_k_count_exit_code(workspace, capsys, assess, k_count):
    # checked as --k-rate is, before any input is read or output made
    tmp, fc, cat = workspace
    before = sorted(os.listdir(tmp))
    rc = main(["transform", "--forecast", str(fc), "--catalog", str(cat),
               "--kind", "thin-approx", *assess, f"--k-count={k_count}",
               "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "k_count must be finite and positive" in err
    assert sorted(os.listdir(tmp)) == before


def test_thin_approx_without_k_count_fails_before_reading(tmp_path, capsys):
    # the usage error comes first: the missing inputs are never opened
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--forecast", str(tmp_path / "missing.txt"),
              "--catalog", str(tmp_path / "missing.csv"),
              "--kind", "thin-approx"])
    assert exc.value.code == 2
    assert "--kind thin-approx requires --k-count" in capsys.readouterr().err


def test_every_subcommand_has_a_runner():
    import argparse
    parser = cli.build_parser()
    subs, = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subs.choices.items():
        assert sub.get_default("run") is getattr(cli, "cmd_" + name), name


_COMMANDS = {"ntest": ["ntest", "--analytic"], "k": ["k"],
             "transform": ["transform", "--kind", "superthin"],
             "simulate": ["simulate"], "report": ["report"]}


@pytest.mark.parametrize("command, flag, message", [
    (command, flag, message)
    for flag, message in [
        ("--mag-min=nan", "--mag-min must be a number"),
        ("--depth-max=nan", "--depth-max must be a number"),
        ("--window-fraction=0", "--window-fraction must be in (0, 1]"),
        ("--window-fraction=1.5", "--window-fraction must be in (0, 1]"),
        ("--window-fraction=nan", "--window-fraction must be in (0, 1]")]
    for command in _COMMANDS
    if not (command == "simulate" and flag.startswith("--depth-max"))])
def test_bad_selection_flags_fail_before_reading(tmp_path, capsys, command,
                                                 flag, message):
    # the inputs do not exist: the flag is rejected before either is opened
    rc = main([*_COMMANDS[command], "--forecast", str(tmp_path / "fc.txt"),
               *(["--catalog", str(tmp_path / "cat.csv")]
                 if command != "simulate" else []),
               flag, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert message in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flag", ["--mag-min=-inf", "--mag-min=inf",
                                  "--depth-max=-inf", "--depth-max=inf"])
def test_infinite_selection_flags_stay_valid(workspace, capsys, flag):
    tmp, fc, cat = workspace
    assert main(["ntest", "--analytic", "--forecast", str(fc),
                 "--catalog", str(cat), flag]) == 0
    record = json.loads(capsys.readouterr().out)
    kept = flag in ("--mag-min=-inf", "--depth-max=inf")
    assert (record["observed_stat"] > 0) == kept


@pytest.mark.parametrize("command", [["ntest"], ["ltest"], ["report"]])
def test_zero_sims_fail_before_reading(tmp_path, capsys, command):
    rc = main([*command, "--forecast", str(tmp_path / "fc.txt"),
               "--catalog", str(tmp_path / "cat.csv"), "--sims", "0",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "--sims must be at least 1" in err
    assert os.listdir(tmp_path) == []


def test_analytic_ntest_ignores_sims(workspace):
    tmp, fc, cat = workspace
    assert main(["ntest", "--analytic", "--sims", "0", "--forecast", str(fc),
                 "--catalog", str(cat), "--out", str(tmp / "s.json")]) == 0


@pytest.mark.parametrize("forecast, flags, message", [
    ("missing.txt", [], "file error"),
    ("huge.txt", ["--sims", "10"], "expected total count inf is above"),
    ("zero.txt", ["--sims", "5"], "is in a zero-rate pixel")])
def test_failed_report_leaves_no_directory(workspace, capsys, forecast,
                                           flags, message):
    tmp, fc, cat = workspace
    # finite rates whose sum is not: the N-test stops it after the load
    (tmp / "huge.txt").write_text("0 1 0 1 0 30 3.95 4.05 1e308 1\n"
                                  "1 2 0 1 0 30 3.95 4.05 1e308 1\n")
    # events in a zero-rate pixel: the tests and residual maps run, then
    # the weighted K stops it
    (tmp / "zero.txt").write_text(FORECAST.replace("4.05 2.0", "4.05 0.0"))
    before = sorted(os.listdir(tmp))
    rc = main(["report", "--forecast", str(tmp / forecast),
               "--catalog", str(cat), *flags, "--out", str(tmp / "report")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert message in err
    assert sorted(os.listdir(tmp)) == before


def test_transform_failures_write_no_output(workspace, capsys):
    tmp, fc, cat = workspace
    one = tmp / "one.csv"
    one.write_text("".join(cat.read_text().splitlines(True)[:2]))
    before = sorted(os.listdir(tmp))
    rc = main(["transform", "--kind", "thin", "--assess",
               "--forecast", str(fc), "--catalog", str(one),
               "--out", str(tmp / "t.csv"), "--svg", str(tmp / "t.svg")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "Traceback" not in err
    assert "needs at least two residual points" in err
    assert sorted(os.listdir(tmp)) == before


def _snapshot(root):
    """Every name under root, with a file's bytes and None for a directory."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            found[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


# command lines with {fc}, {cat} and {tmp} the forecast, catalog and
# workspace, and the output whose write each one finds blocked: a sidecar
# or report manifest pre-made as a directory, or an SVG in a missing one
_K = "--rmax 0.4 --dr 0.1"
_RESCALE = "transform --kind rescale --assess --sims 19 " + _K
_DEVIANCE = "resid --kind deviance --forecast-a {fc} --forecast-b {fc}"
_BLOCKED_OUTPUTS = {
    "ntest-analytic": ("ntest --analytic --out {tmp}/s.json",
                       "s.json.manifest.json"),
    "ltest": ("ltest --sims 20 --out {tmp}/l.json", "l.json.manifest.json"),
    "resid-raw": ("resid --kind raw --out {tmp}/r.csv --svg {tmp}/r.svg",
                  "r.csv.manifest.json"),
    "resid-raw-svg-nodir": (
        "resid --kind raw --out {tmp}/r.csv --svg {tmp}/nodir/r.svg",
        "nodir/r.svg"),
    "resid-deviance": (_DEVIANCE + " --out {tmp}/d.csv --svg {tmp}/d.svg",
                       "d.csv.manifest.json"),
    "resid-deviance-svg-nodir": (
        _DEVIANCE + " --out {tmp}/d.csv --svg {tmp}/nodir/d.svg",
        "nodir/d.svg"),
    "k": ("k --weighted " + _K + " --out {tmp}/k.csv --svg {tmp}/k.svg",
          "k.csv.manifest.json"),
    "k-svg-nodir": (
        "k --weighted " + _K + " --out {tmp}/k.csv --svg {tmp}/nodir/k.svg",
        "nodir/k.svg"),
    "transform-rescale-assess": (
        _RESCALE + " --out {tmp}/t.csv --svg {tmp}/t.svg",
        "t.csv.manifest.json"),
    "transform-rescale-assess-svg-nodir": (
        _RESCALE + " --out {tmp}/t.csv --svg {tmp}/nodir/t.svg",
        "nodir/t.svg"),
    "simulate": ("simulate --out {tmp}/c.csv", "c.csv.manifest.json"),
    "report": ("report --sims 20 " + _K + " --out {tmp}/rep",
               "rep/manifest.json"),
}


@pytest.mark.parametrize("case", sorted(_BLOCKED_OUTPUTS))
def test_blocked_last_output_leaves_nothing_behind(workspace, capsys, case):
    tmp, fc, cat = workspace
    line, blocked = _BLOCKED_OUTPUTS[case]
    argv = [a.format(fc=fc, cat=cat, tmp=tmp) for a in line.split()]
    if argv[0] != "simulate":
        argv += ["--catalog", str(cat)]
    if "--forecast-a" not in argv:
        argv += ["--forecast", str(fc)]
    if "nodir" not in blocked:
        os.makedirs(tmp / blocked)
    before = _snapshot(tmp)
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 3
    assert "Traceback" not in err
    # the message names the path the user gave, not a temporary file
    assert f"file error: [Errno {21 if 'nodir' not in blocked else 2}] " \
        in err
    assert f"'{tmp / blocked}'" in err and ".tmp" not in err
    assert out == ""
    after = _snapshot(tmp)
    assert after == before
    assert not [name for name in after if name.endswith(".tmp")]


@pytest.mark.parametrize("existing, step", [
    (False, "replace"), (False, "open"), (True, "open")])
def test_failed_report_write_leaves_its_directory_as_it_was(
        workspace, capsys, monkeypatch, existing, step):
    tmp, fc, cat = workspace
    if existing:
        outdir = tmp / "rep"
        outdir.mkdir()
        (outdir / "scores.json").write_text("old scores\n")
        (outdir / "notes.txt").write_text("kept\n")
    else:
        outdir = tmp / "nested" / "rep"
    before = _snapshot(tmp)

    # the manifest, written last, fails once every other output is staged
    # (open) or moved into place (replace)
    def failing(real):
        def call(path, *args, **kwargs):
            if os.path.basename(path).startswith("manifest.json."):
                raise OSError(28, "No space left on device", path)
            return real(path, *args, **kwargs)
        return call

    if step == "replace":
        monkeypatch.setattr(cli.os, "replace", failing(os.replace))
    else:
        monkeypatch.setattr(cli, "open", failing(open), raising=False)
    rc = main(["report", "--forecast", str(fc), "--catalog", str(cat),
               "--sims", "20", "--rmax", "0.4", "--dr", "0.1",
               "--out", str(outdir)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "Traceback" not in err
    assert "file error: [Errno 28] No space left on device: " \
        f"'{outdir / 'manifest.json'}'" in err
    assert out == ""
    assert _snapshot(tmp) == before


def test_outputs_go_through_links_and_the_last_to_one_file_wins(workspace):
    tmp, fc, cat = workspace
    link = tmp / "link.csv"
    link.symlink_to(tmp / "r.csv")
    resid = ["resid", "--kind", "raw", "--forecast", str(fc),
             "--catalog", str(cat), "--out", str(link)]
    assert main(resid + ["--svg", str(tmp / "r.svg")]) == 0
    assert link.is_symlink()
    assert (tmp / "r.csv").read_text().startswith("pixel_index,")
    # the SVG, written after the CSV, replaces it in the file both name
    assert main(resid + ["--svg", str(tmp / "r.csv")]) == 0
    assert link.is_symlink()
    xml.dom.minidom.parseString((tmp / "r.csv").read_text())
    assert json.loads((tmp / "link.csv.manifest.json").read_text())["version"]
    assert not [p for p in os.listdir(tmp) if p.endswith(".tmp")]


def test_a_pipe_output_is_written_in_place(workspace):
    tmp, fc, cat = workspace
    fifo = tmp / "r.svg"
    os.mkfifo(fifo)
    # a reader that does not block, so the command's open for writing does
    # not wait; the small SVG fits in the pipe's buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        rc = main(["resid", "--kind", "raw", "--forecast", str(fc),
                   "--catalog", str(cat), "--out", str(tmp / "r.csv"),
                   "--svg", str(fifo)])
        chunks = []
        while True:
            try:
                chunk = os.read(reader, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(reader)
    assert rc == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    xml.dom.minidom.parseString(b"".join(chunks))
    assert (tmp / "r.csv").read_text().startswith("pixel_index,")
    assert not [p for p in os.listdir(tmp) if p.endswith(".tmp")]


def test_a_rewritten_output_keeps_its_mode(workspace):
    tmp, fc, cat = workspace
    out = tmp / "r.csv"
    out.write_text("old\n")
    out.chmod(0o604)
    assert main(["resid", "--kind", "raw", "--forecast", str(fc),
                 "--catalog", str(cat), "--out", str(out)]) == 0
    assert out.read_text().startswith("pixel_index,")
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
