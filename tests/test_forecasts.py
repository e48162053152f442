import os
import subprocess
import sys

import numpy as np
import pytest

from quakeresid import forecasts
from quakeresid import ParseError, SchemaError, ValidationError, parse_forecast

SIMPLE = """\
# toy forecast
0 0.5 0 0.5 0 30 3.95 4.05 0.1 1
0.5 1 0 0.5 0 30 3.95 4.05 0.2 1
0 0.5 0.5 1 0 30 3.95 4.05 0.3 1
0.5 1 0.5 1 0 30 3.95 4.05 0.4 1
"""


def test_parse_infers_grid():
    fc = parse_forecast(SIMPLE)
    assert (fc.grid.n_x, fc.grid.n_y) == (2, 2)
    assert fc.grid.n_active == 4
    assert fc.n_bins == 4
    assert fc.mag_lo.min() == 3.95
    assert fc.rate.sum() == pytest.approx(1.0)


ROW = "0 0.5 0 0.5 0 30 3.95 4.05 0.1 1"


def _outcome(text):
    """Arrays of the parsed forecast, or the type and text of its error."""
    try:
        fc = parse_forecast(text)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return (fc.pixel_index.tolist(), fc.mag_lo.tolist(), fc.mag_hi.tolist(),
            fc.rate.tolist(), fc.grid.active_mask.tolist(), fc.grid.lon_min,
            fc.grid.lat_min)


def _reader_outcomes(text, monkeypatch):
    """Outcomes of parse_forecast on text as str, as UTF-8 bytes, and by
    the line reader alone.  Bytes that are not UTF-8 reach the str path
    with each bad byte as a lone surrogate."""
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    as_str = _outcome(data.decode("utf-8", "surrogateescape"))
    as_bytes = _outcome(data)
    with monkeypatch.context() as m:
        m.setattr(forecasts, "_bulk_rows", lambda data: None)
        by_line = _outcome(data)
    return as_str, as_bytes, by_line


ROW2 = ROW.replace("0.5 0 0.5", "0.5 0.5 1")


def _grid_rows(n_x, n_y, n_mag):
    """Rows of an n_x by n_y grid of 0.1-degree pixels, n_mag bins each."""
    lines = []
    for iy in range(n_y):
        for ix in range(n_x):
            head = "%.1f %.1f %.1f %.1f 0 30 " % (
                ix / 10, (ix + 1) / 10, iy / 10, (iy + 1) / 10)
            lines.extend(head + "%.2f %.2f %.6e 1" % (
                4.95 + m / 10, 5.05 + m / 10, 1e-5 * (1 + (ix * m) % 7))
                for m in range(n_mag))
    return "\n".join(lines) + "\n"


BODY_60K = _grid_rows(50, 30, 40)


@pytest.mark.parametrize("text, bulk_reads_it", [
    ("# header\n" + ROW + "  # trailing\n# end\n", True),
    ("\n\n" + ROW + "\n   \n\t\n", True),
    (ROW + "\r\n" + ROW2 + "\r\n", True),
    (ROW.replace(" ", "\t"), True),
    ("−0.5 0 0 0.5 0 30 3.95 4.05 0.1 1\n", True),
    (ROW.replace("0.1 1", "1e−1 1"), True),
    (ROW, True),
    # a multi-byte comment starting at byte offsets 0 to 7, ahead of
    # 60,000 rows
    *(pytest.param(" " * k + "# Kagan–Jackson ∑\n" + BODY_60K, True,
                   id=f"non-ASCII comment at byte {k}, 60k rows")
      for k in range(8)),
    ("# only a comment\n", False),
    ("", False),
    ("0 0.5 0 0.5 0 30 3.95 4.05 0.1\n", False),
    (ROW + "\n0 0.5 0 0.5 0 30 3.95 4.05 0.1\n", False),
    (ROW + "\n0 0.5 0 0.5 0 30 x 4.05 0.1 1\n", False),
    (ROW.replace(" 30 ", " 3_0 "), False),
    # a byte-order mark is not whitespace: the first token is not a number
    ("\ufeff" + ROW + "\n", False),
    ("\ufeff# header\n" + ROW + "\n", False),
    # str.splitlines ends a line at these; np.loadtxt reads whitespace
    ("0 0.5 0 0.5 0\f30 3.95 4.05 0.1 1\n", False),
    (ROW + "\x1c" + ROW2, False),
    ("0 0.5 0 0.5 0\x8530 3.95 4.05 0.1 1\n", False),
    (ROW + "\n# note\u2028" + ROW2 + "\n", False),
    (ROW + "\u2029" + ROW2, False),
    # a lone CR ends a line, also one inside a comment
    ("# note\r" + ROW + "\n", False),
    (ROW + "\r" + ROW2 + "\n", False),
    # not UTF-8: a parse error naming the line
    (b"# \xff\n" + ROW.encode(), False),
    (ROW.encode() + b"\n\n" + ROW2.encode() + b"  # caf\xe9\n", False),
])
def test_bulk_parse_matches_line_reader(text, bulk_reads_it, monkeypatch):
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    assert (forecasts._bulk_rows(data) is not None) == bulk_reads_it
    as_str, as_bytes, by_line = _reader_outcomes(text, monkeypatch)
    assert as_str == as_bytes == by_line


@pytest.mark.parametrize("data, line", [
    (b"# \xff\n" + ROW.encode(), 1),
    (ROW.encode() + b"\n\n" + ROW2.encode() + b"  # caf\xe9\n", 3),
    (ROW.encode() + b"\r\n" + ROW2[:5].encode() + b"\xe2\x88", 2),
])
def test_invalid_utf8_is_a_parse_error_naming_its_line(data, line):
    with pytest.raises(ParseError, match=f"^line {line}: not valid UTF-8") \
            as exc:
        parse_forecast(data)
    assert exc.value.line_number == line


def test_duplicate_keys_are_searched_once(monkeypatch):
    calls = []
    search = forecasts._first_duplicate

    def spy(pixel, mag_lo):
        calls.append(len(pixel))
        return search(pixel, mag_lo)

    monkeypatch.setattr(forecasts, "_first_duplicate", spy)
    assert parse_forecast(SIMPLE).n_bins == 4
    assert calls == [4]
    with pytest.raises(ValidationError, match="^line 6: duplicate"):
        parse_forecast(SIMPLE + ROW + "\n")
    assert calls == [4, 5]


def _row_loop_duplicate(pixel, mag_lo):
    """The reference: the first row whose (pixel, round(mag_lo, 9)) key an
    earlier row holds, and that earlier row."""
    seen = {}
    for i, key in enumerate(zip(pixel.tolist(),
                                (round(lo, 9) for lo in mag_lo.tolist()))):
        if key in seen:
            return i, seen[key]
        seen[key] = i
    return None


def _duplicate_case(seed):
    """pixel and mag_lo columns of a seeded random forecast: runs of rising
    bins per pixel, with some pixels' rows split across the file, bins
    moved to within a few 1e-9 of another bin of their pixel, -inf edges,
    falling or fully shuffled rows."""
    rng = np.random.default_rng(seed)
    n_pix, n_bins = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    pixel = np.repeat(rng.permutation(50)[:n_pix], n_bins)
    mag_lo = np.tile(3.95 + 0.1 * np.arange(n_bins), n_pix)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(len(pixel), size=2)
        j = i - i % n_bins + j % n_bins          # a bin of i's pixel
        mag_lo[i] = mag_lo[j] + rng.choice(
            [0.0, 1e-10, -4e-10, 5e-10, -1e-9, 1e-9, 1.5e-9, -2.5e-9, 3e-9])
    for _ in range(int(rng.integers(0, 3)) * (rng.random() < 0.3)):
        mag_lo[rng.integers(len(pixel))] = -np.inf
    layout = rng.integers(4)
    if layout == 1:                              # one pixel's run split
        i = rng.integers(len(pixel))
        k = i - i % n_bins + rng.integers(n_bins)
        order = np.r_[np.delete(np.arange(len(pixel)), np.s_[k:i + 1]),
                      np.arange(k, i + 1)] if k <= i else np.arange(len(pixel))
    elif layout == 2:                            # bins falling in each run
        order = (np.arange(len(pixel)).reshape(n_pix, n_bins)[:, ::-1]
                 .ravel())
    elif layout == 3:
        order = rng.permutation(len(pixel))
    else:
        order = np.arange(len(pixel))
    return pixel[order], mag_lo[order]


@pytest.mark.parametrize("seed", range(300))
def test_first_duplicate_matches_the_row_loop(seed):
    pixel, mag_lo = _duplicate_case(seed)
    assert forecasts._first_duplicate(pixel, mag_lo) == \
        _row_loop_duplicate(pixel, mag_lo)


def test_duplicate_cases_reach_each_stage():
    def stage(pixel, mag_lo):
        if _row_loop_duplicate(pixel, mag_lo) is not None:
            return "duplicate"
        for name, order in (
                ("stable sort", np.argsort(pixel, kind="stable")),
                ("key sort", np.lexsort((mag_lo, pixel)))):
            if not forecasts._close_neighbours(pixel, mag_lo, order):
                return name
        return "row loop"

    stages = [stage(*_duplicate_case(seed)) for seed in range(300)]
    assert {name: stages.count(name) >= 30 for name in set(stages)} == {
        "duplicate": True, "stable sort": True, "key sort": True,
        "row loop": True}


@pytest.mark.parametrize("bad_row, message", [
    ("0.5 1 0 0.5 0 30 3.95 4.05 -0.1 1", "line 6: negative rate -0.1"),
    ("0.5 1 0 0.5 0 30 4.05 4.05 0.1 1", "line 6: mag_lo >= mag_hi"),
    ("0.5 1 0 0.5 0 30 4.05 3.95 -0.1 1", "line 6: negative rate -0.1"),
    ("0 0.5 0 0.5 0 30 3.9500000001 4.05 0.7 1",
     "line 6: duplicate (pixel, magnitude-bin) key (first seen on line 3)"),
    ("0.5 1 0 0.5 0 30 nan 4.05 0.1 1",
     "line 6: magnitude bin edges must be numbers, got nan and 4.05"),
    ("0.5 1 0 0.5 0 30 3.95 nan 0.1 1",
     "line 6: magnitude bin edges must be numbers, got 3.95 and nan"),
    ("0.5 1 0 0.5 0 30 3.95 4.05 nan 1", "line 6: rate nan is not finite"),
    ("0.5 1 0 0.5 0 30 3.95 4.05 inf 1", "line 6: rate inf is not finite"),
    ("0.5 1 0 0.5 0 30 3.95 4.05 -inf 1", "line 6: negative rate -inf"),
])
def test_row_errors_name_line_after_comments(bad_row, message, monkeypatch):
    text = "# header\n\n" + ROW + "\n# between\n\n" + bad_row + "\n"
    assert _reader_outcomes(text, monkeypatch) == ((ValidationError,
                                                    message),) * 3


def test_geometry_faults_come_before_bin_faults(monkeypatch):
    # line 1 has a negative rate, line 3 a NaN edge: the grid is checked
    # before the bins
    text = ROW.replace("0.1 1", "-0.1 1") + "\n" + ROW2 + "\n" + \
        "0.5 nan 0 0.5 0 30 3.95 4.05 0.1 1\n"
    assert _reader_outcomes(text, monkeypatch) == ((
        SchemaError, "line 3: pixel edges must be finite"),) * 3


def test_non_finite_edge_names_its_line(monkeypatch):
    text = "# header\n" + ROW + "\n\n0.5 nan 0 0.5 0 30 3.95 4.05 0.1 1\n"
    assert _reader_outcomes(text, monkeypatch) == ((
        SchemaError, "line 4: pixel edges must be finite"),) * 3


def test_infinite_extent_names_its_line(monkeypatch):
    text = "# header\n\n-1e308 1e308 0 0.5 0 30 3.95 4.05 0.1 1\n"
    assert _reader_outcomes(text, monkeypatch) == ((
        SchemaError, "line 3: grid extent is not finite"),) * 3


def test_bounding_box_pixel_cap_names_the_extreme_rows(monkeypatch):
    monkeypatch.setattr(forecasts, "MAX_GRID_PIXELS", 4)
    assert parse_forecast(SIMPLE).grid.n_active == 4
    text = SIMPLE + "1.5 2 0 0.5 0 30 3.95 4.05 0.1 1\n"
    with pytest.raises(SchemaError, match=r"4 x 2 pixels .* largest supported "
                       r"4 pixels; its extreme rows are line 2 \(west\), "
                       r"6 \(east\), 2 \(south\) and 4 \(north\)"):
        parse_forecast(text)


FAR_APART = """\
0 0.5 0 0.5 0 30 4.95 5.05 1.0 1
# 50,000 degrees away: a dense mask of the bounding box would take 9.3 GiB
50000 50000.5 50000 50000.5 0 30 4.95 5.05 1.0 1
"""


def test_far_apart_rows_rejected_before_allocating(tmp_path):
    # run in a child whose address space is capped at 1 GiB, so the mask of
    # the bounding box cannot be allocated if the cap does not stop it first
    fc = tmp_path / "fc.txt"
    fc.write_text(FAR_APART)
    cat = tmp_path / "cat.csv"
    cat.write_text("time,lon,lat,depth,mag\n")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quakeresid.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(forecasts.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code, "ntest", "--forecast", str(fc),
         "--catalog", str(cat), "--analytic"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    assert "100001 x 100001 pixels" in out.stderr
    assert "line 1 (west), 3 (east), 1 (south) and 3 (north)" in out.stderr


@pytest.mark.parametrize("column", [0, 1, 2, 3])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
@pytest.mark.parametrize("first", [True, False])
def test_non_finite_edge_is_a_schema_error(column, value, first):
    fields = ROW.split()
    fields[column] = value
    if value == "1e308":    # finite edges, but an extent of -inf or +inf
        fields[column ^ 1] = "-1e308"
    bad = " ".join(fields)
    text = bad + "\n" if first else ROW + "\n" + bad + "\n"
    with pytest.raises(SchemaError):
        parse_forecast(text)


def test_near_but_distinct_magnitudes_are_not_duplicates():
    # 3.9500000004 and 3.9500000006 round to different 9-decimal keys
    fc = parse_forecast(ROW.replace("3.95", "3.9500000004") + "\n" +
                        ROW.replace("3.95", "3.9500000006") + "\n")
    assert fc.n_bins == 2


def test_forecast_reports_first_duplicate_in_row_order():
    fc = parse_forecast(SIMPLE)
    # rows 3 and 4 both repeat a key; row 3 comes first, pixel 1 sorts first
    pixel = np.array([1, 3, 2, 3, 1])
    mag_lo = np.array([4.0, 5.0, 4.0, 5.0, 4.0])
    with pytest.raises(ValidationError,
                       match=r"^duplicate \(pixel, magnitude-bin\) key: "
                             r"pixel 3, mag_lo 5.0$"):
        forecasts.Forecast(fc.grid, pixel, mag_lo, mag_lo + 0.1, np.ones(5))


@pytest.mark.parametrize("bad", [-1, 4])
def test_forecast_rejects_pixel_index_off_the_grid(bad):
    fc = parse_forecast(SIMPLE)     # a 2 x 2 grid: pixels 0 to 3
    pixel = np.array([0, bad, 3])
    with pytest.raises(ValidationError,
                       match=rf"^pixel index {bad} is outside the grid's 4 "
                             r"pixels$"):
        forecasts.Forecast(fc.grid, pixel, np.full(3, 4.0), np.full(3, 4.1),
                           np.ones(3))
    forecasts.Forecast(fc.grid, np.array([0, 3]), np.full(2, 4.0),
                       np.full(2, 4.1), np.ones(2))


def test_unicode_minus_and_comments():
    text = "−0.5 0 0 0.5 0 30 3.95 4.05 0.1 1  # trailing comment\n"
    fc = parse_forecast(text)
    assert fc.grid.lon_min == -0.5


def test_mask_flag_zero_deactivates():
    text = SIMPLE + "0.5 1 0.5 1 0 30 4.05 4.15 0.1 0\n"
    fc = parse_forecast(text)
    assert fc.grid.n_active == 3
    assert not fc.grid.contains(0.75, 0.75)


def test_column_count_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_forecast("0 0.5 0 0.5 0 30 3.95 4.05 0.1\n")
    assert exc.value.line_number == 1


def test_inconsistent_pixel_size_rejected():
    bad = SIMPLE + "1 1.7 0 0.5 0 30 3.95 4.05 0.1 1\n"
    with pytest.raises(SchemaError):
        parse_forecast(bad)


def test_off_lattice_rejected():
    bad = SIMPLE + "1.25 1.75 0 0.5 0 30 3.95 4.05 0.1 1\n"
    with pytest.raises(SchemaError):
        parse_forecast(bad)


def test_duplicate_bin_rejected_with_both_lines():
    bad = SIMPLE + "0 0.5 0 0.5 0 30 3.95 4.05 0.7 1\n"
    with pytest.raises(ValidationError) as exc:
        parse_forecast(bad)
    assert "line 6" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_negative_rate_rejected():
    with pytest.raises(ValidationError):
        parse_forecast("0 0.5 0 0.5 0 30 3.95 4.05 -0.1 1\n")


def test_empty_input_gives_empty_forecast():
    fc = parse_forecast("# nothing here\n")
    assert fc.n_bins == 0
    assert fc.grid.n_active == 0
