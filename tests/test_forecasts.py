import numpy as np
import pytest

from quakeresid import forecasts
from quakeresid import (ParseError, SchemaError, ValidationError,
                        gr_extrapolate, parse_forecast, seismic_moment,
                        serialize_forecast, tapered_gr_survivor)

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
    assert fc.mag_min == 3.95
    assert fc.rate.sum() == pytest.approx(1.0)


ROW = "0 0.5 0 0.5 0 30 3.95 4.05 0.1 1"


def _outcome(text):
    """Arrays of the parsed forecast, or the type and text of its error."""
    try:
        fc = parse_forecast(text)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return (fc.pixel_index.tolist(), fc.mag_lo.tolist(), fc.mag_hi.tolist(),
            fc.rate.tolist(), fc.depth_lo.tolist(), fc.depth_hi.tolist(),
            fc.grid.active_mask.tolist(), fc.grid.lon_min, fc.grid.lat_min)


def _bulk_and_line_outcomes(text, monkeypatch):
    bulk = _outcome(text)
    with monkeypatch.context() as m:
        m.setattr(forecasts, "_bulk_rows", lambda text: None)
        by_line = _outcome(text)
    return bulk, by_line


@pytest.mark.parametrize("text, bulk_reads_it", [
    ("# header\n" + ROW + "  # trailing\n# end\n", True),
    ("\n\n" + ROW + "\n   \n\t\n", True),
    (ROW + "\r\n" + ROW.replace("0.5 0 0.5", "0.5 0.5 1") + "\r\n", True),
    (ROW.replace(" ", "\t"), True),
    ("−0.5 0 0 0.5 0 30 3.95 4.05 0.1 1\n", True),
    (ROW, True),
    ("# only a comment\n", False),
    ("", False),
    ("0 0.5 0 0.5 0 30 3.95 4.05 0.1\n", False),
    (ROW + "\n0 0.5 0 0.5 0 30 3.95 4.05 0.1\n", False),
    (ROW + "\n0 0.5 0 0.5 0 30 x 4.05 0.1 1\n", False),
    (ROW.replace(" 30 ", " 3_0 "), False),
    # str.splitlines ends a line at these; np.loadtxt reads whitespace
    ("0 0.5 0 0.5 0\f30 3.95 4.05 0.1 1\n", False),
    (ROW + "\x1c" + ROW.replace("0.5 0 0.5", "0.5 0.5 1"), False),
    # a lone CR ends a line, also one inside a comment
    ("# note\r" + ROW + "\n", False),
])
def test_bulk_parse_matches_line_reader(text, bulk_reads_it, monkeypatch):
    assert (forecasts._bulk_rows(text) is not None) == bulk_reads_it
    bulk, by_line = _bulk_and_line_outcomes(text, monkeypatch)
    assert bulk == by_line


@pytest.mark.parametrize("bad_row, message", [
    ("0.5 1 0 0.5 0 30 3.95 4.05 -0.1 1", "line 6: negative rate -0.1"),
    ("0.5 1 0 0.5 0 30 4.05 4.05 0.1 1", "line 6: mag_lo >= mag_hi"),
    ("0.5 1 0 0.5 0 30 4.05 3.95 -0.1 1", "line 6: negative rate -0.1"),
    ("0 0.5 0 0.5 0 30 3.9500000001 4.05 0.7 1",
     "line 6: duplicate (pixel, magnitude-bin) key (first seen on line 3)"),
])
def test_row_errors_name_line_after_comments(bad_row, message, monkeypatch):
    text = "# header\n\n" + ROW + "\n# between\n\n" + bad_row + "\n"
    bulk, by_line = _bulk_and_line_outcomes(text, monkeypatch)
    assert bulk == by_line == (ValidationError, message)


def test_non_finite_edge_names_its_line(monkeypatch):
    text = "# header\n" + ROW + "\n\n0.5 nan 0 0.5 0 30 3.95 4.05 0.1 1\n"
    bulk, by_line = _bulk_and_line_outcomes(text, monkeypatch)
    assert bulk == by_line == (SchemaError,
                               "line 4: pixel edges must be finite")


def test_infinite_extent_names_its_line(monkeypatch):
    text = "# header\n\n-1e308 1e308 0 0.5 0 30 3.95 4.05 0.1 1\n"
    bulk, by_line = _bulk_and_line_outcomes(text, monkeypatch)
    assert bulk == by_line == (SchemaError,
                               "line 3: grid extent is not finite")


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
        forecasts.Forecast(fc.grid, pixel, mag_lo, mag_lo + 0.1,
                           np.ones(5), np.zeros(5), np.ones(5))


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


def test_serialize_round_trip():
    fc = parse_forecast(SIMPLE)
    fc2 = parse_forecast(serialize_forecast(fc))
    assert np.array_equal(fc.pixel_index, fc2.pixel_index)
    assert np.array_equal(fc.rate, fc2.rate)
    assert np.array_equal(fc.mag_lo, fc2.mag_lo)
    assert fc.grid.same_layout(fc2.grid)


def test_seismic_moment_reference_value():
    # log10 M = 1.5 m + 9.05
    assert seismic_moment(6.0) == pytest.approx(10.0 ** 18.05)


def test_survivor_normalized_at_reference():
    assert tapered_gr_survivor(3.95, 1.0, 8.0, 3.95) == pytest.approx(1.0)
    # decreasing in magnitude
    vals = tapered_gr_survivor(np.linspace(3.95, 7.0, 20), 1.0, 8.0, 3.95)
    assert np.all(np.diff(vals) < 0)


def test_survivor_pure_power_law_below_corner():
    # far below the corner the taper factor is ~1, leaving the
    # Gutenberg-Richter slope: one magnitude unit drops the survivor 10^-b
    b = 0.9
    ratio = tapered_gr_survivor(4.95, b, 12.0, 3.95)
    assert ratio == pytest.approx(10.0 ** (-b), rel=1e-6)


def test_gr_extrapolate_preserves_old_bins():
    fc = parse_forecast(SIMPLE)
    ext = gr_extrapolate(fc, 3.45, b_value=1.0, corner_mag=8.0,
                         mag_step=0.1)
    assert ext.n_bins == fc.n_bins + 4 * 5
    # old rows unchanged, at the tail
    assert np.array_equal(ext.rate[-fc.n_bins:], fc.rate)
    assert ext.mag_min == pytest.approx(3.45)


def test_gr_extrapolate_rate_grows_with_b():
    # lowering the threshold adds more events the steeper the magnitude
    # distribution, so the added rate increases with b
    fc = parse_forecast(SIMPLE)
    added = []
    for b in (0.6, 0.9, 1.2):
        ext = gr_extrapolate(fc, 3.45, b_value=b, corner_mag=8.0)
        added.append(ext.rate[:-fc.n_bins].sum())
    assert added[0] < added[1] < added[2]


def test_gr_extrapolate_special_region_overrides_b():
    fc = parse_forecast(SIMPLE)
    plain = gr_extrapolate(fc, 3.45, b_value=1.0, corner_mag=8.0)
    special = gr_extrapolate(fc, 3.45, b_value=1.0, corner_mag=8.0,
                             special_regions=[((0.0, 0.5, 0.0, 0.5), 1.94)])
    # only pixel 0 (center 0.25, 0.25) changes, and its rate increases
    new_plain = plain.rate[:20]
    new_special = special.rate[:20]
    pix = plain.pixel_index[:20]
    assert new_special[pix == 0].sum() > new_plain[pix == 0].sum()
    assert np.allclose(new_plain[pix != 0], new_special[pix != 0])


def test_gr_extrapolate_noop_warns_when_not_below():
    fc = parse_forecast(SIMPLE)
    with pytest.warns(UserWarning):
        out = gr_extrapolate(fc, 4.5, b_value=1.0, corner_mag=8.0)
    assert out is fc


def test_gr_extrapolate_bin_masses_follow_survivor():
    fc = parse_forecast(SIMPLE)
    ext = gr_extrapolate(fc, 3.85, b_value=1.0, corner_mag=8.0)
    # one added bin per pixel with mass total * (S(3.85) - S(3.95))
    mass = tapered_gr_survivor(3.85, 1.0, 8.0, 3.95) - 1.0
    new = ext.rate[: len(ext.rate) - fc.n_bins]
    pix_tot = fc.rate  # one old bin per pixel in SIMPLE
    assert np.allclose(np.sort(new), np.sort(pix_tot * mass), rtol=1e-12)
