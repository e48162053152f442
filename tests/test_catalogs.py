import itertools
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from quakeresid import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, Catalog,
                        ParseError, ValidationError, filter_catalog,
                        format_time, parse_catalog, parse_forecast, parse_time,
                        serialize_catalog)
from quakeresid.catalogs import HEADER

CSV_TEXT = """\
time,lon,lat,depth,mag
2006-03-01T12:00:00Z,0.2,0.3,5.0,4.1
2007-06-15T00:30:00Z,0.7,0.8,12.0,4.6
"""

FORECAST = """\
0 0.5 0 0.5 0 30 3.95 4.05 0.1 1
0.5 1 0 0.5 0 30 3.95 4.05 0.2 1
0 0.5 0.5 1 0 30 3.95 4.05 0.3 1
0.5 1 0.5 1 0 30 3.95 4.05 0.4 1
"""


def test_parse_basic():
    cat = parse_catalog(CSV_TEXT)
    assert len(cat) == 2
    assert cat.mag[0] == 4.1
    assert cat.time.dtype == np.dtype("datetime64[us]")
    assert cat.time[0] == np.datetime64("2006-03-01T12:00:00")


def test_parse_time_accepts_z_suffix_and_naive():
    t = parse_time("2006-03-01T12:00:00Z")
    assert t == datetime(2006, 3, 1, 12, tzinfo=timezone.utc)
    t2 = parse_time("2006-03-01T12:00:00")
    assert t2 == t


def test_format_time_round_trip():
    t = datetime(2006, 3, 1, 12, 0, 0, 123000, tzinfo=timezone.utc)
    assert format_time(t) == "2006-03-01T12:00:00.123Z"
    assert parse_time(format_time(t)) == t


def test_out_of_order_rows_sorted():
    text = ("time,lon,lat,depth,mag\n"
            "2008-01-01T00:00:00Z,0.1,0.1,1,4.0\n"
            "2006-01-01T00:00:00Z,0.2,0.2,1,4.0\n")
    cat = parse_catalog(text)
    assert cat.time[0] == np.datetime64("2006-01-01T00:00:00")
    assert cat.lon.tolist() == [0.2, 0.1]


def test_offsets_become_utc_and_ties_keep_file_order():
    text = ("time,lon,lat,depth,mag\n"
            "2008-07-01T12:00:00.5+02:00,1,0,0,4\n"
            "2008-07-01T09:59:59-00:30,2,0,0,4\n"
            "2008-07-01T10:00:00.500Z,3,0,0,4\n"
            "2008-07-01T05:00:00.5-05:00,4,0,0,4\n"
            "2008-07-01T10:00:00.5,5,0,0,4\n"
            "2008-07-01T10:00:00.499999+00:00,6,0,0,4\n")
    cat = parse_catalog(text)
    assert cat.lon.tolist() == [6, 1, 3, 4, 5, 2]
    assert cat.time.tolist()[1] == datetime(2008, 7, 1, 10, 0, 0, 500000)
    assert cat.time[-1] == np.datetime64("2008-07-01T10:29:59")


def test_year_one_with_offset_parses_and_is_dropped_for_window():
    text = ("time,lon,lat,depth,mag\n"
            "0001-01-01T00:00:00+01:00,0.2,0.3,5,4.1\n"
            "2006-03-01T12:00:00Z,0.2,0.3,5,4.1\n")
    cat = parse_catalog(text)
    # an hour before 0001-01-01 UTC, outside Python's datetime range
    assert cat.time[0] == np.datetime64("0000-12-31T23:00:00")
    out = filter_catalog(cat, parse_forecast(FORECAST), 3.95)
    assert len(out) == 1
    assert out.dropped["window"] == 1


def test_bad_header_rejected():
    with pytest.raises(ParseError) as exc:
        parse_catalog("when,lon,lat,depth,mag\n")
    assert exc.value.line_number == 1


def test_bad_row_has_line_number():
    with pytest.raises(ParseError) as exc:
        parse_catalog("time,lon,lat,depth,mag\n2006-01-01T00:00:00Z,a,b,1,4\n")
    assert exc.value.line_number == 2


def test_csv_errors_name_their_line():
    oversized = CSV_TEXT + f"2008-01-01T00:00:00Z,{'1' * 200_000},0,5,4\n"
    with pytest.raises(ParseError, match="^line 4: field larger than"):
        parse_catalog(oversized)
    with pytest.raises(ParseError, match="^line 4: new-line character"):
        parse_catalog(CSV_TEXT + "2008-01-01T00:00:00Z,0.1\r,0.2,5,4\n")


def test_catalog_rejects_unordered_events():
    times = np.array(["2007-01-01", "2006-01-01"], dtype="datetime64[us]")
    with pytest.raises(ValidationError):
        Catalog(times, [0, 0], [0, 0], [0, 0], [4.0, 4.0])


def test_catalog_rejects_ragged_columns():
    with pytest.raises(ValidationError):
        Catalog(np.array(["2007-01-01"], dtype="datetime64[us]"),
                [0, 1], [0], [0], [4.0])


def test_serialize_round_trip():
    cat = parse_catalog(CSV_TEXT)
    again = parse_catalog(serialize_catalog(cat))
    for name in HEADER:
        assert np.array_equal(getattr(again, name), getattr(cat, name))
        assert getattr(again, name).dtype == getattr(cat, name).dtype


def test_filter_catalog_drop_accounting():
    fc = parse_forecast(FORECAST)
    rows = [
        "2006-03-01T00:00:00Z,0.2,0.3,5,4.1",    # kept
        "2006-03-01T00:00:01Z,0.2,0.3,5,3.0",    # magnitude
        "2001-03-01T00:00:00Z,0.2,0.3,5,4.1",    # window (early)
        "2012-03-01T00:00:00Z,0.2,0.3,5,4.1",    # window (late)
        "2006-03-02T00:00:00Z,0.2,0.3,55,4.1",   # depth
        "2006-03-03T00:00:00Z,3.0,0.3,5,4.1",    # location (outside)
    ]
    cat = parse_catalog("time,lon,lat,depth,mag\n" + "\n".join(rows) + "\n")
    out = filter_catalog(cat, fc, mag_min=3.95, depth_max=30.0)
    assert len(out) == 1
    assert out.dropped == {"magnitude": 1, "window": 2, "depth": 1,
                           "location": 1}


def test_filter_respects_forecast_pixels():
    # forecast covering only the left half: events on the right are dropped
    half = "\n".join(FORECAST.splitlines()[:1] + FORECAST.splitlines()[2:3])
    fc = parse_forecast(half + "\n")
    cat = parse_catalog(CSV_TEXT)
    out = filter_catalog(cat, fc, mag_min=3.95)
    assert len(out) == 1
    assert out.dropped["location"] == 1


def _pixel(grid, lon, lat):
    """Flat index of the pixel whose box holds (lon, lat), shared edges going
    to the high side and the outer edges closed, or None off the box."""
    if not (grid.lon_min <= lon <= grid.lon_max
            and grid.lat_min <= lat <= grid.lat_max):
        return None
    ix = min(int(np.floor((lon - grid.lon_min) / grid.dx)), grid.n_x - 1)
    iy = min(int(np.floor((lat - grid.lat_min) / grid.dy)), grid.n_y - 1)
    return int(np.ravel_multi_index((iy, ix), (grid.n_y, grid.n_x)))


def _filter_by_event(catalog, forecast, mag_min, depth_max):
    """Scalar reference: one event at a time, first failed check wins."""
    grid = forecast.grid
    pixels = set(int(p) for p in forecast.pixel_index
                 if grid.active_mask.flat[p])
    dropped = {"magnitude": 0, "window": 0, "depth": 0, "location": 0}
    kept = []
    rows = zip(catalog.time.tolist(), catalog.lon.tolist(),
               catalog.lat.tolist(), catalog.depth.tolist(),
               catalog.mag.tolist())
    for i, (time, lon, lat, depth, mag) in enumerate(rows):
        time = time.replace(tzinfo=timezone.utc)
        if mag < mag_min:
            dropped["magnitude"] += 1
        elif not (DEFAULT_WINDOW_START <= time < DEFAULT_WINDOW_END):
            dropped["window"] += 1
        elif depth > depth_max:
            dropped["depth"] += 1
        elif _pixel(grid, lon, lat) not in pixels:
            dropped["location"] += 1
        else:
            kept.append(i)
    return kept, dropped


def test_filter_catalog_matches_scalar_reference():
    # left pixel column masked out; NaN, infinite and boundary fields
    fc = parse_forecast(FORECAST.replace("0.3 1", "0.3 0")
                        .replace("0.1 1", "0.1 0"))
    nan, inf = float("nan"), float("inf")
    start, end = DEFAULT_WINDOW_START, DEFAULT_WINDOW_END
    times = [start, end, start - timedelta(microseconds=1),
             end - timedelta(microseconds=1)]
    mags = [3.95, 3.9499999, 5.0, nan, inf, -inf]
    depths = [30.0, 30.0000001, -1.0, nan, inf, -inf]
    coords = [(0.75, 0.25), (1.0, 1.0), (0.5, 0.5), (0.0, 0.0), (1.0, 0.0),
              (0.4999, 0.7), (1.0000001, 0.5), (nan, 0.5), (0.75, inf),
              (-inf, 0.2), (0.6, -0.0)]
    rng = np.random.default_rng(8)
    combos = list(itertools.product(range(len(times)), mags, depths, coords))
    picks = rng.choice(len(combos), 600, replace=False)
    rows = sorted(((times[combos[k][0]], combos[k][3][0], combos[k][3][1],
                    combos[k][2], combos[k][1]) for k in picks),
                  key=lambda row: row[0])
    time, lon, lat, depth, mag = zip(*rows)
    time = np.array([t.replace(tzinfo=None) for t in time],
                    dtype="datetime64[us]")
    cat = Catalog(time, lon, lat, depth, mag)
    for mag_min, depth_max in ((3.95, 30.0), (nan, 30.0), (4.5, inf)):
        out = filter_catalog(cat, fc, mag_min, depth_max)
        kept, dropped = _filter_by_event(cat, fc, mag_min, depth_max)
        for name in HEADER:
            assert np.array_equal(getattr(out, name),
                                  getattr(cat, name)[kept], equal_nan=True)
        assert out.dropped == dropped
        assert list(out.dropped) == ["magnitude", "window", "depth",
                                     "location"]
        if mag_min == 3.95:     # every outcome occurs
            assert len(kept) and all(dropped.values())


def test_filter_catalog_empty():
    empty = parse_catalog("time,lon,lat,depth,mag\n")
    out = filter_catalog(empty, parse_forecast(FORECAST), 3.95)
    assert len(out) == 0
    assert out.dropped == {"magnitude": 0, "window": 0, "depth": 0,
                           "location": 0}
