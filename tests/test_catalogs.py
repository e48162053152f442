import csv
import io
import itertools
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from quakeresid import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, Catalog,
                        ParseError, ValidationError, filter_catalog,
                        parse_catalog, parse_forecast, parse_time,
                        serialize_catalog)
from quakeresid.catalogs import HEADER, _bulk_columns, _rows_by_line

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


def _serialize_by_event(catalog):
    """The catalog CSV written one event at a time through datetime and
    csv.writer: the reference writer for years 1000-9999."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    columns = (getattr(catalog, name).tolist() for name in HEADER[1:])
    for us, *values in zip(catalog.time.astype(np.int64).tolist(), *columns):
        t = epoch + timedelta(microseconds=us)
        writer.writerow([t.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"]
                        + ["%.12g" % v for v in values])
    return out.getvalue()


def _random_catalog(rng, n):
    """n events over years 1000-9999, some before 1970 and most off the
    millisecond, with NaN, infinities, -0.0 and tiny or huge numbers."""
    lo, hi = np.array(["1000-01-01", "9999-12-31T23:59:59.999999"],
                      dtype="datetime64[us]").astype(np.int64)
    micros = np.concatenate([[lo, hi, -1, 0, 1, -999, -1000, -1001, 999],
                             rng.integers(lo, hi, n - 9, endpoint=True)])
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324,
               1.7976931348623157e308, 0.1 + 0.2, 1e16 + 1, 123456.7890123456]
    values = rng.normal(0.0, 10.0 ** rng.integers(-12, 13, (n, 4)))
    pick = rng.random((n, 4)) < 0.2
    values[pick] = rng.choice(special, pick.sum())
    return Catalog(np.sort(micros).astype("datetime64[us]"), *values.T)


@pytest.mark.parametrize("seed", range(3))
def test_serialize_matches_event_writer(seed):
    cat = _random_catalog(np.random.default_rng(seed), 3000)
    assert serialize_catalog(cat) == _serialize_by_event(cat)


def test_years_below_1000_are_padded_and_round_trip():
    time = np.array(["0001-01-01T00:00:00", "0999-05-05T01:02:03.123456",
                     "9999-12-31T23:59:59.999"], dtype="datetime64[us]")
    text = serialize_catalog(Catalog(time, [0.1, 0.2, 0.3], [0, 0, 0],
                                     [5, 5, 5], [4, 4, 4]))
    assert text.splitlines()[1:] == ["0001-01-01T00:00:00.000Z,0.1,0,5,4",
                                     "0999-05-05T01:02:03.123Z,0.2,0,5,4",
                                     "9999-12-31T23:59:59.999Z,0.3,0,5,4"]
    assert np.array_equal(parse_catalog(text).time,
                          time.astype("datetime64[ms]"))


@pytest.mark.parametrize("stamp, event, instant", [
    ("0001-01-01T00:30:00+01:00", 1, "0000-12-31T23:30:00"),
    ("9999-12-31T23:30:00-01:00", 3, "10000-01-01T00:30:00")])
def test_years_outside_1_9999_are_a_validation_error(stamp, event, instant):
    cat = parse_catalog(CSV_TEXT + f"{stamp},0.2,0.3,5,4\n")
    with pytest.raises(ValidationError, match=(
            f"^event {event} at {instant}.000000 is outside years 1-9999")):
        serialize_catalog(cat)


# Canonical text in number forms serialize_catalog does not write but
# np.loadtxt reads, with times out of order and tied.
LOADTXT_FORMS = """\
time,lon,lat,depth,mag
2006-03-01T12:00:00.000Z,-nan,Infinity,+1,.5
1969-12-31T23:59:59.999Z,1.,1E5,1e5000,-0
2006-03-01T12:00:00.000Z,-inf,nan,1e-320,-1e-5000
"""


def _bit_equal(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@pytest.mark.parametrize("text", [
    serialize_catalog(_random_catalog(np.random.default_rng(seed), 3000))
    for seed in range(3)] + [CSV_TEXT.replace(":00Z", ":00.000Z"),
                             LOADTXT_FORMS])
def test_bulk_pass_equals_row_reader(text):
    bulk = _bulk_columns(text)
    assert bulk is not None
    time, values = _rows_by_line(text)
    assert _bit_equal(bulk[0], time) and _bit_equal(bulk[1], values)


def _edit(*pairs):
    text = CSV_TEXT.replace(":00Z", ":00.000Z")
    for old, new in pairs:
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("text", [
    _edit(("12:00:00.000Z", "12:00:00.000+00:00")),     # offset
    _edit(("12:00:00.000Z", "12:00:00.000")),           # naive
    _edit(("00:30:00.000Z", "00:30:00Z")),              # no milliseconds
    _edit(("2006-03-01T", "2006-03-01 ")),              # space separator
    _edit(("2007-06-15", "0000-06-15")),                # year 0
    _edit((",0.3,", ',"0.3",')),                        # quoted field
    _edit(("2007-06-15T00:30:00.000Z", "2007")),        # short last line
    _edit(("\n", "\r\n")),                              # CRLF
    _edit(("4.1\n", "4.1\n\n")),                        # blank line
    _edit(("4.6\n", "4.6")),                            # no final newline
    _edit((",0.7,", ",\u22120.7,")),                    # U+2212
    _edit((",12.0,", ",1_2.0,")),                       # underscore
    _edit((",12.0,", ", 12.0,")),                       # padded number
    _edit((",12.0,", ",12.0\t,")),                      # tab after a number
    _edit((",4.1\n", ",4.1,1\n")),                      # six fields
    _edit((",4.1\n", ",4.1,1\n"), (",12.0,", ",")),     # ragged, 4 commas
    _edit((",0.3,", ",0\x003,")),                       # NUL
    _edit((",12.0,", f",{'1' * 200_000},")),            # over csv's limit
    _edit(("time,", "Time,")),                          # header variant
])
def test_bulk_pass_declines_other_text(text):
    assert _bulk_columns(_edit()) is not None
    assert _bulk_columns(text) is None


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
