import itertools
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from quakeresid import (Catalog, Event, ParseError, ValidationError,
                        filter_catalog, format_time, parse_catalog,
                        parse_forecast, parse_time, serialize_catalog)

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
    assert cat.events[0].magnitude == 4.1
    assert cat.events[0].time.tzinfo is not None


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
    assert cat.events[0].time.year == 2006


def test_bad_header_rejected():
    with pytest.raises(ParseError) as exc:
        parse_catalog("when,lon,lat,depth,mag\n")
    assert exc.value.line_number == 1


def test_bad_row_has_line_number():
    with pytest.raises(ParseError) as exc:
        parse_catalog("time,lon,lat,depth,mag\n2006-01-01T00:00:00Z,a,b,1,4\n")
    assert exc.value.line_number == 2


def test_catalog_rejects_unordered_events():
    e1 = Event(datetime(2007, 1, 1, tzinfo=timezone.utc), 0, 0, 0, 4.0)
    e2 = Event(datetime(2006, 1, 1, tzinfo=timezone.utc), 0, 0, 0, 4.0)
    with pytest.raises(ValidationError):
        Catalog((e1, e2))


def test_serialize_round_trip():
    cat = parse_catalog(CSV_TEXT)
    again = parse_catalog(serialize_catalog(cat))
    assert again == cat


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


def _filter_by_event(catalog, forecast, mag_min, depth_max):
    """Scalar reference: one event at a time, first failed check wins."""
    grid = forecast.grid
    pixels = set(int(p) for p in forecast.pixel_index)
    dropped = {"magnitude": 0, "window": 0, "depth": 0, "location": 0}
    kept = []
    for e in catalog.events:
        if e.magnitude < mag_min:
            dropped["magnitude"] += 1
        elif not (forecast.window_start <= e.time < forecast.window_end):
            dropped["window"] += 1
        elif e.depth > depth_max:
            dropped["depth"] += 1
        elif not bool(grid.contains(e.lon, e.lat)) or \
                int(grid.flat_index(*grid.pixel_of(e.lon, e.lat))) \
                not in pixels:
            dropped["location"] += 1
        else:
            kept.append(e)
    return kept, dropped


def test_filter_catalog_matches_scalar_reference():
    # left pixel column masked out; NaN, infinite and boundary fields
    fc = parse_forecast(FORECAST.replace("0.3 1", "0.3 0")
                        .replace("0.1 1", "0.1 0"))
    nan, inf = float("nan"), float("inf")
    start, end = fc.window_start, fc.window_end
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
    events = sorted((Event(times[combos[k][0]], combos[k][3][0],
                           combos[k][3][1], combos[k][2], combos[k][1])
                     for k in picks), key=lambda e: e.time)
    cat = Catalog(tuple(events))
    for mag_min, depth_max in ((3.95, 30.0), (nan, 30.0), (4.5, inf)):
        out = filter_catalog(cat, fc, mag_min, depth_max)
        kept, dropped = _filter_by_event(cat, fc, mag_min, depth_max)
        assert len(out.events) == len(kept)
        assert all(a is b for a, b in zip(out.events, kept))
        assert out.dropped == dropped
        assert list(out.dropped) == ["magnitude", "window", "depth",
                                     "location"]
        if mag_min == 3.95:     # every outcome occurs
            assert len(kept) and all(dropped.values())


def test_filter_catalog_empty():
    out = filter_catalog(Catalog(()), parse_forecast(FORECAST), 3.95)
    assert len(out) == 0
    assert out.dropped == {"magnitude": 0, "window": 0, "depth": 0,
                           "location": 0}
