"""Event catalogs: CSV parsing, serialization, and filtering."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ParseError, ValidationError
from .forecasts import Forecast

HEADER = ["time", "lon", "lat", "depth", "mag"]
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True, eq=False)
class Catalog:
    """Events as five columns in time order, named as in HEADER: time
    (datetime64[us], UTC), lon, lat, depth and mag (floats)."""
    time: np.ndarray = field(repr=False)
    lon: np.ndarray = field(repr=False)
    lat: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    mag: np.ndarray = field(repr=False)
    dropped: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in HEADER:
            col = np.array(getattr(self, name),
                           dtype="datetime64[us]" if name == "time" else float)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if any(len(getattr(self, name)) != len(self.time) for name in HEADER):
            raise ValidationError("catalog columns must have equal lengths")
        if np.any(self.time[1:] < self.time[:-1]):
            raise ValidationError("catalog events must be time-ordered")

    def __len__(self):
        return len(self.time)

    def points(self):
        """(n, 2) lon/lat array."""
        return np.column_stack([self.lon, self.lat])


def parse_time(text: str) -> datetime:
    t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t


def format_time(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def utc64(times) -> np.ndarray:
    """Aware datetimes as datetime64[us] UTC instants.

    Each is measured from the epoch as an exact timedelta, which never
    leaves Python's range the way astimezone does for a year-1 time with
    a positive offset.
    """
    micros = [(t - _EPOCH) // _MICROSECOND for t in times]
    return np.array(micros, dtype=np.int64).astype("datetime64[us]")


def parse_catalog(text: str) -> Catalog:
    """Parse catalog CSV with header time,lon,lat,depth,mag.

    Out-of-order rows are sorted, rows of one instant kept in file order;
    unparseable rows raise with line number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty catalog file", 1) from None
    if [h.strip().lower() for h in header] != HEADER:
        raise ParseError(f"expected header {','.join(HEADER)}", 1)
    times, values = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", lineno)
        try:
            times.append(parse_time(row[0].strip()))
        except ValueError:
            raise ParseError(f"unparseable timestamp {row[0]!r}", lineno) from None
        try:
            values.append([float(v.replace("−", "-")) for v in row[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    time = utc64(times)
    order = np.argsort(time, kind="stable")
    return Catalog(time[order],
                   *np.array(values, dtype=float).reshape(-1, 4)[order].T)


def serialize_catalog(catalog: Catalog) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    # an instant outside years 1-9999 raises OverflowError here
    times = [format_time(_EPOCH + timedelta(microseconds=us))
             for us in catalog.time.astype(np.int64).tolist()]
    values = (["%.12g" % v for v in getattr(catalog, name).tolist()]
              for name in HEADER[1:])
    writer.writerows(zip(times, *values))
    return out.getvalue()


def filter_catalog(catalog: Catalog, forecast: Forecast, mag_min: float,
                   depth_max: float = 30.0) -> Catalog:
    """Retain events with magnitude >= mag_min, inside the forecast window,
    shallower than depth_max, and inside an active pixel carrying at least
    one forecast bin.  Drop counts are reported in the result's metadata.
    """
    grid = forecast.grid
    start, end = utc64([forecast.window_start, forecast.window_end])
    # each event counts once, under the first check it fails, in this order
    # (a NaN magnitude or depth fails no check of its own)
    fails = {"magnitude": catalog.mag < mag_min,
             "window": ~((start <= catalog.time) & (catalog.time < end)),
             "depth": catalog.depth > depth_max}
    loc_ok = grid.contains(catalog.lon, catalog.lat)
    if loc_ok.any():
        ix, iy = grid.pixel_of(catalog.lon[loc_ok], catalog.lat[loc_ok])
        loc_ok[loc_ok] = np.isin(grid.flat_index(ix, iy), forecast.pixel_index)
    fails["location"] = ~loc_ok
    dropped = {}
    remaining = np.ones(len(catalog), dtype=bool)
    for reason, fail in fails.items():
        hit = remaining & fail
        dropped[reason] = int(hit.sum())
        remaining &= ~hit
    return Catalog(*(getattr(catalog, name)[remaining] for name in HEADER),
                   dropped=dropped)
