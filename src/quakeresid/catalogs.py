"""Event catalogs: CSV parsing, serialization, and filtering."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError, ValidationError
from .forecasts import Forecast

HEADER = ["time", "lon", "lat", "depth", "mag"]


@dataclass(frozen=True)
class Event:
    time: datetime
    lon: float
    lat: float
    depth: float
    magnitude: float


@dataclass(frozen=True)
class Catalog:
    events: tuple  # time-ordered Events
    dropped: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        times = [e.time for e in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValidationError("catalog events must be time-ordered")

    def __len__(self):
        return len(self.events)

    def lons(self):
        return np.array([e.lon for e in self.events])

    def lats(self):
        return np.array([e.lat for e in self.events])

    def points(self):
        """(n, 2) lon/lat array."""
        return np.column_stack([self.lons(), self.lats()]) \
            if self.events else np.zeros((0, 2))


def parse_time(text: str) -> datetime:
    t = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t


def format_time(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


def parse_catalog(text: str) -> Catalog:
    """Parse catalog CSV with header time,lon,lat,depth,mag.

    Out-of-order rows are sorted; unparseable rows raise with line number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty catalog file", 1) from None
    if [h.strip().lower() for h in header] != HEADER:
        raise ParseError(f"expected header {','.join(HEADER)}", 1)
    events = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", lineno)
        try:
            t = parse_time(row[0].strip())
        except ValueError:
            raise ParseError(f"unparseable timestamp {row[0]!r}", lineno) from None
        try:
            lon, lat, depth, mag = (float(v.replace("−", "-")) for v in row[1:])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        events.append(Event(t, lon, lat, depth, mag))
    events.sort(key=lambda e: e.time)
    return Catalog(tuple(events))


def serialize_catalog(catalog: Catalog) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    for e in catalog.events:
        writer.writerow([format_time(e.time), "%.12g" % e.lon, "%.12g" % e.lat,
                         "%.12g" % e.depth, "%.12g" % e.magnitude])
    return out.getvalue()


def filter_catalog(catalog: Catalog, forecast: Forecast, mag_min: float,
                   depth_max: float = 30.0) -> Catalog:
    """Retain events with magnitude >= mag_min, inside the forecast window,
    shallower than depth_max, and inside an active pixel carrying at least
    one forecast bin.  Drop counts are reported in the result's metadata.
    """
    grid = forecast.grid
    events = catalog.events
    mag = np.array([e.magnitude for e in events], dtype=float)
    depth = np.array([e.depth for e in events], dtype=float)
    lon = np.array([e.lon for e in events], dtype=float)
    lat = np.array([e.lat for e in events], dtype=float)
    start, end = forecast.window_start, forecast.window_end
    in_window = np.array([start <= e.time < end for e in events], dtype=bool)
    # each event counts once, under the first check it fails, in this order
    # (a NaN magnitude or depth fails no check of its own)
    fails = {"magnitude": mag < mag_min, "window": ~in_window,
             "depth": depth > depth_max}
    loc_ok = grid.contains(lon, lat)
    if loc_ok.any():
        ix, iy = grid.pixel_of(lon[loc_ok], lat[loc_ok])
        loc_ok[loc_ok] = np.isin(grid.flat_index(ix, iy), forecast.pixel_index)
    fails["location"] = ~loc_ok
    dropped = {}
    remaining = np.ones(len(events), dtype=bool)
    for reason, fail in fails.items():
        hit = remaining & fail
        dropped[reason] = int(hit.sum())
        remaining &= ~hit
    kept = tuple(e for e, keep in zip(events, remaining.tolist()) if keep)
    return Catalog(kept, dropped=dropped)
