"""Event catalogs: CSV parsing, serialization, and filtering.

A catalog file is CSV with the header time,lon,lat,depth,mag and one event
per row.  serialize_catalog writes each row in one canonical form: a UTC
timestamp to the millisecond with a zero-padded four-digit year
(YYYY-MM-DDTHH:MM:SS.mmmZ, so only years 1-9999 can be written), then the
four numbers as %.12g, each line ending in "\n".  parse_catalog reads text
in that form in one bulk pass: numpy parses the timestamps and np.loadtxt
the numbers.  Anything else (ISO offsets and naive times, quoting, CRLF,
blank lines, U+2212 minus signs, padded fields) goes to the row reader,
which is the reference and the only reader that names the line of a fault.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ParseError, ValidationError
from .forecasts import DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, Forecast

HEADER = ["time", "lon", "lat", "depth", "mag"]
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# The instants a four-digit year can hold: years 1-9999.
_FIRST = np.datetime64("0001-01-01", "us")
_END = np.datetime64("10000-01-01", "us")
_ROW = "%sZ,%.12g,%.12g,%.12g,%.12g\n"
# How each line of the bulk pass opens: a timestamp and a comma, with 0
# standing for any digit.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00.000Z,", np.uint8)


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


def _stamps(time: np.ndarray) -> list:
    """datetime64 instants as YYYY-MM-DDTHH:MM:SS.mmm strings, truncated to
    the millisecond; an instant outside years 1-9999 is a ValidationError
    naming the first."""
    inside = (time >= _FIRST) & (time < _END)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValidationError(
            f"event {i + 1} at {time[i]} is outside years 1-9999, which a "
            f"catalog file cannot hold")
    return np.datetime_as_string(time, unit="ms").tolist()


def utc64(times) -> np.ndarray:
    """Aware datetimes as datetime64[us] UTC instants.

    Each is measured from the epoch as an exact timedelta, which never
    leaves Python's range the way astimezone does for a year-1 time with
    a positive offset.
    """
    micros = [(t - _EPOCH) // _MICROSECOND for t in times]
    return np.array(micros, dtype=np.int64).astype("datetime64[us]")


def _csv_rows(reader):
    """The reader's rows; a csv.Error becomes a ParseError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _rows_by_line(text: str):
    """Read the events one CSV row at a time: (times, (n, 4) values).

    The reference reader, and the only one that knows line numbers: it
    raises ParseError naming the first line it cannot read.
    """
    rows = _csv_rows(csv.reader(io.StringIO(text)))
    try:
        header = next(rows)
    except StopIteration:
        raise ParseError("empty catalog file", 1) from None
    if [h.strip().lower() for h in header] != HEADER:
        raise ParseError(f"expected header {','.join(HEADER)}", 1)
    times, values = [], []
    for lineno, row in enumerate(rows, start=2):
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
    return utc64(times), np.array(values, dtype=float).reshape(-1, 4)


def _bulk_columns(text: str):
    """Read the events in one bulk pass: (times, (n, 4) values), or None.

    The pass takes only the canonical form serialize_catalog writes: the
    exact header, then lines that each end in "\n" and open with a
    YYYY-MM-DDTHH:MM:SS.mmmZ timestamp of a year 1-9999, followed by four
    numbers np.loadtxt reads.  Apart from the line ends, the text is
    printable ASCII with no space and no '"'.  None means the row reader
    must decide; on text the pass reads, _rows_by_line gives the same
    columns bit for bit.
    """
    head = ",".join(HEADER) + "\n"
    if (not text.startswith(head) or len(text) == len(head)
            or not text.endswith("\n") or not text.isascii() or '"' in text):
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)[len(head):]
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    # the line ends are the only control characters or spaces; each line
    # holds a timestamp, five fields, and no field over the csv module's
    # limit, which the row reader enforces
    width = ends - starts
    if (np.count_nonzero(data <= ord(" ")) != len(ends)
            or np.count_nonzero(data == ord(",")) != 4 * len(ends)
            or width.min() < len(_STAMP)
            or width.max() >= csv.field_size_limit()):
        return None
    # numpy and fromisoformat each read timestamps the other rejects, so the
    # shape comes first
    stamps = data[starts[:, None] + np.arange(len(_STAMP))]
    digit = _STAMP == ord("0")
    if not np.where(digit, (stamps >= ord("0")) & (stamps <= ord("9")),
                    stamps == _STAMP).all():
        return None
    try:
        # numpy warns on a "Z" suffix: it reads the 23 characters before it
        time = (np.ascontiguousarray(stamps[:, :23]).view("S23").ravel()
                .astype("datetime64[us]"))
        values = np.loadtxt(io.StringIO(text), delimiter=",", comments=None,
                            skiprows=1, usecols=(1, 2, 3, 4), ndmin=2)
    except ValueError:
        return None
    # numpy reads year 0, which fromisoformat rejects
    if np.any(time < _FIRST):
        return None
    return time, values


def parse_catalog(text: str) -> Catalog:
    """Parse catalog CSV with header time,lon,lat,depth,mag.

    Canonical text is read in one bulk pass, anything else by the row
    reader.  Out-of-order rows are sorted, rows of one instant kept in file
    order; unparseable rows raise with line number.
    """
    columns = _bulk_columns(text)
    time, values = _rows_by_line(text) if columns is None else columns
    order = np.argsort(time, kind="stable")
    return Catalog(time[order], *values[order].T)


def serialize_catalog(catalog: Catalog) -> str:
    """Catalog CSV in the canonical form parse_catalog reads in bulk; an
    event outside years 1-9999 is a ValidationError."""
    columns = (getattr(catalog, name).tolist() for name in HEADER[1:])
    return ",".join(HEADER) + "\n" + "".join(
        _ROW % row for row in zip(_stamps(catalog.time), *columns))


def filter_catalog(catalog: Catalog, forecast: Forecast, mag_min: float,
                   depth_max: float = 30.0) -> Catalog:
    """Retain events with magnitude >= mag_min, inside the forecast window,
    shallower than depth_max, and inside an active pixel carrying at least
    one forecast bin.  Drop counts are reported in the result's metadata.
    """
    start, end = utc64([DEFAULT_WINDOW_START, DEFAULT_WINDOW_END])
    # each event counts once, under the first check it fails, in this order
    # (a NaN magnitude or depth fails no check of its own)
    pixel = forecast.grid.active_pixel(catalog.lon, catalog.lat)
    fails = {"magnitude": catalog.mag < mag_min,
             "window": ~((start <= catalog.time) & (catalog.time < end)),
             "depth": catalog.depth > depth_max,
             "location": ~np.isin(pixel, forecast.pixel_index)}
    dropped = {}
    remaining = np.ones(len(catalog), dtype=bool)
    for reason, fail in fails.items():
        hit = remaining & fail
        dropped[reason] = int(hit.sum())
        remaining &= ~hit
    return Catalog(*(getattr(catalog, name)[remaining] for name in HEADER),
                   dropped=dropped)
