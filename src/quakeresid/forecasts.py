"""Forecast grids: parsing and validation.

Forecast files are UTF-8 text with ten whitespace-separated columns per row:

    lon_min lon_max lat_min lat_max depth_min depth_max mag_lo mag_hi rate mask_flag

'#' starts a comment line.  A row with mask_flag 0 deactivates its pixel;
pixels never mentioned are inactive; depths are read, not kept.
parse_forecast takes the file's content as bytes (read without decoding)
or as str.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .grids import Grid

# Forecast window of every parsed file: the five-year experiment period the
# row format comes from.
DEFAULT_WINDOW_START = datetime(2006, 1, 1, tzinfo=timezone.utc)
DEFAULT_WINDOW_END = datetime(2011, 1, 1, tzinfo=timezone.utc)

_EDGE_TOL = 1e-9
# Largest grid bounding box, in pixels, that parse_forecast builds: a global
# 0.05-degree grid has 25.9M.  The grid keeps a dense (n_y, n_x) mask and
# rate array, so a larger box is rejected before anything is allocated.
MAX_GRID_PIXELS = 50_000_000


@dataclass(frozen=True)
class Forecast:
    grid: Grid
    pixel_index: np.ndarray = field(repr=False)  # int, per bin
    mag_lo: np.ndarray = field(repr=False)
    mag_hi: np.ndarray = field(repr=False)
    rate: np.ndarray = field(repr=False)

    def __post_init__(self):
        """The bin checks: each bin lies in a pixel of the grid, has a
        finite, non-negative rate and mag_lo < mag_hi, and no two bins share
        a key."""
        pix, n_pixels = self.pixel_index, self.grid.n_x * self.grid.n_y
        on_grid = (pix >= 0) & (pix < n_pixels)
        if not on_grid.all():
            i = int(np.argmin(on_grid))
            raise _RowFault(f"pixel index {int(pix[i])} is outside the "
                            f"grid's {n_pixels} pixels", [i])
        rate, lo, hi = self.rate, self.mag_lo, self.mag_hi
        ok = (rate >= 0) & (rate < np.inf) & (lo < hi)
        if not ok.all():
            i = int(np.argmin(ok))
            r = float(rate[i])
            raise _RowFault(
                f"negative rate {r}" if r < 0 else
                f"rate {r} is not finite" if not r < np.inf else
                "mag_lo >= mag_hi" if lo[i] >= hi[i] else
                f"magnitude bin edges must be numbers, got {float(lo[i])} "
                f"and {float(hi[i])}", [i])
        dup = _first_duplicate(self.pixel_index, lo)
        if dup is not None:
            raise _RowFault(
                f"duplicate (pixel, magnitude-bin) key: pixel "
                f"{self.pixel_index[dup[0]]}, mag_lo {lo[dup[0]]}", dup,
                "line {}: duplicate (pixel, magnitude-bin) key (first seen "
                "on line {})")

    @property
    def n_bins(self) -> int:
        return len(self.rate)


class _RowFault(ValidationError):
    """A check failed at these row indices.  build_forecast raises
    kind(lines.format(*their line numbers)) in its place; lines defaults
    to the message after "line {}: "."""

    def __init__(self, message, rows, lines=None, kind=ValidationError):
        super().__init__(message)
        self.rows, self.kind = rows, kind
        self.lines = lines or "line {}: " + message


def _close_neighbours(pixel, mag_lo, order) -> bool:
    """Whether two rows next to each other in order share a pixel and have
    mag_lo at most 2e-9 apart ("not >" also counts inf - inf = nan)."""
    p, m = pixel[order], mag_lo[order]
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.any((p[1:] == p[:-1]) & ~(m[1:] - m[:-1] > 2e-9)))


def _first_duplicate(pixel, mag_lo):
    """First repeated (pixel, mag_lo to 9 decimals) key, in row order.

    Returns (i, j): row i repeats the key first held by row j < i; None when
    no key repeats.  Two keys can only match between rows of one pixel whose
    mag_lo differ by at most 1e-9.  A stable sort by pixel keeps each
    pixel's rows in file order, so when their bins rise by more than 2e-9,
    as in a file written bin after bin, no key repeats.  Otherwise a sort by
    (pixel, mag_lo) and the same comparison of neighbouring rows settle the
    usual case.  Only when such a pair exists does the row loop decide, with
    Python's decimal-exact round.
    """
    if (not _close_neighbours(pixel, mag_lo, np.argsort(pixel, kind="stable"))
            or not _close_neighbours(pixel, mag_lo,
                                     np.lexsort((mag_lo, pixel)))):
        return None
    seen = {}
    for i, (pix, lo) in enumerate(zip(pixel.tolist(), mag_lo.tolist())):
        key = (int(pix), round(lo, 9))
        if key in seen:
            return i, seen[key]
        seen[key] = i
    return None


def decode_utf8(data: bytes) -> str:
    """data as text; invalid UTF-8 is a ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not valid UTF-8 text",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _rows_by_line(data: bytes):
    """Read the data rows one line at a time: (line numbers, (n, 10) array).

    The reference reader, and the only one that knows line numbers: it
    raises ParseError naming the first line that is not ten numbers.
    """
    linenos, rows = [], []
    for lineno, raw in enumerate(decode_utf8(data).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.replace("−", "-").split()
        if len(fields) != 10:
            raise ParseError(f"expected 10 columns, got {len(fields)}", lineno)
        try:
            rows.append([float(f) for f in fields])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        linenos.append(lineno)
    return linenos, np.array(rows, dtype=float).reshape(-1, 10)


# Characters at which str.splitlines ends a line but np.loadtxt sees
# whitespace inside one: ASCII bytes, then the non-ASCII ones.  A lone "\r"
# is a third case: np.loadtxt ends a line there, except inside a comment,
# which it runs on to the next "\n".
_LOADTXT_UNSPLIT_BYTES = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
_LOADTXT_UNSPLIT_CHARS = ("\x85", "\u2028", "\u2029")


def _bulk_rows(data: bytes):
    """Read the data rows in one np.loadtxt pass: an (n, 10) array, or None.

    None means the line reader must decide: the data is not UTF-8, holds a
    line break that np.loadtxt does not split as str.splitlines does, a
    token np.loadtxt rejects (float() accepts a few more, such as "1_0"),
    or rows that are not ten columns.  Whatever np.loadtxt accepts
    otherwise, _rows_by_line reads to the same array.  ASCII data goes to
    np.loadtxt as it is; only other data is decoded, to turn U+2212 into
    "-", and encoded again.
    """
    if (any(b in data for b in _LOADTXT_UNSPLIT_BYTES)
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    if not data.isascii():
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if any(c in text for c in _LOADTXT_UNSPLIT_CHARS):
            return None
        data = text.replace("−", "-").encode("utf-8")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arr = np.loadtxt(io.BytesIO(data), comments="#", ndmin=2,
                             encoding="utf-8")
    except ValueError:
        return None
    return arr if arr.shape[1] == 10 else None


def read_rows(data: bytes) -> np.ndarray:
    """The data rows of forecast-file bytes as an (n, 10) float array: one
    bulk pass, or the line reader where the bulk reader cannot decide."""
    arr = _bulk_rows(data)
    return _rows_by_line(data)[1] if arr is None else arr


def parse_forecast(text: bytes | str) -> Forecast:
    """Parse forecast-file content, as bytes or str, into a Forecast.

    Bytes must be UTF-8 (anything else is a ParseError naming its line);
    a str is encoded to UTF-8 once and read the same way.  The rows are
    read by read_rows and checked by build_forecast.
    """
    if isinstance(text, str):
        # a lone surrogate becomes invalid UTF-8: a ParseError below
        text = text.encode("utf-8", "surrogatepass")
    return build_forecast(read_rows(text), text)


def build_forecast(arr: np.ndarray, data: bytes) -> Forecast:
    """The Forecast of rows that read_rows(data) returned, after every check.

    The grid is inferred from the union of rows; all rows must describe
    pixels of one common size on one common lattice.  The geometry checks
    run first, then Forecast's bin checks.  The rows are checked as arrays;
    data is decoded and read again line by line only to name the lines of
    a fault.  The Forecast takes the columns of a column-major arr as they
    are, without a copy, so arr must not change afterwards.
    """
    try:
        return _build(arr)
    except _RowFault as fault:
        linenos = _rows_by_line(data)[0]
        raise fault.kind(fault.lines.format(
            *(linenos[i] for i in fault.rows))) from None


def _beyond_tol(diff: np.ndarray) -> bool:
    """Whether any |diff| exceeds _EDGE_TOL; diff is overwritten."""
    return bool(np.any(np.abs(diff, out=diff) > _EDGE_TOL))


def _build(arr: np.ndarray) -> Forecast:
    """build_forecast's checks; a fault at known rows is a _RowFault.

    The checks take one column at a time, a contiguous one when arr is
    column-major (as a cache entry is), and do their arithmetic in one
    scratch column, so a large forecast costs few fresh pages.
    """
    if len(arr) == 0:
        grid = Grid(0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1, 1, np.zeros((1, 1), bool))
        z = np.zeros(0)
        return Forecast(grid, z.astype(int), z, z, z)
    lon_lo, lon_hi, lat_lo, lat_hi, _, _, mag_lo, mag_hi, rate, flag = arr.T
    buf = np.empty(len(arr))
    # non-finite edges and sizes are stopped below, as typed errors
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = lon_hi[0] - lon_lo[0], lat_hi[0] - lat_lo[0]
        for hi, lo, size in ((lon_hi, lon_lo, dx), (lat_hi, lat_lo, dy)):
            np.subtract(hi, lo, out=buf)
            if _beyond_tol(np.subtract(buf, size, out=buf)):
                raise SchemaError("inconsistent pixel sizes across rows")
    if dx <= 0 or dy <= 0:
        raise SchemaError("pixel edges must have positive extent")

    # a NaN or infinite edge gets past the checks above; stop it before the
    # grid size's int(round(...))
    finite = np.isfinite(lon_lo)
    for edge in (lon_hi, lat_lo, lat_hi):
        finite &= np.isfinite(edge)
    if not finite.all():
        raise _RowFault("pixel edges must be finite", [np.argmin(finite)],
                        kind=SchemaError)

    lon_min, lon_max = lon_lo.min(), lon_hi.max()
    lat_min, lat_max = lat_lo.min(), lat_hi.max()
    # finite edges can still overflow the extent or the pixel count
    with np.errstate(over="ignore", invalid="ignore"):
        n_x, n_y = (lon_max - lon_min) / dx, (lat_max - lat_min) / dy
        if not (np.isfinite(n_x) and np.isfinite(n_y)):
            span = np.maximum((lon_hi - lon_min) / dx, (lat_hi - lat_min) / dy)
            raise _RowFault("grid extent is not finite",
                            [np.argmax(~np.isfinite(span))], kind=SchemaError)
    n_x, n_y = int(round(n_x)), int(round(n_y))
    if n_x * n_y > MAX_GRID_PIXELS:
        message = (f"grid bounding box of {n_x} x {n_y} pixels is above the "
                   f"largest supported {MAX_GRID_PIXELS} pixels")
        raise _RowFault(
            message, [np.argmin(lon_lo), np.argmax(lon_hi), np.argmin(lat_lo),
                      np.argmax(lat_hi)],
            message + "; its extreme rows are line {} (west), {} (east), {} "
            "(south) and {} (north)", SchemaError)

    # each row's lattice index round((lo - lo_min) / size), and its lower
    # edge within _EDGE_TOL of lo_min + index * size
    index = []
    for lo, lo_min, size in ((lon_lo, lon_min, dx), (lat_lo, lat_min, dy)):
        np.subtract(lo, lo_min, out=buf)
        index.append(np.round(np.divide(buf, size, out=buf), out=buf)
                     .astype(int))
        np.add(np.multiply(index[-1], size, out=buf), lo_min, out=buf)
        if _beyond_tol(np.subtract(lo, buf, out=buf)):
            raise SchemaError("pixel edges do not lie on a common lattice")
    ix, pixel = index
    pixel *= n_x
    pixel += ix                                 # iy * n_x + ix

    active = np.zeros(n_y * n_x, dtype=bool)
    active[pixel] = True
    # any masked-out row deactivates its pixel, regardless of other rows
    active[pixel[flag == 0]] = False

    grid = Grid(float(lon_min), float(lon_max), float(lat_min), float(lat_max),
                float(dx), float(dy), n_x, n_y, active.reshape(n_y, n_x))
    # contiguous columns are kept as they are; strided ones are copied out
    return Forecast(grid, pixel, *map(np.ascontiguousarray,
                                      (mag_lo, mag_hi, rate)))

