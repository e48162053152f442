"""Forecast grids: parsing, serialization, and magnitude extrapolation.

Forecast files are UTF-8 text with ten whitespace-separated columns per row:

    lon_min lon_max lat_min lat_max depth_min depth_max mag_lo mag_hi rate mask_flag

'#' starts a comment line.  A row with mask_flag 0 deactivates its pixel;
pixels never mentioned are inactive.  parse_forecast takes the file's
content as bytes (read without decoding) or as str.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .grids import Grid

# Default forecast window: the five-year experiment period the row format
# comes from.  parse_forecast accepts explicit bounds for anything else.
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
    depth_lo: np.ndarray = field(repr=False)
    depth_hi: np.ndarray = field(repr=False)
    window_start: datetime = DEFAULT_WINDOW_START
    window_end: datetime = DEFAULT_WINDOW_END

    def __post_init__(self):
        if self.window_start >= self.window_end:
            raise ValidationError("window_start must precede window_end")
        if np.any(self.rate < 0):
            raise ValidationError("negative forecast rate")
        if np.any(self.mag_lo >= self.mag_hi):
            raise ValidationError("mag_lo must be < mag_hi")
        dup = _first_duplicate(self.pixel_index, self.mag_lo)
        if dup is not None:
            pix, lo = self.pixel_index[dup[0]], self.mag_lo[dup[0]]
            raise _DuplicateKeyError(
                f"duplicate (pixel, magnitude-bin) key: pixel {pix}, "
                f"mag_lo {lo}", dup)

    @property
    def n_bins(self) -> int:
        return len(self.rate)

    @property
    def mag_min(self) -> float:
        return float(self.mag_lo.min()) if self.n_bins else float("nan")


class _DuplicateKeyError(ValidationError):
    """Two bins share a key; rows is (i, j) as _first_duplicate returns it,
    so parse_forecast can name their lines."""

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows


def _first_duplicate(pixel, mag_lo):
    """First repeated (pixel, mag_lo to 9 decimals) key, in row order.

    Returns (i, j): row i repeats the key first held by row j < i; None when
    no key repeats.  Two keys can only match between rows of one pixel whose
    mag_lo differ by at most 1e-9, so one sort and a comparison of
    neighbouring rows settle the usual case.  Only when such a pair exists
    does the row loop decide, with Python's decimal-exact round.
    """
    order = np.lexsort((mag_lo, pixel))
    p, m = pixel[order], mag_lo[order]
    # "not >" keeps the inf - inf = nan neighbours for the row loop
    near = (p[1:] == p[:-1]) & ~(m[1:] - m[:-1] > 2e-9)
    if not near.any():
        return None
    seen = {}
    for i, (pix, lo) in enumerate(zip(pixel.tolist(), mag_lo.tolist())):
        key = (int(pix), round(lo, 9))
        if key in seen:
            return i, seen[key]
        seen[key] = i
    return None


def _empty_forecast(window_start, window_end):
    grid = Grid.regular(0.0, 1.0, 0.0, 1.0, 1.0, 1.0,
                        active_mask=np.zeros((1, 1), dtype=bool))
    z = np.zeros(0)
    return Forecast(grid, z.astype(int), z, z, z, z, z,
                    window_start=window_start, window_end=window_end)


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
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        linenos.append(lineno)
        rows.append(vals)
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


def parse_forecast(text: bytes | str, window_start=DEFAULT_WINDOW_START,
                   window_end=DEFAULT_WINDOW_END) -> Forecast:
    """Parse forecast-file content, as bytes or str, into a Forecast.

    Bytes must be UTF-8 (anything else is a ParseError naming its line);
    a str is encoded to UTF-8 once and read the same way.  The grid is
    inferred from the union of rows; all rows must describe pixels of one
    common size on one common lattice.  The rows are read in one bulk pass
    and checked as arrays; the data is decoded and read again line by line
    only to name the line of an error.
    """
    data = text
    if isinstance(data, str):
        # a lone surrogate becomes invalid UTF-8: a ParseError below
        data = data.encode("utf-8", "surrogatepass")
    arr = _bulk_rows(data)
    if arr is None:
        arr = _rows_by_line(data)[1]
    if len(arr) == 0:
        return _empty_forecast(window_start, window_end)

    lon_lo, lon_hi, lat_lo, lat_hi = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    # non-finite edges and sizes are stopped below, as typed errors
    with np.errstate(over="ignore", invalid="ignore"):
        dxs = lon_hi - lon_lo
        dys = lat_hi - lat_lo
        dx, dy = dxs[0], dys[0]
        if (np.any(np.abs(dxs - dx) > _EDGE_TOL)
                or np.any(np.abs(dys - dy) > _EDGE_TOL)):
            raise SchemaError("inconsistent pixel sizes across rows")
    if dx <= 0 or dy <= 0:
        raise SchemaError("pixel edges must have positive extent")

    bad = (arr[:, 8] < 0) | (arr[:, 6] >= arr[:, 7])
    if bad.any():
        i = int(np.argmax(bad))
        lineno = _rows_by_line(data)[0][i]
        if arr[i, 8] < 0:
            raise ValidationError(f"line {lineno}: negative rate {float(arr[i, 8])}")
        raise ValidationError(f"line {lineno}: mag_lo >= mag_hi")

    # a NaN or infinite edge gets past the checks above; stop it before the
    # grid size's int(round(...))
    nonfinite = ~np.isfinite(arr[:, :4]).all(axis=1)
    if nonfinite.any():
        lineno = _rows_by_line(data)[0][int(np.argmax(nonfinite))]
        raise SchemaError(f"line {lineno}: pixel edges must be finite")

    lon_min, lon_max = lon_lo.min(), lon_hi.max()
    lat_min, lat_max = lat_lo.min(), lat_hi.max()
    # finite edges can still overflow the extent or the pixel count
    with np.errstate(over="ignore", invalid="ignore"):
        n_x, n_y = (lon_max - lon_min) / dx, (lat_max - lat_min) / dy
        if not (np.isfinite(n_x) and np.isfinite(n_y)):
            span = np.maximum((lon_hi - lon_min) / dx, (lat_hi - lat_min) / dy)
            lineno = _rows_by_line(data)[0][int(np.argmax(~np.isfinite(span)))]
            raise SchemaError(f"line {lineno}: grid extent is not finite")
    n_x, n_y = int(round(n_x)), int(round(n_y))
    if n_x * n_y > MAX_GRID_PIXELS:
        linenos = _rows_by_line(data)[0]
        west, east, south, north = (
            linenos[int(f(col))] for f, col in ((np.argmin, lon_lo),
                                                 (np.argmax, lon_hi),
                                                 (np.argmin, lat_lo),
                                                 (np.argmax, lat_hi)))
        raise SchemaError(
            f"grid bounding box of {n_x} x {n_y} pixels is above the largest "
            f"supported {MAX_GRID_PIXELS} pixels; its extreme rows are line "
            f"{west} (west), {east} (east), {south} (south) and {north} "
            f"(north)")

    ix = np.round((lon_lo - lon_min) / dx).astype(int)
    iy = np.round((lat_lo - lat_min) / dy).astype(int)
    if (np.any(np.abs(lon_lo - (lon_min + ix * dx)) > _EDGE_TOL) or
            np.any(np.abs(lat_lo - (lat_min + iy * dy)) > _EDGE_TOL)):
        raise SchemaError("pixel edges do not lie on a common lattice")

    pixel = iy * n_x + ix
    mask_flag = arr[:, 9] != 0

    active = np.zeros((n_y, n_x), dtype=bool)
    active[iy[mask_flag], ix[mask_flag]] = True
    # any masked-out row deactivates its pixel, regardless of other rows
    active[iy[~mask_flag], ix[~mask_flag]] = False

    grid = Grid(float(lon_min), float(lon_max), float(lat_min), float(lat_max),
                float(dx), float(dy), n_x, n_y, active)

    try:
        return Forecast(grid, pixel, arr[:, 6].copy(), arr[:, 7].copy(),
                        arr[:, 8].copy(), arr[:, 4].copy(), arr[:, 5].copy(),
                        window_start=window_start, window_end=window_end)
    except _DuplicateKeyError as exc:
        linenos = _rows_by_line(data)[0]
        raise ValidationError(
            f"line {linenos[exc.rows[0]]}: duplicate (pixel, magnitude-bin) "
            f"key (first seen on line {linenos[exc.rows[1]]})") from None


def serialize_forecast(forecast: Forecast) -> str:
    """Write a Forecast back to the ten-column row format."""
    grid = forecast.grid
    lines = []
    active = forecast.grid.active_mask
    for i in range(forecast.n_bins):
        pix = int(forecast.pixel_index[i])
        ix, iy = grid.unflatten(pix)
        flag = 1 if active[iy, ix] else 0
        lines.append(" ".join([
            "%.12g" % (grid.lon_min + ix * grid.dx),
            "%.12g" % (grid.lon_min + (ix + 1) * grid.dx),
            "%.12g" % (grid.lat_min + iy * grid.dy),
            "%.12g" % (grid.lat_min + (iy + 1) * grid.dy),
            "%.12g" % forecast.depth_lo[i],
            "%.12g" % forecast.depth_hi[i],
            "%.12g" % forecast.mag_lo[i],
            "%.12g" % forecast.mag_hi[i],
            "%.12g" % forecast.rate[i],
            str(flag),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")


def seismic_moment(magnitude):
    """Moment from magnitude, log10 M = 1.5 m + 9.05."""
    return 10.0 ** (1.5 * np.asarray(magnitude, dtype=float) + 9.05)


def tapered_gr_survivor(magnitude, b_value, corner_mag, ref_mag):
    """Relative survivor function of the tapered magnitude law.

    Normalized to 1 at ref_mag; the taper is exponential in seismic moment
    with corner moment at corner_mag, and the power-law index is (2/3) b.
    """
    beta = (2.0 / 3.0) * b_value
    m = seismic_moment(magnitude)
    m_ref = seismic_moment(ref_mag)
    m_c = seismic_moment(corner_mag)
    return (m_ref / m) ** beta * np.exp((m_ref - m) / m_c)


def gr_extrapolate(forecast: Forecast, new_mag_min: float, b_value: float,
                   corner_mag: float, special_regions=None,
                   mag_step: float = 0.1) -> Forecast:
    """Prepend magnitude bins from new_mag_min up to the forecast's lower bound.

    Per pixel, the new-bin rates follow the tapered magnitude distribution
    scaled so the total rate above the old bound is unchanged.  Pixels whose
    centers fall in a special region use that region's b-value.

    special_regions: list of ((lon_lo, lon_hi, lat_lo, lat_hi), b_value).
    """
    if b_value <= 0:
        raise ValidationError("b_value must be positive")
    if forecast.n_bins == 0:
        warnings.warn("gr_extrapolate on an empty forecast is a no-op")
        return forecast
    old_lo = forecast.mag_min
    if new_mag_min >= old_lo:
        warnings.warn(
            f"new_mag_min {new_mag_min} is not below the forecast bound "
            f"{old_lo}; extrapolation skipped")
        return forecast

    n_new = int(round((old_lo - new_mag_min) / mag_step))
    if abs(old_lo - new_mag_min - n_new * mag_step) > 1e-9:
        raise ValidationError(
            "extrapolation range must be a whole number of magnitude steps")
    edges = np.linspace(new_mag_min, old_lo, n_new + 1)

    grid = forecast.grid
    pixels = np.unique(forecast.pixel_index)
    per_pixel_total = {int(p): 0.0 for p in pixels}
    for p, r in zip(forecast.pixel_index, forecast.rate):
        per_pixel_total[int(p)] += float(r)

    def b_for_pixel(pix):
        if special_regions:
            cx, cy = grid.pixel_center(pix)
            for (lon_lo, lon_hi, lat_lo, lat_hi), b_special in special_regions:
                if lon_lo <= cx <= lon_hi and lat_lo <= cy <= lat_hi:
                    return b_special
        return b_value

    new_pix, new_lo, new_hi, new_rate = [], [], [], []
    depth_lo = float(forecast.depth_lo.min()) if forecast.n_bins else 0.0
    depth_hi = float(forecast.depth_hi.max()) if forecast.n_bins else 30.0
    for pix in pixels:
        total = per_pixel_total[int(pix)]
        b_pix = b_for_pixel(int(pix))
        surv = tapered_gr_survivor(edges, b_pix, corner_mag, ref_mag=old_lo)
        bin_mass = surv[:-1] - surv[1:]  # survivor at old_lo is 1
        for j in range(n_new):
            new_pix.append(int(pix))
            new_lo.append(edges[j])
            new_hi.append(edges[j + 1])
            new_rate.append(total * bin_mass[j])

    return Forecast(
        grid,
        np.concatenate([np.array(new_pix, dtype=int), forecast.pixel_index]),
        np.concatenate([np.array(new_lo), forecast.mag_lo]),
        np.concatenate([np.array(new_hi), forecast.mag_hi]),
        np.concatenate([np.array(new_rate), forecast.rate]),
        np.concatenate([np.full(len(new_pix), depth_lo), forecast.depth_lo]),
        np.concatenate([np.full(len(new_pix), depth_hi), forecast.depth_hi]),
        window_start=forecast.window_start,
        window_end=forecast.window_end,
    )
