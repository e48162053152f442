"""Second-order statistics: K-functions, their centered L display,
analytic confidence bands, and simulation envelopes.

One estimator computes every K curve: a prefactor c times the sum, over
ordered pairs j != i at distance <= r, of w_i * w_j * s_ij, with point
weights w and edge weights s (1 without correction).  The weighted K takes
w = 1 / null intensity and c = min(null) / integral(null).  Plain K is the
constant-weight case w = A / n, c = 1 / A.  A simulation envelope applies
the estimator it brackets to homogeneous Poisson patterns, with the same
weights, prefactor, region and edge correction.

Isotropic edge correction weights a pair by the reciprocal fraction of the
circle centered at the first point and passing through the second that lies
inside the region.  Both paths are exact: interval arithmetic for full
rectangles, and for irregular masks the arcs between the circle's crossings
with the grid lines, each inside one pixel.  On a mask, a circle shorter
than its centre pixel's clearance (how many whole pixels of active grid
surround that pixel on every side, found with a summed-area table) lies
wholly inside and is not cut: its fraction is exactly 1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import Grid
from .intensity import IntensityField, evaluate, extremes, integrate
from .rng import SeededStream
from .simulate import simulate_homogeneous

DEFAULT_R_MAX = 0.7
DEFAULT_R_STEP = 0.01
# Most radii default_radii builds: every K curve and every envelope
# replicate holds one value per radius.
MAX_RADII = 10_000
# Most values one simulation envelope holds, replicates times radii: 80 MB
# of float64, enough for the default 1000 replicates at MAX_RADII radii.
MAX_ENVELOPE_VALUES = 10_000_000
# Coverage of every confidence band.  The bands compute their quantiles
# from it (0.5 + BAND_LEVEL / 2, and (1 - BAND_LEVEL) / 2 from either end
# of an envelope); literals would differ, as 1 - 0.95 is not 0.05.
BAND_LEVEL = 0.95

# Floor on a circle's inside fraction: one pair's edge weight is at most 720.
_MIN_ARC_FRACTION = 1.0 / 720
_MASK_CHUNK = 4096  # circles cut at once by circle_fraction_mask


def default_radii(r_max: float = DEFAULT_R_MAX,
                  r_step: float = DEFAULT_R_STEP) -> np.ndarray:
    """round(r_max / r_step) evenly spaced radii from r_step to r_max."""
    if not (math.isfinite(r_max) and math.isfinite(r_step)
            and r_max > 0 and r_step > 0):
        raise ValidationError(
            f"rmax and dr must be finite and positive, got rmax={r_max!r}, "
            f"dr={r_step!r}")
    count = r_max / r_step   # inf for some finite pairs, e.g. 1e300 / 1e-300
    if count > MAX_RADII:
        raise ValidationError(
            f"rmax / dr asks for {count:.3g} radii, above the supported "
            f"{MAX_RADII}")
    n = int(round(count))
    if n < 1:
        raise ValidationError("rmax must be at least dr")
    return radii_grid(np.linspace(r_step, r_max, n))


def radii_grid(r_values) -> np.ndarray:
    """Validated radii: strictly increasing, all positive."""
    r = np.asarray(r_values, dtype=float)
    if r.ndim != 1 or len(r) == 0:
        raise ValidationError("radii must be a non-empty 1-D sequence")
    if np.any(r <= 0) or np.any(np.diff(r) <= 0):
        raise ValidationError("radii must be strictly increasing and positive")
    return r


@dataclass(frozen=True)
class KCurve:
    radii: np.ndarray = field(repr=False)
    k_values: np.ndarray = field(repr=False)
    kind: str                      # "plain" | "weighted"
    bands: tuple | None = field(default=None, repr=False)  # (lower, upper), K units
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if np.any(self.k_values < 0):
            raise ValidationError("K estimates must be non-negative")

    @property
    def centered_l(self) -> np.ndarray:
        """Variance-stabilized display: sqrt(K / pi) - r."""
        return np.sqrt(self.k_values / np.pi) - self.radii

    @property
    def centered_bands(self):
        if self.bands is None:
            return None
        lo, hi = self.bands
        return (np.sqrt(np.maximum(lo, 0.0) / np.pi) - self.radii,
                np.sqrt(np.maximum(hi, 0.0) / np.pi) - self.radii)

    def to_csv(self) -> str:
        """CSV: r, k, centered_l, lower, upper, kind (bands on centered-L
        scale; empty when absent)."""
        cb = self.centered_bands
        out = io.StringIO()
        out.write("r,k,centered_l,lower,upper,kind\n")
        for i, r in enumerate(self.radii):
            lo = "%.12g" % cb[0][i] if cb is not None else ""
            hi = "%.12g" % cb[1][i] if cb is not None else ""
            out.write("%.12g,%.12g,%.12g,%s,%s,%s\n" % (
                r, self.k_values[i], self.centered_l[i], lo, hi, self.kind))
        return out.getvalue()


# ---------------------------------------------------------------------------
# pair search: cell buckets of side slightly above r_max, then exact filtering

_PAIR_BLOCK = 4096   # centres whose candidate pairs are expanded at once
_MAX_CELLS = 2 ** 20  # cells per axis at most, so int64 cell keys never overflow


def pairs_within(points: np.ndarray, r_max: float):
    """All unordered pairs (i < j) at distance <= r_max.

    Returns (i, j, distance) arrays sorted by (i, j).  Points are bucketed
    into cells of side r_max widened by 1e-9 relative (wider where the span
    would need more than 2^20 cells on an axis), so every pair within r_max
    lies in the same or a neighbouring cell.  Candidate distances are
    computed with np.hypot and filtered exactly, so pairs at exactly r_max
    are kept.  Candidates are expanded for _PAIR_BLOCK centres at a time.
    Points with a non-finite coordinate pair with nothing.
    """
    pts = np.asarray(points, dtype=float)
    finite = np.flatnonzero(np.isfinite(pts).all(axis=-1))
    if len(finite) < 2 or not r_max >= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    # cells from halved coordinates: the span of any finite set is finite
    half = 0.5 * pts[finite]
    lo = half.min(axis=0)
    side = np.maximum(0.5 * r_max * (1 + 1e-9),
                      (half.max(axis=0) - lo) / _MAX_CELLS)
    side[side == 0] = 1.0   # every point in one cell
    cell = np.floor((half - lo) / side).astype(np.int64)
    width = int(cell[:, 0].max()) + 2   # a row's keys never reach the next's
    key = cell[:, 1] * width + cell[:, 0]
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys = pts[finite[order], 0], pts[finite[order], 1]
    m = len(key)
    # each centre's candidates, as two ranges of sorted positions: later
    # points in cells (cx, cy) and (cx + 1, cy), then every point in cells
    # cx - 1 .. cx + 1 of row cy + 1
    starts = np.concatenate([np.arange(1, m + 1),
                             np.searchsorted(key, key + width - 1)])
    stops = np.concatenate([
        np.searchsorted(key, key + 1, side="right"),
        np.searchsorted(key, key + width + 1, side="right")])
    found_i, found_j, found_d = [], [], []
    for b in range(0, m, _PAIR_BLOCK):
        block = np.arange(b, min(b + _PAIR_BLOCK, m))
        ranges = np.concatenate([block, block + m])
        counts = stops[ranges] - starts[ranges]
        total = int(counts.sum())
        src = np.repeat(np.concatenate([block, block]), counts)
        dst = np.repeat(starts[ranges] - (np.cumsum(counts) - counts),
                        counts) + np.arange(total)
        with np.errstate(over="ignore"):   # an overflowed distance is inf
            d = np.hypot(xs[src] - xs[dst], ys[src] - ys[dst])
        keep = d <= r_max
        found_i.append(src[keep])
        found_j.append(dst[keep])
        found_d.append(d[keep])
    a = finite[order[np.concatenate(found_i)]]
    c = finite[order[np.concatenate(found_j)]]
    ii, jj = np.minimum(a, c), np.maximum(a, c)
    by_pair = np.argsort(ii * len(pts) + jj)
    return ii[by_pair], jj[by_pair], np.concatenate(found_d)[by_pair]


# ---------------------------------------------------------------------------
# isotropic edge correction

def circle_fraction_rect(cx, cy, t, x0, x1, y0, y1):
    """Exact fraction of the circle of radius t centered at (cx, cy) lying
    inside the rectangle [x0, x1] x [y0, y1].

    The outside part is a union of up to four arcs, one per side; arcs of
    opposite sides never overlap and triple overlaps are empty, so
    inclusion-exclusion over adjacent side pairs is exact at every radius,
    for centres inside the rectangle and outside it alike.  (Two arcs can
    also meet on their far sides, but only for a circle that misses the
    rectangle; its outside part then exceeds 2 pi and the fraction clips
    to 0.)
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        alphas = []
        for d in (x1 - cx, y1 - cy, cx - x0, cy - y0):  # right, top, left, bottom
            ratio = np.clip(d / np.maximum(t, 1e-300), -1.0, 1.0)
            alphas.append(np.where(d < t, np.arccos(ratio), 0.0))
    outside = 2.0 * sum(alphas)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        # arcs centred pi/2 apart overlap by a + b - pi/2, or by all of the
        # shorter arc when the longer one (past pi/2 of half-width: a
        # centre outside the rectangle) holds it
        outside -= np.maximum(0.0, np.minimum(
            alphas[a] + alphas[b] - np.pi / 2.0,
            2.0 * np.minimum(alphas[a], alphas[b])))
    return np.clip(1.0 - outside / (2.0 * np.pi), 0.0, 1.0)


def _line_offsets(centre, r, origin, step, n_lines):
    """Offsets (line - centre) / r of n_lines consecutive grid lines
    origin + k * step, k >= 0, from just below centre - r on, and whether
    each line cuts the circle.  Lines past the grid only split arcs that
    lie outside it."""
    first = np.maximum(np.ceil((centre - r - origin) / step) - 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0: no cut
        u = (origin + (first + np.arange(n_lines)) * step - centre) / r
    return u, np.abs(u) <= 1.0


def _cut_fractions(cx, cy, t, grid: Grid, t_max: float):
    """Fractions of the circles inside the active pixels, from the arcs
    between their crossings with the grid lines.  Every circle gets the
    cut angles a circle of radius t_max needs, padded with angle 0."""
    # lines one circle can cut on each axis, with a margin for rounding
    nx = min(grid.n_x + 1, int(2.0 * t_max / grid.dx) + 3)
    ny = min(grid.n_y + 1, int(2.0 * t_max / grid.dy) + 3)
    x, y, r = cx[:, None], cy[:, None], t[:, None]
    u, cut_x = _line_offsets(x, r, grid.lon_min, grid.dx, nx)
    v, cut_y = _line_offsets(y, r, grid.lat_min, grid.dy, ny)
    a = np.arccos(np.where(cut_x, u, 1.0))   # 0 and 2 pi where uncut
    b = np.arcsin(np.where(cut_y, v, 0.0))   # 0 where uncut
    ang = np.concatenate([
        np.zeros_like(r), a, 2.0 * np.pi - a,
        np.where(b < 0.0, b + 2.0 * np.pi, b),
        np.where(cut_y, np.pi - b, 0.0),
        np.full_like(r, 2.0 * np.pi)], axis=1)
    ang.sort(axis=1)
    arc = ang[:, 1:] - ang[:, :-1]
    mid = ang[:, :-1] + 0.5 * arc
    px = x + r * np.cos(mid)
    py = y + r * np.sin(mid)
    # the pixel test stays inline: grid.contains gives the same flags but
    # made circle_fraction_mask a quarter to a half slower on a RELM-scale
    # masked grid (69k pairs)
    inside = (px >= grid.lon_min) & (px <= grid.lon_max) & \
             (py >= grid.lat_min) & (py <= grid.lat_max)
    # truncation is floor wherever inside holds
    ix = np.clip(((px - grid.lon_min) / grid.dx).astype(np.intp),
                 0, grid.n_x - 1)
    iy = np.clip(((py - grid.lat_min) / grid.dy).astype(np.intp),
                 0, grid.n_y - 1)
    inside &= grid.active_mask.ravel()[iy * grid.n_x + ix]
    arc *= inside
    return arc.sum(axis=1) / (2.0 * np.pi)


def circle_fraction_mask(cx, cy, t, grid: Grid):
    """Exact fraction of the circle inside the active-pixel union.

    The grid lines x = lon_min + k dx and y = lat_min + k dy cut each circle
    into arcs that each lie inside one pixel or outside the grid; the arcs
    whose midpoints fall in active pixels are summed (Ripley 1988; Ohser
    1983).  Every circle of a call gets the same number of cut angles, set
    by the call's largest radius and padded with angle 0 (zero-length
    arcs), so a result does not depend on how the call is chunked.  Circles
    are cut in chunks of _MASK_CHUNK, so peak memory is bounded by the
    chunk, not by the number of circles.  A circle of radius 0 takes its
    centre pixel's flag.

    Interior circles are not cut.  A pixel's clearance is k min(dx, dy)
    for the largest k whose (2k + 1) x (2k + 1) block of pixels centred on
    it is all active and inside the grid; a circle whose radius lies
    strictly below its centre pixel's clearance lies inside that block and
    gets fraction exactly 1.  One summed-area table of the mask answers
    this for each circle with the block of the smallest k that would
    suffice.  Centres outside the grid or in inactive pixels, and circles
    of radius 0, are always cut.
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.ones(len(t))
    if len(t) == 0:
        return out
    # interior shortcut: k = floor(t / d) + 1 pixels is the least clearance
    # that clears radius t, so test the block of that k
    d = min(grid.dx, grid.dy)
    near = np.flatnonzero((t > 0) & (cx >= grid.lon_min)
                          & (cx <= grid.lon_max) & (cy >= grid.lat_min)
                          & (cy <= grid.lat_max))
    k = np.minimum(t[near] / d, grid.n_x + grid.n_y).astype(np.intp) + 1
    ix, iy = grid.pixel_of(cx[near], cy[near])
    fits = (t[near] < k * d) & (ix >= k) & (ix + k < grid.n_x) \
        & (iy >= k) & (iy + k < grid.n_y)
    near, k, ix, iy = near[fits], k[fits], ix[fits], iy[fits]
    sat = np.zeros((grid.n_y + 1, grid.n_x + 1), dtype=np.intp)
    sat[1:, 1:] = grid.active_mask.cumsum(axis=0).cumsum(axis=1)
    block = sat[iy + k + 1, ix + k + 1] - sat[iy - k, ix + k + 1] \
        - sat[iy + k + 1, ix - k] + sat[iy - k, ix - k]
    to_cut = np.ones(len(t), dtype=bool)
    to_cut[near[block == (2 * k + 1) ** 2]] = False
    to_cut = np.flatnonzero(to_cut)
    t_max = float(t.max())
    for lo in range(0, len(to_cut), _MASK_CHUNK):
        part = to_cut[lo:lo + _MASK_CHUNK]
        out[part] = _cut_fractions(cx[part], cy[part], t[part], grid, t_max)
    return out


def _correction_weights(region, centers, dists):
    """Per-pair weight s = 1 / (circle fraction inside the region)."""
    if not isinstance(region, Grid):
        raise ValidationError(
            "isotropic correction is only defined for grid regions")
    if region.active_mask.all():
        frac = circle_fraction_rect(centers[:, 0], centers[:, 1], dists,
                                    *region.bbox)
    else:
        frac = circle_fraction_mask(centers[:, 0], centers[:, 1], dists,
                                    region)
    return 1.0 / np.maximum(frac, _MIN_ARC_FRACTION)


# ---------------------------------------------------------------------------
# estimators

_PAIR_CONVENTION = "ordered j!=i, non-strict <="


def _weighted_k_from_weights(pts, point_weights, prefactor, region, radii,
                             edge_correction) -> np.ndarray:
    """The one K estimator: prefactor times the sum over ordered pairs
    j != i at distance <= r of w_i w_j s_ij.  Fewer than two points give
    zeros."""
    if edge_correction not in ("none", "isotropic"):
        raise ValidationError(f"unknown edge correction {edge_correction!r}")
    ii, jj, dd = pairs_within(pts, float(radii[-1]))
    pw = point_weights[ii] * point_weights[jj]
    if edge_correction == "isotropic":
        s_ij = _correction_weights(region, pts[ii], dd)
        s_ji = _correction_weights(region, pts[jj], dd)
        pair_terms = pw * (s_ij + s_ji)  # both orientations of each pair
    else:
        pair_terms = 2.0 * pw
    order = np.argsort(dd, kind="stable")
    csum = np.concatenate([[0.0], np.cumsum(pair_terms[order])])
    return prefactor * csum[np.searchsorted(dd[order], radii, side="right")]


def _constant_rate_k(pts, rate, region, radii, edge_correction) -> np.ndarray:
    """K against a homogeneous null of the given rate: weights 1/rate and
    prefactor rate / (rate * A)."""
    if rate <= 0:
        raise ValidationError("null rate must be positive")
    return _weighted_k_from_weights(pts, np.full(len(pts), 1.0 / rate),
                                    rate / (rate * region.area), region,
                                    radii, edge_correction)


def ripley_k(points, region, radii, edge_correction: str = "none") -> KCurve:
    """Plain K: the constant-rate K with the estimated rate n / A, that is
    (A / n^2) times the sum over ordered pairs at distance <= r of the
    pair's correction weight."""
    pts = np.asarray(points, dtype=float)
    radii = radii_grid(radii)
    n = len(pts)
    if n < 2:
        raise ValidationError("Ripley's K needs at least two points")
    k = _constant_rate_k(pts, n / region.area, region, radii, edge_correction)
    return KCurve(radii, k, "plain",
                  meta={"pair_convention": _PAIR_CONVENTION,
                        "edge_correction": edge_correction})


def weighted_k(points, null_field: IntensityField, radii,
               edge_correction: str = "none") -> KCurve:
    """Weighted K estimator against an inhomogeneous null intensity:
    prefactor b / integral(null), ordered pairs j != i weighted by the
    reciprocal null intensity at both points."""
    pts = np.asarray(points, dtype=float)
    radii = radii_grid(radii)
    if len(pts) < 2:
        raise ValidationError("weighted K needs at least two points")
    # evaluate names the first point outside the active pixels
    lam = np.asarray(evaluate(null_field, pts[:, 0], pts[:, 1]), dtype=float)
    if np.any(lam == 0):
        i = int(np.argmax(lam == 0))
        raise ValidationError(f"point at index {i} (lon {pts[i, 0]}, lat "
                              f"{pts[i, 1]}) is in a zero-rate pixel")
    b = extremes(null_field)[0]
    total = integrate(null_field)
    if total <= 0:
        raise ValidationError("null field integrates to zero")
    k = _weighted_k_from_weights(pts, 1.0 / lam, b / total,
                                 null_field.grid, radii, edge_correction)
    return KCurve(radii, k, "weighted",
                  meta={"pair_convention": _PAIR_CONVENTION,
                        "edge_correction": edge_correction,
                        "prefactor": "min(null)/integral(null)"})


def weighted_k_constant(points, null_rate: float, region, radii,
                        edge_correction: str = "none") -> KCurve:
    """Weighted K against a constant null rate over an arbitrary region;
    this is the homogeneity test applied to residual point sets."""
    pts = np.asarray(points, dtype=float)
    radii = radii_grid(radii)
    if len(pts) < 2:
        raise ValidationError("weighted K needs at least two points")
    k = _constant_rate_k(pts, null_rate, region, radii, edge_correction)
    return KCurve(radii, k, "weighted",
                  meta={"pair_convention": _PAIR_CONVENTION,
                        "edge_correction": edge_correction,
                        "null_rate": null_rate})


# ---------------------------------------------------------------------------
# bands

def wk_confidence_bands(radii, area: float, total_intensity: float):
    """Normal-approximation BAND_LEVEL bands for the weighted K under the
    null: mean pi r^2, variance 2 pi r^2 A / (integral of null intensity)^2."""
    radii = radii_grid(radii)
    if total_intensity <= 0:
        raise ValidationError("total intensity must be positive")
    from statistics import NormalDist  # loaded only by the analytic bands
    z = NormalDist().inv_cdf(0.5 + BAND_LEVEL / 2.0)
    mean = np.pi * radii ** 2
    half = z * np.sqrt(2.0 * np.pi * radii ** 2 * area) / total_intensity
    return mean - half, mean + half


def check_envelope_size(n_sims: int, n_radii: int) -> None:
    """ValidationError unless an envelope of n_sims replicates at n_radii
    radii has two replicates or more and fits MAX_ENVELOPE_VALUES."""
    if n_sims < 2:
        raise ValidationError("envelope needs at least two simulations")
    if n_sims * n_radii > MAX_ENVELOPE_VALUES:
        raise ValidationError(
            f"{n_sims} simulations at {n_radii} radii are above the "
            f"supported {MAX_ENVELOPE_VALUES} envelope values")


def envelope_bands(region, rate: float, radii, n_sims: int,
                   stream: SeededStream, edge_correction: str = "none"):
    """Middle-BAND_LEVEL empirical range of the K that weighted_k_constant
    computes at this rate, over homogeneous Poisson simulations on the
    region: same weights, prefactor, region and edge correction.  Returns
    (lower, upper) order statistics in K units."""
    radii = radii_grid(radii)
    check_envelope_size(n_sims, len(radii))
    sims = np.empty((n_sims, len(radii)))
    for j in range(n_sims):
        xs, ys = simulate_homogeneous(region, rate, stream.substream(j))
        sims[j] = _constant_rate_k(np.column_stack([xs, ys]), rate, region,
                                   radii, edge_correction)
    alpha = 1.0 - BAND_LEVEL
    sims.sort(axis=0)
    lo_idx = int(np.floor(alpha / 2.0 * n_sims))
    hi_idx = int(np.ceil((1.0 - alpha / 2.0) * n_sims)) - 1
    return sims[lo_idx], sims[hi_idx]
