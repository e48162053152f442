"""Second-order statistics: K-functions, their centered L display, and
their confidence bands.

One function, weighted_k, computes every K curve: b / integral(lambda)
times the sum, over ordered pairs j != i at distance <= r, of
s_ij / (lambda_i lambda_j), with lambda the null intensity, b its infimum
and s_ij the edge weight (1 without correction).  The null is an
IntensityField (a forecast's own intensity, over its grid) or a constant
rate over a region (a residual process's homogeneous rate).  At a
constant rate k it is the sum of s_ij over k^2 A, Ripley's K at rate k
(Baddeley, Moller & Waagepetersen 2000), so ripley_k is weighted_k at the
estimated rate n / A.  k_with_bands adds the BAND_LEVEL band that the
null's region chooses: analytic on a Grid; on a rescaled region, the
envelope of weighted_k at the null rate over homogeneous Poisson patterns
drawn on that region with the same edge correction.

One pair search feeds the estimator: a cell-bucket search yields the pairs
within the largest radius a block at a time, blocks cut by candidate count.
Each block's terms are added into radius bins, and one cumulative sum over
the bins gives K at every radius, so memory follows the block, not the
number of pairs.  The blocks fix the order of the sum, and with it the last
bits of K.

Isotropic edge correction weights a pair by the reciprocal fraction of the
circle centered at the first point and passing through the second that lies
inside the region.  One exact routine serves every region: the region's
cells, merged into runs along each row, are disjoint rectangles, and the
circle's fraction is the sum of its exact fractions in each of them.  On a
Grid, a circle that lies wholly inside the region, with a relative margin
of 1e-9 against its pixel's clearance to the complement, has fraction
exactly 1 and skips that sum; most circles of a large region do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateInfimumError, ValidationError,
                     check_finite_positive)
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
# A circle is wholly inside a Grid when its radius is at most this share of
# its pixel's clearance.  The rest absorbs the rounding of the pixel edges
# and of the centre's pixel lookup: a circle tangent to the complement
# within rounding can cross it, losing about sqrt(2 delta / t) / pi of its
# fraction for a crossing delta, so it takes the run sum.
_CLEARANCE_MARGIN = 1.0 - 1e-9
_RECT_BLOCK = 2 ** 15  # (rectangle, circle) pairs circle_fraction_mask holds


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
        columns = [self.radii, self.k_values, self.centered_l]
        row = "%.12g,%.12g,%.12g,,"
        if self.bands is not None:
            columns += self.centered_bands
            row = "%.12g,%.12g,%.12g,%.12g,%.12g"
        row += f",{self.kind}\n".replace("%", "%%")
        return "r,k,centered_l,lower,upper,kind\n" + "".join(
            row % r for r in zip(*(c.tolist() for c in columns)))


# ---------------------------------------------------------------------------
# pair search: cell buckets of side slightly above r_max, then exact filtering

_PAIR_BLOCK = 2 ** 18  # candidate pairs one block expands, at least one centre
_MAX_CELLS = 2 ** 20  # cells per axis at most, so int64 cell keys never overflow


def _pair_blocks(points: np.ndarray, r_max: float):
    """Every unordered pair at distance <= r_max, yielded as (i, j, distance)
    arrays one block at a time, in no global order.

    Points are bucketed into cells of side r_max widened by 1e-9 relative
    (wider where the span would need more than 2^20 cells on an axis), so
    every pair within r_max lies in the same or a neighbouring cell.  A
    block takes consecutive centres whose candidates number at most
    _PAIR_BLOCK, and at least one centre.  Candidate distances are computed
    with np.hypot and filtered exactly, so pairs at exactly r_max are kept.
    Points with a non-finite coordinate pair with nothing.
    """
    pts = np.asarray(points, dtype=float)
    finite = np.flatnonzero(np.isfinite(pts).all(axis=-1))
    if len(finite) < 2 or not r_max >= 0:
        return
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
    # candidates of the centres before each one
    before = np.concatenate([[0], np.cumsum((stops - starts).reshape(2, m)
                                            .sum(axis=0))])
    b = 0
    while b < m:
        e = max(b + 1, int(np.searchsorted(before, before[b] + _PAIR_BLOCK,
                                           side="right")) - 1)
        block = np.arange(b, e)
        ranges = np.concatenate([block, block + m])
        counts = stops[ranges] - starts[ranges]
        total = int(counts.sum())
        src = np.repeat(np.concatenate([block, block]), counts)
        dst = np.repeat(starts[ranges] - (np.cumsum(counts) - counts),
                        counts) + np.arange(total)
        with np.errstate(over="ignore"):   # an overflowed distance is inf
            d = np.hypot(xs[src] - xs[dst], ys[src] - ys[dst])
        keep = d <= r_max
        i, j, d = finite[order[src[keep]]], finite[order[dst[keep]]], d[keep]
        del src, dst, keep   # no candidate array outlives its block
        yield i, j, d
        b = e


def pairs_within(points: np.ndarray, r_max: float):
    """All unordered pairs (i < j) at distance <= r_max: the blocks of
    _pair_blocks gathered and sorted.  Returns (i, j, distance) arrays
    sorted by (i, j)."""
    found = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
    found += _pair_blocks(points, r_max)
    a, c, d = (np.concatenate(v) for v in zip(*found))
    ii, jj = np.minimum(a, c), np.maximum(a, c)
    by_pair = np.argsort(ii * len(points) + jj)
    return ii[by_pair], jj[by_pair], d[by_pair]


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
    to 0.)  A circle through or beyond the farthest corner encloses the
    rectangle and gets exactly 0, which the arc sum only reaches up to
    rounding.
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    t = np.asarray(t, dtype=float)
    sides = (x1 - cx, y1 - cy, cx - x0, cy - y0)  # right, top, left, bottom
    with np.errstate(invalid="ignore"):
        alphas = []
        for d in sides:
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
    far = np.maximum(sides[0], sides[2]) ** 2 \
        + np.maximum(sides[1], sides[3]) ** 2   # squared, to the far corner
    return np.where(far <= t * t, 0.0,
                    np.clip(1.0 - outside / (2.0 * np.pi), 0.0, 1.0))


def _rectangles(region):
    """The region as disjoint rectangles (x0, x1, y0, y1): its cells of
    positive area, with touching cells of one row merged into runs."""
    (xo, xi, xs), (yo, yi, ys), areas = region.cells()
    keep = areas > 0
    x0, x1, y0, y1 = (np.broadcast_to(o + (i + k) * s, areas.shape)[keep]
                      for o, i, s in ((xo, xi, xs), (yo, yi, ys))
                      for k in (0, 1))
    order = np.lexsort((x0, y1, y0))
    x0, x1, y0, y1 = x0[order], x1[order], y0[order], y1[order]
    start = np.flatnonzero(np.concatenate([
        [True], (y0[1:] != y0[:-1]) | (y1[1:] != y1[:-1])
        | (x0[1:] != x1[:-1])]))
    end = np.append(start[1:], len(x0)) - 1
    return x0[start], x1[end], y0[start], y1[start]


def _clearance(region, cx, cy, reach):
    """Each centre's clearance on a Grid: a lower bound on the distance from
    any point of its pixel to the region's complement (the inactive pixels
    and everything outside the box), 0 for a centre outside the active
    pixels or on any other region.

    The gap between two pixels is measured between the floating-point
    edges o + i * s that _rectangles uses, and a pixel's clearance is the
    least gap to a complement pixel, a ring of one pixel around the box
    standing in for its outside.  Each row's nearest complement columns
    come from one running max and min; each pixel holding a centre then
    takes the least gap over the rows.  Rows more than reach plus a pixel
    away are not searched, so a clearance above reach can come out too
    large; no radius up to reach passes or fails the filter for that.
    """
    if not isinstance(region, Grid):
        return np.zeros(len(cx))
    (xo, ix, dx), (yo, iy, dy), _ = region.cells()
    n_x, n_y = region.n_x, region.n_y
    outside = np.ones((n_y + 2, n_x + 2), dtype=bool)
    outside[iy + 1, ix + 1] = False
    # ring-frame edges: column c spans ex[c] to ex[c + 1], row r ey[r] to
    # ey[r + 1]
    ex = xo + np.arange(-1, n_x + 2) * dx
    ey = yo + np.arange(-1, n_y + 2) * dy
    col = np.arange(n_x + 2)
    left = np.maximum.accumulate(np.where(outside, col, -1), axis=1)
    right = np.minimum.accumulate(np.where(outside, col, n_x + 2)[:, ::-1],
                                  axis=1)[:, ::-1]
    # gap to the row's nearest complement column: 0 in a complement pixel
    gap_x = np.maximum(0.0, np.minimum(ex[col] - ex[left + 1],
                                       ex[right] - ex[col + 1]))
    pixel = region.active_pixel(cx, cy)
    held = np.zeros(n_y * n_x, dtype=bool)
    held[pixel[pixel >= 0]] = True
    # ring-frame row and column of each pixel holding a centre
    p, c = (v + 1 for v in np.divmod(np.flatnonzero(held), n_x))
    span = int(reach / dy) + 2 if 0 <= reach < (n_y + 1) * dy else n_y + 1
    clear = np.full(len(p), np.inf)
    for d in range(-span, span + 1):
        q = np.clip(p + d, 0, n_y + 1)  # past the ring, the ring row is nearer
        gap_y = np.maximum(0.0, np.maximum(ey[q] - ey[p + 1],
                                           ey[p] - ey[q + 1]))
        np.minimum(clear, np.hypot(gap_x[q, c], gap_y), out=clear)
    table = np.zeros(n_y * n_x)
    table[held] = clear
    return np.where(pixel >= 0, table[pixel], 0.0)


def circle_fraction_mask(cx, cy, t, region):
    """Exact fraction of each circle inside a region: a Grid's active
    pixels, a RowIntervalRegion or a TransposedRegion, any region whose
    cells() tile it (Ripley 1988).

    On a Grid, a circle centred in an active pixel whose radius is at most
    (1 - 1e-9) times that pixel's clearance to the complement lies wholly
    inside and gets exactly 1.  The margin sends a circle tangent to the
    complement within rounding to the run sum below, which sees its sliver;
    rescaled row regions get no such circles.

    Every other circle takes the run sum: the region's cells, with touching
    cells of one row merged into runs, are disjoint rectangles, so a
    circle's fraction is the sum of circle_fraction_rect over them, added
    in rectangle order.  The circles are sorted by centre y once; each
    rectangle takes the slice of them whose centres lie within the largest
    radius of its y band, and of those only the circles whose bounding box
    meets it.  These (rectangle, circle) candidates are evaluated
    _RECT_BLOCK at a time, so the memory beyond the sorted copies of the
    circles follows the block, not the number of circles, and a result
    does not depend on the blocking or on the other circles.  A circle of
    radius 0 takes region.contains at its centre.
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    t = np.asarray(t, dtype=float)
    if len(t) == 0:
        return np.zeros(0)
    rest = np.flatnonzero(~(t <= _CLEARANCE_MARGIN * _clearance(
        region, cx, cy, float(t.max()))))
    order = rest[np.argsort(cy[rest], kind="stable")]
    xs, ys, ts = cx[order], cy[order], t[order]
    x0, x1, y0, y1 = _rectangles(region)
    reach = float(ts.max(initial=0.0))
    lo = np.searchsorted(ys, y0 - reach, side="left")
    hi = np.searchsorted(ys, y1 + reach, side="right")
    found = np.zeros(len(ts))
    held, count = [], 0        # circles met by rectangles first .. k
    for k, (a, b) in enumerate(zip(lo, hi)):
        x, y, r = xs[a:b], ys[a:b], ts[a:b]
        held.append(a + np.flatnonzero((x + r >= x0[k]) & (x - r <= x1[k])
                                       & (y + r >= y0[k]) & (y - r <= y1[k])))
        count += len(held[-1])
        if count >= _RECT_BLOCK or k == len(lo) - 1:
            first = k + 1 - len(held)
            n = [len(h) for h in held]
            circle = np.concatenate(held)
            np.add.at(found, circle, circle_fraction_rect(
                xs[circle], ys[circle], ts[circle],
                *(np.repeat(v[first:k + 1], n) for v in (x0, x1, y0, y1))))
            held, count = [], 0
    out = np.ones(len(t))
    out[order] = found
    zero = t == 0
    out[zero] = region.contains(cx[zero], cy[zero])
    return out


def _correction_weights(region, centers, dists):
    """Per-pair weight s = 1 / (circle fraction inside the region)."""
    frac = circle_fraction_mask(centers[:, 0], centers[:, 1], dists, region)
    return 1.0 / np.maximum(frac, _MIN_ARC_FRACTION)


# ---------------------------------------------------------------------------
# estimators

_PAIR_CONVENTION = "ordered j!=i, non-strict <="


def _check_edge_correction(edge_correction):
    if edge_correction not in ("none", "isotropic"):
        raise ValidationError(f"unknown edge correction {edge_correction!r}")


def weighted_k(points, null, radii, edge_correction: str = "none",
               region=None) -> KCurve:
    """Weighted K of the points against a null intensity lambda: b / integral
    of lambda, b its infimum, times the sum over ordered pairs j != i at
    distance <= r of s_ij / (lambda_i lambda_j).

    The null is an IntensityField, whose region is its grid, or a finite,
    positive constant rate over `region`; a point whose weight 1/lambda is
    not finite, or a K that overflows, is a ValidationError.  One pass over
    the pair blocks: each block's terms are binned by the first radius at
    or above their distance, and a cumulative sum over the bins gives K.
    """
    pts = np.asarray(points, dtype=float)
    radii = radii_grid(radii)
    _check_edge_correction(edge_correction)
    if len(pts) < 2:
        raise ValidationError("K needs at least two points")
    if isinstance(null, IntensityField):
        if region is not None:
            raise ValidationError("a null field's region is its grid; "
                                  "pass no region")
        region = null.grid
        # evaluate names the first point outside the active pixels
        lam = np.asarray(evaluate(null, pts[:, 0], pts[:, 1]), dtype=float)
        if np.any(lam == 0):
            i = int(np.argmax(lam == 0))
            raise ValidationError(f"point at index {i} (lon {pts[i, 0]}, lat "
                                  f"{pts[i, 1]}) is in a zero-rate pixel")
        b = extremes(null)[0]
        if b == 0:
            raise DegenerateInfimumError(
                "null rate infimum is zero; the weighted K would be zero at "
                "every radius")
        total = integrate(null)
    else:
        if region is None:
            raise ValidationError("a constant null rate needs a region")
        check_finite_positive("null rate", null)
        lam, b, total = np.full(len(pts), null), null, null * region.area
    with np.errstate(over="ignore"):   # a subnormal rate's weight is inf
        weights = 1.0 / lam
    if not np.isfinite(weights).all():
        i = int(np.argmax(~np.isfinite(weights)))
        raise ValidationError(
            f"point at index {i} (lon {pts[i, 0]}, lat {pts[i, 1]}) has null "
            f"rate {float(lam[i])!r}, whose weight 1/rate is not finite")
    binned = np.zeros(len(radii))
    with np.errstate(over="ignore"):   # an overflowed K is refused below
        for ii, jj, dd in _pair_blocks(pts, float(radii[-1])):
            pw = weights[ii] * weights[jj]
            if edge_correction == "isotropic":
                # both orientations of each pair in one call: s_ij, then s_ji
                s = _correction_weights(region, pts[np.concatenate([ii, jj])],
                                        np.concatenate([dd, dd]))
                terms = pw * (s[:len(dd)] + s[len(dd):])
            else:
                terms = 2.0 * pw
            binned += np.bincount(np.searchsorted(radii, dd), weights=terms,
                                  minlength=len(radii))
        k_values = b / total * np.cumsum(binned)
    if not np.isfinite(k_values).all():
        raise ValidationError(
            f"weighted K is not finite: its pair weights 1/(lambda_i "
            f"lambda_j) overflow at null rate {float(lam.min())!r}")
    return KCurve(radii, k_values, "weighted",
                  meta={"pair_convention": _PAIR_CONVENTION,
                        "edge_correction": edge_correction,
                        "prefactor": "min(null)/integral(null)"})


def ripley_k(points, region, radii, edge_correction: str = "none") -> KCurve:
    """Plain K: the weighted K at the estimated rate n / A, that is (A / n^2)
    times the sum over ordered pairs at distance <= r of the pair's
    correction weight."""
    return replace(weighted_k(points, len(points) / region.area, radii,
                              edge_correction, region), kind="plain")


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


def envelope_bands(region, rate: float, radii, n_sims: int,
                   stream: SeededStream, edge_correction: str = "none"):
    """Middle-BAND_LEVEL empirical range of the K that weighted_k computes
    at this constant rate, over homogeneous Poisson simulations on the
    region: same weights, prefactor, region and edge correction.  Returns
    (lower, upper) order statistics in K units.  Its size (two replicates or
    more, at most MAX_ENVELOPE_VALUES values) is checked before simulating.
    """
    radii = radii_grid(radii)
    if n_sims < 2:
        raise ValidationError("envelope needs at least two simulations")
    if n_sims * len(radii) > MAX_ENVELOPE_VALUES:
        raise ValidationError(
            f"{n_sims} simulations at {len(radii)} radii are above the "
            f"supported {MAX_ENVELOPE_VALUES} envelope values")
    # checked here too: a replicate with fewer than two points skips weighted_k
    _check_edge_correction(edge_correction)
    check_finite_positive("null rate", rate)
    sims = np.zeros((n_sims, len(radii)))   # fewer than two points: K = 0
    for j in range(n_sims):
        xs, ys = simulate_homogeneous(region, rate, stream.substream(j))
        if len(xs) >= 2:
            sims[j] = weighted_k(np.column_stack([xs, ys]), rate, radii,
                                 edge_correction, region).k_values
    alpha = 1.0 - BAND_LEVEL
    sims.sort(axis=0)
    lo_idx = int(np.floor(alpha / 2.0 * n_sims))
    hi_idx = int(np.ceil((1.0 - alpha / 2.0) * n_sims)) - 1
    return sims[lo_idx], sims[hi_idx]


def k_with_bands(points, null, radii, edge_correction: str = "none",
                 region=None, n_sims: int = 1000,
                 stream: SeededStream | None = None) -> KCurve:
    """weighted_k of the points against the null, with the BAND_LEVEL band
    that the null's region chooses: on a Grid (a field's own, or a grid
    residual set's) wk_confidence_bands for the null's total intensity; on
    any other region (a rescaled one) the envelope of n_sims homogeneous
    simulations at the null rate, drawn from stream."""
    curve = weighted_k(points, null, radii, edge_correction, region)
    if isinstance(null, IntensityField):
        region, total = null.grid, integrate(null)
    else:
        total = null * region.area
    if isinstance(region, Grid):
        method, bands = "analytic", wk_confidence_bands(radii, region.area,
                                                         total)
    elif stream is None:
        raise ValidationError("envelope bands need a seeded stream")
    else:
        method, bands = "envelope", envelope_bands(
            region, null, radii, n_sims, stream, edge_correction)
    return replace(curve, bands=bands,
                   meta={**curve.meta, "bands": method, "level": BAND_LEVEL})
