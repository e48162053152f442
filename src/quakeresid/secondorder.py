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
inside the region: exact interval arithmetic for full rectangles, 360-point
arc sampling for irregular masks.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import OutsideRegionError, ValidationError
from .grids import Grid
from .intensity import IntensityField, evaluate, extremes, integrate
from .regions import GridRegion
from .rng import SeededStream
from .simulate import simulate_homogeneous

DEFAULT_R_MAX = 0.7
DEFAULT_R_STEP = 0.01

_ARC_SAMPLES = 360
_MIN_ARC_FRACTION = 0.5 / _ARC_SAMPLES
_MASK_CHUNK = 4096  # circles sampled at once by circle_fraction_mask


def default_radii(r_max: float = DEFAULT_R_MAX,
                  r_step: float = DEFAULT_R_STEP) -> np.ndarray:
    n = int(round(r_max / r_step))
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
    variance: np.ndarray | None = field(default=None, repr=False)
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
# pair search: k-d tree with a slightly widened radius, then exact filtering

def pairs_within(points: np.ndarray, r_max: float):
    """All unordered pairs (i < j) at distance <= r_max.

    Returns (i, j, distance) arrays sorted by (i, j).  A k-d tree finds the
    candidates within a radius widened by 1e-9 relative; the distances are
    then recomputed with np.hypot and filtered exactly, so pairs at exactly
    r_max are kept.  Points with a non-finite coordinate pair with nothing.
    """
    pts = np.asarray(points, dtype=float)
    finite = np.flatnonzero(np.isfinite(pts).all(axis=-1))
    if len(finite) < 2:
        return (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    from scipy.spatial import cKDTree  # loaded only by commands that need it

    pairs = cKDTree(pts[finite]).query_pairs(r_max * (1 + 1e-9),
                                             output_type="ndarray")
    ii, jj = finite[pairs[:, 0]], finite[pairs[:, 1]]
    d = np.hypot(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1])
    keep = d <= r_max
    ii, jj, d = ii[keep], jj[keep], d[keep]
    order = np.lexsort((jj, ii))
    return ii[order], jj[order], d[order]


# ---------------------------------------------------------------------------
# isotropic edge correction

def circle_fraction_rect(cx, cy, t, x0, x1, y0, y1):
    """Exact fraction of the circle of radius t centered at (cx, cy) lying
    inside the rectangle [x0, x1] x [y0, y1].

    The outside part is a union of up to four arcs, one per side; arcs of
    opposite sides never overlap and triple overlaps are empty, so
    inclusion-exclusion over adjacent side pairs is exact at every radius.
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
        outside -= np.maximum(0.0, alphas[a] + alphas[b] - np.pi / 2.0)
    return np.clip(1.0 - outside / (2.0 * np.pi), 0.0, 1.0)


def circle_fraction_mask(cx, cy, t, grid: Grid):
    """Arc-sampled fraction of the circle inside the active-pixel union.

    Circles are sampled in chunks of _MASK_CHUNK, so peak memory is bounded
    by the chunk, not by the number of circles.
    """
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    t = np.asarray(t, dtype=float)
    ang = np.linspace(0.0, 2.0 * np.pi, _ARC_SAMPLES, endpoint=False)
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty(len(t))
    for lo in range(0, len(t), _MASK_CHUNK):
        part = slice(lo, lo + _MASK_CHUNK)
        px = cx[part, None] + t[part, None] * cos
        py = cy[part, None] + t[part, None] * sin
        inbox = (px >= grid.lon_min) & (px <= grid.lon_max) & \
                (py >= grid.lat_min) & (py <= grid.lat_max)
        ix = np.clip(np.floor((px - grid.lon_min) / grid.dx).astype(int),
                     0, grid.n_x - 1)
        iy = np.clip(np.floor((py - grid.lat_min) / grid.dy).astype(int),
                     0, grid.n_y - 1)
        inside = inbox & grid.active_mask[iy, ix]
        out[part] = inside.mean(axis=1)
    return out


def _correction_weights(region, centers, dists):
    """Per-pair weight s = 1 / (circle fraction inside the region)."""
    if isinstance(region, GridRegion) and region.is_full_rectangle:
        x0, x1, y0, y1 = region.bbox
        frac = circle_fraction_rect(centers[:, 0], centers[:, 1], dists,
                                    x0, x1, y0, y1)
    elif isinstance(region, GridRegion):
        frac = circle_fraction_mask(centers[:, 0], centers[:, 1], dists,
                                    region.grid)
    else:
        raise ValidationError(
            "isotropic correction is only defined for grid regions")
    return 1.0 / np.maximum(frac, _MIN_ARC_FRACTION)


def _as_region(region) -> GridRegion:
    if isinstance(region, Grid):
        return GridRegion(region)
    return region


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
    region = _as_region(region)
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
    grid = null_field.grid
    inside = grid.contains(pts[:, 0], pts[:, 1])
    if not np.all(inside):
        bad = np.nonzero(~inside)[0]
        raise OutsideRegionError(
            f"points outside the active region at indices {bad.tolist()}")
    lam = np.asarray(evaluate(null_field, pts[:, 0], pts[:, 1]), dtype=float)
    if np.any(lam == 0):
        bad = np.nonzero(lam == 0)[0]
        raise ValidationError(
            f"points in zero-rate pixels at indices {bad.tolist()}")
    b = extremes(null_field)[0]
    total = integrate(null_field)
    if total <= 0:
        raise ValidationError("null field integrates to zero")
    k = _weighted_k_from_weights(pts, 1.0 / lam, b / total,
                                 GridRegion(grid), radii, edge_correction)
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
    k = _constant_rate_k(pts, null_rate, _as_region(region), radii,
                         edge_correction)
    return KCurve(radii, k, "weighted",
                  meta={"pair_convention": _PAIR_CONVENTION,
                        "edge_correction": edge_correction,
                        "null_rate": null_rate})


# ---------------------------------------------------------------------------
# bands

def wk_confidence_bands(radii, area: float, total_intensity: float,
                        level: float = 0.95):
    """Normal-approximation bands for the weighted K under the null:
    mean pi r^2, variance 2 pi r^2 A / (integral of null intensity)^2."""
    radii = radii_grid(radii)
    if total_intensity <= 0:
        raise ValidationError("total intensity must be positive")
    if not (0.0 <= level < 1.0):
        raise ValidationError("level must lie in [0, 1)")
    z = special.ndtri(0.5 + level / 2.0)
    mean = np.pi * radii ** 2
    half = z * np.sqrt(2.0 * np.pi * radii ** 2 * area) / total_intensity
    return mean - half, mean + half


def envelope_bands(region, rate: float, radii, n_sims: int,
                   stream: SeededStream, level: float = 0.95,
                   edge_correction: str = "none"):
    """Middle-(level) empirical range of the K that weighted_k_constant
    computes at this rate, over homogeneous Poisson simulations on the
    region: same weights, prefactor, region and edge correction.  Returns
    (lower, upper) order statistics in K units."""
    radii = radii_grid(radii)
    if n_sims < 2:
        raise ValidationError("envelope needs at least two simulations")
    sims = np.empty((n_sims, len(radii)))
    for j in range(n_sims):
        xs, ys = simulate_homogeneous(region, rate, stream.substream(j))
        sims[j] = _constant_rate_k(np.column_stack([xs, ys]), rate, region,
                                   radii, edge_correction)
    alpha = 1.0 - level
    sims.sort(axis=0)
    lo_idx = int(np.floor(alpha / 2.0 * n_sims))
    hi_idx = int(np.ceil((1.0 - alpha / 2.0) * n_sims)) - 1
    return sims[lo_idx], sims[hi_idx]
