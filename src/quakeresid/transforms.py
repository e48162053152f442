"""Residual point processes: rescaling, thinning, superposition, and
super-thinning, plus the homogeneity assessment applied to their output.

Each transform turns an observed catalog plus a model intensity into a point
set that should look like a homogeneous Poisson process when the model is
right.  Clustered output flags underprediction, regular (gappy) output flags
overprediction.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .catalogs import Catalog
from .errors import DegenerateInfimumError, ValidationError
from .intensity import IntensityField, evaluate, extremes, integrate
from .regions import GridRegion, RowIntervalRegion, TransposedRegion
from .rng import SeededStream
from .secondorder import (KCurve, default_radii, envelope_bands, radii_grid,
                          weighted_k_constant, wk_confidence_bands)
from .simulate import simulate_cox_complement


@dataclass(frozen=True)
class ResidualSet:
    points: np.ndarray = field(repr=False)     # (n, 2)
    simulated: np.ndarray = field(repr=False)  # bool, True for added points
    null_rate: float                           # homogeneous rate under H0
    region: object                             # GridRegion / RowIntervalRegion
    transform: str                             # "rescale"|"thin"|...
    seed: int | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        sim = np.asarray(self.simulated, dtype=bool).reshape(-1)
        if len(pts) != len(sim):
            raise ValidationError("points and simulated flags must align")
        if self.null_rate <= 0:
            raise ValidationError("null rate must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "simulated", sim)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def simulated_fraction(self) -> float:
        if self.n_points == 0:
            return 0.0
        return float(self.simulated.mean())

    def retained_points(self) -> np.ndarray:
        return self.points[~self.simulated]

    def simulated_points(self) -> np.ndarray:
        return self.points[self.simulated]

    def to_csv(self) -> str:
        """CSV: x, y, label, transform, seed."""
        out = io.StringIO()
        out.write("x,y,label,transform,seed\n")
        seed = "" if self.seed is None else str(self.seed)
        for (x, y), sim in zip(self.points, self.simulated):
            label = "simulated" if sim else "retained"
            out.write("%.12g,%.12g,%s,%s,%s\n" % (x, y, label,
                                                  self.transform, seed))
        return out.getvalue()


def _rates_at_events(fld: IntensityField, pts: np.ndarray) -> np.ndarray:
    if len(pts) == 0:
        return np.zeros(0)
    return np.asarray(evaluate(fld, pts[:, 0], pts[:, 1]), dtype=float)


def rescale(catalog: Catalog, fld: IntensityField,
            axis: str = "horizontal") -> ResidualSet:
    """Stretch one coordinate by the integrated model rate.

    Horizontal mode maps each event to (integral of the rate along its row
    up to the event, unchanged y); the image region is a per-row interval
    [0, T(y)] whose total area equals the model's expected count, and the
    null process there is unit-rate homogeneous.  Vertical mode is the
    column-wise mirror.  The integral passes through inactive or zero-rate
    pixels without advancing, so such stretches collapse to a point.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValidationError(f"unknown axis {axis!r}")
    grid = fld.grid
    rates = np.where(grid.active_mask, fld.rate_per_area, 0.0)
    pts = catalog.points()
    if len(pts) and not np.all(grid.contains(pts[:, 0], pts[:, 1])):
        raise ValidationError("catalog events outside the active region")

    if axis == "horizontal":
        # cumulative rate integral along each row, per unit lon
        cum = np.concatenate(
            [np.zeros((grid.n_y, 1)), np.cumsum(rates * grid.dx, axis=1)],
            axis=1)
        t_of_band = cum[:, -1]
        band_edges = grid.lat_min + grid.dy * np.arange(grid.n_y + 1)
        region = RowIntervalRegion(band_edges, t_of_band)
        if len(pts):
            ix, iy = grid.pixel_of(pts[:, 0], pts[:, 1])
            frac = pts[:, 0] - (grid.lon_min + ix * grid.dx)
            new_x = cum[iy, ix] + rates[iy, ix] * frac
            pts = np.column_stack([new_x, pts[:, 1]])
    else:
        cum = np.concatenate(
            [np.zeros((1, grid.n_x)), np.cumsum(rates * grid.dy, axis=0)],
            axis=0)
        t_of_band = cum[-1, :]
        band_edges = grid.lon_min + grid.dx * np.arange(grid.n_x + 1)
        region = TransposedRegion(RowIntervalRegion(band_edges, t_of_band))
        if len(pts):
            ix, iy = grid.pixel_of(pts[:, 0], pts[:, 1])
            frac = pts[:, 1] - (grid.lat_min + iy * grid.dy)
            new_y = cum[iy, ix] + rates[iy, ix] * frac
            pts = np.column_stack([pts[:, 0], new_y])

    if region.area <= 0:
        raise ValidationError("model rate integrates to zero; nothing to rescale")
    return ResidualSet(pts, np.zeros(len(pts), dtype=bool), 1.0, region,
                       "rescale", meta={"axis": axis,
                                        "expected_count": region.area})


def thin_exact(catalog: Catalog, fld: IntensityField,
               stream: SeededStream) -> ResidualSet:
    """Keep each event with probability inf(rate) / rate(event).

    The retained set is homogeneous with rate inf(rate) when the model is
    correct.  A zero infimum makes every retention probability zero, which
    is reported as a degenerate case rather than returning an empty set.
    """
    b = extremes(fld)[0]
    if b == 0:
        raise DegenerateInfimumError(
            "rate infimum is zero; exact thinning would delete everything")
    pts = catalog.points()
    lam = _rates_at_events(fld, pts)
    rng = stream.generator()
    keep = rng.random(len(pts)) < b / lam if len(pts) else \
        np.zeros(0, dtype=bool)
    kept = pts[keep]
    return ResidualSet(kept, np.zeros(len(kept), dtype=bool), b,
                       GridRegion(fld.grid), "thin", seed=stream.seed,
                       meta={"retention": "inf(rate)/rate",
                             "n_input": len(pts)})


def thin_approx(catalog: Catalog, fld: IntensityField, k_count: float,
                stream: SeededStream) -> ResidualSet:
    """Approximate thinning targeting about k_count retained events.

    Retention probability k / (rate(event) * sum over events of 1/rate);
    probabilities above one are clamped with a warning.  The null rate of
    the output is k_count divided by the region area.
    """
    if k_count <= 0:
        raise ValidationError("k_count must be positive")
    pts = catalog.points()
    lam = _rates_at_events(fld, pts)
    if np.any(lam == 0):
        raise ValidationError("thinning is undefined for events on zero rate")
    region = GridRegion(fld.grid)
    if len(pts) == 0:
        return ResidualSet(np.zeros((0, 2)), np.zeros(0, dtype=bool),
                           k_count / region.area, region, "thin",
                           seed=stream.seed, meta={"k_count": k_count})
    inv_sum = float(np.sum(1.0 / lam))
    probs = k_count / (lam * inv_sum)
    n_clamped = int(np.sum(probs > 1.0))
    if n_clamped:
        warnings.warn(f"{n_clamped} retention probabilities clamped to 1; "
                      "target count is approximate", stacklevel=2)
        probs = np.minimum(probs, 1.0)
    rng = stream.generator()
    keep = rng.random(len(pts)) < probs
    kept = pts[keep]
    return ResidualSet(kept, np.zeros(len(kept), dtype=bool),
                       k_count / region.area, region, "thin",
                       seed=stream.seed,
                       meta={"k_count": k_count, "n_clamped": n_clamped,
                             "n_input": len(pts)})


def superpose(catalog: Catalog, fld: IntensityField, stream: SeededStream,
              level: float | None = None) -> ResidualSet:
    """Add simulated points from the complement rate (level - rate).

    The union of observed and simulated points is homogeneous with rate
    equal to level, which defaults to sup(rate) and must not be below it.
    """
    sup = extremes(fld)[1]
    if level is None:
        level = sup
    if sup == 0:
        raise ValidationError("rate supremum is zero; nothing to superpose onto")
    pts = catalog.points()
    if len(pts) and not np.all(fld.grid.contains(pts[:, 0], pts[:, 1])):
        raise ValidationError("catalog events outside the active region")
    xs, ys = simulate_cox_complement(fld, level, "superpose", stream)
    sim_pts = np.column_stack([xs, ys]) if len(xs) else np.zeros((0, 2))
    all_pts = np.concatenate([pts, sim_pts])
    sim_flag = np.concatenate([np.zeros(len(pts), dtype=bool),
                               np.ones(len(sim_pts), dtype=bool)])
    return ResidualSet(all_pts, sim_flag, level, GridRegion(fld.grid),
                       "superpose", seed=stream.seed,
                       meta={"level": level, "n_observed": len(pts),
                             "n_simulated": len(sim_pts)})


def super_thin(catalog: Catalog, fld: IntensityField,
               stream: SeededStream,
               k_rate: float | None = None) -> ResidualSet:
    """Thin where the rate exceeds k_rate and superpose where it falls short.

    Events are kept with probability min(1, k/rate); simulated points are
    added from max(0, k - rate).  Since min(rate, k) + max(0, k - rate) = k
    pointwise, the combined set is homogeneous with rate k_rate, which
    defaults to the model's mean rate over the region.
    """
    region = GridRegion(fld.grid)
    if k_rate is None:
        k_rate = integrate(fld) / region.area
    if k_rate <= 0:
        raise ValidationError("k_rate must be positive")
    pts = catalog.points()
    lam = _rates_at_events(fld, pts)
    rng = stream.substream(0).generator()
    if len(pts):
        with np.errstate(divide="ignore"):
            probs = np.minimum(1.0, np.where(lam > 0, k_rate / np.maximum(lam, 1e-300), 1.0))
        keep = rng.random(len(pts)) < probs
    else:
        keep = np.zeros(0, dtype=bool)
    kept = pts[keep]
    xs, ys = simulate_cox_complement(fld, k_rate, "superthin",
                                     stream.substream(1))
    sim_pts = np.column_stack([xs, ys]) if len(xs) else np.zeros((0, 2))
    all_pts = np.concatenate([kept, sim_pts])
    sim_flag = np.concatenate([np.zeros(len(kept), dtype=bool),
                               np.ones(len(sim_pts), dtype=bool)])
    return ResidualSet(all_pts, sim_flag, k_rate, region, "superthin",
                       seed=stream.seed,
                       meta={"k_rate": k_rate, "n_retained": len(kept),
                             "n_simulated": len(sim_pts),
                             "n_input": len(pts)})


def assess_homogeneity(rset: ResidualSet, radii=None,
                       bands: str = "analytic", n_sims: int = 1000,
                       stream: SeededStream | None = None,
                       edge_correction: str = "none",
                       level: float = 0.95) -> KCurve:
    """Weighted K of a residual set against its homogeneous null, with
    confidence bands: "analytic" normal-approximation bands, or "envelope"
    from the same estimator on homogeneous simulations on the same region."""
    radii = default_radii() if radii is None else radii_grid(radii)
    if rset.n_points < 2:
        raise ValidationError(
            "homogeneity assessment needs at least two residual points")
    curve = weighted_k_constant(rset.points, rset.null_rate, rset.region,
                                radii, edge_correction)
    if bands == "analytic":
        if not isinstance(rset.region, GridRegion):
            raise ValidationError(
                "analytic bands assume a grid region; use envelope bands "
                "for rescaled residuals")
        lo, hi = wk_confidence_bands(radii, rset.region.area,
                                     rset.null_rate * rset.region.area, level)
    elif bands == "envelope":
        if stream is None:
            raise ValidationError("envelope bands need a seeded stream")
        lo, hi = envelope_bands(rset.region, rset.null_rate, radii, n_sims,
                                stream, level,
                                edge_correction=edge_correction)
    else:
        raise ValidationError(f"unknown band method {bands!r}")
    meta = dict(curve.meta)
    meta.update({"bands": bands, "level": level, "transform": rset.transform})
    return replace(curve, bands=(lo, hi), meta=meta)
