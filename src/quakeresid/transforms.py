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
from .intensity import (IntensityField, check_inside, evaluate, extremes,
                        integrate)
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
        check_finite_positive("null rate", self.null_rate)
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


def check_finite_positive(name: str, value: float) -> None:
    """Raise ValidationError unless value is finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive")


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
    check_inside(grid, pts[:, 0], pts[:, 1])
    ix, iy = grid.pixel_of(pts[:, 0], pts[:, 1])
    (x0, dx), (y0, dy) = (grid.lon_min, grid.dx), (grid.lat_min, grid.dy)
    if axis == "vertical":
        # the horizontal stretch of the transposed layout; cumsum along
        # either axis adds the same numbers in the same order
        rates, pts, ix, iy = rates.T, pts[:, ::-1], iy, ix
        (x0, dx), (y0, dy) = (y0, dy), (x0, dx)

    # cumulative rate integral along each row, per unit of the stretched axis
    cum = np.concatenate(
        [np.zeros((len(rates), 1)), np.cumsum(rates * dx, axis=1)], axis=1)
    region = RowIntervalRegion(y0 + dy * np.arange(len(rates) + 1),
                               cum[:, -1])
    new_x = cum[iy, ix] + rates[iy, ix] * (pts[:, 0] - (x0 + ix * dx))
    pts = np.column_stack([new_x, pts[:, 1]])
    if axis == "vertical":
        pts, region = pts[:, ::-1].copy(), TransposedRegion(region)

    if region.area <= 0:
        raise ValidationError("model rate integrates to zero; nothing to rescale")
    return ResidualSet(pts, np.zeros(len(pts), dtype=bool), 1.0, region,
                       "rescale", meta={"axis": axis,
                                        "expected_count": region.area})


def _thin_and_superpose(fld: IntensityField, pts: np.ndarray,
                        null_rate: float, transform: str, meta: dict,
                        keep=None, add=None) -> ResidualSet:
    """The one operation behind the grid transforms: keep each event with
    probability p(x), then add simulated points from the complement rate
    max(0, level - rate).

    keep is (p at each event, stream) or None to keep every event; add is
    (level, stream) or None to add nothing.  Kept events come first, then
    the simulated points.
    """
    n_input = len(pts)
    if keep is not None:
        probs, stream = keep
        pts = pts[stream.generator().random(n_input) < probs]
    sim_pts = np.zeros((0, 2))
    if add is not None:
        level, stream = add
        sim_pts = np.column_stack(simulate_cox_complement(fld, level, stream))
    seed = (keep or add)[1].seed
    return ResidualSet(np.concatenate([pts, sim_pts]),
                       np.repeat([False, True], [len(pts), len(sim_pts)]),
                       null_rate, GridRegion(fld.grid), transform, seed=seed,
                       meta={**meta, "n_input": n_input,
                             "n_retained": len(pts),
                             "n_simulated": len(sim_pts)})


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
    lam = evaluate(fld, pts[:, 0], pts[:, 1])
    return _thin_and_superpose(fld, pts, b, "thin",
                               {"retention": "inf(rate)/rate"},
                               keep=(b / lam, stream))


def thin_approx(catalog: Catalog, fld: IntensityField, k_count: float,
                stream: SeededStream) -> ResidualSet:
    """Approximate thinning targeting about k_count retained events.

    Retention probability k / (rate(event) * sum over events of 1/rate);
    probabilities above one are clamped with a warning.  The null rate of
    the output is k_count divided by the region area.
    """
    check_finite_positive("k_count", k_count)
    pts = catalog.points()
    lam = evaluate(fld, pts[:, 0], pts[:, 1])
    if np.any(lam == 0):
        raise ValidationError("thinning is undefined for events on zero rate")
    probs = k_count / (lam * float(np.sum(1.0 / lam)))
    n_clamped = int(np.sum(probs > 1.0))
    if n_clamped:
        warnings.warn(f"{n_clamped} retention probabilities clamped to 1; "
                      "target count is approximate", stacklevel=2)
        probs = np.minimum(probs, 1.0)
    return _thin_and_superpose(fld, pts, k_count / fld.grid.area, "thin",
                               {"k_count": k_count, "n_clamped": n_clamped},
                               keep=(probs, stream))


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
    check_inside(fld.grid, pts[:, 0], pts[:, 1])
    if level < sup:
        raise ValidationError(
            f"superpose level {level} is below the field supremum {sup}")
    return _thin_and_superpose(fld, pts, level, "superpose", {"level": level},
                               add=(level, stream))


def super_thin(catalog: Catalog, fld: IntensityField,
               stream: SeededStream,
               k_rate: float | None = None) -> ResidualSet:
    """Thin where the rate exceeds k_rate and superpose where it falls short.

    Events are kept with probability min(1, k/rate); simulated points are
    added from max(0, k - rate).  Since min(rate, k) + max(0, k - rate) = k
    pointwise, the combined set is homogeneous with rate k_rate, which
    defaults to the model's mean rate over the region.
    """
    if k_rate is None:
        k_rate = integrate(fld) / fld.grid.area
    check_finite_positive("k_rate", k_rate)
    pts = catalog.points()
    # an event on zero rate gets k / 0 = inf, so it is always kept
    with np.errstate(divide="ignore", over="ignore"):
        probs = np.minimum(1.0, k_rate / evaluate(fld, pts[:, 0], pts[:, 1]))
    return _thin_and_superpose(fld, pts, k_rate, "superthin",
                               {"k_rate": k_rate},
                               keep=(probs, stream.substream(0)),
                               add=(k_rate, stream.substream(1)))


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
