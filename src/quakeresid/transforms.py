"""Residual point processes: rescaling, thinning, superposition, and
super-thinning, plus the homogeneity assessment applied to their output.

Each transform turns an observed catalog plus a model intensity into a point
set that should look like a homogeneous Poisson process when the model is
right.  Clustered output flags underprediction, regular (gappy) output flags
overprediction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .catalogs import Catalog
from .errors import (DegenerateInfimumError, ValidationError,
                     check_finite_positive)
from .intensity import (IntensityField, check_inside, evaluate, extremes,
                        integrate)
from .regions import RowIntervalRegion, TransposedRegion
from .rng import SeededStream
from .secondorder import KCurve, k_with_bands
from .simulate import simulate_cox_complement


@dataclass(frozen=True)
class ResidualSet:
    points: np.ndarray = field(repr=False)     # (n, 2)
    simulated: np.ndarray = field(repr=False)  # bool, True for added points
    null_rate: float                           # homogeneous rate under H0
    # the grid transforms' region is the Grid itself; rescale's is a
    # RowIntervalRegion, transposed for the vertical axis
    region: object
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

    def to_csv(self) -> str:
        """CSV: x, y, label, transform, seed."""
        seed = "" if self.seed is None else str(self.seed)
        tail = f"{self.transform},{seed}\n".replace("%", "%%")
        row = "%.12g,%.12g,%s," + tail
        labels = np.where(self.simulated, "simulated", "retained").tolist()
        return "x,y,label,transform,seed\n" + "".join(
            row % r for r in zip(*self.points.T.tolist(), labels))


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
    iy, ix = divmod(check_inside(grid, pts[:, 0], pts[:, 1]), grid.n_x)
    (x0, dx), (y0, dy) = (grid.lon_min, grid.dx), (grid.lat_min, grid.dy)
    if axis == "vertical":
        # the horizontal stretch of the transposed layout; cumsum along
        # either axis adds the same numbers in the same order
        rates, pts, ix, iy = rates.T, pts[:, ::-1], iy, ix
        (x0, dx), (y0, dy) = (y0, dy), (x0, dx)

    # cumulative rate integral along each row, per unit of the stretched axis
    with np.errstate(over="ignore"):   # an overflow fails the check below
        cum = np.concatenate(
            [np.zeros((len(rates), 1)), np.cumsum(rates * dx, axis=1)], axis=1)
        region = RowIntervalRegion(y0 + dy * np.arange(len(rates) + 1),
                                   cum[:, -1])
        area = region.area
    if not 0 < area < np.inf:
        raise ValidationError(f"model rate integrates to {area}; rescaling "
                              "needs a positive, finite integral")
    new_x = cum[iy, ix] + rates[iy, ix] * (pts[:, 0] - (x0 + ix * dx))
    pts = np.column_stack([new_x, pts[:, 1]])
    if axis == "vertical":
        pts, region = pts[:, ::-1].copy(), TransposedRegion(region)

    return ResidualSet(pts, np.zeros(len(pts), dtype=bool), 1.0, region,
                       "rescale", meta={"axis": axis,
                                        "expected_count": region.area})


def _thin_and_superpose(fld: IntensityField, pts: np.ndarray,
                        probs: np.ndarray, level: float, null_rate: float,
                        streams: tuple, transform: str,
                        meta: dict) -> ResidualSet:
    """The one operation behind the grid transforms: keep each event with
    probability probs, then add simulated points from the complement rate
    max(0, level - rate).

    streams is (keep, add), the streams the two sides draw from.  Kept
    events come first, then the simulated points.
    """
    keep, add = streams
    kept = pts[keep.generator().random(len(pts)) < probs]
    sim_pts = np.column_stack(simulate_cox_complement(fld, level, add))
    return ResidualSet(np.concatenate([kept, sim_pts]),
                       np.repeat([False, True], [len(kept), len(sim_pts)]),
                       null_rate, fld.grid, transform, seed=keep.seed,
                       meta={**meta, "n_input": len(pts),
                             "n_retained": len(kept),
                             "n_simulated": len(sim_pts)})


def _super_thin_at(catalog: Catalog, fld: IntensityField, level: float,
                   streams: tuple, transform: str, meta: dict) -> ResidualSet:
    """Super-thinning at level k: keep each event with probability
    min(1, k / rate), add points from max(0, k - rate).  At k = inf(rate)
    no complement is drawn; at sup(rate) random() < 1.0 keeps every event."""
    pts = catalog.points()
    # an event on zero rate gets k / 0 = inf, so it is always kept
    with np.errstate(divide="ignore", over="ignore"):
        probs = np.minimum(1.0, level / evaluate(fld, pts[:, 0], pts[:, 1]))
    return _thin_and_superpose(fld, pts, probs, level, level, streams,
                               transform, meta)


def thin_exact(catalog: Catalog, fld: IntensityField,
               stream: SeededStream) -> ResidualSet:
    """Keep each event with probability inf(rate) / rate(event):
    super-thinning at k = inf(rate).

    The retained set is homogeneous with rate inf(rate) when the model is
    correct.  A zero infimum makes every retention probability zero, which
    is reported as a degenerate case rather than returning an empty set.
    """
    b = extremes(fld)[0]
    if b == 0:
        raise DegenerateInfimumError(
            "rate infimum is zero; exact thinning would delete everything")
    return _super_thin_at(catalog, fld, b, (stream, stream), "thin",
                          {"retention": "inf(rate)/rate"})


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
    return _thin_and_superpose(fld, pts, probs, 0.0, k_count / fld.grid.area,
                               (stream, stream), "thin",
                               {"k_count": k_count, "n_clamped": n_clamped})


def superpose(catalog: Catalog, fld: IntensityField,
              stream: SeededStream) -> ResidualSet:
    """Add simulated points from the complement rate sup(rate) - rate:
    super-thinning at k = sup(rate).

    The union of observed and simulated points is homogeneous with rate
    sup(rate).
    """
    sup = extremes(fld)[1]
    if sup == 0:
        raise ValidationError("rate supremum is zero; nothing to superpose onto")
    return _super_thin_at(catalog, fld, sup, (stream, stream), "superpose",
                          {"level": sup})


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
    return _super_thin_at(catalog, fld, k_rate,
                          (stream.substream(0), stream.substream(1)),
                          "superthin", {"k_rate": k_rate})


def assess_homogeneity(rset: ResidualSet, radii, n_sims: int = 1000,
                       stream: SeededStream | None = None,
                       edge_correction: str = "none") -> KCurve:
    """k_with_bands of a residual set against its homogeneous null rate on
    its region: the analytic band on a grid, the envelope of n_sims
    simulations from stream on a rescaled region."""
    if rset.n_points < 2:
        raise ValidationError(
            "homogeneity assessment needs at least two residual points")
    curve = k_with_bands(rset.points, rset.null_rate, radii, edge_correction,
                         rset.region, n_sims, stream)
    return replace(curve, meta={**curve.meta, "transform": rset.transform})
