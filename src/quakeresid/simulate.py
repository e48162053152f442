"""Seeded simulation: synthetic catalogs, Cox complements, homogeneous draws.

Everything here is a pure function of (inputs, stream); replicates should
use stream.substream(replicate_index) so runs are order-independent.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np

from .catalogs import Catalog, utc64
from .errors import ValidationError
from .forecasts import DEFAULT_WINDOW_END, DEFAULT_WINDOW_START
from .intensity import IntensityField, extremes
from .rng import MAX_POISSON_MEAN, SeededStream, poisson, poisson_rows

# Replicates are drawn in blocks of at most this many (replicate, pixel)
# counts, which bounds the engine's memory whatever n_sims and the grid.
_BLOCK_COUNTS = 1 << 19


def _pixel_means(fld: IntensityField) -> np.ndarray:
    """Expected count per active pixel (row-major active order)."""
    return fld.active_rates() * fld.grid.pixel_area


def _pixel_counts(rng, fld: IntensityField):
    """Poisson count per active pixel (row-major active order)."""
    return poisson(rng, _pixel_means(fld))


def _place_in_pixels(rng, grid, counts):
    """Uniform placement of counts[i] points in the i-th active pixel."""
    iy, ix = np.nonzero(grid.active_mask)
    total = int(counts.sum())
    rep_ix = np.repeat(ix, counts)
    rep_iy = np.repeat(iy, counts)
    xs = grid.lon_min + (rep_ix + rng.random(total)) * grid.dx
    ys = grid.lat_min + (rep_iy + rng.random(total)) * grid.dy
    return xs, ys


def simulate_catalog(fld: IntensityField, stream: SeededStream,
                     window_start=DEFAULT_WINDOW_START,
                     window_end=DEFAULT_WINDOW_END,
                     magnitude: float = 0.0) -> Catalog:
    """Synthetic catalog: per-pixel Poisson counts with uniform placement.

    Times are uniform over the window and carried for serialization only;
    magnitudes and depths are not modeled, every event gets the constant
    magnitude argument and depth zero.
    """
    rng = stream.generator()
    counts = _pixel_counts(rng, fld)
    xs, ys = _place_in_pixels(rng, fld.grid, counts)
    span = (window_end - window_start).total_seconds()
    offsets = np.sort(rng.random(len(xs))) * span
    times = utc64([window_start + timedelta(seconds=dt)
                   for dt in offsets.tolist()])
    return Catalog(times, xs, ys, np.zeros(len(xs)),
                   np.full(len(xs), magnitude, dtype=float))


def simulated_counts(fld: IntensityField, stream: SeededStream) -> np.ndarray:
    """Per-active-pixel counts of one simulate_catalog replicate.

    Shares the count-drawing stage with simulate_catalog bit-for-bit, so
    gridded statistics of a simulation can skip point placement.
    """
    return _pixel_counts(stream.generator(), fld)


def replicate_counts(fld: IntensityField, stream: SeededStream, n_sims: int):
    """Per-active-pixel counts of replicates 0..n_sims-1, yielded in order
    as (rows, n_active) int64 blocks.

    Row j equals simulated_counts(fld, stream.substream(j)) bit for bit;
    a block holds at most _BLOCK_COUNTS counts (at least one row).
    """
    lam = _pixel_means(fld)
    # a replicate's total is Poisson with the summed mean: keep it in range
    if lam.sum() > MAX_POISSON_MEAN:
        raise ValidationError(
            f"expected total count {float(lam.sum())!r} is above the largest "
            f"supported mean {MAX_POISSON_MEAN:g}")
    rows = max(1, _BLOCK_COUNTS // max(lam.size, 1))
    for first in range(0, n_sims, rows):
        yield poisson_rows([stream.substream(j).generator() for j in
                            range(first, min(first + rows, n_sims))], lam)


def simulate_cox_complement(fld: IntensityField, level: float, mode: str,
                            stream: SeededStream):
    """Points from the complement rate field: (level - rate) in superpose
    mode, max(0, level - rate) in superthin mode.  Returns (x, y) arrays.
    """
    if mode not in ("superpose", "superthin"):
        raise ValidationError(f"unknown mode {mode!r}")
    if level < 0:
        raise ValidationError("level must be non-negative")
    sup = extremes(fld)[1]
    if mode == "superpose" and level < sup:
        raise ValidationError(
            f"superpose level {level} is below the field supremum {sup}")
    rng = stream.generator()
    grid = fld.grid
    comp = level - fld.active_rates()
    if mode == "superthin":
        comp = np.maximum(0.0, comp)
    counts = poisson(rng, comp * grid.pixel_area)
    return _place_in_pixels(rng, grid, counts)


def simulate_homogeneous(region, rate: float, stream: SeededStream):
    """Homogeneous Poisson draw over a region (GridRegion or
    RowIntervalRegion): Poisson(rate * area) total, uniform placement by
    rejection sampling.  Returns (x, y) arrays.
    """
    if rate < 0:
        raise ValidationError("rate must be non-negative")
    if region.area <= 0:
        raise ValidationError("region has zero area")
    rng = stream.generator()
    n = int(poisson(rng, rate * region.area))
    return region.sample(rng, n)
