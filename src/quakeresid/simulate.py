"""Seeded simulation: synthetic catalogs, Cox complements, homogeneous draws.

Everything here is a pure function of (inputs, stream).  Replicate j reads
stream.substream(j), so runs are order-independent; rng._check_means
rejects a negative or non-finite Poisson mean as a ValidationError.
"""

from __future__ import annotations

import numpy as np

from .catalogs import Catalog, utc64
from .errors import ValidationError
from .forecasts import DEFAULT_WINDOW_END, DEFAULT_WINDOW_START
from .intensity import IntensityField
from .regions import place
from .rng import (MAX_POISSON_MEAN, SeededStream, _check_means, poisson,
                  poisson_rows)

# Replicates are drawn in blocks of at most this many (replicate, pixel)
# counts, which bounds the engine's memory whatever n_sims and the grid.
# The PTRS rounds hold about 110 bytes per count in flight: 7 MiB a block.
_BLOCK_COUNTS = 1 << 16
# Largest expected number of points one simulation may place, far above
# the 1e4 events of a dense forecast and far below an allocation failure.
MAX_SIMULATED_POINTS = 1e7


def _check_point_means(means):
    """Reject, before anything is drawn, Poisson means that the sampler does
    not take or whose points would not fit in memory."""
    means = np.atleast_1d(np.asarray(means, dtype=float))
    _check_means(means)
    total = float(means.sum())
    if total > MAX_SIMULATED_POINTS:
        raise ValidationError(
            f"expected {total:.6g} simulated points, above the supported "
            f"{MAX_SIMULATED_POINTS:g}")


def _pixel_means(fld: IntensityField) -> np.ndarray:
    """Expected count per active pixel (row-major active order)."""
    return fld.active_rates() * fld.grid.pixel_area


def _poisson_points(rng, grid, means):
    """Poisson(means[i]) points placed uniformly in the i-th active pixel;
    the means are checked before anything is drawn."""
    _check_point_means(means)
    return place(rng, poisson(rng, means), *grid.cells()[:2])


def _window_times(offsets: np.ndarray) -> np.ndarray:
    """The instants offsets (non-negative seconds) after DEFAULT_WINDOW_START
    as datetime64[us], rounded as timedelta(seconds=offset) rounds: the
    whole seconds exactly, the microseconds of their fraction half to even.
    """
    whole = np.trunc(offsets)
    micros = (whole.astype(np.int64) * 1_000_000
              + np.rint((offsets - whole) * 1e6).astype(np.int64))
    return utc64([DEFAULT_WINDOW_START])[0] + micros.astype("timedelta64[us]")


def simulate_catalog(fld: IntensityField, stream: SeededStream,
                     magnitude: float = 0.0) -> Catalog:
    """Synthetic catalog: per-pixel Poisson counts with uniform placement.

    Times are uniform over the forecast window and carried for
    serialization only; magnitudes and depths are not modeled, every event
    gets the constant magnitude argument and depth zero.
    """
    rng = stream.generator()
    xs, ys = _poisson_points(rng, fld.grid, _pixel_means(fld))
    span = (DEFAULT_WINDOW_END - DEFAULT_WINDOW_START).total_seconds()
    times = _window_times(np.sort(rng.random(len(xs))) * span)
    return Catalog(times, xs, ys, np.zeros(len(xs)),
                   np.full(len(xs), magnitude, dtype=float))


def simulated_counts(fld: IntensityField, stream: SeededStream) -> np.ndarray:
    """Per-active-pixel counts of one simulate_catalog replicate.

    Shares the count-drawing stage with simulate_catalog bit-for-bit, so
    gridded statistics of a simulation can skip point placement.
    """
    return poisson(stream.generator(), _pixel_means(fld))


def replicate_counts(fld: IntensityField, stream: SeededStream, n_sims: int):
    """Per-active-pixel counts of replicates 0..n_sims-1, yielded in order
    as (rows, n_active) int64 blocks.

    Row j equals simulated_counts(fld, stream.substream(j)) bit for bit;
    a block holds at most _BLOCK_COUNTS counts (at least one row).
    """
    lam = _pixel_means(fld)
    # a replicate's total is Poisson with the summed mean: keep it in range
    with np.errstate(over="ignore"):
        total = float(lam.sum())
    if total > MAX_POISSON_MEAN:
        raise ValidationError(
            f"expected total count {total!r} is above the largest "
            f"supported mean {MAX_POISSON_MEAN:g}")
    rows = max(1, _BLOCK_COUNTS // max(lam.size, 1))
    for first in range(0, n_sims, rows):
        yield poisson_rows([stream.substream(j).generator() for j in
                            range(first, min(first + rows, n_sims))], lam)


def simulate_cox_complement(fld: IntensityField, level: float,
                            stream: SeededStream):
    """simulate_cox_complement(fld, level, stream) -> (x, y) arrays of
    points from the complement rate max(0, level - rate); for a level at or
    above the field's supremum that is level - rate everywhere."""
    # a negative level clamps every mean to 0, so _check_means cannot see it
    if not level >= 0:
        raise ValidationError("level must be non-negative")
    means = np.maximum(0.0, level - fld.active_rates()) * fld.grid.pixel_area
    return _poisson_points(stream.generator(), fld.grid, means)


def simulate_homogeneous(region, rate: float, stream: SeededStream):
    """Homogeneous Poisson draw over a region (a Grid or a rescaled
    row-interval region): Poisson(rate * area) total, each point placed
    uniformly in a cell drawn by area.  Returns (x, y) arrays.  The
    expected count is checked by _check_point_means before drawing.
    """
    _check_point_means(rate * region.area)
    rng = stream.generator()
    return region.sample(rng, int(poisson(rng, rate * region.area)))
