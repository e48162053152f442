"""Observation regions as unions of rectangular cells, and their sampler.

A region has an area, a bounding box (x_min, x_max, y_min, y_max), a
vectorised contains(x, y), its cells() and a sample(rng, n) of uniform
points, placed in their cells by place() whatever share of the box the
region fills.  Two shapes exist: a Grid (its active pixels) and the per-row
interval region produced by rescaling (x in [0, T(y)] within each y band),
possibly seen with its axes swapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def place(rng, counts, x, y):
    """counts[i] uniform points in cell i, which spans [origin + index *
    step, origin + (index + 1) * step) on each axis, for x and y the per-axis
    (origin, index, step), each a scalar or one entry per cell.  Every x
    uniform is drawn before any y uniform.  Returns (x, y) arrays."""
    def coordinate(origin, index, step):
        origin, index, step = (v if np.ndim(v) == 0 else np.repeat(v, counts)
                               for v in (origin, index, step))
        return origin + (index + rng.random(int(np.sum(counts)))) * step

    return coordinate(*x), coordinate(*y)


def sample_uniform(region, rng, n: int):
    """n uniform points of the region: each point's cell is drawn by area,
    then place() puts it in that cell, in O(n + cells)."""
    if region.area <= 0:
        raise ValidationError("region has zero area")
    x, y, areas = region.cells()
    cum = np.cumsum(areas)
    pick = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    # a subnormal total can round the top uniform up to it: clamp the pick
    pick = np.minimum(pick, np.flatnonzero(areas)[-1])
    return place(rng, np.bincount(pick, minlength=cum.size), x, y)


@dataclass(frozen=True)
class TransposedRegion:
    """Coordinate-swapped view of another region (x and y exchanged).

    Used when rescaling along the vertical axis: the inner region lives in
    (rescaled, kept) coordinates while points stay in (kept, rescaled).
    """

    inner: "RowIntervalRegion"

    @property
    def area(self) -> float:
        return self.inner.area

    @property
    def bbox(self):
        x0, x1, y0, y1 = self.inner.bbox
        return y0, y1, x0, x1

    def contains(self, x, y):
        return self.inner.contains(y, x)

    def cells(self):
        x, y, areas = self.inner.cells()
        return y, x, areas

    sample = sample_uniform


@dataclass(frozen=True)
class RowIntervalRegion:
    """Union over rows of [0, t_of_row[i]] x [y_edges[i], y_edges[i+1])."""

    y_edges: np.ndarray = field(repr=False)   # length n_rows + 1, increasing
    t_of_row: np.ndarray = field(repr=False)  # length n_rows, >= 0

    def __post_init__(self):
        y = np.asarray(self.y_edges, dtype=float)
        t = np.asarray(self.t_of_row, dtype=float)
        if len(y) != len(t) + 1 or np.any(np.diff(y) <= 0):
            raise ValidationError("y_edges must be increasing with len(t)+1 entries")
        if np.any(t < 0):
            raise ValidationError("row intervals must have non-negative length")
        object.__setattr__(self, "y_edges", y)
        object.__setattr__(self, "t_of_row", t)

    @property
    def area(self) -> float:
        return float(np.sum(self.t_of_row * np.diff(self.y_edges)))

    @property
    def bbox(self):
        return 0.0, float(self.t_of_row.max(initial=0.0)), \
            float(self.y_edges[0]), float(self.y_edges[-1])

    def contains(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        in_band = (y >= self.y_edges[0]) & (y <= self.y_edges[-1])
        row = np.searchsorted(self.y_edges, y, side="right") - 1
        row = np.clip(row, 0, len(self.t_of_row) - 1)
        return in_band & (x >= 0) & (x <= self.t_of_row[row])

    def cells(self):
        heights = np.diff(self.y_edges)
        return ((0.0, 0, self.t_of_row), (self.y_edges[:-1], 0, heights),
                self.t_of_row * heights)

    sample = sample_uniform
