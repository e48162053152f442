"""Observation-region geometry shared by the simulator and the K-functions.

Two region shapes exist: the active-pixel union of a Grid, and the per-row
interval region produced by rescaling (x in [0, T(y)] within each y band).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import Grid


def _sample_by_rejection(region, rng, n: int):
    """n uniform points of the region via rejection against its bounding
    box, drawn in batches sized to the expected acceptance."""
    if region.area <= 0:
        raise ValidationError("region has zero area")
    x_min, x_max, y_min, y_max = region.bbox
    box_area = (x_max - x_min) * (y_max - y_min)
    xs, ys = [np.zeros(0)], [np.zeros(0)]
    remaining = n
    while remaining > 0:
        m = max(32, int(remaining * box_area / region.area) + 16)
        cx = x_min + (x_max - x_min) * rng.random(m)
        cy = y_min + (y_max - y_min) * rng.random(m)
        ok = region.contains(cx, cy)
        cx, cy = cx[ok][:remaining], cy[ok][:remaining]
        xs.append(cx)
        ys.append(cy)
        remaining -= len(cx)
    return np.concatenate(xs), np.concatenate(ys)


@dataclass(frozen=True)
class GridRegion:
    grid: Grid

    @property
    def area(self) -> float:
        return self.grid.area

    @property
    def bbox(self):
        g = self.grid
        return g.lon_min, g.lon_max, g.lat_min, g.lat_max

    @property
    def is_full_rectangle(self) -> bool:
        return bool(self.grid.active_mask.all())

    def contains(self, x, y):
        return self.grid.contains(x, y)

    sample = _sample_by_rejection


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

    @property
    def is_full_rectangle(self) -> bool:
        return False

    def contains(self, x, y):
        return self.inner.contains(y, x)

    def sample(self, rng, n: int):
        xs, ys = self.inner.sample(rng, n)
        return ys, xs


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

    @property
    def is_full_rectangle(self) -> bool:
        return False

    def row_of(self, y):
        y_arr = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.y_edges, y_arr, side="right") - 1
        return np.clip(idx, 0, len(self.t_of_row) - 1)

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        in_band = (y >= self.y_edges[0]) & (y <= self.y_edges[-1])
        row = self.row_of(np.clip(y, self.y_edges[0], self.y_edges[-1]))
        return in_band & (x >= 0) & (x <= self.t_of_row[row])

    sample = _sample_by_rejection
