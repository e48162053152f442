"""The regions produced by rescaling, for the simulator and the K-functions.

A region has an area, a bounding box (x_min, x_max, y_min, y_max), a
vectorised contains(x, y) and a sample(rng, n) of uniform points.  Two
shapes exist: a Grid (the union of its active pixels) and the per-row
interval region produced by rescaling (x in [0, T(y)] within each y band),
possibly seen with its axes swapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import _sample_by_rejection


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

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        in_band = (y >= self.y_edges[0]) & (y <= self.y_edges[-1])
        row = np.searchsorted(self.y_edges, y, side="right") - 1
        row = np.clip(row, 0, len(self.t_of_row) - 1)
        return in_band & (x >= 0) & (x <= self.t_of_row[row])

    sample = _sample_by_rejection
