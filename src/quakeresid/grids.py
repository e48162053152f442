"""Rectangular lon/lat pixel grids with an active-pixel mask.

Pixel membership is half-open [lo, hi) on both axes; the last row and
column are closed so the grid partitions its bounding box.  A Grid is also
an observation region (the union of its active pixels): it has the area,
bbox, contains, cells and sample members every region has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .regions import sample_uniform


@dataclass(frozen=True)
class Grid:
    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float
    dx: float
    dy: float
    n_x: int
    n_y: int
    active_mask: np.ndarray = field(repr=False)  # bool, shape (n_y, n_x)

    def __post_init__(self):
        if self.dx <= 0 or self.dy <= 0:
            raise ValidationError("pixel edge lengths must be positive")
        if self.n_x < 1 or self.n_y < 1:
            raise ValidationError("grid must have at least one pixel per axis")
        if abs((self.lon_max - self.lon_min) - self.n_x * self.dx) > 1e-9:
            raise ValidationError("n_x inconsistent with lon extent and dx")
        if abs((self.lat_max - self.lat_min) - self.n_y * self.dy) > 1e-9:
            raise ValidationError("n_y inconsistent with lat extent and dy")
        mask = np.asarray(self.active_mask, dtype=bool)
        if mask.shape != (self.n_y, self.n_x):
            raise ValidationError("active_mask shape must be (n_y, n_x)")
        object.__setattr__(self, "active_mask", mask)

    @classmethod
    def regular(cls, lon_min, lon_max, lat_min, lat_max, dx, dy, active_mask=None):
        n_x = int(round((lon_max - lon_min) / dx))
        n_y = int(round((lat_max - lat_min) / dy))
        if active_mask is None:
            active_mask = np.ones((n_y, n_x), dtype=bool)
        return cls(lon_min, lon_max, lat_min, lat_max, dx, dy, n_x, n_y, active_mask)

    @property
    def pixel_area(self) -> float:
        return self.dx * self.dy

    @property
    def n_active(self) -> int:
        return int(self.active_mask.sum())

    @property
    def area(self) -> float:
        """Area of the observation region: active pixels times pixel area."""
        return self.n_active * self.pixel_area

    @property
    def bbox(self):
        return self.lon_min, self.lon_max, self.lat_min, self.lat_max

    def unflatten(self, pixel_index):
        pixel_index = np.asarray(pixel_index)
        return pixel_index % self.n_x, pixel_index // self.n_x

    def pixel_center(self, pixel_index):
        ix, iy = self.unflatten(pixel_index)
        return (self.lon_min + (ix + 0.5) * self.dx,
                self.lat_min + (iy + 0.5) * self.dy)

    def active_pixel(self, lon, lat):
        """Flat index of the active pixel holding each (lon, lat), or -1
        where no active pixel does (outside the box, masked, or NaN).

        Half-open rule: a point on a shared edge belongs to the pixel on the
        high side, and the outer lon_max/lat_max edges are closed, so each
        axis index is min(floor((v - origin) / step), n - 1).
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        inside = (lon >= self.lon_min) & (lon <= self.lon_max) & \
                 (lat >= self.lat_min) & (lat <= self.lat_max)
        # points off the box (NaN and inf too) stand in at its corner, so
        # the integer cast never sees them
        ix = np.floor((np.where(inside, lon, self.lon_min) - self.lon_min)
                      / self.dx).astype(int)
        iy = np.floor((np.where(inside, lat, self.lat_min) - self.lat_min)
                      / self.dy).astype(int)
        ix = np.minimum(ix, self.n_x - 1)
        iy = np.minimum(iy, self.n_y - 1)
        return np.where(inside & self.active_mask[iy, ix],
                        iy * self.n_x + ix, -1)

    def contains(self, lon, lat):
        """True where (lon, lat) lies inside an active pixel."""
        return self.active_pixel(lon, lat) >= 0

    def cells(self):
        """The active pixels as region cells, in np.nonzero order."""
        iy, ix = np.nonzero(self.active_mask)
        return ((self.lon_min, ix, self.dx), (self.lat_min, iy, self.dy),
                np.full(ix.size, self.pixel_area))

    sample = sample_uniform

    def active_indices(self):
        """Flat indices of active pixels, row-major order."""
        return np.flatnonzero(self.active_mask)

    def same_layout(self, other: "Grid") -> bool:
        return (self.lon_min == other.lon_min and self.lon_max == other.lon_max
                and self.lat_min == other.lat_min and self.lat_max == other.lat_max
                and self.n_x == other.n_x and self.n_y == other.n_y)
