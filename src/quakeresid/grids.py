"""Rectangular lon/lat pixel grids with an active-pixel mask.

Pixel membership is half-open [lo, hi) on both axes; the last row and
column are closed so the grid partitions its bounding box.  A Grid is also
an observation region (the union of its active pixels): it has the area,
bbox, contains and sample members every region has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutsideRegionError, ValidationError


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

    def pixel_of(self, lon, lat):
        """Return (ix, iy) of the pixel owning (lon, lat).

        Half-open rule: a point on a shared edge belongs to the pixel on the
        high side, except on the outer lon_max/lat_max boundary where the
        last pixel is closed.  Raises OutsideRegionError outside the bounding
        box (mask is not consulted here).
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        out = (lon < self.lon_min) | (lon > self.lon_max) | \
              (lat < self.lat_min) | (lat > self.lat_max)
        if np.any(out):
            raise OutsideRegionError("point outside grid bounding box")
        ix = np.floor((lon - self.lon_min) / self.dx).astype(int)
        iy = np.floor((lat - self.lat_min) / self.dy).astype(int)
        ix = np.minimum(ix, self.n_x - 1)
        iy = np.minimum(iy, self.n_y - 1)
        return ix, iy

    def flat_index(self, ix, iy):
        return np.asarray(iy) * self.n_x + np.asarray(ix)

    def unflatten(self, pixel_index):
        pixel_index = np.asarray(pixel_index)
        return pixel_index % self.n_x, pixel_index // self.n_x

    def pixel_center(self, pixel_index):
        ix, iy = self.unflatten(pixel_index)
        return (self.lon_min + (ix + 0.5) * self.dx,
                self.lat_min + (iy + 0.5) * self.dy)

    def active_pixel(self, lon, lat):
        """Flat index of the active pixel holding each (lon, lat), or -1
        where no active pixel does (outside the box, masked, or NaN)."""
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        inside = (lon >= self.lon_min) & (lon <= self.lon_max) & \
                 (lat >= self.lat_min) & (lat <= self.lat_max)
        # points off the box (NaN and inf too) stand in at its corner, so
        # the integer cast in pixel_of never sees them
        ix, iy = self.pixel_of(np.where(inside, lon, self.lon_min),
                               np.where(inside, lat, self.lat_min))
        return np.where(inside & self.active_mask[iy, ix],
                        self.flat_index(ix, iy), -1)

    def contains(self, lon, lat):
        """True where (lon, lat) lies inside an active pixel."""
        return self.active_pixel(lon, lat) >= 0

    sample = _sample_by_rejection

    def active_indices(self):
        """Flat indices of active pixels, row-major order."""
        iy, ix = np.nonzero(self.active_mask)
        return self.flat_index(ix, iy)

    def same_layout(self, other: "Grid") -> bool:
        return (self.lon_min == other.lon_min and self.lon_max == other.lon_max
                and self.lat_min == other.lat_min and self.lat_max == other.lat_max
                and self.n_x == other.n_x and self.n_y == other.n_y)
