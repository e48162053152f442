"""Piecewise-constant intensity fields derived from forecasts.

A field stores one rate per active pixel, in expected events per square
degree over the field's time window.  Values are undefined (not zero)
outside active pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutsideRegionError, ValidationError
from .forecasts import Forecast
from .grids import Grid


@dataclass(frozen=True)
class IntensityField:
    grid: Grid
    rate_per_area: np.ndarray = field(repr=False)  # (n_y, n_x); NaN if inactive

    def __post_init__(self):
        rates = np.asarray(self.rate_per_area, dtype=float)
        if rates.shape != (self.grid.n_y, self.grid.n_x):
            raise ValidationError("rate_per_area shape must match the grid")
        active = self.grid.active_mask
        if np.any(rates[active] < 0) or np.any(~np.isfinite(rates[active])):
            raise ValidationError("rates must be finite and non-negative")
        rates = rates.copy()
        rates[~active] = np.nan
        rates.setflags(write=False)
        object.__setattr__(self, "rate_per_area", rates)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "IntensityField":
        return cls(grid, np.full((grid.n_y, grid.n_x), float(value)))

    def active_rates(self) -> np.ndarray:
        """Rates of active pixels, row-major order."""
        return self.rate_per_area[self.grid.active_mask]


def aggregate(forecast: Forecast, mag_min: float) -> IntensityField:
    """Sum rates of all bins with mag_lo >= mag_min per pixel, divided by
    pixel area."""
    grid = forecast.grid
    sel = forecast.mag_lo >= mag_min
    # each pixel's bins are added in row order; with no bins selected
    # bincount gives integer zeros, which the division makes float
    totals = np.bincount(forecast.pixel_index[sel], weights=forecast.rate[sel],
                         minlength=grid.n_y * grid.n_x)
    rates = (totals / grid.pixel_area).reshape(grid.n_y, grid.n_x)
    rates[~grid.active_mask] = 0.0
    return IntensityField(grid, rates)


def scale_window(fld: IntensityField, fraction: float) -> IntensityField:
    """Multiply every rate by fraction (elapsed share of the forecast window)."""
    if not (0.0 < fraction <= 1.0):
        raise ValidationError("fraction must be in (0, 1]")
    rates = np.where(fld.grid.active_mask, fld.rate_per_area * fraction, 0.0)
    return IntensityField(fld.grid, rates)


def check_inside(grid: Grid, lon, lat) -> None:
    """OutsideRegionError naming the first point not in an active pixel."""
    inside = np.atleast_1d(grid.contains(lon, lat))
    if not inside.all():
        i = int(np.argmin(inside))
        x, y = np.broadcast_arrays(np.atleast_1d(lon), np.atleast_1d(lat))
        raise OutsideRegionError(f"point at index {i} (lon {x[i]}, lat {y[i]}) "
                                 "is outside the active region")


def evaluate(fld: IntensityField, lon, lat):
    """Rate per square degree at (lon, lat); OutsideRegionError if the point
    is not in an active pixel."""
    check_inside(fld.grid, lon, lat)
    ix, iy = fld.grid.pixel_of(lon, lat)
    return fld.rate_per_area[iy, ix]


def integrate(fld: IntensityField, pixel_subset=None) -> float:
    """Expected count over the requested active pixels (whole region by
    default); exact closed-form sum.  A count too large for a float is a
    ValidationError."""
    grid = fld.grid
    if pixel_subset is None:
        rates = np.where(grid.active_mask, fld.rate_per_area, 0.0)
    else:
        pixel_subset = np.asarray(pixel_subset, dtype=int)
        ix, iy = grid.unflatten(pixel_subset)
        if not np.all(grid.active_mask[iy, ix]):
            raise OutsideRegionError("pixel subset includes inactive pixels")
        rates = fld.rate_per_area[iy, ix]
    with np.errstate(over="ignore"):
        total = float(np.nansum(rates)) * grid.pixel_area
    if not np.isfinite(total):
        raise ValidationError("expected count is not finite: the rates sum "
                              "past the largest float")
    return total


def extremes(fld: IntensityField):
    """(infimum, supremum) of the rate over active pixels."""
    vals = fld.active_rates()
    if vals.size == 0:
        raise ValidationError("field has no active pixels")
    return float(vals.min()), float(vals.max())
