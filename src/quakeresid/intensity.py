"""Piecewise-constant intensity fields derived from forecasts.

A field stores one rate per active pixel, in expected events per square
degree over the field's time window.  Values are undefined (not zero)
outside active pixels.

The two per-pixel vectors that the gridded tests, the pixel residuals and
the replicate engine read live here, both in row-major active order:
IntensityField.expected_counts (rate times pixel area) and observed_counts
(events per pixel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalogs import Catalog
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

    def expected_counts(self) -> np.ndarray:
        """Expected count per active pixel, row-major active order."""
        return self.active_rates() * self.grid.pixel_area


def observed_counts(fld: IntensityField, catalog: Catalog) -> np.ndarray:
    """Event count per active pixel, row-major active order; an event in no
    active pixel is not counted."""
    grid = fld.grid
    pix = grid.active_pixel(catalog.lon, catalog.lat)
    counts = np.bincount(pix[pix >= 0], minlength=grid.n_y * grid.n_x)
    return counts[grid.active_mask.ravel()]


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


def check_inside(grid: Grid, lon, lat) -> np.ndarray:
    """Flat index of the active pixel holding each point (Grid.active_pixel);
    OutsideRegionError naming the first point not in an active pixel."""
    pix = grid.active_pixel(lon, lat)
    outside = np.atleast_1d(pix < 0)
    if outside.any():
        i = int(np.argmax(outside))
        x, y = np.broadcast_arrays(np.atleast_1d(lon), np.atleast_1d(lat))
        raise OutsideRegionError(f"point at index {i} (lon {x[i]}, lat {y[i]}) "
                                 "is outside the active region")
    return pix


def evaluate(fld: IntensityField, lon, lat):
    """Rate per square degree at (lon, lat); OutsideRegionError if the point
    is not in an active pixel."""
    return fld.rate_per_area.ravel()[check_inside(fld.grid, lon, lat)]


def integrate(fld: IntensityField) -> float:
    """Expected count over the active pixels; exact closed-form sum.  A
    count too large for a float is a ValidationError."""
    with np.errstate(over="ignore"):
        # inactive pixels hold NaN, which nansum skips
        total = float(np.nansum(fld.rate_per_area)) * fld.grid.pixel_area
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
