"""Per-pixel diagnostics: raw, Pearson, and deviance residuals.

Every residual reads the per-pixel vectors of intensity.py,
IntensityField.expected_counts and observed_counts, which the gridded
tests of consistency.py read too.  Fields are piecewise constant, so every
integral here is closed form; there is no quadrature anywhere.

An event in a pixel where one deviance model is zero gives a +-inf
sentinel.  A value that is not defined is listed in skipped_pixels with its
reason and written as skipped: a zero-rate pixel's Pearson residual, and a
deviance pixel where both models are zero and an event fell.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .catalogs import Catalog
from .errors import ValidationError
from .grids import Grid
from .intensity import IntensityField, observed_counts


@dataclass(frozen=True)
class PixelResidualMap:
    grid: Grid
    kind: str                      # "raw" | "pearson" | "deviance"
    pixel_index: np.ndarray = field(repr=False)  # active pixels, row-major
    values: np.ndarray = field(repr=False)       # +-inf marks sentinels
    skipped_pixels: tuple = ()     # (pixel_index, reason) pairs

    def to_csv(self) -> str:
        """CSV: pixel_index, lon_center, lat_center, value, flag."""
        skipped = {p for p, _ in self.skipped_pixels}
        cx, cy = self.grid.pixel_center(self.pixel_index)
        out = io.StringIO()
        out.write("pixel_index,lon_center,lat_center,value,flag\n")
        for pix, x, y, val in zip(self.pixel_index.tolist(), cx.tolist(),
                                  cy.tolist(), self.values.tolist()):
            if pix in skipped:
                flag, text = "skipped", ""
            elif val == math.inf:
                flag, text = "+inf", ""
            elif val == -math.inf:
                flag, text = "-inf", ""
            else:
                flag, text = "ok", "%.12g" % val
            out.write(f"{pix},{'%.12g' % x},{'%.12g' % y},{text},{flag}\n")
        return out.getvalue()


def raw_residuals(fld: IntensityField, catalog: Catalog) -> PixelResidualMap:
    """Observed count minus expected count per active pixel."""
    counts = observed_counts(fld, catalog)
    return PixelResidualMap(fld.grid, "raw", fld.grid.active_indices(),
                            counts - fld.expected_counts())


def pearson_residuals(fld: IntensityField, catalog: Catalog) -> PixelResidualMap:
    """Raw residuals standardized by the root intensity.

    For a piecewise-constant field this is count/sqrt(v) - sqrt(v)*pixel_area
    per pixel with rate v; zero-rate pixels cannot be standardized and are
    skipped.
    """
    grid = fld.grid
    counts = observed_counts(fld, catalog)
    rates = fld.active_rates()
    pix = grid.active_indices()
    nz = rates > 0
    values = np.full(len(rates), np.nan)
    values[nz] = counts[nz] / np.sqrt(rates[nz]) \
        - np.sqrt(rates[nz]) * grid.pixel_area
    skipped = tuple((int(p), "zero-rate pixel") for p in pix[~nz])
    return PixelResidualMap(grid, "pearson", pix, values, skipped)


def deviance_residuals(field_1: IntensityField, field_2: IntensityField,
                       catalog: Catalog) -> PixelResidualMap:
    """Per-pixel difference of the two models' log-likelihood terms.

    Positive values mean field_1 fits better in that pixel.  An event in a
    pixel where one field is zero produces a +-inf sentinel there; where
    both are zero the difference is undefined (NaN) and the pixel is
    skipped.
    """
    if not field_1.grid.same_layout(field_2.grid):
        raise ValidationError("deviance requires a shared grid layout")
    g1, g2 = field_1.grid, field_2.grid
    dropped = [(int(p), "inactive in one model")
               for p in np.flatnonzero(g1.active_mask ^ g2.active_mask)]
    grid = replace(g1, active_mask=g1.active_mask & g2.active_mask)
    shared = [replace(f, grid=grid) for f in (field_1, field_2)]
    counts = observed_counts(shared[0], catalog)

    # events on a zero rate give log(0): -inf for that model's term
    with np.errstate(divide="ignore", invalid="ignore"):
        term1, term2 = (np.where(counts > 0, counts * np.log(f.active_rates()),
                                 0.0) - f.expected_counts() for f in shared)
        values = term1 - term2
    pix = grid.active_indices()
    undefined = [(int(p), "event where both models have zero rate")
                 for p in pix[np.isnan(values)]]
    return PixelResidualMap(grid, "deviance", pix, values,
                            tuple(sorted(dropped + undefined)))


def lr_score(residual_map: PixelResidualMap) -> float:
    """Summed deviance residuals; equals the models' log-likelihood
    difference (the count-factorial terms cancel exactly)."""
    if residual_map.kind != "deviance":
        raise ValidationError("lr_score requires a deviance residual map")
    if np.any(~np.isfinite(residual_map.values)):
        raise ValidationError(
            "deviance map contains infinity or NaN values; lr_score is "
            "undefined")
    return float(np.sum(residual_map.values))
