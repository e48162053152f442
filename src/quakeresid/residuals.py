"""Per-pixel diagnostics: raw, Pearson, and deviance residuals.

Fields are piecewise constant, so every integral here is closed form;
there is no quadrature anywhere.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .catalogs import Catalog
from .consistency import observed_counts
from .errors import ValidationError
from .grids import Grid
from .intensity import IntensityField


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
    grid = fld.grid
    counts = observed_counts(fld, catalog)
    lam = fld.active_rates() * grid.pixel_area
    return PixelResidualMap(grid, "raw", grid.active_indices(), counts - lam)


def pearson_residuals(fld: IntensityField, catalog: Catalog) -> PixelResidualMap:
    """Raw residuals standardized by the root intensity.

    For a piecewise-constant field this is count/sqrt(v) - sqrt(v)*pixel_area
    per pixel with rate v; zero-rate pixels cannot be standardized and are
    skipped.
    """
    grid = fld.grid
    counts = observed_counts(fld, catalog)
    rates = fld.active_rates()
    values = np.zeros(len(rates))
    skipped = []
    pix = grid.active_indices()
    zero = rates == 0
    nz = ~zero
    values[nz] = counts[nz] / np.sqrt(rates[nz]) \
        - np.sqrt(rates[nz]) * grid.pixel_area
    for p in pix[zero]:
        skipped.append((int(p), "zero-rate pixel"))
    values[zero] = np.nan
    return PixelResidualMap(grid, "pearson", pix, values, tuple(skipped))


def deviance_residuals(field_1: IntensityField, field_2: IntensityField,
                       catalog: Catalog) -> PixelResidualMap:
    """Per-pixel difference of the two models' log-likelihood terms.

    Positive values mean field_1 fits better in that pixel.  An event in a
    pixel where either field is zero produces a +-inf sentinel there.
    """
    if not field_1.grid.same_layout(field_2.grid):
        raise ValidationError("deviance requires a shared grid layout")
    g1, g2 = field_1.grid, field_2.grid
    shared_mask = g1.active_mask & g2.active_mask
    dropped = [(int(p), "inactive in one model")
               for p in np.flatnonzero(g1.active_mask ^ g2.active_mask)]
    grid = Grid(g1.lon_min, g1.lon_max, g1.lat_min, g1.lat_max,
                g1.dx, g1.dy, g1.n_x, g1.n_y, shared_mask)
    area = grid.pixel_area
    counts = observed_counts(field_1, catalog)[shared_mask[g1.active_mask]]
    v1 = field_1.rate_per_area[shared_mask]
    v2 = field_2.rate_per_area[shared_mask]

    # events on a zero rate give log(0): -inf for that model's term
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(counts > 0, counts * np.log(v1), 0.0) - v1 * area
        term2 = np.where(counts > 0, counts * np.log(v2), 0.0) - v2 * area
        values = term1 - term2
    return PixelResidualMap(grid, "deviance", grid.active_indices(), values,
                            tuple(dropped))


def lr_score(residual_map: PixelResidualMap) -> float:
    """Summed deviance residuals; equals the models' log-likelihood
    difference (the count-factorial terms cancel exactly)."""
    if residual_map.kind != "deviance":
        raise ValidationError("lr_score requires a deviance residual map")
    if np.any(~np.isfinite(residual_map.values)):
        raise ValidationError(
            "deviance map contains infinity sentinels; lr_score is undefined")
    return float(np.sum(residual_map.values))
