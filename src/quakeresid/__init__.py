"""Forecast-verification toolkit for gridded spatial rate models.

Parses rate forecasts and event catalogs, runs numerical consistency tests,
computes per-pixel residual maps and second-order statistics, and builds
residual point processes (rescaled, thinned, superposed, super-thinned)
with homogeneity assessments.
"""

from .catalogs import (Catalog, filter_catalog, parse_catalog, parse_time,
                       serialize_catalog)
from .consistency import (QuantileScore, l_test, log_likelihood, n_test,
                          observed_counts)
from .errors import (DegenerateInfimumError, OutsideRegionError, ParseError,
                     QuakeResidError, SchemaError, ValidationError)
from .forecasts import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, Forecast,
                        parse_forecast)
from .grids import Grid
from .intensity import (IntensityField, aggregate, evaluate, extremes,
                        integrate, scale_window)
from .manifest import TOOLKIT_VERSION, RunManifest, build_manifest
from .regions import RowIntervalRegion, TransposedRegion
from .residuals import (PixelResidualMap, deviance_residuals, lr_score,
                        pearson_residuals, raw_residuals)
from .rng import SeededStream, poisson
from .secondorder import (KCurve, default_radii, envelope_bands, k_with_bands,
                          pairs_within, radii_grid, ripley_k, weighted_k,
                          wk_confidence_bands)
from .simulate import (simulate_catalog, simulate_cox_complement,
                       simulate_homogeneous, simulated_counts)
from .svg import k_curve_svg, point_map_svg, residual_map_svg
from .transforms import (ResidualSet, assess_homogeneity, rescale,
                         super_thin, superpose, thin_approx, thin_exact)

__version__ = TOOLKIT_VERSION
