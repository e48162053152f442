"""Numerical summary tests: gridded Poisson log-likelihood and the L/N
quantile tests.

Both quantile scores use strict inequality in the indicator sums, so ties
count as "not less"; this is recorded in the score metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy import special

from .catalogs import Catalog
from .errors import ValidationError
from .intensity import IntensityField, integrate
from .rng import SeededStream
from .simulate import simulated_counts

# CLI-level rejection conventions: gamma one-sided at 5%, delta two-sided.
GAMMA_REJECT_BELOW = 0.05
DELTA_REJECT_OUTSIDE = (0.025, 0.975)


@dataclass(frozen=True)
class QuantileScore:
    statistic: str            # "gamma" | "delta"
    value: float
    n_sims: int
    observed_stat: float      # log-likelihood (gamma) or event count (delta)
    method: str               # "simulation" | "analytic"
    seed: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError("quantile score must lie in [0, 1]")
        if self.method == "simulation" and self.n_sims < 1:
            raise ValidationError("simulation method needs n_sims >= 1")

    @property
    def reject_at_5pct(self) -> bool:
        if self.statistic == "gamma":
            return self.value < GAMMA_REJECT_BELOW
        lo, hi = DELTA_REJECT_OUTSIDE
        return not (lo <= self.value <= hi)

    def to_record(self) -> dict:
        return {
            "statistic": self.statistic,
            "value": self.value,
            "n_sims": self.n_sims,
            "observed_stat": self.observed_stat,
            "method": self.method,
            "seed": self.seed,
            "ties": "strict",
            "reject_at_5pct": self.reject_at_5pct,
        }


def observed_counts(fld: IntensityField, catalog: Catalog) -> np.ndarray:
    """Event count per active pixel, row-major active order."""
    grid = fld.grid
    counts = np.zeros((grid.n_y, grid.n_x), dtype=np.int64)
    if len(catalog):
        ix, iy = grid.pixel_of(catalog.lon, catalog.lat)
        np.add.at(counts, (iy, ix), 1)
    return counts[grid.active_mask]


def _loglik_from_counts(lam: np.ndarray, counts: np.ndarray) -> float:
    if np.any((counts > 0) & (lam == 0)):
        return float("-inf")
    pos = counts > 0
    term = -lam.sum()
    term += float(np.sum(counts[pos] * np.log(lam[pos])))
    term -= float(sum(map(lgamma, (counts[pos] + 1.0).tolist())))
    return float(term)


def log_likelihood(fld: IntensityField, catalog: Catalog) -> float:
    """Per-pixel Poisson log-likelihood, including the -log(count!) term.

    Returns -inf when an event falls in a pixel with zero expected count.
    """
    lam = fld.active_rates() * fld.grid.pixel_area
    return _loglik_from_counts(lam, observed_counts(fld, catalog))


def l_test(fld: IntensityField, catalog: Catalog, n_sims: int,
           stream: SeededStream) -> QuantileScore:
    """Fraction of simulated log-likelihoods strictly below the observed one."""
    if n_sims < 1:
        raise ValidationError("n_sims must be >= 1")
    lam = fld.active_rates() * fld.grid.pixel_area
    ell_obs = log_likelihood(fld, catalog)
    below = 0
    for j in range(n_sims):
        counts_j = simulated_counts(fld, stream.substream(j))
        if _loglik_from_counts(lam, counts_j) < ell_obs:
            below += 1
    return QuantileScore("gamma", below / n_sims, n_sims, ell_obs,
                         "simulation", seed=stream.seed)


def n_test(fld: IntensityField, catalog: Catalog, n_sims: int = 0,
           stream: SeededStream | None = None,
           method: str = "simulation") -> QuantileScore:
    """Fraction of simulations with strictly fewer points than observed,
    or the analytic Poisson probability of the same event."""
    n_obs = int(observed_counts(fld, catalog).sum())
    if method == "analytic":
        total = integrate(fld)
        delta = float(special.pdtr(n_obs - 1, total)) if n_obs > 0 else 0.0
        return QuantileScore("delta", delta, 0, float(n_obs), "analytic")
    if method != "simulation":
        raise ValidationError(f"unknown method {method!r}")
    if stream is None or n_sims < 1:
        raise ValidationError("simulation method needs a stream and n_sims >= 1")
    below = 0
    for j in range(n_sims):
        if int(simulated_counts(fld, stream.substream(j)).sum()) < n_obs:
            below += 1
    return QuantileScore("delta", below / n_sims, n_sims, float(n_obs),
                         "simulation", seed=stream.seed)
