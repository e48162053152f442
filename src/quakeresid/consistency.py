"""Numerical summary tests: gridded Poisson log-likelihood and the L/N
quantile tests.

Both quantile scores use strict inequality in the indicator sums, so ties
count as "not less"; this is recorded in the score metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .catalogs import Catalog
from .errors import ValidationError
from .intensity import IntensityField, integrate
from .rng import SeededStream
from .simulate import replicate_counts

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
    """Event count per active pixel, row-major active order; an event in no
    active pixel is not counted."""
    grid = fld.grid
    pix = grid.active_pixel(catalog.lon, catalog.lat)
    counts = np.bincount(pix[pix >= 0], minlength=grid.n_y * grid.n_x)
    return counts[grid.active_mask.ravel()]


def _loglik_rows(lam: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Poisson log-likelihood of each row of a (rows, n_active) count matrix.

    Each row is scored on its positive counts alone: np.sum of
    count * log(lam), and the lgamma(count + 1) terms added one by one from
    the left, which gives the same bits on every Python (sum() of floats
    is compensated from 3.12 on).  A row with an event where lam is zero
    scores -inf.
    """
    impossible = (counts[:, lam == 0] > 0).any(axis=1)
    values = np.unique(counts[counts > 0])
    log_fact = np.array([lgamma(k + 1.0) for k in values.tolist()])
    with np.errstate(over="ignore"):   # an overflowing total scores -inf
        base = -lam.sum()
    ell = np.full(len(counts), float("-inf"))
    for i in np.flatnonzero(~impossible).tolist():
        pos = counts[i] > 0
        n = counts[i, pos]
        terms = np.cumsum(log_fact[np.searchsorted(values, n)])
        ell[i] = (base + float(np.sum(n * np.log(lam[pos])))
                  - (float(terms[-1]) if len(n) else 0.0))
    return ell


def log_likelihood(fld: IntensityField, catalog: Catalog) -> float:
    """Per-pixel Poisson log-likelihood, including the -log(count!) term.

    Returns -inf when an event falls in a pixel with zero expected count.
    """
    lam = fld.active_rates() * fld.grid.pixel_area
    return float(_loglik_rows(lam, observed_counts(fld, catalog)[None])[0])


def l_test(fld: IntensityField, catalog: Catalog, n_sims: int,
           stream: SeededStream) -> QuantileScore:
    """Fraction of simulated log-likelihoods strictly below the observed one."""
    if n_sims < 1:
        raise ValidationError("n_sims must be >= 1")
    lam = fld.active_rates() * fld.grid.pixel_area
    ell_obs = log_likelihood(fld, catalog)
    below = sum(int(np.count_nonzero(_loglik_rows(lam, block) < ell_obs))
                for block in replicate_counts(fld, stream, n_sims))
    return QuantileScore("gamma", below / n_sims, n_sims, ell_obs,
                         "simulation", seed=stream.seed)


def n_test(fld: IntensityField, catalog: Catalog, n_sims: int = 0,
           stream: SeededStream | None = None,
           method: str = "simulation") -> QuantileScore:
    """Fraction of simulations with strictly fewer points than observed,
    or the analytic Poisson probability of the same event."""
    n_obs = int(observed_counts(fld, catalog).sum())
    if method == "analytic":
        from scipy.special import pdtr  # loaded only by the analytic test
        total = integrate(fld)
        delta = float(pdtr(n_obs - 1, total)) if n_obs > 0 else 0.0
        return QuantileScore("delta", delta, 0, float(n_obs), "analytic")
    if method != "simulation":
        raise ValidationError(f"unknown method {method!r}")
    if stream is None or n_sims < 1:
        raise ValidationError("simulation method needs a stream and n_sims >= 1")
    below = sum(int(np.count_nonzero(block.sum(axis=1) < n_obs))
                for block in replicate_counts(fld, stream, n_sims))
    return QuantileScore("delta", below / n_sims, n_sims, float(n_obs),
                         "simulation", seed=stream.seed)
