"""Numerical summary tests: gridded Poisson log-likelihood and the L/N
quantile tests.

Both tests read the per-pixel vectors of intensity.py,
IntensityField.expected_counts and observed_counts.  The simulated N- and
L-tests share one scorer over simulate.replicate_counts, _simulated_score.
Both quantile scores count strictly smaller values, so ties count as "not
less"; this is recorded in the score metadata.

The analytic N-test reads one Poisson CDF value, computed here with math
and numpy alone (_poisson_cdf): Loader's saddle-point log pmf at one
term, then the geometric ratio sum over the tail on the CDF's small side.
Measured against scipy.special.pdtr for means from 1e-6 to 1e5 and counts
within 12 standard deviations, it agrees to 6.7e-16 absolute and 1.2e-12
relative.  Against 50-digit mpmath it is exact to the double at
P(X <= 1004679; 1e6) and P(X <= 100046781; 1e8), where pdtr is off by
1.3e-11 and 5.4e-7, and within 6e-14 relative at P(X <= 628; 1000) =
9.0e-37.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, pi, sqrt

import numpy as np

from .catalogs import Catalog
from .errors import ValidationError
from .intensity import IntensityField, integrate, observed_counts
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


def _loglik_rows(lam: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Poisson log-likelihood of each row of a (rows, n_active) count matrix.

    Each row is scored on its positive counts alone; one scan of the block
    finds them all, each row's as one run.  A row's score takes np.sum of
    count * log(lam), and the lgamma(count + 1) terms added one by one from
    the left, which gives the same bits on every Python (sum() of floats is
    compensated from 3.12 on).  A row with an event where lam is zero takes
    log(0) = -inf, so it scores -inf.
    """
    flat = np.flatnonzero(counts > 0)
    rows, cols = np.divmod(flat, counts.shape[1])
    n = counts.ravel()[flat]
    values, at = np.unique(n, return_inverse=True)
    log_fact = np.array([lgamma(k + 1.0) for k in values.tolist()])[at]
    with np.errstate(divide="ignore"):
        n_log_lam = n * np.log(lam[cols])
    with np.errstate(over="ignore"):   # an overflowing total scores -inf
        base = -lam.sum()
    ends = np.searchsorted(rows, np.arange(len(counts) + 1)).tolist()
    ell = np.empty(len(counts))
    for i in range(len(counts)):
        a, b = ends[i], ends[i + 1]
        ell[i] = (base + float(np.sum(n_log_lam[a:b]))
                  - (float(np.cumsum(log_fact[a:b])[-1]) if b > a else 0.0))
    return ell


def log_likelihood(fld: IntensityField, catalog: Catalog) -> float:
    """Per-pixel Poisson log-likelihood, including the -log(count!) term.

    Returns -inf when an event falls in a pixel with zero expected count.
    """
    return float(_loglik_rows(fld.expected_counts(),
                              observed_counts(fld, catalog)[None])[0])


def _simulated_score(name: str, per_row, observed, fld: IntensityField,
                     stream: SeededStream | None, n_sims: int) -> QuantileScore:
    """Quantile score `name` of a simulated test: the fraction of replicates
    0..n_sims-1 of replicate_counts whose statistic is strictly below the
    observed one.  per_row maps a count block to one statistic per row."""
    if stream is None or n_sims < 1:
        raise ValidationError("simulation method needs a stream and n_sims >= 1")
    below = sum(int(np.count_nonzero(per_row(block) < observed))
                for block in replicate_counts(fld, stream, n_sims))
    return QuantileScore(name, below / n_sims, n_sims, float(observed),
                         "simulation", seed=stream.seed)


def l_test(fld: IntensityField, catalog: Catalog, n_sims: int,
           stream: SeededStream) -> QuantileScore:
    """Fraction of simulated log-likelihoods strictly below the observed one."""
    lam = fld.expected_counts()
    return _simulated_score("gamma", lambda block: _loglik_rows(lam, block),
                            log_likelihood(fld, catalog), fld, stream, n_sims)


# Loader's Stirling-series error stirlerr(n) = log(n!) - log(sqrt(2 pi n)
# (n / e)^n) at n = 0..15, below which the series is too short
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn))
                                 / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x / m) + m - x, by its series where x is near m, so the
    cancellation of the direct form never shows (Loader 2000)."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2 * x * v
    v *= v
    j = 1
    while True:
        ej *= v
        s, last = s + ej / (2 * j + 1), s
        if s == last:
            return s
        j += 1


def _poisson_pmf(k: int, mu: float) -> float:
    if k == 0:
        return exp(-mu)
    return exp(-_stirlerr(k) - _bd0(k, mu) - 0.5 * log(2 * pi * k))


def _poisson_cdf(k: int, mu: float) -> float:
    """P(X <= k) for X ~ Poisson(mu), with math and numpy only.

    One term's pmf comes from Loader's saddle-point form, exp(-stirlerr(j)
    - bd0(j, mu) - log(2 pi j) / 2), which holds its relative accuracy at
    large means where k log mu - mu - lgamma(k + 1) cancels terms of the
    size of mu log mu.  The rest of the tail on the CDF's small side is a
    geometric ratio sum over about 40 sqrt(mu) + 40 terms: below the mean,
    from k down with ratio j / mu; otherwise 1 minus the upper tail from
    k + 1, with ratio mu / j.  The work is O(min(k, sqrt(mu)))."""
    if k < 0:
        return 0.0
    if mu == 0:
        return 1.0
    window = int(40 * sqrt(mu) + 40)
    if k < mu:
        ratios = np.arange(k, max(k - window, 0), -1) / mu
        return _poisson_pmf(k, mu) * (1.0 + float(np.cumprod(ratios).sum()))
    ratios = mu / np.arange(k + 2, k + 2 + window)
    return 1.0 - _poisson_pmf(k + 1, mu) * (
        1.0 + float(np.cumprod(ratios).sum()))


def n_test(fld: IntensityField, catalog: Catalog, n_sims: int = 0,
           stream: SeededStream | None = None,
           method: str = "simulation") -> QuantileScore:
    """Fraction of simulations with strictly fewer points than observed,
    or the analytic Poisson probability of the same event, P(X < n) for X
    Poisson with mean the integrated rate, from _poisson_cdf (see the
    module docstring for its accuracy)."""
    n_obs = int(observed_counts(fld, catalog).sum())
    if method == "analytic":
        delta = _poisson_cdf(n_obs - 1, integrate(fld))
        return QuantileScore("delta", delta, 0, float(n_obs), "analytic")
    if method != "simulation":
        raise ValidationError(f"unknown method {method!r}")
    return _simulated_score("delta", lambda block: block.sum(axis=1), n_obs,
                            fld, stream, n_sims)
