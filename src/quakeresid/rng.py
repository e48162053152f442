"""Seeded, stream-addressed random number generation.

Streams are backed by counter-based Philox keyed on (seed, stream_index),
so identical addresses give bit-identical draws on every platform and
replicates can run in any order.  Poisson variates use a fixed method
(CDF inversion below mean 10, Hormann's PTRS transformed rejection above)
so outputs stay bit-reproducible across library versions.  One engine,
poisson_rows, draws one replicate per generator, many at once; poisson is
its one-row case.  PTRS runs in rounds: each round tests one pair for every
unfinished mean of every row at once.  Each generator ends where drawing
its row alone would leave it, and no draw needs scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .errors import ValidationError

_INVERSION_CUTOFF = 10.0
# Largest Poisson mean accepted.  PTRS compares log-densities whose terms
# grow like mu * log(mu); at 1e12 their rounding error is near 1e-2, and
# the counts stay far inside int64.
MAX_POISSON_MEAN = 1e12


@dataclass(frozen=True)
class SeededStream:
    seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "SeededStream":
        """Derived stream for replicate number `index`.

        Substream addressing folds the replicate index into the stream index
        with a fixed multiplier so nested replicates never collide for
        realistic stream counts.
        """
        return SeededStream(self.seed,
                            (self.stream_index * 1_000_003 + 1 + index)
                            & 0xFFFFFFFFFFFFFFFF)


def poisson(rng: np.random.Generator, mu) -> np.ndarray:
    """Poisson draws with the toolkit's fixed sampling method: the one-row
    case of poisson_rows.

    mu may be a scalar or array; returns int64 of the same shape, and an
    int64 scalar for a scalar mu.
    """
    mu = np.asarray(mu, dtype=float)
    return poisson_rows([rng], mu.ravel())[0].reshape(mu.shape)[()]


def poisson_rows(gens, mu) -> np.ndarray:
    """Counts of one replicate per generator: a (len(gens), len(mu)) int64
    matrix whose row r is poisson(gens[r], mu).

    Row r reads gens[r] in a fixed order: one uniform per inversion mean,
    all at once, then PTRS pairs in rounds of one pair per mean it has
    left, in mean order.  Each generator ends just past the last pair its
    row used.
    """
    mu = np.asarray(mu, dtype=float)
    _check_means(mu)
    out = np.zeros((len(gens), mu.size), dtype=np.int64)
    small = np.flatnonzero((mu > 0) & (mu < _INVERSION_CUTOFF))
    large = mu >= _INVERSION_CUTOFF
    if len(small):
        inv = np.empty((len(gens), len(small)))
        for g, inv_row in zip(gens, inv):
            g.random(out=inv_row)
        (rows, cols), k = _poisson_inversion(inv, mu[small])
        out[rows, small[cols]] = k
    if large.any():
        out[:, large] = _ptrs_rows(gens, mu[large].tolist())
    return out


def _check_means(mu):
    if np.any(mu < 0) or np.any(~np.isfinite(mu)):
        raise ValueError("poisson mean must be finite and non-negative")
    if np.any(mu > MAX_POISSON_MEAN):
        raise ValidationError(
            f"poisson mean {float(mu.max())!r} is above the largest "
            f"supported mean {MAX_POISSON_MEAN:g}")


def _poisson_inversion(u, mu):
    """Vectorized CDF inversion: smallest k with F(k) >= u.

    u is a matrix with one row of uniforms per replicate of mu.  Returns
    the (row, column) indices of the draws with k >= 1, in row-major order,
    and their k; the others are 0.  Each step carries only the draws whose
    CDF is still below their uniform, and updates each with the one-mean
    recursion p *= mu / k; cdf += p.
    """
    p = np.exp(-mu)
    flat = np.flatnonzero(p < u)
    at = np.divmod(flat, u.shape[1])
    u, mu, p = u.ravel()[flat], mu[at[1]], p[at[1]]
    k = np.zeros(len(u), dtype=np.int64)
    live = np.arange(len(u))
    cdf = p
    step = 0
    while len(live):
        step += 1
        k[live] = step
        p = p * (mu / step)
        cdf = cdf + p
        go = cdf < u
        live, u, mu, p, cdf = live[go], u[go], mu[go], p[go], cdf[go]
    return at, k


def _ptrs_constants(mu):
    """Hormann's PTRS constants (a, b, inv_alpha, v_r, log_mu) for mu >= 10."""
    b = 0.931 + 2.53 * mu ** 0.5
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    return a, b, inv_alpha, v_r, log(mu)


def _ptrs_accepts(v, us, k, mu, a, b, inv_alpha, log_mu) -> bool:
    """PTRS's exact acceptance test, on Python floats: math.log, whose last
    bits numpy's log need not match, and math.lgamma."""
    return (log(v) + log(inv_alpha) - log(a / (us * us) + b)
            <= k * log_mu - mu - lgamma(k + 1.0))


def _ptrs_accepts_all(v, us, k, mu, a, b, inv_alpha, log_mu) -> np.ndarray:
    """_ptrs_accepts over arrays (one mean and its constants per element),
    with the same outcome for every element.

    The right-hand side is the scalar one bit for bit: lgamma comes from
    math.lgamma, once per distinct k.  np.log can differ from math.log in
    the last bits, so numpy decides only where the two sides of the test
    are further apart than 1e-11 of the size of their terms, far beyond
    any such difference; _ptrs_accepts decides the rest.
    """
    values, at = np.unique(k, return_inverse=True)
    lgam = np.array([lgamma(x + 1.0) for x in values.tolist()])[at]
    log_v, log_h = np.log(v), np.log(a / (us * us) + b)
    log_ia = np.log(inv_alpha)
    km = k * log_mu
    lhs = log_v + log_ia - log_h
    rhs = km - mu - lgam
    slack = 1e-11 * (np.abs(log_v) + np.abs(log_ia) + np.abs(log_h)
                     + np.abs(km) + mu + np.abs(lgam))
    accept = lhs <= rhs
    for j in np.flatnonzero(np.abs(lhs - rhs) <= slack).tolist():
        accept[j] = _ptrs_accepts(*(float(x[j]) for x in (
            v, us, k, mu, a, b, inv_alpha, log_mu)))
    return accept


def _ptrs_rows(gens, mus):
    """Hormann (1993) PTRS transformed rejection, valid for mu >= 10: one
    row of counts per generator.

    Each round gives every unfinished (row, mean) one (u, v) pair.  A row
    reads its round's pairs from its own generator in one block, one pair
    per mean it has left, in mean order; a mean whose pair is rejected
    waits for the next round, so a row never draws a pair it does not use.
    The squeezes and k use only + - * /, abs and floor, which numpy rounds
    exactly as Python does.
    """
    consts = np.array([(mu, *_ptrs_constants(mu)) for mu in mus])
    out = np.empty((len(gens), len(mus)), dtype=np.int64)
    rows, cols = np.indices(out.shape).reshape(2, -1)
    while len(rows):
        left = np.bincount(rows, minlength=len(gens)).tolist()
        uv = np.concatenate([g.random(2 * c) for g, c in zip(gens, left) if c])
        u, v = uv[0::2] - 0.5, uv[1::2]
        mu, a, b, inv_alpha, v_r, log_mu = consts[cols].T
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + mu + 0.43)
        done = (us >= 0.07) & (v <= v_r)
        full = np.flatnonzero(~done & (k >= 0) & ~((us < 0.013) & (v > us)))
        if len(full):
            done[full] = _ptrs_accepts_all(
                v[full], us[full], k[full], mu[full], a[full], b[full],
                inv_alpha[full], log_mu[full])
        out[rows[done], cols[done]] = k[done]
        rows, cols = rows[~done], cols[~done]
    return out
