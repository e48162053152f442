"""Seeded, stream-addressed random number generation.

Streams are backed by counter-based Philox keyed on (seed, stream_index),
so identical addresses give bit-identical draws on every platform and
replicates can run in any order.  Poisson variates use a fixed method
(CDF inversion below mean 10, Hormann's PTRS transformed rejection above)
so outputs stay bit-reproducible across library versions.  poisson_rows
draws one replicate per generator, many at once, with the same counts as
one poisson call per generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, lgamma, log

import numpy as np

from .errors import ValidationError

_INVERSION_CUTOFF = 10.0
# Largest Poisson mean accepted.  PTRS compares log-densities whose terms
# grow like mu * log(mu); at 1e12 their rounding error is near 1e-2, and
# the counts stay far inside int64.
MAX_POISSON_MEAN = 1e12
# poisson_rows draws, per row, one PTRS (u, v) pair per mean, a quarter
# more for rejections and this many more; a row that still runs out is
# refilled from its own generator.
_SPARE_PAIRS = 8


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
    """Poisson draws with the toolkit's fixed sampling method.

    mu may be a scalar or array; returns int64 of the same shape.
    """
    mu_arr = np.asarray(mu, dtype=float)
    scalar = mu_arr.ndim == 0
    mu_flat = np.atleast_1d(mu_arr).ravel()
    _check_means(mu_flat)
    out = np.zeros(mu_flat.shape, dtype=np.int64)

    small = np.flatnonzero((mu_flat > 0) & (mu_flat < _INVERSION_CUTOFF))
    if len(small):
        (at,), k = _poisson_inversion(rng.random(len(small)), mu_flat[small])
        out[small[at]] = k
    large = mu_flat >= _INVERSION_CUTOFF
    out[large] = _poisson_ptrs(rng, mu_flat[large].tolist())

    if scalar:
        return out.reshape(mu_arr.shape)[()]
    return out.reshape(mu_arr.shape)


def poisson_rows(gens, mu) -> np.ndarray:
    """Counts of one replicate per generator: a (len(gens), len(mu)) int64
    matrix whose row r equals poisson(gens[r], mu) bit for bit.

    Row r reads gens[r] in the scalar order: its inversion uniforms first,
    then its PTRS pairs mean by mean.  The generators are then left past
    that point, because PTRS uniforms are drawn ahead in whole rows.
    """
    mu = np.asarray(mu, dtype=float)
    _check_means(mu)
    out = np.zeros((len(gens), mu.size), dtype=np.int64)
    small = np.flatnonzero((mu > 0) & (mu < _INVERSION_CUTOFF))
    large = mu >= _INVERSION_CUTOFF
    n_large = int(large.sum())
    inv = np.empty((len(gens), len(small)))
    pairs = n_large + n_large // 4 + _SPARE_PAIRS if n_large else 0
    buf = np.empty((len(gens), 2 * pairs))
    for g, inv_row, buf_row in zip(gens, inv, buf):
        g.random(out=inv_row)
        g.random(out=buf_row)
    if len(small):
        (rows, cols), k = _poisson_inversion(inv, mu[small])
        out[rows, small[cols]] = k
    if n_large:
        out[:, large] = _ptrs_rows(gens, buf, mu[large].tolist())
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

    u holds one uniform per mean: a vector like mu, or a matrix with one
    row of uniforms per replicate of mu.  Returns the indices of the draws
    with k >= 1, as np.nonzero gives them for u, and their k; the others
    are 0.  Each step carries only the draws whose CDF is still below
    their uniform, and updates each with the one-mean recursion
    p *= mu / k; cdf += p.
    """
    p = np.exp(-mu)
    at = np.nonzero(p < u)
    u, mu, p = u[at], mu[at[-1]], p[at[-1]]
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
    """PTRS's exact acceptance test, on Python floats: math.log and
    math.lgamma, whose last bits numpy's log and gammaln need not match."""
    return (log(v) + log(inv_alpha) - log(a / (us * us) + b)
            <= k * log_mu - mu - lgamma(k + 1.0))


def _ptrs_accepts_all(v, us, k, mu, a, b, inv_alpha, log_mu,
                      gammaln) -> np.ndarray:
    """_ptrs_accepts over arrays (one mean and its constants per element),
    with the same outcome for every element; gammaln is
    scipy.special.gammaln, which the caller imports once.

    np.log and gammaln can differ from math.log and math.lgamma in the last
    bits, so numpy decides only where the two sides of the test are further
    apart than 1e-11 of the size of their terms, far beyond any such
    difference; _ptrs_accepts decides the rest.
    """
    log_v, log_h = np.log(v), np.log(a / (us * us) + b)
    log_ia = np.log(inv_alpha)
    km, lgam = k * log_mu, gammaln(k + 1.0)
    lhs = log_v + log_ia - log_h
    rhs = km - mu - lgam
    slack = 1e-11 * (np.abs(log_v) + np.abs(log_ia) + np.abs(log_h)
                     + np.abs(km) + mu + np.abs(lgam))
    accept = lhs <= rhs
    for j in np.flatnonzero(np.abs(lhs - rhs) <= slack).tolist():
        accept[j] = _ptrs_accepts(*(float(x[j]) for x in (
            v, us, k, mu, a, b, inv_alpha, log_mu)))
    return accept


def _poisson_ptrs(rng, mus):
    """Hormann (1993) PTRS transformed rejection, valid for mu >= 10.

    The means are served in order, each from consecutive (u, v) uniform
    pairs until one is accepted, exactly as one scalar loop per mean would
    draw them.  Uniforms come in blocks of one pair per unfinished mean:
    each of those needs at least one more pair, so a block never reads past
    the scalar loop's draws and the generator ends in the same state.
    """
    out = []
    pending = len(mus)
    block, pos = [], 0
    for mu in mus:
        a, b, inv_alpha, v_r, log_mu = _ptrs_constants(mu)
        while True:
            if pos == len(block):
                block, pos = rng.random(2 * pending).tolist(), 0
            u = block[pos] - 0.5
            v = block[pos + 1]
            pos += 2
            us = 0.5 - abs(u)
            k = floor((2.0 * a / us + b) * u + mu + 0.43)
            if us >= 0.07 and v <= v_r:
                break
            if k < 0 or (us < 0.013 and v > us):
                continue
            if _ptrs_accepts(v, us, k, mu, a, b, inv_alpha, log_mu):
                break
        out.append(k)
        pending -= 1
    return out


def _ptrs_rows(gens, buf, mus):
    """PTRS for every row of buf at once.  Step t hands every unfinished
    row its t-th (u, v) pair, for the mean it is serving: a row that
    accepts moves on to its next mean and a rejected row retries, so each
    row reads its uniforms in the scalar loop's order.  The squeezes and k
    use only + - * /, abs and floor, which numpy rounds exactly as Python
    does.  buf holds each row's first uniforms; the rows still unfinished
    when it runs out are refilled from their own generators."""
    from scipy.special import gammaln  # loaded only by PTRS blocks
    n_rows, width = buf.shape
    consts = np.array([(mu, *_ptrs_constants(mu)) for mu in mus])
    out = np.empty((n_rows, len(mus)), dtype=np.int64)
    serving = np.zeros(n_rows, dtype=np.intp)
    rows = np.arange(n_rows)
    col = 0
    while len(rows):
        if col == width:
            for r in rows.tolist():
                gens[r].random(out=buf[r])
            col = 0
        u = buf[rows, col] - 0.5
        v = buf[rows, col + 1]
        col += 2
        m = serving[rows]
        mu, a, b, inv_alpha, v_r, log_mu = consts[m].T
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + mu + 0.43)
        done = (us >= 0.07) & (v <= v_r)
        full = np.flatnonzero(~done & (k >= 0) & ~((us < 0.013) & (v > us)))
        if len(full):
            done[full] = _ptrs_accepts_all(
                v[full], us[full], k[full], mu[full], a[full], b[full],
                inv_alpha[full], log_mu[full], gammaln)
        out[rows[done], m[done]] = k[done]
        serving[rows[done]] += 1
        rows = rows[serving[rows] < len(mus)]
    return out
