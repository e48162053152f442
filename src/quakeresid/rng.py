"""Seeded, stream-addressed random number generation.

Streams are backed by counter-based Philox keyed on (seed, stream_index),
so identical addresses give bit-identical draws on every platform and
replicates can run in any order.  Poisson variates use a fixed method
(CDF inversion below mean 10, Hormann's PTRS transformed rejection above)
so outputs stay bit-reproducible across library versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, lgamma, log

import numpy as np

_INVERSION_CUTOFF = 10.0


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
    if np.any(mu_flat < 0) or np.any(~np.isfinite(mu_flat)):
        raise ValueError("poisson mean must be finite and non-negative")
    out = np.zeros(mu_flat.shape, dtype=np.int64)

    small = (mu_flat > 0) & (mu_flat < _INVERSION_CUTOFF)
    if np.any(small):
        out[small] = _poisson_inversion(rng, mu_flat[small])
    large = mu_flat >= _INVERSION_CUTOFF
    out[large] = _poisson_ptrs(rng, mu_flat[large].tolist())

    if scalar:
        return out.reshape(mu_arr.shape)[()]
    return out.reshape(mu_arr.shape)


def _poisson_inversion(rng, mu):
    """Vectorized CDF inversion: smallest k with F(k) >= U."""
    u = rng.random(mu.shape)
    k = np.zeros(mu.shape, dtype=np.int64)
    p = np.exp(-mu)
    cdf = p.copy()
    active = cdf < u
    while np.any(active):
        k[active] += 1
        p[active] *= mu[active] / k[active]
        cdf[active] += p[active]
        active = active & (cdf < u)
    return k


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
        smu = mu ** 0.5
        b = 0.931 + 2.53 * smu
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        log_mu = log(mu)
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
            if (log(v) + log(inv_alpha) - log(a / (us * us) + b)
                    <= k * log_mu - mu - lgamma(k + 1.0)):
                break
        out.append(k)
        pending -= 1
    return out
