import hashlib
import math

import numpy as np
import pytest
from scipy.special import pdtr

from quakeresid import SeededStream, ValidationError, poisson
from quakeresid import rng as rng_module
from quakeresid.rng import MAX_POISSON_MEAN, poisson_rows


def test_same_stream_same_draws():
    a = SeededStream(123, 0).generator().random(10)
    b = SeededStream(123, 0).generator().random(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededStream(1, 0).generator().random(10)
    b = SeededStream(2, 0).generator().random(10)
    assert not np.array_equal(a, b)


def test_substreams_are_distinct_and_stable():
    s = SeededStream(7, 0)
    subs = [s.substream(i) for i in range(50)]
    assert len({x.stream_index for x in subs}) == 50
    assert s.substream(3) == subs[3]
    a = subs[0].generator().random(5)
    b = subs[1].generator().random(5)
    assert not np.array_equal(a, b)


def test_poisson_zero_mean():
    rng = SeededStream(0, 0).generator()
    assert poisson(rng, 0.0) == 0
    assert np.all(poisson(rng, np.zeros(5)) == 0)


def test_poisson_negative_mean_rejected():
    rng = SeededStream(0, 0).generator()
    with pytest.raises(ValidationError,
                       match="poisson mean must be finite and non-negative"):
        poisson(rng, -1.0)


@pytest.mark.parametrize("mu", [0.3, 2.0, 8.0, 15.0, 120.0])
def test_poisson_moments(mu):
    rng = SeededStream(42, 0).generator()
    n = 20000
    draws = poisson(rng, np.full(n, mu))
    se_mean = np.sqrt(mu / n)
    assert abs(draws.mean() - mu) < 4 * se_mean
    # Poisson variance equals the mean; allow a generous band
    assert draws.var() == pytest.approx(mu, rel=0.1)


def test_poisson_small_mu_pmf():
    # mu = 1: P(0) = P(1) = 1/e
    rng = SeededStream(9, 0).generator()
    n = 50000
    draws = poisson(rng, np.full(n, 1.0))
    p0 = np.mean(draws == 0)
    p1 = np.mean(draws == 1)
    assert p0 == pytest.approx(np.exp(-1.0), abs=0.01)
    assert p1 == pytest.approx(np.exp(-1.0), abs=0.01)


def test_poisson_deterministic_across_calls():
    a = poisson(SeededStream(5, 1).generator(), np.full(100, 3.7))
    b = poisson(SeededStream(5, 1).generator(), np.full(100, 3.7))
    assert np.array_equal(a, b)


def test_poisson_scalar_returns_int():
    val = poisson(SeededStream(5, 1).generator(), 4.2)
    assert isinstance(val, (int, np.integer))


def test_poisson_draws_and_generator_state_are_pinned():
    # Seeded outputs are part of the contract: a change to the sampler, or
    # to how many uniforms it reads, moves the digest or the next uniforms.
    rng = SeededStream(2024, 5).generator()
    mus = np.array([10.0, 0.5, 10.0000001, 37.5, 0.0, 5000.0, 3.2, 1e6,
                    9.999, 10.0, 37.5])
    draws = poisson(rng, mus)
    scalar = poisson(rng, 37.5)
    block = poisson(rng, np.array([[12.0, 0.1], [250.0, 10.0]]))
    digest = hashlib.sha256()
    for a in (draws, np.int64(scalar), block):
        digest.update(np.asarray(a).astype("<i8").tobytes())
    assert digest.hexdigest() == \
        "52c74d92e1ee97c3443f9064619c130483a0b1456f4d99b363dd1e18fba3e19d"
    assert rng.random(3).tolist() == [0.9146643942684213, 0.9066982705829323,
                                      0.96798899099257]


def test_poisson_rows_counts_are_pinned():
    # 500 replicate rows of a short, refill-heavy mean vector and of one
    # with large PTRS means, up to the largest supported one
    digest = hashlib.sha256()
    for mus in ([10.0, 0.5, 12.0, 10.0], [37.5, 0.2, 1e6, 10.0, 1e12, 3.0]):
        gens = [SeededStream(14, j).generator() for j in range(500)]
        digest.update(poisson_rows(gens, np.array(mus)).astype("<i8")
                      .tobytes())
    assert digest.hexdigest() == \
        "cce99fcf9c3277cfc0bbf61aa487f9513ebf5e228a7f1afaa7dda98da833d9f9"


def test_poisson_inversion_draws_come_first():
    # a row reads one uniform per inversion mean, all at once, before any
    # PTRS pair
    mus = np.array([3.0, 15.0, 10.0, 0.2, 800.0, 11.5, 6.0, 1e5])
    got = poisson(SeededStream(9, 4).generator(), mus)
    small = poisson(SeededStream(9, 4).generator(), mus[mus < 10])
    assert got[mus < 10].tolist() == small.tolist()


def test_ptrs_row_takes_few_rounds(monkeypatch):
    # a round tests all unfinished means of a row in one acceptance call,
    # so 400 means take a handful of calls, not one or more per mean
    calls = []
    accepts_all = rng_module._ptrs_accepts_all

    def counted(*args):
        calls.append(args)
        return accepts_all(*args)

    monkeypatch.setattr(rng_module, "_ptrs_accepts_all", counted)
    mus = np.random.default_rng(25).uniform(10.0, 70.0, 400)
    poisson(SeededStream(25, 0).generator(), mus)
    assert len(calls) <= 12


class _CountingGenerator:
    """A generator that counts its random() calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.gen.random(*args, **kwargs)


def test_poisson_rows_equal_scalar_calls():
    mus = np.array([3.0, 15.0, 0.0, 10.0, 9.999999, 1e-9, 800.0, 11.5, 6.0,
                    1e5, MAX_POISSON_MEAN, 10.0])
    gens = [SeededStream(12, j).generator() for j in range(64)]
    got = poisson_rows(gens, mus)
    want = [poisson(SeededStream(12, j).generator(), mus) for j in range(64)]
    assert got.dtype == np.int64 and np.array_equal(got, np.stack(want))


def test_poisson_rows_refill_from_own_generator():
    # each round a row draws one PTRS pair per mean it has left, so a
    # rejection makes it draw again from its own generator, and it ends
    # where a one-row call leaves the same generator
    mus = np.array([10.0, 0.5, 12.0, 1e6, 37.5, MAX_POISSON_MEAN])
    gens = [_CountingGenerator(SeededStream(13, j).generator())
            for j in range(200)]
    got = poisson_rows(gens, mus)
    assert max(g.calls for g in gens) > 2
    for j, g in enumerate(gens):
        alone = SeededStream(13, j).generator()
        assert got[j].tolist() == poisson(alone, mus).tolist()
        assert g.random() == alone.random()


def test_poisson_mean_cap():
    rng = SeededStream(3, 0).generator()
    assert poisson(rng, MAX_POISSON_MEAN) > 0
    for mu in (np.nextafter(MAX_POISSON_MEAN, np.inf), 1e30):
        with pytest.raises(ValidationError, match="largest supported mean"):
            poisson(rng, np.array([1.0, mu]))
        with pytest.raises(ValidationError, match="largest supported mean"):
            poisson_rows([rng], np.array([1.0, mu]))


@pytest.mark.parametrize("mu", [10.0, 37.5, 5000.0, 1e6, MAX_POISSON_MEAN])
def test_ptrs_array_acceptance_equals_scalar_test(mu):
    # half the v are set where the two sides of the test nearly tie, so
    # the array test must hand those to the scalar one
    rng = np.random.default_rng(int(mu) % 1000)
    a, b, inv_alpha, v_r, log_mu = rng_module._ptrs_constants(mu)
    us = rng.uniform(0.013, 0.5, 4000)
    k = np.floor(mu + rng.normal(0.0, 2.0 * mu ** 0.5, 4000)).clip(0)
    tie = np.exp(k * log_mu - mu - np.array([math.lgamma(x + 1.0) for x in k])
                 - math.log(inv_alpha) + np.log(a / (us * us) + b))
    v = np.where(np.arange(4000) % 2, rng.uniform(0.0, 1.0, 4000),
                 tie * (1.0 + rng.normal(0.0, 1e-15, 4000)))
    keep = (v > 0) & (v < 1)
    v, us, k = v[keep], us[keep], k[keep]
    got = rng_module._ptrs_accepts_all(
        v, us, k, *np.broadcast_arrays(mu, a, b, inv_alpha, log_mu, v)[:5])
    want = [rng_module._ptrs_accepts(x, y, z, mu, a, b, inv_alpha, log_mu)
            for x, y, z in zip(v.tolist(), us.tolist(), k.tolist())]
    assert got.tolist() == want


@pytest.mark.parametrize("mu", [10.0, 37.5, 1e3, 1e6])
def test_ptrs_matches_the_poisson_cdf(mu):
    # 20,000 seeded PTRS counts (200 rows of 100 means): the largest gap
    # between their empirical CDF and the Poisson CDF stays within the DKW
    # bound at alpha = 1e-6, about 0.019
    gens = [SeededStream(15, j).generator() for j in range(200)]
    draws = poisson_rows(gens, np.full(100, mu)).ravel()
    k = np.arange(draws.min() - 1, draws.max() + 1)
    ecdf = np.searchsorted(np.sort(draws), k, side="right") / draws.size
    alpha = 1e-6
    assert np.max(np.abs(ecdf - pdtr(k, mu))) < \
        math.sqrt(math.log(2.0 / alpha) / (2.0 * draws.size))


def test_ptrs_rows_of_distinct_means_match_the_poisson_cdf():
    # 5 rows of 4,000 log-uniform means in [10, 1e6]: the randomized PIT
    # F(k - 1) + V f(k) of each count under its own mean is uniform, so a
    # count served to the wrong mean shows; the largest gap between its
    # empirical CDF and the uniform one stays within the DKW bound at
    # alpha = 1e-6, about 0.019
    rng = np.random.default_rng(31)
    mus = np.exp(rng.uniform(math.log(10.0), math.log(1e6), 4000))
    gens = [SeededStream(16, j).generator() for j in range(5)]
    k = poisson_rows(gens, mus).ravel()
    mu = np.tile(mus, 5)
    below = np.where(k > 0, pdtr(np.maximum(k - 1, 0), mu), 0.0)
    pit = np.sort(below + rng.random(k.size) * (pdtr(k, mu) - below))
    n = pit.size
    gap = max(np.max(np.arange(1, n + 1) / n - pit),
              np.max(pit - np.arange(n) / n))
    assert gap < math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
