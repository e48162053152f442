import hashlib
import math
from functools import reduce
from math import lgamma, log
from operator import add

import numpy as np
import pytest

from quakeresid import (Catalog, Grid, IntensityField, SeededStream,
                        ValidationError, l_test, log_likelihood, n_test,
                        parse_catalog, simulate_catalog, simulated_counts)
from quakeresid.consistency import (QuantileScore, _loglik_rows,
                                    _poisson_cdf, observed_counts)
from quakeresid.simulate import replicate_counts


def _uniform_field(value=2.0):
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    return IntensityField.constant(g, value)


def _catalog(points):
    rows = ["time,lon,lat,depth,mag"]
    for i, (x, y) in enumerate(points):
        rows.append(f"2006-01-01T00:00:{i:02d}Z,{x},{y},5,4.0")
    return parse_catalog("\n".join(rows) + "\n")


def test_loglik_hand_computed():
    fld = _uniform_field(2.0)   # per-pixel expectation 0.5
    cat = _catalog([(0.25, 0.25), (0.25, 0.25), (0.75, 0.75)])
    lam = 0.5
    expected = (2 * log(lam) - lam - lgamma(3.0)) + (log(lam) - lam) \
        + 2 * (-lam)
    assert log_likelihood(fld, cat) == pytest.approx(expected, rel=1e-12)


def test_loglik_zero_rate_sentinel():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[0.0, 2.0], [2.0, 2.0]]))
    cat = _catalog([(0.25, 0.25)])
    assert log_likelihood(fld, cat) == float("-inf")


def test_observed_counts_order():
    fld = _uniform_field()
    cat = _catalog([(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.9, 0.9)])
    assert observed_counts(fld, cat).tolist() == [1, 1, 0, 2]


def test_observed_counts_skip_events_in_no_active_pixel():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5,
                     active_mask=np.array([[False, True], [True, True]]))
    fld = IntensityField.constant(g, 2.0)
    # a masked pixel, two points off the box and one in pixel 3
    cat = _catalog([(0.25, 0.25), (5.0, 5.0), (-1.0, 0.5), (0.75, 0.75)])
    assert observed_counts(fld, cat).tolist() == [0, 0, 1]
    assert observed_counts(fld, _catalog([])).tolist() == [0, 0, 0]


def test_n_test_analytic_values():
    from scipy import stats
    fld = _uniform_field(2.0)   # total expectation 2.0
    cat = _catalog([(0.25, 0.25), (0.75, 0.75), (0.4, 0.6)])
    score = n_test(fld, cat, method="analytic")
    assert score.value == pytest.approx(float(stats.poisson.cdf(2, 2.0)))
    assert score.observed_stat == 3.0
    empty = n_test(fld, _catalog([]), method="analytic")
    assert empty.value == 0.0


def test_n_test_strict_tie_convention():
    # deterministic sims impossible, so check the convention on the record
    fld = _uniform_field(2.0)
    score = n_test(fld, _catalog([(0.25, 0.25)]), 50, SeededStream(3, 0))
    assert score.to_record()["ties"] == "strict"
    assert 0.0 <= score.value <= 1.0


def test_n_test_analytic_close_to_simulated():
    fld = _uniform_field(40.0)
    cat = simulate_catalog(fld, SeededStream(21, 5))
    d_an = n_test(fld, cat, method="analytic").value
    d_sim = n_test(fld, cat, 4000, SeededStream(22, 0)).value
    assert abs(d_an - d_sim) < 0.03


@pytest.mark.parametrize("mu", [1e-6, 0.01, 0.5, 2, 10, 36.5, 150, 1e3,
                                1.4e4, 1e5])
def test_poisson_cdf_matches_pdtr(mu):
    from scipy.special import pdtr
    sd = math.sqrt(mu)
    ks = np.union1d(np.arange(max(0, math.floor(mu - 12 * sd)),
                              math.ceil(mu + 12 * sd) + 1), [0, 1, 2])
    got = np.array([_poisson_cdf(int(k), mu) for k in ks])
    want = pdtr(ks, mu)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    big = want > 1e-300
    np.testing.assert_allclose(got[big], want[big], rtol=1e-11, atol=0)


def test_poisson_cdf_edge_cases():
    assert _poisson_cdf(-1, 2.0) == 0.0
    assert _poisson_cdf(-5, 0.0) == 0.0
    assert _poisson_cdf(0, 0.0) == 1.0
    assert _poisson_cdf(7, 0.0) == 1.0
    for mu in (1e-6, 0.5, 2.0, 150.0, 700.0, 1e6):
        assert _poisson_cdf(0, mu) == math.exp(-mu)


@pytest.mark.parametrize("k, mu, want, rel, abs_", [
    # far lower tail, where 1 minus the upper tail would read 0
    (628, 1000.0, 8.978158115141938e-37, 1e-12, 0),
    # large means, where k log mu - mu - lgamma(k + 1) loses the tail
    (1004679, 1e6, 0.9999985375481487, 0, 1e-15),
    (100046781, 1e8, 0.9999985501682349, 0, 1e-15),
])
def test_poisson_cdf_pinned_to_50_digit_values(k, mu, want, rel, abs_):
    # mpmath at 50 digits; scipy.special.pdtr is off by 5.4e-7 on the last
    assert _poisson_cdf(k, mu) == pytest.approx(want, rel=rel, abs=abs_)


def test_l_test_extreme_catalog_rejected():
    # one pixel crammed with many events: simulated likelihoods are higher
    fld = _uniform_field(2.0)
    cat = _catalog([(0.25, 0.25)] * 30)
    score = l_test(fld, cat, 200, SeededStream(4, 0))
    assert score.value == 0.0
    assert score.reject_at_5pct


def test_l_test_typical_catalog_not_rejected():
    fld = _uniform_field(40.0)
    cat = simulate_catalog(fld, SeededStream(23, 9))
    score = l_test(fld, cat, 400, SeededStream(24, 0))
    assert not score.reject_at_5pct


def test_overprediction_drives_delta_to_zero():
    # doubled forecast against data from the true (half) rate
    truth = _uniform_field(40.0)
    doubled = _uniform_field(80.0)
    cat = simulate_catalog(truth, SeededStream(25, 1))
    score = n_test(doubled, cat, method="analytic")
    assert score.value < 0.025
    assert score.reject_at_5pct


def test_quantile_score_validation():
    with pytest.raises(ValidationError):
        QuantileScore("gamma", 1.5, 10, 0.0, "simulation")
    with pytest.raises(ValidationError):
        QuantileScore("gamma", 0.5, 0, 0.0, "simulation")


def test_delta_two_sided_rejection():
    hi = QuantileScore("delta", 0.99, 100, 5.0, "simulation")
    mid = QuantileScore("delta", 0.5, 100, 5.0, "simulation")
    assert hi.reject_at_5pct and not mid.reject_at_5pct


def test_l_test_deterministic():
    fld = _uniform_field(3.0)
    cat = _catalog([(0.25, 0.25), (0.6, 0.6)])
    a = l_test(fld, cat, 100, SeededStream(9, 2)).value
    b = l_test(fld, cat, 100, SeededStream(9, 2)).value
    assert a == b


def _mixed_field():
    # pixel means on both sides of the inversion/PTRS cutoff, a zero, a tiny
    # and two very large means, and one inactive pixel
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    means = np.array([[0.0, 1e-6, 9.999], [10.0, 0.0, 37.5],
                      [5000.0, 1e6, 2.5]])
    return IntensityField(Grid.regular(0, 3, 0, 3, 1.0, 1.0, mask), means)


def _catalog_with_counts(fld, counts):
    """Catalog with counts[i] events at the centre of the i-th active pixel."""
    iy, ix = np.nonzero(fld.grid.active_mask)
    lon = np.repeat(fld.grid.lon_min + (ix + 0.5) * fld.grid.dx, counts)
    lat = np.repeat(fld.grid.lat_min + (iy + 0.5) * fld.grid.dy, counts)
    time = np.full(len(lon), np.datetime64("2007-01-01T00:00:00", "us"))
    return Catalog(time, lon, lat, np.zeros(len(lon)), np.full(len(lon), 4.0))


def test_replicate_counts_are_pinned():
    # replicate j's counts are a pure function of (seed, j); this digest was
    # taken with one simulated_counts call per replicate
    fld = _mixed_field()
    stream = SeededStream(61, 3)
    counts = np.stack([simulated_counts(fld, stream.substream(j))
                       for j in range(300)])
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == \
        "fb6ce29cbf7199cc2a8468d72602608e274590a18a11973eae695ba299e07d1b"
    assert np.array_equal(
        np.concatenate(list(replicate_counts(fld, stream, 300))), counts)


def test_simulated_scores_are_pinned():
    fld = _mixed_field()
    cat = _catalog_with_counts(fld, [0, 0, 8, 13, 35, 5071, 999650, 4])
    delta = n_test(fld, cat, 1000, SeededStream(62, 0))
    assert (delta.value, delta.observed_stat) == (0.39, 1004781.0)
    gamma = l_test(fld, cat, 1000, SeededStream(63, 0))
    assert (gamma.value, gamma.observed_stat) == (0.696, -23.173523055389524)


def _loglik_one_row(lam, counts):
    """Reference: one count vector scored on its own, the lgamma terms
    added one by one from the left."""
    if np.any((counts > 0) & (lam == 0)):
        return float("-inf")
    pos = counts > 0
    term = -lam.sum()
    term += float(np.sum(counts[pos] * np.log(lam[pos])))
    term -= reduce(add, map(lgamma, (counts[pos] + 1.0).tolist()), 0.0)
    return float(term)


def test_loglik_lgamma_terms_added_left_to_right():
    # these counts are where a left-to-right sum of the lgamma terms and a
    # compensated one (sum() from Python 3.12 on) differ in the last bit
    counts = [33, 45, 26, 31, 48]
    terms = [lgamma(k + 1.0) for k in counts]
    assert reduce(add, terms, 0.0) != math.fsum(terms)
    fld = IntensityField(Grid.regular(0, 5, 0, 1, 1.0, 1.0),
                         np.array([[30.0, 40.0, 25.0, 30.0, 50.0]]))
    lam = fld.active_rates()
    ell = log_likelihood(fld, _catalog_with_counts(fld, counts))
    assert ell == _loglik_one_row(lam, np.array(counts))


def test_loglik_rows_equal_one_row_scoring():
    rng = np.random.default_rng(17)
    lam = rng.uniform(0.0, 40.0, 60)
    lam[[3, 17]] = 0.0
    counts = rng.poisson(np.where(lam > 0, lam, 0.0), (40, 60))
    counts[5] = 0
    counts[6, 17] = 1          # an event where lam is zero
    counts[7, :30] = 0
    got = _loglik_rows(lam, counts)
    assert got.tolist() == [_loglik_one_row(lam, row) for row in counts]
    assert got[6] == float("-inf")
