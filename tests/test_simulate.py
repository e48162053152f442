import hashlib
from datetime import timedelta

import numpy as np
import pytest

from quakeresid import (DEFAULT_WINDOW_END, DEFAULT_WINDOW_START, Grid,
                        IntensityField, RowIntervalRegion, SeededStream,
                        ValidationError, integrate, serialize_catalog,
                        simulate_catalog, simulate_cox_complement,
                        simulate_homogeneous, simulated_counts)
from quakeresid.catalogs import utc64
from quakeresid.consistency import observed_counts
from quakeresid.simulate import _BLOCK_COUNTS, _window_times, replicate_counts


def _field():
    g = Grid.regular(0, 2, 0, 2, 0.5, 0.5)
    rates = np.linspace(0.5, 8.0, 16).reshape(4, 4)
    return IntensityField(g, rates)


def test_catalog_points_inside_active_pixels():
    fld = _field()
    cat = simulate_catalog(fld, SeededStream(1, 0))
    assert np.all(fld.grid.contains(cat.lon, cat.lat))
    assert np.all(cat.time[1:] >= cat.time[:-1])


def test_window_times_round_as_timedelta():
    rng = np.random.default_rng(5)
    span = (DEFAULT_WINDOW_END - DEFAULT_WINDOW_START).total_seconds()
    # offsets whose fraction is often exactly half a microsecond, near zero
    # and across the window, among uniform ones
    half = (np.arange(20_000) + 0.5) / 1e6
    offsets = np.concatenate([
        np.sort(rng.random(100_000)) * span, half,
        np.floor(rng.random(20_000) * span) + half, [0.0, 5e-7, 1.5e-6, span]])
    micros = (offsets - np.trunc(offsets)) * 1e6
    ties = micros[micros - np.floor(micros) == 0.5]
    # ties below an even and below an odd microsecond both occur
    assert np.count_nonzero(ties % 2 < 1) > 1000
    assert np.count_nonzero(ties % 2 > 1) > 1000
    expected = utc64([DEFAULT_WINDOW_START + timedelta(seconds=dt)
                      for dt in offsets.tolist()])
    assert np.array_equal(_window_times(offsets), expected)


def test_counts_stage_shared_with_catalog():
    fld = _field()
    stream = SeededStream(11, 4)
    counts = simulated_counts(fld, stream)
    cat = simulate_catalog(fld, stream)
    assert np.array_equal(counts, observed_counts(fld, cat))


def test_mean_count_matches_integral():
    fld = _field()
    mu = integrate(fld)
    totals = [simulated_counts(fld, SeededStream(2, j)).sum()
              for j in range(400)]
    se = np.sqrt(mu / 400)
    assert abs(np.mean(totals) - mu) < 3 * se


def test_point_placement_pinned_on_a_decimal_grid():
    # 0.1-degree pixels are not dyadic, so a change in how a point's
    # coordinate is computed shows in its last bit; 0.5-degree pixels hide it
    rng = np.random.default_rng(2012)
    mask = rng.random((60, 40)) < 0.7
    g = Grid.regular(-124.0, -120.0, 32.0, 38.0, 0.1, 0.1, active_mask=mask)
    fld = IntensityField(g, rng.uniform(0.0, 200.0, (60, 40)))
    catalogs, complements = hashlib.sha256(), hashlib.sha256()
    for j in range(20):
        cat = simulate_catalog(fld, SeededStream(24, j))
        catalogs.update(cat.lon.tobytes() + cat.lat.tobytes())
        xs, ys = simulate_cox_complement(fld, 250.0, SeededStream(24, j))
        complements.update(xs.tobytes() + ys.tobytes())
    assert catalogs.hexdigest() == \
        "b230a956f23e295ee7c044b7b2e7dc3d6d30c53d1e582efa044a115fee2b4f64"
    assert complements.hexdigest() == \
        "4b8dda39d7fc6712589fd0101b5d9d65cc99d6fe5f16040fe3b7c2da4f191b8c"


def test_determinism_byte_identical():
    fld = _field()
    c1 = serialize_catalog(simulate_catalog(fld, SeededStream(3, 7)))
    c2 = serialize_catalog(simulate_catalog(fld, SeededStream(3, 7)))
    assert c1 == c2


def test_masked_pixels_get_no_points():
    mask = np.ones((4, 4), bool)
    mask[0, :] = False
    g = Grid.regular(0, 2, 0, 2, 0.5, 0.5, active_mask=mask)
    fld = IntensityField(g, np.full((4, 4), 50.0))
    cat = simulate_catalog(fld, SeededStream(4, 0))
    assert len(cat) > 0
    assert np.all(cat.lat >= 0.5)


def test_cox_complement_superpose_level_check():
    # no level check here: below the supremum the complement is clipped to
    # the pixels under the level (superpose rejects such a level itself)
    fld = _field()
    xs, ys = simulate_cox_complement(fld, 1.0, SeededStream(0, 0))
    assert np.all((xs < 0.5) & (ys < 0.5))    # only the 0.5-rate pixel
    xs, ys = simulate_cox_complement(fld, 8.0, SeededStream(0, 0))
    assert len(xs) == len(ys)


def test_cox_complement_superthin_clips_negative():
    # level below some rates: those pixels contribute nothing
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    rates = np.array([[10.0, 10.0], [0.0, 0.0]])
    fld = IntensityField(g, rates)
    xs, ys = simulate_cox_complement(fld, 2.0, SeededStream(5, 0))
    assert np.all(ys >= 0.5)  # only the zero-rate row gets complement points


def test_cox_complement_mean_count():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.zeros((2, 2)))
    m = 12.0  # expected complement count: level * area
    totals = [len(simulate_cox_complement(fld, m,
                                          SeededStream(6, j))[0])
              for j in range(300)]
    se = np.sqrt(m / 300)
    assert abs(np.mean(totals) - m) < 3 * se


def test_homogeneous_sampler_stays_inside():
    region = RowIntervalRegion(np.array([0.0, 1.0, 2.0]),
                               np.array([2.0, 0.5]))
    xs, ys = simulate_homogeneous(region, 30.0, SeededStream(7, 0))
    assert np.all(region.contains(xs, ys))
    # lower band is 4x wider than the upper one
    assert xs[ys < 1.0].max() > 0.6


def test_homogeneous_zero_area_rejected():
    g = Grid.regular(0, 1, 0, 1, 1.0, 1.0,
                     active_mask=np.zeros((1, 1), bool))
    with pytest.raises(ValidationError):
        simulate_homogeneous(g, 1.0, SeededStream(0, 0))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_bad_homogeneous_rate_is_a_validation_error(bad):
    # rng._check_means is the one check of a mean's sign and finiteness
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    with pytest.raises(ValidationError, match="finite and non-negative"):
        simulate_homogeneous(g, bad, SeededStream(0, 0))


@pytest.mark.parametrize("bad, message", [
    (-1.0, "level must be non-negative"),
    (np.nan, "level must be non-negative"),
    (np.inf, "finite and non-negative")])
def test_bad_cox_level_is_a_validation_error(bad, message):
    # a negative level clamps every mean to 0, so it has its own check
    with pytest.raises(ValidationError, match=message):
        simulate_cox_complement(_field(), bad, SeededStream(0, 0))


def test_expected_points_above_cap_rejected_before_drawing():
    # pixel means of 1e11, under the Poisson cap: their points cannot be
    # allocated, so only a check before the draw gives a typed error
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[4e11, 1.0], [1.0, 1.0]]))
    for draw in (lambda: simulate_catalog(fld, SeededStream(0, 0)),
                 lambda: simulate_cox_complement(fld, 4e11,
                                                 SeededStream(0, 0)),
                 lambda: simulate_homogeneous(g, 4e11, SeededStream(0, 0))):
        with pytest.raises(ValidationError, match="simulated points"):
            draw()


def test_homogeneous_count_distribution():
    g = Grid.regular(0, 3, 0, 3, 1.0, 1.0)
    region = g
    mu = 5.0 * region.area
    totals = [len(simulate_homogeneous(region, 5.0, SeededStream(8, j))[0])
              for j in range(300)]
    se = np.sqrt(mu / 300)
    assert abs(np.mean(totals) - mu) < 3 * se


def _wide_field():
    # a quarter of _BLOCK_COUNTS active pixels, so a block holds 4
    # replicates; 1% of the means take PTRS and the rest inversion, a few
    # of them zero
    n = _BLOCK_COUNTS // 4
    rng = np.random.default_rng(5)
    means = rng.uniform(0.0, 3.0, n)
    means[rng.integers(0, n, n // 100)] = rng.uniform(10.0, 900.0, n // 100)
    means[:7] = 0.0
    g = Grid.regular(0, n // 128, 0, 128, 1.0, 1.0)
    return IntensityField(g, means.reshape(128, n // 128))


@pytest.mark.parametrize("extra, sizes", [(-1, [3]), (0, [4]), (1, [4, 1])])
def test_replicate_counts_equal_per_replicate_draws(extra, sizes):
    fld = _wide_field()
    rows = _BLOCK_COUNTS // fld.grid.n_active
    assert rows == 4
    stream = SeededStream(31, 2)
    blocks = list(replicate_counts(fld, stream, rows + extra))
    assert [len(b) for b in blocks] == sizes
    got = np.concatenate(blocks)
    want = np.stack([simulated_counts(fld, stream.substream(j))
                     for j in range(rows + extra)])
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_replicate_counts_single_replicate():
    fld = _field()
    stream = SeededStream(8, 1)
    [block] = replicate_counts(fld, stream, 1)
    assert np.array_equal(block, simulated_counts(fld, stream.substream(0))[None])
