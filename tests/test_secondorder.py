import numpy as np
import pytest

from quakeresid import (Grid, GridRegion, IntensityField, SeededStream,
                        ValidationError, default_radii,
                        envelope_bands, pairs_within, radii_grid, ripley_k,
                        weighted_k, weighted_k_constant, wk_confidence_bands)
from quakeresid import secondorder
from quakeresid.secondorder import (circle_fraction_mask,
                                    circle_fraction_rect)


def _brute_pairs(pts, r_max):
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(np.hypot(*(pts[i] - pts[j])))
            if d <= r_max:
                out.append((i, j, d))
    return out


def test_pairs_within_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(10):
        pts = rng.random((rng.integers(2, 120), 2)) * rng.uniform(0.5, 3.0)
        r_max = rng.uniform(0.05, 1.0)
        ii, jj, dd = pairs_within(pts, r_max)
        got = sorted(zip(ii.tolist(), jj.tolist()))
        want = sorted((i, j) for i, j, _ in _brute_pairs(pts, r_max))
        assert got == want
        assert np.allclose(np.sort(dd),
                           np.sort([d for _, _, d in _brute_pairs(pts, r_max)]))


def _assert_same_pairs(pts, r_max):
    got = pairs_within(pts, r_max)
    brute = _brute_pairs(pts, r_max)
    want = (np.array([i for i, _, _ in brute], dtype=int),
            np.array([j for _, j, _ in brute], dtype=int),
            np.array([d for _, _, d in brute], dtype=float))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


@pytest.mark.parametrize("spacing", [0.25, 0.1, 0.7])
def test_pairs_within_keeps_pairs_at_exactly_r_max(spacing):
    # lattice spacing equal to r_max: every neighbour sits on the boundary
    ax = np.arange(12) * spacing
    pts = np.column_stack([np.repeat(ax, 12), np.tile(ax, 12)])
    ii, _, dd = _assert_same_pairs(pts, spacing)
    if spacing == 0.25:     # exact in binary: all 2 * 12 * 11 neighbours
        assert len(ii) == 264 and np.all(dd == 0.25)


def test_pairs_within_duplicates_and_rescaled_scale():
    rng = np.random.default_rng(11)
    base = rng.random((60, 2)) * [700.0, 3.0]
    pts = np.concatenate([base, base[:20], base[:5]])   # repeated points
    ii, jj, dd = _assert_same_pairs(pts, 0.7)
    assert np.sum(dd == 0.0) >= 25
    assert np.all(ii < jj)
    wide = rng.random((400, 2)) * [700.0, 8.0]
    _assert_same_pairs(wide, 0.7)


def test_pairs_within_fewer_than_two_points_and_non_finite():
    for pts in (np.zeros((0, 2)), np.array([[0.5, 0.5]])):
        ii, jj, dd = pairs_within(pts, 0.3)
        assert len(ii) == len(jj) == len(dd) == 0
        assert ii.dtype == jj.dtype == int and dd.dtype == float
    pts = np.array([[0.0, 0.0], [np.nan, 0.0], [0.1, 0.0], [np.inf, 0.0],
                    [np.inf, 0.0], [0.0, -np.inf]])
    ii, jj, dd = pairs_within(pts, 0.5)
    assert ii.tolist() == [0] and jj.tolist() == [2]
    assert dd.tolist() == [0.1]


def _circle_fraction_mask_single_shot(cx, cy, t, grid):
    """Every circle sampled in one array, as before chunking."""
    ang = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    px = cx[:, None] + t[:, None] * np.cos(ang)
    py = cy[:, None] + t[:, None] * np.sin(ang)
    inbox = (px >= grid.lon_min) & (px <= grid.lon_max) & \
            (py >= grid.lat_min) & (py <= grid.lat_max)
    ix = np.clip(np.floor((px - grid.lon_min) / grid.dx).astype(int),
                 0, grid.n_x - 1)
    iy = np.clip(np.floor((py - grid.lat_min) / grid.dy).astype(int),
                 0, grid.n_y - 1)
    return (inbox & grid.active_mask[iy, ix]).mean(axis=1)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_circle_fraction_mask_chunks_match_single_shot(offset):
    mask = np.random.default_rng(5).random((8, 10)) < 0.6
    g = Grid.regular(0, 1, 0, 0.8, 0.1, 0.1, active_mask=mask)
    n = secondorder._MASK_CHUNK + offset
    rng = np.random.default_rng(6)
    cx, cy = rng.uniform(0, 1, n), rng.uniform(0, 0.8, n)
    t = rng.uniform(0.01, 0.7, n)
    got = circle_fraction_mask(cx, cy, t, g)
    assert np.array_equal(got, _circle_fraction_mask_single_shot(cx, cy, t, g))
    assert len(circle_fraction_mask(cx[:0], cy[:0], t[:0], g)) == 0


def test_radii_validation():
    with pytest.raises(ValidationError):
        radii_grid([0.2, 0.1])
    with pytest.raises(ValidationError):
        radii_grid([0.0, 0.1])
    assert len(default_radii()) == 70


def test_plain_k_non_strict_inequality():
    # two points at distance exactly 0.5: the pair counts at r=0.5, in
    # both orders
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    curve = ripley_k(pts, g, [0.49, 0.5], "none")
    assert curve.k_values[0] == 0.0
    assert curve.k_values[1] == pytest.approx(2.0 / 4.0)  # A/N^2 * 2


def test_weighted_k_non_strict_inequality():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField.constant(g, 2.0)
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    curve = weighted_k(pts, fld, [0.49, 0.5], "none")
    assert curve.k_values[0] == 0.0
    # b/integral = 1; ordered pair sum = 2 * (1/2)*(1/2)
    assert curve.k_values[1] == pytest.approx(0.5)


def test_weighted_k_rejects_zero_rate_events():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[0.0, 2.0], [2.0, 2.0]]))
    pts = np.array([[0.25, 0.25], [0.7, 0.7]])
    with pytest.raises(ValidationError):
        weighted_k(pts, fld, [0.2], "none")


def test_k_needs_two_points():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        ripley_k(np.array([[0.5, 0.5]]), g, [0.1])


def test_centered_l_zero_under_null_mean():
    radii = radii_grid([0.1, 0.2, 0.3])
    from quakeresid.secondorder import KCurve
    curve = KCurve(radii, np.pi * radii ** 2, "plain")
    assert np.allclose(curve.centered_l, 0.0, atol=1e-12)


def test_circle_fraction_rect_exact_values():
    # fully interior circle
    assert circle_fraction_rect(0.5, 0.5, 0.2, 0, 1, 0, 1) == pytest.approx(1.0)
    # centered on a corner: quarter inside
    assert circle_fraction_rect(0.0, 0.0, 0.3, 0, 1, 0, 1) == pytest.approx(0.25)
    # centered on an edge, small radius: half inside
    assert circle_fraction_rect(0.0, 0.5, 0.2, 0, 1, 0, 1) == pytest.approx(0.5)
    # radius larger than the rectangle: nothing inside
    assert circle_fraction_rect(0.5, 0.5, 10.0, 0, 1, 0, 1) == pytest.approx(
        0.0, abs=1e-12)


def test_circle_fraction_mask_agrees_with_rect():
    g = Grid.regular(0, 1, 0, 1, 0.1, 0.1)
    rng = np.random.default_rng(3)
    cx = rng.uniform(0.1, 0.9, 40)
    cy = rng.uniform(0.1, 0.9, 40)
    t = rng.uniform(0.02, 0.5, 40)
    exact = circle_fraction_rect(cx, cy, t, 0, 1, 0, 1)
    sampled = circle_fraction_mask(cx, cy, t, g)
    assert np.all(np.abs(exact - sampled) < 0.01)


def test_isotropic_correction_reduces_edge_bias():
    # homogeneous points: corrected K should sit nearer pi r^2 than raw K
    g = Grid.regular(0, 1, 0, 1, 0.25, 0.25)
    radii = radii_grid([0.15, 0.25])
    err_none = np.zeros(2)
    err_iso = np.zeros(2)
    reps = 60
    for j in range(reps):
        rng = SeededStream(31, j).generator()
        pts = rng.random((60, 2))
        err_none += ripley_k(pts, g, radii, "none").k_values / reps
        err_iso += ripley_k(pts, g, radii, "isotropic").k_values / reps
    target = np.pi * radii ** 2
    assert np.all(np.abs(err_iso - target) < np.abs(err_none - target))
    # ordered pairs over n^2: the mean is (n - 1) / n of pi r^2 here
    assert np.allclose(err_iso, target, rtol=0.04)


def test_wk_confidence_bands_scaling():
    radii = radii_grid([0.1, 0.2])
    lo1, hi1 = wk_confidence_bands(radii, 1.0, 50.0)
    lo2, hi2 = wk_confidence_bands(radii, 1.0, 100.0)
    # half-width halves when the total intensity doubles
    assert np.allclose(hi2 - lo2, (hi1 - lo1) / 2.0)
    assert np.allclose((hi1 + lo1) / 2.0, np.pi * radii ** 2)


def test_envelope_bands_min_max_for_two_sims():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    region = GridRegion(g)
    radii = radii_grid([0.2, 0.4])
    lo, hi = envelope_bands(region, 30.0, radii, 2, SeededStream(5, 0))
    assert np.all(lo <= hi)
    # simulations with fewer than two points have no pairs: K = 0
    lo, hi = envelope_bands(region, 1e-9, radii, 2, SeededStream(5, 0))
    assert not lo.any() and not hi.any()
    with pytest.raises(ValidationError):
        envelope_bands(region, 30.0, radii, 1, SeededStream(5, 0))


def test_weighted_k_constant_matches_inhomogeneous_on_uniform_field():
    g = Grid.regular(0, 1, 0, 1, 0.25, 0.25)
    fld = IntensityField.constant(g, 7.0)
    rng = SeededStream(6, 0).generator()
    pts = rng.random((40, 2))
    radii = radii_grid([0.1, 0.2, 0.3])
    a = weighted_k(pts, fld, radii, "none").k_values
    b = weighted_k_constant(pts, 7.0, GridRegion(g), radii, "none").k_values
    assert np.allclose(a, b, rtol=1e-12)


def test_kcurve_csv_columns():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.2, 0.5], [0.7, 0.5]])
    curve = ripley_k(pts, g, [0.3, 0.6], "none")
    lines = curve.to_csv().splitlines()
    assert lines[0] == "r,k,centered_l,lower,upper,kind"
    assert lines[1].endswith(",plain")
