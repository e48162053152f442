import hashlib

import numpy as np
import pytest

from quakeresid import (DegenerateInfimumError, Grid, IntensityField,
                        OutsideRegionError, RowIntervalRegion, SeededStream,
                        TransposedRegion, ValidationError, default_radii,
                        envelope_bands, pairs_within, radii_grid, ripley_k,
                        simulate_homogeneous, weighted_k, wk_confidence_bands)
from quakeresid import secondorder
from quakeresid.secondorder import (DEFAULT_R_MAX, KCurve, circle_fraction_mask,
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


def _kdtree_pairs(pts, r_max):
    """Oracle: a k-d tree over the finite points with the radius widened by
    1e-9 relative, then the same exact np.hypot filter and (i, j) order."""
    from scipy.spatial import cKDTree
    finite = np.flatnonzero(np.isfinite(pts).all(axis=-1))
    pairs = cKDTree(pts[finite]).query_pairs(r_max * (1 + 1e-9),
                                             output_type="ndarray")
    ii, jj = finite[pairs[:, 0]], finite[pairs[:, 1]]
    d = np.hypot(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1])
    keep = d <= r_max
    ii, jj, d = ii[keep], jj[keep], d[keep]
    order = np.lexsort((jj, ii))
    return ii[order], jj[order], d[order]


def _pair_sets():
    rng = np.random.default_rng(21)
    centres = rng.random((6, 2)) * 4.0
    clustered = centres[rng.integers(0, 6, 900)] + rng.normal(0, 0.05,
                                                               (900, 2))
    rounded = np.round(rng.random((800, 2)), 2)    # ties, pairs at r_max
    repeated = rng.random((200, 2))
    repeated = np.concatenate([repeated, repeated[:40], repeated[:7]])
    repeated[[3, 50, 99]] = [[np.nan, 0.5], [np.inf, 0.2], [0.4, -np.inf]]
    uniform = rng.random((1500, 2)) * [12.0, 10.0]
    return {
        "uniform": (uniform, 0.7),
        "clustered": (clustered, 0.1),
        "rounded-0.03": (rounded, 0.03),
        "rounded-0.05": (rounded, 0.05),
        "duplicates-non-finite": (repeated, 0.08),
        "r-far-below-span": (uniform, 1e-9),
        "r-far-above-span": (uniform[:300], 1e6),
        "coincident-r-zero": (np.full((6, 2), 0.3), 0.0),
    }


@pytest.mark.parametrize("name", sorted(_pair_sets()))
def test_pairs_within_matches_kdtree_oracle(name):
    pts, r_max = _pair_sets()[name]
    got = pairs_within(pts, r_max)
    for g, w in zip(got, _kdtree_pairs(pts, r_max)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    if name.startswith("rounded"):
        assert np.sum(got[2] == r_max) > 0 and np.sum(got[2] == 0.0) > 0


def test_pairs_within_extreme_spans():
    # the k-d tree overflows on squared distances here; the brute force
    # does not
    rng = np.random.default_rng(22)
    pts = rng.uniform(-1e300, 1e300, (80, 2))
    pts[:10] = pts[10:20] + rng.uniform(0, 1e298, (10, 2))
    _assert_same_pairs(pts, 1e299)
    _assert_same_pairs(pts, 1e-300)
    assert len(_assert_same_pairs(pts, 1e301)[0]) == 80 * 79 // 2


@pytest.mark.parametrize("block", [1, 7])
def test_pairs_within_blocks_give_identical_output(monkeypatch, block):
    sets = _pair_sets()
    want = {name: pairs_within(*sets[name]) for name in sets}
    monkeypatch.setattr(secondorder, "_PAIR_BLOCK", block)
    for name in sets:
        for g, w in zip(pairs_within(*sets[name]), want[name]):
            assert np.array_equal(g, w)


def _clustered_field(n):
    """Up to n points in ten tight clusters on a 4 x 4 grid with holes, the
    ones in its active pixels, and a varying null."""
    rng = np.random.default_rng(27)
    centres = rng.uniform(0.5, 3.5, (10, 2))
    pts = centres[rng.integers(0, 10, n)] + rng.normal(0, 0.05, (n, 2))
    grid = Grid.regular(0, 4, 0, 4, 0.1, 0.1,
                        active_mask=rng.random((40, 40)) < 0.9)
    return pts[grid.contains(pts[:, 0], pts[:, 1])], IntensityField(
        grid, np.linspace(1.0, 2.0, 1600).reshape(40, 40))


def test_weighted_k_memory_follows_the_pair_block(monkeypatch):
    # all-pairs (i, j, d) arrays take 24 bytes a pair; small blocks must
    # keep the estimator below even one 8-byte array over all pairs
    import tracemalloc
    pts, fld = _clustered_field(2500)
    pairs = len(pairs_within(pts, DEFAULT_R_MAX)[0])
    assert 10 ** 5 < pairs < 10 ** 6
    monkeypatch.setattr(secondorder, "_PAIR_BLOCK", 2 ** 12)
    tracemalloc.start()
    try:
        weighted_k(pts, fld, default_radii(), "none")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * pairs, (peak, pairs)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("edge", ["none", "isotropic"])
def test_weighted_k_blocks_agree_to_rounding(monkeypatch, block, edge):
    """Each block adds its own partial sums into the radius bins, so the
    blocking moves the last bits of K: it agrees to 1e-12 relative, not
    bit for bit."""
    pts, fld = _clustered_field(300)
    want = weighted_k(pts, fld, default_radii(), edge).k_values
    monkeypatch.setattr(secondorder, "_PAIR_BLOCK", block)
    got = weighted_k(pts, fld, default_radii(), edge).k_values
    assert np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _masked_grid():
    mask = np.random.default_rng(5).random((8, 10)) < 0.6
    return Grid.regular(0, 1, 0, 0.8, 0.1, 0.1, active_mask=mask)


def _dense_fraction(cx, cy, t, grid, samples=200_000):
    """Share of `samples` evenly spaced arc midpoints in active pixels."""
    ang = (np.arange(samples) + 0.5) * (2.0 * np.pi / samples)
    cos, sin = np.cos(ang), np.sin(ang)
    out = []
    for x, y, r in zip(cx, cy, t):
        px, py = x + r * cos, y + r * sin
        inbox = (px >= grid.lon_min) & (px <= grid.lon_max) & \
                (py >= grid.lat_min) & (py <= grid.lat_max)
        ix = np.clip(np.floor((px - grid.lon_min) / grid.dx).astype(int),
                     0, grid.n_x - 1)
        iy = np.clip(np.floor((py - grid.lat_min) / grid.dy).astype(int),
                     0, grid.n_y - 1)
        out.append(np.mean(inbox & grid.active_mask[iy, ix]))
    return np.array(out)


@pytest.mark.parametrize("chunk", [1, 7])
def test_circle_fraction_mask_independent_of_chunking(monkeypatch, chunk):
    g = _masked_grid()
    rng = np.random.default_rng(6)
    n = 300
    cx, cy = rng.uniform(-0.1, 1.1, n), rng.uniform(-0.1, 0.9, n)
    t = rng.uniform(0.0, 0.7, n)
    t[:5] = 0.0
    want = circle_fraction_mask(cx, cy, t, g)
    monkeypatch.setattr(secondorder, "_RECT_BLOCK", chunk)
    assert np.array_equal(circle_fraction_mask(cx, cy, t, g), want)
    assert len(circle_fraction_mask(cx[:0], cy[:0], t[:0], g)) == 0


def test_circle_fraction_mask_matches_dense_sampling():
    # radii up to 9 pixels on a 30 x 24 grid, centres inside and outside
    mask = np.random.default_rng(8).random((24, 30)) < 0.6
    g = Grid.regular(0, 3, 0, 2.4, 0.1, 0.1, active_mask=mask)
    rng = np.random.default_rng(7)
    cx = np.concatenate([rng.uniform(-0.2, 3.2, 30), [0.3, 1.5, 0.0, 3.0]])
    cy = np.concatenate([rng.uniform(-0.2, 2.6, 30), [0.4, 2.4, 0.0, 1.3]])
    t = np.concatenate([rng.uniform(0.01, 0.9, 30), [0.1, 0.25, 0.3, 0.2]])
    got = circle_fraction_mask(cx, cy, t, g)
    assert np.max(np.abs(got - _dense_fraction(cx, cy, t, g))) < 1e-4


def test_circle_fraction_mask_nodes_and_tangents_exact():
    # a checkerboard of quarter-degree pixels, so nodes and radii are exact
    # in binary: every circle about an interior node, inside the four pixels
    # around it, has two active quadrants
    board = (np.add.outer(np.arange(8), np.arange(10)) % 2) == 0
    g = Grid.regular(0, 2.5, 0, 2, 0.25, 0.25, active_mask=board)
    nodes_x, nodes_y = np.meshgrid(np.arange(1, 10) * 0.25,
                                   np.arange(1, 8) * 0.25)
    cx, cy = nodes_x.ravel(), nodes_y.ravel()
    for r in (0.01, 0.125, 0.2499):
        got = circle_fraction_mask(cx, cy, np.full(len(cx), r), g)
        assert np.max(np.abs(got - 0.5)) < 1e-12
    # circles about pixel centres, tangent to the pixel's four sides, lie
    # wholly in that pixel
    ix, iy = np.meshgrid(np.arange(10), np.arange(8))
    got = circle_fraction_mask((ix.ravel() + 0.5) * 0.25,
                               (iy.ravel() + 0.5) * 0.25,
                               np.full(80, 0.125), g)
    assert np.max(np.abs(got - board[iy.ravel(), ix.ravel()])) < 1e-12


def test_circle_fraction_mask_radius_zero_takes_centre_flag():
    g = _masked_grid()
    cx = np.array([0.05, 0.15, 0.95, 1.0, 0.55, 1.2, -0.1])
    cy = np.array([0.05, 0.35, 0.75, 0.8, 0.0, 0.4, 0.4])
    got = circle_fraction_mask(cx, cy, np.zeros(len(cx)), g)
    ix = np.clip(np.floor(cx / 0.1).astype(int), 0, 9)
    iy = np.clip(np.floor(cy / 0.1).astype(int), 0, 7)
    inbox = (cx >= 0) & (cx <= 1) & (cy >= 0) & (cy <= 0.8)
    assert np.array_equal(got, (inbox & g.active_mask[iy, ix]).astype(float))


@pytest.mark.parametrize("dx, dy, holes, seed", [
    (0.25, 0.25, 0.04, 1), (0.1, 0.1, 0.04, 2), (0.1, 0.1, 0.02, 3),
    (0.1, 0.1, 0.3, 4), (0.1, 0.25, 0.03, 5), (0.3, 0.1, 0.03, 6)])
def test_circle_fraction_mask_is_the_sum_over_active_pixels(dx, dy, holes,
                                                            seed):
    # the region is a union of disjoint pixels, so a circle's fraction in
    # it is the sum of its exact fractions in each active pixel.  Random
    # masks on a 30 x 24 grid; centres in active and inactive pixels,
    # outside the grid, and on pixel edges and corners
    rng = np.random.default_rng(seed)
    mask = rng.random((24, 30)) >= holes
    g = Grid.regular(0, 30 * dx, 0, 24 * dy, dx, dy, active_mask=mask)
    n = 3000
    cx = rng.uniform(-2 * dx, 32 * dx, n)
    cy = rng.uniform(-2 * dy, 26 * dy, n)
    cx[:800] = rng.integers(0, 31, 800) * dx
    cy[400:1200] = rng.integers(0, 25, 800) * dy
    t = rng.uniform(0, 4 * max(dx, dy), n)
    assert np.all(t > 0)
    want = np.zeros(n)
    for iy, ix in zip(*np.nonzero(mask)):
        want += circle_fraction_rect(cx, cy, t, ix * dx, (ix + 1) * dx,
                                     iy * dy, (iy + 1) * dy)
    assert np.max(np.abs(circle_fraction_mask(cx, cy, t, g) - want)) < 1e-12


def test_enclosing_circle_takes_the_weight_floor():
    g = _masked_grid()
    centres = np.array([[0.5, 0.4], [0.02, 0.03], [0.99, 0.79]])
    dists = np.array([0.65, 1.3, 2.0])
    assert np.array_equal(
        circle_fraction_mask(centres[:, 0], centres[:, 1], dists, g),
        np.zeros(3))
    weights = secondorder._correction_weights(g, centres, dists)
    assert np.array_equal(weights,
                          np.full(3, 1.0 / secondorder._MIN_ARC_FRACTION))


def _no_clearance(region, cx, cy, reach):
    """The zero-clearance path: no circle passes the interior filter, so
    every circle takes the run sum."""
    return np.zeros(len(cx))


def _pixel_sum(cx, cy, t, g):
    """Per-pixel oracle: the sum of exact rectangle fractions over the
    active pixels."""
    want = np.zeros(len(t))
    for iy, ix in zip(*np.nonzero(g.active_mask)):
        want += circle_fraction_rect(cx, cy, t, g.lon_min + ix * g.dx,
                                     g.lon_min + (ix + 1) * g.dx,
                                     g.lat_min + iy * g.dy,
                                     g.lat_min + (iy + 1) * g.dy)
    return want


@pytest.mark.parametrize("dx, dy, holes, seed", [
    (0.1, 0.1, 0.0, 11), (0.1, 0.1, 0.01, 12), (0.25, 0.1, 0.03, 13),
    (0.05, 0.2, 0.05, 14), (0.3, 0.3, 0.2, 15)])
def test_interior_filter_agrees_with_the_run_sum(monkeypatch, dx, dy, holes,
                                                 seed):
    # random masks on a 30 x 24 grid, centres inside and outside it, radii
    # up to 8 pixels: a circle the filter gives exactly 1 differs from its
    # run sum only by that sum's rounding
    rng = np.random.default_rng(seed)
    mask = rng.random((24, 30)) >= holes
    g = Grid.regular(0, 30 * dx, 0, 24 * dy, dx, dy, active_mask=mask)
    n = 3000
    cx, cy = rng.uniform(-dx, 31 * dx, n), rng.uniform(-dy, 25 * dy, n)
    t = rng.uniform(0, 8 * max(dx, dy), n)
    got = circle_fraction_mask(cx, cy, t, g)
    monkeypatch.setattr(secondorder, "_clearance", _no_clearance)
    run_sum = circle_fraction_mask(cx, cy, t, g)
    assert np.max(np.abs(got - _pixel_sum(cx, cy, t, g))) < 1e-12
    assert np.max(np.abs(got - run_sum)) < 1e-14


@pytest.mark.parametrize("transposed", [False, True])
def test_rescaled_regions_take_the_run_sum_alone(monkeypatch, transposed):
    rng = np.random.default_rng(16)
    region = RowIntervalRegion(np.concatenate([[0.0], np.cumsum(
        rng.uniform(0.05, 0.3, 20))]), rng.uniform(0.0, 3.0, 20))
    if transposed:
        region = TransposedRegion(region)
    x0, x1, y0, y1 = region.bbox
    n = 2000
    cx, cy = rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)
    t = rng.uniform(0, 0.7, n)
    got = circle_fraction_mask(cx, cy, t, region)
    monkeypatch.setattr(secondorder, "_clearance", _no_clearance)
    assert np.array_equal(circle_fraction_mask(cx, cy, t, region), got)


def test_isotropic_weighted_k_agrees_with_the_run_sum(monkeypatch):
    # a coastline-like masked grid of 0.1 degree pixels with scattered
    # holes and a hot spot, radii to 0.7 degrees
    rng = np.random.default_rng(17)
    iy, ix = np.mgrid[0:50, 0:60]
    mask = (ix + 0.6 * iy > 20) & (rng.random((50, 60)) >= 0.01)
    g = Grid.regular(-125.4, -119.4, 31.5, 36.5, 0.1, 0.1, active_mask=mask)
    rates = 1.0 + 50.0 * np.exp(-((ix - 40) ** 2 + (iy - 25) ** 2) / 40.0)
    fld = IntensityField(g, rates)
    pts = np.column_stack(g.sample(rng, 1000))
    radii = default_radii(0.7, 0.01)
    got = weighted_k(pts, fld, radii, "isotropic").k_values
    monkeypatch.setattr(secondorder, "_clearance", _no_clearance)
    want = weighted_k(pts, fld, radii, "isotropic").k_values
    assert np.max(np.abs(got - want) / want) < 1e-13


@pytest.mark.parametrize("holes, seed", [(0.0, 18), (0.02, 19)])
def test_interior_filter_fires_away_from_the_complement(holes, seed):
    # wherever the centre's brute-force distance to the complement (the
    # inactive pixels and the outside of the box) exceeds t plus a pixel
    # diagonal, the circle lies inside with room to spare: exactly 1
    rng = np.random.default_rng(seed)
    mask = rng.random((24, 30)) >= holes
    g = Grid.regular(0, 3, 0, 2.4, 0.1, 0.1, active_mask=mask)
    n = 3000
    cx, cy = rng.uniform(0, 3, n), rng.uniform(0, 2.4, n)
    t = rng.uniform(0, 0.6, n)
    dist = np.minimum.reduce([cx, 3 - cx, cy, 2.4 - cy])
    for jy, jx in zip(*np.nonzero(~mask)):
        gap_x = np.maximum.reduce([jx * 0.1 - cx, cx - (jx + 1) * 0.1,
                                   np.zeros(n)])
        gap_y = np.maximum.reduce([jy * 0.1 - cy, cy - (jy + 1) * 0.1,
                                   np.zeros(n)])
        dist = np.minimum(dist, np.hypot(gap_x, gap_y))
    far = dist > t + np.hypot(0.1, 0.1)
    assert np.count_nonzero(far) > n // 10
    got = circle_fraction_mask(cx, cy, t, g)
    assert np.all(got[far] == 1.0)


def test_circles_tangent_within_rounding_take_the_run_sum(monkeypatch):
    # circles centred on pixel corners, with radius the floating-point gap
    # to a box edge, as catalogs with rounded coordinates make them: the
    # filter must not round them up to 1.  The 40 x 40 circle is centred at
    # y = 1.7, which the pixel lookup puts in the row whose lower edge is
    # 17 * 0.1 = 1.7000000000000002: at a radius of that edge's gap to the
    # box it crosses the box by 2e-16 and loses about 5e-9 of its fraction.
    g = Grid.regular(0, 3, 0, 2.4, 0.1, 0.1)
    corners = [(i * 0.1, j * 0.1) for i in range(1, 30) for j in range(1, 24)]
    corners += [(i / 10, j / 10) for i in range(1, 30) for j in range(1, 24)]
    x, y = (np.array(v) for v in zip(*corners))
    t = np.column_stack([x - 0.0, 30 * 0.1 - x, y - 0.0, 24 * 0.1 - y]).ravel()
    cx, cy = np.repeat(x, 4), np.repeat(y, 4)
    cx, cy, t = (np.append(v, w) for v, w in zip((cx, cy, t),
                                                 (1.5, 1.2, 12 * 0.1)))
    tall = Grid.regular(0, 4, 0, 4, 0.1, 0.1)
    cases = [(g, cx, cy, t),
             (tall, np.array([2.0]), np.array([1.7]), np.array([17 * 0.1]))]
    got = [circle_fraction_mask(*c[1:], c[0]) for c in cases]
    monkeypatch.setattr(secondorder, "_clearance", _no_clearance)
    for (region, x, y, r), frac in zip(cases, got):
        assert np.array_equal(frac, circle_fraction_mask(x, y, r, region))
    assert got[1][0] < 1.0 - 1e-9


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


def test_weighted_k_point_errors_name_the_first_index():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[0.0, 2.0], [2.0, 0.0]]))
    pts = np.array([[0.7, 0.2], [0.25, 0.25], [0.75, 0.75], [0.3, 0.1]])
    with pytest.raises(ValidationError, match=r"^point at index 1 \(lon "
                       r"0.25, lat 0.25\) is in a zero-rate pixel$"):
        weighted_k(pts, fld, [0.2], "none")
    outside = np.concatenate([pts, [[1.5, 0.5], [0.5, 2.0]]])
    with pytest.raises(OutsideRegionError, match=r"^point at index 4 \(lon "
                       r"1.5, lat 0.5\) is outside the active region$"):
        weighted_k(outside, fld, [0.2], "none")


def test_weighted_k_refuses_a_field_with_zero_infimum():
    # no point lies in the zero-rate pixel, but a zero infimum would make
    # the prefactor, and K at every radius, zero
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[0.0, 1.0], [2.0, 3.0]]))
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(0.55, 0.95, 30),
                           rng.uniform(0.05, 0.95, 30)])
    with pytest.raises(DegenerateInfimumError, match="infimum is zero"):
        weighted_k(pts, fld, [0.1, 0.2, 0.3], "none")


@pytest.mark.parametrize("null", [np.inf, np.nan, 1e-320, "field"])
def test_weighted_k_refuses_non_finite_weights(null):
    # a rate of 1e-320 has weight 1 / 1e-320 = inf, so K would be inf or nan
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.7, 0.7], [0.25, 0.25]])
    if null == "field":
        fld = IntensityField(g, np.array([[1e-320, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValidationError, match=r"^point at index 1 \(lon "
                           r"0.25, lat 0.25\) has null rate 1e-320, whose "
                           r"weight 1/rate is not finite$"):
            weighted_k(pts, fld, [0.5], "none")
    elif null == 1e-320:
        with pytest.raises(ValidationError, match=r"^point at index 0 .* "
                           "weight 1/rate is not finite$"):
            weighted_k(pts, null, [0.5], "none", g)
    else:
        for call in (lambda: weighted_k(pts, null, [0.5], "none", g),
                     lambda: envelope_bands(g, null, [0.5], 2,
                                            SeededStream(5, 0))):
            with pytest.raises(ValidationError,
                               match="^null rate must be finite and positive$"):
                call()


@pytest.mark.parametrize("null", [1e-160, 1e-300, "field"])
def test_weighted_k_refuses_an_overflowing_pair_product(null):
    # each weight 1/rate is finite, but the pair product 1/(rate_i rate_j)
    # is not: typed, and without an overflow warning
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.2, 0.2], [0.3, 0.3]])
    if null == "field":
        null, rate = IntensityField(g, np.array([[1e-160, 1.0],
                                                 [1.0, 1.0]])), 1e-160
        region = None
    else:
        rate, region = null, g
    with pytest.raises(ValidationError, match=r"^weighted K is not finite: "
                       r".* overflow at null rate " + repr(rate) + "$"):
        weighted_k(pts, null, [0.5, 1.0], "none", region)


def test_weighted_k_names_its_region_one_way():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    with pytest.raises(ValidationError, match="needs a region"):
        weighted_k(pts, 2.0, [0.5], "none")
    with pytest.raises(ValidationError, match="pass no region"):
        weighted_k(pts, IntensityField.constant(g, 2.0), [0.5], "none", g)


def test_k_needs_two_points():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        ripley_k(np.array([[0.5, 0.5]]), g, [0.1])


def test_centered_l_zero_under_null_mean():
    radii = radii_grid([0.1, 0.2, 0.3])
    curve = KCurve(radii, np.pi * radii ** 2, "plain")
    assert np.allclose(curve.centered_l, 0.0, atol=1e-12)


def _row_loop_csv(curve):
    """KCurve.to_csv as one write per row, its earlier form (with
    centered_l evaluated once, not once a row)."""
    cb, cl = curve.centered_bands, curve.centered_l
    lines = ["r,k,centered_l,lower,upper,kind\n"]
    for i, r in enumerate(curve.radii):
        lo = "%.12g" % cb[0][i] if cb is not None else ""
        hi = "%.12g" % cb[1][i] if cb is not None else ""
        lines.append("%.12g,%.12g,%.12g,%s,%s,%s\n" % (
            r, curve.k_values[i], cl[i], lo, hi, curve.kind))
    return "".join(lines)


@pytest.mark.parametrize("n", [1, 70, secondorder.MAX_RADII])
@pytest.mark.parametrize("with_bands", [False, True])
def test_k_curve_csv_matches_row_loop(n, with_bands):
    rng = np.random.default_rng(n)
    radii = radii_grid(np.linspace(0.01, 0.7, n))
    k = np.pi * radii ** 2 * rng.uniform(0.0, 2.0, n)
    k[::7] = 0.0
    bands = None
    if with_bands:
        half = rng.uniform(0.0, 1.0, n) * k
        bands = (k - 2.0 * half, k + half)    # a negative lower is clipped
    curve = KCurve(radii, k, "weighted", bands=bands)
    assert curve.to_csv() == _row_loop_csv(curve)
    assert len(curve.to_csv().splitlines()) == n + 1


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
    # centres inside, on edges and on corners; radii up to past the box
    g = Grid.regular(0, 1, 0, 0.8, 0.1, 0.1)
    rng = np.random.default_rng(3)
    cx = np.concatenate([rng.uniform(0, 1, 200), [0, 1, 0.5, 0, 1, 0.37, 0]])
    cy = np.concatenate([rng.uniform(0, 0.8, 200),
                         [0.3, 0.8, 0, 0, 0, 0.8, 0.8]])
    t = np.concatenate([rng.uniform(0, 1.5, 200),
                        [0.2, 0.45, 0.6, 1.0, 1.3, 0.05, 2.0]])
    exact = circle_fraction_rect(cx, cy, t, 0, 1, 0, 0.8)
    got = circle_fraction_mask(cx, cy, t, g)
    assert np.max(np.abs(exact - got)) < 1e-12


def test_circle_fraction_rect_exact_for_centres_outside():
    # inside-out inclusion-exclusion: an arc past pi/2 of half-width can
    # hold its neighbour's arc, or meet it on both sides
    box = Grid.regular(0, 1, 0, 0.8, 1, 0.8)   # one pixel, all active
    assert circle_fraction_rect(-0.0275, 0.6068, 0.0143, 0, 1, 0, 0.8) == 0
    # a circle enclosing the rectangle, whose arcs sum to 2 pi only up to
    # rounding
    assert circle_fraction_rect(0.02, 0.03, 1.3, 0.2, 0.9, 0, 0.1) == 0
    rng = np.random.default_rng(12)
    cx, cy = rng.uniform(-0.1, 1.1, 200), rng.uniform(-0.1, 0.9, 200)
    t = rng.uniform(0, 1.5, 200)
    outside = (cx < 0) | (cx > 1) | (cy < 0) | (cy > 0.8)
    assert 50 < outside.sum() < 150
    got = circle_fraction_rect(cx, cy, t, 0, 1, 0, 0.8)
    assert np.max(np.abs(got - circle_fraction_mask(cx, cy, t, box))) < 1e-12
    # centres beyond a side or a corner, at radii up to past the far side
    cx = np.array([-0.3, 1.2, 0.5, 0.5, -0.2, 1.3, -0.05, 1.05])
    cy = np.array([0.4, 0.4, -0.2, 1.0, -0.1, 0.9, 0.85, -0.02])
    for r in (0.01, 0.25, 0.5, 0.9, 1.4, 3.0):
        t = np.full(len(cx), r)
        assert np.max(np.abs(circle_fraction_rect(cx, cy, t, 0, 1, 0, 0.8)
                             - circle_fraction_mask(cx, cy, t, box))) < 1e-12


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


@pytest.mark.parametrize("transposed", [False, True])
def test_isotropic_k_unbiased_on_a_ragged_rescaled_region(transposed):
    # 20 rows of height 0.1 and lengths 0.3-3.0, as rescaling leaves them:
    # under a homogeneous null the isotropic K averages pi r^2, while the
    # uncorrected K falls well short of it
    lengths = np.random.default_rng(40).uniform(0.3, 3.0, 20)
    region = RowIntervalRegion(np.arange(21) * 0.1, lengths)
    if transposed:
        region = TransposedRegion(region)
    rate = 300 / region.area
    radii = radii_grid([0.05, 0.1, 0.2])
    ratios = {"isotropic": [], "none": []}
    for j in range(120):
        xs, ys = simulate_homogeneous(region, rate, SeededStream(41, j))
        pts = np.column_stack([xs, ys])
        for edge in ratios:
            k = weighted_k(pts, rate, radii, edge, region).k_values
            ratios[edge].append(k / (np.pi * radii ** 2))
    z = {}
    for edge, values in ratios.items():
        values = np.array(values)
        z[edge] = (values.mean(axis=0) - 1) \
            / (values.std(axis=0, ddof=1) / np.sqrt(len(values)))
    assert np.all(np.abs(z["isotropic"]) < 3), z
    assert np.all(z["none"] < -3), z


def test_wk_confidence_bands_scaling():
    radii = radii_grid([0.1, 0.2])
    lo1, hi1 = wk_confidence_bands(radii, 1.0, 50.0)
    lo2, hi2 = wk_confidence_bands(radii, 1.0, 100.0)
    # half-width halves when the total intensity doubles
    assert np.allclose(hi2 - lo2, (hi1 - lo1) / 2.0)
    assert np.allclose((hi1 + lo1) / 2.0, np.pi * radii ** 2)


def test_band_quantile_matches_scipy_ndtri():
    # the bands take the normal quantile from the standard library; scipy's
    # ndtri is the reference (it lies a few ulps away: 5 at level 0.7226,
    # 1.02e-15 relative, on a grid of 1e-5 steps)
    from statistics import NormalDist
    from scipy.special import ndtri
    for level in np.arange(1000) / 1000:
        want = float(ndtri(0.5 + level / 2.0))
        got = NormalDist().inv_cdf(0.5 + level / 2.0)
        assert abs(got - want) <= 1e-15 * abs(want), level


def test_wk_confidence_bands_text_unchanged_from_ndtri():
    # the golden fixture's radii, area and totals: forecast A's 15 active
    # half-degree pixels with two magnitude bins each, and super-thinning
    # at rate 6
    from scipy.special import ndtri
    radii = default_radii(0.5, 0.05)
    rates = np.linspace(0.6, 3.0, 16).reshape(4, 4)
    active = np.ones((4, 4), dtype=bool)
    active[0, 3] = False
    area = 15 * 0.25
    total = sum(float("%.6f" % (r * share)) for r in rates[active]
                for share in (0.7, 0.3))
    for total_intensity in (total, 6.0 * area):
        got = wk_confidence_bands(radii, area, total_intensity)
        half = ndtri(0.975) * np.sqrt(2.0 * np.pi * radii ** 2 * area) \
            / total_intensity
        want = (np.pi * radii ** 2 - half, np.pi * radii ** 2 + half)
        k = np.pi * radii ** 2
        for g, w in zip(got, want):
            assert ["%.12g" % v for v in g] == ["%.12g" % v for v in w]
        assert (KCurve(radii, k, "weighted", bands=got).to_csv()
                == KCurve(radii, k, "weighted", bands=want).to_csv())


def test_envelope_bands_min_max_for_two_sims():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    region = g
    radii = radii_grid([0.2, 0.4])
    lo, hi = envelope_bands(region, 30.0, radii, 2, SeededStream(5, 0))
    assert np.all(lo <= hi)
    # simulations with fewer than two points have no pairs: K = 0
    lo, hi = envelope_bands(region, 1e-9, radii, 2, SeededStream(5, 0))
    assert not lo.any() and not hi.any()
    # a zero rate draws no points either, but has no K to bracket
    with pytest.raises(ValidationError,
                       match="null rate must be finite and positive"):
        envelope_bands(region, 0.0, radii, 2, SeededStream(5, 0))
    with pytest.raises(ValidationError, match="unknown edge correction"):
        envelope_bands(region, 1e-9, radii, 2, SeededStream(5, 0), "ripley")
    with pytest.raises(ValidationError):
        envelope_bands(region, 30.0, radii, 1, SeededStream(5, 0))


def test_envelope_size_cap_stops_before_simulating(monkeypatch):
    # five replicates at two radii are ten values, one above a cap of 9;
    # a stream that is never read shows nothing was drawn
    monkeypatch.setattr(secondorder, "MAX_ENVELOPE_VALUES", 9)
    region = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    radii = radii_grid([0.2, 0.4])
    with pytest.raises(ValidationError, match="^5 simulations at 2 radii are "
                       "above the supported 9 envelope values$"):
        envelope_bands(region, 30.0, radii, 5, None)
    lo, hi = envelope_bands(region, 30.0, radii, 4, SeededStream(5, 0))
    assert np.all(lo <= hi)


def test_weighted_k_rate_form_matches_constant_field_form():
    g = Grid.regular(0, 1, 0, 1, 0.25, 0.25)
    fld = IntensityField.constant(g, 7.0)
    rng = SeededStream(6, 0).generator()
    pts = rng.random((40, 2))
    radii = radii_grid([0.1, 0.2, 0.3])
    a = weighted_k(pts, fld, radii, "none").k_values
    b = weighted_k(pts, 7.0, radii, "none", g).k_values
    assert np.allclose(a, b, rtol=1e-12)


def test_kcurve_csv_columns():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    pts = np.array([[0.2, 0.5], [0.7, 0.5]])
    curve = ripley_k(pts, g, [0.3, 0.6], "none")
    lines = curve.to_csv().splitlines()
    assert lines[0] == "r,k,centered_l,lower,upper,kind"
    assert lines[1].endswith(",plain")


# ---------------------------------------------------------------------------
# pinned K bytes: the constant-rate, field and plain forms on a masked grid, a
# ragged rescaled region and its transpose, with and without edge correction

def _pin_inputs():
    grid = _masked_grid()
    ragged = RowIntervalRegion(np.arange(11) * 0.1,
                               np.random.default_rng(44).uniform(0.3, 1.5, 10))
    regions = {"grid": grid, "ragged": ragged,
               "transposed": TransposedRegion(ragged)}
    points = {name: np.column_stack(simulate_homogeneous(
        region, 150 / region.area, SeededStream(45, k)))
        for k, (name, region) in enumerate(regions.items())}
    fld = IntensityField(grid, np.linspace(1.0, 3.0, 80).reshape(8, 10))
    return regions, points, fld


_PIN_RADII = (0.05, 0.1, 0.2, 0.3)


def _pinned_k(case):
    regions, points, fld = _pin_inputs()
    kind, name, edge = case.split("-")
    region, pts, radii = regions[name], points[name], radii_grid(_PIN_RADII)
    if kind == "ripley":
        k = ripley_k(pts, region, radii, edge).k_values
    elif kind == "field":
        k = weighted_k(pts, fld, radii, edge).k_values
    elif kind == "rate":
        k = weighted_k(pts, 80.0, radii, edge, region).k_values
    else:
        k = np.concatenate(envelope_bands(region, 150 / region.area, radii, 5,
                                          SeededStream(46, 0), edge))
    return hashlib.sha256(k.astype("<f8").tobytes()).hexdigest()


# sha256 of the little-endian float64 K values (an envelope: lower, then
# upper), as the estimators gave them at toolkit 0.6.0
_PINNED_K = {
    "ripley-grid-none":
        "358d5f85d60d32f765c69b69011dc28d7ad074299496ffa06e52d3ede3e789f5",
    "ripley-grid-isotropic":
        "b37e92ee5d71082c51b3276392a9ded209caeb8def4c335eae763b7cd1a33d33",
    "ripley-ragged-none":
        "1df70ab32e11450778e3e8dfe46505d25d211139fed3e251525e2240f5442433",
    "ripley-ragged-isotropic":
        "b22ea4b31784bab6f2ab5fa299cbbd67f6072c270f80695ec3be316f8827e205",
    "field-grid-none":
        "b078b0ca89d56ae9bb2c259b98c3b953e38bf91e6d3eb2902d9be1aef4af01ba",
    "field-grid-isotropic":
        "bae931c5419af607e286a5bbdce54f3f9caff454bcfca54e635ec71972cb45f3",
    "rate-grid-none":
        "e0c9fb8766d430384a85f2d4db633fda9d5561a8b5acec0532d19f37d9d4a1b0",
    "rate-grid-isotropic":
        "ec88533ca58d5dc248f4979127d390cfd392e99e478ce8c36899358c18444b4d",
    "rate-ragged-none":
        "784055ce3e645b200f4b4df9331da77570706816ccce2300ffe06f1dc9204e6e",
    "rate-ragged-isotropic":
        "6be2a7e8306cc0b6b17825150cecae025db9882ad0225ba6733d1bd9b1c257a0",
    "rate-transposed-none":
        "6c8736c53a2e41cac71f16d9743789f6f9cfa80353d0a38fb1bc83b4a516e7a7",
    "rate-transposed-isotropic":
        "ac40a34d5d1ac9acc1890a9e006bcdda0b92f2e8d688be90b7853eee0a9f04dc",
    "envelope-grid-none":
        "9628e0d2c232764228e691d3cb319035135764f0dcacbfcaab02986ac5468912",
    "envelope-grid-isotropic":
        "5c29e470fd5874ede80d7ef83ab336dc71e4e6b0ec32290a6b98a82f10a03890",
    "envelope-transposed-none":
        "241ea83e473ba597d11114f4f2024875ad22b9adbf2a342de305729279c6114d",
    "envelope-transposed-isotropic":
        "82fa4fd64ea3039c17b9c67fd89de2aa1327e9b3181e08acac43c1edca6e99f7",
}


@pytest.mark.parametrize("case", sorted(_PINNED_K))
def test_k_values_pinned(case):
    assert _pinned_k(case) == _PINNED_K[case]
