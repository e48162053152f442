import numpy as np
import pytest

from quakeresid import (DegenerateInfimumError, Grid, GridRegion,
                        IntensityField, OutsideRegionError, ResidualSet,
                        RowIntervalRegion, SeededStream, TransposedRegion,
                        ValidationError, assess_homogeneity, integrate,
                        parse_catalog, rescale, simulate_catalog,
                        simulate_homogeneous, super_thin, superpose,
                        thin_approx, thin_exact)


def _catalog(points):
    rows = ["time,lon,lat,depth,mag"]
    for i, (x, y) in enumerate(points):
        rows.append(f"2006-01-01T00:{i // 60:02d}:{i % 60:02d}Z,{x},{y},5,4.0")
    return parse_catalog("\n".join(rows) + "\n")


def _grid(n=2, side=1.0):
    return Grid.regular(0, side, 0, side, side / n, side / n)


# --- rescaling ---------------------------------------------------------

def test_rescale_uniform_is_linear_stretch():
    fld = IntensityField.constant(_grid(), 3.0)
    cat = _catalog([(0.2, 0.3), (0.8, 0.3), (0.5, 0.9)])
    rset = rescale(cat, fld)
    assert np.allclose(rset.points[:, 0], 3.0 * cat.lon, rtol=1e-12)
    assert np.array_equal(rset.points[:, 1], cat.lat)
    # distance ratios along x preserved
    assert rset.points[1, 0] / rset.points[0, 0] == pytest.approx(0.8 / 0.2)


def test_rescale_boundary_point_hits_row_total():
    fld = IntensityField(_grid(), np.array([[1.0, 4.0], [2.0, 2.0]]))
    cat = _catalog([(1.0, 0.25)])
    rset = rescale(cat, fld)
    t_row0 = 1.0 * 0.5 + 4.0 * 0.5
    assert rset.points[0, 0] == pytest.approx(t_row0)
    inner = rset.region
    assert inner.t_of_row[0] == pytest.approx(t_row0)


def test_rescale_area_conservation():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = _grid(4)
        fld = IntensityField(g, rng.uniform(0.0, 5.0, (4, 4)))
        rset = rescale(_catalog([]), fld)
        assert rset.region.area == pytest.approx(integrate(fld), rel=1e-12)


def test_rescale_integral_flat_through_zero_stretch():
    # middle column has zero rate: points on both sides map correctly and
    # the zero stretch collapses
    g = Grid.regular(0, 3, 0, 1, 1.0, 1.0)
    fld = IntensityField(g, np.array([[2.0, 0.0, 1.0]]))
    cat = _catalog([(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)])
    rset = rescale(cat, fld)
    assert rset.points[:, 0] == pytest.approx([1.0, 2.0, 2.5])


def test_rescale_vertical_mode():
    fld = IntensityField(_grid(), np.array([[1.0, 2.0], [3.0, 2.0]]))
    cat = _catalog([(0.25, 1.0)])
    rset = rescale(cat, fld, axis="vertical")
    # column 0 integral: 1.0*0.5 + 3.0*0.5
    assert rset.points[0, 1] == pytest.approx(2.0)
    assert rset.points[0, 0] == 0.25
    assert rset.region.area == pytest.approx(integrate(fld), rel=1e-12)
    assert np.all(rset.region.contains(rset.points[:, 0], rset.points[:, 1]))


def test_rescale_vertical_is_transposed_horizontal():
    # a 3 x 4 grid with zero-rate and masked pixels; events include pixel
    # edges and the closed outer corner
    mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1], [1, 1, 1]], bool)
    rates = np.array([[1.5, 0.0, 2.0], [0.7, 3.1, 0.0], [1.0, 2.2, 0.4],
                      [0.0, 1.3, 5.0]])
    fld = IntensityField(Grid.regular(0, 1.5, 0, 1, 0.5, 0.25, mask), rates)
    fld_t = IntensityField(Grid.regular(0, 1, 0, 1.5, 0.25, 0.5, mask.T),
                           rates.T)
    rng = np.random.default_rng(21)
    pts = np.column_stack([rng.uniform(0, 1.5, 300), rng.uniform(0, 1, 300)])
    pts = np.concatenate([[[0.5, 0.25], [1.5, 1.0], [1.0, 0.5]], pts])
    pts = pts[fld.grid.contains(pts[:, 0], pts[:, 1])]
    vertical = rescale(_catalog(pts), fld, axis="vertical")
    horizontal = rescale(_catalog(pts[:, ::-1]), fld_t)
    assert np.array_equal(vertical.points, horizontal.points[:, ::-1])
    assert isinstance(vertical.region, TransposedRegion)
    assert np.array_equal(vertical.region.inner.y_edges,
                          horizontal.region.y_edges)
    assert np.array_equal(vertical.region.inner.t_of_row,
                          horizontal.region.t_of_row)


def test_rescale_event_outside_region_rejected():
    mask = np.array([[True, False], [True, True]])
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    fld = IntensityField(g, np.ones((2, 2)))
    with pytest.raises(OutsideRegionError, match=r"^point at index 0 "):
        rescale(_catalog([(0.75, 0.25)]), fld)


@pytest.mark.parametrize("transform", [
    lambda cat, fld: rescale(cat, fld),
    lambda cat, fld: thin_exact(cat, fld, SeededStream(1, 0)),
    lambda cat, fld: thin_approx(cat, fld, 10.0, SeededStream(1, 0)),
    lambda cat, fld: superpose(cat, fld, SeededStream(1, 0)),
    lambda cat, fld: super_thin(cat, fld, SeededStream(1, 0)),
], ids=["rescale", "thin", "thin-approx", "superpose", "superthin"])
def test_event_outside_region_is_one_error_naming_its_index(transform):
    fld = IntensityField(_grid(), np.array([[1.0, 2.0], [3.0, 4.0]]))
    cat = _catalog([(0.2, 0.2)] * 2999 + [(1.5, 0.2)])
    with pytest.raises(OutsideRegionError) as exc:
        transform(cat, fld)
    assert str(exc.value) == ("point at index 2999 (lon 1.5, lat 0.2) is "
                              "outside the active region")


# --- thinning ----------------------------------------------------------

def test_thin_uniform_field_keeps_everything():
    fld = IntensityField.constant(_grid(), 5.0)
    cat = _catalog([(0.1, 0.1), (0.6, 0.6), (0.9, 0.2)])
    rset = thin_exact(cat, fld, SeededStream(1, 0))
    assert rset.n_points == 3
    assert rset.null_rate == 5.0
    assert not np.any(rset.simulated)


def test_thin_zero_infimum_errors():
    fld = IntensityField(_grid(), np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateInfimumError):
        thin_exact(_catalog([(0.7, 0.7)]), fld, SeededStream(1, 0))


def test_thin_retention_probability_monte_carlo():
    # single event in a pixel with rate 2b: retention probability one half
    fld = IntensityField(_grid(), np.array([[1.0, 2.0], [1.0, 1.0]]))
    cat = _catalog([(0.75, 0.25)])
    kept = sum(thin_exact(cat, fld, SeededStream(2, j)).n_points
               for j in range(4000))
    se = np.sqrt(0.25 * 4000)
    assert abs(kept - 2000) < 3 * se


def test_thin_approx_displayed_probabilities():
    # rates (1, 3), k = 1: probabilities (0.75, 0.25), expected retained 1
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[4.0, 12.0], [4.0, 12.0]]))
    cat = _catalog([(0.25, 0.25), (0.75, 0.25)])
    # per-event rates 4 and 12: k/(lam*sum(1/lam)) = k*3/lam
    kept = sum(thin_approx(cat, fld, 1.0, SeededStream(3, j)).n_points
               for j in range(4000))
    se = np.sqrt(4000 * (0.75 * 0.25 + 0.25 * 0.75))
    assert abs(kept - 4000) < 3 * se


def test_thin_approx_clamps_and_warns():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[1.0, 100.0], [1.0, 1.0]]))
    cat = _catalog([(0.25, 0.25), (0.75, 0.25)])
    with pytest.warns(UserWarning) as record:
        rset = thin_approx(cat, fld, 1.9, SeededStream(4, 0))
    assert rset.meta["n_clamped"] == 1
    assert record[0].filename == __file__    # it names the caller's line


@pytest.mark.parametrize("k_count", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_thin_approx_needs_finite_positive_count(k_count):
    fld = IntensityField.constant(_grid(), 2.0)
    with pytest.raises(ValidationError, match="k_count must be finite"):
        thin_approx(_catalog([(0.3, 0.3)]), fld, k_count, SeededStream(5, 0))


def test_thin_approx_empty_catalog():
    fld = IntensityField.constant(_grid(), 2.0)
    rset = thin_approx(_catalog([]), fld, 5.0, SeededStream(5, 0))
    assert rset.n_points == 0
    assert rset.null_rate == pytest.approx(5.0)


# --- superposition -----------------------------------------------------

def test_superpose_uniform_at_sup_adds_nothing():
    fld = IntensityField.constant(_grid(), 4.0)
    cat = _catalog([(0.3, 0.3), (0.8, 0.8)])
    rset = superpose(cat, fld, SeededStream(6, 0))
    assert rset.n_points == 2
    assert rset.simulated_fraction == 0.0
    assert rset.null_rate == 4.0


def test_superpose_complement_mean_count():
    fld = IntensityField(_grid(), np.array([[8.0, 0.0], [0.0, 0.0]]))
    # complement integral: sum of (8 - rate) * pixel_area = 6.0
    totals = [superpose(_catalog([]), fld, SeededStream(7, j)).n_points
              for j in range(400)]
    se = np.sqrt(6.0 / 400)
    assert abs(np.mean(totals) - 6.0) < 3 * se


def test_superpose_labels_partition():
    fld = IntensityField(_grid(), np.array([[8.0, 1.0], [1.0, 1.0]]))
    cat = _catalog([(0.3, 0.3)])
    rset = superpose(cat, fld, SeededStream(8, 0))
    assert (~rset.simulated).sum() == 1
    assert np.array_equal(rset.retained_points()[0], [0.3, 0.3])
    assert np.all(fld.grid.contains(rset.simulated_points()[:, 0],
                                    rset.simulated_points()[:, 1]))


def test_superpose_level_below_sup_rejected():
    fld = IntensityField(_grid(), np.array([[8.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError, match="below the field supremum"):
        superpose(_catalog([(0.3, 0.3)]), fld, SeededStream(21, 0), level=7.9)


# --- super-thinning ----------------------------------------------------

def test_super_thin_pointwise_identity():
    rng = np.random.default_rng(9)
    lam = rng.integers(0, 64, (4, 4)) / 16.0     # dyadic, exact arithmetic
    k = 1.5
    assert np.all(np.minimum(lam, k) + np.maximum(0.0, k - lam) == k)


def test_super_thin_default_rate_is_mean_rate():
    fld = IntensityField(_grid(), np.array([[1.0, 2.0], [3.0, 2.0]]))
    rset = super_thin(_catalog([]), fld, SeededStream(10, 0))
    assert rset.null_rate == pytest.approx(integrate(fld) / fld.grid.area)


def test_super_thin_total_count_mean():
    g = _grid(4, side=2.0)
    rng = np.random.default_rng(11)
    fld = IntensityField(g, rng.uniform(1.0, 6.0, (4, 4)))
    k = 3.0
    mu = k * g.area
    totals = []
    for j in range(300):
        cat = simulate_catalog(fld, SeededStream(12, j))
        totals.append(super_thin(cat, fld, SeededStream(13, j), k).n_points)
    se = np.sqrt(mu / 300)
    assert abs(np.mean(totals) - mu) < 3 * se


def test_super_thin_k_above_sup_is_pure_superposition():
    fld = IntensityField(_grid(), np.array([[1.0, 2.0], [1.0, 1.0]]))
    cat = _catalog([(0.2, 0.2), (0.9, 0.9)])
    rset = super_thin(cat, fld, SeededStream(14, 0), k_rate=5.0)
    assert (~rset.simulated).sum() == 2    # no thinning at all


# --- assessment --------------------------------------------------------

def test_assess_attaches_bands():
    fld = IntensityField.constant(_grid(2, side=5.0), 2.0)
    cat = simulate_catalog(fld, SeededStream(15, 0))
    rset = super_thin(cat, fld, SeededStream(16, 0))
    curve = assess_homogeneity(rset, [0.2, 0.5, 1.0])
    assert curve.bands is not None
    lo, hi = curve.bands
    assert np.all(lo < hi)
    assert curve.kind == "weighted"


def test_assess_envelope_for_rescaled():
    fld = IntensityField(_grid(2, side=5.0),
                         np.array([[0.5, 1.5], [1.0, 2.0]]))
    cat = simulate_catalog(fld, SeededStream(17, 0))
    rset = rescale(cat, fld)
    with pytest.raises(ValidationError):
        assess_homogeneity(rset, [0.5, 1.0], bands="analytic")
    curve = assess_homogeneity(rset, [0.5, 1.0], bands="envelope",
                               n_sims=20, stream=SeededStream(18, 0))
    assert curve.bands is not None


@pytest.mark.parametrize("region", [
    GridRegion(Grid.regular(0, 1, 0, 1, 0.25, 0.25)),
    RowIntervalRegion(np.linspace(0.0, 1.0, 5),
                      np.array([1.6, 0.4, 1.2, 0.8])),
], ids=["unit-square", "row-intervals"])
def test_envelope_calibrated_under_the_null(region):
    # 39 simulations at level 0.95 give the min-max band, which a 40th
    # pattern from the same null leaves with probability 2/40 at each radius
    rate, n_patterns = 200.0, 40
    radii = np.arange(1, 26) / 100.0
    shares = []
    for j in range(n_patterns):
        xs, ys = simulate_homogeneous(region, rate, SeededStream(71, j))
        rset = ResidualSet(np.column_stack([xs, ys]), np.zeros(len(xs), bool),
                           rate, region, "null")
        curve = assess_homogeneity(rset, radii, bands="envelope", n_sims=39,
                                   stream=SeededStream(72, j))
        lo, hi = curve.bands
        shares.append(np.mean((curve.k_values < lo) | (curve.k_values > hi)))
    # the radii of one pattern leave the band together, so the margin is
    # three standard errors over independent patterns, not over cells
    margin = 3 * np.std(shares, ddof=1) / np.sqrt(n_patterns)
    assert np.mean(shares) <= 0.05 + margin


def test_assess_needs_points():
    fld = IntensityField.constant(_grid(), 5.0)
    rset = thin_exact(_catalog([]), fld, SeededStream(19, 0))
    with pytest.raises(ValidationError):
        assess_homogeneity(rset, [0.1])


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
def test_residual_set_needs_finite_positive_null_rate(rate):
    with pytest.raises(ValidationError, match="null rate must be finite"):
        ResidualSet(np.zeros((0, 2)), np.zeros(0, bool), rate,
                    GridRegion(_grid()), "null")


def test_residual_set_csv():
    fld = IntensityField(_grid(), np.array([[8.0, 1.0], [1.0, 1.0]]))
    rset = superpose(_catalog([(0.3, 0.3)]), fld, SeededStream(20, 0))
    lines = rset.to_csv().splitlines()
    assert lines[0] == "x,y,label,transform,seed"
    labels = {ln.split(",")[2] for ln in lines[1:]}
    assert "retained" in labels
    assert rset.to_csv() == superpose(_catalog([(0.3, 0.3)]), fld,
                                      SeededStream(20, 0)).to_csv()
