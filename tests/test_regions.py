import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import quakeresid
from quakeresid import (Catalog, Grid, IntensityField, RowIntervalRegion,
                        SeededStream, TransposedRegion, ValidationError,
                        rescale)


def test_grid_region_area_and_bbox():
    mask = np.ones((2, 2), bool)
    mask[1, 1] = False
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    region = g
    assert region.area == pytest.approx(0.75)
    assert region.bbox == (0, 1, 0, 1)


def test_grid_region_sampling_respects_mask():
    mask = np.ones((2, 2), bool)
    mask[1, 1] = False
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    rng = SeededStream(1, 0).generator()
    xs, ys = g.sample(rng, 500)
    assert len(xs) == 500
    assert not np.any((xs > 0.5) & (ys > 0.5))


def test_row_interval_region_basic():
    region = RowIntervalRegion(np.array([0.0, 0.5, 1.0]),
                               np.array([2.0, 1.0]))
    assert region.area == pytest.approx(1.5)
    assert region.contains(1.5, 0.25)
    assert not region.contains(1.5, 0.75)
    assert not region.contains(-0.1, 0.25)


def test_row_interval_validation():
    with pytest.raises(ValidationError):
        RowIntervalRegion(np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        RowIntervalRegion(np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]))


def test_row_interval_sampling_uniform_between_bands():
    region = RowIntervalRegion(np.array([0.0, 1.0, 2.0]),
                               np.array([3.0, 1.0]))
    rng = SeededStream(2, 0).generator()
    xs, ys = region.sample(rng, 4000)
    assert np.all(region.contains(xs, ys))
    frac_low = np.mean(ys < 1.0)
    # band areas 3 and 1: about 75% of points land in the wide band
    assert abs(frac_low - 0.75) < 0.03


def test_transposed_region_swaps_coordinates():
    inner = RowIntervalRegion(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
    region = TransposedRegion(inner)
    assert region.area == inner.area
    assert region.bbox == (0.0, 1.0, 0.0, 2.0)
    assert region.contains(0.25, 1.5) == inner.contains(1.5, 0.25)
    rng = SeededStream(3, 0).generator()
    xs, ys = region.sample(rng, 200)
    assert np.all(region.contains(xs, ys))


def _rescaled_region(axis):
    # a volatile rate with a zero column and a masked row, so both axes have
    # rows of zero width next to rows many times wider than the rest
    rng = np.random.default_rng(24)
    mask = np.ones((5, 6), bool)
    mask[3, :] = False
    rates = rng.exponential(1.0, (5, 6)) ** 3 * 50.0
    rates[:, 2] = 0.0
    fld = IntensityField(Grid.regular(0, 0.6, 0, 0.5, 0.1, 0.1, mask), rates)
    one = np.array([0.05])
    event = Catalog(np.array(["2007-01-01"], "datetime64[us]"), one, one,
                    np.zeros(1), np.full(1, 4.0))
    return rescale(event, fld, axis).region


def _sparse_grid():
    # two pixels at opposite corners of a 100 x 100 box
    mask = np.zeros((100, 100), bool)
    mask[0, 0] = mask[99, 99] = True
    return Grid.regular(0, 100, 0, 100, 1.0, 1.0, active_mask=mask)


def _rectangles(region):
    """(x0, x1, y0, y1) of each cell, read from the region's own fields."""
    if isinstance(region, TransposedRegion):
        x0, x1, y0, y1 = _rectangles(region.inner)
        return y0, y1, x0, x1
    if isinstance(region, Grid):
        iy, ix = np.nonzero(region.active_mask)
        x0 = region.lon_min + ix * region.dx
        y0 = region.lat_min + iy * region.dy
        return x0, x0 + region.dx, y0, y0 + region.dy
    t = region.t_of_row
    return np.zeros_like(t), t, region.y_edges[:-1], region.y_edges[1:]


@pytest.mark.parametrize("region", [
    _sparse_grid(), _rescaled_region("horizontal"),
    _rescaled_region("vertical")], ids=["two-pixels", "rescaled-horizontal",
                                         "rescaled-vertical"])
def test_sample_uniform_over_cells_and_coordinates(region):
    n, alpha = 20000, 1e-3
    xs, ys = region.sample(SeededStream(24, 1).generator(), n)
    assert len(xs) == len(ys) == n
    x0, x1, y0, y1 = _rectangles(region)
    areas = (x1 - x0) * (y1 - y0)
    full = areas > 0
    # chi-square over the cells of positive area: every point is in one
    inside = ((xs[:, None] >= x0[full]) & (xs[:, None] <= x1[full]) &
              (ys[:, None] >= y0[full]) & (ys[:, None] <= y1[full]))
    assert np.all(inside.any(axis=1))
    counts = np.bincount(inside.argmax(axis=1), minlength=full.sum())
    expected = n * areas[full] / areas.sum()
    assert stats.chisquare(counts, expected).pvalue > alpha
    # DKW on each coordinate against the exact marginal CDF
    bound = np.sqrt(np.log(2 / alpha) / (2 * n))
    for values, lo, hi in ((xs, x0, x1), (ys, y0, y1)):
        v = np.sort(values)
        cdf = (areas[full] * np.clip((v[:, None] - lo[full]) /
                                     (hi[full] - lo[full]), 0, 1)).sum(1)
        cdf /= areas.sum()
        gap = max(np.max(np.arange(1, n + 1) / n - cdf),
                  np.max(cdf - np.arange(n) / n))
        assert gap < bound


@pytest.mark.parametrize("transposed", [False, True])
def test_sample_skips_rows_of_zero_length(transposed):
    region = RowIntervalRegion(np.array([0.0, 1.0, 2.0, 3.0]),
                               np.array([2.0, 0.0, 1.0]))
    rng = SeededStream(24, 2).generator()
    if transposed:
        ys, xs = TransposedRegion(region).sample(rng, 10000)
    else:
        xs, ys = region.sample(rng, 10000)
    assert not np.any((ys > 1.0) & (ys < 2.0))
    assert np.all(region.contains(xs, ys))


class _Constant:
    """A generator whose every uniform is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self, n):
        return np.full(n, self.value)


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("t, u, row", [
    ([0.0, 2.0, 1.0, 0.0], 0.0, 1),
    ([0.0, 2.0, 1.0, 0.0], np.nextafter(1.0, 0.0), 2),
    # a subnormal total: the top uniform times it rounds up to the total
    ([0.0, 5e-324, 0.0, 0.0], np.nextafter(1.0, 0.0), 1),
], ids=["bottom", "top", "top-subnormal"])
def test_sample_extreme_uniforms_land_in_cells_of_positive_area(
        transposed, t, u, row):
    region = RowIntervalRegion(np.arange(5.0), np.array(t))
    if transposed:
        ys, xs = TransposedRegion(region).sample(_Constant(u), 3)
    else:
        xs, ys = region.sample(_Constant(u), 3)
    assert np.all((ys >= row) & (ys <= row + 1))
    assert np.all((xs >= 0) & (xs <= t[row]) & ((xs > 0) | (u == 0)))


def _row_of(region, y):
    """The row a RowIntervalRegion gives y: its last edge at or below y."""
    return np.clip(np.searchsorted(region.y_edges, y, side="right") - 1,
                   0, len(region.t_of_row) - 1)


def _place_one_point_per_cell(kind, u):
    """Place one point per cell of a 0.1-degree grid at lon -125.4, or of a
    row region (or its transpose) of the same size, with every uniform u,
    and check that each point lies in its own cell."""
    mask = np.random.default_rng(27).random((115, 123)) < 0.7
    grid = Grid.regular(-125.4, -113.1, 31.5, 43.0, 0.1, 0.1,
                        active_mask=mask)
    rows = RowIntervalRegion(31.5 + 0.1 * np.arange(116),
                             np.random.default_rng(28).uniform(0.5, 12.0, 115))
    region = {"grid": grid, "rows": rows,
              "transposed": TransposedRegion(rows)}[kind]
    x, y, areas = region.cells()
    xs, ys = quakeresid.regions.place(_Constant(u), np.ones(len(areas), int),
                                      x, y)
    assert np.all(region.contains(xs, ys))
    if kind == "grid":
        iy, ix = np.nonzero(mask)
        assert np.array_equal(grid.active_pixel(xs, ys),
                              grid.flat_index(ix, iy))
    else:
        inner = ys if kind == "rows" else xs
        assert np.array_equal(_row_of(rows, inner), np.arange(115))


@pytest.mark.parametrize("kind", ["grid", "rows", "transposed"])
def test_top_uniform_keeps_every_point_in_its_own_cell(kind):
    # the largest uniform below 1 rounds many points onto the next cell's
    # lower edge (index + u is index + 1 for every grid index above 0)
    _place_one_point_per_cell(kind, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("kind", ["grid", "rows", "transposed"])
def test_bottom_uniform_keeps_every_point_in_its_own_cell(kind):
    # a uniform of 0 puts each point on its cell's lower edge, which
    # origin + index * step rounds under in about 64% of the grid's cells
    _place_one_point_per_cell(kind, 0.0)


def test_sparse_region_sampled_in_bounded_memory(tmp_path):
    # the rescaled region of two 0.1-degree pixels 350 degrees apart fills
    # 0.057% of its bounding box; its 1e6 points are placed in cells, so
    # the sample fits a child whose address space is capped at 1 GiB
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\n"
            "from quakeresid import RowIntervalRegion, SeededStream\n"
            "t = np.zeros(3500)\n"
            "t[[0, -1]] = 5e6\n"
            "region = RowIntervalRegion(0.1 * np.arange(3501), t)\n"
            "x0, x1, y0, y1 = region.bbox\n"
            "print(round(region.area / ((x1 - x0) * (y1 - y0)), 6))\n"
            "xs, ys = region.sample(SeededStream(24, 3).generator(), 10**6)\n"
            "print(len(xs), len(ys), bool(np.all(region.contains(xs, ys))))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(quakeresid.__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src,
                                  OPENBLAS_NUM_THREADS="1"),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0.000571", "1000000", "1000000", "True"]
