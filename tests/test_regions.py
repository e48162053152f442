import numpy as np
import pytest

from quakeresid import (Grid, RowIntervalRegion, SeededStream,
                        TransposedRegion, ValidationError)


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
