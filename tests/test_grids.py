import numpy as np
import pytest

from quakeresid import Grid, OutsideRegionError, ValidationError


def test_regular_builds_expected_shape():
    g = Grid.regular(-2.0, 2.0, 30.0, 31.0, 0.5, 0.25)
    assert (g.n_x, g.n_y) == (8, 4)
    assert g.pixel_area == pytest.approx(0.125)
    assert g.n_active == 32
    assert g.area == pytest.approx(4.0)


def test_inconsistent_counts_rejected():
    with pytest.raises(ValidationError):
        Grid(0, 1, 0, 1, 0.3, 0.5, 3, 2, np.ones((2, 3), bool))


def test_pixel_of_half_open_rule():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    ix, iy = g.pixel_of(0.5, 0.0)
    assert (int(ix), int(iy)) == (1, 0)     # shared edge goes high
    ix, iy = g.pixel_of(1.0, 1.0)
    assert (int(ix), int(iy)) == (1, 1)     # outer boundary closed
    with pytest.raises(OutsideRegionError):
        g.pixel_of(1.0001, 0.5)


def test_flat_index_round_trip():
    g = Grid.regular(0, 2, 0, 3, 0.5, 0.5)
    for pix in range(g.n_x * g.n_y):
        ix, iy = g.unflatten(pix)
        assert int(g.flat_index(ix, iy)) == pix


def test_contains_respects_mask():
    mask = np.ones((2, 2), bool)
    mask[0, 0] = False
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    assert not g.contains(0.25, 0.25)
    assert g.contains(0.75, 0.25)
    assert not g.contains(5.0, 5.0)
    assert g.n_active == 3
    assert g.area == pytest.approx(0.75)


def test_active_indices_row_major():
    mask = np.array([[True, False], [True, True]])
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    assert g.active_indices().tolist() == [0, 2, 3]


def test_pixel_center():
    g = Grid.regular(0, 1, 10, 11, 0.5, 0.5)
    cx, cy = g.pixel_center(3)
    assert (cx, cy) == (0.75, 10.75)


def test_active_pixel_index_or_minus_one():
    mask = np.ones((2, 2), bool)
    mask[0, 0] = False
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    lon = [0.25, 0.5, 1.0, 0.75, 1.5, np.nan, np.inf, -np.inf]
    lat = [0.25, 0.25, 1.0, np.nan, 0.5, 0.5, 0.5, 0.5]
    # masked, shared edge goes high, outer corner closed; then points with
    # a NaN or off the box: no cast of them may warn
    assert g.active_pixel(lon, lat).tolist() == [-1, 1, 3, -1, -1, -1, -1, -1]
    assert int(g.active_pixel(0.75, 0.75)) == 3
    assert g.active_pixel([], []).tolist() == []
    assert g.contains(lon, lat).tolist() == [False, True, True] + [False] * 5
