import numpy as np
import pytest

from quakeresid import (Grid, IntensityField, ValidationError,
                        deviance_residuals, log_likelihood, lr_score,
                        parse_catalog, pearson_residuals, raw_residuals)


def _catalog(points):
    rows = ["time,lon,lat,depth,mag"]
    for i, (x, y) in enumerate(points):
        rows.append(f"2006-01-01T00:00:{i:02d}Z,{x},{y},5,4.0")
    return parse_catalog("\n".join(rows) + "\n")


def _grid():
    return Grid.regular(0, 1, 0, 1, 0.5, 0.5)


def test_raw_residuals_oracle():
    fld = IntensityField(_grid(), np.array([[4.0, 8.0], [0.0, 12.0]]))
    cat = _catalog([(0.25, 0.25), (0.25, 0.25), (0.75, 0.75)])
    rmap = raw_residuals(fld, cat)
    # expectations per pixel: 1, 2, 0, 3
    assert rmap.values.tolist() == [1.0, -2.0, 0.0, -2.0]


def test_pearson_residuals_skip_zero_rate():
    fld = IntensityField(_grid(), np.array([[4.0, 8.0], [0.0, 12.0]]))
    cat = _catalog([(0.25, 0.25)])
    rmap = pearson_residuals(fld, cat)
    assert rmap.values[0] == pytest.approx(1 / 2.0 - 2.0 * 0.25)
    assert rmap.skipped_pixels == ((2, "zero-rate pixel"),)
    assert np.isnan(rmap.values[2])


def test_deviance_sum_equals_likelihood_difference():
    f1 = IntensityField(_grid(), np.array([[4.0, 8.0], [2.0, 12.0]]))
    f2 = IntensityField(_grid(), np.array([[5.0, 3.0], [9.0, 1.0]]))
    cat = _catalog([(0.2, 0.2), (0.6, 0.1), (0.8, 0.9), (0.9, 0.95)])
    dmap = deviance_residuals(f1, f2, cat)
    expected = log_likelihood(f1, cat) - log_likelihood(f2, cat)
    assert lr_score(dmap) == pytest.approx(expected, rel=1e-12)


def test_deviance_identical_models_zero():
    f1 = IntensityField(_grid(), np.full((2, 2), 3.0))
    dmap = deviance_residuals(f1, f1, _catalog([(0.3, 0.3)]))
    assert np.all(dmap.values == 0.0)


def test_deviance_infinity_sentinel():
    f1 = IntensityField(_grid(), np.array([[0.0, 8.0], [2.0, 12.0]]))
    f2 = IntensityField(_grid(), np.full((2, 2), 3.0))
    cat = _catalog([(0.25, 0.25)])
    dmap = deviance_residuals(f1, f2, cat)
    assert np.isneginf(dmap.values[0])
    with pytest.raises(ValidationError):
        lr_score(dmap)


def test_deviance_requires_same_layout():
    f1 = IntensityField(_grid(), np.full((2, 2), 3.0))
    g2 = Grid.regular(0, 1, 0, 1, 1.0, 1.0)
    f2 = IntensityField(g2, np.full((1, 1), 3.0))
    with pytest.raises(ValidationError):
        deviance_residuals(f1, f2, _catalog([]))


def test_deviance_mask_intersection_reported():
    mask = np.ones((2, 2), bool)
    mask[0, 0] = False
    g_masked = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    f1 = IntensityField(_grid(), np.full((2, 2), 3.0))
    f2 = IntensityField(g_masked, np.full((2, 2), 3.0))
    dmap = deviance_residuals(f1, f2, _catalog([]))
    assert dmap.skipped_pixels == ((0, "inactive in one model"),)
    assert len(dmap.pixel_index) == 3


def test_lr_score_requires_deviance_kind():
    fld = IntensityField(_grid(), np.full((2, 2), 3.0))
    rmap = raw_residuals(fld, _catalog([]))
    with pytest.raises(ValidationError):
        lr_score(rmap)


def test_residual_csv_format():
    fld = IntensityField(_grid(), np.array([[4.0, 8.0], [0.0, 12.0]]))
    rmap = pearson_residuals(fld, _catalog([(0.25, 0.25)]))
    lines = rmap.to_csv().splitlines()
    assert lines[0] == "pixel_index,lon_center,lat_center,value,flag"
    assert len(lines) == 5
    flags = [ln.split(",")[-1] for ln in lines[1:]]
    assert flags.count("skipped") == 1
    assert flags.count("ok") == 3
