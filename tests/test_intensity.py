import numpy as np
import pytest

from quakeresid import (Grid, IntensityField, OutsideRegionError,
                        ValidationError, aggregate, evaluate, extremes,
                        integrate, parse_forecast, scale_window)

FORECAST = """\
0 0.5 0 0.5 0 30 3.95 4.05 0.1 1
0 0.5 0 0.5 0 30 4.05 4.15 0.3 1
0.5 1 0 0.5 0 30 3.95 4.05 0.2 1
0 0.5 0.5 1 0 30 3.95 4.05 0.3 1
0.5 1 0.5 1 0 30 3.95 4.05 0.4 1
"""


def test_aggregate_sums_bins_above_threshold():
    fc = parse_forecast(FORECAST)
    fld = aggregate(fc, 3.95)
    # pixel 0 has two bins, 0.1 + 0.3, over area 0.25
    assert fld.rate_per_area[0, 0] == pytest.approx(0.4 / 0.25)
    fld_hi = aggregate(fc, 4.05)
    assert fld_hi.rate_per_area[0, 0] == pytest.approx(0.3 / 0.25)
    assert fld_hi.rate_per_area[0, 1] == 0.0


def test_integrate_matches_total_rate():
    fc = parse_forecast(FORECAST)
    fld = aggregate(fc, 3.95)
    assert integrate(fld) == pytest.approx(fc.rate.sum())


def test_integrate_pixel_subset():
    fc = parse_forecast(FORECAST)
    fld = aggregate(fc, 3.95)
    assert integrate(fld, pixel_subset=[0]) == pytest.approx(0.4)
    with pytest.raises(OutsideRegionError):
        g = Grid.regular(0, 1, 0, 1, 0.5, 0.5,
                         active_mask=np.array([[True, False],
                                               [True, True]]))
        integrate(IntensityField(g, np.ones((2, 2))), pixel_subset=[1])


def test_evaluate_and_outside_error():
    fc = parse_forecast(FORECAST)
    fld = aggregate(fc, 3.95)
    assert evaluate(fld, 0.25, 0.25) == pytest.approx(1.6)
    with pytest.raises(OutsideRegionError):
        evaluate(fld, 1.5, 0.5)


def test_scale_window_compounds():
    fc = parse_forecast(FORECAST)
    fld = aggregate(fc, 3.95)
    half = scale_window(fld, 0.5)
    assert integrate(half) == pytest.approx(0.5 * integrate(fld))
    quarter = scale_window(half, 0.5)
    assert integrate(quarter) == pytest.approx(0.25 * integrate(fld))
    with pytest.raises(ValidationError):
        scale_window(fld, 0.0)


def test_rates_undefined_outside_active():
    mask = np.array([[True, False], [True, True]])
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5, active_mask=mask)
    fld = IntensityField(g, np.ones((2, 2)))
    assert np.isnan(fld.rate_per_area[0, 1])
    assert len(fld.active_rates()) == 3


def test_negative_rate_rejected():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        IntensityField(g, np.array([[1.0, -0.1], [0.0, 0.0]]))


def test_extremes():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[1.0, 2.0], [0.5, 3.0]]))
    assert extremes(fld) == (0.5, 3.0)


def test_constant_constructor():
    g = Grid.regular(0, 2, 0, 2, 1.0, 1.0)
    fld = IntensityField.constant(g, 2.5)
    assert integrate(fld) == pytest.approx(10.0)
