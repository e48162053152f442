import hashlib

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


def test_integrate_rejects_an_overflowing_count():
    g = Grid.regular(0, 2, 0, 1, 1.0, 1.0)
    fld = IntensityField(g, np.full((1, 2), 1e308))
    with np.errstate(over="raise"), \
            pytest.raises(ValidationError, match="not finite"):
        integrate(fld)


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


def _pin_forecast():
    """A 7 x 5 grid of 0.1-degree pixels: up to 12 bins per pixel, most with
    rates near 1e-3 (so their sum depends on its order) and some from
    1e-300 to 1e300, every row shuffled so a pixel's bins are spread over
    the file, bins on both sides of 3.95, one masked pixel and one never
    mentioned."""
    rng = np.random.default_rng(23)
    rows = []
    for pix in range(35):
        ix, iy = pix % 7, pix // 7
        if (ix, iy) == (5, 1):
            continue
        flag = 0 if (ix, iy) == (2, 3) else 1
        for m in rng.choice(25, size=rng.integers(1, 13), replace=False):
            rows.append("%.1f %.1f %.1f %.1f 0 30 %.2f %.2f %.17g %d" % (
                -118 + ix / 10, -118 + (ix + 1) / 10, 34 + iy / 10,
                34 + (iy + 1) / 10, 3.45 + m / 10, 3.55 + m / 10,
                rng.lognormal(-7.0, 1.5) if rng.random() < 0.7 else
                10.0 ** rng.uniform(-300, 300), flag))
    return parse_forecast("\n".join(rng.permutation(rows)) + "\n")


@pytest.mark.parametrize("mag_min, digest", [
    (3.95,
     "6b3f35199679801bc2f220fcd07fd74e648b702584829b583838ad49a089a976"),
    (0.0,
     "8b6428b73c9ab9993b9938dc9e24c8459ba32566708f7854ebb453a99ad4f95c"),
])
def test_aggregate_field_is_pinned(mag_min, digest):
    # any summation that adds each pixel's bins in row order gives these
    # bits
    fld = aggregate(_pin_forecast(), mag_min)
    rates = fld.rate_per_area
    assert hashlib.sha256(rates.dtype.str.encode() + repr(rates.shape).encode()
                          + rates.tobytes()).hexdigest() == digest
