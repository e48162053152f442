import hashlib
import xml.dom.minidom

import numpy as np

from quakeresid import (Grid, IntensityField, PixelResidualMap,
                        SeededStream, k_curve_svg, parse_catalog,
                        point_map_svg, raw_residuals, residual_map_svg,
                        superpose, wk_confidence_bands)
from quakeresid.secondorder import KCurve, radii_grid


def _curve(with_bands=True):
    radii = radii_grid([0.1, 0.2, 0.3])
    k = np.pi * radii ** 2 * np.array([0.8, 1.1, 1.0])
    bands = wk_confidence_bands(radii, 1.0, 50.0) if with_bands else None
    return KCurve(radii, k, "weighted", bands=bands)


def _rset():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[8.0, 1.0], [1.0, 1.0]]))
    cat = parse_catalog("time,lon,lat,depth,mag\n"
                        "2006-01-01T00:00:00Z,0.3,0.3,5,4.0\n")
    return superpose(cat, fld, SeededStream(1, 0))


def _rmap():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    fld = IntensityField(g, np.array([[2.0, 4.0], [4.0, 0.0]]))
    cat = parse_catalog("time,lon,lat,depth,mag\n"
                        "2006-01-01T00:00:00Z,0.3,0.3,5,4.0\n")
    return raw_residuals(fld, cat)


def test_curve_svg_well_formed_with_fixed_viewbox():
    text = k_curve_svg(_curve(), "test curve")
    doc = xml.dom.minidom.parseString(text)
    svg = doc.documentElement
    assert svg.tagName == "svg"
    assert svg.getAttribute("viewBox") == "0 0 800 600"
    assert "stroke-dasharray" in text      # dashed bands present
    assert "polyline" in text


def test_curve_svg_without_bands():
    text = k_curve_svg(_curve(with_bands=False), "no bands")
    xml.dom.minidom.parseString(text)
    assert text.count("polyline") >= 1


def test_point_map_distinct_glyphs():
    text = point_map_svg(_rset(), "points")
    xml.dom.minidom.parseString(text)
    assert "<circle" in text    # retained events
    assert "<path" in text      # simulated points


def test_residual_map_hatches_sentinels():
    text = residual_map_svg(_rmap(), "resid", events=np.array([[0.3, 0.3]]))
    xml.dom.minidom.parseString(text)
    assert text.count("<rect") >= 5    # background + four pixels
    assert "url(#hatch)" not in text   # all values finite here


def test_svg_deterministic():
    assert k_curve_svg(_curve(), "t") == k_curve_svg(_curve(), "t")
    assert point_map_svg(_rset(), "p") == point_map_svg(_rset(), "p")


def test_title_escaped():
    text = k_curve_svg(_curve(), "a < b & c")
    xml.dom.minidom.parseString(text)
    assert "a &lt; b &amp; c" in text


def _sentinel_map():
    # pixel 6 is masked out; the active values hold +inf, -inf, a skipped
    # zero-rate NaN (pixel 4) and a NaN no skip entry names (pixel 5)
    mask = np.ones((2, 4), dtype=bool)
    mask[1, 2] = False
    g = Grid.regular(-121.37, -121.37 + 4 * 0.13, 35.21, 35.21 + 2 * 0.07,
                     0.13, 0.07, mask)
    values = np.array([1.2345678901234, -0.5, np.inf, -np.inf, np.nan,
                       np.nan, 0.0])
    return PixelResidualMap(g, "deviance", g.active_indices(), values,
                            ((4, "zero-rate pixel"),))


# digests of the per-pixel loops' output, taken before they were vectorised
_SENTINEL_CSV_SHA256 = (
    "91594e22cddc6b308ca178c5c7833b1e85b6296fb2c3938a35e172d85f2d92c0")
_SENTINEL_SVG_SHA256 = (
    "0b0b705c6afbe464ef7ef98ca66ac19b8eaf1fee54a28ed9c5eb23d18c6ef9bc")


def test_residual_map_sentinels_pinned():
    rmap = _sentinel_map()
    csv_text = rmap.to_csv()
    svg_text = residual_map_svg(rmap, "sentinels",
                                events=np.array([[-121.3, 35.25]]))
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert [(r[0], r[3], r[4]) for r in rows] == [
        ("0", "1.23456789012", "ok"), ("1", "-0.5", "ok"), ("2", "", "+inf"),
        ("3", "", "-inf"), ("4", "", "skipped"), ("5", "nan", "ok"),
        ("7", "0", "ok")]
    doc = xml.dom.minidom.parseString(svg_text)
    fills = [r.getAttribute("fill") for r in doc.getElementsByTagName("rect")
             if r.getAttribute("stroke") == "#cccccc"]
    assert len(fills) == 7
    hatched = [f == "url(#hatch)" for f in fills]
    assert hatched == [False, False, True, True, True, True, False]
    assert hashlib.sha256(csv_text.encode()).hexdigest() == \
        _SENTINEL_CSV_SHA256
    assert hashlib.sha256(svg_text.encode()).hexdigest() == \
        _SENTINEL_SVG_SHA256
