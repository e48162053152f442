"""Acceptance suite: each test prints one pass/fail line for its criterion.

All checks run on synthetic data with fixed seeds, so results are
deterministic.  Criterion 9 needs externally supplied data files and is
skipped when the environment variables naming them are absent.
"""

import os

import numpy as np
import pytest

from quakeresid import (Grid, IntensityField, SeededStream,
                        assess_homogeneity, deviance_residuals,
                        filter_catalog, integrate, log_likelihood, lr_score,
                        n_test, parse_catalog, parse_forecast, rescale,
                        ripley_k, simulate_catalog, simulate_homogeneous,
                        super_thin, superpose, thin_exact, weighted_k,
                        weighted_k_constant)
from quakeresid.secondorder import (circle_fraction_mask,
                                    circle_fraction_rect, radii_grid)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _random_field(rng, n=3, lo=0.5, hi=8.0, side=1.5):
    g = Grid.regular(0, side, 0, side, side / n, side / n)
    return IntensityField(g, rng.uniform(lo, hi, (n, n)))


def test_criterion_1_deviance_likelihood_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        f1 = _random_field(rng, n)
        f2 = IntensityField(f1.grid, rng.uniform(0.5, 8.0, (n, n)))
        cat = simulate_catalog(f1, SeededStream(101, trial))
        score = lr_score(deviance_residuals(f1, f2, cat))
        direct = log_likelihood(f1, cat) - log_likelihood(f2, cat)
        denom = max(abs(direct), 1e-30)
        worst = max(worst, abs(score - direct) / denom)
    _report(1, "deviance sum equals the log-likelihood difference",
            worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_2_super_thin_count_identity():
    rng = np.random.default_rng(202)
    g = Grid.regular(0, 20, 0, 20, 1.0, 1.0)
    lam = rng.integers(1, 33, (20, 20)) / 64.0     # dyadic rates
    fld = IntensityField(g, lam)
    k = integrate(fld) / g.area
    # pointwise identity, exact for a dyadic threshold
    k_dyadic = 0.375
    identity_ok = bool(np.all(np.minimum(lam, k_dyadic)
                              + np.maximum(0.0, k_dyadic - lam) == k_dyadic))
    totals = []
    for j in range(500):
        cat = simulate_catalog(fld, SeededStream(202, j))
        totals.append(super_thin(cat, fld, SeededStream(203, j), k).n_points)
    mu = k * g.area
    se = np.sqrt(mu / 500)     # total is Poisson(k A) under the true model
    err = abs(np.mean(totals) - mu)
    _report(2, "super-thin total count identity",
            identity_ok and err < 3 * se,
            f"|mean-kA|={err:.2f}, 3se={3 * se:.2f}, identity={identity_ok}")


def test_criterion_3_weighted_k_calibration():
    g = Grid.regular(0, 1, 0, 1, 0.1, 0.1)
    region = g
    rate = 100.0
    radii = radii_grid([0.1, 0.2, 0.3])
    vals = []
    for j in range(1000):
        xs, ys = simulate_homogeneous(region, rate, SeededStream(303, j))
        if len(xs) < 2:
            continue
        c = weighted_k_constant(np.column_stack([xs, ys]), rate, region,
                                radii, edge_correction="isotropic")
        vals.append(c.k_values)
    vals = np.array(vals)
    mean = vals.mean(axis=0)
    var = vals.var(axis=0, ddof=1)
    se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
    target_mean = np.pi * radii ** 2
    target_var = 2 * np.pi * radii ** 2 * region.area / (rate * region.area) ** 2
    mean_ok = bool(np.all(np.abs(mean - target_mean) < 3 * se))
    ratio = var / target_var
    var_ok = bool(np.all((ratio > 0.75) & (ratio < 1.25)))
    _report(3, "weighted-K mean and variance calibration",
            mean_ok and var_ok,
            f"mean_ok={mean_ok}, var/target={np.round(ratio, 2).tolist()}")


def _coverage_fraction(curve):
    lo, hi = curve.bands
    return float(np.mean((curve.k_values >= lo) & (curve.k_values <= hi)))


def test_criterion_4_null_coverage():
    g = Grid.regular(0, 20, 0, 20, 2.0, 2.0)
    radii = radii_grid(np.arange(0.1, 0.35, 0.05))
    rng = np.random.default_rng(42)
    cov = {"thin": [], "superthin": [], "superpose": []}
    for i in range(100):
        fld = IntensityField(g, rng.uniform(0.15, 0.25, (10, 10)))
        cat = simulate_catalog(fld, SeededStream(42, 100 + i))
        sets = {
            "thin": thin_exact(cat, fld, SeededStream(42, 1000 + i)),
            "superthin": super_thin(cat, fld, SeededStream(42, 2000 + i)),
            "superpose": superpose(cat, fld, SeededStream(42, 3000 + i)),
        }
        for name, rset in sets.items():
            if rset.n_points < 2:
                continue
            cov[name].append(_coverage_fraction(
                assess_homogeneity(rset, radii, bands="analytic")))
    means = {name: float(np.mean(v)) for name, v in cov.items()}
    ok = all(v >= 0.93 for v in means.values())
    _report(4, "null coverage of residual assessments", ok,
            ", ".join(f"{k}={v:.3f}" for k, v in means.items()))


def test_criterion_5_power_against_misspecification():
    n_px, side, lam = 10, 10.0, 2.0
    g = Grid.regular(0, side, 0, side, side / n_px, side / n_px)
    truth = IntensityField.constant(g, lam)
    model_rates = np.full((n_px, n_px), lam)
    model_rates[: n_px // 2, : n_px // 2] = lam / 2.0
    model = IntensityField(g, model_rates)
    radii = radii_grid(np.arange(0.25, 2.75, 0.25))
    hits = 0
    for i in range(100):
        cat = simulate_catalog(truth, SeededStream(500, 100 + i))
        rset = super_thin(cat, model, SeededStream(500, 2000 + i))
        curve = assess_homogeneity(rset, radii, bands="analytic")
        lo, hi = curve.bands
        if np.any((curve.k_values < lo) | (curve.k_values > hi)):
            hits += 1
    _report(5, "power against a quadrant-halved forecast", hits >= 80,
            f"detections {hits}/100")


def _brute_k(pts, lam, region, radii, edge):
    """Ordered pairs j != i at distance <= r: the plain pair sum (weight
    w) and the weighted one (w / (lam_i lam_j)).  Every i scores its
    n - 1 partners j as one row of distances: still all n (n - 1) pairs."""
    n = len(pts)
    radii = np.asarray(radii)
    plain = np.zeros(len(radii))
    weighted = np.zeros(len(radii))
    for i in range(n):
        j = np.arange(n) != i
        d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
        w = np.ones(n - 1)
        if edge == "isotropic":
            w = 1.0 / np.maximum(circle_fraction_rect(
                pts[i, 0], pts[i, 1], d, *region.bbox), 0.5 / 360)
        within = radii[None, :] >= d[:, None]     # (partner, radius)
        plain += w @ within
        weighted += (w / (lam[i] * lam[j])) @ within
    return plain, weighted


def test_criterion_6_brute_force_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(50):
        n_px = int(rng.integers(2, 6))
        side = float(rng.uniform(0.8, 2.5))
        g = Grid.regular(0, side, 0, side, side / n_px, side / n_px)
        fld = IntensityField(g, rng.uniform(0.5, 6.0, (n_px, n_px)))
        n = int(rng.integers(2, 201))
        pts = rng.random((n, 2)) * side
        radii = np.sort(rng.uniform(0.01, side, 4))
        edge = "isotropic" if trial % 2 else "none"
        region = g

        fast_p = ripley_k(pts, g, radii, edge).k_values
        fast_w = weighted_k(pts, fld, radii, edge).k_values
        ix, iy = np.minimum(np.floor(pts / g.dx).astype(int), n_px - 1).T
        lam = np.asarray(fld.rate_per_area[iy, ix])
        pref = fld.active_rates().min() / integrate(fld)
        plain, weighted = _brute_k(pts, lam, region, radii, edge)
        brute_p = region.area / n ** 2 * plain
        brute_w = pref * weighted
        for fast, brute in ((fast_p, brute_p), (fast_w, brute_w)):
            denom = np.maximum(np.abs(brute), 1e-30)
            worst = max(worst, float(np.max(np.abs(fast - brute) / denom)))
    _report(6, "estimators match O(n^2) brute force", worst <= 1e-12,
            f"worst rel err {worst:.2e}")


def test_criterion_7_n_test_consistency():
    g = Grid.regular(0, 1, 0, 1, 0.5, 0.5)
    rng = np.random.default_rng(707)
    worst = 0.0
    for f in range(20):
        fld = IntensityField(g, rng.uniform(20.0, 80.0, (2, 2)))
        cat = simulate_catalog(fld, SeededStream(707, f))
        d_an = n_test(fld, cat, method="analytic").value
        d_sim = n_test(fld, cat, 10000, SeededStream(708, f)).value
        worst = max(worst, abs(d_an - d_sim))
    agree_ok = worst <= 0.02

    fld = IntensityField.constant(g, 200.0)
    deltas = np.sort([
        n_test(fld, simulate_catalog(fld, SeededStream(709, i)),
               method="analytic").value
        for i in range(1000)])
    steps = np.arange(1, 1001) / 1000.0
    ks = float(np.max(np.maximum(np.abs(deltas - steps),
                                 np.abs(deltas - steps + 0.001))))
    uniform_ok = ks < 0.05
    _report(7, "N-test analytic/simulated agreement and uniformity",
            agree_ok and uniform_ok,
            f"worst diff {worst:.4f}, KS {ks:.3f}")


def test_criterion_8_rescaling_conservation():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(50):
        n_px = int(rng.integers(2, 7))
        fld = _random_field(rng, n_px, lo=0.0, hi=5.0,
                            side=float(rng.uniform(0.5, 3.0)))
        axis = "horizontal" if trial % 2 else "vertical"
        rset = rescale(parse_catalog("time,lon,lat,depth,mag\n"), fld, axis)
        total = integrate(fld)
        worst = max(worst, abs(rset.region.area - total) / max(total, 1e-30))
    conservation_ok = worst <= 1e-12

    g = Grid.regular(0, 2, 0, 2, 0.5, 0.5)
    fld = IntensityField.constant(g, 3.0)
    xs = np.array([0.1, 0.7, 1.3, 1.9])
    rows = ["time,lon,lat,depth,mag"] + [
        f"2006-01-01T00:00:0{i}Z,{x},1.0,5,4.0" for i, x in enumerate(xs)]
    rset = rescale(parse_catalog("\n".join(rows) + "\n"), fld)
    stretch_ok = bool(np.allclose(rset.points[:, 0], 3.0 * xs, rtol=1e-12))
    _report(8, "rescaled region conserves the intensity integral",
            conservation_ok and stretch_ok,
            f"worst rel err {worst:.2e}, linear stretch {stretch_ok}")


RELM_VARS = ("QUAKERESID_RELM_A", "QUAKERESID_RELM_B", "QUAKERESID_RELM_C",
             "QUAKERESID_ANSS_CATALOG")


@pytest.mark.skipif(not all(os.environ.get(v) for v in RELM_VARS),
                    reason="reference forecast/catalog files not supplied "
                           f"(set {', '.join(RELM_VARS)})")
def test_criterion_9_reference_data_counts():
    from quakeresid import SeededStream, aggregate

    catalog = parse_catalog(open(os.environ["QUAKERESID_ANSS_CATALOG"]).read())
    expected = {"QUAKERESID_RELM_A": 142, "QUAKERESID_RELM_B": 81,
                "QUAKERESID_RELM_C": 86}
    counts_ok = True
    details = []
    for var, want in expected.items():
        fc = parse_forecast(open(os.environ[var]).read())
        got = len(filter_catalog(catalog, fc, 3.95, 30.0))
        details.append(f"{var[-1]}:{got}")
        counts_ok = counts_ok and got == want
    fc_a = parse_forecast(open(os.environ["QUAKERESID_RELM_A"]).read())
    cat_a = filter_catalog(catalog, fc_a, 3.95, 30.0)
    fld_a = aggregate(fc_a, 3.95)
    delta = n_test(fld_a, cat_a, 1000, SeededStream(0, 0)).value
    _report(9, "reference data event counts and model-A delta",
            counts_ok and delta == 0.0,
            f"counts {' '.join(details)}, delta {delta:.3f}")
