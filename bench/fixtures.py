"""Seeded benchmark inputs: forecasts in the ten-column row format and
catalogs in the time,lon,lat,depth,mag CSV format.

Each workload's grid, mask and hot-spot layout are constants, so input
sizes do not drift with the seed; the seed draws the rate noise and the
events.  Every catalog carries a few contamination rows per drop reason of
``filter_catalog`` (magnitude, window, depth, location), each row breaking
exactly one rule, so the expected kept and dropped counts are known.
"""

from __future__ import annotations

import os

import numpy as np

MAG_MIN = 3.95          # CLI defaults --mag-min and --depth-max
DEPTH_MAX = 30.0
WINDOW_START = np.datetime64("2006-01-01T00:00:00", "ms")
WINDOW_END = np.datetime64("2011-01-01T00:00:00", "ms")
CONTAMINATION_PER_REASON = 3
DROP_REASONS = ("magnitude", "window", "depth", "location")

# RELM-like testing region: 0.1 degree pixels in a diagonal coastal strip.
RELM_LON_MIN, RELM_LAT_MIN, RELM_N_X, RELM_N_Y, RELM_D = -125.4, 31.5, 123, 115, 0.1
RELM_ACTIVE = 8100
RELM_MASKED = 80        # pixels listed with mask_flag 0
RELM_BINS = 40          # magnitude bins 4.95 .. 8.95
RELM_TOTAL = 150.0      # expected events of forecast A
RELM_HOTSPOTS = 25
# Dense full rectangle: 1 degree pixels, every pixel mean above the
# sampler's inversion cutoff of 10.
DENSE_LON_MIN, DENSE_LAT_MIN, DENSE_N, DENSE_D = -120.0, 30.0, 20, 1.0
DENSE_BINS = 10         # magnitude bins 4.95 .. 5.95
DENSE_TOTAL = 14000.0
PTRS_CUTOFF = 10.0
_LAYOUT_SEED = 20120229  # fixed structure: mask, hot spots


def _gr_bin_weights(n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin lower edges and Gutenberg-Richter (b = 1) bin shares."""
    edges = 4.95 + 0.1 * np.arange(n_bins + 1)
    surv = 10.0 ** -(edges - edges[0])
    mass = surv[:-1] - surv[1:]
    return edges, mass / mass.sum()


def _relm_layout():
    """Fixed mask (active and masked-out pixel indices) and hot spots."""
    rng = np.random.default_rng(_LAYOUT_SEED)
    iy, ix = np.mgrid[0:RELM_N_Y, 0:RELM_N_X]
    cx = RELM_LON_MIN + (ix + 0.5) * RELM_D
    cy = RELM_LAT_MIN + (iy + 0.5) * RELM_D
    p0 = np.array([-124.0, 41.8])
    axis = np.array([-114.8, 32.4]) - p0
    length = np.hypot(*axis)
    unit = axis / length
    rel_x, rel_y = cx - p0[0], cy - p0[1]
    along = (rel_x * unit[0] + rel_y * unit[1]) / length
    perp = rel_x * unit[1] - rel_y * unit[0]
    wobble = 0.4 * np.sin(9.0 * along + 1.3) + 0.25 * np.sin(23.0 * along)
    score = np.abs(perp + wobble) + 20.0 * np.maximum(0.0, np.abs(along - 0.5) - 0.5)
    score = score + 0.15 * rng.random(score.shape)
    order = np.argsort(score.ravel(), kind="stable")
    active = np.sort(order[:RELM_ACTIVE])
    masked = np.sort(order[RELM_ACTIVE:RELM_ACTIVE + RELM_MASKED])
    centers = np.column_stack([cx.ravel()[active], cy.ravel()[active]])
    hot = centers[rng.choice(len(active), RELM_HOTSPOTS, replace=False)]
    sigma = rng.uniform(0.1, 0.3, RELM_HOTSPOTS)
    amp = rng.uniform(0.3, 1.0, RELM_HOTSPOTS)
    return active, masked, centers, (hot, sigma, amp)


def _relm_rates(rng, centers, hotspots, smooth: float) -> np.ndarray:
    """Expected events per active pixel; smooth in [0, 1] blends toward flat."""
    hot, sigma, amp = hotspots
    d2 = ((centers[:, None, :] - hot[None, :, :]) ** 2).sum(axis=2)
    shape = 0.002 + (amp * np.exp(-d2 / (2.0 * sigma ** 2))).sum(axis=1) * 0.05
    shape = (1.0 - smooth) * shape + smooth * shape.mean()
    shape = shape * rng.lognormal(0.0, 0.2, len(shape))
    return shape * (RELM_TOTAL / shape.sum())


def _forecast_text(lon_min, lat_min, n_x, d, pixels, flags, pixel_rates,
                   n_bins) -> tuple[str, float]:
    """Rows in pixel-major, bin-minor order; pixel_rates is per pixel.

    Returns the text and the expected count of the active pixels, summed
    from the rates as printed.
    """
    edges, share = _gr_bin_weights(n_bins)
    ix, iy = pixels % n_x, pixels // n_x
    prefixes = [
        "%.1f %.1f %.1f %.1f 0 30 " % (lon_min + x * d, lon_min + (x + 1) * d,
                                        lat_min + y * d, lat_min + (y + 1) * d)
        for x, y in zip(ix.tolist(), iy.tolist())]
    mags = ["%.2f %.2f " % (lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    rates = ["%.6e" % r for r in np.outer(pixel_rates, share).ravel().tolist()]
    lines = []
    for p, (prefix, flag) in enumerate(zip(prefixes, flags)):
        tail = " %d" % flag
        base = p * n_bins
        lines.extend(prefix + mags[b] + rates[base + b] + tail
                     for b in range(n_bins))
    printed = np.asarray(rates, dtype=float).reshape(len(pixels), n_bins)
    total = float(printed[np.asarray(flags) == 1].sum())
    return "\n".join(lines) + "\n", total


def _uniform_in_pixels(rng, pixels, lon_min, lat_min, n_x, d):
    """Uniform points inside the given pixels, kept clear of the pixel
    edges so printed coordinates never round into a neighbour."""
    u = 0.002 + 0.996 * rng.random((len(pixels), 2))
    lon = lon_min + (pixels % n_x + u[:, 0]) * d
    lat = lat_min + (pixels // n_x + u[:, 1]) * d
    return lon, lat


def _gr_magnitudes(rng, n, lo, hi):
    u = rng.random(n)
    return lo - np.log10(1.0 - u * (1.0 - 10.0 ** -(hi - lo)))


def _times(rng, n, start=WINDOW_START, end=WINDOW_END):
    span = (end - start).astype(np.int64)
    return start + (rng.random(n) * span).astype(np.int64).astype("timedelta64[ms]")


def _catalog_text(rng, lon, lat, mag_lo, mag_hi, outside_lon,
                  inactive_centers) -> tuple[str, dict]:
    """Clean events at (lon, lat) plus contamination rows; returns the CSV
    and the counts filter_catalog should report."""
    n = len(lon)
    k = CONTAMINATION_PER_REASON
    time = _times(rng, n)
    depth = rng.uniform(0.0, 25.0, n)
    mag = _gr_magnitudes(rng, n, mag_lo, mag_hi)
    rows = [(time, lon, lat, depth, mag)]
    src = rng.choice(n, 4 * k, replace=False)
    for r, reason in enumerate(DROP_REASONS):
        idx = src[r * k:(r + 1) * k]
        t, x, y, z, m = time[idx], lon[idx], lat[idx], depth[idx], mag[idx]
        if reason == "magnitude":
            m = rng.uniform(3.0, 3.9, k)
        elif reason == "window":
            before = _times(rng, k, np.datetime64("2003-01-01", "ms"), WINDOW_START)
            after = _times(rng, k, WINDOW_END + np.timedelta64(1, "D"),
                           np.datetime64("2013-01-01", "ms"))
            t = np.where(np.arange(k) % 2 == 0, before, after)
        elif reason == "depth":
            z = rng.uniform(40.0, 80.0, k)
        else:
            x = np.full(k, outside_lon)
            if len(inactive_centers):
                pick = inactive_centers[rng.choice(len(inactive_centers), k)]
                inside = np.arange(k) % 2 == 1
                x = np.where(inside, pick[:, 0], x)
                y = np.where(inside, pick[:, 1], y)
        rows.append((t, x, y, z, m))
    time, lon, lat, depth, mag = (np.concatenate(c) for c in zip(*rows))
    order = np.argsort(time, kind="stable")
    stamps = np.datetime_as_string(time[order], unit="ms")
    lines = ["time,lon,lat,depth,mag"]
    lines.extend("%sZ,%.5f,%.5f,%.2f,%.2f" % row for row in zip(
        stamps.tolist(), lon[order].tolist(), lat[order].tolist(),
        depth[order].tolist(), mag[order].tolist()))
    labels = {"events_read": n + 4 * k, "events_kept": n}
    labels.update({f"dropped_{reason}": k for reason in DROP_REASONS})
    return "\n".join(lines) + "\n", labels


def _pairs_within(lon, lat, r_max: float) -> int:
    from scipy.spatial import cKDTree
    return int(len(cKDTree(np.column_stack([lon, lat])).query_pairs(
        r_max, output_type="ndarray")))


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def make_relm(seed: int, out_dir: str, n_events: int, forecast_b: bool,
              r_max: float) -> dict:
    """RELM-like forecast A (and optionally B) with a catalog drawn from A.

    Returns a description: file paths, generated sizes and, for the
    catalog, the counts filter_catalog must report.
    """
    rng = np.random.default_rng([seed % 2 ** 64, 1])
    active, masked, centers, hot = _relm_layout()
    pixels = np.concatenate([active, masked])
    flags = np.concatenate([np.ones(len(active), int), np.zeros(len(masked), int)])
    rates_a = _relm_rates(rng, centers, hot, smooth=0.0)
    info = {"forecast_rows": len(pixels) * RELM_BINS,
            "active_pixels": len(active),
            "ptrs_pixels": int(np.sum(rates_a >= PTRS_CUTOFF)),
            "inversion_pixels": int(np.sum((rates_a > 0) & (rates_a < PTRS_CUTOFF))),
            "files": {}, "catalogs": {}}
    padded = np.concatenate([rates_a, np.full(len(masked), rates_a.mean())])
    text, info["expected_count"] = _forecast_text(
        RELM_LON_MIN, RELM_LAT_MIN, RELM_N_X, RELM_D, pixels, flags, padded,
        RELM_BINS)
    path = os.path.join(out_dir, "forecast_a.txt")
    info["forecast_bytes"] = _write(path, text)
    info["files"]["forecast_a"] = path
    if forecast_b:
        rates_b = _relm_rates(rng, centers, hot, smooth=0.5)
        padded = np.concatenate([rates_b, np.full(len(masked), rates_b.mean())])
        path = os.path.join(out_dir, "forecast_b.txt")
        _write(path, _forecast_text(RELM_LON_MIN, RELM_LAT_MIN, RELM_N_X,
                                    RELM_D, pixels, flags, padded, RELM_BINS)[0])
        info["files"]["forecast_b"] = path
    mask_centers = np.column_stack([
        RELM_LON_MIN + (masked % RELM_N_X + 0.5) * RELM_D,
        RELM_LAT_MIN + (masked // RELM_N_X + 0.5) * RELM_D])
    picked = rng.choice(active, n_events, p=rates_a / rates_a.sum())
    lon, lat = _uniform_in_pixels(rng, picked, RELM_LON_MIN, RELM_LAT_MIN,
                                  RELM_N_X, RELM_D)
    text, labels = _catalog_text(rng, lon, lat, 4.95, 8.95,
                                 RELM_LON_MIN - 1.0, mask_centers)
    labels["pairs_at_rmax"] = _pairs_within(lon, lat, r_max)
    name = f"catalog_{n_events}"
    path = os.path.join(out_dir, name + ".csv")
    _write(path, text)
    info["files"][name] = path
    info["catalogs"][name] = labels
    return info


def make_dense(seed: int, out_dir: str, r_max: float) -> dict:
    """Coarse full-rectangle forecast with a Poisson catalog drawn from it."""
    rng = np.random.default_rng([seed % 2 ** 64, 2])
    n = DENSE_N
    iy, ix = np.mgrid[0:n, 0:n]
    shape = 1.0 + 0.5 * np.sin(2 * np.pi * (ix + 0.5) / n) \
        * np.cos(2 * np.pi * (iy + 0.5) / n)
    rates = shape.ravel() * rng.lognormal(0.0, 0.1, n * n)
    rates *= DENSE_TOTAL / rates.sum()
    pixels = np.arange(n * n)
    info = {"forecast_rows": n * n * DENSE_BINS, "active_pixels": n * n,
            "ptrs_pixels": int(np.sum(rates >= PTRS_CUTOFF)),
            "inversion_pixels": int(np.sum((rates > 0) & (rates < PTRS_CUTOFF))),
            "files": {}, "catalogs": {}}
    text, info["expected_count"] = _forecast_text(
        DENSE_LON_MIN, DENSE_LAT_MIN, n, DENSE_D, pixels,
        np.ones(n * n, int), rates, DENSE_BINS)
    path = os.path.join(out_dir, "forecast_dense.txt")
    info["forecast_bytes"] = _write(path, text)
    info["files"]["forecast_dense"] = path
    picked = np.repeat(pixels, rng.poisson(rates))
    lon, lat = _uniform_in_pixels(rng, picked, DENSE_LON_MIN, DENSE_LAT_MIN,
                                  n, DENSE_D)
    text, labels = _catalog_text(rng, lon, lat, 4.95, 5.95,
                                 DENSE_LON_MIN - 1.0, np.zeros((0, 2)))
    labels["pairs_at_rmax"] = _pairs_within(lon, lat, r_max)
    path = os.path.join(out_dir, "catalog_dense.csv")
    _write(path, text)
    info["files"]["catalog_dense"] = path
    info["catalogs"]["catalog_dense"] = labels
    return info
