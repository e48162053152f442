"""Output checks for one CLI invocation.

Each check reads the files an invocation wrote (and its captured standard
output) and returns a list of problems; an empty list means the outputs
are correct.  Expected values come from the fixture description, never
from pinned digests, so a sampler change that legitimately changes draws
does not fail a check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

N_RADII = 70                      # CLI defaults: --rmax 0.7 --dr 0.01
RADII = np.linspace(0.01, 0.7, N_RADII)


def _rows(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def _svg(path: str) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{os.path.basename(path)}: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{os.path.basename(path)}: root element is {root.tag}"]
    return []


def _manifest(out_path: str, command: str) -> list[str]:
    try:
        with open(out_path + ".manifest.json", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest: {exc}"]
    if record.get("command") != command:
        return [f"manifest: command {record.get('command')!r} != {command!r}"]
    return []


def _score(path: str, test: str, method: str, n_sims: int) -> tuple[dict, list]:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    problems = []
    if record.get("test") != test or record.get("method") != method:
        problems.append(f"score: test/method {record.get('test')}/"
                        f"{record.get('method')}")
    value = record.get("value")
    if not (isinstance(value, float | int) and 0.0 <= value <= 1.0):
        problems.append(f"score: value {value!r} outside [0, 1]")
    if record.get("n_sims") != n_sims:
        problems.append(f"score: n_sims {record.get('n_sims')} != {n_sims}")
    elif n_sims and abs(value * n_sims - round(value * n_sims)) > 1e-9:
        problems.append(f"score: {value} is not a count out of {n_sims}")
    return record, problems + _manifest(path, test)


def _curve(path: str) -> list[str]:
    header, rows = _rows(path)
    if header != ["r", "k", "centered_l", "lower", "upper", "kind"]:
        return [f"K curve: header {header}"]
    if len(rows) != N_RADII:
        return [f"K curve: {len(rows)} rows, expected {N_RADII} radii"]
    cols = list(zip(*rows))
    numeric = [_floats(c) for c in cols[:5]]
    problems = []
    if not all(np.all(np.isfinite(c)) for c in numeric):
        problems.append("K curve: non-finite values")
    if np.any(np.abs(numeric[0] - RADII) > 1e-9):
        problems.append("K curve: radii differ from the requested grid")
    if np.any(numeric[1] < 0):
        problems.append("K curve: negative K")
    return problems


def _points(path: str, transform: str) -> tuple[list, list[str]]:
    header, rows = _rows(path)
    if header != ["x", "y", "label", "transform", "seed"]:
        return rows, [f"points: header {header}"]
    problems = []
    if any(r[2] not in ("retained", "simulated") or r[3] != transform
           for r in rows):
        problems.append("points: bad label or transform column")
    if rows and not np.all(np.isfinite(_floats(r[0] for r in rows))):
        problems.append("points: non-finite coordinates")
    return rows, problems


def _residuals(path: str, active_pixels: int) -> tuple[np.ndarray, list[str]]:
    header, rows = _rows(path)
    if header != ["pixel_index", "lon_center", "lat_center", "value", "flag"]:
        return np.zeros(0), [f"residuals: header {header}"]
    if len(rows) != active_pixels:
        return np.zeros(0), [f"residuals: {len(rows)} rows for "
                             f"{active_pixels} active pixels"]
    if any(r[4] != "ok" for r in rows):
        return np.zeros(0), ["residuals: flagged pixels in a fixture with "
                             "positive rates everywhere"]
    values = _floats(r[3] for r in rows)
    if not np.all(np.isfinite(values)):
        return values, ["residuals: non-finite values"]
    return values, []


def check(name: str, out_dir: str, stdout: str, expect: dict) -> list[str]:
    """Problems found in the outputs of one invocation of check `name`."""
    path = lambda f: os.path.join(out_dir, f)
    try:
        return _CHECKS[name](path, stdout, expect)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{name}: {type(exc).__name__}: {exc}"]


def _ntest_analytic(path, stdout, expect):
    from scipy import stats
    record, problems = _score(path("score.json"), "ntest", "analytic", 0)
    n_obs, total = record["observed_stat"], record["expected_count"]
    if n_obs != expect["events_kept"]:
        problems.append(f"ntest: observed {n_obs} != {expect['events_kept']} "
                        "clean events")
    if abs(total - expect["expected_count"]) > 1e-9 * expect["expected_count"]:
        problems.append(f"ntest: expected count {total} != "
                        f"{expect['expected_count']}")
    reference = float(stats.poisson.cdf(n_obs - 1, total))
    if abs(record["value"] - reference) > 1e-12:
        problems.append(f"ntest: analytic {record['value']!r} != "
                        f"poisson.cdf {reference!r}")
    return problems


def _ntest_sims(path, stdout, expect):
    record, problems = _score(path("score.json"), "ntest", "simulation",
                              expect["sims"])
    if record["observed_stat"] != expect["events_kept"]:
        problems.append(f"ntest: observed {record['observed_stat']} != "
                        f"{expect['events_kept']} clean events")
    return problems


def _ltest_sims(path, stdout, expect):
    record, problems = _score(path("score.json"), "ltest", "simulation",
                              expect["sims"])
    ell = record["observed_stat"]
    if not (math.isfinite(ell) and ell <= 0.0):
        problems.append(f"ltest: log-likelihood {ell!r} is not finite and <= 0")
    return problems


def _resid_pearson(path, stdout, expect):
    _, problems = _residuals(path("resid.csv"), expect["active_pixels"])
    return problems + _svg(path("resid.svg")) + _manifest(path("resid.csv"),
                                                          "resid")


def _resid_deviance(path, stdout, expect):
    values, problems = _residuals(path("resid.csv"), expect["active_pixels"])
    footer = json.loads(stdout.strip().splitlines()[-1])
    if not footer.get("lr_score_defined"):
        problems.append("deviance: lr_score undefined")
    elif problems == []:
        gap = abs(values.sum() - footer["lr_score"])
        if gap > 1e-9 * (1.0 + np.abs(values).sum()):
            problems.append(f"deviance: column sums to {values.sum()!r}, "
                            f"lr_score {footer['lr_score']!r}")
    return problems + _manifest(path("resid.csv"), "resid")


def _k_weighted(path, stdout, expect):
    return (_curve(path("k.csv")) + _svg(path("k.svg"))
            + _manifest(path("k.csv"), "k"))


def _transform_superthin(path, stdout, expect):
    rows, problems = _points(path("points.csv"), "superthin")
    if len(rows) < 2:
        problems.append(f"superthin: {len(rows)} residual points")
    return (problems + _curve(path("points_assess.csv"))
            + _svg(path("points.svg")) + _svg(path("points_assess.svg"))
            + _manifest(path("points.csv"), "transform"))


def _transform_rescale(path, stdout, expect):
    rows, problems = _points(path("points.csv"), "rescale")
    if len(rows) != expect["events_kept"]:
        problems.append(f"rescale: {len(rows)} points for "
                        f"{expect['events_kept']} events")
    with open(path("points_region.csv"), encoding="utf-8") as fh:
        area = float(fh.read().strip().splitlines()[-1].split(",")[1])
    if abs(area - expect["expected_count"]) > 1e-6 * expect["expected_count"]:
        problems.append(f"rescale: region area {area} != expected count "
                        f"{expect['expected_count']}")
    return (problems + _curve(path("points_assess.csv"))
            + _manifest(path("points.csv"), "transform"))


def _simulate(path, stdout, expect):
    from quakeresid import QuakeResidError, parse_catalog
    with open(path("simulated.csv"), encoding="utf-8") as fh:
        text = fh.read()
    n_rows = text.count("\n") - 1
    problems = _manifest(path("simulated.csv"), "simulate")
    try:
        n_parsed = len(parse_catalog(text))
    except QuakeResidError as exc:
        return problems + [f"simulate: output does not parse: {exc}"]
    if n_parsed != n_rows or n_rows < 1:
        problems.append(f"simulate: parsed {n_parsed} of {n_rows} rows")
    return problems


_CHECKS = {
    "ntest_analytic": _ntest_analytic,
    "ntest_sims": _ntest_sims,
    "ltest_sims": _ltest_sims,
    "resid_pearson": _resid_pearson,
    "resid_deviance": _resid_deviance,
    "k_weighted": _k_weighted,
    "transform_superthin": _transform_superthin,
    "transform_rescale": _transform_rescale,
    "simulate": _simulate,
}


def output_digest(out_dir: str, stdout: str) -> str:
    """Digest of an invocation's data outputs and standard output; manifest
    sidecars carry a timestamp and are left out."""
    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".manifest.json") or name in ("stdout.txt", "stderr.txt"):
            continue
        h.update(name.encode("utf-8"))
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
