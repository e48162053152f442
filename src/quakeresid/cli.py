"""Command-line interface: run any diagnostic from files, emit CSV/JSON,
render SVG figures.

Exit codes: 0 success, 2 usage error, 3 data or validation error.  Every
command is a pure function of (input files, flags, seed); outputs written
with --out get a manifest sidecar at <out>.manifest.json.  Every command
writes all of its outputs or none, and stdout comes last.  Parsed forecast
rows are cached per user, keyed by the sha256 of the file's bytes (see
parse_forecast); the cache never changes an output.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import shutil
import stat
import sys

import numpy as np

from .catalogs import filter_catalog, parse_catalog, serialize_catalog
from .consistency import l_test, log_likelihood, n_test
from .errors import QuakeResidError, ValidationError, check_finite_positive
from .forecasts import Forecast, build_forecast, decode_utf8, read_rows
from .intensity import aggregate, integrate, scale_window
from .manifest import TOOLKIT_VERSION, build_manifest
from .residuals import (deviance_residuals, lr_score, pearson_residuals,
                        raw_residuals)
from .rng import SeededStream
from .secondorder import (DEFAULT_R_MAX, DEFAULT_R_STEP, default_radii,
                          k_with_bands, ripley_k)
from .simulate import simulate_catalog
from .svg import k_curve_svg, point_map_svg, residual_map_svg
from .transforms import (assess_homogeneity, rescale, super_thin, superpose,
                         thin_approx, thin_exact)

DEFAULT_MAG_MIN = 3.95
DEFAULT_DEPTH_MAX = 30.0
DEFAULT_SIMS = 1000
# Largest total size of the forecast row cache; the least recently used
# entries go first.  A RELM forecast's rows take about 26 MB.
CACHE_MAX_BYTES = 256 * 2 ** 20

# argparse destinations that are not run parameters: file paths and the
# seed have their own manifest fields, and run is the subcommand's function
_NOT_PARAMETERS = {"command", "seed", "forecast", "forecast_a", "forecast_b",
                   "catalog", "out", "svg", "run"}
_REMOVE = object()  # an output text: remove the file its path names


def _read_bytes(path: str) -> tuple[bytes, str]:
    """A file's bytes and their sha256 digest."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def _read(path: str) -> tuple[str, str]:
    """A catalog's text, newlines translated as text-mode open does, and the
    sha256 digest of its bytes."""
    data, digest = _read_bytes(path)
    text = decode_utf8(data)
    return text.replace("\r\n", "\n").replace("\r", "\n"), digest


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "quakeresid")


def _cached_rows(path: str):
    """The (n, 10) float64 rows stored at path, or None; a hit is touched,
    so eviction finds the least recently used entries by mtime."""
    try:
        rows = np.load(path, allow_pickle=False)
        os.utime(path)
    except (OSError, ValueError, EOFError):
        return None
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != 10:
        return None
    return rows


def _store_rows(path: str, rows) -> None:
    """Write rows to path column-major, one column at a time, through a
    temporary file, then evict the least recently used entries until the
    cache is within CACHE_MAX_BYTES.  Rows larger than the whole cache are
    not stored."""
    if rows.nbytes > CACHE_MAX_BYTES:
        return
    directory = os.path.dirname(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": "<f8", "fortran_order": True,
                    "shape": rows.shape})
                for column in rows.T:
                    fh.write(np.ascontiguousarray(column, "<f8"))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        entries = sorted((e.stat().st_mtime, e.stat().st_size, e.path)
                         for e in os.scandir(directory) if e.is_file())
        total = sum(size for _, size, _ in entries)
        for _, size, entry in entries:
            if total <= CACHE_MAX_BYTES:
                break
            os.remove(entry)
            total -= size
    except OSError:
        pass


def parse_forecast(data: bytes, digest: str) -> Forecast:
    """forecasts.parse_forecast(data), its rows loaded from the cache entry
    of digest when one holds them.

    An entry stores the rows column-major, so each column build_forecast
    checks is contiguous on a hit.  A hit holds the same bits as a fresh
    read, and every check runs on it again; an entry that fails one is a
    miss, so a fault is only ever reported against the file's own lines
    and the entry is rewritten.  Only rows that pass the checks are stored.
    Any OSError on the cache path leaves the parse as it would be without a
    cache.  This keeps the library function's name, so per-layer timing
    that wraps the CLI's parse_forecast (bench/tracing.py) times the cached
    parse.
    """
    path = os.path.join(_cache_dir(), f"cols-{TOOLKIT_VERSION}-{digest}.npy")
    rows = _cached_rows(path)
    if rows is not None:
        try:
            return build_forecast(rows, data)
        except QuakeResidError:
            pass
    rows = read_rows(data)
    forecast = build_forecast(rows, data)
    _store_rows(path, rows)
    return forecast


def _load_forecast(path: str) -> tuple[Forecast, str]:
    """The forecast in a file and the sha256 digest of the bytes parsed."""
    data, digest = _read_bytes(path)
    return parse_forecast(data, digest), digest


def _write_outputs(outputs) -> None:
    """Write a command's outputs, all of them or none.

    outputs is an ordered list of (path, text): a path of None is stdout,
    a text of None is a directory to make with its missing parents, and
    _REMOVE a file to remove, if there is one, once the others are in place.
    Each file is written to <file>.<pid>.tmp beside the file its path
    names, takes the mode of the file it replaces, and the temporary files
    are moved into place only once every one is written; a target that is
    an existing directory is refused before that.  A failure removes the
    temporary files and any directory made here, and names the target the
    user gave.  A path that names an existing device or pipe (/dev/null, a
    FIFO) cannot be staged, so it is written in place after the files are
    moved, as stdout is; stdout is written last.
    """
    # keyed by the file each path names, so a symlink is written through and
    # a later output to the same file replaces an earlier one
    files, streams, stale = {}, [], []
    for path, text in outputs:
        if path is None or text is None:
            continue
        if text is _REMOVE:
            stale.append(path)
        elif os.path.exists(path) and not os.path.isfile(path) \
                and not os.path.isdir(path):
            streams.append((path, text))
        else:
            files[os.path.realpath(path)] = (path, text)
    made, staged, target = None, [], None
    try:
        for path, text in outputs:
            if text is None:
                top = os.path.abspath(path)
                while not os.path.lexists(os.path.dirname(top)):
                    top = os.path.dirname(top)
                if not os.path.lexists(top):
                    made = top
                os.makedirs(path, exist_ok=True)
        for real, (target, _) in files.items():
            if os.path.isdir(real):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR), target)
        for real, (target, text) in files.items():
            staged.append(f"{real}.{os.getpid()}.tmp")
            with open(staged[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
            if os.path.isfile(real):
                os.chmod(staged[-1], stat.S_IMODE(os.stat(real).st_mode))
        for (real, (target, _)), tmp in zip(files.items(), staged):
            os.replace(tmp, real)
        for target in filter(os.path.isfile, stale):
            os.remove(target)
    except BaseException as exc:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        if isinstance(exc, OSError) and target is not None:
            raise type(exc)(exc.errno, exc.strerror, target) from None
        raise
    for path, text in streams:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)


def _manifest(args, inputs, seed):
    """Run manifest of inputs, a path -> digest of the bytes parsed map;
    every parsed flag but paths and the seed is a parameter."""
    parameters = {k: v for k, v in vars(args).items()
                  if k not in _NOT_PARAMETERS}
    return build_manifest(args.command, inputs, seed, parameters)


def _sidecar(args, inputs, seed) -> list:
    """The --out manifest sidecar as an output list; empty without --out."""
    if args.out is None:
        return []
    return [(str(args.out) + ".manifest.json",
             _manifest(args, inputs, seed).to_json())]


def _derived_path(path, suffix: str, default_ext: str = ".csv"):
    """path with suffix before its extension; None (stdout) stays None."""
    if path is None:
        return None
    stem, ext = os.path.splitext(path)
    return stem + suffix + (ext or default_ext)


def _intensity(forecast, args):
    """Aggregated field above --mag-min, scaled by --window-fraction."""
    fld = aggregate(forecast, args.mag_min)
    if args.window_fraction != 1.0:
        fld = scale_window(fld, args.window_fraction)
    return fld


def _load_pair(args, forecast_path=None):
    """Forecast + filtered catalog + aggregated intensity field, and the
    path -> digest map of the two files."""
    forecast_path = forecast_path or args.forecast
    forecast, forecast_digest = _load_forecast(forecast_path)
    text, catalog_digest = _read(args.catalog)
    catalog = filter_catalog(parse_catalog(text), forecast, args.mag_min,
                             args.depth_max)
    inputs = {forecast_path: forecast_digest, args.catalog: catalog_digest}
    return forecast, catalog, _intensity(forecast, args), inputs


def _score_json(name: str, score, extra=None) -> str:
    record = {"test": name, **score.to_record(), **(extra or {})}
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _common_flags(sub, out_required=False):
    sub.add_argument("--catalog", required=True)
    sub.add_argument("--mag-min", type=float, default=DEFAULT_MAG_MIN)
    sub.add_argument("--depth-max", type=float, default=DEFAULT_DEPTH_MAX)
    sub.add_argument("--window-fraction", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, required=out_required)


def _k_flags(sub):
    sub.add_argument("--rmax", type=float, default=DEFAULT_R_MAX)
    sub.add_argument("--dr", type=float, default=DEFAULT_R_STEP)
    sub.add_argument("--edge", choices=("none", "isotropic"), default="none")


def cmd_ntest(args) -> list:
    _, catalog, fld, inputs = _load_pair(args)
    if args.analytic:
        score = n_test(fld, catalog, method="analytic")
    else:
        score = n_test(fld, catalog, args.sims, SeededStream(args.seed, 0))
    text = _score_json("ntest", score, {"expected_count": integrate(fld)})
    return [(args.out, text)] + _sidecar(args, inputs, args.seed)


def cmd_ltest(args) -> list:
    _, catalog, fld, inputs = _load_pair(args)
    score = l_test(fld, catalog, args.sims, SeededStream(args.seed, 0))
    text = _score_json("ltest", score)
    return [(args.out, text)] + _sidecar(args, inputs, args.seed)


def cmd_resid(args) -> list:
    if args.kind == "deviance":
        _, catalog, fld_a, inputs = _load_pair(args, args.forecast_a)
        forecast_b, inputs[args.forecast_b] = _load_forecast(args.forecast_b)
        fld_b = _intensity(forecast_b, args)
        rmap = deviance_residuals(fld_a, fld_b, catalog)
        try:
            footer = {"lr_score": lr_score(rmap), "lr_score_defined": True}
        except QuakeResidError:
            footer = {"lr_score": None, "lr_score_defined": False}
    else:
        _, catalog, fld, inputs = _load_pair(args)
        rmap = raw_residuals(fld, catalog) if args.kind == "raw" \
            else pearson_residuals(fld, catalog)
        footer = None
    outputs = [(args.out, rmap.to_csv())]
    if footer is not None:
        outputs.append((None, json.dumps(footer, sort_keys=True) + "\n"))
    if args.svg:
        outputs.append((args.svg, residual_map_svg(
            rmap, f"{args.kind} residuals", events=catalog.points())))
    return outputs + _sidecar(args, inputs, None)


def cmd_k(args) -> list:
    radii = default_radii(args.rmax, args.dr)
    _, catalog, fld, inputs = _load_pair(args)
    pts = catalog.points()
    if args.weighted:
        curve = k_with_bands(pts, fld, radii, args.edge)
        title = "weighted K (centered L)"
    else:
        curve = ripley_k(pts, fld.grid, radii, args.edge)
        title = "Ripley K (centered L)"
    outputs = [(args.out, curve.to_csv())]
    if args.svg:
        outputs.append((args.svg, k_curve_svg(curve, title)))
    return outputs + _sidecar(args, inputs, None)


def _region_csv(region) -> str:
    inner = getattr(region, "inner", region)
    lines = ["band_lo,band_hi,interval_length"]
    for lo, hi, t in zip(inner.y_edges[:-1], inner.y_edges[1:],
                         inner.t_of_row):
        lines.append("%.12g,%.12g,%.12g" % (lo, hi, t))
    lines.append("# total_area,%.12g" % region.area)
    return "\n".join(lines) + "\n"


def cmd_transform(args) -> list:
    radii = default_radii(args.rmax, args.dr) if args.assess else None
    _, catalog, fld, inputs = _load_pair(args)
    stream = SeededStream(args.seed, 0)
    if args.kind == "rescale":
        rset = rescale(catalog, fld, args.axis)
    elif args.kind == "thin":
        rset = thin_exact(catalog, fld, stream)
    elif args.kind == "thin-approx":
        rset = thin_approx(catalog, fld, args.k_count, stream)
    elif args.kind == "superpose":
        rset = superpose(catalog, fld, stream)
    else:
        rset = super_thin(catalog, fld, stream, args.k_rate)
    outputs = [(args.out, rset.to_csv())]
    if args.kind == "rescale":
        outputs.append((_derived_path(args.out, "_region"),
                        _region_csv(rset.region)))
    if args.svg:
        outputs.append((args.svg,
                        point_map_svg(rset, f"{args.kind} residuals")))
    if args.assess:
        curve = assess_homogeneity(
            rset, radii, n_sims=args.sims, stream=SeededStream(args.seed, 1),
            edge_correction=args.edge)
        outputs.append((_derived_path(args.out, "_assess"), curve.to_csv()))
        if args.svg:
            outputs.append((
                _derived_path(args.svg, "_assess", ".svg"),
                k_curve_svg(curve, f"{args.kind} homogeneity assessment")))
    return outputs + _sidecar(args, inputs, args.seed)


def cmd_simulate(args) -> list:
    forecast, digest = _load_forecast(args.forecast)
    fld = _intensity(forecast, args)
    catalog = simulate_catalog(fld, SeededStream(args.seed, 0),
                               magnitude=args.mag_min)
    text = serialize_catalog(catalog)
    return [(args.out, text)] + _sidecar(args, {args.forecast: digest},
                                         args.seed)


def cmd_report(args) -> list:
    radii = default_radii(args.rmax, args.dr)
    _, catalog, fld, inputs = _load_pair(args)

    n_score = n_test(fld, catalog, args.sims, SeededStream(args.seed, 0))
    l_score = l_test(fld, catalog, args.sims, SeededStream(args.seed, 1))
    summary = {
        "ntest": n_score.to_record(),
        "ltest": l_score.to_record(),
        "expected_count": integrate(fld),
        "observed_count": len(catalog),
        "log_likelihood": log_likelihood(fld, catalog),
    }
    # an earlier run's optional file goes if this run does not write it
    files = {stem + ext: _REMOVE for stem in ("weighted_k", "superthin_assess")
             for ext in (".csv", ".svg")}
    files["scores.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    events = catalog.points()
    raw = raw_residuals(fld, catalog)
    pear = pearson_residuals(fld, catalog)
    files["residuals_raw.csv"] = raw.to_csv()
    files["residuals_pearson.csv"] = pear.to_csv()
    files["residuals_raw.svg"] = residual_map_svg(raw, "raw residuals",
                                                  events=events)
    files["residuals_pearson.svg"] = residual_map_svg(
        pear, "pearson residuals", events=events)

    if len(catalog) >= 2:
        curve = k_with_bands(events, fld, radii, args.edge)
        files["weighted_k.csv"] = curve.to_csv()
        files["weighted_k.svg"] = k_curve_svg(curve,
                                              "weighted K (centered L)")

    rset = super_thin(catalog, fld, SeededStream(args.seed, 2), args.k_rate)
    files["superthin.csv"] = rset.to_csv()
    files["superthin.svg"] = point_map_svg(rset, "superthin residuals")
    if rset.n_points >= 2:
        assess = assess_homogeneity(rset, radii, edge_correction=args.edge)
        files["superthin_assess.csv"] = assess.to_csv()
        files["superthin_assess.svg"] = k_curve_svg(
            assess, "superthin homogeneity assessment")
    files["manifest.json"] = _manifest(args, inputs, args.seed).to_json()
    return [(args.out, None)] + [(os.path.join(args.out, name), text)
                                 for name, text in files.items()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quakeresid",
        description="Grid-forecast diagnostics: consistency tests, pixel "
                    "residuals, second-order statistics, residual point "
                    "processes.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ntest", help="number test (delta quantile)")
    p.add_argument("--forecast", required=True)
    _common_flags(p)
    p.add_argument("--sims", type=int, default=DEFAULT_SIMS)
    p.add_argument("--analytic", action="store_true")
    p.set_defaults(run=cmd_ntest)

    p = subs.add_parser("ltest", help="likelihood test (gamma quantile)")
    p.add_argument("--forecast", required=True)
    _common_flags(p)
    p.add_argument("--sims", type=int, default=DEFAULT_SIMS)
    p.set_defaults(run=cmd_ltest)

    p = subs.add_parser("resid", help="per-pixel residual maps")
    p.add_argument("--forecast", default=None)
    p.add_argument("--forecast-a", default=None)
    p.add_argument("--forecast-b", default=None)
    _common_flags(p)
    p.add_argument("--kind", choices=("raw", "pearson", "deviance"),
                   required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=cmd_resid)

    p = subs.add_parser("k", help="second-order K statistics")
    p.add_argument("--forecast", required=True)
    _common_flags(p)
    p.add_argument("--weighted", action="store_true")
    _k_flags(p)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=cmd_k)

    p = subs.add_parser("transform", help="residual point processes")
    p.add_argument("--forecast", required=True)
    _common_flags(p)
    p.add_argument("--kind", required=True,
                   choices=("rescale", "thin", "thin-approx", "superpose",
                            "superthin"))
    p.add_argument("--axis", choices=("horizontal", "vertical"),
                   default="horizontal")
    p.add_argument("--k-count", type=float, default=None)
    p.add_argument("--k-rate", type=float, default=None)
    p.add_argument("--assess", action="store_true")
    p.add_argument("--sims", type=int, default=DEFAULT_SIMS)
    _k_flags(p)
    p.add_argument("--svg", default=None)
    p.set_defaults(run=cmd_transform)

    p = subs.add_parser("simulate", help="draw a synthetic catalog")
    p.add_argument("--forecast", required=True)
    p.add_argument("--mag-min", type=float, default=DEFAULT_MAG_MIN)
    p.add_argument("--window-fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_simulate)

    p = subs.add_parser("report", help="full diagnostic suite into one "
                                       "directory")
    p.add_argument("--forecast", required=True)
    _common_flags(p, out_required=True)
    p.add_argument("--sims", type=int, default=DEFAULT_SIMS)
    p.add_argument("--k-rate", type=float, default=None)
    _k_flags(p)
    p.set_defaults(run=cmd_report)

    return parser


def _check_args(args, parser) -> None:
    """Every check of the flags alone, run before any input is read (the
    library checks the envelope's size itself).  A usage error exits 2
    through parser.error; a bad value raises ValidationError (exit 3)."""
    command, kind = args.command, getattr(args, "kind", None)
    if command == "resid":
        if kind == "deviance" and not (args.forecast_a and args.forecast_b):
            parser.error("--kind deviance requires --forecast-a and "
                         "--forecast-b")
        if kind != "deviance" and not args.forecast:
            parser.error(f"--kind {kind} requires --forecast")
    if command == "transform":
        if kind == "thin-approx" and args.k_count is None:
            parser.error("--kind thin-approx requires --k-count")
    for name in ("k_count", "k_rate"):
        if getattr(args, name, None) is not None:
            check_finite_positive(name, getattr(args, name))
    for name in ("mag_min", "depth_max"):
        if math.isnan(getattr(args, name, 0.0)):
            raise ValidationError(f"--{name.replace('_', '-')} must be a "
                                  "number, not nan")
    if not 0.0 < args.window_fraction <= 1.0:
        raise ValidationError("--window-fraction must be in (0, 1]")
    if command in ("ntest", "ltest", "report") and args.sims < 1 \
            and not getattr(args, "analytic", False):
        raise ValidationError("--sims must be at least 1")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args, parser)
        _write_outputs(args.run(args))
    except QuakeResidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
