"""Traced in-process replay of one workload, for the per-layer metrics.

Run as a fresh child process by run.py:

    python bench/tracing.py REQUEST.json

The request gives the workload's CLI argument lists, the seed, the
seconds to measure, the per-layer metric names and an output directory.  The child times ``import
quakeresid.cli``, then alternates an untraced and a traced replay of the
commands (``cli.main`` called in-process) until the requested seconds have
passed.  In a traced replay every layer function the CLI module calls is
wrapped by a span; these wrappers live in this file, not in the program.
After the commands, probes time single calls the CLI makes only inside
other functions (one simulation replicate, one envelope replicate, the pair
search and the edge correction on the workload's own pair set), and fill
in any layer the workload's commands do not call, so every per-layer
metric is measured on every workload.

Spans (name, start, end, parent, run id) stay in memory and are written to
``spans.json`` when the run ends; the metrics go to ``trace.json``.  The
tracing overhead is the pass's span count times the measured cost of a
wrapped no-op call; the traced minus untraced replay time is also recorded,
but on a noisy machine it is dominated by run-to-run variation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc

# Constants of the program and of fixtures.py, written out so that nothing
# here imports numpy before the timed import of the package.
PTRS_CUTOFF = 10.0      # pixel means at or above this take the PTRS sampler
ARC_SAMPLES = 360       # samples per circle in circle_fraction_mask
FILL_SIMS = 20          # replicates for N/L tests a workload does not run
ENVELOPE_PROBE_SIMS = 2

# CLI module attribute -> span name.  Spans around other CLI calls
# (integrate, lr_score, band formulas) count as command self time.
WRAPPED = {
    "parse_forecast": "forecasts.parse_forecast",
    "parse_catalog": "catalogs.parse_catalog",
    "filter_catalog": "catalogs.filter_catalog",
    "serialize_catalog": "catalogs.serialize_catalog",
    "aggregate": "intensity.aggregate",
    "simulate_catalog": "simulate.simulate_catalog",
    "n_test": "consistency.n_test",
    "l_test": "consistency.l_test",
    "pearson_residuals": "residuals.pearson",
    "deviance_residuals": "residuals.deviance",
    "residual_map_svg": "svg.residual_map",
    "k_curve_svg": "svg.k_curve",
    "point_map_svg": "svg.point_map",
    "weighted_k": "secondorder.weighted_k",
    "super_thin": "transforms.super_thin",
    "rescale": "transforms.rescale",
    "assess_homogeneity": "transforms.assess_homogeneity",
    "build_manifest": "manifest.build_manifest",
}

class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.run_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class Counts:
    """Work counts taken from the results of wrapped calls.  ``first`` keeps
    each span's first result: the workload's own forecast A, catalog and
    residual set, which probes reuse."""

    def __init__(self):
        self.values = {"forecasts.rows": 0, "consistency.replicates": 0,
                       "svg.bytes": 0}
        self.first = {}

    def record(self, span: str, result):
        repeat = span in self.first
        self.first.setdefault(span, result)
        v = self.values
        if span == "forecasts.parse_forecast":
            v["forecasts.rows"] += result.n_bins
        elif span == "catalogs.parse_catalog":
            v["catalogs.events_read"] = len(result)
        elif span == "catalogs.filter_catalog":
            v["catalogs.events_kept"] = len(result)
            for reason, n in result.dropped.items():
                v[f"catalogs.dropped_{reason}"] = n
        elif span == "intensity.aggregate" and not repeat:
            lam = result.active_rates() * result.grid.pixel_area
            v["intensity.active_pixels"] = int(result.grid.n_active)
            v["rng.ptrs_pixels"] = int((lam >= PTRS_CUTOFF).sum())
            v["rng.inversion_pixels"] = int(((lam > 0) & (lam < PTRS_CUTOFF)).sum())
        elif span in ("consistency.n_test", "consistency.l_test"):
            v["consistency.replicates"] += result.n_sims
        elif span in ("residuals.pearson", "residuals.deviance"):
            v.setdefault("residuals.rows", len(result.pixel_index))
        elif span.startswith("svg."):
            v["svg.bytes"] += len(result.encode("utf-8"))
        elif span in ("transforms.super_thin", "transforms.rescale"):
            # the first residual set is the workload's own, fills come later
            v.setdefault("transforms.residual_points", result.n_points)


def wrap(fn, span: str, tracer: Tracer, counts: Counts):
    """fn with a span around each call and its result counted."""
    def traced(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        counts.record(span, result)
        return result
    return traced


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds a wrapper adds to one call: the median over batches of a
    wrapped no-op call's time minus a bare one's."""
    noop = lambda: None
    costs = []
    for _ in range(batches):
        traced = wrap(noop, "noop", Tracer(), Counts())
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((t1 - t0 - (time.perf_counter() - t1)) / calls)
    return statistics.median(costs)


@contextlib.contextmanager
def _instrumented(cli, residuals, tracer: Tracer, counts: Counts):
    """Wrap the CLI module's layer functions (and residual CSV writing) in
    spans for the duration of the block."""
    saved = {}
    for attr, span in WRAPPED.items():
        if hasattr(cli, attr):
            saved[attr] = getattr(cli, attr)
            setattr(cli, attr, wrap(saved[attr], span, tracer, counts))
    to_csv = residuals.PixelResidualMap.to_csv
    residuals.PixelResidualMap.to_csv = wrap(to_csv, "residuals.to_csv",
                                             tracer, counts)
    try:
        yield
    finally:
        residuals.PixelResidualMap.to_csv = to_csv
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def _replay(cli, commands: list, out_dir: str, tracer=None) -> list[dict]:
    """Run each command through cli.main in-process, capturing stdout; with
    a tracer, each command is a top-level span."""
    results = []
    for i, cmd in enumerate(commands):
        inv_dir = os.path.join(out_dir, "%02d" % i)
        os.makedirs(inv_dir, exist_ok=True)
        argv = [a.replace("{out}", inv_dir) for a in cmd["argv"]]
        buf = io.StringIO()
        span = tracer.span("cmd:" + cmd["label"]) if tracer \
            else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
            except Exception:  # noqa: BLE001 - record it, keep replaying
                traceback.print_exc()
                code = 1
        results.append({"label": cmd["label"], "check": cmd["check"],
                        "dir": inv_dir, "exit": code,
                        "stdout": buf.getvalue()})
    return results


def _probes(q, tracer: Tracer, counts: Counts, seed: int, values: dict):
    """Single-call probes and fills for layers the commands did not call."""
    import numpy as np
    from quakeresid import secondorder

    first = counts.first
    from_commands = set(first)
    fld = first["intensity.aggregate"]
    catalog = first["catalogs.filter_catalog"]
    pts = catalog.points()
    radii = secondorder.default_radii()
    stream = lambda index: q.SeededStream(seed, index)

    def fill(span, fn, *args, **kwargs):
        if span in first:
            return first[span]
        with tracer.span(span):
            result = fn(*args, **kwargs)
        counts.record(span, result)
        return result

    with tracer.span("simulate.replicate"):
        q.simulated_counts(fld, stream(7).substream(0))
    with tracer.span("consistency.log_likelihood"):
        q.log_likelihood(fld, catalog)
    fill("consistency.n_test", q.n_test, fld, catalog, FILL_SIMS, stream(8))
    fill("consistency.l_test", q.l_test, fld, catalog, FILL_SIMS, stream(9))

    rmap = fill("residuals.pearson", q.pearson_residuals, fld, catalog)
    fill("residuals.deviance", q.deviance_residuals, fld,
         q.scale_window(fld, 0.9), catalog)
    fill("residuals.to_csv", rmap.to_csv)
    fill("svg.residual_map", q.residual_map_svg, rmap, "probe", events=pts)
    simulated = fill("simulate.simulate_catalog", q.simulate_catalog, fld,
                     stream(10))
    fill("catalogs.serialize_catalog", q.serialize_catalog, simulated)

    thinned = fill("transforms.super_thin", q.super_thin, catalog, fld,
                   stream(11))
    fill("transforms.rescale", q.rescale, catalog, fld)
    curve = fill("transforms.assess_homogeneity", q.assess_homogeneity,
                 thinned, radii)
    fill("secondorder.weighted_k", q.weighted_k, pts, fld, radii)
    fill("svg.k_curve", q.k_curve_svg, curve, "probe")
    # the residual set of the workload's own transform, else the filled one
    rset = first["transforms.rescale"] \
        if "transforms.rescale" in from_commands else thinned
    fill("svg.point_map", q.point_map_svg, rset, "probe")

    with tracer.span("secondorder.pairs_within"):
        ii, _, dd = q.pairs_within(pts, radii[-1])
    values["secondorder.pairs"] = len(dd)
    grid = fld.grid
    full = bool(grid.active_mask.all())
    tracemalloc.start()
    with tracer.span("secondorder.edge_correction"):
        if full:
            secondorder.circle_fraction_rect(
                pts[ii, 0], pts[ii, 1], dd, grid.lon_min, grid.lon_max,
                grid.lat_min, grid.lat_max)
        else:
            secondorder.circle_fraction_mask(pts[ii, 0], pts[ii, 1], dd, grid)
    values["secondorder.edge_correction_peak_mb"] = \
        tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    values["secondorder.arc_samples"] = 0 if full else len(dd) * 2 * ARC_SAMPLES

    region, rate = rset.region, rset.null_rate
    with tracer.span("secondorder.envelope_replicate"):
        xs, ys = q.simulate_homogeneous(region, rate, stream(12).substream(0))
        if len(xs) >= 2:
            q.ripley_k(np.column_stack([xs, ys]), region, radii)
    with tracer.span("secondorder.envelope_bands"):
        q.envelope_bands(region, rate, radii, ENVELOPE_PROBE_SIMS, stream(13))
    with tracer.span("regions.sample"):
        region.sample(stream(14).generator(), rset.n_points)
    x0, x1, y0, y1 = region.bbox
    values["regions.acceptance_ratio"] = region.area / ((x1 - x0) * (y1 - y0))


def main(argv) -> int:
    started = time.perf_counter()
    with open(argv[0], encoding="utf-8") as fh:
        request = json.load(fh)
    out_dir, seed = request["out_dir"], request["seed"]
    deadline = started + request["seconds"]

    tracer = Tracer()
    tracer.run_id = "import"
    with tracer.span("cli.import") as import_span:
        import quakeresid as q
        from quakeresid import cli, residuals
    import_s = import_span["end"] - import_span["start"]

    passes, replays, differences = [], [], []
    while not passes or time.perf_counter() < deadline:
        k = len(passes)
        tracer.run_id = f"{request['run_id']}-pass{k}"
        first = len(tracer.spans)
        with tracer.span("untraced") as untraced:
            twins = _replay(cli, request["commands"],
                            os.path.join(out_dir, f"u{k}"))
        counts, values = Counts(), {}
        t0 = time.perf_counter()
        with _instrumented(cli, residuals, tracer, counts):
            traced = _replay(cli, request["commands"],
                             os.path.join(out_dir, f"t{k}"), tracer)
        differences.append(time.perf_counter() - t0
                           - (untraced["end"] - untraced["start"]))
        with tracer.span("probes"):
            _probes(q, tracer, counts, seed, values)
        replays.extend(dict(t, twin=u) for t, u in zip(traced, twins))
        passes.append((first, len(tracer.spans), counts, values))
    wall = time.perf_counter() - started

    # Harness time outside every top-level span (reading the request,
    # looping) lowers the share; wrapper cost is inside the spans.
    top = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
    cost = span_cost()
    own = tracer.self_times()
    per_pass = []
    for first, last, counts, values in passes:
        sums = {}
        for s, t in zip(tracer.spans[first:last], own[first:last]):
            sums[s["name"]] = sums.get(s["name"], 0.0) + t
        # a metric named <span>_s is the summed self time of that span
        m = {name: sums.get(name[:-2], 0.0)
             for name in request["metrics"] if name.endswith("_s")}
        m.update(counts.values)
        m.update(values)
        m["cli.import_s"] = import_s
        m["forecasts.rows_per_s"] = \
            m["forecasts.rows"] / m["forecasts.parse_forecast_s"]
        m["trace.overhead_s"] = (last - first) * cost
        per_pass.append(m)
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
               for name in request["metrics"]}
    metrics["trace.wall_s"] = wall
    metrics["trace.top_level_share"] = top / wall

    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump([dict(s, self=t) for s, t in zip(tracer.spans, own)], fh)
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "passes": len(passes),
                   "span_cost_s": cost,
                   "traced_minus_untraced_s": differences,
                   "commands": replays}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
