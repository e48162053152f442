"""Offline benchmark of the quakeresid command-line tool.

    python3 bench/run.py --workload relm-tests --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository; it runs the program from
``src/`` and writes only under ``bench/work/``.  It generates the
workload's inputs from the seed, then:

* ``--trace 0``: runs the workload's CLI commands as one closed-loop
  client, each command in a fresh Python process, cycling through them
  until the commands' summed wall time reaches ``--seconds`` and at least
  one full pass is done.  Three set-up runs (a fresh process that imports
  the package and loads the forecast and catalog, then stops) are spread
  over the first pass.  Prints the end-to-end metrics.
* ``--trace 1``: runs ``tracing.py`` in a fresh process, which replays the
  same commands in-process with spans around each layer call, and prints
  the per-layer metrics.

Either way every output is checked (checks.py); an invocation fails on a
nonzero exit, a failed check, or output that differs from an earlier
invocation of the same command (a traced run replays each command twice,
untraced and traced, so its outputs are always compared).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with every sample and the spans of a traced run, goes to
``bench/work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import fixtures
from workloads import SIMS, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")
SETUP_RUNS = 3
STOP_STARTING_S = 140   # start no command after this much of a run
HARD_LIMIT_S = 170      # kill whatever still runs at this point

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

SETUP_CODE = """\
import sys
import quakeresid.cli
from quakeresid import aggregate, filter_catalog, parse_catalog, parse_forecast
with open(sys.argv[1], encoding="utf-8") as fh:
    forecast = parse_forecast(fh.read())
with open(sys.argv[2], encoding="utf-8") as fh:
    catalog = parse_catalog(fh.read())
filter_catalog(catalog, forecast, float(sys.argv[3]), float(sys.argv[4]))
aggregate(forecast, float(sys.argv[3]))
"""


def child_env() -> dict:
    """The caller's environment with the source tree importable and library
    thread pools capped at the number of usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    return env


class Runner:
    """Starts one child process at a time and reaps it with its own rusage."""

    def __init__(self, env: dict, started: float):
        self.env = env
        self.started = started

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, argv: list, log_dir: str) -> dict:
        """Wall time, exit code and peak RSS (MB) of one child; its stdout
        and stderr go to files in log_dir."""
        os.makedirs(log_dir, exist_ok=True)
        limit = max(1.0, HARD_LIMIT_S - self.elapsed())
        with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(log_dir, "stderr.txt"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(os.path.join(log_dir, "stdout.txt"), encoding="utf-8",
                  errors="replace") as fh:
            stdout = fh.read()
        return {"wall_s": wall, "exit": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout,
                "dir": log_dir}


def tail_percentile(values: list) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 11
    return math.floor(100.0 * (rank + 1) / n), sorted(values)[rank]


def _describe(name: str, values: list, unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = ("p%d %.4f %s" % (tail[0], tail[1], unit)) if tail else \
        "no percentile has ten samples above it"
    return "%-12s median %.4f %s  (n=%d; %s)" % (
        name, statistics.median(values), unit, len(values), tail_text)


def _check_invocations(invocations: list, expect: dict) -> list[str]:
    """Check each invocation's outputs, and that repeats of one command
    wrote identical bytes; marks failed invocations in place."""
    problems, first_digest = [], {}
    for inv in invocations:
        found = [] if inv["exit"] == 0 else [f"exit status {inv['exit']}"]
        if not found:
            found = checks.check(inv["check"], inv["dir"], inv["stdout"],
                                 expect)
        if not found:
            digest = checks.output_digest(inv["dir"], inv["stdout"])
            label = inv["label"]
            inv["repeat_checked"] = label in first_digest
            if first_digest.setdefault(label, digest) != digest:
                found = ["outputs differ from the command's first run"]
        inv["problems"] = found
        problems.extend(f"{inv['label']}: {p}" for p in found)
    return problems


def closed_loop(workload, fixture: dict, seed: int, seconds: float,
                runner: Runner, run_dir: str) -> dict:
    """The workload's commands as one closed-loop client, with the set-up
    runs spread over the first pass so they sample the machine at
    different times.  Only command time counts toward ``seconds``."""
    files = fixture["files"]
    setup_argv = [sys.executable, "-c", SETUP_CODE, files[workload.forecast],
                  files[workload.catalog], str(fixtures.MAG_MIN),
                  str(fixtures.DEPTH_MAX)]
    commands = workload.commands
    setup_before = [k * len(commands) // SETUP_RUNS for k in range(SETUP_RUNS)]
    setups, invocations, spent = [], [], 0.0
    while (len(invocations) < len(commands) or spent < seconds) \
            and runner.elapsed() < STOP_STARTING_S:
        i = len(invocations)
        for _ in range(setup_before.count(i)):
            setups.append(runner.run(setup_argv, os.path.join(run_dir, "setup")))
        cmd = commands[i % len(commands)]
        out_dir = os.path.join(run_dir, "out", "%03d" % i)
        argv = [sys.executable, "-m", "quakeresid.cli"] + \
            cmd.argv(files, out_dir, seed)
        inv = runner.run(argv, out_dir)
        inv.update(label=cmd.label, group=cmd.group, check=cmd.check)
        invocations.append(inv)
        spent += inv["wall_s"]
    problems = [f"set-up run exited {s['exit']}" for s in setups if s["exit"]]
    return {"setup_walls": [s["wall_s"] for s in setups],
            "invocations": invocations, "problems": problems}


def traced(workload, fixture: dict, seed: int, seconds: float,
           runner: Runner, run_dir: str) -> dict:
    """The traced replay in a fresh process (after one untimed import, so
    the import it times is not the first one in a checkout)."""
    warm = runner.run([sys.executable, "-c", "import quakeresid.cli"],
                      os.path.join(run_dir, "warm"))
    out_dir = os.path.join(run_dir, "trace")
    os.makedirs(out_dir)
    request = {"run_id": f"{workload.name}-seed{seed}", "seed": seed,
               "seconds": seconds, "out_dir": out_dir,
               "metrics": list(PER_LAYER),
               "commands": [{"label": c.label, "check": c.check,
                             "argv": c.argv(fixture["files"], "{out}", seed)}
                            for c in workload.commands]}
    request_path = os.path.join(run_dir, "trace_request.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    child = runner.run([sys.executable, os.path.join(BENCH_DIR, "tracing.py"),
                        request_path], os.path.join(run_dir, "trace_log"))
    if warm["exit"] or child["exit"]:
        return {"problems": [f"import exited {warm['exit']}, traced run "
                             f"exited {child['exit']}"],
                "invocations": [], "metrics": {}}
    with open(os.path.join(out_dir, "trace.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    with open(os.path.join(out_dir, "spans.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    invocations = []
    for r in record["commands"]:
        twin = dict(r["twin"], label=r["label"], check=r["check"])
        invocations.extend([twin, r])
    return {"problems": _compare_counts(record["metrics"],
                                        fixture["catalogs"][workload.catalog]),
            "invocations": invocations, "metrics": record["metrics"],
            "passes": record["passes"], "span_cost_s": record["span_cost_s"],
            "traced_minus_untraced_s": record["traced_minus_untraced_s"],
            "spans": spans}


def _compare_counts(metrics: dict, labels: dict) -> list[str]:
    """filter_catalog's counts in the traced run against the fixture's."""
    return [f"traced {key}: {metrics.get('catalogs.' + key)} != {want}"
            for key, want in labels.items()
            if key != "pairs_at_rmax" and metrics.get("catalogs." + key) != want]


def _fixture_lines(fixture: dict) -> list[str]:
    lines = ["fixture: %d forecast rows, %d active pixels, %d PTRS pixels, "
             "%d inversion pixels, expected count %.6g" % (
                 fixture["forecast_rows"], fixture["active_pixels"],
                 fixture["ptrs_pixels"], fixture["inversion_pixels"],
                 fixture["expected_count"])]
    for name, c in fixture["catalogs"].items():
        lines.append(
            "fixture: %s: %d events read, %d kept, dropped magnitude/window/"
            "depth/location %d/%d/%d/%d, %d pairs within rmax" % (
                name, c["events_read"], c["events_kept"],
                c["dropped_magnitude"], c["dropped_window"],
                c["dropped_depth"], c["dropped_location"], c["pairs_at_rmax"]))
    return lines


def summarize_loop(workload, measured: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics of a closed-loop run, and the report lines that
    also give per-command walls, percentiles and the error rate."""
    invs = measured["invocations"]
    walls = {c.label: [i["wall_s"] for i in invs if i["label"] == c.label]
             for c in workload.commands}
    unrun = [label for label, w in walls.items() if not w]
    if unrun:
        measured["problems"].append(f"not run within the time limit: {unrun}")
        return {}, []
    medians = {label: statistics.median(w) for label, w in walls.items()}
    metrics = {"wall_s": sum(medians.values()),
               "setup_s": statistics.median(measured["setup_walls"]),
               "peak_rss_mb": max(i["rss_mb"] for i in invs)}
    lines = [_describe("setup_s", measured["setup_walls"], "s")]
    groups = {}
    for c in workload.commands:
        groups[c.group] = groups.get(c.group, 0.0) + medians[c.label]
        rss = max(i["rss_mb"] for i in invs if i["label"] == c.label)
        lines.append("%-52s %s  peak %.0f MB" % (
            c.label, _describe("", walls[c.label], "s").strip(), rss))
    failed = sum(1 for i in invs if i["problems"])
    repeats = sum(1 for i in invs if i.get("repeat_checked"))
    lines.append("per-command walls (sum of medians): " + ", ".join(
        "%s_s %.4f s" % kv for kv in groups.items()))
    lines.append("wall_s %.4f s, setup_s %.4f s, peak_rss_mb %.1f MB, "
                 "error_rate %d/%d = %.4f, %d repeats byte-compared" % (
                     metrics["wall_s"], metrics["setup_s"],
                     metrics["peak_rss_mb"], failed, len(invs),
                     failed / len(invs), repeats))
    return metrics, lines


def run(args) -> dict:
    """Generate the inputs, measure, check; the run's full record."""
    workload = WORKLOADS[args.workload]
    runner = Runner(child_env(), time.perf_counter())
    run_dir = os.path.join(WORK, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "inputs"))
    try:
        fixture = workload.make_fixture(args.seed,
                                        os.path.join(run_dir, "inputs"))
        mode = traced if args.trace else closed_loop
        measured = mode(workload, fixture, args.seed, args.seconds, runner,
                        run_dir)
        expect = dict(fixture["catalogs"][workload.catalog],
                      active_pixels=fixture["active_pixels"],
                      expected_count=fixture["expected_count"],
                      sims=int(SIMS))
        measured["problems"] += _check_invocations(measured["invocations"],
                                                   expect)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}"
             f"  ({WHY[workload.name]})"] + _fixture_lines(fixture)
    if args.trace:
        metrics = measured.pop("metrics")
        lines.append("traced passes: %d; a wrapped call costs %.3g us; traced "
                     "minus untraced replay per pass: %s s" % (
                         measured.get("passes", 0),
                         1e6 * measured.get("span_cost_s", 0.0),
                         ", ".join("%.3f" % d for d in measured.get(
                             "traced_minus_untraced_s", []))))
    else:
        metrics, more = summarize_loop(workload, measured)
        lines += more
    return {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "fixture": fixture, "metrics": metrics, "lines": lines,
            "problems": measured.pop("problems"), "measured": measured}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quakeresid", "cli.py")):
        print(f"error: {SRC}/quakeresid not found; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)   # checks.py parses simulated catalogs back
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    record = run(args)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = record["metrics"]
    problems = record["problems"] + [f"metric {n} not measured"
                                     for n in names if n not in metrics]
    invocations = record["measured"]["invocations"]
    failed = sum(1 for i in invocations if i["problems"])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(WORK, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    lines = record["lines"] + [f"problem: {p}" for p in problems]
    lines += ["%-40s %14.6g %s" % (n, metrics[n], u)
              for n, u in names.items() if n in metrics]
    lines.append(f"full record: {os.path.relpath(result_path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems and bool(invocations),
        "attempted": max(len(invocations), 1),
        "failed": failed if invocations else 1,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u}
                    for n, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
