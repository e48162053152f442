"""The benchmark's workloads: which fixture each one generates and which
CLI commands it runs, in order, as one closed-loop client.

Argument templates name fixture files as ``{forecast_a}``-style fields,
the invocation's output directory as ``{out}`` and the run seed as
``{seed}``.  The traced run passes the same argument lists to ``cli.main``
in-process, so both runs use the same flags and defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import fixtures

R_MAX = 0.7             # CLI default --rmax; fixture pair counts use it too
SIMS = "1000"           # CLI default --sims for the N and L tests
ENVELOPE_SIMS = "10"    # rescale envelope replicates (about 0.6 s each)


@dataclass(frozen=True)
class Command:
    label: str          # unique within a workload
    group: str          # per-command wall metric: <group>_s
    check: str          # output check in checks.py
    template: tuple     # CLI arguments after the program name

    def argv(self, files: dict, out_dir: str, seed: int) -> list[str]:
        return [a.format(out=out_dir, seed=seed, **files) for a in self.template]


@dataclass(frozen=True)
class Workload:
    name: str           # its reason to exist is in BENCHMARK.json
    make_fixture: object  # (seed, out_dir) -> fixture description
    catalog: str        # fixture key of the catalog every command reads
    forecast: str       # fixture key of the forecast set-up loads
    commands: tuple


def _cmd(label, group, check, *template):
    return Command(label, group, check, tuple(template))


_SCORE_OUT = ("--seed", "{seed}", "--out", "{out}/score.json")

WORKLOADS = {w.name: w for w in (
    Workload(
        "relm-tests",
        partial(fixtures.make_relm, n_events=150, forecast_b=True,
                r_max=R_MAX),
        "catalog_150", "forecast_a", (
            _cmd("ntest --analytic", "ntest", "ntest_analytic", "ntest",
                 "--forecast", "{forecast_a}", "--catalog", "{catalog_150}",
                 "--analytic", "--out", "{out}/score.json"),
            _cmd("ltest --sims", "ltest", "ltest_sims", "ltest",
                 "--forecast", "{forecast_a}", "--catalog", "{catalog_150}",
                 "--sims", SIMS, *_SCORE_OUT),
            _cmd("resid --kind pearson --svg", "resid", "resid_pearson",
                 "resid", "--forecast", "{forecast_a}",
                 "--catalog", "{catalog_150}", "--kind", "pearson",
                 "--svg", "{out}/resid.svg", "--out", "{out}/resid.csv"),
            _cmd("resid --kind deviance", "resid", "resid_deviance", "resid",
                 "--forecast-a", "{forecast_a}", "--forecast-b", "{forecast_b}",
                 "--catalog", "{catalog_150}", "--kind", "deviance",
                 "--out", "{out}/resid.csv"),
        )),
    Workload(
        "relm-secondorder",
        partial(fixtures.make_relm, n_events=2000, forecast_b=False,
                r_max=R_MAX),
        "catalog_2000", "forecast_a", (
            _cmd("k --weighted --edge isotropic", "k", "k_weighted", "k",
                 "--forecast", "{forecast_a}", "--catalog", "{catalog_2000}",
                 "--weighted", "--edge", "isotropic",
                 "--svg", "{out}/k.svg", "--out", "{out}/k.csv"),
            _cmd("transform --kind superthin --assess --edge isotropic",
                 "transform", "transform_superthin", "transform",
                 "--forecast", "{forecast_a}", "--catalog", "{catalog_2000}",
                 "--kind", "superthin", "--assess", "--edge", "isotropic",
                 "--svg", "{out}/points.svg", *_SCORE_OUT[:2],
                 "--out", "{out}/points.csv"),
        )),
    Workload(
        "dense-sims",
        partial(fixtures.make_dense, r_max=R_MAX),
        "catalog_dense", "forecast_dense", (
            _cmd("ntest --sims", "ntest", "ntest_sims", "ntest",
                 "--forecast", "{forecast_dense}", "--catalog", "{catalog_dense}",
                 "--sims", SIMS, *_SCORE_OUT),
            _cmd("ltest --sims", "ltest", "ltest_sims", "ltest",
                 "--forecast", "{forecast_dense}", "--catalog", "{catalog_dense}",
                 "--sims", SIMS, *_SCORE_OUT),
            _cmd("simulate", "simulate", "simulate", "simulate",
                 "--forecast", "{forecast_dense}", "--seed", "{seed}",
                 "--out", "{out}/simulated.csv"),
            _cmd("transform --kind rescale --assess --sims", "transform",
                 "transform_rescale", "transform",
                 "--forecast", "{forecast_dense}", "--catalog", "{catalog_dense}",
                 "--kind", "rescale", "--assess", "--sims", ENVELOPE_SIMS,
                 *_SCORE_OUT[:2], "--out", "{out}/points.csv"),
        )),
)}

# Left out: the 20k-event isotropic K on the RELM grid.  The arc-sampled
# edge correction allocates pairs x 360 samples, about 10 GiB there, which
# does not fit a 7.7 GB machine; it joins once edge correction is
# memory-bounded.
