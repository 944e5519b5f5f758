"""The benchmark's three workloads: inputs, one round of work, and its checks.

Each workload has a setup (the inputs a user has before the work starts),
a round (one fit, one sweep or one trajectory, the unit that is timed) and
a check of the round's outputs. Rounds call the package through module
attributes (``fitting.fit``, ``graph.generate``) so that a Tracer sees them.
The sizes are dataclasses so the tests can run a smoke size of each.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import yaml

from gsm_degroot import cli, dynamics, fitting, graph, ingest
from gsm_degroot.seeds import derive_seed, rng_from

import checks


@dataclass
class Outcome:
    attempted: int
    failed: int
    outputs: dict  # what the round produced, for its checks


# --- fit-mixing ---------------------------------------------------------

@dataclass(frozen=True)
class FitSize:
    n: int = 100
    ticks: int = 2000
    smooth: int = 25
    resolution: int = 6
    restarts: int = 3
    anneal_iters: int = 200


class FitMixing:
    """Calibration of (mu, r) with gamma pinned, against a topic series file.

    The series is criterion 14's synthetic two-block topic at data seed 0,
    truth (mu=0, gamma=5, r=0.1). It is written as a timestamp,value file
    and read back through ingest with 25-tick smoothing, as a user would
    load a recorded topic. The inputs do not depend on the workload seed:
    the annealer's clipped proposals at r = 0.0 always fail (a two-block
    sbm without cross edges is never strongly connected), and how many of
    them a fit makes depends on its data and fit seeds, so fixed inputs
    keep the failed share the same on every run.
    """

    name = "fit-mixing"
    truth = {"mu": 0.0, "gamma": 5.0, "r": 0.1}
    data_seed = 0

    def __init__(self, size: FitSize = FitSize()):
        self.size = size

    def setup(self, seed: int, workdir: Path) -> dict:
        size = self.size
        truth = self.truth
        g = graph.generate(graph.GraphGenSpec(
            family="sbm", n=size.n, seed=derive_seed(2024, "dg", self.data_seed),
            cluster_ratios=(0.7, 0.3), intra_prob=0.5, inter_prob=truth["r"],
        ))
        population = dynamics.PopulationSpec(positive_fraction=None, cluster_positive_fractions=(0.3, 0.7)).build(
            size.n, rng_from(2024, "dp", self.data_seed), truth["mu"], 1.0, clusters=g.clusters,
        )
        raw = dynamics.simulate(
            g, population, dynamics.ModelParams(lam=0.01, gamma=truth["gamma"], mu=truth["mu"], sigma=1.0),
            size.ticks, seed=derive_seed(2024, "ds", self.data_seed),
        ).event_fraction
        path = workdir / "topic.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,value\n")
            fh.writelines(f"{t},{v!r}\n" for t, v in enumerate(raw.tolist()))
        series = ingest.preprocess(ingest.load_series(path), smooth=size.smooth)
        space = fitting.ParamSpace(
            bounds={"mu": fitting.DEFAULT_BOUNDS["mu"], "r": fitting.DEFAULT_BOUNDS["r"]},
            resolution={"mu": size.resolution, "r": size.resolution},
            pinned={"gamma": truth["gamma"]},
        )
        config = fitting.FitConfig(
            n=size.n, replicates=1, mode="expected", restarts=size.restarts,
            anneal_iters=size.anneal_iters, seed=derive_seed(2024, "fit", self.data_seed),
        )
        return {"data": series.values, "space": space, "config": config}

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        result = fitting.fit(inputs["data"], inputs["space"], inputs["config"])
        fitting.write_fit_csv(result, outdir / "fit.csv", "topic")
        fitting.write_grid_csv(result.grid, outdir / "grid.csv")
        attempted, failed = checks.fit_operations(result)
        return Outcome(attempted, failed, {"result": result, "outdir": outdir})

    def check(self, outcome: Outcome) -> list[str]:
        outdir = outcome.outputs["outdir"]
        return checks.check_fit(outcome.outputs["result"], outdir / "fit.csv", outdir / "grid.csv",
                                self.size.resolution ** 2)


# --- sweep-regimes ------------------------------------------------------

@dataclass(frozen=True)
class SweepSize:
    n: int = 300
    horizon: int = 1000
    cells: int = 6  # per axis
    replicates: int = 3


class SweepRegimes:
    """`gsm-degroot sweep` over gamma x beta on a Watts-Strogatz graph.

    Stochastic mode, lambda 1, initial opinions N(0, 1). The gamma axis
    spans no feedback to strong feedback and the beta axis (the share of
    +1 reactions) spans self-cooling to self-exciting populations, the two
    axes of the paper's regime map. The config file is the input; the
    workload seed becomes the sweep's seed.
    """

    name = "sweep-regimes"

    def __init__(self, size: SweepSize = SweepSize()):
        self.size = size

    def config(self, seed: int) -> dict:
        size = self.size
        return {
            "version": 1,
            "seed": derive_seed("perfbench", self.name, seed),
            "graph": {"family": "watts-strogatz", "n": size.n, "k": 6, "rewire_prob": 0.1},
            "params": {"lambda": 1.0, "mu": 0.0, "sigma": 1.0},
            "horizon": size.horizon,
            "sweep": {
                "axes": [
                    {"name": "gamma", "lo": 0.0, "hi": 2.0, "cells": size.cells},
                    {"name": "beta", "lo": 0.1, "hi": 0.9, "cells": size.cells},
                ],
                "replicates": size.replicates,
                "statistics": ["D_max", "D_max_inf", "event_fraction_curve"],
            },
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        path = workdir / "sweep.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(self.config(seed), fh, sort_keys=True)
        return {"config": path}

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        size = self.size
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(inputs["config"]), "--out", str(outdir)])
        cells = size.cells ** 2
        failures = outdir / "failures.csv"
        failed = 0
        if failures.exists():
            with open(failures) as fh:
                failed = sum(1 for _ in fh) - 1
        if code != 0:
            failed = cells
        return Outcome(cells, failed, {"code": code, "outdir": outdir})

    def check(self, outcome: Outcome) -> list[str]:
        size = self.size
        code = outcome.outputs["code"]
        found = [] if code == 0 else [f"gsm-degroot sweep exited with {code}"]
        return found + checks.check_sweep(outcome.outputs["outdir"], size.cells ** 2, size.replicates,
                                          size.horizon, size.n)


# --- simulate-large -----------------------------------------------------

@dataclass(frozen=True)
class SimulateSize:
    n: int = 20000
    horizon: int = 1000


class SimulateLarge:
    """The README's Python path at scale: generate, build, simulate, write.

    Barabasi-Albert n=20000, m=3; positive fraction 0.7; lambda 1, gamma
    0.5, initial opinions N(0, 1); 1000 stochastic ticks on the sparse
    operator. Graph, population and simulation seeds derive from the
    workload seed.
    """

    name = "simulate-large"

    def __init__(self, size: SimulateSize = SimulateSize()):
        self.size = size

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            "graph": graph.GraphGenSpec(family="barabasi-albert", n=self.size.n, m=3,
                                        seed=derive_seed(seed, "graph")),
            "population": dynamics.PopulationSpec(positive_fraction=0.7),
            "params": dynamics.ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
            "seed": seed,
        }

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        params = inputs["params"]
        g = graph.generate(inputs["graph"])
        population = inputs["population"].build(
            g.n, rng_from(inputs["seed"], "population"), params.mu, params.sigma)
        trajectory = dynamics.simulate(
            g, population, params, self.size.horizon, seed=derive_seed(inputs["seed"], "simulate"))
        summary = outdir / "trajectory.csv"
        trajectory.write_summary_csv(summary)
        return Outcome(1, 0, {"graph": g, "population": population, "params": params,
                              "trajectory": trajectory, "summary": summary})

    def check(self, outcome: Outcome) -> list[str]:
        out = outcome.outputs
        matrix = out["graph"].matrix
        return checks.check_graph(matrix) + checks.check_trajectory(
            matrix, out["population"].reactions, out["params"].gamma, out["params"].lam,
            out["trajectory"], out["summary"])


WORKLOADS = {w.name: w for w in (FitMixing, SweepRegimes, SimulateLarge)}
