"""Acceptance checklist: one test per shipping criterion.

Every test is self-contained and seeded; the two slow synthetic-recovery
criteria (14 and 15) each get a module-scoped fixture that runs their
ten seeds once, spread over two worker processes, and are marked slow, so
`pytest -m "not slow"` runs the rest. The conftest scoreboard prints a
PASS/FAIL line per criterion after the run.
"""

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import yaml
from scipy.optimize import minimize_scalar

from gsm_degroot import dynamics
from gsm_degroot.analysis import SweepAxis, SweepSpec, polarization_indices, run_sweep
from gsm_degroot.cli import main
from gsm_degroot.dynamics import (
    ModelParams,
    Population,
    PopulationSpec,
    simulate,
)
from gsm_degroot.fitting import (
    DEFAULT_BOUNDS,
    FitConfig,
    GridResult,
    ParamSpace,
    anneal,
    fit,
    identifiability,
    scale_invariant_distance,
    write_grid_csv,
)
from gsm_degroot.graph import GraphGenSpec, generate, identity_graph, stationary_distribution
from gsm_degroot.seeds import derive_seed, rng_from
from signed_weights import random_signed_weights, signed_opinion_step


def build_population(n, rng, mu=0.0, sigma=1.0, positive_fraction=0.5, clusters=None):
    return PopulationSpec(positive_fraction=positive_fraction).build(n, rng, mu, sigma, clusters=clusters)


# ---------------------------------------------------------------------------
# averaging-layer oracles


def test_criterion_01():
    start = time.perf_counter()
    graph = generate(GraphGenSpec(family="barabasi-albert", n=50, m=3, seed=derive_seed(1, "graph")))
    population = build_population(50, rng_from(1, "pop"))
    pi = stationary_distribution(graph)
    target = float(pi @ population.initial_opinions)
    trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=0.0), 2000, seed=derive_seed(1, "sim"))
    assert np.max(np.abs(trajectory.opinions[-1] - target)) < 1e-6
    assert time.perf_counter() - start < 1.0


def test_criterion_02():
    families = ("barabasi-albert", "watts-strogatz", "erdos-renyi", "sbm")
    extras = {"erdos-renyi": {"edge_prob": 0.5}, "sbm": {"inter_prob": 0.3}}
    for i in range(100):
        family = families[i % 4]
        n = 12 + i % 29
        graph = generate(GraphGenSpec(family=family, n=n, seed=derive_seed(2, "graph", i), **extras.get(family, {})))
        population = build_population(n, rng_from(2, "pop", i), mu=3.0 * (i % 5 - 2), sigma=1.5)
        trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=0.0), 60, seed=derive_seed(2, "sim", i))
        assert np.all(np.diff(trajectory.opinions.min(axis=1)) >= -1e-12)
        assert np.all(np.diff(trajectory.opinions.max(axis=1)) <= 1e-12)


def test_criterion_03():
    from gsm_degroot.graph import from_dense

    for i in range(100):
        n = 5 + i % 20
        operator = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)  # doubly stochastic
        graph = from_dense(operator)
        k = i % (n + 1)
        reactions = rng_from(3, "mix", i).permutation(np.where(np.arange(n) < k, 1.0, -1.0))
        population = Population(reactions=reactions, initial_opinions=rng_from(3, "pop", i).normal(0.0, 2.0, n))
        gamma = 0.1 + 0.1 * (i % 5)
        trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=gamma), 50, seed=derive_seed(3, "sim", i))
        drift = reactions.mean() * gamma * trajectory.event_fraction[:-1]
        steps = np.diff(trajectory.mean_opinion)
        assert np.max(np.abs(steps - drift)) <= 1e-12


def test_criterion_04():
    for s in range(20):
        graph = generate(GraphGenSpec(family="erdos-renyi", n=6, edge_prob=0.6, seed=derive_seed(4, "graph", s)))
        rng = rng_from(4, "pop", s)
        population = Population(reactions=rng.choice([-1.0, 1.0], 6), initial_opinions=rng.normal(0.0, 1.0, 6))
        gamma = 0.7
        trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=gamma), 8, seed=derive_seed(4, "sim", s))
        operator = graph.matrix.toarray()
        kick = population.reactions * gamma
        for t in range(8):
            unrolled = np.linalg.matrix_power(operator, t) @ population.initial_opinions
            for k in range(t):
                propagated = np.linalg.matrix_power(operator, t - 1 - k)
                unrolled = unrolled + propagated @ (kick * trajectory.event_fraction[k])
            assert np.max(np.abs(unrolled - trajectory.opinions[t])) < 1e-9


def test_criterion_05():
    graph = identity_graph(40)
    reactions = np.repeat([1.0, -1.0], 20)
    for s in range(20):
        population = Population(reactions=reactions, initial_opinions=rng_from(5, "pop", s).normal(0.0, 1.0, 40))
        trajectory = simulate(
            graph, population, ModelParams(lam=1.0, gamma=1.0), 500,
            seed=derive_seed(5, "sim", s), check_connectivity=False,
        )
        gap = trajectory.opinions[:, :20].min(axis=1) - trajectory.opinions[:, 20:].max(axis=1)
        assert gap[-1] > 0.0
        active = trajectory.event_fraction[:-1] > 0.0
        assert np.all(np.diff(gap)[active] >= -1e-12)


def test_criterion_06():
    graph = generate(GraphGenSpec(family="erdos-renyi", n=30, edge_prob=0.3,
                                  ensure_self_loops=True, seed=derive_seed(6, "graph")))
    rng = rng_from(6, "pop")
    opinions = rng.normal(0.0, 2.0, 30)
    opinions[0] = -1.0
    opinions[1] = 3.0
    susceptibility = np.ones(30)
    susceptibility[:2] = 0.0  # agents 0 and 1 are stubborn anchors
    population = Population(reactions=rng.choice([-1.0, 1.0], 30), initial_opinions=opinions,
                            susceptibility=susceptibility)
    trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=0.0), 1000, seed=derive_seed(6, "sim"))
    assert np.max(np.abs(trajectory.opinions[-1] - trajectory.opinions[-2])) < 1e-10
    assert np.all(trajectory.opinions[-1] >= -1.0 - 1e-8)
    assert np.all(trajectory.opinions[-1] <= 3.0 + 1e-8)
    assert polarization_indices(trajectory)["D_max_inf"] <= 4.0 + 1e-8


def test_criterion_07():
    for i in range(100):
        rng = rng_from(7, "net", i)
        n = 6 + i % 15
        weights = random_signed_weights(n, rng)
        x = rng.normal(0.0, 2.0, n)
        lo, hi, cap = x.min(), x.max(), 2.0 * np.max(np.abs(x))
        above = below = False
        for _ in range(200):
            x = signed_opinion_step(x, weights)
            assert x.max() - x.min() <= cap + 1e-12
            above = above or x.max() > hi + 1e-12
            below = below or x.min() < lo - 1e-12
        assert not (above and below)


def test_criterion_08():
    for alpha in (0.5, 2.0):
        for s in range(5):
            graph = generate(GraphGenSpec(family="erdos-renyi", n=20, edge_prob=0.4,
                                          seed=derive_seed(8, "graph", s)))
            x0 = rng_from(8, "pop", alpha, s).uniform(0.5, 2.0, 20)
            population = Population(reactions=np.ones(20), initial_opinions=x0)
            trajectory = simulate(
                graph, population, ModelParams(lam=1.0, gamma=0.0), 21,
                seed=derive_seed(8, "sim", s), weight_scale=alpha,
            )
            scale = alpha ** np.arange(21)
            lower = np.outer(scale, np.full(20, x0.min()))
            upper = np.outer(scale, np.full(20, x0.max()))
            assert np.all(trajectory.opinions >= lower * (1.0 - 1e-9))
            assert np.all(trajectory.opinions <= upper * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# coupled-dynamics behavior


def test_criterion_09(criterion_detail):
    spreads = []
    tails = []
    for s in range(50):
        graph = generate(GraphGenSpec(family="barabasi-albert", n=100, m=3, seed=derive_seed(9, "graph", s)))
        population = build_population(100, rng_from(9, "pop", s), clusters=graph.clusters)
        trajectory = simulate(graph, population, ModelParams(lam=1.0, gamma=0.3), 1000,
                              seed=derive_seed(9, "sim", s))
        spreads.append(polarization_indices(trajectory)["D_max"])
        tails.append(trajectory.event_fraction[-100:].mean())
    spread = float(np.mean(spreads))
    floor = 0.5 * 0.3 * float(np.mean(tails))
    criterion_detail(f"mean D_max={spread:.3f} vs steering floor={floor:.3f}")
    assert spread > floor


def sweep_statistics(positive_fraction, statistics, seed):
    spec = SweepSpec(
        graph=GraphGenSpec(family="watts-strogatz", n=50, k=6, rewire_prob=0.1, seed=seed),
        population=PopulationSpec(positive_fraction=positive_fraction),
        params=ModelParams(lam=1.0, gamma=0.1, mu=0.0, sigma=1.0),
        horizon=400,
        axes=(SweepAxis("mu", -2.0, 2.0, 5), SweepAxis("gamma", 0.0, 1.0, 5)),
        replicates=5,
        statistics=statistics,
        seed=seed,
    )
    return run_sweep(spec)


def test_criterion_10():
    exciting = sweep_statistics(0.95, ("D_max_inf",), 11)
    mu_values = sorted({cell.coords["mu"] for cell in exciting.cells})
    gamma_values = sorted({cell.coords["gamma"] for cell in exciting.cells})
    means = np.zeros((5, 5))
    errors = np.zeros((5, 5))
    for cell in exciting.cells:
        i = mu_values.index(cell.coords["mu"])
        j = gamma_values.index(cell.coords["gamma"])
        values = np.asarray(cell.values["D_max_inf"])
        means[i, j] = values.mean()
        errors[i, j] = values.std(ddof=1) / math.sqrt(values.size)
    for i in range(5):
        for j in range(4):
            slack = math.hypot(errors[i, j], errors[i, j + 1])
            assert means[i, j + 1] >= means[i, j] - slack

    cooling = sweep_statistics(0.05, ("D_max", "D_max_inf"), 12)
    for cell in cooling.cells:
        assert np.mean(cell.values["D_max"]) >= np.mean(cell.values["D_max_inf"])


def two_block_event_curve(mu, gamma, inter_prob, seeds=10, horizon=400):
    total = np.zeros(horizon)
    for s in range(seeds):
        graph = generate(GraphGenSpec(family="sbm", n=100, seed=derive_seed(0, s, "g", inter_prob),
                                      cluster_ratios=(0.7, 0.3), intra_prob=0.5, inter_prob=inter_prob))
        population = PopulationSpec(cluster_positive_fractions=(0.3, 0.7)).build(
            100, rng_from(0, s, "p"), mu, 1.0, clusters=graph.clusters)
        trajectory = simulate(graph, population, ModelParams(lam=0.01, gamma=gamma, mu=mu, sigma=1.0),
                              horizon, seed=derive_seed(0, s, "s"))
        total += trajectory.event_fraction
    smoothed = np.convolve(total / seeds, np.ones(9) / 9, mode="valid")
    return smoothed.max(), int(smoothed.argmax())


def test_criterion_11(criterion_detail):
    peaks = [two_block_event_curve(mu, 20.0, 0.05) for mu in (-300.0, -200.0, -100.0)]
    heights = [h for h, _ in peaks]
    times = [t for _, t in peaks]
    low_mix, _ = two_block_event_curve(-300.0, 2000.0, 0.05)
    high_mix, _ = two_block_event_curve(-300.0, 2000.0, 0.4)
    criterion_detail(f"peaks by mu {heights[0]:.3f}<{heights[1]:.3f}<{heights[2]:.3f}; "
                     f"mixing drop {low_mix:.3f}->{high_mix:.3f}")
    assert heights[0] < heights[1] < heights[2]
    assert times[0] >= times[1] >= times[2] and times[0] > times[2]
    assert low_mix > high_mix


# ---------------------------------------------------------------------------
# fitting machinery


def test_criterion_12():
    for i in range(100):
        series = np.abs(rng_from(12, "series", i).normal(0.3, 0.1, 200)) + 0.01
        for c in (0.1, 1.0, 10.0):
            distance, _ = scale_invariant_distance(series, c * series)
            assert distance < 1e-12

    grid = np.arange(0.0, 3.0 + 1e-4, 1e-4)
    for i in range(100):
        rng = rng_from(12, "pair", i)
        data = rng.uniform(0.2, 1.0, 50)
        model = rng.uniform(0.2, 1.0, 50)
        closed, _ = scale_invariant_distance(data, model)
        scanned = np.linalg.norm(data[None, :] - grid[:, None] * model[None, :], axis=1)
        assert closed <= scanned.min() / np.linalg.norm(data) + 1e-9


def test_criterion_13(criterion_detail):
    space = ParamSpace()
    diameter = math.sqrt(sum((hi - lo) ** 2 for lo, hi in space.bounds.values()))
    hits = 0
    for s in range(10):
        rng = rng_from(77, "plant", s)
        center = {name: float(rng.uniform(*space.bounds[name])) for name in space.axes}
        best, _, _ = anneal(
            {"mu": 0.0, "gamma": 25.0, "r": 0.25}, None, space,
            FitConfig(anneal_iters=2000, seed=derive_seed(77, "cfg", s)),
            seed=derive_seed(77, "run", s),
            scorer=lambda point: sum((point[name] - center[name]) ** 2 for name in center),
        )
        distance = math.sqrt(sum((best[name] - center[name]) ** 2 for name in space.axes))
        hits += distance <= 0.05 * diameter
    criterion_detail(f"within 5% of optimum in {hits}/10 seeds (need 9)")
    assert hits >= 9


def synthetic_series(truth, s, mode="stochastic"):
    """Smoothed event series of data seed s: two-block sbm, 2000 ticks, 25-tick average."""
    graph = generate(GraphGenSpec(family="sbm", n=100, seed=derive_seed(2024, "dg", s),
                                  cluster_ratios=(0.7, 0.3), intra_prob=0.5, inter_prob=truth["r"]))
    population = PopulationSpec(positive_fraction=None, cluster_positive_fractions=(0.3, 0.7)).build(
        100, rng_from(2024, "dp", s), truth["mu"], 1.0, clusters=graph.clusters)
    raw = simulate(graph, population,
                   ModelParams(lam=0.01, gamma=truth["gamma"], mu=truth["mu"], sigma=1.0),
                   2000, seed=derive_seed(2024, "ds", s), mode=mode).event_fraction
    return np.convolve(raw, np.ones(25) / 25, mode="valid")


def recovery_config(s):
    return FitConfig(replicates=1, mode="expected", restarts=3, anneal_iters=200,
                     seed=derive_seed(2024, "fit", s))


def mixing_separation(truth, mu_bounds):
    """Distance from the truth's series to the best-mu series at r = 0.4.

    Both series come from data seed 0 in expected mode with gamma held at
    its true value, so only mu and r differ. A coarse mu scan over the box
    brackets the minimum, which a bounded scalar search then refines. A
    distance near zero means mu alone absorbs the change in r, and no fit
    can recover r from the event series.
    """
    reference = synthetic_series(truth, 0, mode="expected")

    def distance(mu):
        candidate = synthetic_series({**truth, "mu": float(mu), "r": 0.4}, 0, mode="expected")
        return scale_invariant_distance(reference, candidate)[0]

    scan = np.linspace(*mu_bounds, 11)
    i = int(np.argmin([distance(mu) for mu in scan]))
    bracket = (scan[max(i - 1, 0)], scan[min(i + 1, scan.size - 1)])
    return float(minimize_scalar(distance, bounds=bracket, method="bounded", options={"xatol": 0.5}).fun)


MIN_SEPARATION = 0.01
RECOVERY_JOBS = 2  # worker processes that share the ten seeds of a recovery fixture


def counted_mixing_fit(task):
    """One criterion-14 fit; returns the fitted r and the surrogate simulations
    it ran, counted as the members that pass through the batched tick loop."""
    truth, space, s = task
    # simulate runs through the tick loop too, so the data is drawn uncounted
    data = synthetic_series(truth, s)
    sims = 0
    run_members = dynamics._run_members

    def counted_run_members(members, *args, **kwargs):
        nonlocal sims
        sims += len(members)
        return run_members(members, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_run_members", counted_run_members)
        result = fit(data, space=space, config=recovery_config(s))
    return {"r": result.best["r"], "sims": sims}


def paired_fit(task):
    """One criterion-15 seed: full two-layer fit and baseline fit on the same data."""
    truth, baseline_space, s = task
    data = synthetic_series(truth, s)
    config = recovery_config(s)
    full = fit(data, config=config)
    baseline = fit(data, space=baseline_space, config=config)
    return {"error": full.error, "baseline_error": baseline.error}


def map_seeds(task_fn, tasks):
    """Run one task per seed in RECOVERY_JOBS worker processes, results in seed order.

    Every fit derives its seeds from the data seed alone, so the results do
    not depend on which worker runs which seed.
    """
    with ProcessPoolExecutor(max_workers=RECOVERY_JOBS) as pool:
        return list(pool.map(task_fn, tasks))


@pytest.fixture(scope="module")
def mixing_recovery():
    """Ten fits of (mu, r) on synthetic two-block data at (mu=0, gamma=5, r=0.1).

    gamma is pinned at its true value: from the event series alone r trades
    off against gamma, and at weak steering (such as gamma=0.3, mu=-150)
    the blocks reach consensus and mu absorbs r completely. The separation
    check runs first; the fits run only if the series carries r. Every
    surrogate simulation the fits run is counted.
    """
    truth = {"mu": 0.0, "gamma": 5.0, "r": 0.1}
    space = ParamSpace(bounds={"mu": DEFAULT_BOUNDS["mu"], "r": DEFAULT_BOUNDS["r"]},
                       resolution={"mu": 6, "r": 6}, pinned={"gamma": truth["gamma"]})
    separation = mixing_separation(truth, space.bounds["mu"])
    runs = []
    start = time.perf_counter()
    if separation > MIN_SEPARATION:
        runs = map_seeds(counted_mixing_fit, [(truth, space, s) for s in range(10)])
    return {"runs": runs, "truth": truth, "space": space, "separation": separation,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def synthetic_recovery():
    """Ten paired fits on synthetic two-block data at (mu=-150, gamma=0.3, r=0.1).

    Each seed gets a fresh data instance, a full two-layer fit, and an
    averaging-plus-stubbornness baseline fit (gamma pinned to 0, free
    stubbornness share) with the same budget. Criterion 15 compares their
    errors.
    """
    truth = {"mu": -150.0, "gamma": 0.3, "r": 0.1}
    baseline_space = ParamSpace(bounds={"mu": (-500.0, 500.0), "r": (0.0, 0.5), "p": (0.0, 0.5)},
                                resolution={"mu": 6, "r": 6, "p": 4}, pinned={"gamma": 0.0})
    return map_seeds(paired_fit, [(truth, baseline_space, s) for s in range(10)])


@pytest.mark.slow
def test_criterion_14(mixing_recovery, criterion_detail):
    truth = mixing_recovery["truth"]
    space = mixing_recovery["space"]
    config = recovery_config(0)
    budget = (math.prod(space.resolution_of(name) for name in space.axes)
              + config.restarts * (config.anneal_iters + 1) + 1) * config.replicates
    runs = mixing_recovery["runs"]
    hits = sum(abs(run["r"] - truth["r"]) <= 0.15 for run in runs)
    most = max((run["sims"] for run in runs), default=0)
    criterion_detail(f"r=0.4 separation {mixing_recovery['separation']:.4f} (need > {MIN_SEPARATION}); "
                     f"r within 0.15 in {hits}/10 seeds (need 7); at most {most} of {budget} simulations "
                     f"per fit; {mixing_recovery['elapsed']:.0f} s")
    assert mixing_recovery["separation"] > MIN_SEPARATION
    assert all(0 < run["sims"] <= budget for run in runs)
    assert hits >= 7


@pytest.mark.slow
def test_criterion_15(synthetic_recovery, criterion_detail):
    wins = sum(run["error"] < run["baseline_error"] for run in synthetic_recovery)
    criterion_detail(f"lower fit error in {wins}/10 paired seeds (need 8)")
    assert wins >= 8


def test_criterion_16(criterion_detail):
    axis = np.linspace(0.0, 1.0, 101)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    unit = np.column_stack([m.ravel() for m in mesh])
    widths = np.array([1000.0, 50.0, 0.5])
    points = unit * widths + np.array([-500.0, 0.0, 0.0])
    planted = np.linalg.norm((points - np.array([100.0, 20.0, 0.3])) / widths, axis=1)
    curve = identifiability(points, planted, q_range=(1e-4, 1e-2), n_q=9, bootstrap=10, seed=1)
    assert np.all(curve.chi > 0.0)
    assert np.all(np.diff(curve.chi) <= 0.0)

    null_scores = np.random.default_rng(5).random(points.shape[0])
    null = identifiability(points, null_scores, q_range=(1e-4, 1e-2), n_q=9, bootstrap=10, seed=1)
    covered = float(np.mean(np.abs(null.chi) <= null.noise))
    criterion_detail(f"planted chi {curve.chi[0]:.3f}->{curve.chi[-1]:.3f}; null within noise {covered:.0%}")
    assert covered >= 0.8


# ---------------------------------------------------------------------------
# command-line determinism


def replay_matches(tmp_path, command, payload):
    config = tmp_path / f"{command}.yaml"
    config.write_text(yaml.safe_dump(payload))
    first = tmp_path / f"{command}-first"
    second = tmp_path / f"{command}-second"
    assert main([command, "--config", str(config), "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "resolved_config.yaml"), "--jobs", "2", "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), f"{command}/{name} differs"


def test_criterion_17(tmp_path):
    replay_matches(tmp_path, "gen-graph", {"seed": 5, "graph": {"family": "sbm", "n": 40}})
    replay_matches(tmp_path, "simulate", {
        "seed": 5,
        "graph": {"family": "barabasi-albert", "n": 30, "m": 3},
        "population": {"positive_fraction": 0.25},
        "params": {"lambda": 1.0, "gamma": 0.2, "mu": 0.0, "sigma": 1.0},
        "horizon": 300,
    })
    replay_matches(tmp_path, "sweep", {
        "seed": 11,
        "graph": {"family": "sbm", "n": 20},
        "population": {"positive_fraction": 0.5},
        "params": {"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1.0},
        "horizon": 80,
        "sweep": {"axes": [{"name": "gamma", "lo": 0.0, "hi": 1.0, "cells": 2}],
                  "replicates": 2, "statistics": ["D_max", "D_max_inf"]},
    })

    observed = tmp_path / "observed.csv"
    with open(observed, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t in range(40):
            writer.writerow([t, f"{0.5 * 0.98 ** t:.6f}"])
    replay_matches(tmp_path, "fit", {
        "seed": 3,
        "fit": {"data": str(observed),
                "space": {"mu": [-50.0, 50.0, 2], "gamma": [0.0, 5.0, 2]},
                "pinned": {"r": 0.2}, "surrogate": {"n": 30},
                "replicates": 1, "mode": "expected", "restarts": 1, "anneal_iters": 5},
    })

    axis = np.linspace(0.0, 1.0, 20)
    mesh_mu, mesh_gamma = np.meshgrid(axis, axis, indexing="ij")
    grid_points = np.column_stack([mesh_mu.ravel(), mesh_gamma.ravel()])
    grid_scores = np.linalg.norm(grid_points - np.array([0.4, 0.6]), axis=1)
    grid = GridResult(axes=["mu", "gamma"], points=grid_points, scores=grid_scores,
                      mean_errors=grid_scores, error_stds=np.zeros(grid_scores.size), errors=[])
    grid_path = tmp_path / "grid.csv"
    write_grid_csv(grid, grid_path)
    replay_matches(tmp_path, "identify", {
        "seed": 3,
        "identify": {"grid": str(grid_path), "q_min": 0.01, "q_max": 0.1, "points": 5},
    })
