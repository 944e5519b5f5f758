"""Scale-invariant distance, candidate scoring, grid search, annealing, fit."""

import csv
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsm_degroot import dynamics
from gsm_degroot.dynamics import MODES, ModelParams, PopulationSpec, simulate
from gsm_degroot.fitting import (
    FitConfig,
    FitError,
    GridResult,
    ParamSpace,
    _accept,
    _run_chains,
    _spread_starts,
    anneal,
    evaluate_point,
    fit,
    grid_explore,
    identifiability,
    read_grid_csv,
    scale_invariant_distance,
    write_chi_csv,
    write_fit_csv,
    write_grid_csv,
)
from gsm_degroot.graph import GraphError, GraphGenSpec, generate
from gsm_degroot.seeds import derive_seed, rng_from


def surrogate_series(point, length, dseed, n=100, mode="stochastic"):
    """One event-fraction series from the same construction evaluate_point uses."""
    graph = generate(GraphGenSpec(
        family="sbm", n=n, seed=derive_seed(dseed, "g"),
        cluster_ratios=(0.7, 0.3), intra_prob=0.5, inter_prob=point["r"],
    ))
    population = PopulationSpec(
        positive_fraction=None, cluster_positive_fractions=(0.3, 0.7),
    ).build(n, rng_from(dseed, "p"), point["mu"], 1.0, clusters=graph.clusters)
    params = ModelParams(lam=0.01, gamma=point["gamma"], mu=point["mu"], sigma=1.0)
    return simulate(graph, population, params, length, seed=derive_seed(dseed, "s"), mode=mode).event_fraction


def small_space():
    return ParamSpace(
        bounds={"mu": (-300.0, 300.0), "gamma": (0.0, 20.0)},
        resolution={"mu": 2, "gamma": 2},
        pinned={"r": 0.3},
    )


def run_small_fit(seed=9):
    data = surrogate_series({"mu": -125.0, "gamma": 6.25, "r": 0.3}, 60, derive_seed(61, "fitdata"))
    config = FitConfig(replicates=1, mode="expected", restarts=2, anneal_iters=30, seed=seed)
    return fit(data, small_space(), config)


series_strategy = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=50
).map(lambda vals: np.asarray(vals, dtype=np.float64))


# ---------------------------------------------------------------------------
# scale-invariant distance


def test_exact_rescaling_is_distance_zero():
    data = np.linspace(0.2, 0.8, 50)
    d, s = scale_invariant_distance(data, 2.0 * data)
    assert d == 0.0
    assert s == 0.5


def test_orthogonal_series_keep_full_distance():
    d, s = scale_invariant_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert s == 0.0
    assert d == 1.0


def test_anticorrelated_model_clamps_scale_at_zero():
    d, s = scale_invariant_distance(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
    assert s == 0.0
    assert d == 1.0


def test_oblique_pair_matches_least_squares():
    d, s = scale_invariant_distance(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert s == 1.0
    assert d == pytest.approx(2.0 ** -0.5)


@given(series=series_strategy, c=st.sampled_from([0.1, 1.0, 10.0]))
@settings(max_examples=25, deadline=None)
def test_rescaled_series_are_distance_zero(series, c):
    if np.linalg.norm(series) < 1e-3:
        return
    d, _ = scale_invariant_distance(series, c * series)
    assert d < 1e-10


def test_closed_form_scale_beats_brute_force_scan():
    rng = np.random.default_rng(4)
    grid = np.arange(0.0, 3.0, 1e-4)
    for _ in range(20):
        data = rng.uniform(0.1, 1.0, 40)
        model = rng.uniform(0.1, 1.0, 40)
        d, s = scale_invariant_distance(data, model)
        scanned = np.linalg.norm(data[None, :] - grid[:, None] * model[None, :], axis=1)
        assert 0.0 < s < 3.0
        assert d * np.linalg.norm(data) <= scanned.min() + 1e-3


def test_zero_norm_data_rejected():
    with pytest.raises(ValueError, match="zero norm"):
        scale_invariant_distance(np.zeros(5), np.ones(5))


@pytest.mark.parametrize("value", [1e300, 1e155])
def test_data_whose_norm_overflows_is_rejected_without_a_warning(value):
    # squared, either value leaves the floats; the warning once escaped the fit
    with pytest.raises(ValueError, match="^data series norm overflows the floats"):
        scale_invariant_distance(np.array([value, 0.0]), np.ones(2))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_data_rejected(value):
    with pytest.raises(ValueError, match="non-finite values"):
        scale_invariant_distance(np.array([value, 1.0, 2.0]), np.ones(3))


def test_mismatched_or_stacked_series_rejected():
    with pytest.raises(ValueError, match="shapes differ"):
        scale_invariant_distance(np.ones(4), np.ones(5))
    with pytest.raises(ValueError, match="shapes differ"):
        scale_invariant_distance(np.ones((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# parameter space


def test_default_space_axes_and_centers():
    space = ParamSpace()
    assert space.axes == ["mu", "gamma", "r"]
    centers = space.centers("mu")
    assert centers.size == 6
    assert centers[0] == pytest.approx(-1250.0 / 3.0)
    assert centers[-1] == pytest.approx(1250.0 / 3.0)


def test_centers_are_cell_midpoints():
    space = ParamSpace(
        bounds={"mu": (-500.0, 500.0)}, resolution={"mu": 4}, pinned={"gamma": 1.0, "r": 0.2}
    )
    assert np.array_equal(space.centers("mu"), [-375.0, -125.0, 125.0, 375.0])
    assert np.array_equal(space.cell_widths(), [250.0])


def test_full_point_merges_pinned_values():
    space = small_space()
    point = space.full_point({"mu": 10.0, "gamma": 5.0})
    assert point == {"mu": 10.0, "gamma": 5.0, "r": 0.3}


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(bounds={"q": (0.0, 1.0)}), "unknown parameter"),
        (dict(bounds={"mu": (1.0, 1.0)}, pinned={"gamma": 0.0, "r": 0.1}), "lo < hi"),
        (dict(bounds={"mu": (0.0, 1.0)}, pinned={"r": 0.1}), "'gamma' needs bounds"),
        (dict(bounds={"mu": (0.0, 1.0), "gamma": (0.0, 1.0), "r": (0.0, 0.6)}), "within"),
        (dict(bounds={"mu": (0.0, 1.0), "gamma": (0.0, 1.0), "r": (0.0, 0.5), "p": (-0.1, 0.4)}), "within"),
        (
            dict(bounds={"mu": (0.0, 1.0), "gamma": (0.0, 1.0), "r": (0.0, 0.5)}, pinned={"mu": 0.5}),
            "both searched and pinned",
        ),
        (
            dict(bounds={"mu": (0.0, 1.0), "gamma": (0.0, 1.0), "r": (0.0, 0.5)}, resolution={"mu": 1}),
            "at least 2",
        ),
        (
            dict(bounds={"mu": (0.0, 1.0), "gamma": (0.0, 1.0), "r": (0.0, 0.5)}, resolution={"p": 3}),
            "unsearched parameter",
        ),
        (dict(bounds={"mu": (0.0, 1.0), "r": (0.0, 0.5)}, pinned={"gamma": math.inf}), "'gamma' must be finite"),
        (dict(bounds={"gamma": (0.0, 1.0), "r": (0.0, 0.5)}, pinned={"mu": math.nan}), "'mu' must be finite"),
        # a pinned name no evaluation reads
        (dict(pinned={"lam": 2.0}), r"unknown parameter 'lam'; choose from \('mu', 'gamma', 'r', 'p'\)"),
        # nothing left to search: grid_explore would stack zero axes
        (dict(bounds={}, pinned={"mu": 0.0, "gamma": 1.0, "r": 0.1}),
         "a fit needs at least one searched parameter; mu, gamma and r are all pinned"),
    ],
)
def test_invalid_spaces_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ParamSpace(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(n=1), dict(cluster_ratios=(0.0, 1.0)), dict(cluster_positive_fractions=(0.3, 1.2)),
    dict(intra_prob=1.5), dict(lam=0.0), dict(sigma=-1.0), dict(mode="average"), dict(cooling=1.0),
])
def test_fit_config_rejects_out_of_range_fields(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        FitConfig(**kwargs)


# ---------------------------------------------------------------------------
# point scoring


def test_zero_noise_weight_scores_mean_error_exactly():
    data = surrogate_series({"mu": -50.0, "gamma": 2.0, "r": 0.2}, 40, derive_seed(62, "a"))
    config = FitConfig(replicates=3, noise_weight=0.0, seed=1)
    result = evaluate_point({"mu": -50.0, "gamma": 2.0, "r": 0.2}, data, config)
    assert result.score == result.mean_error
    assert result.error_std > 0.0


def test_single_replicate_has_zero_spread():
    data = surrogate_series({"mu": -50.0, "gamma": 2.0, "r": 0.2}, 40, derive_seed(62, "b"))
    result = evaluate_point({"mu": -50.0, "gamma": 2.0, "r": 0.2}, data, FitConfig(replicates=1, seed=1))
    assert result.error_std == 0.0
    assert result.score == result.mean_error


def test_scoring_is_deterministic():
    point = {"mu": 80.0, "gamma": 5.0, "r": 0.1}
    data = surrogate_series(point, 50, derive_seed(62, "c"))
    config = FitConfig(replicates=2, seed=13)
    first = evaluate_point(point, data, config)
    second = evaluate_point(point, data, config)
    assert first == second


@pytest.mark.parametrize("mode, want", [
    ("stochastic", "0.3955000485175233"),
    ("expected", "0.3176332039104558"),
])
def test_scores_keep_their_seeds(mode, want):
    # taken from the code before scoring ran through dynamics.replicate: a
    # changed seed label or derivation changes these digits
    data = 0.2 + 0.1 * np.sin(np.linspace(0.0, 6.0, 80))
    config = FitConfig(n=30, replicates=2, mode=mode, seed=4)
    assert repr(evaluate_point({"mu": -20.0, "gamma": 3.0, "r": 0.2}, data, config).score) == want


def test_zero_stubbornness_reproduces_plain_scores():
    # the p = 0 plane of the four-parameter search must be seed-identical
    # to the three-parameter search, cell for cell
    data = surrogate_series({"mu": -50.0, "gamma": 2.0, "r": 0.2}, 40, derive_seed(62, "d"))
    config = FitConfig(replicates=2, seed=21)
    plain = evaluate_point({"mu": -50.0, "gamma": 2.0, "r": 0.2}, data, config)
    with_p = evaluate_point({"mu": -50.0, "gamma": 2.0, "r": 0.2, "p": 0.0}, data, config)
    assert plain == with_p


def test_generating_point_scores_in_best_quartile():
    point = {"mu": -125.0, "gamma": 6.25, "r": 0.3}
    dseed = derive_seed(52, "data")
    data = surrogate_series(point, 150, dseed)
    config = FitConfig(seed=derive_seed(52, "cfg"))
    at_point = evaluate_point(point, data, config).mean_error
    rng = rng_from(52, "sample")
    space = ParamSpace()
    sampled = []
    for _ in range(50):
        candidate = {name: float(rng.uniform(*space.bounds[name])) for name in space.axes}
        sampled.append(evaluate_point(candidate, data, config).mean_error)
    assert at_point < np.percentile(sampled, 25)


# ---------------------------------------------------------------------------
# grid exploration


def test_grid_evaluates_every_cell_center():
    space = ParamSpace(
        bounds={"mu": (-100.0, 100.0), "gamma": (0.0, 10.0), "r": (0.0, 0.4)},
        resolution={"mu": 2, "gamma": 2, "r": 2},
    )
    data = surrogate_series({"mu": 0.0, "gamma": 1.0, "r": 0.2}, 30, derive_seed(63, "a"))
    grid = grid_explore(data, space, FitConfig(replicates=1, mode="expected", seed=2))
    assert grid.points.shape == (8, 3)
    assert np.all(np.isfinite(grid.scores))
    assert grid.errors == []
    assert set(grid.point(0)) == {"mu", "gamma", "r"}


def test_grid_reproducible_and_jobs_invariant():
    space = small_space()
    data = surrogate_series({"mu": -125.0, "gamma": 6.25, "r": 0.3}, 40, derive_seed(63, "b"))
    config = FitConfig(replicates=2, seed=5)
    first = grid_explore(data, space, config)
    second = grid_explore(data, space, config)
    parallel = grid_explore(data, space, config, jobs=2)
    assert np.array_equal(first.scores, second.scores)
    assert np.array_equal(first.scores, parallel.scores)
    assert np.array_equal(first.mean_errors, parallel.mean_errors)


def test_failed_cells_recorded_without_aborting():
    # inter-cluster probability 0 disconnects the two blocks, so every
    # surrogate draw fails and every cell carries an error entry
    space = ParamSpace(
        bounds={"mu": (-100.0, 100.0), "gamma": (0.0, 10.0)},
        resolution={"mu": 2, "gamma": 2},
        pinned={"r": 0.0},
    )
    data = np.linspace(0.4, 0.3, 20)
    grid = grid_explore(data, space, FitConfig(replicates=1, seed=3))
    assert len(grid.errors) == 4
    assert np.all(np.isnan(grid.scores))
    assert "FitError" in grid.errors[0][1]
    with pytest.raises(FitError, match="every grid cell failed"):
        grid.best_index()


def test_a_cell_whose_replicates_raise_fails_alone():
    # any exception raised while building a surrogate fails the cell it
    # scores, as a generation failure does, and no other cell
    space = ParamSpace(bounds={"r": (0.1, 0.4)}, resolution={"r": 3}, pinned={"mu": -20.0, "gamma": 3.0})
    data = np.linspace(0.4, 0.3, 30)
    config = FitConfig(n=30, replicates=2, seed=7)
    plain = grid_explore(data, space, config)
    doomed = float(space.centers("r")[1])
    build = dynamics._replicate_inputs

    def failing(graph_spec, *args):
        if graph_spec.inter_prob == doomed:
            raise RuntimeError("surrogate build stand-in")
        return build(graph_spec, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_replicate_inputs", failing)
        grid = grid_explore(data, space, config)
    assert plain.errors == []
    assert grid.errors == [(1, "RuntimeError: surrogate build stand-in")]
    for i in (0, 2):
        for field in ("scores", "mean_errors", "error_stds"):
            assert repr(getattr(grid, field)[i]) == repr(getattr(plain, field)[i])
    assert math.isnan(grid.scores[1])


def test_grid_argmin_lands_in_generating_cell():
    # coarse 4x4 box around a truth point at a cell center; expected-mode
    # scoring keeps the data's sampling noise out of the comparison, and
    # n = 400 keeps surrogate-instance scatter below the cell contrast
    truth = {"mu": -125.0, "gamma": 6.25, "r": 0.3}
    space = ParamSpace(
        bounds={"mu": (-500.0, 500.0), "gamma": (0.0, 50.0)},
        resolution={"mu": 4, "gamma": 4},
        pinned={"r": 0.3},
    )
    hits = 0
    for k in range(10):
        data = surrogate_series(truth, 150, derive_seed(31, "data", k), n=400, mode="expected")
        config = FitConfig(replicates=1, n=400, mode="expected", seed=derive_seed(31, "cfg", k))
        grid = grid_explore(data, space, config)
        best = grid.point(grid.best_index())
        hits += abs(best["mu"] - truth["mu"]) < 125.0 and abs(best["gamma"] - truth["gamma"]) < 6.25
    assert hits >= 8


# ---------------------------------------------------------------------------
# annealing


def planted_scorer(center):
    return lambda point: sum((point[name] - center[name]) ** 2 for name in center)


def test_zero_budget_returns_start():
    space = small_space()
    start = {"mu": 10.0, "gamma": 3.0}
    best, score, trace = anneal(
        start, None, space, FitConfig(anneal_iters=0, seed=1), seed=4,
        scorer=planted_scorer({"mu": -100.0, "gamma": 1.0}),
    )
    assert best == start
    assert score == planted_scorer({"mu": -100.0, "gamma": 1.0})(start)
    assert trace.points == []


def test_best_trace_is_running_minimum():
    space = small_space()
    center = {"mu": -150.0, "gamma": 5.0}
    start = {"mu": 200.0, "gamma": 15.0}
    _, score, trace = anneal(
        start, None, space, FitConfig(anneal_iters=300, seed=1), seed=8,
        scorer=planted_scorer(center),
    )
    start_score = planted_scorer(center)(start)
    expected = np.minimum.accumulate(np.minimum(trace.scores, start_score))
    assert np.array_equal(trace.best_scores, expected)
    assert trace.best_scores[-1] == score


def test_anneal_reaches_planted_optimum():
    space = ParamSpace()
    rng = rng_from(77, "plant", 0)
    center = {name: float(rng.uniform(*space.bounds[name])) for name in space.axes}
    best, _, _ = anneal(
        {"mu": 0.0, "gamma": 25.0, "r": 0.25}, None, space,
        FitConfig(anneal_iters=2000, seed=derive_seed(77, "cfg", 0)),
        seed=derive_seed(77, "run", 0),
        scorer=planted_scorer(center),
    )
    distance = math.sqrt(sum((best[name] - center[name]) ** 2 for name in space.axes))
    diameter = math.sqrt(sum((hi - lo) ** 2 for lo, hi in space.bounds.values()))
    assert distance <= 0.05 * diameter


def test_acceptance_rate_matches_metropolis_rule():
    rng = np.random.default_rng(0)
    rate = np.mean([_accept(1.0, 1.0, rng) for _ in range(10_000)])
    assert abs(rate - math.exp(-1.0)) < 0.05


def test_downhill_always_accepted_and_cold_chain_rejects():
    rng = np.random.default_rng(0)
    assert _accept(-1e-9, 1e-12, rng)
    assert not _accept(1e-9, 0.0, rng)


def test_start_outside_box_rejected():
    with pytest.raises(FitError, match="outside the search box"):
        anneal({"mu": 400.0, "gamma": 3.0}, None, small_space(), FitConfig(seed=1), seed=2,
               scorer=planted_scorer({"mu": 0.0, "gamma": 0.0}))


def test_a_failed_start_raises_before_any_proposal_is_scored():
    failure = ValueError("start failure stand-in")
    bad = {"mu": 10.0, "gamma": 3.0}
    healthy = {"mu": -50.0, "gamma": 8.0}
    calls = []

    def scorer(point):
        calls.append(point)
        if point == bad:
            raise failure
        return 1.0

    config = FitConfig(anneal_iters=50, seed=1)
    with pytest.raises(ValueError) as alone:
        anneal(bad, None, small_space(), config, seed=6, scorer=scorer)
    assert alone.value is failure
    assert calls == [bad]
    calls.clear()
    with pytest.raises(ValueError) as lockstep:
        _run_chains([(healthy, 5), (bad, 6)], None, small_space(), config, scorer)
    assert lockstep.value is failure
    assert calls == [healthy, bad]


def test_failing_proposals_are_rejected_not_fatal():
    calls = []

    def scorer(point):
        calls.append(point)
        if len(calls) > 1:
            raise ValueError("surrogate failure stand-in")
        return 1.0

    start = {"mu": 10.0, "gamma": 3.0}
    best, score, trace = anneal(
        start, None, small_space(), FitConfig(anneal_iters=50, seed=1), seed=6, scorer=scorer
    )
    assert best == start
    assert score == 1.0
    assert trace.failures == 50
    assert not any(trace.accepted)


@pytest.mark.parametrize("mode", MODES)
def test_a_lone_chain_equals_the_same_chain_run_in_lockstep(mode):
    # a start near r = 0 clips some proposals onto r = 0.0, where every
    # surrogate fails, so the trace holds failed proposals
    space = ParamSpace()
    data = 0.2 + 0.1 * np.sin(np.linspace(0.0, 6.0, 40))
    config = FitConfig(n=30, replicates=2, mode=mode, anneal_iters=25, seed=11)
    start = {"mu": -20.0, "gamma": 3.0, "r": 0.01}
    others = [{"mu": 100.0, "gamma": 10.0, "r": 0.3}, {"mu": -200.0, "gamma": 1.0, "r": 0.45}]
    alone = anneal(start, data, space, config, seed=1)
    lockstep = _run_chains([(others[0], 3), (start, 1), (others[1], 4)], data, space, config)[1]

    def text(result):
        best, score, trace = result
        return (
            {name: repr(value) for name, value in best.items()},
            repr(score),
            [{name: repr(value) for name, value in point.items()} for point in trace.points],
            [repr(value) for value in trace.scores],
            trace.accepted,
            [repr(value) for value in trace.temps],
            [repr(value) for value in trace.best_scores],
            trace.failures,
        )

    assert alone[2].failures > 0
    assert text(alone) == text(lockstep)


def test_spread_starts_skip_adjacent_cells():
    space = ParamSpace(
        bounds={"mu": (-450.0, 450.0), "gamma": (0.0, 30.0)},
        resolution={"mu": 3, "gamma": 3},
        pinned={"r": 0.3},
    )
    mu_grid, gamma_grid = np.meshgrid(space.centers("mu"), space.centers("gamma"), indexing="ij")
    points = np.column_stack([mu_grid.ravel(), gamma_grid.ravel()])
    scores = np.full(9, 1.0)
    scores[3] = 0.1  # best
    scores[4] = 0.2  # same mu column, within one cell diagonal of the best
    scores[8] = 0.3  # far corner
    grid = GridResult(
        axes=["mu", "gamma"], points=points, scores=scores,
        mean_errors=scores, error_stds=np.zeros(9), errors=[],
    )
    assert _spread_starts(grid, space, 2) == [3, 8]


# ---------------------------------------------------------------------------
# full pipeline


def test_fit_is_bit_deterministic():
    first = run_small_fit()
    second = run_small_fit()
    assert first.best == second.best
    assert first.score == second.score
    assert first.error == second.error
    assert np.array_equal(first.grid.scores, second.grid.scores)
    assert [t.scores for t in first.traces] == [t.scores for t in second.traces]


def test_fit_jobs_do_not_change_results():
    serial = run_small_fit()
    data = surrogate_series({"mu": -125.0, "gamma": 6.25, "r": 0.3}, 60, derive_seed(61, "fitdata"))
    config = FitConfig(replicates=1, mode="expected", restarts=2, anneal_iters=30, seed=9)
    parallel = fit(data, small_space(), config, jobs=2)
    assert parallel.best == serial.best
    assert parallel.score == serial.score
    assert np.array_equal(parallel.grid.scores, serial.grid.scores)
    assert len(parallel.traces) == len(serial.traces) == 2
    for mine, theirs in zip(parallel.traces, serial.traces):
        assert mine == theirs


def gated_fit():
    """A fit whose grid and chains each pass both of fan_out's default gates."""
    data = surrogate_series({"mu": -125.0, "gamma": 6.25, "r": 0.3}, 700, derive_seed(61, "gated"), n=40)
    space = ParamSpace(bounds={"mu": (-300.0, 300.0), "gamma": (0.0, 20.0)}, resolution={"mu": 6, "gamma": 6},
                       pinned={"r": 0.3})
    config = FitConfig(n=40, replicates=3, mode="expected", restarts=2, anneal_iters=15, seed=4)
    cell = config.n * config.replicates * data.size
    assert 36 * cell >= 2 * dynamics._PART_WORK and 36 * config.replicates >= 2 * dynamics._PART_MEMBERS
    assert 2 * 16 * cell >= 2 * dynamics._PART_WORK and 2 * config.replicates >= 2 * dynamics._PART_MEMBERS
    return data, space, config


def no_pool(*args, **kwargs):
    raise AssertionError("fan_out started a process pool")


def fit_without_a_pool(inputs):
    # this runs in a pool worker, so the patch ends with it
    dynamics.ProcessPoolExecutor = no_pool
    return fit(*inputs)


def test_a_fit_in_a_worker_process_starts_no_pool(monkeypatch):
    inputs = gated_fit()
    with ProcessPoolExecutor(max_workers=1) as pool:
        nested = pool.submit(fit_without_a_pool, inputs).result()
    started = []
    real = dynamics.ProcessPoolExecutor

    def counted(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", counted)
    here = fit(*inputs)
    assert started == [2, 2]
    assert nested.best == here.best and nested.score == here.score
    assert [trace.scores for trace in nested.traces] == [trace.scores for trace in here.traces]


def test_fit_result_fields_are_consistent():
    result = run_small_fit()
    assert set(result.best) == {"mu", "gamma"}
    assert result.full_best()["r"] == 0.3
    assert result.score == result.error  # single replicate, no spread term
    assert result.error_std == 0.0
    assert result.scale > 0.0
    assert result.seed == 9
    assert len(result.traces) == 2
    assert all(len(t.scores) == 30 for t in result.traces)
    assert result.score <= np.nanmin(result.grid.scores)


def test_fit_needs_at_least_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        fit(np.array([0.5]), small_space(), FitConfig(seed=1))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fit_rejects_non_finite_data_before_simulating(monkeypatch, value):
    sims = 0
    run_members = dynamics._run_members

    def counted_run_members(members, *args, **kwargs):
        nonlocal sims
        sims += len(members)
        return run_members(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", counted_run_members)
    data = np.array([value, 1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite values"):
        fit(data, small_space(), FitConfig(seed=1))
    assert sims == 0
    with pytest.raises(ValueError, match="non-finite values"):
        evaluate_point({"mu": 0.0, "gamma": 1.0, "r": 0.3}, data, FitConfig(replicates=1, mode="expected"))
    assert sims == 1


def sbm_inter_prob(n, edges):
    """The inter_prob at which the default surrogate of n nodes, a two-block
    sbm of ratios (0.7, 0.3) at intra_prob 0.5, expects edges edges."""
    s1 = int(0.7 * n)
    return (edges - 0.5 * (math.comb(s1, 2) + math.comb(n - s1, 2))) / (s1 * (n - s1))


@pytest.mark.parametrize("pinned", [False, True])
def test_fit_rejects_a_surrogate_past_the_edge_cap_at_its_largest_r_before_any_runs(monkeypatch, pinned):
    # at n = 5400 the surrogate passes the graph edge cap from r = 0.126 on:
    # the searched box's cell centres lie below it, and its top one edge past it
    r = sbm_inter_prob(5400, 5_000_001)
    box = {"mu": (-100.0, 100.0), "gamma": (0.0, 10.0)}
    space = ParamSpace(bounds=box, pinned={"r": r}) if pinned else ParamSpace(bounds={**box, "r": (0.0, r)})

    def no_surrogate(*args):
        raise AssertionError("a surrogate was built")

    monkeypatch.setattr(dynamics, "_replicate_inputs", no_surrogate)
    with pytest.raises(GraphError, match="^this sbm graph expects 5000001 edges, more than the 5000000 allowed$"):
        fit(np.linspace(0.4, 0.3, 20), space, FitConfig(n=5400, replicates=1, seed=3))


def test_fit_aborts_when_every_cell_fails():
    space = ParamSpace(
        bounds={"mu": (-100.0, 100.0), "gamma": (0.0, 10.0)},
        resolution={"mu": 2, "gamma": 2},
        pinned={"r": 0.0},
    )
    with pytest.raises(FitError, match="every grid cell failed"):
        fit(np.linspace(0.4, 0.3, 20), space, FitConfig(replicates=1, seed=3))


def test_stubbornness_fit_searches_p():
    space = ParamSpace(
        bounds={"mu": (-100.0, 100.0), "p": (0.0, 0.4)},
        resolution={"mu": 2, "p": 2},
        pinned={"gamma": 0.0, "r": 0.2},
    )
    data = surrogate_series({"mu": -50.0, "gamma": 0.5, "r": 0.2}, 40, derive_seed(64, "a"))
    result = fit(data, space, FitConfig(replicates=1, mode="expected", restarts=2, anneal_iters=20, seed=11))
    assert set(result.best) == {"mu", "p"}
    assert 0.0 <= result.best["p"] <= 0.4


# ---------------------------------------------------------------------------
# identifiability curve


def unit_grid_points(side=40):
    axis = np.linspace(0.0, 1.0, side)
    mesh_x, mesh_y = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([mesh_x.ravel(), mesh_y.ravel()])


def test_planted_basin_has_positive_sharpness():
    points = unit_grid_points()
    scores = np.linalg.norm(points - np.array([0.3, 0.7]), axis=1)
    curve = identifiability(points, scores, q_range=(1e-2, 1e-1), n_q=9, bootstrap=10, seed=3)
    assert np.all(curve.chi > curve.noise)
    assert curve.chi[0] > curve.chi[-1]


def test_sharpness_depends_only_on_score_ranking():
    points = unit_grid_points()
    scores = np.linalg.norm(points - np.array([0.3, 0.7]), axis=1)
    base = identifiability(points, scores, q_range=(1e-2, 1e-1), seed=3)
    warped = identifiability(points, np.exp(3.0 * scores) + 7.0, q_range=(1e-2, 1e-1), seed=3)
    assert np.array_equal(base.chi, warped.chi)
    assert np.array_equal(base.noise, warped.noise)


def test_random_scores_sit_within_bootstrap_noise():
    points = unit_grid_points()
    scores = np.random.default_rng(0).random(points.shape[0])
    curve = identifiability(points, scores, q_range=(1e-2, 1e-1), n_q=9, bootstrap=10, seed=3)
    assert np.all(np.abs(curve.chi) <= curve.noise)


def test_failed_cells_are_dropped_from_the_curve():
    points = unit_grid_points()
    scores = np.linalg.norm(points - np.array([0.3, 0.7]), axis=1)
    scores[::7] = np.nan
    curve = identifiability(points, scores, q_range=(1e-2, 1e-1), seed=3)
    assert np.all(np.isfinite(curve.chi))


@pytest.mark.parametrize("kwargs", [dict(bootstrap=0), dict(n_q=0)])
def test_empty_bootstrap_or_curve_rejected(kwargs):
    points = unit_grid_points()
    scores = np.linalg.norm(points - np.array([0.3, 0.7]), axis=1)
    with pytest.raises(ValueError, match="must be at least 1"):
        identifiability(points, scores, q_range=(1e-2, 1e-1), **kwargs)


def test_small_grid_rejected_with_required_size():
    points = unit_grid_points(10)
    scores = np.zeros(100)
    with pytest.raises(ValueError, match="need at least 10000 cells"):
        identifiability(points, scores, q_range=(1e-4, 1e-2))


def test_failed_cells_do_not_count_towards_the_grid_size():
    points = unit_grid_points(100)
    scores = np.zeros(points.shape[0])
    scores[50:] = np.nan  # 50 of 10000 cells scored
    with pytest.raises(ValueError, match="50 valid cells of 10000.*need at least 10000 cells"):
        identifiability(points, scores, q_range=(1e-4, 1e-2))


def test_a_q_min_of_one_cell_takes_one_cell_where_logspace_rounds_it_down():
    # 10 ** log10(1 / 7) * 7 is 0.9999999999999998: the best set was empty
    # and its mean warned, though the grid holds the one cell q_min asks for
    points = np.linspace(0.0, 1.0, 7)[:, None]
    curve = identifiability(points, points[:, 0] ** 2, q_range=(1 / 7, 1.0), n_q=1, bootstrap=2)
    assert math.floor(curve.qs[0] * 7) == 0
    assert np.isfinite(curve.chi).all()


def test_identifiability_input_validation():
    with pytest.raises(ValueError, match="do not match"):
        identifiability(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="invalid q range"):
        identifiability(np.zeros((5, 2)), np.zeros(5), q_range=(1e-2, 1e-3))


def test_identifiability_takes_quantiles_up_to_one():
    # a quantile past 1 asks for more best cells than the grid holds
    points = np.linspace(0.0, 1.0, 20)[:, None]
    with pytest.raises(ValueError, match=r"invalid q range \(0.1, 2.0\); need 0 < q_lo <= q_hi <= 1"):
        identifiability(points, points[:, 0], q_range=(0.1, 2.0))
    curve = identifiability(points, points[:, 0], q_range=(0.1, 1.0), n_q=2, bootstrap=2)
    # the best cells at q = 1 are every cell, as is any draw of them, so
    # chi there is zero up to the rounding of their mean
    assert curve.qs[-1] == 1.0 and abs(curve.chi[-1]) < 1e-12


# ---------------------------------------------------------------------------
# csv round-trips


def test_fit_csv_row_matches_result(tmp_path):
    result = run_small_fit()
    path = tmp_path / "fit.csv"
    write_fit_csv(result, path, "demo")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "error", "mu", "gamma", "r", "p", "scale", "seed"]
    assert rows[1][0] == "demo"
    assert float(rows[1][1]) == result.error
    assert float(rows[1][4]) == 0.3  # pinned r lands in the summary row
    assert float(rows[1][5]) == 0.0  # no stubbornness axis
    assert int(rows[1][7]) == result.seed


def test_grid_csv_roundtrip_is_exact(tmp_path):
    result = run_small_fit()
    path = tmp_path / "grid.csv"
    write_grid_csv(result.grid, path)
    axes, points, scores = read_grid_csv(path)
    assert axes == result.grid.axes
    assert np.array_equal(points, result.grid.points)
    assert np.array_equal(scores, result.grid.scores)


def test_read_grid_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a grid csv"):
        read_grid_csv(path)


def test_read_grid_rejects_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("mu,gamma,score,mean_error,error_std\n")
    with pytest.raises(ValueError, match="no grid rows"):
        read_grid_csv(path)


def test_chi_csv_layout(tmp_path):
    points = unit_grid_points()
    scores = np.linalg.norm(points - np.array([0.3, 0.7]), axis=1)
    curve = identifiability(points, scores, q_range=(1e-2, 1e-1), n_q=5, seed=3)
    path = tmp_path / "chi.csv"
    write_chi_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "chi"]
    assert len(rows) == 6
    assert [float(row[0]) for row in rows[1:]] == pytest.approx(curve.qs)
