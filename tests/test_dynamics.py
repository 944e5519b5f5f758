"""The one-step reference (event_probability and _advance), the coupled
simulation loop, and the model's pathwise guarantees."""

import math
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec

from gsm_degroot import dynamics
from gsm_degroot import graph as graph_module
from gsm_degroot.dynamics import (
    MAX_HORIZON,
    MODES,
    OVERFLOW_LIMIT,
    ModelParams,
    OpinionOverflowError,
    Population,
    PopulationSpec,
    RunSummary,
    _advance,
    _block_diagonal,
    _dense_operator,
    event_probability,
    fan_out,
    replicate,
    replicate_summaries,
    sample_reactions,
    simulate,
)
from gsm_degroot.graph import (
    GenerationError,
    GraphGenSpec,
    WeightedDigraph,
    from_dense,
    from_edges,
    generate,
    identity_graph,
    stationary_distribution,
)
from gsm_degroot.seeds import rng_from
from signed_weights import random_signed_weights, signed_opinion_step


def uniform_population(n, reactions=1.0, opinions=0.0, **kwargs):
    return Population(
        reactions=np.full(n, reactions),
        initial_opinions=np.full(n, float(opinions)),
        **kwargs,
    )


def first_step(opinions, gamma):
    """Expected-mode run of two ticks on the identity graph: (events, push).

    The identity graph leaves opinions unmixed and every reaction is +1, so
    opinions[1] - opinions[0] is the feedback gamma * event fraction.
    """
    opinions = np.asarray(opinions, dtype=np.float64)
    pop = Population(np.ones(opinions.size), opinions)
    traj = simulate(identity_graph(opinions.size), pop, ModelParams(gamma=gamma), horizon=2,
                    seed=0, mode="expected", check_connectivity=False)
    return traj.states[0], traj.opinions[1] - traj.opinions[0]


# ---------------------------------------------------------------------------
# initial opinions and event probabilities


def test_zero_sigma_gives_constant_opinions():
    pop = PopulationSpec().build(5, rng_from(1), mu=3.0, sigma=0.0)
    np.testing.assert_array_equal(pop.initial_opinions, np.full(5, 3.0))


def test_init_opinions_mean_matches_mu():
    draws = PopulationSpec().build(10_000, rng_from(42), mu=-2.0, sigma=1.0).initial_opinions
    assert abs(draws.mean() - (-2.0)) < 4 / 100  # four standard errors


def test_init_opinions_deterministic():
    first, second = (PopulationSpec().build(50, rng_from(7), mu=0.0, sigma=1.0) for _ in range(2))
    np.testing.assert_array_equal(first.initial_opinions, second.initial_opinions)


@pytest.mark.parametrize("mu, sigma", [(0.0, 1e308), (1e308, 1e308)])
def test_a_start_draw_past_the_floats_names_mu_and_sigma(mu, sigma):
    with pytest.raises(ValueError) as caught:
        PopulationSpec().build(30, rng_from(1), mu=mu, sigma=sigma)
    assert str(caught.value) == f"initial opinions drawn with mu {mu} and sigma {sigma} are not all finite"


def test_init_opinions_rejects_negative_sigma():
    with pytest.raises(ValueError, match="sigma"):
        ModelParams(sigma=-1.0)


def test_event_probability_at_zero_is_half():
    assert event_probability(np.zeros(3), lam=0.7).tolist() == [0.5, 0.5, 0.5]


def test_event_probability_closed_form():
    p = event_probability(np.array([1.0]), lam=2.0)[0]
    assert abs(p - 1.0 / (1.0 + math.exp(-2.0))) < 1e-12
    assert abs(p - 0.880797) < 1e-6


def test_event_probability_at_search_boundary():
    # mu = -500 with lam = 0.01 sits five sigmoid units below zero
    p = event_probability(np.array([-500.0]), lam=0.01)[0]
    assert abs(p - 0.006693) < 1e-6


def test_event_probability_saturates_without_nan():
    p = event_probability(np.array([-1e9, 1e9]), lam=1.0)
    np.testing.assert_array_equal(p, [0.0, 1.0])


def test_state_step_deterministic_and_binary():
    # the event row of tick 0 is one draw of the simulate stream against
    # the event probabilities
    x = np.linspace(-2, 2, 40)
    pop = Population(np.ones(40), x)
    a, b = (simulate(identity_graph(40), pop, ModelParams(), horizon=1, seed=123,
                     check_connectivity=False).states[0] for _ in range(2))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {0, 1}
    draws = np.random.default_rng(123).random(40)
    np.testing.assert_array_equal(a, (draws < event_probability(x, 1.0)).astype(np.int8))


def test_state_step_frequency_tracks_probability():
    pop = Population(np.ones(10_000), np.zeros(10_000))
    draws = simulate(identity_graph(10_000), pop, ModelParams(), horizon=1, seed=5,
                     check_connectivity=False).states[0]
    assert abs(draws.mean() - 0.5) < 4 * 0.5 / 100


# ---------------------------------------------------------------------------
# steering: the feedback gamma * event fraction


def test_steering_no_events():
    events, push = first_step(np.full(8, -1e9), gamma=5.0)
    assert events.sum() == 0.0
    np.testing.assert_array_equal(push, 0.0)


def test_steering_all_events():
    events, push = first_step(np.full(8, 1e9), gamma=5.0)
    assert events.sum() == 8.0
    np.testing.assert_array_equal(push, 5.0)


def test_steering_quarter():
    _, push = first_step(np.array([1e9, -1e9, -1e9, -1e9]), gamma=2.0)
    np.testing.assert_array_equal(push, 0.5)


# ---------------------------------------------------------------------------
# one opinion update: _advance


def test_pure_steering_adds_feedback():
    g = identity_graph(2)
    pop = uniform_population(2, reactions=1.0, opinions=1.0)
    nxt = _advance(np.ones(2), 0.3 * 1.0, g.matrix, pop)
    np.testing.assert_allclose(nxt, 1.3)


def test_swap_graph_permutes_opinions():
    g = from_edges(2, [(1, 0, 1.0), (0, 1, 1.0)])
    pop = uniform_population(2)
    nxt = _advance(np.array([0.0, 1.0]), 0.0, g.matrix, pop)
    np.testing.assert_array_equal(nxt, [1.0, 0.0])


def test_averaging_graph_blends_opinions():
    g = from_dense(np.full((2, 2), 0.5))
    pop = uniform_population(2)
    nxt = _advance(np.array([0.0, 1.0]), 0.0, g.matrix, pop)
    np.testing.assert_allclose(nxt, [0.5, 0.5])


def test_a_zero_susceptibility_agent_never_moves():
    g = from_dense(np.full((2, 2), 0.5))
    pop = Population(
        reactions=np.ones(2),
        initial_opinions=np.array([7.0, 0.0]),
        susceptibility=np.array([0.0, 1.0]),
    )
    nxt = _advance(np.array([7.0, 0.0]), 1.0 * 1.0, g.matrix, pop)
    assert nxt[0] == 7.0
    assert nxt[1] != 0.0


def test_partial_stubbornness_blends_toward_initial():
    g = identity_graph(1)
    pop = Population(
        reactions=np.array([1.0]),
        initial_opinions=np.array([2.0]),
        susceptibility=0.25,
    )
    # full update would give 5 + 1*0.4; blend keeps 3/4 of the anchor
    nxt = _advance(np.array([5.0]), 0.4 * 1.0, g.matrix, pop)
    np.testing.assert_allclose(nxt, [0.25 * 5.4 + 0.75 * 2.0])


def test_unit_susceptibility_reduces_to_plain_update():
    g = from_dense(np.full((3, 3), 1 / 3))
    x = np.array([1.0, -2.0, 0.5])
    pop_plain = uniform_population(3, opinions=9.0)
    pop_blend = uniform_population(3, opinions=9.0, susceptibility=1.0)
    g_push = 0.7 * 2 / 3  # two of three agents act
    np.testing.assert_array_equal(
        _advance(x, g_push, g.matrix, pop_plain), _advance(x, g_push, g.matrix, pop_blend)
    )


# ---------------------------------------------------------------------------
# simulate


def test_degroot_consensus_reaches_stationary_mixture():
    graph = generate(GraphGenSpec(family="sbm", n=30, seed=6, ensure_self_loops=True))
    pop = PopulationSpec().build(30, rng_from(6, "pop"), mu=0.0, sigma=1.0)
    traj = simulate(graph, pop, ModelParams(lam=1.0, gamma=0.0), horizon=1500, seed=1)
    target = stationary_distribution(graph) @ pop.initial_opinions
    np.testing.assert_allclose(traj.opinions[-1], target, atol=1e-6)


def test_narrowing_without_steering():
    graph = generate(GraphGenSpec(family="watts-strogatz", n=25, k=4, seed=9))
    pop = PopulationSpec().build(25, rng_from(9, "pop"), mu=0.0, sigma=1.0)
    traj = simulate(graph, pop, ModelParams(gamma=0.0), horizon=200, seed=2)
    mins = traj.opinions.min(axis=1)
    maxs = traj.opinions.max(axis=1)
    assert np.all(np.diff(mins) >= -1e-12)
    assert np.all(np.diff(maxs) <= 1e-12)


def test_mean_identity_on_doubly_stochastic_substrate():
    # incoming sums and outgoing sums both 1, so mixing preserves the mean
    n = 20
    op = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    graph = from_dense(op)
    rng = rng_from(3, "pop")
    pop = Population(
        reactions=sample_reactions(n, 0.7, rng, exact=True),
        initial_opinions=rng.normal(0.0, 1.0, n),
    )
    traj = simulate(graph, pop, ModelParams(lam=1.0, gamma=0.8), horizon=100, seed=5,
                    check_connectivity=False)
    beta = 0.7
    steps = np.diff(traj.mean_opinion)
    predicted = (2 * beta - 1) * 0.8 * traj.event_fraction[:-1]
    np.testing.assert_allclose(steps, predicted, rtol=0, atol=1e-12)


def test_identity_graph_groups_diverge_monotonically():
    n = 10
    pop = Population(
        reactions=np.array([1.0] * 5 + [-1.0] * 5),
        initial_opinions=np.zeros(n),
    )
    traj = simulate(identity_graph(n), pop, ModelParams(lam=1.0, gamma=1.0), horizon=300,
                    seed=11, check_connectivity=False)
    pos = traj.opinions[:, :5]
    neg = traj.opinions[:, 5:]
    active = traj.event_fraction[:-1] > 0
    assert np.all(np.diff(pos, axis=0)[active] >= 0)
    assert np.all(np.diff(neg, axis=0)[active] <= 0)
    gap = pos.min(axis=1) - neg.max(axis=1)
    assert np.all(np.diff(gap)[active] >= 0)


def test_expected_mode_is_deterministic_and_smooth():
    graph = generate(GraphGenSpec(family="sbm", n=40, seed=14))
    pop = PopulationSpec().build(40, rng_from(14, "pop"), mu=0.0, sigma=1.0)
    params = ModelParams(lam=1.0, gamma=0.5)
    a = simulate(graph, pop, params, horizon=50, seed=1, mode="expected")
    b = simulate(graph, pop, params, horizon=50, seed=99, mode="expected")
    np.testing.assert_array_equal(a.opinions, b.opinions)  # seed is irrelevant
    np.testing.assert_allclose(
        a.states[0], event_probability(pop.initial_opinions, 1.0), atol=1e-15
    )
    assert a.states.dtype == np.float64


def test_trajectory_recorded_series_are_consistent(monkeypatch):
    # a dense operator, a hub-heavy sparse one, and a start with no spread,
    # each alone and as the first and last member of a batch of 3 whose
    # middle member overflows mid-run. The loop takes the sums and spreads
    # of its opinion rows in blocks; 62 ticks are no multiple of a block (16
    # rows at n = 2000 alone, 5 in the batch; 9 and 3 under the budget set
    # below at n = 15, and one block that ends at the last tick under the
    # default). The same batch without record takes each spread from the
    # current row. Bytes, because assert_array_equal takes -0.0 for 0.0
    default = dynamics._MEAN_BYTES
    cases = [("erdos-renyi", 15, 1.0, 8 * 15 * 9), ("erdos-renyi", 15, 1.0, default),
             ("barabasi-albert", 2000, 1.0, default), ("erdos-renyi", 15, 0.0, default)]
    for mode, (family, n, sigma, mean_bytes) in product(MODES, cases):
        monkeypatch.setattr(dynamics, "_MEAN_BYTES", mean_bytes)
        graph = generate(GraphGenSpec(family=family, n=n, edge_prob=0.4, seed=2))
        pop = PopulationSpec().build(n, rng_from(2, "pop"), mu=-1.0, sigma=sigma)
        params = ModelParams(lam=0.5, gamma=0.2)
        surge = (graph, Population(np.ones(n), np.zeros(n)), replace(params, gamma=1e11), 4)
        lone = simulate(graph, pop, params, horizon=62, seed=3, mode=mode)
        batch = [(graph, pop, params, 3), surge, (graph, pop, replace(params, gamma=0.3), 5)]
        first, failed, last = member_runs(batch, 62, mode, record=True)
        assert isinstance(failed, OpinionOverflowError) and 1 < failed.step < 50
        assert first.mean_opinion.tobytes() == lone.mean_opinion.tobytes()
        summaries = member_runs(batch, 62, mode, spread=True)
        assert str(summaries[1]) == str(failed)
        for traj, summary in zip((first, last), summaries[::2]):
            assert summary.max_diversity.tobytes() == traj.max_diversity.tobytes()
        for traj in (lone, first, last):
            assert traj.opinions.shape == (62, n)
            assert traj.states.shape == (62, n)
            assert traj.states.dtype == (np.int8 if mode == "stochastic" else np.float64)
            assert traj.event_fraction.tobytes() == (traj.states.sum(axis=1) / n).tobytes()
            assert traj.mean_opinion.tobytes() == traj.opinions.mean(axis=1).tobytes()
            spread = traj.opinions.max(axis=1) - traj.opinions.min(axis=1)
            assert traj.max_diversity.dtype == spread.dtype and traj.max_diversity.tobytes() == spread.tobytes()
            assert np.all(traj.max_diversity >= 0)
            assert (traj.max_diversity[0] == 0.0) == (sigma == 0.0)


@pytest.mark.parametrize("mode", MODES)
def test_a_recorded_run_always_keeps_its_spread(tmp_path, mode):
    # record implies the spread: a Trajectory's max_diversity is never None,
    # so its summary file can always be written
    graph = generate(GraphGenSpec(family="watts-strogatz", n=40, k=4, seed=6))
    pop = PopulationSpec().build(40, rng_from(6, "pop"), mu=0.0, sigma=1.0)
    members = [(graph, pop, ModelParams(lam=1.0, gamma=gamma), seed) for seed, gamma in enumerate([0.2, 0.5])]
    for run in member_runs(members, 30, mode, record=True):
        spread = run.opinions.max(axis=1) - run.opinions.min(axis=1)
        assert run.max_diversity.tobytes() == spread.tobytes()
        run.write_summary_csv(tmp_path / "trajectory.csv")


def test_write_agent_csv_rejects_an_unknown_matrix(tmp_path):
    traj = simulate(identity_graph(3), uniform_population(3), ModelParams(), horizon=2, seed=0,
                    check_connectivity=False)
    traj.write_agent_csv(tmp_path / "states.csv", which="states")
    assert (tmp_path / "states.csv").read_text().splitlines()[1] == "0," + ",".join(map(str, traj.states[0]))
    with pytest.raises(ValueError, match="which must be 'opinions' or 'states', got 'opinion'"):
        traj.write_agent_csv(tmp_path / "typo.csv", which="opinion")
    assert not (tmp_path / "typo.csv").exists()


def test_simulate_is_deterministic_given_seed():
    graph = generate(GraphGenSpec(family="barabasi-albert", n=30, m=2, seed=4))
    pop = PopulationSpec().build(30, rng_from(4, "pop"), mu=0.0, sigma=1.0)
    params = ModelParams(lam=1.0, gamma=0.3)
    a = simulate(graph, pop, params, horizon=80, seed=21)
    b = simulate(graph, pop, params, horizon=80, seed=21)
    np.testing.assert_array_equal(a.opinions, b.opinions)
    np.testing.assert_array_equal(a.states, b.states)


def test_overflow_abort_names_the_step():
    pop = uniform_population(4, opinions=1000.0)
    # 1000 * 2^30 is the first doubling past the 1e12 guard
    with pytest.raises(OpinionOverflowError, match="step 30"):
        simulate(identity_graph(4), pop, ModelParams(lam=1.0, gamma=0.0), horizon=100,
                 seed=0, check_connectivity=False, weight_scale=2.0)


def test_simulate_validates_inputs():
    graph = identity_graph(3)
    pop = uniform_population(3)
    params = ModelParams()
    with pytest.raises(ValueError, match="strongly connected"):
        simulate(graph, pop, params, horizon=10, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        simulate(graph, pop, params, horizon=0, seed=0, check_connectivity=False)
    with pytest.raises(ValueError, match="mode"):
        simulate(graph, pop, params, horizon=10, seed=0, mode="median",
                 check_connectivity=False)
    with pytest.raises(ValueError, match="population size"):
        simulate(graph, uniform_population(4), params, horizon=10, seed=0,
                 check_connectivity=False)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="weight_scale must be positive"):
            simulate(graph, pop, params, horizon=10, seed=0, check_connectivity=False, weight_scale=scale)


def test_a_horizon_is_capped_before_the_tick_loop_allocates(monkeypatch):
    # the tick loop is replaced, so a horizon at the cap is only checked
    ran = []
    monkeypatch.setattr(dynamics, "_run_members", lambda members, horizon, mode, **kwargs: (
        ran.append(horizon) or [f"ran {horizon}"] * len(members)))
    graph, pop, params = identity_graph(3), uniform_population(3), ModelParams()
    tasks = [(GraphGenSpec(family="watts-strogatz", n=20, k=4), PopulationSpec(), params, 1, 1.0)]
    assert MAX_HORIZON == 10**6
    assert simulate(graph, pop, params, horizon=MAX_HORIZON, seed=0, check_connectivity=False) == "ran 1000000"
    assert list(replicate_summaries(tasks, MAX_HORIZON)) == ["ran 1000000"]
    message = "horizon must lie in [1, 1000000], got 1000001"
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(graph, pop, params, horizon=MAX_HORIZON + 1, seed=0, check_connectivity=False)
    [rejected] = replicate_summaries(tasks, MAX_HORIZON + 1)
    assert isinstance(rejected, ValueError) and str(rejected) == message
    assert ran == [MAX_HORIZON, MAX_HORIZON]


def test_replicate_ignores_the_spec_seed():
    spec = GraphGenSpec(family="sbm", n=30, seed=1)
    args = (PopulationSpec(stubborn_fraction=0.1), ModelParams(lam=1.0, gamma=0.4), 40, 8)
    pop_a, traj_a = replicate(spec, *args)
    pop_b, traj_b = replicate(replace(spec, seed=2), *args)
    np.testing.assert_array_equal(pop_a.susceptibility, pop_b.susceptibility)
    assert traj_a.opinions.tobytes() == traj_b.opinions.tobytes()
    assert traj_a.states.tobytes() == traj_b.states.tobytes()


def divmods(part, divisor):
    return [divmod(item, divisor) for item in part]


def test_fan_out_keeps_task_order_at_any_jobs():
    items = [7, 9, 1, 20, 5]
    want = [divmod(item, 3) for item in items]
    assert fan_out(divmods, items, 3, work=[1] * 5, members=1) == want
    assert fan_out(divmods, items, 3, work=[1] * 5, members=1, jobs=2) == want
    assert fan_out(divmods, [], 3, work=[], members=1, jobs=2) == []


def no_pool(*args, **kwargs):
    raise AssertionError("fan_out started a process pool")


@pytest.mark.parametrize("cpus", [1, None])
def test_fan_out_starts_no_more_workers_than_cpus(monkeypatch, cpus):
    # without an affinity set, the usable CPUs are os.cpu_count(), or 1 when unknown
    monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", no_pool)
    assert fan_out(lambda part: [os.getpid() for _ in part], list(range(20)), work=[1] * 20, members=1,
                   jobs=8) == [os.getpid()] * 20


def test_fan_out_counts_the_cpus_of_its_affinity_set(monkeypatch):
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", no_pool)
    items = list(range(20))
    big = [dynamics._PART_WORK] * len(items)
    for jobs in (None, 8):
        assert fan_out(lambda part: part, items, jobs=jobs, work=big, members=dynamics._PART_MEMBERS) == items


@pytest.mark.parametrize("parts", [2, 3])
def test_fan_out_by_default_starts_as_many_workers_as_both_gates_allow(monkeypatch, parts):
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(dynamics, "_PART_WORK", 120)
    monkeypatch.setattr(dynamics, "_PART_MEMBERS", 3)
    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", Pool)
    items = list(range(12))
    # the work gate: 12 items of 10 * parts work and 12 * 5 members
    assert fan_out(lambda part: part, items, work=[10 * parts] * 12, members=5) == items
    assert started == [parts]
    # the member gate: 12 members over 3 a part
    assert fan_out(lambda part: part, items, work=[1000] * 12, members=1) == items
    assert started == [parts, 4]
    # below either gate, or at jobs=1, no pool starts
    assert fan_out(lambda part: part, items, work=[19] * 12, members=5) == items
    assert fan_out(lambda part: part, items, work=[1000] * 12, members=5, jobs=1) == items
    assert started == [parts, 4]


def test_fan_out_keeps_the_fit_mixing_chains_in_one_process(monkeypatch):
    # the benchmark's fit-mixing shape: three chains of one expected-mode
    # replicate each, n = 100, 2000 ticks, 200 anneal steps. Three lockstep
    # members split 1 + 2 lose more batch width than the second core gains.
    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", no_pool)
    chains = ["first", "second", "third"]
    assert fan_out(lambda part: part, chains, work=[201 * 100 * 2000] * 3, members=1) == chains


def test_fan_out_leaves_no_worker_behind():
    items = list(range(6))
    assert fan_out(divmods, items, 4, work=[1, 1, 1, 1, 1, 50], members=1, jobs=2) == [divmod(i, 4) for i in items]
    assert multiprocessing.active_children() == []


@given(work=st.lists(st.one_of(st.just(0), st.integers(0, 10), st.integers(0, 10**9)), min_size=1, max_size=40),
       count=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_parts_are_contiguous_and_cut_by_cumulative_work(work, count):
    count = min(count, len(work))
    items = list(range(len(work)))
    parts = dynamics._parts(items, work, count)
    assert len(parts) == count
    assert all(parts)
    assert [item for part in parts for item in part] == items
    total, largest = sum(work), max(work)
    for part in parts:
        assert sum(work[i] for i in part) * count <= total + largest * count


@given(items=st.lists(st.integers(-100, 100), max_size=12), jobs=st.sampled_from([None, 1, 2, 3]),
       dominant=st.booleans())
@settings(max_examples=12, deadline=None)
def test_fan_out_returns_fn_of_all_items_at_any_jobs(items, jobs, dominant):
    work = [dynamics._PART_WORK * (50 if dominant and i == 0 else 1) for i in range(len(items))]
    assert fan_out(divmods, items, 7, jobs=jobs, work=work, members=dynamics._PART_MEMBERS) == divmods(items, 7)


# ---------------------------------------------------------------------------
# simulate against the one-step reference


def reference_simulate(graph, population, params, horizon, seed, mode, weight_scale=1.0):
    """simulate rebuilt from event_probability and _advance, with a fresh
    array per step and the event draws of one shared Generator.

    Returns (opinions, states, event_fraction). simulate mixes small dense
    graphs with the dense operator, whose products round differently from
    the sparse ones, so the reference chooses its operator by the same rule.
    """
    operator = graph.matrix.toarray() if _dense_operator(graph) else graph.matrix
    rng = np.random.default_rng(seed)
    x = population.initial_opinions.copy()
    opinions, states = [], []
    for t in range(horizon):
        opinions.append(x)
        p = event_probability(x, params.lam)
        s_row = (rng.random(p.size) < p).astype(np.int8) if mode == "stochastic" else p
        states.append(s_row)
        if t + 1 == horizon:
            break
        g = params.gamma * (float(s_row.sum()) / s_row.size)
        x = _advance(x, g, operator, population, weight_scale)
        peak = np.abs(x).max()
        if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
            raise OpinionOverflowError(step=t + 1, magnitude=float(peak))
    states = np.array(states)
    return np.array(opinions), states, states.sum(axis=1) / graph.n


def assert_same_run(graph, population, params, horizon, seed, mode, weight_scale=1.0):
    """simulate and reference_simulate agree bit for bit, or fail alike."""
    def run(fn):
        try:
            return fn(graph, population, params, horizon, seed, mode, weight_scale=weight_scale)
        except OpinionOverflowError as exc:
            return exc
    got, want = run(simulate), run(reference_simulate)
    if isinstance(want, OpinionOverflowError):
        assert isinstance(got, OpinionOverflowError)
        assert (got.step, repr(got.magnitude)) == (want.step, repr(want.magnitude))
        return want
    assert not isinstance(got, OpinionOverflowError), got
    for mine, theirs in zip((got.opinions, got.states, got.event_fraction), want):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    return got


@pytest.fixture(scope="module", params=["dense", "sparse", "hubs"])
def mixing_graph(request):
    if request.param == "dense":
        return generate(GraphGenSpec(family="sbm", n=100, seed=12, inter_prob=0.05))
    if request.param == "hubs":
        # rows of many lengths, which the sparse product takes sorted by length
        return generate(GraphGenSpec(family="barabasi-albert", n=2000, m=3, seed=12))
    return generate(GraphGenSpec(family="watts-strogatz", n=600, k=6, seed=12))


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
@pytest.mark.parametrize("variant", ["plain", "stubborn", "susceptibility", "susceptibility_per_agent", "scaled",
                                     "decayed"])
def test_simulate_equals_the_step_helpers_bit_for_bit(mixing_graph, mode, variant):
    n = mixing_graph.n
    spec = PopulationSpec(
        positive_fraction=0.6,
        stubborn_fraction=0.1 if variant == "stubborn" else 0.0,
        susceptibility=0.7 if variant == "susceptibility" else 1.0,
    )
    pop = spec.build(n, rng_from(5, "pop"), mu=0.3, sigma=1.5)
    if variant == "susceptibility_per_agent":
        pop = Population(pop.reactions, pop.initial_opinions, susceptibility=np.linspace(0.4, 1.0, n))
    # at gain 0.9 the bound's floor term binds
    weight_scale = {"scaled": 1.01, "decayed": 0.9}.get(variant, 1.0)
    run = assert_same_run(mixing_graph, pop, ModelParams(lam=1.3, gamma=0.8), 300, 17, mode, weight_scale)
    assert run.horizon == 300


@pytest.mark.parametrize("mode", MODES)
def test_a_runaway_run_with_a_floored_sigmoid_equals_the_step_helpers(mode):
    # sweep-regimes' cell at gamma 2, beta 0.9: the opinions climb past 745,
    # so the sigmoid's arguments cross np.exp's subnormal band to below
    # -745, and the tick floors them once lam times its bound passes 708
    graph = generate(GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.1, seed=4))
    pop = PopulationSpec(positive_fraction=0.9).build(300, rng_from(4, "pop"), mu=0.0, sigma=1.0)
    run = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=2.0), 1000, 9, mode)
    assert run.opinions[-1].max() > 745.0


def test_the_sigmoid_keeps_its_bytes_with_its_exponent_floored():
    z = np.concatenate([np.linspace(-800.0, 40.0, 200_001), np.linspace(-745.2, -708.3, 100_001),
                        np.linspace(-41.0, -36.0, 100_001), [-np.inf, np.inf, np.nan, -0.0, -1e308]])
    with np.errstate(over="ignore"):
        plain = 1.0 / (1.0 + np.exp(z))
        floored = 1.0 / (1.0 + np.exp(np.maximum(z, dynamics._EXP_FLOOR)))
    assert floored.tobytes() == plain.tobytes()


def test_simulate_returns_its_rows_without_copying_them():
    graph = generate(GraphGenSpec(family="watts-strogatz", n=2000, k=6, seed=3))
    pop = PopulationSpec().build(2000, rng_from(3, "pop"), mu=0.0, sigma=1.0)
    tracemalloc.start()
    try:
        run = simulate(graph, pop, ModelParams(lam=1.0, gamma=0.5), 500, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (run.opinions.nbytes + run.states.nbytes)


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_overflow_under_slow_growth_matches_the_step_helpers(mode):
    # growth of 1.01 * 0.999 per step plus a large feedback: the magnitude
    # estimate nears the limit long before the opinions do
    graph = generate(GraphGenSpec(family="watts-strogatz", n=50, k=4, seed=9))
    pop = Population(np.where(np.arange(50) % 3 == 0, -1.0, 1.0), np.linspace(-1.0, 2.0, 50),
                     susceptibility=0.999)
    err = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=1e6), 2000, 1, mode, weight_scale=1.01)
    assert isinstance(err, OpinionOverflowError)
    assert err.step > 1000


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_opinions_below_the_limit_run_on_after_the_estimate_passes_it(mode):
    # the blend and balanced reactions hold the opinions near gamma / 2,
    # while the magnitude estimate, blind to the blend, grows by about
    # gamma / 2 per step and passes 1e12 every 200 steps or so
    n = 40
    graph = generate(GraphGenSpec(family="erdos-renyi", n=n, edge_prob=0.3, seed=3))
    pop = Population(np.where(np.arange(n) % 2 == 0, -1.0, 1.0), np.zeros(n), susceptibility=0.5)
    run = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=1e10), 1000, 2, mode)
    assert run.horizon == 1000
    assert np.abs(run.opinions).max() < OVERFLOW_LIMIT


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_signed_weights_overflow_at_the_step_of_the_step_helpers(mode):
    # rows sum to 1 but their absolute sums are 2, so the opinions double
    graph = WeightedDigraph(sparse.csr_array(np.array([[1.5, -0.5], [-0.5, 1.5]])))
    pop = Population(np.ones(2), np.array([1.0, -1.0]))
    err = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=0.0), 100, 0, mode)
    assert isinstance(err, OpinionOverflowError)
    assert err.step == 40  # 2**40 is the first doubling past 1e12


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_a_blend_toward_a_start_past_the_limit_overflows_at_the_step_of_the_step_helpers(mode):
    # agent 0 starts at 1.9e12 and drops to 0.988e12 at step 1, below the
    # limit and below its start; the blend toward that start and the mass
    # agent 1 sends back lift it to 1.316e12 at step 2
    graph = WeightedDigraph(sparse.csr_array(np.array([[0.2, 0.8], [0.8, 0.2]])))
    pop = Population(np.ones(2), np.array([1.9e12, 0.0]), susceptibility=0.6)
    err = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=0.0), 10, 0, mode)
    assert isinstance(err, OpinionOverflowError)
    assert err.step == 2


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_initial_opinion_aborts_at_step_one(mode, value):
    # the start is rejected before the run's first step, so no operator kind
    # can make of it an overflow at step 1 (nan through a dense product, inf
    # through a sparse one)
    graph = generate(GraphGenSpec(family="sbm", n=30, seed=4))
    pop = PopulationSpec().build(30, rng_from(4, "pop"), mu=0.0, sigma=1.0, clusters=graph.clusters)
    opinions = pop.initial_opinions.copy()
    opinions[7] = value
    with pytest.raises(ValueError, match="initial_opinions must be finite"):
        simulate(graph, Population(pop.reactions, opinions, susceptibility=0.5), ModelParams(lam=1.0, gamma=0.5),
                 50, seed=3, mode=mode)


@pytest.mark.parametrize("mode,magnitude", [("stochastic", 1015818357943.4226), ("expected", 1011602844090.2804)])
def test_pinned_agents_overflow_at_the_step_and_magnitude_of_a_copied_back_start(mode, magnitude):
    # three pinned agents among 27 free ones that grow; the step and the
    # magnitude are those of the loop that copied the pinned starts back
    graph = generate(GraphGenSpec(family="watts-strogatz", n=30, seed=1))
    rng = np.random.default_rng(0)
    pop = Population(sample_reactions(30, 1.0, rng), rng.uniform(-1.0, 1.0, 30),
                     susceptibility=np.r_[np.zeros(3), np.ones(27)])
    err = assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=1e10), 300, 0, mode, weight_scale=1.05)
    assert isinstance(err, OpinionOverflowError)
    assert (err.step, err.magnitude) == (70, magnitude)


@pytest.mark.parametrize("mode", ["stochastic", "expected"])
def test_a_pinned_agent_keeps_its_start_past_an_update_that_is_not_finite(mode):
    # the update agent 1 ignores is 0.5e310, which the blend's 0 * inf makes
    # nan; its start keeps the error's magnitude at inf, and nothing warns
    graph = from_dense(np.full((2, 2), 0.5))
    pop = Population(np.ones(2), np.array([1e10, 1.0]), susceptibility=np.array([1.0, 0.0]))
    with pytest.raises(OpinionOverflowError) as err:
        simulate(graph, pop, ModelParams(gamma=0.5), 5, seed=1, mode=mode, weight_scale=1e300)
    assert (err.value.step, err.value.magnitude) == (1, math.inf)


# each listed value takes a brake off the growth of the opinions (no blend,
# every reaction +1) or drives it hard, so that runs meet the limit after a
# few to a few hundred ticks, which draws over the ranges alone mostly miss
def either(values, spread):
    return st.sampled_from(values) | spread


@given(
    family=st.sampled_from(["barabasi-albert", "watts-strogatz", "erdos-renyi", "sbm"]),
    n=st.integers(8, 40),
    graph_seed=st.integers(0, 2**16),
    weight_scale=either([1.05], st.floats(0.8, 1.05)),
    gamma=either([1e10], st.floats(0.0, 1e10)),
    # one value per agent, 0 pinning it, of which the first n are read: a few
    # pinned agents among free ones, whose growth can still reach the limit,
    # or any blends
    susceptibility=either([1.0], st.sets(st.integers(0, 39), max_size=8).map(
        lambda pinned: [0.0 if i in pinned else 1.0 for i in range(40)])
        | st.lists(either([0.0, 1.0], st.floats(0.0, 1.0)), min_size=40, max_size=40)),
    positive_fraction=either([1.0], st.floats(0.0, 1.0)),
    magnitude=either([1.0, 1e9], st.floats(0.0, 2e12)),
    horizon=either([300], st.integers(2, 300)),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_the_overflow_guard_matches_the_step_helpers(family, n, graph_seed, weight_scale, gamma, susceptibility,
                                                      positive_fraction, magnitude, horizon, mode, seed):
    # the guard checks the exact peaks only at the ticks its bound names, so
    # its errors must be those of the reference's check after every step
    graph = generate(GraphGenSpec(family=family, n=n, seed=graph_seed, edge_prob=0.4))
    rng = np.random.default_rng(seed)
    if not np.isscalar(susceptibility):
        susceptibility = np.array(susceptibility[:n])
    pop = Population(sample_reactions(n, positive_fraction, rng), rng.uniform(-magnitude, magnitude, n),
                     susceptibility=susceptibility)
    assert_same_run(graph, pop, ModelParams(lam=1.0, gamma=gamma), horizon, seed, mode, weight_scale)


# ---------------------------------------------------------------------------
# the batched loop against simulate and the one-step reference


VARIANTS = ("plain", "stubborn", "susceptibility", "susceptibility_per_agent")
BATCH_LAM = 1.3


def batch_member(graph, k):
    """Member k of a mixed batch: its variant, opinions, gamma and seed vary
    with k; lam is the batch's, shared as _run_members requires."""
    n = graph.n
    variant = VARIANTS[k % len(VARIANTS)]
    spec = PopulationSpec(
        positive_fraction=0.6,
        stubborn_fraction=0.1 if variant == "stubborn" else 0.0,
        susceptibility=0.7 if variant == "susceptibility" else 1.0,
    )
    pop = spec.build(n, rng_from(5, "pop", k), mu=0.3 * k - 2.0, sigma=1.5)
    if variant == "susceptibility_per_agent":
        pop = Population(pop.reactions, pop.initial_opinions, susceptibility=np.linspace(0.4, 1.0, n))
    return graph, pop, ModelParams(lam=BATCH_LAM, gamma=0.8 + 0.1 * k), 17 + k


def simulate_outcome(member, horizon, mode):
    """simulate's event fractions for one member, or the error it raises."""
    graph, population, params, seed = member
    try:
        return simulate(graph, population, params, horizon, seed=seed, mode=mode).event_fraction
    except (OpinionOverflowError, ValueError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, OpinionOverflowError):
            assert (got.step, repr(got.magnitude)) == (want.step, repr(want.magnitude))
    else:
        assert isinstance(got, np.ndarray), got
        assert got.flags.c_contiguous
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def member_runs(members, horizon, mode, spread=False, scales=None, record=False):
    """The RunSummary, or with record the Trajectory, of each member from one
    _run_members call, or its OpinionOverflowError; member k runs at weight
    scale scales[k], 1.0 by default."""
    scales = scales or [1.0] * len(members)
    assert len({member[2].lam for member in members}) == 1, "a batch shares one lam"
    return dynamics._run_members([(*member, scale) for member, scale in zip(members, scales)], horizon, mode,
                                 spread=spread, record=record)


def member_fractions(members, horizon, mode):
    """The event_fraction of each of member_runs' outcomes, or its exception."""
    return [run if isinstance(run, Exception) else run.event_fraction for run in member_runs(members, horizon, mode)]


@pytest.fixture(scope="module", params=["dense", "sparse"])
def batch_graphs(request):
    if request.param == "dense":
        return [generate(GraphGenSpec(family="sbm", n=100, seed=s, inter_prob=0.05)) for s in (12, 13, 14)]
    return [generate(GraphGenSpec(family="watts-strogatz", n=600, k=6, seed=s)) for s in (12, 13, 14)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("size", [1, 2, 3, 36])
def test_event_fractions_equal_simulate_bit_for_bit(batch_graphs, mode, size):
    members = [batch_member(batch_graphs[k % 3], k) for k in range(size)]
    for member, got in zip(members, member_fractions(members, 150, mode)):
        assert_same_outcome(got, simulate_outcome(member, 150, mode))
        graph, population, params, seed = member
        assert got.tobytes() == reference_simulate(graph, population, params, 150, seed, mode)[2].tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_members_of_different_weight_scales_keep_their_bytes_in_one_batch(batch_graphs, mode):
    # each member's weight scale is its own (K, 1) column, as its gamma is
    members = [batch_member(batch_graphs[k % 3], k) for k in range(5)]
    scales = [1.0, 0.97, 1.0, 1.03, 0.5]
    for member, scale, got in zip(members, scales, member_runs(members, 150, mode, spread=True, scales=scales)):
        want = simulate(*member[:3], 150, seed=member[3], mode=mode, weight_scale=scale)
        assert got.event_fraction.tobytes() == want.event_fraction.tobytes()
        assert got.max_diversity.tobytes() == want.max_diversity.tobytes()
        assert got.final_opinions.tobytes() == want.opinions[-1].tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_recorded_members_are_trajectories_over_views_of_the_batch_rows(batch_graphs, mode):
    members = [(*batch_member(batch_graphs[k % 3], k), 1.0) for k in range(3)]
    runs = dynamics._run_members(members, 150, mode, record=True, spread=True)
    # member k's rows are opinions[:, k] of the batch's (horizon, K, n) record, not copies
    assert runs[0].opinions.base is runs[2].opinions.base is not None
    for member, got in zip(members, runs):
        want = simulate(*member[:3], 150, seed=member[3], mode=mode)
        for field in ("opinions", "states", "event_fraction", "mean_opinion", "max_diversity"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("xi", [0.8, 1.0])
@pytest.mark.parametrize("graph_spec", [GraphGenSpec(family="sbm", n=100, seed=3),
                                        GraphGenSpec(family="watts-strogatz", n=300, k=6, seed=3)],
                         ids=["dense", "sparse"])
def test_one_susceptibility_for_all_runs_as_the_same_value_per_agent(graph_spec, xi, mode, monkeypatch):
    # a value given for all agents is held as a broadcast view; a per-agent
    # vector of that value must give the same bytes through both run paths
    graph = generate(graph_spec)
    assert _dense_operator(graph) == (graph_spec.family == "sbm")
    pop_spec = PopulationSpec(positive_fraction=0.6, susceptibility=xi)
    params = ModelParams(lam=1.2, gamma=0.9, mu=0.2, sigma=1.5)
    shared = pop_spec.build(graph.n, rng_from(5, "pop"), params.mu, params.sigma, clusters=graph.clusters)
    assert shared.susceptibility.strides == (0,)
    per_agent = Population(shared.reactions, shared.initial_opinions, susceptibility=np.full(graph.n, xi))
    want, got = (simulate(graph, pop, params, 200, seed=7, mode=mode) for pop in (shared, per_agent))
    for field in ("opinions", "states", "event_fraction", "mean_opinion", "max_diversity"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    tasks = [(graph_spec, pop_spec, params, seed, 1.0) for seed in range(3)]
    wants = list(replicate_summaries(tasks, 200, mode))
    build = dynamics._replicate_inputs

    def per_agent_inputs(*args):
        graph, population, sim_seed = build(*args)
        assert population.susceptibility.strides == (0,)
        population = Population(population.reactions, population.initial_opinions,
                                susceptibility=population.susceptibility.copy())
        return graph, population, sim_seed

    monkeypatch.setattr(dynamics, "_replicate_inputs", per_agent_inputs)
    for got, want in zip(replicate_summaries(tasks, 200, mode), wants, strict=True):
        assert all(mine.tobytes() == theirs.tobytes() for mine, theirs in zip(got, want))


@pytest.mark.parametrize("mode", MODES)
def test_failed_members_fail_alone_with_the_error_of_simulate(mode):
    graph = generate(GraphGenSpec(family="sbm", n=30, seed=4))
    members = [batch_member(graph, k) for k in range(6)]
    # all reactions +1 under a huge feedback: the opinions pass 1e12 mid-run
    surge = Population(np.ones(30), np.zeros(30))
    members[1] = (graph, surge, ModelParams(lam=BATCH_LAM, gamma=1e11), 3)
    # one start past the limit, which its half blend keeps there at step 1
    far_start = members[2][1].initial_opinions.copy()
    far_start[7] = 4e12
    members[2] = (graph, Population(members[2][1].reactions, far_start, susceptibility=0.5), *members[2][2:])
    # 18 of 30 reactions +1: the bound passes 1e12 near step 100, the
    # opinions only some 250 steps later, after many exact checks
    drift = Population(np.where(np.arange(30) < 18, 1.0, -1.0), np.zeros(30))
    members.append((graph, drift, ModelParams(lam=BATCH_LAM, gamma=1e10), 5))
    wants = [simulate_outcome(member, 400, mode) for member in members]
    assert isinstance(wants[1], OpinionOverflowError) and 1 < wants[1].step < 50
    assert isinstance(wants[2], OpinionOverflowError) and wants[2].step == 1
    assert isinstance(wants[6], OpinionOverflowError) and wants[6].step > 300
    for got, want in zip(member_fractions(members, 400, mode), wants):
        assert_same_outcome(got, want)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("mode", MODES)
def test_a_batch_on_both_sides_of_the_density_threshold_equals_lone_runs(mode):
    # a batch holds one operator kind: the dense members run in one call, the sparse ones in another
    n = 100
    graphs = [generate(GraphGenSpec(family="watts-strogatz", n=n, k=6, seed=12)),
              generate(GraphGenSpec(family="sbm", n=n, seed=12, inter_prob=0.05)),
              generate(GraphGenSpec(family="erdos-renyi", n=n, edge_prob=0.05, seed=12)),
              generate(GraphGenSpec(family="sbm", n=n, seed=13, inter_prob=0.05)),
              generate(GraphGenSpec(family="barabasi-albert", n=n, m=3, seed=12)),
              generate(GraphGenSpec(family="barabasi-albert", n=n, m=1, seed=13))]
    assert [_dense_operator(graph) for graph in graphs] == [False, True, False, True, False, False]
    members = [batch_member(graph, k) for k, graph in enumerate(graphs)]
    # all reactions +1 under a huge feedback: a sparse member that overflows
    members[2] = (graphs[2], Population(np.ones(n), np.zeros(n)), ModelParams(lam=BATCH_LAM, gamma=1e11), 3)
    for dense in (True, False):
        batch = [member for member in members if _dense_operator(member[0]) == dense]
        for member, got in zip(batch, member_fractions(batch, 150, mode)):
            assert_same_outcome(got, simulate_outcome(member, 150, mode))
        for member, got in zip(batch, member_runs(batch, 150, mode, spread=True)):
            try:
                want = simulate(*member[:3], 150, seed=member[3], mode=mode)
            except OpinionOverflowError as exc:
                assert_same_outcome(got, exc)
                continue
            assert got.event_fraction.tobytes() == want.event_fraction.tobytes()
            assert got.max_diversity.tobytes() == want.max_diversity.tobytes()
            assert got.final_opinions.tobytes() == want.opinions[-1].tobytes()


class RecordedGenerator:
    """A Generator that records the rows each random(out=...) call fills."""

    def __init__(self, seed, calls):
        self.rng, self.calls = np.random.Generator(np.random.PCG64(seed)), calls

    def random(self, out):
        self.calls.append(out.shape[0])
        return self.rng.random(out=out)


@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("block, draws", [(1, [1] * 100), (7, [7] * 14 + [2]), (100, [100]), (250, [100])])
def test_blocked_draws_keep_every_members_bytes(monkeypatch, block, draws):
    # each stochastic member draws a block of ticks' uniforms per call; 7
    # does not divide the horizon, and the last block draws only what is left
    n, horizon = 100, 100
    graphs = [generate(GraphGenSpec(family="watts-strogatz", n=n, k=6, seed=12)),
              generate(GraphGenSpec(family="barabasi-albert", n=n, m=1, seed=13)),
              generate(GraphGenSpec(family="erdos-renyi", n=n, edge_prob=0.05, seed=12)),
              generate(GraphGenSpec(family="barabasi-albert", n=n, m=3, seed=12))]
    assert not any(_dense_operator(graph) for graph in graphs)
    members = [batch_member(graph, k) for k, graph in enumerate(graphs)]
    # all reactions +1 under a huge feedback: overflows at step 11, inside a block of 7
    members[2] = (graphs[2], Population(np.ones(n), np.zeros(n)), ModelParams(lam=BATCH_LAM, gamma=1e11), 3)
    row = 8 * len(members) * n
    monkeypatch.setattr(dynamics, "_DRAW_BYTES", (block + 1) * row - 1)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(dynamics.np.random, "default_rng", lambda seed: RecordedGenerator(seed, calls))
        runs = member_runs(members, horizon, "stochastic", spread=True)
    assert calls == [rows for rows in draws for _ in members]
    for member, got in zip(members, runs):
        try:
            opinions, _, fractions = reference_simulate(*member[:3], horizon, member[3], "stochastic")
        except OpinionOverflowError as exc:
            assert exc.step == 11
            assert_same_outcome(got, exc)
            continue
        assert got.event_fraction.tobytes() == fractions.tobytes()
        assert got.max_diversity.tobytes() == (opinions.max(axis=1) - opinions.min(axis=1)).tobytes()
        assert got.final_opinions.tobytes() == opinions[-1].tobytes()
    assert isinstance(runs[2], OpinionOverflowError)


@pytest.mark.parametrize("rows", [1, 7, 13])
def test_a_block_of_uniforms_equals_its_rows_drawn_one_at_a_time(rows):
    # the tick loop fills each member's (block, n) draws with one call
    block, one_at_a_time = np.random.default_rng(5), np.random.default_rng(5)
    drawn = np.empty((rows, 300))
    block.random(out=drawn)
    assert drawn.tobytes() == np.concatenate([one_at_a_time.random(300) for _ in range(rows)]).tobytes()
    # and leaves the generator where the row draws leave it
    assert block.random(5).tobytes() == one_at_a_time.random(5).tobytes()


def test_expected_mode_draws_nothing(monkeypatch):
    graph = generate(GraphGenSpec(family="watts-strogatz", n=100, k=6, seed=12))
    members = [batch_member(graph, k) for k in range(3)]
    calls = []
    monkeypatch.setattr(dynamics.np.random, "default_rng", lambda seed: RecordedGenerator(seed, calls))
    member_runs(members, 50, "expected")
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
def test_replicate_fractions_equal_replicate_across_batches(mode):
    # n = 150 puts five members in a batch, so seven replicates take two
    params = ModelParams(lam=1.0, gamma=0.4)
    tasks = [(GraphGenSpec(family="sbm", n=150, inter_prob=0.0 if k in (1, 5) else 0.05),
              PopulationSpec(stubborn_fraction=0.05 * (k % 2)), params, 40 + k, 1.0) for k in range(7)]
    outcomes = [run if isinstance(run, Exception) else run.event_fraction
                for run in replicate_summaries(tasks, 30, mode, spread=False)]
    assert [isinstance(got, GenerationError) for got in outcomes] == [k in (1, 5) for k in range(7)]
    for task, got in zip(tasks, outcomes):
        try:
            want = replicate(*task[:3], 30, task[3], mode=mode)[1].event_fraction
        except GenerationError as exc:
            want = exc
        assert_same_outcome(got, want)


@pytest.mark.parametrize("n, sizes", [(100, [13, 13, 4]), (150, [5, 5, 5, 5, 5, 5]), (300, [1] * 30),
                                      (600, [1] * 30)])
def test_replicate_fractions_batches_within_the_operator_budget(monkeypatch, n, sizes):
    sizes_seen = []
    run_members = dynamics._run_members

    def sized_run_members(members, *args, **kwargs):
        sizes_seen.append(len(members))
        return run_members(members, *args, **kwargs)

    # a default sbm has about n**2 / 3 edges: dense up to n = 512, and at
    # n = 600 a CSR of 1.9 MB
    graph = generate(GraphGenSpec(family="sbm", n=n, seed=1))
    monkeypatch.setattr(dynamics, "_replicate_inputs", lambda *task: (graph, uniform_population(n), 0))
    monkeypatch.setattr(dynamics, "_run_members", sized_run_members)
    tasks = [(GraphGenSpec(family="sbm", n=n), PopulationSpec(), ModelParams(), k, 1.0) for k in range(30)]
    assert len(list(replicate_summaries(tasks, 1, "expected", spread=False))) == 30
    assert sizes_seen == sizes


@pytest.mark.parametrize("n, sizes", [(300, [30]), (2000, [1] * 30), (1000, [10] * 3), (1500, [6] * 5)])
def test_sparse_replicates_batch_by_their_csr_bytes(monkeypatch, n, sizes):
    sizes_seen = []
    run_members = dynamics._run_members

    def sized_run_members(members, *args, **kwargs):
        sizes_seen.append(len(members))
        return run_members(members, *args, **kwargs)

    # Watts-Strogatz k=6 stores 7 entries a row: 31 kB of CSR at n = 300,
    # 104 kB at n = 1000 and 156 kB at n = 1500; above _BATCH_MAX_N = 1500
    # nodes each member runs alone
    graph = generate(GraphGenSpec(family="watts-strogatz", n=n, k=6, seed=1))
    assert not dynamics._dense_operator(graph)
    monkeypatch.setattr(dynamics, "_replicate_inputs", lambda *task: (graph, uniform_population(n), 0))
    monkeypatch.setattr(dynamics, "_run_members", sized_run_members)
    tasks = [(GraphGenSpec(family="watts-strogatz", n=n, k=6), PopulationSpec(), ModelParams(), k, 1.0)
             for k in range(30)]
    assert len(list(replicate_summaries(tasks, 1, "expected", spread=False))) == 30
    assert sizes_seen == sizes


@pytest.mark.parametrize("mode", MODES)
def test_replicate_summaries_equal_replicate(mode):
    # four sparse members of one batch, under a decaying weight_scale
    params = ModelParams(lam=1.0, gamma=0.4)
    tasks = [(GraphGenSpec(family="watts-strogatz", n=300, k=6), PopulationSpec(stubborn_fraction=0.05 * (k % 2)),
              params, 60 + k, 0.97) for k in range(4)]
    for task, got in zip(tasks, replicate_summaries(tasks, 40, mode)):
        want = replicate(*task[:3], 40, task[3], mode=mode, weight_scale=task[4])[1]
        assert got.event_fraction.tobytes() == want.event_fraction.tobytes()
        assert got.max_diversity.tobytes() == want.max_diversity.tobytes()
        assert got.final_opinions.tobytes() == want.opinions[-1].tobytes()


# Watts-Strogatz k = 4 mixes densely up to n = 30 (3.2 kB a member at n = 20,
# 7.2 kB at 30) and sparsely above (2.9 kB at n = 40, 3.6 kB at 50), the sbm
# n = 20 densely, and the Barabasi-Albert tree at n = 30 sparsely (1.2 kB),
# next to a dense graph of its size; under the lowered batch lines below, a
# batch holds three, one, four and three of the Watts-Strogatz members, and
# n = 60 runs alone
_DRAWN_GRAPHS = [GraphGenSpec(family="watts-strogatz", n=n, k=4) for n in (20, 30, 40, 50, 60)] + [
    GraphGenSpec(family="barabasi-albert", n=30, m=1)] + [
    GraphGenSpec(family="sbm", n=20, inter_prob=r) for r in (0.0, 0.2)]  # r = 0 never connects
# a dense member, then a sparse one of the same size: they fit one batch but
# for the operator kind, a pair the draw below makes only now and then
_KINDS_PAIR = [(spec, PopulationSpec(), ModelParams(lam=1.0, gamma=0.5), 0, 1.0)
               for spec in (_DRAWN_GRAPHS[1], _DRAWN_GRAPHS[5])]
# two members that fit one batch but for lam
_LAMS_PAIR = [(_DRAWN_GRAPHS[0], PopulationSpec(), ModelParams(lam=lam, gamma=0.5), 0, 1.0) for lam in (1.0, 0.5)]


@st.composite
def replicate_tasks(draw):
    """Runs of tasks that share a graph spec and a weight_scale, so that
    consecutive members can batch, each with its own lam, where a batch
    closes; weight_scale 1e300 and gamma 1e300 overflow the opinions in a
    run, sigma 1e308 their draw."""
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        spec = draw(st.sampled_from(_DRAWN_GRAPHS))
        weight_scale = draw(st.sampled_from([1.0, 1.0, 0.97, 1e300]))
        for _ in range(draw(st.integers(1, 5))):
            population = PopulationSpec(positive_fraction=draw(st.sampled_from([0.2, 0.8])),
                                        stubborn_fraction=draw(st.sampled_from([0.0, 0.2])),
                                        susceptibility=draw(st.sampled_from([1.0, 0.6])))
            params = ModelParams(lam=draw(st.sampled_from([1.0, 0.5])),
                                 gamma=draw(st.sampled_from([0.0, 0.5, 0.5, 0.5, 1e300])),
                                 mu=draw(st.sampled_from([0.0, -1.0])),
                                 sigma=draw(st.sampled_from([1.0] * 5 + [1e308])))
            tasks.append((spec, population, params, draw(st.integers(0, 2**32)), weight_scale))
    return tasks


@given(tasks=replicate_tasks(), mode=st.sampled_from(MODES), spread=st.booleans())
@example(tasks=_KINDS_PAIR, mode="stochastic", spread=False)
@example(tasks=_LAMS_PAIR, mode="expected", spread=True)
@settings(max_examples=60, deadline=None)
def test_replicate_summaries_equal_replicate_on_drawn_tasks(tasks, mode, spread):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_BATCH_BYTES", 12_000)
        patch.setattr(dynamics, "_BATCH_MAX_N", 50)
        outcomes = list(replicate_summaries(tasks, 12, mode, spread=spread))
    assert len(outcomes) == len(tasks)
    for task, got in zip(tasks, outcomes):
        try:
            want = replicate(*task[:3], 12, task[3], mode=mode, weight_scale=task[4])[1]
        except Exception as exc:  # noqa: BLE001 - the outcome to compare
            assert_same_outcome(got, exc)
            continue
        assert isinstance(got, RunSummary), got
        assert_same_outcome(got.event_fraction, want.event_fraction)
        assert_same_outcome(got.final_opinions, want.opinions[-1])
        if spread:
            assert_same_outcome(got.max_diversity, want.max_diversity)
        else:
            assert got.max_diversity is None


def test_replicate_summaries_close_a_batch_where_size_or_operator_kind_changes(monkeypatch):
    batches = []
    run_members = dynamics._run_members

    def spied(members, horizon, mode, **kwargs):
        lams = {member[2].lam for member in members}
        assert len(lams) == 1
        batches.append((len(members), members[0][0].n, *lams))
        return run_members(members, horizon, mode, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", spied)
    params = ModelParams(lam=1.0, gamma=0.4)
    ws = {n: GraphGenSpec(family="watts-strogatz", n=n, k=6) for n in (40, 100)}
    # the sbm at r = 0 fails in generate, between two members of one batch;
    # Watts-Strogatz k = 6 mixes densely at n = 40 and sparsely at n = 100,
    # the default sbm densely, so the last one runs apart; the weight scale
    # changes inside the batch of n = 100, and lam after it
    specs = [ws[40], ws[40], ws[100], GraphGenSpec(family="sbm", n=100, inter_prob=0.0), ws[100], ws[100],
             ws[100], ws[100], GraphGenSpec(family="sbm", n=100)]
    scales = [1.0, 1.0, 1.0, 1.0, 1.0, 0.97, 0.97, 0.97, 0.97]
    lams = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    tasks = [(spec, PopulationSpec(), replace(params, lam=lam), k, scale)
             for k, (spec, scale, lam) in enumerate(zip(specs, scales, lams))]
    outcomes = list(replicate_summaries(tasks, 30))
    assert batches == [(2, 40, 1.0), (3, 100, 1.0), (2, 100, 0.5), (1, 100, 0.5)]
    for task, got in zip(tasks, outcomes):
        try:
            want = replicate(*task[:3], 30, task[3], weight_scale=task[4])[1]
        except GenerationError as exc:
            assert_same_outcome(got, exc)
            continue
        assert got.event_fraction.tobytes() == want.event_fraction.tobytes()
        assert got.max_diversity.tobytes() == want.max_diversity.tobytes()
        assert got.final_opinions.tobytes() == want.opinions[-1].tobytes()


def test_a_failed_batch_fails_each_of_its_replicates_and_not_the_stream(monkeypatch):
    run_members = dynamics._run_members

    def failing(members, horizon, mode, **kwargs):
        if members[0][0].n == 50:
            raise MemoryError("no room for the batch")
        return run_members(members, horizon, mode, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", failing)
    # a batch closes where the size changes: the two n = 50 replicates run and fail together
    tasks = [(GraphGenSpec(family="watts-strogatz", n=n, k=4), PopulationSpec(), ModelParams(), k, 1.0)
             for k, n in enumerate([40, 50, 50, 40])]
    outcomes = list(replicate_summaries(tasks, 10))
    assert [type(run).__name__ for run in outcomes] == ["RunSummary", "MemoryError", "MemoryError", "RunSummary"]


@pytest.mark.parametrize("mode", MODES)
def test_a_replicate_that_simulate_rejects_fails_alone_outside_the_batch(monkeypatch, mode):
    # the middle replicate is checked, and rejected, where it is built: it
    # joins no batch, and its neighbours still run as one batch of 2
    batches = []
    run_members = dynamics._run_members

    def spied(members, horizon, mode, **kwargs):
        batches.append([member[4] for member in members])
        return run_members(members, horizon, mode, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", spied)
    spec = GraphGenSpec(family="watts-strogatz", n=40, k=4)
    params = ModelParams(lam=1.0, gamma=0.4)
    tasks = [(spec, PopulationSpec(), params, 70 + k, scale) for k, scale in enumerate([1.0, -1.0, 1.0])]
    outcomes = list(replicate_summaries(tasks, 30, mode))
    assert batches == [[1.0, 1.0]]
    with pytest.raises(ValueError, match="weight_scale must be positive") as rejected:
        replicate(*tasks[1][:3], 30, tasks[1][3], mode=mode, weight_scale=-1.0)
    assert_same_outcome(outcomes[1], rejected.value)
    for k in (0, 2):
        want = replicate(*tasks[k][:3], 30, tasks[k][3], mode=mode)[1]
        assert outcomes[k].event_fraction.tobytes() == want.event_fraction.tobytes()
        assert outcomes[k].max_diversity.tobytes() == want.max_diversity.tobytes()
        assert outcomes[k].final_opinions.tobytes() == want.opinions[-1].tobytes()


def test_replicate_runs_check_connectivity_only_in_generate(monkeypatch):
    # generate checks each structure with one _reaches_all sweep; the runs
    # of replicate_summaries, with or without the spread, and of replicate
    # do not repeat it
    counts = {"attempts": 0, "sweeps": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(graph_module, "_structure_edges", counted("attempts", graph_module._structure_edges))
    monkeypatch.setattr(graph_module, "_reaches_all", counted("sweeps", graph_module._reaches_all))
    params = ModelParams(lam=1.0, gamma=0.3)
    tasks = [(GraphGenSpec(family=family, n=60), PopulationSpec(), params, k, 1.0)
             for k, family in enumerate(["sbm", "watts-strogatz"] * 3)]
    assert not any(isinstance(run, Exception) for run in replicate_summaries(tasks, 20, "expected", spread=False))
    assert not any(isinstance(run, Exception) for run in replicate_summaries(tasks, 20))
    for task in tasks:
        replicate(*task[:3], 20, task[3], mode="expected")
    # every structure connected at its first attempt: 1 sweep a run, not 3
    assert counts == {"attempts": 18, "sweeps": 18}


# ---------------------------------------------------------------------------
# the operator the tick loop mixes with


SPARSE_FAMILIES = {
    "barabasi-albert": {"m": 3},
    "erdos-renyi": {"edge_prob": 0.05},
    "sbm": {"intra_prob": 0.1, "inter_prob": 0.02},
    "watts-strogatz": {"k": 6},
}


@pytest.mark.parametrize("n", [100, 300, 600])
@pytest.mark.parametrize("family", sorted(SPARSE_FAMILIES))
def test_csr_matvec_into_a_zeroed_row_equals_the_sparse_product(family, n):
    # the tick loop calls scipy's private _sparsetools.csr_matvec directly
    graph = generate(GraphGenSpec(family=family, n=n, seed=8, **SPARSE_FAMILIES[family]))
    assert not _dense_operator(graph)
    matrix = graph.matrix
    x = rng_from(8, "x").normal(size=n)
    y = np.zeros(n)
    csr_matvec(n, n, matrix.indptr, matrix.indices, matrix.data, x, y)
    assert y.tobytes() == (matrix @ x).tobytes()


def block_diagonal_product(graphs):
    """The members' products through _block_diagonal, checked to take its
    rows stably sorted by length; returns the inverse permutation."""
    n = graphs[0].n
    x = rng_from(9, "x").normal(size=(len(graphs), n))
    indptr, indices, data, inverse = _block_diagonal([graph.matrix for graph in graphs], n)
    # int32 copies for the product; the graphs keep their int64 indices
    assert indptr.dtype == indices.dtype == np.int32 and inverse.dtype == np.intp
    assert all(graph.matrix.indices.dtype == graph.matrix.indptr.dtype == np.int64 for graph in graphs)
    lengths = np.diff(indptr)
    assert np.all(np.diff(lengths) >= 0)
    assert np.array_equal(np.sort(inverse), np.arange(x.size))
    # stable: rows of one length keep their order, and each row its entries
    # in stored order (sparse.block_diag would sort them)
    natural = [(matrix.indices[a:b] + k * n, matrix.data[a:b])
               for k, matrix in enumerate(graph.matrix for graph in graphs)
               for a, b in zip(matrix.indptr[:-1], matrix.indptr[1:])]
    order = np.argsort(inverse)
    assert order.tolist() == sorted(range(x.size), key=lambda r: natural[r][0].size)
    for row, r in enumerate(order):
        mine = slice(indptr[row], indptr[row + 1])
        assert np.array_equal(indices[mine], natural[r][0])
        assert data[mine].tobytes() == natural[r][1].tobytes()
    y = np.zeros(x.size)
    csr_matvec(x.size, x.size, indptr, indices, data, x.reshape(-1), y)
    want = np.concatenate([graph.matrix @ row for graph, row in zip(graphs, x)])
    assert np.take(y, inverse).tobytes() == want.tobytes()
    return inverse


def test_block_diagonal_product_equals_the_members_products():
    n = 300
    graphs = [generate(GraphGenSpec(family=family, n=n, seed=s, **SPARSE_FAMILIES[family]))
              for s, family in enumerate(sorted(SPARSE_FAMILIES))]
    inverse = block_diagonal_product(graphs)
    assert not np.array_equal(inverse, np.arange(len(graphs) * n))
    # a hand-built member whose columns are unsorted within its rows
    unsorted = sparse.csr_array((np.array([0.5, 0.25, 0.25, 1.0, 0.3, 0.7, 0.6, 0.4]),
                                 np.array([3, 0, 1, 2, 3, 1, 2, 0]), np.array([0, 3, 4, 6, 8])), shape=(4, 4))
    assert not unsorted.has_sorted_indices
    inverse = block_diagonal_product([WeightedDigraph(unsorted), WeightedDigraph(unsorted)])
    assert inverse.tolist() == [6, 0, 2, 3, 7, 1, 4, 5]


def test_rows_of_one_length_keep_their_order():
    # a ring lattice: every node has k in-neighbours
    graphs = [generate(GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.0, seed=s)) for s in (1, 2)]
    assert np.array_equal(block_diagonal_product(graphs), np.arange(600))


@pytest.mark.parametrize("size", [1, 7, 30000])
def test_aligned_buffers_start_on_a_64_byte_boundary(size):
    buffer = dynamics._aligned_empty(size)
    assert buffer.shape == (size,) and buffer.dtype == np.float64 and buffer.flags.c_contiguous
    assert buffer.ctypes.data % 64 == 0


def test_the_dense_operator_needs_a_small_and_dense_enough_graph():
    assert _dense_operator(generate(GraphGenSpec(family="sbm", n=512, seed=1)))
    assert not _dense_operator(generate(GraphGenSpec(family="sbm", n=513, seed=1)))
    assert not _dense_operator(generate(GraphGenSpec(family="watts-strogatz", n=100, k=6, seed=1)))
    # n self-loops fill exactly an eighth of the entries at n = 8
    assert _dense_operator(identity_graph(8))
    assert not _dense_operator(identity_graph(9))
# ---------------------------------------------------------------------------
# signed and scaled variants


def test_signed_step_direct_sum():
    w = np.array([[0.5, -0.5], [0.3, 0.7]])
    nxt = signed_opinion_step(np.array([1.0, 1.0]), w)
    np.testing.assert_allclose(nxt, [0.0, 1.0])


def test_signed_step_rejects_bad_normalization():
    with pytest.raises(ValueError, match="sum"):
        signed_opinion_step(np.ones(2), np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_all_positive_signed_weights_reduce_to_plain_step():
    rng = np.random.default_rng(8)
    w = np.abs(random_signed_weights(6, rng))
    w /= w.sum(axis=1, keepdims=True)
    x = rng.normal(size=6)
    plain = _advance(x, 0.0, from_dense(w).matrix, uniform_population(6))
    np.testing.assert_allclose(signed_opinion_step(x, w), plain, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_signed_runs_never_grow_in_magnitude(seed):
    rng = np.random.default_rng(seed)
    w = random_signed_weights(8, rng)
    x = rng.normal(0.0, 2.0, 8)
    peak = np.abs(x).max()
    for _ in range(30):
        x = signed_opinion_step(x, w)
        assert np.abs(x).max() <= peak + 1e-12
        peak = np.abs(x).max()


def test_scaled_step_at_one_is_plain_step():
    graph = generate(GraphGenSpec(family="sbm", n=20, seed=5))
    x = np.linspace(-1, 2, 20)
    pop = Population(np.ones(20), x)
    run = simulate(graph, pop, ModelParams(gamma=0.0), horizon=2, seed=0, weight_scale=1.0)
    np.testing.assert_array_equal(run.opinions[1], graph.matrix.toarray() @ x)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_scaled_steps_stay_in_geometric_envelope(alpha):
    graph = generate(GraphGenSpec(family="watts-strogatz", n=30, k=4, seed=12))
    rng = np.random.default_rng(12)
    x = rng.uniform(1.0, 2.0, 30)
    lo, hi = x.min(), x.max()
    opinions = simulate(graph, Population(np.ones(30), x), ModelParams(gamma=0.0), horizon=21,
                        seed=0, weight_scale=alpha).opinions
    for t in range(1, 21):
        x = opinions[t]
        assert np.all(x >= alpha**t * lo - 1e-9 * abs(alpha**t * lo))
        assert np.all(x <= alpha**t * hi + 1e-9 * abs(alpha**t * hi))


# ---------------------------------------------------------------------------
# population sampling


def test_cluster_positive_fractions_are_exact():
    spec = PopulationSpec(positive_fraction=None, cluster_positive_fractions=(0.3, 0.7))
    pop = spec.build(100, rng_from(1), mu=0.0, sigma=1.0, clusters=(70, 30))
    assert (pop.reactions[:70] == 1.0).sum() == 21
    assert (pop.reactions[70:] == 1.0).sum() == 21


def test_cluster_fractions_require_matching_clusters():
    spec = PopulationSpec(positive_fraction=None, cluster_positive_fractions=(0.3, 0.7))
    with pytest.raises(ValueError, match="clusters"):
        spec.build(100, rng_from(1), mu=0.0, sigma=1.0, clusters=None)


@pytest.mark.parametrize("n,fraction,seed,pinned", [(30, 0.1, 2, 3), (50, 0.2, 4, 10)])
def test_stubborn_fraction_pins_rounded_count(n, fraction, seed, pinned):
    pop = PopulationSpec(stubborn_fraction=fraction).build(n, rng_from(seed), mu=0.0, sigma=1.0)
    assert (pop.susceptibility == 0.0).sum() == pinned


def test_population_rejects_out_of_range_susceptibility():
    for xi in (1.5, -0.1, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match=r"susceptibility must lie in \[0, 1\]"):
            Population(reactions=np.ones(2), initial_opinions=np.zeros(2), susceptibility=xi)


def test_population_rejects_non_finite_initial_opinions():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="initial_opinions must be finite"):
            Population(reactions=np.ones(2), initial_opinions=np.array([0.0, value]))


def test_population_rejects_non_finite_reactions():
    # such a run used to fail at step 1 with an overflow that named no field
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="reactions must be finite"):
            Population(reactions=np.array([1.0, value]), initial_opinions=np.zeros(2))


def test_sample_reactions_exact_count():
    reactions = sample_reactions(40, 0.25, rng_from(9), exact=True)
    assert (reactions == 1.0).sum() == 10
    assert set(np.unique(reactions)) == {-1.0, 1.0}
