"""Coupled opinion and event dynamics on a fixed weighted digraph.

Each tick, every agent emits a binary event with probability
sigmoid(lam * opinion); the event fraction feeds back into the next
opinion through each agent's reaction coefficient on top of the usual
weighted-average opinion update:

    next_i = susceptibility_i * (reaction_i * gamma * event_fraction
             + sum_j w_ji * current_j) + (1 - susceptibility_i) * initial_i

A fully stubborn agent is an agent with susceptibility 0: it keeps its
initial opinion.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec

from .csvio import write_csv
from .graph import (
    GraphGenSpec,
    WeightedDigraph,
    generate,
    is_normalized,
    is_strongly_connected,
)
from .rules import check_rules, ruled
from .seeds import derive_seed, rng_from

OVERFLOW_LIMIT = 1e12
# Relative widening per step of the tick loop's bound on the opinion magnitude:
# room for the rounding of a k-term dot product (below k * 2**-53, so any
# k < 1e9) and of the few other operations in one step.
_BOUND_SLACK = 1e-6
# The tick loop mixes a graph with a dense operator only up to this size, and
# only when at least an eighth of its entries are edges (_dense_operator);
# dense and sparse products round differently, so a reference run must choose
# its operator by the same rule to match the loop byte for byte
_DENSE_MAX_N = 512

MODES = ("stochastic", "expected")


class OpinionOverflowError(RuntimeError):
    """An opinion left the numerically trustworthy range during simulation."""

    def __init__(self, step: int, magnitude: float):
        super().__init__(
            f"opinion magnitude {magnitude:.3e} exceeded {OVERFLOW_LIMIT:.0e} at step {step}"
        )
        self.step = step
        self.magnitude = magnitude


@dataclass
class ModelParams:
    """Scalar model parameters.

    lam scales opinions inside the event sigmoid, gamma scales the feedback
    of the event fraction into opinions, and mu/sigma parameterize the
    normal distribution used to draw initial opinions.
    """

    lam: float = ruled(1.0, gt=0.0)
    gamma: float = ruled(0.0, ge=0.0)
    mu: float = ruled(0.0)
    sigma: float = ruled(1.0, ge=0.0)

    def __post_init__(self) -> None:
        check_rules(self)


@dataclass
class Population:
    """Per-agent attributes: reactions, initial opinions, stubbornness.

    susceptibility is each agent's stubbornness blend in [0, 1]: 1 applies
    the full update, 0 pins the agent to its initial opinion, so a fully
    stubborn agent is an agent with susceptibility 0. One value given for
    all agents is held as a read-only broadcast view, not a per-agent copy.
    """

    reactions: np.ndarray
    initial_opinions: np.ndarray
    susceptibility: np.ndarray = 1.0

    def __post_init__(self) -> None:
        self.reactions = np.asarray(self.reactions, dtype=np.float64)
        self.initial_opinions = np.asarray(self.initial_opinions, dtype=np.float64)
        if self.reactions.shape != self.initial_opinions.shape or self.reactions.ndim != 1:
            raise ValueError("reactions and initial_opinions must be equal-length vectors")
        if not np.isfinite(self.reactions).all():
            raise ValueError("reactions must be finite")
        if not np.isfinite(self.initial_opinions).all():
            raise ValueError("initial_opinions must be finite")
        xi = np.asarray(self.susceptibility, dtype=np.float64)
        if xi.ndim == 0:
            xi = np.broadcast_to(xi, self.reactions.shape)
        elif xi.shape != self.reactions.shape:
            raise ValueError("susceptibility length mismatch")
        # written so that NaN, which fails both comparisons, is rejected
        if not np.all((xi >= 0.0) & (xi <= 1.0)):
            raise ValueError("susceptibility must lie in [0, 1]")
        self.susceptibility = xi

    @property
    def n(self) -> int:
        return self.reactions.size


@dataclass
class PopulationSpec:
    """Sampling recipe for a Population.

    positive_fraction draws each reaction sign iid; cluster_positive_fractions
    instead fixes the exact positive count inside each graph cluster.
    stubborn_fraction pins round(fraction * n) uniformly chosen agents by
    giving them susceptibility 0; the others take susceptibility.
    """

    positive_fraction: float | None = ruled(0.5, ge=0.0, le=1.0)
    cluster_positive_fractions: tuple[float, float] | None = ruled(None, ge=0.0, le=1.0)
    stubborn_fraction: float = ruled(0.0, ge=0.0, le=1.0)
    susceptibility: float = ruled(1.0, ge=0.0, le=1.0)

    def __post_init__(self) -> None:
        if self.cluster_positive_fractions is not None:
            self.cluster_positive_fractions = tuple(float(b) for b in self.cluster_positive_fractions)
        elif self.positive_fraction is None:
            raise ValueError("need positive_fraction or cluster_positive_fractions")
        check_rules(self)

    def build(
        self,
        n: int,
        rng: np.random.Generator,
        mu: float,
        sigma: float,
        clusters: tuple[int, ...] | None = None,
    ) -> Population:
        if self.cluster_positive_fractions is not None:
            if clusters is None or len(clusters) != len(self.cluster_positive_fractions):
                raise ValueError("cluster_positive_fractions requires matching graph clusters")
            parts = [
                sample_reactions(size, frac, rng, exact=True)
                for size, frac in zip(clusters, self.cluster_positive_fractions)
            ]
            reactions = np.concatenate(parts)
        else:
            reactions = sample_reactions(n, self.positive_fraction, rng)
        opinions = rng.normal(mu, sigma, size=n) if sigma > 0 else np.full(n, float(mu))
        if not np.isfinite(opinions).all():
            raise ValueError(f"initial opinions drawn with mu {mu} and sigma {sigma} are not all finite")
        susceptibility = self.susceptibility
        k = int(round(self.stubborn_fraction * n))
        if k > 0:
            susceptibility = np.full(n, susceptibility)
            susceptibility[rng.choice(n, size=k, replace=False)] = 0.0
        return Population(reactions=reactions, initial_opinions=opinions, susceptibility=susceptibility)


def sample_reactions(n: int, positive_fraction: float, rng: np.random.Generator, exact: bool = False) -> np.ndarray:
    """Signs in {-1, +1}; iid by default, exact round(fraction * n) positives if exact."""
    if exact:
        reactions = np.full(n, -1.0)
        k = int(round(positive_fraction * n))
        reactions[rng.choice(n, size=k, replace=False)] = 1.0
        return reactions
    return np.where(rng.random(n) < positive_fraction, 1.0, -1.0)


def event_probability(opinions: np.ndarray, lam: float) -> np.ndarray:
    """Per-agent event probability sigmoid(lam * opinion).

    Kept as API: the tick loop (_run_members) inlines it into preallocated
    rows, and the reference loop in the tests and perfbench's tracer call
    it.
    """
    z = lam * np.asarray(opinions, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _advance(x, g, operator, population, weight_scale=1.0):
    """One opinion update from opinions x and feedback g = gamma * event
    fraction: the reference step that the tick loop repeats in place.

    The blend pins an agent of susceptibility 0 at 0 * update + its start.
    Where that update is not finite, 0 * inf makes the step nan; the tick
    loop there keeps a pinned agent's start.
    """
    mixed = operator @ x
    if weight_scale != 1.0:
        mixed = weight_scale * mixed
    nxt = mixed + population.reactions * g
    xi = population.susceptibility
    if (xi != 1.0).any():
        nxt = xi * nxt + (1.0 - xi) * population.initial_opinions
    return nxt


@dataclass
class Trajectory:
    """Recorded run: row t holds the opinions and the events drawn from them.

    states is int8 for stochastic runs and float64 (per-agent event
    probabilities) in expected mode. event_fraction[t] is exactly
    states[t].sum() / n.
    """

    opinions: np.ndarray
    states: np.ndarray
    event_fraction: np.ndarray
    mean_opinion: np.ndarray
    max_diversity: np.ndarray

    @property
    def horizon(self) -> int:
        return self.opinions.shape[0]

    @property
    def n(self) -> int:
        return self.opinions.shape[1]

    def write_summary_csv(self, path) -> None:
        """Write t,event_fraction,mean_opinion,max_diversity rows."""
        write_csv(path, ["t", "event_fraction", "mean_opinion", "max_diversity"], zip(
            range(self.horizon), self.event_fraction.tolist(), self.mean_opinion.tolist(), self.max_diversity.tolist()))

    def write_agent_csv(self, path, which: str = "opinions") -> None:
        """Write a wide per-agent matrix, the opinions or the states:
        t,agent_0,...,agent_{n-1}."""
        if which not in ("opinions", "states"):
            raise ValueError(f"which must be 'opinions' or 'states', got {which!r}")
        matrix = getattr(self, which)
        write_csv(path, ["t"] + [f"agent_{i}" for i in range(self.n)],
                  ([t, *matrix[t].tolist()] for t in range(self.horizon)))


class RunSummary(NamedTuple):
    """What a sweep's statistics read of one run, as its Trajectory records
    them: event_fraction, max_diversity and the last row of opinions."""

    event_fraction: np.ndarray
    max_diversity: np.ndarray
    final_opinions: np.ndarray


def _check_run(graph, population, horizon, mode, weight_scale=1.0, check_connectivity=True) -> None:
    """Raise ValueError for a run that simulate rejects."""
    if not 0.0 < weight_scale < math.inf:
        raise ValueError(f"weight_scale must be positive and finite, got {weight_scale!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if population.n != graph.n:
        raise ValueError(f"population size {population.n} does not match graph size {graph.n}")
    if not is_normalized(graph):
        raise ValueError("graph incoming weights are not normalized")
    if check_connectivity and not is_strongly_connected(graph):
        raise ValueError("graph is not strongly connected (pass check_connectivity=False to override)")


def _dense_operator(graph: WeightedDigraph) -> bool:
    """Whether the tick loop mixes graph with a dense operator: n at most
    _DENSE_MAX_N and at least n**2 / 8 stored entries.

    One product into a preallocated row, measured on a 2-core Xeon VM with
    the CSR rows in natural order, before the tick loop sorted them by
    length (_block_diagonal): the direct CSR product took less time than the
    dense one on every graph measured below an eighth (n = 100 and 300,
    densities 0.06 to 0.15; 2.5 against 3.6 us for a Watts-Strogatz graph at
    n = 100, 10.0 against 16.4 us for an Erdos-Renyi one at n = 300, density
    0.10), and more at the default sbm's third (4.5 against 3.6 us at n =
    100).
    """
    n = graph.n
    return n <= _DENSE_MAX_N and 8 * graph.matrix.nnz >= n * n


def _operator_bytes(graph: WeightedDigraph) -> int:
    """Bytes of the operator the tick loop mixes graph with."""
    if _dense_operator(graph):
        return 8 * graph.n * graph.n
    matrix = graph.matrix
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _block_diagonal(matrices: list, n: int) -> tuple:
    """(indptr, indices, data, inverse) of the block-diagonal CSR of n x n
    matrices, its rows stably sorted by their count of stored entries:
    csr_matvec mostly waits on mispredicted row ends when row lengths vary.

    Row r of the block-diagonal matrix is row inverse[r] of the sorted one,
    so np.take(product, inverse) puts a product's rows back in order. Each
    row keeps its entries in the order of its matrix, so it sums exactly as
    in matrices[k] @ x. The index arrays are int32, which csr_matvec reads
    faster, whenever every index fits; the graphs' own stay int64, which
    randomize_weights needs.
    """
    lengths = np.concatenate([np.diff(matrix.indptr) for matrix in matrices])
    index = np.int32 if max(int(lengths.sum()), lengths.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(index)
    indices = np.concatenate([matrix.indices + k * n for k, matrix in enumerate(matrices)], dtype=index)
    joined = sparse.csr_array((np.concatenate([matrix.data for matrix in matrices]), indices, indptr),
                              shape=(lengths.size, lengths.size))
    order = np.argsort(lengths, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    # a row index copies each row's entries in their stored order
    rows = joined[order]
    return rows.indptr, rows.indices, rows.data, inverse


# Stochastic members draw their uniforms a block of ticks at a time, within
# this many bytes for the whole batch (at least one tick). Measured on a
# 2-core Xeon VM, _run_members over 1000 stochastic ticks, budgets alternated
# in 14-20 rounds: 33 Watts-Strogatz n = 300 members took 332 ms at one tick
# per call and 290 ms at this budget (13 ticks), level from 256 kB to 4 MB
# (276-300 ms); 25 sbm n = 100 members 195 against 158 ms (52 ticks). A lone
# n = 20000 run draws 6 ticks per call, with the same peak memory within
# 0.2 MB.
_DRAW_BYTES = 1 << 20


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector that starts on a 64-byte boundary.

    np.empty promises only 16 bytes, so where a stack of dense operators
    starts would vary with what was allocated before. On a 2-core Xeon
    VM, 3 members at n = 100 took 27.5 ms over 2000 expected ticks from a
    64-byte boundary, 27.9 ms from 32 bytes past one and 30.4-31.4 ms
    from 16 or 48 (medians of 12 alternating rounds); their products
    had the same bytes at every offset.
    """
    buffer = np.empty(size + 7)
    start = (-buffer.ctypes.data % 64) // 8
    return buffer[start:start + size]


def _tick_rows(buffer: np.ndarray, horizon: int):
    """Row t of buffer for each tick t: buffer itself when it has a row per
    tick, else its rows taken in turn."""
    if len(buffer) == horizon:
        return buffer
    return list(buffer) * (horizon // len(buffer) + 1)


def _run_members(members: list[tuple], horizon: int, mode: str, record: bool = False, spread: bool = False) -> list:
    """Advance K checked (graph, population, params, seed, weight_scale)
    members of one size n and one operator kind through one tick loop:
    event_probability and _advance, written into preallocated rows.

    Returns one outcome per member: its OpinionOverflowError, or else its
    Trajectory with record, whose rows are the views opinions[:, k] and
    states[:, k] of the batch's (horizon, K, n) records, and its RunSummary
    without. Its max_diversity, the spread max - min of its opinions at
    every tick, is None without spread. A member that overflows is frozen
    at zero, so it neither warns nor touches the others; the loop stops
    once all have failed. A stubborn agent, of susceptibility 0, is pinned
    by the blend alone.

    The kind is that of the first graph: where _dense_operator holds, the
    members are stacked for one np.matmul per tick, the same gemv per member
    as _advance on the dense matrix. Otherwise they are joined into one
    block-diagonal CSR, its rows sorted by length, for one csr_matvec per
    tick into a zeroed scratch row, the call behind scipy's matrix @ x,
    which np.take puts back in order into the next row; each row sums in its
    own member's order, so every member keeps the bits of its lone product.
    At K = 1 the event fraction and feedback are Python floats, which cost
    less than (1, 1) arrays; above, (K, 1) arrays, which cost less than a
    loop. Each member's weight_scale, like its gamma, is a (K, 1) column,
    applied only when some member's is not 1.0 (x * 1.0 is exactly x). The
    loop carries one bound on |opinion| for the whole batch, the largest
    over its members, and widens it at every update. It takes the exact
    peaks only once the bound passes OVERFLOW_LIMIT, which happens no later
    than the update that first carries an opinion past it, so every error's
    step and magnitude are those a check at every tick would give. The
    peaks then restart the bound. A stochastic member draws the uniforms of
    a block of ticks, as many as keep the batch's draws within _DRAW_BYTES,
    in one call on its own generator: the doubles that one call per tick
    would draw, in the same order, so each member stays on its lone run's
    stream.
    """
    graphs, pops, params, seeds, scales = zip(*members)
    size, n, dense = len(members), graphs[0].n, _dense_operator(graphs[0])
    flat = size * n
    lone = size == 1
    if dense:
        # filled in place, where np.stack would briefly hold a second copy
        operator = _aligned_empty(size * n * n).reshape(size, n, n)
        for graph, rows in zip(graphs, operator):
            graph.matrix.toarray(out=rows)
    else:
        indptr, indices, data, inverse = _block_diagonal([graph.matrix for graph in graphs], n)
        product = np.empty(flat)
    stochastic = mode == "stochastic"
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # x * -lam is exactly -(x * lam): IEEE rounding is symmetric about zero
    neg_lam = np.repeat(np.array([[-par.lam] for par in params], dtype=np.float64), n, axis=1)
    gamma = np.array([[par.gamma] for par in params], dtype=np.float64)
    scale = np.array([[s] for s in scales], dtype=np.float64) if set(scales) != {1.0} else None
    lone_gamma = params[0].gamma
    reactions = np.stack([pop.reactions for pop in pops])
    initial = np.stack([pop.initial_opinions for pop in pops])
    # what the loop reads of a member after tick 0, zeroed when it overflows
    frozen = [reactions, gamma]
    blended = any((pop.susceptibility != 1.0).any() for pop in pops)
    if blended:
        xi = np.stack([pop.susceptibility for pop in pops])
        # x * 1.0 and x + -0.0 are exactly x, so members and agents without a
        # blend keep their bytes, a -0.0 opinion too
        anchor = np.full((size, n), -0.0)
        np.multiply(1.0 - xi, initial, out=anchor, where=xi != 1.0)
        frozen.append(anchor)

    # With gain the largest absolute row sum of an operator times its
    # member's weight_scale, |x_{t+1}| <= gain * |x_t| + push, where push =
    # max |reaction| * |gamma| since the event fraction lies in [0, 1]. The
    # blend toward the initial opinions, which holds a pinned agent at its
    # start, stays within max(that, floor = max |x_0|), and _BOUND_SLACK
    # covers the rounding.
    gain = max(s * float(abs(graph.matrix).sum(axis=1).max()) for graph, s in zip(graphs, scales))
    pushes = np.abs(reactions).max(axis=1) * np.abs(gamma[:, 0])
    floors = np.abs(initial).max(axis=1)
    bound, push, floor = float(floors.max()), float(pushes.max()), float(floors.max())
    grow = 1.0 + _BOUND_SLACK
    runs: list = [None] * size  # per member: its outcome, once known

    opinions = np.empty((horizon if record else 2, size, n))
    states = np.empty((horizon if record else 1, size, n), dtype=np.int8 if stochastic else np.float64)
    # ys holds the rows the operator reads and writes: (K, n, 1) stacks of
    # columns for np.matmul, or one (K * n) row for csr_matvec
    ys = opinions[..., None] if dense else opinions.reshape(len(opinions), flat)
    xs, ys, ss = (_tick_rows(rows, horizon) for rows in (opinions, ys, states))
    fractions = np.empty((horizon, size, 1))
    lone_fractions = fractions.reshape(-1)
    spreads = peak = trough = None
    if spread:
        spreads, peak, trough = np.empty((horizon, size)), np.empty(size), np.empty(size)
    probability = np.empty((size, n))
    if stochastic:
        block = max(1, min(horizon, _DRAW_BYTES // (8 * size * n)))
        draws = np.empty((size, block, n))
        tick_draws = list(draws.swapaxes(0, 1))
    g = np.empty((size, 1))
    steer = np.empty((size, n))
    xs[0][...] = initial
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            x, s = xs[t], ss[t]
            if spread:
                np.subtract(np.maximum.reduce(x, axis=1, out=peak), np.minimum.reduce(x, axis=1, out=trough),
                            out=spreads[t])
            p = probability if stochastic else s
            np.multiply(x, neg_lam, out=p)
            np.exp(p, out=p)
            p += 1.0
            np.divide(1.0, p, out=p)
            if stochastic:
                b = t % block
                if b == 0:
                    for rng, rows in zip(rngs, draws[:, :horizon - t]):
                        rng.random(out=rows)
                np.less(tick_draws[b], p, out=s)
            # The batched branch gives a lone run the same bytes, and this one
            # is kept only for speed: on a (1, 20000) int8 row np.count_nonzero
            # took 2.1-2.7 us against 18.0-19.3 us for the float64 reduce, and
            # simulate on a default sbm n = 100 over 2000 stochastic ticks was
            # faster with it in every round: 25.7-28.1 against 30.3-50.6 ms,
            # and 37.7-42.6 against 47.7-49.8 ms on a busier host (2-core Xeon
            # VM, best of 30, three alternating rounds each)
            if lone:
                f = float(np.count_nonzero(s) if stochastic else np.add.reduce(s, axis=None)) / n
                lone_fractions[t] = f
            else:
                fraction = fractions[t]
                np.add.reduce(s, axis=1, dtype=np.float64, keepdims=True, out=fraction)
                fraction /= n
            if t + 1 == horizon:
                break
            nxt = xs[t + 1]
            if dense:
                np.matmul(operator, ys[t], out=ys[t + 1])
            else:
                product.fill(0.0)
                csr_matvec(flat, flat, indptr, indices, data, ys[t], product)
                np.take(product, inverse, out=ys[t + 1], mode="clip")
            if scale is not None:
                nxt *= scale
            if lone:
                np.multiply(reactions, lone_gamma * f, out=steer)
            else:
                np.multiply(reactions, np.multiply(gamma, fraction, out=g), out=steer)
            nxt += steer
            if blended:
                nxt *= xi
                nxt += anchor
            bound = max(gain * bound + push, floor) * grow
            if not bound <= OVERFLOW_LIMIT:
                if blended:
                    # the blend made a pinned agent nan where the update it
                    # ignores left the floats (0 * inf); it keeps its start
                    np.copyto(nxt, anchor, where=np.isnan(nxt) & (xi == 0.0))
                peaks = np.abs(nxt).max(axis=1)
                for k in np.flatnonzero(~(peaks <= OVERFLOW_LIMIT)):
                    runs[k] = OpinionOverflowError(step=t + 1, magnitude=float(peaks[k]))
                    for row in (nxt, *frozen):
                        row[k] = 0.0
                    pushes[k] = floors[k] = peaks[k] = 0.0
                if None not in runs:
                    break
                bound, push, floor = float(peaks.max()), float(pushes.max()), float(floors.max())

    for k in range(size):
        if runs[k] is None:
            fraction, diversity = fractions[:, k, 0].copy(), spreads[:, k].copy() if spread else None
            rows = opinions[:, k] if record else xs[horizon - 1][k]
            runs[k] = (Trajectory(rows, states[:, k], fraction, rows.mean(axis=1), diversity) if record
                       else RunSummary(fraction, diversity, rows))
    return runs


def simulate(
    graph: WeightedDigraph,
    population: Population,
    params: ModelParams,
    horizon: int,
    seed: int,
    mode: str = "stochastic",
    check_connectivity: bool = True,
    weight_scale: float = 1.0,
) -> Trajectory:
    """Run the coupled dynamics for `horizon` recorded ticks.

    Row t pairs the opinions X_t with the events drawn from them; opinions
    advance horizon - 1 times, and the final row gets its own event draw so
    both matrices have equal length. Expected mode replaces event draws by
    their probabilities, giving a deterministic surrogate. Aborts with
    OpinionOverflowError once any |opinion| exceeds OVERFLOW_LIMIT.

    check_connectivity=False permits substrates that are deliberately not
    strongly connected, such as the self-loop-only graph of the pure
    steering model. weight_scale multiplies every incoming weight at each
    step, for growth or decay protocols where the sums equal alpha != 1.
    """
    _check_run(graph, population, horizon, mode, weight_scale, check_connectivity)
    [run] = _run_members([(graph, population, params, seed, weight_scale)], horizon, mode, record=True, spread=True)
    if isinstance(run, OpinionOverflowError):
        raise run
    return run


def _replicate_inputs(graph_spec, pop_spec, params, seed) -> tuple[WeightedDigraph, Population, int]:
    """Graph, population and simulate seed of one replicate of seed."""
    graph = generate(replace(graph_spec, seed=derive_seed(seed, "graph")))
    population = pop_spec.build(
        graph.n, rng_from(seed, "population"), params.mu, params.sigma, clusters=graph.clusters
    )
    return graph, population, derive_seed(seed, "simulate")


def replicate(
    graph_spec: GraphGenSpec,
    pop_spec: PopulationSpec,
    params: ModelParams,
    horizon: int,
    seed: int,
    mode: str = "stochastic",
    weight_scale: float = 1.0,
) -> tuple[Population, Trajectory]:
    """One seeded replicate: generate a graph, draw a population, simulate.

    The three stages draw from seeds derived from seed under the labels
    "graph", "population" and "simulate"; graph_spec.seed is replaced. The
    simulate command runs through here, and every sweep replicate and fit
    evaluation through replicate_summaries, which builds its inputs alike,
    so each can be rebuilt from its seed alone. generate has checked that
    the graph is strongly connected, so simulate does not check it again.
    """
    graph, population, sim_seed = _replicate_inputs(graph_spec, pop_spec, params, seed)
    trajectory = simulate(graph, population, params, horizon, seed=sim_seed, mode=mode, check_connectivity=False,
                          weight_scale=weight_scale)
    return population, trajectory


# The operators of one batch stay within this size (_operator_bytes: 8 n**2
# per dense member, the CSR arrays of a sparse one). Batching saves each member
# most of a lone run's per-tick numpy calls, but the members' operators then
# leave the cache between their ticks. Measured per member-tick on a 2-core
# Xeon VM with 2 MB of L2 per core, a dense batch cost least at about 1 MB of
# operators (n = 100, 13 to 16 members: 2.8-3.3 us expected and 3.4 us
# stochastic, against 8.7-12.9 and 10.4 us alone), more above it (n = 100, 24
# members: 3.8 us; 52 members: 5.0 and 6.2 us), and more than a lone run at
# n = 300 (3 members: 26 against 20 us expected). Sparse members share one
# block-diagonal CSR. Watts-Strogatz k = 6 graphs, stochastic, ten rounds
# alternating the batch sizes, with the CSR rows in natural order: at n = 300
# (31 kB each) 12.7 us per member-tick at 3 members, 8.5 at 10 and 7.7-7.9 at
# 15 to 30; at n = 1000 (104 kB) 31.6 us alone and 23-25 us at 3 to 10
# members, and at n = 1500 (156 kB) 47.9 us alone and 43.6-43.8 us at 3 and
# 6, lower in 9 or 10 of 10 rounds.
_BATCH_BYTES = 1 << 20
# Larger members run alone. At n = 2000 (208 kB each, so the operator budget
# alone would admit 5), with the CSR rows in natural order, a batch of 2, 3 or
# 5 cost 39-42 us per member-tick against 38 us alone, lower in only 3 or 4 of
# 10 rounds. Counting the members' rows in the budget instead cannot draw this
# line: the rows grow with n as the CSR does, so any budget that admits 27
# members at n = 300 admits 4 at n = 2000.
_BATCH_MAX_N = 1500


def replicate_summaries(replicates: list[tuple], horizon: int, mode: str = "stochastic",
                        spread: bool = True) -> Iterator:
    """RunSummary of each of many replicates, run in batches through _run_members.

    replicates holds (graph_spec, pop_spec, params, seed, weight_scale)
    tuples, whose sizes and weight_scales may differ. The k-th item yielded
    is, byte for byte, the RunSummary of the trajectory of
    replicate(graph_spec, pop_spec, params, horizon, seed, mode,
    weight_scale), whose max_diversity is None without spread, or the
    exception that call would raise. Any exception raised while building
    or checking a replicate fails that replicate alone, and one raised
    while running a batch fails each replicate of the batch; neither ends
    the stream.

    A batch holds as many consecutive built replicates as keep their
    operators within _BATCH_BYTES, and at least one; it closes where the
    size or the operator kind (_dense_operator) changes, and a member above
    _BATCH_MAX_N nodes runs alone. Batches are built and run one at a time
    as the items are taken, so only one batch of summaries is held at once.
    No run records its (horizon, n) opinions and states. generate has
    checked that each graph is strongly connected, so the runs do not check
    it again.
    """
    batch: list = []  # per replicate since the last batch ran: its failure, or its member
    load, last = 0, None  # the batch's size and operator kind
    for graph_spec, pop_spec, params, seed, weight_scale in replicates:
        try:
            graph, population, sim_seed = _replicate_inputs(graph_spec, pop_spec, params, seed)
            _check_run(graph, population, horizon, mode, weight_scale, check_connectivity=False)
        except Exception as exc:  # noqa: BLE001 - a failed replicate is an outcome, not a crash
            batch.append(exc)
            continue
        cost, key = _operator_bytes(graph), (graph.n, _dense_operator(graph))
        if load + cost > _BATCH_BYTES or graph.n > _BATCH_MAX_N or key != last:
            yield from _run_batch(batch, horizon, mode, spread)
            batch, load = [], 0
        batch.append((graph, population, params, sim_seed, weight_scale))
        load, last = load + cost, key
    yield from _run_batch(batch, horizon, mode, spread)


def _run_batch(batch: list, horizon: int, mode: str, spread: bool) -> list:
    """batch with each checked (graph, population, params, seed,
    weight_scale) member, all of one size and operator kind, replaced by its
    RunSummary or OpinionOverflowError from one _run_members call; an
    exception raised by that call replaces each."""
    members = [item for item in batch if not isinstance(item, Exception)]
    if not members:
        return batch
    try:
        runs = iter(_run_members(members, horizon, mode, spread=spread))
    except Exception as exc:  # noqa: BLE001 - a failed batch fails its replicates, not the stream
        runs = iter([exc] * len(members))
    return [item if isinstance(item, Exception) else next(runs) for item in batch]


# With jobs unset, fan_out starts at most one worker per _PART_WORK estimated
# node-ticks (n x replicates x horizon per run) and per _PART_MEMBERS lockstep
# members. Measured on a 2-core Xeon VM, jobs 1 against 2 in alternating
# rounds: two forked workers cost fan_out 10-15 ms (medians of 30 calls, two
# runs). A 36-cell fit grid (sbm n = 100, expected mode, one replicate a cell)
# lost at 0.9M node-ticks in all (69 against 106 ms, 9 of 10 rounds) and won
# from 1.44M (122 against 88 ms, 10 of 10); a 36-cell Watts-Strogatz n = 300
# sweep of 3 replicates, whose graph draws weigh more, lost at 0.32M and won
# from 0.81M. K lockstep members cut into two equal parts for 20 steps of 2000
# expected ticks (sbm n = 100) won 16 of 16 rounds at K = 6 (1057 against 873
# ms) and 14 of 16 at K = 4, but gained nothing at K = 3 (649 against 655 ms):
# a narrower batch costs more per member-tick (_BATCH_BYTES).
_PART_WORK = 1_000_000
_PART_MEMBERS = 3


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parts(items: list, work: list, count: int) -> list[list]:
    """items cut into count contiguous, non-empty parts, in order, each cut
    where the cumulative work first reaches an equal share of the total; a
    part then costs at most total / count plus its largest item."""
    prefix = [0, *accumulate(work)]
    starts = [0]
    for i in range(1, count):
        cut = bisect_left(prefix, prefix[-1] * i, key=lambda done: done * count)
        starts.append(min(max(cut, starts[-1] + 1), len(items) - count + i))
    return [items[a:b] for a, b in zip(starts, starts[1:] + [len(items)])]


def fan_out(fn, items: list, *shared, work: list, members: int, jobs: int | None = None) -> list:
    """fn(part, *shared) for items split into contiguous parts, one per worker
    process, the parts' result lists joined in item order.

    work holds each item's estimated cost in node-ticks, and members is the
    lockstep members of each item; _parts cuts the parts at equal shares of
    cumulative work. The parts are at most the usable CPUs (_usable_cpus),
    since the pool starts every worker at once, and at most jobs. With jobs
    None, the default, they are also at most the total work over _PART_WORK
    and the members over _PART_MEMBERS, and a fan_out inside a worker
    process runs there in one part. One part runs fn(items, *shared) in
    this process, with no pool; the pool's workers end before fan_out
    returns.

    The results do not depend on jobs; with more than one part, fn, its
    arguments and its results must pickle.
    """
    count = min(len(items), _usable_cpus())
    if jobs is not None:
        count = min(count, jobs)
    elif multiprocessing.parent_process() is not None:
        count = 1
    else:
        count = min(count, sum(work) // _PART_WORK, members * len(items) // _PART_MEMBERS)
    if count <= 1:
        return fn(items, *shared)
    parts = _parts(items, work, count)
    with ProcessPoolExecutor(max_workers=count) as pool:
        return [result for part in pool.map(fn, parts, *[[arg] * count for arg in shared]) for result in part]
