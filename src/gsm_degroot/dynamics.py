"""Coupled opinion and event dynamics on a fixed weighted digraph.

Each tick, every agent emits a binary event with probability
sigmoid(lam * opinion); the event fraction feeds back into the next
opinion through each agent's reaction coefficient on top of the usual
weighted-average opinion update:

    next_i = susceptibility_i * (reaction_i * gamma * event_fraction
             + sum_j w_ji * current_j) + (1 - susceptibility_i) * initial_i

Fully stubborn agents skip the update entirely and keep their initial
opinion.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Union

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from .graph import (
    GenerationError,
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
    mu: float = 0.0
    sigma: float = ruled(1.0, ge=0.0)

    def __post_init__(self) -> None:
        check_rules(self)


@dataclass
class Population:
    """Per-agent attributes: reactions, initial opinions, stubbornness.

    susceptibility is the partial-stubbornness blend in [0, 1]: 1 applies
    the full update, 0 pins the agent to its initial opinion. fully_stubborn
    agents ignore susceptibility and never move.
    """

    reactions: np.ndarray
    initial_opinions: np.ndarray
    fully_stubborn: np.ndarray | None = None
    susceptibility: Union[float, np.ndarray] = 1.0

    def __post_init__(self) -> None:
        self.reactions = np.asarray(self.reactions, dtype=np.float64)
        self.initial_opinions = np.asarray(self.initial_opinions, dtype=np.float64)
        if self.reactions.shape != self.initial_opinions.shape or self.reactions.ndim != 1:
            raise ValueError("reactions and initial_opinions must be equal-length vectors")
        if self.fully_stubborn is not None:
            self.fully_stubborn = np.asarray(self.fully_stubborn, dtype=bool)
            if self.fully_stubborn.shape != self.reactions.shape:
                raise ValueError("fully_stubborn mask length mismatch")
            if not self.fully_stubborn.any():
                self.fully_stubborn = None
        if not np.isscalar(self.susceptibility):
            self.susceptibility = np.asarray(self.susceptibility, dtype=np.float64)
            if self.susceptibility.shape != self.reactions.shape:
                raise ValueError("susceptibility length mismatch")
        xi = self.susceptibility
        if np.any(np.asarray(xi) < 0.0) or np.any(np.asarray(xi) > 1.0):
            raise ValueError("susceptibility must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.reactions.size


@dataclass
class PopulationSpec:
    """Sampling recipe for a Population.

    positive_fraction draws each reaction sign iid; cluster_positive_fractions
    instead fixes the exact positive count inside each graph cluster.
    stubborn_fraction pins round(fraction * n) uniformly chosen agents.
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
        mask = sample_stubborn_mask(n, self.stubborn_fraction, rng) if self.stubborn_fraction > 0 else None
        return Population(
            reactions=reactions,
            initial_opinions=opinions,
            fully_stubborn=mask,
            susceptibility=self.susceptibility,
        )


def sample_reactions(n: int, positive_fraction: float, rng: np.random.Generator, exact: bool = False) -> np.ndarray:
    """Signs in {-1, +1}; iid by default, exact round(fraction * n) positives if exact."""
    if exact:
        reactions = np.full(n, -1.0)
        k = int(round(positive_fraction * n))
        reactions[rng.choice(n, size=k, replace=False)] = 1.0
        return reactions
    return np.where(rng.random(n) < positive_fraction, 1.0, -1.0)


def sample_stubborn_mask(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask pinning round(fraction * n) uniformly chosen agents."""
    mask = np.zeros(n, dtype=bool)
    k = int(round(fraction * n))
    if k > 0:
        mask[rng.choice(n, size=k, replace=False)] = True
    return mask


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
    fraction: the reference step that the tick loop repeats in place."""
    mixed = operator @ x
    if weight_scale != 1.0:
        mixed = weight_scale * mixed
    nxt = mixed + population.reactions * g
    xi = population.susceptibility
    if not (np.isscalar(xi) and xi == 1.0):
        nxt = xi * nxt + (1.0 - xi) * population.initial_opinions
    if population.fully_stubborn is not None:
        nxt[population.fully_stubborn] = population.initial_opinions[population.fully_stubborn]
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
    seed: int
    mode: str = "stochastic"

    @property
    def horizon(self) -> int:
        return self.opinions.shape[0]

    @property
    def n(self) -> int:
        return self.opinions.shape[1]

    def write_summary_csv(self, path) -> None:
        """Write t,event_fraction,mean_opinion,max_diversity rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "event_fraction", "mean_opinion", "max_diversity"])
            for t in range(self.horizon):
                writer.writerow([
                    t,
                    repr(float(self.event_fraction[t])),
                    repr(float(self.mean_opinion[t])),
                    repr(float(self.max_diversity[t])),
                ])

    def write_agent_csv(self, path, which: str = "opinions") -> None:
        """Write a wide per-agent matrix: t,agent_0,...,agent_{n-1}."""
        matrix = self.opinions if which == "opinions" else self.states
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"agent_{i}" for i in range(self.n)])
            for t in range(self.horizon):
                if matrix.dtype == np.int8:
                    writer.writerow([t] + [int(v) for v in matrix[t]])
                else:
                    writer.writerow([t] + [repr(float(v)) for v in matrix[t]])


def _check_run(graph, population, horizon, mode, weight_scale=1.0, check_connectivity=True) -> None:
    """Raise ValueError for a run that simulate rejects."""
    if weight_scale <= 0.0:
        raise ValueError(f"weight_scale must be positive, got {weight_scale!r}")
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


def _bound_terms(graph, population, weight_scale=1.0) -> tuple[float, float, float]:
    """(gain, reach, floor) of the bound on |opinion| that the tick loop carries.

    With gain the operator's largest absolute row sum (weight_scale
    included) and reach = max |reaction|, |x_{t+1}| <= gain * |x_t| + reach *
    |g|; the blend toward the initial opinions and the stubborn agents stay
    within max(that, floor = |x_0|.max()). floor is inf when |x_0| is not
    finite, so the exact peak is then taken every step. The loop takes the
    exact peak only once the bound passes OVERFLOW_LIMIT.
    """
    gain = weight_scale * float(abs(graph.matrix).sum(axis=1).max())
    reach = float(np.abs(population.reactions).max())
    floor = float(np.abs(population.initial_opinions).max())
    if not math.isfinite(floor):
        floor = math.inf
    return gain, reach, floor


def _first_check(bound: float, t: int, gain: float, push: float, floor: float, horizon: int) -> int:
    """First tick from t on whose update can carry |opinion| past
    OVERFLOW_LIMIT, or horizon if none before the last tick can. bound holds
    |x_t|; an update takes it to max(gain * bound + push, floor) * (1 +
    _BOUND_SLACK), with _bound_terms' gain and floor and push >= reach * |g|.
    """
    grow = 1.0 + _BOUND_SLACK
    while t < horizon - 1:
        bound = max(gain * bound + push, floor) * grow
        if not bound <= OVERFLOW_LIMIT:
            return t
        t += 1
    return horizon


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


# _block_diagonal writes the sorted arrays this many rows at a time. Index
# arrays as long as all of a Barabasi-Albert n = 20000 graph's entries, though
# freed before the tick loop, left the peak resident memory of a process that
# generates and simulates it three times about 1 MB higher: 277.1-277.4 MB,
# against 276.2-276.5 MB written in blocks and 276.0-276.6 MB for the
# unsorted CSR (VmHWM, two processes each).
_WRITE_ROWS = 4096


def _block_diagonal(matrices: list, n: int) -> tuple:
    """(indptr, indices, data, inverse) of the block-diagonal CSR of n x n
    matrices, its rows stably sorted by their count of stored entries.

    Row r of the block-diagonal matrix is row inverse[r] of the sorted one,
    so np.take(product, inverse) puts a product's rows back in order. Each
    row keeps its entries in the order of its matrix, so it sums exactly as
    in matrices[k] @ x. csr_matvec mostly waits on mispredicted row ends
    when row lengths vary: one Barabasi-Albert n = 20000 product took
    218-237 us with its rows in natural order and 103-136 us sorted, 120-179
    us counting the np.take (2-core Xeon VM, best of 7 x 300 in each of
    three rounds). The index arrays are int32 copies whenever every index
    fits, which csr_matvec reads faster (natural row order, median of 15
    rounds: 62.3 against 64.5 us for 33 Watts-Strogatz n = 300 members, 289
    against 298 us for one Barabasi-Albert n = 20000 graph); the graphs' own
    stay int64, which randomize_weights needs. Each sorted array is written
    straight from the matrices' own, with no unsorted copy held beside it,
    _WRITE_ROWS rows at a time.
    """
    lengths = np.concatenate([np.diff(matrix.indptr) for matrix in matrices])
    inverse = np.empty(lengths.size, dtype=np.intp)
    inverse[np.argsort(lengths, kind="stable")] = np.arange(lengths.size)
    nnz = int(lengths.sum())
    index = np.int32 if max(nnz, lengths.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(lengths.size + 1, dtype=index)
    indptr[1 + inverse] = lengths
    np.cumsum(indptr, out=indptr)
    indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
    for k, matrix in enumerate(matrices):
        ptr = matrix.indptr
        for a in range(0, n, _WRITE_ROWS):
            b = min(a + _WRITE_ROWS, n)
            # entry e of row r lands at indptr[inverse[r]] + e - ptr[r]
            where = np.repeat(indptr[inverse[k * n + a:k * n + b]] - ptr[a:b], lengths[k * n + a:k * n + b])
            where += np.arange(ptr[a], ptr[b])
            indices[where] = matrix.indices[ptr[a]:ptr[b]] + k * n
            data[where] = matrix.data[ptr[a]:ptr[b]]
    return indptr, indices, data, inverse


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


def _run_members(members: list[tuple], horizon: int, mode: str, weight_scale: float, record: bool = False,
                 spread: bool = False) -> tuple:
    """Advance K checked (graph, population, params, seed) members of one
    size n through one tick loop: event_probability and _advance, written
    into preallocated rows.

    Returns (errors, series, opinions, states, spreads): errors[k] is None
    or member k's OpinionOverflowError, row k of series its event
    fractions. With record, opinions and states hold every tick's (K, n)
    rows, else the last tick's. With spread, row k of spreads holds member
    k's spread max - min of its opinions at every tick, else spreads is
    None. A member that overflows is frozen at zero, so it neither warns
    nor touches the others; the loop stops once all have failed.

    Members whose _dense_operator holds are stacked for one np.matmul per
    tick, the same gemv per member as _advance on the dense matrix. The
    others are joined into one block-diagonal CSR, its rows sorted by
    length, for one csr_matvec per tick into a zeroed scratch row, the call
    behind scipy's matrix @ x, which np.take puts back in order into the
    next row; each row sums in its own member's order, so every member keeps
    the bits of its lone product. The loop runs the dense members first and
    returns every row in the members' order. At K = 1 the event fraction and
    feedback are Python floats, which cost less than (1, 1) arrays; above,
    (K, 1) arrays, which cost less than a loop. One bound on |opinion|
    serves the batch: _bound_terms' largest gain and floor, and the push max
    reach * |gamma|, as the event fraction lies in [0, 1]. Exact peaks are
    taken only at the ticks _first_check names; they decide every error and
    restart the bound. A stochastic member draws the uniforms of a block of
    ticks, as many as keep the batch's draws within _DRAW_BYTES, in one call
    on its own generator: the doubles that one call per tick would draw, in
    the same order, so each member stays on its lone run's stream.
    """
    dense = [_dense_operator(member[0]) for member in members]
    # sorted is stable, so the dense and the sparse members each keep their order
    order = sorted(range(len(members)), key=lambda k: not dense[k])
    graphs, pops, params, seeds = zip(*(members[k] for k in order))
    size, n, stacked = len(members), graphs[0].n, sum(dense)
    flat = (size - stacked) * n
    lone = size == 1
    if stacked:
        # filled in place, where np.stack would briefly hold a second copy
        operator = _aligned_empty(stacked * n * n).reshape(stacked, n, n)
        for k in range(stacked):
            graphs[k].matrix.toarray(out=operator[k])
    if flat:
        indptr, indices, data, inverse = _block_diagonal([graph.matrix for graph in graphs[stacked:]], n)
        product = np.empty(flat)
    stochastic = mode == "stochastic"
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # x * -lam is exactly -(x * lam): IEEE rounding is symmetric about zero
    neg_lam = np.repeat(np.array([[-par.lam] for par in params], dtype=np.float64), n, axis=1)
    gamma = np.array([[par.gamma] for par in params], dtype=np.float64)
    lone_gamma = params[0].gamma
    reactions = np.stack([pop.reactions for pop in pops])
    initial = np.stack([pop.initial_opinions for pop in pops])
    frozen = [reactions, initial, gamma]
    blended = [k for k, pop in enumerate(pops) if not (np.isscalar(pop.susceptibility) and pop.susceptibility == 1.0)]
    xi = None
    if blended:
        # x * 1.0 and x + -0.0 are exactly x, so members without a blend keep their bytes
        xi, anchor = np.ones((size, n)), np.full((size, n), -0.0)
        for k in blended:
            xi[k] = pops[k].susceptibility
            anchor[k] = (1.0 - pops[k].susceptibility) * pops[k].initial_opinions
        frozen.append(anchor)
    stubborn = None
    if any(pop.fully_stubborn is not None for pop in pops):
        stubborn = np.zeros((size, n), dtype=bool)
        for k, pop in enumerate(pops):
            if pop.fully_stubborn is not None:
                stubborn[k] = pop.fully_stubborn

    terms = [_bound_terms(graph, pop, weight_scale) for graph, pop in zip(graphs, pops)]
    gain = max(term[0] for term in terms)
    pushes = np.array([reach * abs(par.gamma) for (_, reach, _), par in zip(terms, params)])
    floors = np.array([floor for _, _, floor in terms])
    check = _first_check(float(floors.max()), 0, gain, float(pushes.max()), float(floors.max()), horizon)
    errors: list = [None] * size

    opinions = np.empty((horizon if record else 2, size, n))
    states = np.empty((horizon if record else 1, size, n), dtype=np.int8 if stochastic else np.float64)
    # x3s holds the dense members' rows as (K, n, 1) stacks of columns for
    # np.matmul, ys the sparse members' rows as one (K * n) row each
    xs, x3s, ys, ss = (_tick_rows(rows, horizon) for rows in (
        opinions, opinions[:, :stacked, :, None], opinions[:, stacked:].reshape(len(opinions), flat), states))
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
    push = np.empty((size, n))
    xs[0][...] = initial
    with np.errstate(over="ignore"):
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
            if stacked:
                np.matmul(operator, x3s[t], out=x3s[t + 1])
            if flat:
                product.fill(0.0)
                csr_matvec(flat, flat, indptr, indices, data, ys[t], product)
                np.take(product, inverse, out=ys[t + 1], mode="clip")
            if weight_scale != 1.0:
                nxt *= weight_scale
            if lone:
                np.multiply(reactions, lone_gamma * f, out=push)
            else:
                np.multiply(reactions, np.multiply(gamma, fraction, out=g), out=push)
            nxt += push
            if xi is not None:
                nxt *= xi
                nxt += anchor
            if stubborn is not None:
                np.copyto(nxt, initial, where=stubborn)
            if t == check:
                peaks = np.abs(nxt).max(axis=1)
                for k in np.flatnonzero(~(peaks <= OVERFLOW_LIMIT)):
                    errors[k] = OpinionOverflowError(step=t + 1, magnitude=float(peaks[k]))
                    for row in (nxt, *frozen):
                        row[k] = 0.0
                    pushes[k] = floors[k] = peaks[k] = 0.0
                if None not in errors:
                    break
                check = _first_check(float(peaks.max()), t + 1, gain, float(pushes.max()), float(floors.max()), horizon)

    series = np.ascontiguousarray(fractions[:, :, 0].T)
    if spread:
        spreads = np.ascontiguousarray(spreads.T)
    if not record:
        opinions, states = xs[horizon - 1], ss[horizon - 1]
    if order != list(range(size)):
        back = np.argsort(order)
        errors = [errors[k] for k in back]
        series, opinions, states = series[back], np.take(opinions, back, axis=-2), np.take(states, back, axis=-2)
        if spread:
            spreads = spreads[back]
    return errors, series, opinions, states, spreads


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
    errors, series, opinions, states, spreads = _run_members(
        [(graph, population, params, seed)], horizon, mode, weight_scale, record=True, spread=True
    )
    if errors[0] is not None:
        raise errors[0]
    # (horizon, 1, n) to (horizon, n) is a view, not a copy
    opinions = opinions.reshape(horizon, graph.n)
    states = states.reshape(horizon, graph.n)
    return Trajectory(
        opinions=opinions,
        states=states,
        event_fraction=series[0],
        mean_opinion=opinions.mean(axis=1),
        max_diversity=spreads[0],
        seed=seed,
        mode=mode,
    )


class RunSummary(NamedTuple):
    """What a sweep's statistics read of one run, as its Trajectory records
    them: event_fraction, max_diversity and the last row of opinions."""

    event_fraction: np.ndarray
    max_diversity: np.ndarray
    final_opinions: np.ndarray


def _member_runs(members: list[tuple], horizon: int, mode: str, weight_scale: float = 1.0,
                 check_connectivity: bool = True, spread: bool = False) -> list:
    """Outcomes of K runs advanced together by one tick loop.

    members holds (graph, population, params, seed) tuples of one size n.
    Entry k is the exception that simulate(graph, population, params,
    horizon, seed, mode, check_connectivity, weight_scale) would raise for
    member k, else the RunSummary of its trajectory, byte for byte, whose
    max_diversity is None without spread. A member that overflows fails
    alone; the others run on.
    """
    results: list = [None] * len(members)
    live = []
    for k, (graph, population, _, _) in enumerate(members):
        try:
            _check_run(graph, population, horizon, mode, weight_scale, check_connectivity)
            live.append(k)
        except ValueError as exc:
            results[k] = exc
    if not live:
        return results
    sizes = {members[k][0].n for k in live}
    if len(sizes) > 1:
        raise ValueError(f"members differ in size: {sorted(sizes)}")
    errors, series, last, _, spreads = _run_members([members[k] for k in live], horizon, mode, weight_scale,
                                                    spread=spread)
    for i, k in enumerate(live):
        if errors[i] is not None:
            results[k] = errors[i]
        else:
            results[k] = RunSummary(series[i], spreads[i] if spread else None, last[i])
    return results


def event_fractions(members: list[tuple], horizon: int, mode: str = "stochastic",
                    check_connectivity: bool = True) -> list:
    """Event-fraction series of K runs advanced together by one tick loop.

    members holds (graph, population, params, seed) tuples of one size n.
    Entry k of the result is the event_fraction of simulate(graph,
    population, params, horizon, seed=seed, mode=mode,
    check_connectivity=check_connectivity) byte for byte, as a C-contiguous
    row, or the exception that call would raise: the ValueError of a
    rejected input, or an OpinionOverflowError with the same step and
    magnitude. A member that overflows fails alone; the others run on.
    Only the series are recorded, not the (horizon, n) opinions and states.
    """
    return [run if isinstance(run, Exception) else run.event_fraction
            for run in _member_runs(members, horizon, mode, check_connectivity=check_connectivity)]


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
    simulate command runs through here, every sweep replicate through
    replicate_summaries and every fit evaluation through
    replicate_fractions, which build their inputs alike, so each can be
    rebuilt from its seed alone.
    """
    graph, population, sim_seed = _replicate_inputs(graph_spec, pop_spec, params, seed)
    trajectory = simulate(graph, population, params, horizon, seed=sim_seed, mode=mode, weight_scale=weight_scale)
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


def _replicate_batches(replicates, run, caught) -> Iterator:
    """run's outcome for each (graph_spec, pop_spec, params, seed,
    weight_scale) replicate, or the exception of a type in caught that
    building its inputs raised.

    run takes a list of (graph, population, params, simulate seed) members
    of one size and one weight_scale, and that weight_scale, and returns
    one outcome per member; an exception of a type in caught that it raises
    is the outcome of each of its members. A batch holds as many
    consecutive replicates as keep their operators within _BATCH_BYTES, and
    at least one; it closes where the size or the weight_scale changes, and
    a member above _BATCH_MAX_N nodes runs alone. Batches are built and run
    one at a time as the items are taken.
    """
    pending: list = []  # per replicate of the batch: its build error, or None for its member
    members: list = []
    load, key = 0, None
    for graph_spec, pop_spec, params, seed, weight_scale in replicates:
        try:
            graph, population, sim_seed = _replicate_inputs(graph_spec, pop_spec, params, seed)
        except caught as exc:
            pending.append(exc)
            continue
        cost = _operator_bytes(graph)
        if members and (load + cost > _BATCH_BYTES or graph.n > _BATCH_MAX_N or (graph.n, weight_scale) != key):
            yield from _in_order(pending, _run_batch(run, members, key[1], caught))
            pending, members, load = [], [], 0
        pending.append(None)
        members.append((graph, population, params, sim_seed))
        load, key = load + cost, (graph.n, weight_scale)
    yield from _in_order(pending, _run_batch(run, members, key[1], caught) if members else [])


def _run_batch(run, members: list, weight_scale: float, caught) -> list:
    """run(members, weight_scale), or its exception once per member."""
    try:
        return run(members, weight_scale)
    except caught as exc:
        return [exc] * len(members)


def _in_order(pending: list, outcomes: list) -> Iterator:
    """pending with each None replaced by the next of outcomes."""
    outcomes = iter(outcomes)
    for failure in pending:
        yield next(outcomes) if failure is None else failure


def replicate_fractions(replicates: list[tuple], horizon: int, mode: str = "stochastic") -> Iterator:
    """Event-fraction series of many replicates, run through event_fractions.

    replicates holds (graph_spec, pop_spec, params, seed) tuples. The k-th
    item yielded is the event_fraction of replicate(graph_spec, pop_spec,
    params, horizon, seed, mode) byte for byte, or the exception that call
    would raise; a GenerationError or the ValueError of a rejected
    population fails its replicate alone. Replicates are generated and run
    in batches within _BATCH_BYTES, one batch at a time as the items are
    taken, so only one batch of series is held at once. generate has
    checked that each graph is strongly connected, so the runs do not check
    it again.
    """
    return _replicate_batches(
        ((*task, 1.0) for task in replicates),
        lambda members, _: event_fractions(members, horizon, mode, check_connectivity=False),
        (GenerationError, ValueError),
    )


def replicate_summaries(replicates: list[tuple], horizon: int, mode: str = "stochastic") -> Iterator:
    """RunSummary of each of many replicates, batched as replicate_fractions.

    replicates holds (graph_spec, pop_spec, params, seed, weight_scale)
    tuples, whose sizes and weight_scales may differ. The k-th item yielded
    is, byte for byte, the RunSummary of the trajectory of
    replicate(graph_spec, pop_spec, params, horizon, seed, mode,
    weight_scale), or the exception that call would raise; any exception
    fails its replicate alone, or each replicate of the batch it ended, and
    never the stream. No run records its (horizon, n) opinions and states.
    """
    return _replicate_batches(
        replicates,
        lambda members, weight_scale: _member_runs(members, horizon, mode, weight_scale, False, spread=True),
        Exception,
    )


def contiguous_parts(count: int, jobs: int) -> list[slice]:
    """count items as at most jobs contiguous slices of near-equal length."""
    parts = max(1, min(jobs, count))
    return [slice(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def fan_out(fn, tasks: list[tuple], jobs: int = 1) -> list:
    """[fn(*task) for task in tasks], spread over jobs worker processes.

    Results keep the task order, so they do not depend on jobs; with
    jobs > 1, fn, its arguments and its results must pickle.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks), chunksize=max(1, len(tasks) // (jobs * 4))))
    return [fn(*task) for task in tasks]
