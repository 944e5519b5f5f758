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
from typing import Union

import numpy as np

from .graph import GraphGenSpec, WeightedDigraph, generate, is_normalized, is_strongly_connected
from .rules import check_rules, ruled
from .seeds import derive_seed, rng_from

OVERFLOW_LIMIT = 1e12
# Relative widening per step of simulate's bound on the opinion magnitude:
# room for the rounding of a k-term dot product (below k * 2**-53, so any
# k < 1e9) and of the few other operations in one step.
_BOUND_SLACK = 1e-6

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
    """Per-agent event probability sigmoid(lam * opinion)."""
    z = lam * np.asarray(opinions, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _advance(x, g, operator, population, weight_scale=1.0):
    """One opinion update from opinions x and feedback g = gamma * event
    fraction: the reference step that simulate's loop repeats in place."""
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


def signed_opinion_step(x_row: np.ndarray, signed_weights: np.ndarray) -> np.ndarray:
    """Opinion update under signed weights normalized by absolute value.

    Row i of signed_weights holds the incoming weights of node i, each in
    [-1, 1], with absolute values summing to 1. Provided to exercise the
    antagonistic-influence bounds; simulate does not accept signed graphs.
    """
    x_row = np.asarray(x_row, dtype=np.float64)
    w = np.asarray(signed_weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] != x_row.size:
        raise ValueError(f"signed weight matrix shape {w.shape} does not match {x_row.size} opinions")
    if np.max(np.abs(w)) > 1.0 + 1e-12:
        raise ValueError("signed weights must lie in [-1, 1]")
    sums = np.abs(w).sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-12:
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"absolute incoming weights of node {worst} sum to {sums[worst]!r}, not 1")
    return w @ x_row


def random_signed_weights(n: int, rng: np.random.Generator, density: float = 0.6) -> np.ndarray:
    """Random dense-ish signed weight matrix satisfying the signed invariants."""
    w = np.where(rng.random((n, n)) < density, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    for i in range(n):
        if not np.any(w[i]):
            w[i, rng.integers(n)] = rng.uniform(0.1, 1.0) * (1 if rng.random() < 0.5 else -1)
        w[i] /= np.abs(w[i]).sum()
    return w


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

    n = graph.n
    dense = n <= 512
    operator = graph.matrix.toarray() if dense else graph.matrix
    rng = np.random.default_rng(seed)
    stochastic = mode == "stochastic"
    reactions = population.reactions
    initial = population.initial_opinions
    xi = population.susceptibility
    blended = not (np.isscalar(xi) and xi == 1.0)
    anchor = (1.0 - xi) * initial if blended else None
    stubborn = population.fully_stubborn

    # The loop repeats the arithmetic of event_probability and _advance, but
    # writes into preallocated rows. Instead of taking |x|.max() each step it
    # carries `bound` >= |x_t|.max(): the operator's largest absolute row sum
    # `gain` (weight_scale included) gives |x_{t+1}| <= gain * |x_t| +
    # |reactions| * |g|, and the blend toward the initial opinions and the
    # stubborn agents stay within max(that, |x_0|). Only once the bound passes
    # OVERFLOW_LIMIT is the exact peak taken (every step if |x_0| is not finite).
    gain = weight_scale * float(abs(graph.matrix).sum(axis=1).max())
    reach = float(np.abs(reactions).max())
    floor = float(np.abs(initial).max())
    if not math.isfinite(floor):
        floor = math.inf
    bound = floor

    opinions = np.empty((horizon, n))
    states = np.empty((horizon, n), dtype=np.int8 if stochastic else np.float64)
    draws = np.empty(n)
    probability = np.empty(n)
    push = np.empty(n)
    opinions[0] = initial
    with np.errstate(over="ignore"):
        for t in range(horizon):
            x = opinions[t]
            s_row = states[t]
            p = probability if stochastic else s_row
            np.multiply(x, params.lam, out=p)
            np.negative(p, out=p)
            np.exp(p, out=p)
            p += 1.0
            np.divide(1.0, p, out=p)
            if stochastic:
                rng.random(out=draws)
                np.less(draws, p, out=s_row)
            if t + 1 == horizon:
                break
            events = np.count_nonzero(s_row) if stochastic else np.add.reduce(s_row)
            g = params.gamma * (float(events) / n)
            nxt = opinions[t + 1]
            if dense:
                np.matmul(operator, x, out=nxt)
            else:
                nxt[:] = operator @ x
            if weight_scale != 1.0:
                nxt *= weight_scale
            np.multiply(reactions, g, out=push)
            nxt += push
            if blended:
                nxt *= xi
                nxt += anchor
            if stubborn is not None:
                np.copyto(nxt, initial, where=stubborn)
            bound = max(gain * bound + reach * abs(g), floor) * (1.0 + _BOUND_SLACK)
            if not bound <= OVERFLOW_LIMIT:
                peak = np.abs(nxt).max()
                if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
                    raise OpinionOverflowError(step=t + 1, magnitude=float(peak))
                bound = float(peak)

    event_fraction = states.sum(axis=1) / n
    return Trajectory(
        opinions=opinions,
        states=states,
        event_fraction=event_fraction,
        mean_opinion=opinions.mean(axis=1),
        max_diversity=opinions.max(axis=1) - opinions.min(axis=1),
        seed=seed,
        mode=mode,
    )


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
    simulate command, every sweep replicate and every fit evaluation run
    through here, so each can be rebuilt from its seed alone.
    """
    graph = generate(replace(graph_spec, seed=derive_seed(seed, "graph")))
    population = pop_spec.build(
        graph.n, rng_from(seed, "population"), params.mu, params.sigma, clusters=graph.clusters
    )
    trajectory = simulate(
        graph, population, params, horizon,
        seed=derive_seed(seed, "simulate"), mode=mode, weight_scale=weight_scale,
    )
    return population, trajectory


def fan_out(fn, tasks: list[tuple], jobs: int = 1) -> list:
    """[fn(*task) for task in tasks], spread over jobs worker processes.

    Results keep the task order, so they do not depend on jobs; with
    jobs > 1, fn, its arguments and its results must pickle.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *zip(*tasks), chunksize=max(1, len(tasks) // (jobs * 4))))
    return [fn(*task) for task in tasks]
