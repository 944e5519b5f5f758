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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graph import WeightedDigraph, validate
from .rules import check_rules, ruled

OVERFLOW_LIMIT = 1e12

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


def init_opinions(n: int, mu: float, sigma: float, seed: int) -> np.ndarray:
    """Draw initial opinions iid Normal(mu, sigma); sigma = 0 is constant mu."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma!r}")
    if sigma == 0:
        return np.full(n, float(mu))
    return np.random.default_rng(seed).normal(mu, sigma, size=n)


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


def state_step(opinions_row: np.ndarray, lam: float, seed_or_rng) -> np.ndarray:
    """Draw one row of binary events from the current opinions."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    p = event_probability(opinions_row, lam)
    return (rng.random(p.size) < p).astype(np.int8)


def steering(states_row: np.ndarray, gamma: float) -> float:
    """Global feedback gamma * event fraction; lies in [0, gamma]."""
    states_row = np.asarray(states_row)
    return gamma * (float(states_row.sum()) / states_row.size)


def opinion_step(
    x_row: np.ndarray,
    s_row: np.ndarray,
    graph: WeightedDigraph,
    population: Population,
    gamma: float,
) -> np.ndarray:
    """One opinion update from the current opinions and event row."""
    x_row = np.asarray(x_row, dtype=np.float64)
    if x_row.size != graph.n or np.asarray(s_row).size != graph.n or population.n != graph.n:
        raise ValueError(
            f"size mismatch: opinions {x_row.size}, states {np.asarray(s_row).size}, "
            f"population {population.n}, graph {graph.n}"
        )
    g = steering(s_row, gamma)
    return _advance(x_row, g, graph.matrix, population)


def _advance(x, g, operator, population, weight_scale=1.0):
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


def scaled_weight_step(x_row: np.ndarray, graph: WeightedDigraph, alpha: float) -> np.ndarray:
    """Opinion update with every incoming weight scaled by alpha."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    x_row = np.asarray(x_row, dtype=np.float64)
    if x_row.size != graph.n:
        raise ValueError(f"opinion vector length {x_row.size} does not match graph size {graph.n}")
    return alpha * (graph.matrix @ x_row)


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
    report = validate(graph)
    if not report.normalized:
        raise ValueError("graph incoming weights are not normalized")
    if check_connectivity and not report.strongly_connected:
        raise ValueError("graph is not strongly connected (pass check_connectivity=False to override)")

    n = graph.n
    operator = graph.matrix.toarray() if n <= 512 else graph.matrix
    rng = np.random.default_rng(seed)
    stochastic = mode == "stochastic"

    opinions = np.empty((horizon, n))
    states = np.empty((horizon, n), dtype=np.int8 if stochastic else np.float64)
    x = population.initial_opinions.astype(np.float64, copy=True)
    for t in range(horizon):
        opinions[t] = x
        p = event_probability(x, params.lam)
        s_row = (rng.random(n) < p) if stochastic else p
        states[t] = s_row
        if t + 1 < horizon:
            g = params.gamma * (float(s_row.sum()) / n)
            x = _advance(x, g, operator, population, weight_scale)
            peak = np.abs(x).max()
            if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
                raise OpinionOverflowError(step=t + 1, magnitude=float(peak))

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
