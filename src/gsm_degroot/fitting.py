"""Calibration of the model against an observed event-fraction series.

A candidate point (mu, gamma, r[, p]) is scored by simulating a two-block
surrogate population, comparing the simulated event-fraction series to the
data under a scale-invariant distance, and averaging over stochastic
replicates. A coarse grid pass seeds a handful of simulated-annealing
chains; the best point over all chains wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .csvio import failure_text, read_csv, write_csv
from .dynamics import MODES, ModelParams, PopulationSpec, fan_out, replicate_summaries, replicate_work
from .graph import GenerationError, GraphGenSpec
from .rules import check_rules, rule_of, ruled
from .seeds import derive_seed

DEFAULT_BOUNDS = {"mu": (-500.0, 500.0), "gamma": (0.0, 50.0), "r": (0.0, 0.5)}

DEFAULT_RESOLUTION = 6

AXIS_ORDER = ("mu", "gamma", "r", "p")


class FitError(RuntimeError):
    """The calibration pipeline could not produce a result."""


def _data_norm(data: np.ndarray) -> float:
    """||data||_2, or ValueError for data no relative distance is defined for."""
    if not np.isfinite(data).all():
        raise ValueError("data series has non-finite values; the relative distance is undefined")
    # the squares of values past about 1e154 leave the floats: the norm is
    # then inf, without an overflow warning
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(data))
    if norm == 0.0:
        raise ValueError("data series has zero norm; the relative distance is undefined")
    if norm == math.inf:
        raise ValueError("data series norm overflows the floats; the relative distance is undefined")
    return norm


def scale_invariant_distance(data: np.ndarray, model: np.ndarray) -> tuple[float, float]:
    """Distance between series up to a non-negative scale factor.

    Returns (d, s) where s minimizes ||data - s * model||_2 over s >= 0,
    s = <data, model> / <model, model> clamped at zero (and zero for an
    all-zero model), and d is the residual norm divided by ||data||_2.
    Raises ValueError for data with a non-finite value, zero norm or a norm
    past the floats.
    """
    data = np.asarray(data, dtype=np.float64)
    model = np.asarray(model, dtype=np.float64)
    if data.shape != model.shape or data.ndim != 1:
        raise ValueError(f"series shapes differ: {data.shape} vs {model.shape}")
    data_norm = _data_norm(data)
    denom = float(model @ model)
    s = max(float(data @ model) / denom, 0.0) if denom > 0.0 else 0.0
    d = float(np.linalg.norm(data - s * model)) / data_norm
    return d, s


@dataclass
class ParamSpace:
    """Box bounds and grid resolutions for the free parameters.

    Axes follow AXIS_ORDER; p (stubborn fraction) is present only when its
    bound is given. pinned maps parameter names to fixed values that are fed
    to every evaluation but never searched.
    """

    bounds: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_BOUNDS))
    resolution: dict[str, int] = field(default_factory=dict)
    pinned: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in [*self.bounds, *self.pinned]:
            if name not in AXIS_ORDER:
                raise ValueError(f"unknown parameter {name!r}; choose from {AXIS_ORDER}")
        for name in ("mu", "gamma", "r"):
            if name not in self.bounds and name not in self.pinned:
                raise ValueError(f"parameter {name!r} needs bounds or a pinned value")
        if not self.bounds:
            raise ValueError("a fit needs at least one searched parameter; mu, gamma and r are all pinned")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(f"bounds for {name!r} must satisfy lo < hi, got ({lo}, {hi})")
        for name in ("r", "p"):
            lo, hi = self.bounds.get(name, (0.0, 0.5))
            if lo < 0.0 or hi > 0.5:
                raise ValueError(f"{name} bounds must stay within [0, 0.5], got ({lo}, {hi})")
        for name, value in self.pinned.items():
            if not math.isfinite(value):
                raise ValueError(f"pinned {name!r} must be finite, got {value}")
        overlap = set(self.bounds) & set(self.pinned)
        if overlap:
            raise ValueError(f"parameters both searched and pinned: {sorted(overlap)}")
        for name, res in self.resolution.items():
            if name not in self.bounds:
                raise ValueError(f"resolution given for unsearched parameter {name!r}")
            if res < 2:
                raise ValueError(f"resolution for {name!r} must be at least 2, got {res}")

    @property
    def axes(self) -> list[str]:
        return [name for name in AXIS_ORDER if name in self.bounds]

    def resolution_of(self, name: str) -> int:
        return self.resolution.get(name, DEFAULT_RESOLUTION)

    def centers(self, name: str) -> np.ndarray:
        lo, hi = self.bounds[name]
        k = self.resolution_of(name)
        edges = np.linspace(lo, hi, k + 1)
        return (edges[:-1] + edges[1:]) / 2.0

    def cell_widths(self) -> np.ndarray:
        return np.asarray([
            (self.bounds[name][1] - self.bounds[name][0]) / self.resolution_of(name)
            for name in self.axes
        ])

    def full_point(self, values: dict[str, float]) -> dict[str, float]:
        point = dict(self.pinned)
        point.update(values)
        return point


@dataclass
class FitConfig:
    """Surrogate construction and search budget.

    The surrogate is a two-block sbm population whose blocks react with
    fixed positive fractions; its inter-block probability comes from the
    candidate point. score = mean_error + noise_weight * error_std over
    `replicates` runs. mode="expected" swaps event draws for their
    probabilities, removing sampling noise from the score surface; the
    surrogate graph and population are still resampled per replicate.
    The surrogate fields keep the rules of the fields they feed.
    """

    n: int = ruled(100, rule_of(GraphGenSpec, "n"))
    cluster_ratios: tuple[float, float] = ruled((0.7, 0.3), rule_of(GraphGenSpec, "cluster_ratios"))
    cluster_positive_fractions: tuple[float, float] = ruled(
        (0.3, 0.7), rule_of(PopulationSpec, "cluster_positive_fractions")
    )
    intra_prob: float = ruled(0.5, rule_of(GraphGenSpec, "intra_prob"))
    lam: float = ruled(0.01, rule_of(ModelParams, "lam"))
    sigma: float = ruled(1.0, rule_of(ModelParams, "sigma"))
    replicates: int = ruled(5, ge=1)
    mode: str = ruled("stochastic", among=MODES)
    noise_weight: float = ruled(1.0, ge=0.0)
    restarts: int = ruled(5, ge=1)
    anneal_iters: int = ruled(2000, ge=0)
    initial_temp: float = ruled(10.0, gt=0.0)
    cooling: float = ruled(0.95, gt=0.0, lt=1.0)
    neighborhood_volume: float = ruled(0.001, gt=0.0, lt=1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        check_rules(self)


@dataclass
class PointScore:
    score: float
    mean_error: float
    error_std: float
    mean_scale: float


def _point_seed_parts(point: dict[str, float]) -> list:
    # p = 0 hashes like an absent p, so the stubbornness search at p = 0
    # reproduces the plain three-parameter scores seed for seed
    parts: list = [float(point["mu"]), float(point["gamma"]), float(point["r"])]
    p = float(point.get("p", 0.0))
    if p > 0.0:
        parts.append(p)
    return parts


def _surrogate_graph(config: FitConfig, r: float) -> GraphGenSpec:
    """The two-block sbm spec of a surrogate at inter-block probability r."""
    return GraphGenSpec(family="sbm", n=config.n, cluster_ratios=config.cluster_ratios, intra_prob=config.intra_prob,
                        inter_prob=r)


def _replicates(point: dict[str, float], config: FitConfig) -> list[tuple]:
    """The replicate_summaries tasks that score point: one two-block sbm
    surrogate per replicate, seeded from (config.seed, point, replicate)."""
    params = ModelParams(lam=config.lam, gamma=float(point["gamma"]), mu=float(point["mu"]), sigma=config.sigma)
    pop_spec = PopulationSpec(
        positive_fraction=None,
        cluster_positive_fractions=config.cluster_positive_fractions,
        stubborn_fraction=float(point.get("p", 0.0)),
    )
    graph_spec = _surrogate_graph(config, float(point["r"]))
    point_key = _point_seed_parts(point)
    return [
        (graph_spec, pop_spec, params, derive_seed(config.seed, "evaluate", *point_key, rep), 1.0)
        for rep in range(config.replicates)
    ]


def _score(point: dict[str, float], data: np.ndarray, config: FitConfig, runs: list):
    """PointScore of point from its replicates' runs, or the exception of
    the first replicate that failed."""
    errors = np.empty(config.replicates)
    scales = np.empty(config.replicates)
    for rep, run in enumerate(runs):
        if isinstance(run, GenerationError):
            failure = FitError(f"surrogate generation failed at {point}: {run}")
            failure.__cause__ = run
            return failure
        if isinstance(run, Exception):
            return run
        try:
            errors[rep], scales[rep] = scale_invariant_distance(data, run.event_fraction)
        except ValueError as exc:
            return exc
    mean_error = float(errors.mean())
    error_std = float(errors.std())
    return PointScore(
        score=mean_error + config.noise_weight * error_std,
        mean_error=mean_error,
        error_std=error_std,
        mean_scale=float(scales.mean()),
    )


def _score_points(points: list[dict[str, float]], data: np.ndarray, config: FitConfig) -> list:
    """Score points in this process, every replicate of every point through
    one replicate_summaries stream. Entry i is the PointScore of points[i],
    or the exception evaluate_point raises for it: any exception raised
    while building or running one of its replicates."""
    data = np.asarray(data, dtype=np.float64)
    tasks = [task for point in points for task in _replicates(point, config)]
    runs = replicate_summaries(tasks, data.size, config.mode, spread=False)
    return [_score(point, data, config, list(islice(runs, config.replicates))) for point in points]


def evaluate_point(point: dict[str, float], data: np.ndarray, config: FitConfig) -> PointScore:
    """Score one candidate point against the data series.

    Each replicate samples a fresh surrogate graph and population with
    seeds derived from (config.seed, point, replicate), simulates one run
    of len(data) ticks, and measures the scale-invariant distance of its
    event-fraction series to the data. A failed surrogate generation
    raises FitError; any other failure of a replicate raises its own
    exception.
    """
    outcome = _score_points([point], data, config)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class GridResult:
    axes: list[str]
    points: np.ndarray
    scores: np.ndarray
    mean_errors: np.ndarray
    error_stds: np.ndarray
    errors: list[tuple[int, str]]

    def best_index(self) -> int:
        if np.all(np.isnan(self.scores)):
            raise FitError("every grid cell failed")
        return int(np.nanargmin(self.scores))

    def point(self, index: int) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.axes, self.points[index])}


def _grid_part(points, data, config) -> list:
    """_score_points with each failure as its failure_text."""
    return [
        outcome if isinstance(outcome, PointScore) else failure_text(outcome)
        for outcome in _score_points(points, data, config)
    ]


def _point_work(data: np.ndarray, config: FitConfig) -> int:
    """The estimated node-ticks of scoring one point: replicates x replicate_work."""
    return config.replicates * replicate_work(config.n, np.size(data))


def grid_explore(data: np.ndarray, space: ParamSpace, config: FitConfig, jobs: int | None = None) -> GridResult:
    """Score the center of every grid cell; failures are recorded per cell.

    A cell fails, as "Type: message" in errors, with the exception that
    evaluate_point would raise for it; the other cells keep their scores.
    fan_out splits the cells into contiguous parts, one per worker process:
    at most jobs, or with jobs None as many as the cells' work pays for, at
    _point_work a cell (fan_out). Each part scores its cells through one
    replicate_summaries stream; the scores do not depend on jobs.
    """
    axes = space.axes
    meshes = np.meshgrid(*[space.centers(name) for name in axes], indexing="ij")
    points = np.column_stack([m.ravel() for m in meshes])
    cells = [space.full_point({name: float(v) for name, v in zip(axes, row)}) for row in points]
    outcomes = fan_out(_grid_part, cells, data, config, jobs=jobs, work=[_point_work(data, config)] * len(cells),
                       members=config.replicates)
    n_cells = len(cells)
    scores = np.full(n_cells, np.nan)
    mean_errors = np.full(n_cells, np.nan)
    error_stds = np.full(n_cells, np.nan)
    errors = []
    for i, ps in enumerate(outcomes):
        if isinstance(ps, str):
            errors.append((i, ps))
        else:
            scores[i] = ps.score
            mean_errors[i] = ps.mean_error
            error_stds[i] = ps.error_std
    return GridResult(
        axes=list(axes), points=points, scores=scores,
        mean_errors=mean_errors, error_stds=error_stds, errors=errors,
    )


def _accept(delta: float, temp: float, rng: np.random.Generator) -> bool:
    """Metropolis rule: always downhill, uphill with probability exp(-delta/temp)."""
    if delta < 0.0:
        return True
    if temp <= 0.0:
        return False
    return rng.random() < math.exp(-delta / temp)


@dataclass
class AnnealTrace:
    points: list[dict[str, float]]
    scores: list[float]
    accepted: list[bool]
    temps: list[float]
    best_scores: list[float]
    failures: int = 0


def anneal(
    start: dict[str, float],
    data: np.ndarray,
    space: ParamSpace,
    config: FitConfig,
    seed: int,
    scorer=None,
) -> tuple[dict[str, float], float, AnnealTrace]:
    """Simulated annealing from one start point inside the search box.

    Proposals are uniform in an axis-aligned cuboid around the current
    point whose volume is neighborhood_volume of the box (per-axis
    half-width = range * volume**(1/dims) / 2), clipped to the bounds.
    The temperature decays geometrically each iteration. A proposal whose
    evaluation fails is rejected and counted on the trace; a start whose
    evaluation fails raises its exception. scorer, if given, maps a point
    of the searched axes to its score in place of evaluate_point's.
    Returns the best-ever (point, score, trace): _run_chains with one chain.
    """
    return _run_chains([(start, seed)], data, space, config, scorer)[0]


def _run_chains(chains: list[tuple[dict[str, float], int]], data, space: ParamSpace, config: FitConfig,
                scorer=None) -> list:
    """anneal's result for each (start, seed) chain, the chains run in lockstep.

    Every start is checked against the box, then all starts are scored; a
    failed start raises its exception before any proposal is drawn. Each
    step draws one proposal per chain from that chain's own generator,
    scores the proposals of every chain together, then applies each chain's
    accept rule, whose draw comes from the same generator; so a chain's
    result does not depend on the chains beside it.
    """
    axes = space.axes
    lows = np.asarray([space.bounds[a][0] for a in axes])
    highs = np.asarray([space.bounds[a][1] for a in axes])
    half_widths = (highs - lows) * config.neighborhood_volume ** (1.0 / len(axes)) / 2.0

    def named(point: np.ndarray) -> dict[str, float]:
        return {a: float(v) for a, v in zip(axes, point)}

    current = [np.asarray([float(start[a]) for a in axes]) for start, _ in chains]
    for (start, _), point in zip(chains, current):
        if np.any(point < lows) or np.any(point > highs):
            raise FitError(f"start point {start} lies outside the search box")
    current_scores = _scores([named(point) for point in current], data, space, config, scorer)
    for score in current_scores:
        if isinstance(score, Exception):
            raise score
    rngs = [np.random.default_rng(seed) for _, seed in chains]
    best, best_scores = list(current), list(current_scores)
    traces = [AnnealTrace(points=[], scores=[], accepted=[], temps=[], best_scores=[]) for _ in chains]
    temp = config.initial_temp
    for _ in range(config.anneal_iters):
        proposals = [np.clip(point + rng.uniform(-half_widths, half_widths), lows, highs)
                     for point, rng in zip(current, rngs)]
        candidates = [named(proposal) for proposal in proposals]
        for i, score in enumerate(_scores(candidates, data, space, config, scorer)):
            failed = isinstance(score, Exception)
            if failed:
                score = math.inf
                traces[i].failures += 1
            took = (not failed) and _accept(score - current_scores[i], temp, rngs[i])
            if took:
                current[i], current_scores[i] = proposals[i], score
                if score < best_scores[i]:
                    best[i], best_scores[i] = proposals[i], score
            traces[i].points.append(candidates[i])
            traces[i].scores.append(score)
            traces[i].accepted.append(took)
            traces[i].temps.append(temp)
            traces[i].best_scores.append(best_scores[i])
        temp *= config.cooling
    return [(named(point), float(score), trace) for point, score, trace in zip(best, best_scores, traces)]


def _scores(points: list[dict[str, float]], data, space: ParamSpace, config: FitConfig, scorer) -> list:
    """The score of each point of the searched axes, or the exception its
    scoring raised: without a scorer, evaluate_point's, every point through
    one _score_points call; with one, scorer's, each point in turn."""
    if scorer is not None:
        return [_scored(scorer, point) for point in points]
    outcomes = _score_points([space.full_point(point) for point in points], data, config)
    return [outcome.score if isinstance(outcome, PointScore) else outcome for outcome in outcomes]


def _scored(scorer, point: dict[str, float]):
    """scorer(point), or the exception it raises."""
    try:
        return scorer(point)
    except Exception as exc:  # noqa: BLE001 - the chain rejects a failed proposal
        return exc


def _spread_starts(grid: GridResult, space: ParamSpace, k: int) -> list[int]:
    """Indices of the k best cells, deduplicated by one cell diagonal."""
    diagonal = float(np.linalg.norm(space.cell_widths()))
    order = np.argsort(grid.scores, kind="stable")
    chosen: list[int] = []
    for idx in order:
        if math.isnan(grid.scores[idx]):
            break
        pt = grid.points[idx]
        if all(np.linalg.norm(pt - grid.points[j]) >= diagonal for j in chosen):
            chosen.append(int(idx))
        if len(chosen) == k:
            break
    return chosen


@dataclass
class FitResult:
    best: dict[str, float]
    score: float
    error: float
    error_std: float
    scale: float
    grid: GridResult
    traces: list[AnnealTrace]
    seed: int
    space: ParamSpace
    config: FitConfig

    def full_best(self) -> dict[str, float]:
        return self.space.full_point(self.best)


def fit(data: np.ndarray, space: ParamSpace | None = None, config: FitConfig | None = None,
        jobs: int | None = None) -> FitResult:
    """Grid pass, then annealing chains from the spread-out best cells.

    The chains start from the restarts best grid cells separated by at
    least one cell diagonal; the overall best-scoring point wins, the first
    chain's on a tie. fan_out shares the grid cells, then the chains, among
    at most jobs worker processes, or with jobs None as many as their work
    pays for (fan_out); a chain weighs anneal_iters + 1 grid cells, and the
    chains of one process run in lockstep. The result does not depend on
    jobs.

    Raises ValueError for fewer than 2 samples, a non-finite value or an
    all-zero series, which no cell could score, GraphError for a surrogate
    spec that GraphGenSpec rejects at the box's largest r, such as one past
    its edge cap, and FitError if every grid cell fails.
    """
    space = space or ParamSpace()
    config = config or FitConfig()
    data = np.asarray(data, dtype=np.float64)
    if data.size < 2:
        raise ValueError(f"need at least 2 samples to fit, got {data.size}")
    _data_norm(data)
    # a surrogate expects more edges at a larger r, so one past the graph
    # edge cap at the box's largest r fails here, before any surrogate runs
    _surrogate_graph(config, space.bounds["r"][1] if "r" in space.bounds else space.pinned["r"])
    grid = grid_explore(data, space, config, jobs=jobs)
    starts = _spread_starts(grid, space, config.restarts)
    if not starts:
        raise FitError("every grid cell failed; nothing to anneal from")
    chains = [(grid.point(idx), derive_seed(config.seed, "anneal", chain)) for chain, idx in enumerate(starts)]
    chain_work = (config.anneal_iters + 1) * _point_work(data, config)
    outcomes = fan_out(_run_chains, chains, data, space, config, jobs=jobs, work=[chain_work] * len(chains),
                       members=config.replicates)
    best_point = min(outcomes, key=lambda outcome: outcome[1])[0]
    final = evaluate_point(space.full_point(best_point), data, config)
    return FitResult(
        best=best_point,
        score=float(final.score),
        error=float(final.mean_error),
        error_std=float(final.error_std),
        scale=float(final.mean_scale),
        grid=grid,
        traces=[trace for _, _, trace in outcomes],
        seed=config.seed,
        space=space,
        config=config,
    )


@dataclass
class IdentifiabilityCurve:
    qs: np.ndarray
    chi: np.ndarray
    noise: np.ndarray  # two sample stds of the bootstrap variances per q


def check_q_range(q_lo: float, q_hi: float) -> None:
    """Raise ValueError unless 0 < q_lo <= q_hi <= 1: a quantile past 1
    would ask for more best cells than the grid holds."""
    if not 0.0 < q_lo <= q_hi <= 1.0:
        raise ValueError(f"invalid q range ({q_lo}, {q_hi}); need 0 < q_lo <= q_hi <= 1")


def identifiability(
    points: np.ndarray,
    scores: np.ndarray,
    q_range: tuple[float, float] = (1e-4, 1e-2),
    n_q: int = 9,
    bootstrap: int = 10,
    seed: int = 0,
) -> IdentifiabilityCurve:
    """Landscape sharpness curve chi(q) from a scored grid.

    For each q (log-spaced over q_range), take the floor(q * cells) best
    cells and the same number of uniformly drawn cells, bootstrap times;
    chi(q) is the mean bootstrap dispersion minus the best-set dispersion,
    where dispersion is the mean distance to the barycenter in per-axis
    min-max normalized coordinates. chi depends on the scores only through
    their ranking, so any strictly increasing rescaling leaves it unchanged.
    """
    points = np.asarray(points, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != scores.size:
        raise ValueError(f"points {points.shape} do not match {scores.size} scores")
    q_lo, q_hi = q_range
    check_q_range(q_lo, q_hi)
    if n_q < 1 or bootstrap < 1:
        raise ValueError(f"n_q and bootstrap must be at least 1, got {n_q} and {bootstrap}")
    valid = ~np.isnan(scores)
    points = points[valid]
    scores = scores[valid]
    n_cells = points.shape[0]
    if math.floor(q_lo * n_cells) < 1:
        raise ValueError(
            f"grid too small: {n_cells} valid cells of {valid.size}, floor({q_lo} * {n_cells}) < 1; "
            f"need at least {math.ceil(1.0 / q_lo)} cells"
        )
    spans = points.max(axis=0) - points.min(axis=0)
    spans[spans == 0.0] = 1.0
    unit = (points - points.min(axis=0)) / spans
    order = np.argsort(scores, kind="stable")
    rng = np.random.default_rng(seed)
    qs = np.logspace(math.log10(q_lo), math.log10(q_hi), n_q)
    chi = np.empty(n_q)
    noise = np.empty(n_q)
    for i, q in enumerate(qs):
        # logspace may round q_lo just below it, where q_lo * n_cells is 1
        k = max(math.floor(q * n_cells), 1)
        best_disp = _dispersion(unit[order[:k]])
        boot = np.asarray([
            _dispersion(unit[rng.choice(n_cells, size=k, replace=False)])
            for _ in range(bootstrap)
        ])
        chi[i] = float(boot.mean() - best_disp)
        noise[i] = 2.0 * float(boot.std(ddof=1)) if bootstrap > 1 else 0.0
    return IdentifiabilityCurve(qs=qs, chi=chi, noise=noise)


def _dispersion(unit_points: np.ndarray) -> float:
    center = unit_points.mean(axis=0)
    return float(np.linalg.norm(unit_points - center, axis=1).mean())


def write_fit_csv(result: FitResult, path, label: str) -> None:
    """Single-row summary: label,error,mu,gamma,r,p,scale,seed."""
    best = result.full_best()
    write_csv(path, ["label", "error", "mu", "gamma", "r", "p", "scale", "seed"], [[
        label, result.error, *(float(best[name]) for name in ("mu", "gamma", "r")),
        float(best.get("p", 0.0)), result.scale, result.seed,
    ]])


def write_grid_csv(grid: GridResult, path) -> None:
    """Grid scores: one row per cell center with score decomposition."""
    write_csv(path, list(grid.axes) + ["score", "mean_error", "error_std"], (
        [*grid.points[i], grid.scores[i], grid.mean_errors[i], grid.error_stds[i]]
        for i in range(grid.points.shape[0])
    ))


def write_grid_failures_csv(grid: GridResult, path) -> None:
    """One row per failed grid cell: its center on each axis, then the error."""
    write_csv(path, list(grid.axes) + ["error"], ([*grid.points[index], error] for index, error in grid.errors))


def write_anneal_trace_csv(result: FitResult, path) -> None:
    """Anneal chains: one row per proposal; a failed proposal scores inf."""
    axes = result.space.axes
    write_csv(path, ["chain", "iter", *axes, "score", "accepted", "temp", "best"], (
        [chain, i, *(float(point[a]) for a in axes), float(trace.scores[i]),
         int(trace.accepted[i]), float(trace.temps[i]), float(trace.best_scores[i])]
        for chain, trace in enumerate(result.traces)
        for i, point in enumerate(trace.points)
    ))


def read_grid_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a grid CSV back as (axes, points, scores)."""
    rows = read_csv(path)
    _, header = next(rows, (None, None))
    if header is None or "score" not in header:
        raise ValueError(f"not a grid csv: {path}")
    split = header.index("score")
    axes = header[:split]
    pts, scs = [], []
    for line, row in rows:
        if len(row) < len(header):
            raise ValueError(f"{path} line {line}: {len(row)} fields, the header has {len(header)}")
        try:
            pts.append([float(v) for v in row[:split]])
            scs.append(float(row[split]))
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from None
    if not pts:
        raise ValueError(f"no grid rows in {path}")
    return axes, np.asarray(pts), np.asarray(scs)


def write_chi_csv(curve: IdentifiabilityCurve, path) -> None:
    write_csv(path, ["q", "chi"], zip(curve.qs, curve.chi))
