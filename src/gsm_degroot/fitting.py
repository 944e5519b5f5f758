"""Calibration of the model against an observed event-fraction series.

A candidate point (mu, gamma, r[, p]) is scored by simulating a two-block
surrogate population, comparing the simulated event-fraction series to the
data under a scale-invariant distance, and averaging over stochastic
replicates. A coarse grid pass seeds a handful of simulated-annealing
chains; the best point over all chains wins.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .dynamics import MODES, ModelParams, PopulationSpec, fan_out, replicate_fractions
from .graph import GenerationError, GraphGenSpec
from .rules import check_rules, rule_of, ruled
from .seeds import derive_seed

DEFAULT_BOUNDS = {"mu": (-500.0, 500.0), "gamma": (0.0, 50.0), "r": (0.0, 0.5)}

DEFAULT_RESOLUTION = 6

AXIS_ORDER = ("mu", "gamma", "r", "p")


class FitError(RuntimeError):
    """The calibration pipeline could not produce a result."""


def scale_invariant_distance(data: np.ndarray, model: np.ndarray) -> tuple[float, float]:
    """Distance between series up to a non-negative scale factor.

    Returns (d, s) where s minimizes ||data - s * model||_2 over s >= 0,
    s = <data, model> / <model, model> clamped at zero (and zero for an
    all-zero model), and d is the residual norm divided by ||data||_2.
    """
    data = np.asarray(data, dtype=np.float64)
    model = np.asarray(model, dtype=np.float64)
    if data.shape != model.shape or data.ndim != 1:
        raise ValueError(f"series shapes differ: {data.shape} vs {model.shape}")
    data_norm = float(np.linalg.norm(data))
    if data_norm == 0.0:
        raise ValueError("data series has zero norm; the relative distance is undefined")
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
        for name in self.bounds:
            if name not in AXIS_ORDER:
                raise ValueError(f"unknown parameter {name!r}; choose from {AXIS_ORDER}")
        for name in ("mu", "gamma", "r"):
            if name not in self.bounds and name not in self.pinned:
                raise ValueError(f"parameter {name!r} needs bounds or a pinned value")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(f"bounds for {name!r} must satisfy lo < hi, got ({lo}, {hi})")
        for name in ("r", "p"):
            lo, hi = self.bounds.get(name, (0.0, 0.5))
            if lo < 0.0 or hi > 0.5:
                raise ValueError(f"{name} bounds must stay within [0, 0.5], got ({lo}, {hi})")
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


def _replicates(point: dict[str, float], config: FitConfig) -> list[tuple]:
    """The replicate_fractions tasks that score point: one two-block sbm
    surrogate per replicate, seeded from (config.seed, point, replicate)."""
    params = ModelParams(lam=config.lam, gamma=float(point["gamma"]), mu=float(point["mu"]), sigma=config.sigma)
    pop_spec = PopulationSpec(
        positive_fraction=None,
        cluster_positive_fractions=config.cluster_positive_fractions,
        stubborn_fraction=float(point.get("p", 0.0)),
    )
    graph_spec = GraphGenSpec(family="sbm", n=config.n, cluster_ratios=config.cluster_ratios,
                              intra_prob=config.intra_prob, inter_prob=float(point["r"]))
    point_key = _point_seed_parts(point)
    return [
        (graph_spec, pop_spec, params, derive_seed(config.seed, "evaluate", *point_key, rep))
        for rep in range(config.replicates)
    ]


def _score(point: dict[str, float], data: np.ndarray, config: FitConfig, series: list):
    """PointScore of point from its replicates' series, or the exception of
    the first replicate that failed."""
    errors = np.empty(config.replicates)
    scales = np.empty(config.replicates)
    for rep, fractions in enumerate(series):
        if isinstance(fractions, GenerationError):
            failure = FitError(f"surrogate generation failed at {point}: {fractions}")
            failure.__cause__ = fractions
            return failure
        if isinstance(fractions, Exception):
            return fractions
        try:
            errors[rep], scales[rep] = scale_invariant_distance(data, fractions)
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
    one replicate_fractions call. Entry i is the PointScore of points[i],
    or the exception evaluate_point raises for it."""
    data = np.asarray(data, dtype=np.float64)
    tasks = [task for point in points for task in _replicates(point, config)]
    series = replicate_fractions(tasks, data.size, config.mode)
    return [_score(point, data, config, list(islice(series, config.replicates))) for point in points]


def evaluate_point(point: dict[str, float], data: np.ndarray, config: FitConfig) -> PointScore:
    """Score one candidate point against the data series.

    Each replicate samples a fresh surrogate graph and population with
    seeds derived from (config.seed, point, replicate), simulates one run
    of len(data) ticks, and measures the scale-invariant distance of its
    event-fraction series to the data. A failed surrogate generation
    raises FitError.
    """
    outcome = _score_points([point], data, config)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _parts(count: int, jobs: int) -> list[slice]:
    """count items as at most jobs contiguous slices of near-equal length."""
    parts = max(1, min(jobs, count))
    return [slice(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


@dataclass
class GridResult:
    axes: list[str]
    points: np.ndarray
    scores: np.ndarray
    mean_errors: np.ndarray
    error_stds: np.ndarray
    mean_scales: np.ndarray
    errors: list[tuple[int, str]]

    def best_index(self) -> int:
        if np.all(np.isnan(self.scores)):
            raise FitError("every grid cell failed")
        return int(np.nanargmin(self.scores))

    def point(self, index: int) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.axes, self.points[index])}


def _grid_part(points, data, config) -> list:
    """_score_points with each failure as its "Type: message" text."""
    return [
        outcome if isinstance(outcome, PointScore) else f"{type(outcome).__name__}: {outcome}"
        for outcome in _score_points(points, data, config)
    ]


def grid_explore(data: np.ndarray, space: ParamSpace, config: FitConfig, jobs: int = 1) -> GridResult:
    """Score the center of every grid cell; failures are recorded per cell.

    The cells are split into jobs contiguous parts, one per worker process,
    and each part scores its cells replicate_fractions batches at a time.
    """
    axes = space.axes
    meshes = np.meshgrid(*[space.centers(name) for name in axes], indexing="ij")
    points = np.column_stack([m.ravel() for m in meshes])
    cells = [space.full_point({name: float(v) for name, v in zip(axes, row)}) for row in points]
    parts = fan_out(_grid_part, [(cells[part], data, config) for part in _parts(len(cells), jobs)], jobs)
    outcomes = [outcome for part in parts for outcome in part]
    n_cells = len(cells)
    scores = np.full(n_cells, np.nan)
    mean_errors = np.full(n_cells, np.nan)
    error_stds = np.full(n_cells, np.nan)
    mean_scales = np.full(n_cells, np.nan)
    errors = []
    for i, ps in enumerate(outcomes):
        if isinstance(ps, str):
            errors.append((i, ps))
        else:
            scores[i] = ps.score
            mean_errors[i] = ps.mean_error
            error_stds[i] = ps.error_std
            mean_scales[i] = ps.mean_scale
    return GridResult(
        axes=list(axes), points=points, scores=scores,
        mean_errors=mean_errors, error_stds=error_stds, mean_scales=mean_scales,
        errors=errors,
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


def _chain(start: dict[str, float], space: ParamSpace, config: FitConfig, seed: int):
    """One annealing chain as a generator.

    It yields each point to score, the start and then every proposal, and
    is sent back its score or the exception its scoring raised; it returns
    (best point, best score, trace). A failed start raises its exception.
    """
    rng = np.random.default_rng(seed)
    axes = space.axes
    lows = np.asarray([space.bounds[a][0] for a in axes])
    highs = np.asarray([space.bounds[a][1] for a in axes])
    half_widths = (highs - lows) * config.neighborhood_volume ** (1.0 / len(axes)) / 2.0

    current = np.asarray([float(start[a]) for a in axes])
    if np.any(current < lows) or np.any(current > highs):
        raise FitError(f"start point {start} lies outside the search box")
    current_score = yield {a: float(v) for a, v in zip(axes, current)}
    if isinstance(current_score, Exception):
        raise current_score
    best = current.copy()
    best_score = current_score
    temp = config.initial_temp
    trace = AnnealTrace(points=[], scores=[], accepted=[], temps=[], best_scores=[])
    for _ in range(config.anneal_iters):
        proposal = np.clip(current + rng.uniform(-half_widths, half_widths), lows, highs)
        candidate = {a: float(v) for a, v in zip(axes, proposal)}
        score = yield candidate
        failed = isinstance(score, Exception)
        if failed:
            score = math.inf
            trace.failures += 1
        took = (not failed) and _accept(score - current_score, temp, rng)
        if took:
            current = proposal
            current_score = score
            if score < best_score:
                best = proposal.copy()
                best_score = score
        trace.points.append(candidate)
        trace.scores.append(score)
        trace.accepted.append(took)
        trace.temps.append(temp)
        trace.best_scores.append(best_score)
        temp *= config.cooling
    return {a: float(v) for a, v in zip(axes, best)}, float(best_score), trace


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
    evaluation fails is rejected and counted on the trace. Returns the
    best-ever (point, score, trace).
    """
    if scorer is None:
        scorer = lambda pt: evaluate_point(space.full_point(pt), data, config).score  # noqa: E731
    chain = _chain(start, space, config, seed)
    try:
        point = next(chain)
        while True:
            try:
                score = scorer(point)
            except Exception as exc:  # noqa: BLE001 - the chain rejects a failed proposal
                score = exc
            point = chain.send(score)
    except StopIteration as stop:
        return stop.value


def _run_chains(starts: list[dict[str, float]], seeds: list[int], data, space: ParamSpace, config: FitConfig) -> list:
    """anneal's result for each start, the chains run in lockstep: each
    step scores one point of every chain through one _score_points call."""
    chains = [_chain(start, space, config, seed) for start, seed in zip(starts, seeds)]
    points = [next(chain) for chain in chains]
    results: list = [None] * len(chains)
    pending = list(range(len(chains)))
    while pending:
        outcomes = _score_points([space.full_point(points[i]) for i in pending], data, config)
        running = []
        for i, outcome in zip(pending, outcomes):
            try:
                points[i] = chains[i].send(outcome.score if isinstance(outcome, PointScore) else outcome)
                running.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        pending = running
    return results


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


def fit(data: np.ndarray, space: ParamSpace | None = None, config: FitConfig | None = None, jobs: int = 1) -> FitResult:
    """Grid pass, then annealing chains from the spread-out best cells.

    The chains start from the restarts best grid cells separated by at
    least one cell diagonal; the overall best-scoring point wins. jobs
    worker processes share the grid cells, then the chains, which run in
    lockstep within each process. Raises ValueError for fewer than 2
    samples or an all-zero series, which no cell could score, and FitError
    if every grid cell fails.
    """
    space = space or ParamSpace()
    config = config or FitConfig()
    data = np.asarray(data, dtype=np.float64)
    if data.size < 2:
        raise ValueError(f"need at least 2 samples to fit, got {data.size}")
    if float(np.linalg.norm(data)) == 0.0:
        raise ValueError("data series has zero norm; the relative distance is undefined")
    grid = grid_explore(data, space, config, jobs=jobs)
    starts = _spread_starts(grid, space, config.restarts)
    if not starts:
        raise FitError("every grid cell failed; nothing to anneal from")
    points = [grid.point(idx) for idx in starts]
    seeds = [derive_seed(config.seed, "anneal", chain) for chain in range(len(starts))]
    groups = [(points[part], seeds[part], data, space, config) for part in _parts(len(starts), jobs)]
    outcomes = [outcome for group in fan_out(_run_chains, groups, jobs) for outcome in group]
    best_point, best_score, traces = None, math.inf, []
    for point, score, trace in outcomes:
        traces.append(trace)
        if score < best_score:
            best_point, best_score = point, score
    final = evaluate_point(space.full_point(best_point), data, config)
    return FitResult(
        best=best_point,
        score=float(final.score),
        error=float(final.mean_error),
        error_std=float(final.error_std),
        scale=float(final.mean_scale),
        grid=grid,
        traces=traces,
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
    """Raise ValueError unless 0 < q_lo <= q_hi."""
    if not 0.0 < q_lo <= q_hi:
        raise ValueError(f"invalid q range ({q_lo}, {q_hi})")


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
        k = math.floor(q * n_cells)
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "error", "mu", "gamma", "r", "p", "scale", "seed"])
        writer.writerow([
            label,
            repr(result.error),
            repr(float(best["mu"])),
            repr(float(best["gamma"])),
            repr(float(best["r"])),
            repr(float(best.get("p", 0.0))),
            repr(result.scale),
            result.seed,
        ])


def write_grid_csv(grid: GridResult, path) -> None:
    """Grid scores: one row per cell center with score decomposition."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(grid.axes) + ["score", "mean_error", "error_std"])
        for i in range(grid.points.shape[0]):
            row = [repr(float(v)) for v in grid.points[i]]
            row += [repr(float(grid.scores[i])), repr(float(grid.mean_errors[i])), repr(float(grid.error_stds[i]))]
            writer.writerow(row)


def write_anneal_trace_csv(result: FitResult, path) -> None:
    """Anneal chains: one row per proposal; a failed proposal scores inf."""
    axes = result.space.axes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iter", *axes, "score", "accepted", "temp", "best"])
        for chain, trace in enumerate(result.traces):
            for i, point in enumerate(trace.points):
                writer.writerow([
                    chain, i, *(repr(float(point[a])) for a in axes), repr(float(trace.scores[i])),
                    int(trace.accepted[i]), repr(float(trace.temps[i])), repr(float(trace.best_scores[i])),
                ])


def read_grid_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a grid CSV back as (axes, points, scores)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "score" not in header:
            raise ValueError(f"not a grid csv: {path}")
        split = header.index("score")
        axes = header[:split]
        pts, scs = [], []
        for row in reader:
            if not row:
                continue
            pts.append([float(v) for v in row[:split]])
            scs.append(float(row[split]))
    if not pts:
        raise ValueError(f"no grid rows in {path}")
    return axes, np.asarray(pts), np.asarray(scs)


def write_chi_csv(curve: IdentifiabilityCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "chi"])
        for q, c in zip(curve.qs, curve.chi):
            writer.writerow([repr(float(q)), repr(float(c))])
