"""Trajectory statistics and seeded parameter sweeps."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .dynamics import ModelParams, PopulationSpec, Trajectory, fan_out, replicate_summaries
from .graph import GraphGenSpec
from .rules import check_rules, ruled
from .seeds import derive_seed

SWEEP_AXES = ("mu", "gamma", "r", "beta", "alpha", "network-size", "family-param")

STATISTICS = ("D_max", "D_max_inf", "X_min_final", "X_max_final", "event_fraction_curve")

_CURVE = "event_fraction_curve"


def polarization_indices(trajectory: Trajectory) -> dict[str, float]:
    """Peak opinion spread and its long-run estimate.

    D_max is the maximum of the per-tick spread max_i X - min_i X over the
    whole run; D_max_inf estimates the limiting spread as the mean spread
    over the final tenth of the run (at least one tick).
    """
    return _spread_indices(trajectory.max_diversity)


def _spread_indices(series: np.ndarray) -> dict[str, float]:
    """D_max and D_max_inf of a run's per-tick spread series."""
    tail = max(1, series.size // 10)
    return {
        "D_max": float(series.max()),
        "D_max_inf": float(series[-tail:].mean()),
    }


def regime(population) -> str:
    """Classify drift by the fraction of +1 reactions.

    Only defined for reactions in {-1, +1}: below one half the average
    opinion drifts against the events (self-cooling), above it the drift
    reinforces them (self-exciting), and exactly one half is critical.
    """
    reactions = np.asarray(population.reactions, dtype=np.float64)
    if not np.all(np.isin(reactions, (-1.0, 1.0))):
        raise ValueError("regime is only defined for reactions in {-1, +1}")
    positive = float(np.count_nonzero(reactions == 1.0)) / reactions.size
    if positive < 0.5:
        return "self-cooling"
    if positive > 0.5:
        return "self-exciting"
    return "critical"


@dataclass
class SweepAxis:
    name: str
    lo: float
    hi: float
    cells: int

    def __post_init__(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.name!r}; choose from {SWEEP_AXES}")
        if self.cells < 1:
            raise ValueError(f"axis {self.name!r} needs at least one cell, got {self.cells}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise ValueError(f"axis {self.name!r} range [{self.lo}, {self.hi}] is invalid")
        if self.cells == 1 and self.lo != self.hi:
            raise ValueError(f"single-cell axis {self.name!r} needs lo == hi")

    def values(self) -> np.ndarray:
        if self.cells == 1:
            return np.asarray([self.lo])
        return np.linspace(self.lo, self.hi, self.cells)


@dataclass
class SweepSpec:
    """One or two swept axes over a common base configuration.

    Axis values are inclusive linear grids. Replicate seeds derive from
    (seed, cell index, replicate index), so cells are independent and any
    replicate can be reproduced in isolation.
    """

    graph: GraphGenSpec
    population: PopulationSpec
    params: ModelParams
    horizon: int
    axes: list[SweepAxis]
    replicates: int = ruled(5, ge=1)
    statistics: tuple[str, ...] = ruled(("D_max", "D_max_inf"), among=STATISTICS)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(f"sweeps support 1 or 2 axes, got {len(self.axes)}")
        check_rules(self)
        if not self.statistics:
            raise ValueError("a sweep needs at least one statistic")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")


@dataclass
class CellResult:
    coords: dict[str, float]
    values: dict[str, list]
    seeds: list[int]
    error: str | None = None

    def mean(self, stat: str) -> float:
        return float(np.mean(self.values[stat])) if self.values.get(stat) else math.nan

    def std(self, stat: str) -> float:
        return float(np.std(self.values[stat])) if self.values.get(stat) else math.nan


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[CellResult]

    @property
    def axis_names(self) -> list[str]:
        return [axis.name for axis in self.spec.axes]

    def cell(self, *coords: float) -> CellResult:
        for cell in self.cells:
            if all(cell.coords[name] == c for name, c in zip(self.axis_names, coords)):
                return cell
        raise KeyError(f"no cell at {coords!r}")

    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if cell.error is not None]


def _apply_axes(spec: SweepSpec, coords: dict[str, float]):
    graph_spec, pop_spec, params, alpha = spec.graph, spec.population, spec.params, 1.0
    for name, value in coords.items():
        if name == "mu":
            params = replace(params, mu=value)
        elif name == "gamma":
            params = replace(params, gamma=value)
        elif name == "r":
            if graph_spec.family != "sbm":
                raise ValueError("axis 'r' needs an sbm graph")
            graph_spec = replace(graph_spec, inter_prob=value)
        elif name == "beta":
            pop_spec = replace(pop_spec, positive_fraction=value, cluster_positive_fractions=None)
        elif name == "alpha":
            alpha = value
        elif name == "network-size":
            graph_spec = replace(graph_spec, n=int(round(value)))
        elif name == "family-param":
            graph_spec = _family_param(graph_spec, value)
    return graph_spec, pop_spec, params, alpha


def _family_param(graph_spec: GraphGenSpec, value: float) -> GraphGenSpec:
    # the family's structural knob: attachment count, neighbor count,
    # edge probability, or intra-cluster probability
    if graph_spec.family == "barabasi-albert":
        return replace(graph_spec, m=int(round(value)))
    if graph_spec.family == "watts-strogatz":
        return replace(graph_spec, k=int(round(value)))
    if graph_spec.family == "erdos-renyi":
        return replace(graph_spec, edge_prob=value)
    return replace(graph_spec, intra_prob=value)


def _run_cell(spec: SweepSpec, cell_index: int, coords: dict[str, float]) -> CellResult:
    """The cell's replicates, run as batches through replicate_summaries.

    A failed replicate fails the cell: the cell keeps the values of the
    replicates before it and the seeds up to it, as when the replicates
    ran one at a time, and none after it runs.
    """
    values: dict[str, list] = {stat: [] for stat in spec.statistics}
    seeds = []
    error = None
    try:
        graph_spec, pop_spec, params, alpha = _apply_axes(spec, coords)
        tasks = [(graph_spec, pop_spec, params, derive_seed(spec.seed, "cell", cell_index, rep))
                 for rep in range(spec.replicates)]
        for task, run in zip(tasks, replicate_summaries(tasks, spec.horizon, weight_scale=alpha)):
            seeds.append(task[3])
            if isinstance(run, Exception):
                raise run
            indices = _spread_indices(run.max_diversity)
            for stat in spec.statistics:
                if stat in indices:
                    values[stat].append(indices[stat])
                elif stat == "X_min_final":
                    values[stat].append(float(run.final_opinions.min()))
                elif stat == "X_max_final":
                    values[stat].append(float(run.final_opinions.max()))
                elif stat == _CURVE:
                    values[stat].append(run.event_fraction)
    except Exception as exc:  # noqa: BLE001 - cell failures are data, not crashes
        error = f"{type(exc).__name__}: {exc}"
    return CellResult(coords=coords, values=values, seeds=seeds, error=error)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate every cell of the axis grid with seeded replicates.

    Cell failures are recorded on the cell instead of aborting. Results are
    identical for any jobs value; jobs > 1 only distributes cells over
    processes.
    """
    grids = [axis.values() for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    tasks = []
    for cell_index, combo in enumerate(product(*grids)):
        coords = {name: float(v) for name, v in zip(names, combo)}
        tasks.append((spec, cell_index, coords))
    return SweepResult(spec=spec, cells=fan_out(_run_cell, tasks, jobs))


def write_long_csv(result: SweepResult, path) -> None:
    """Long format: axis1,axis2,replicate,statistic,value (axis2 blank for 1-axis)."""
    names = result.axis_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis1", "axis2", "replicate", "statistic", "value"])
        for cell in result.cells:
            first = repr(cell.coords[names[0]])
            second = repr(cell.coords[names[1]]) if len(names) > 1 else ""
            for stat, values in cell.values.items():
                if stat == _CURVE:
                    continue
                for rep, value in enumerate(values):
                    writer.writerow([first, second, rep, stat, repr(float(value))])


def write_heatmap_csv(result: SweepResult, stat: str, path) -> None:
    """Pivot of cell means: rows are axis1 values, columns axis2 values."""
    if stat == _CURVE:
        raise ValueError("event_fraction_curve has no scalar heatmap; use write_curves_csv")
    names = result.axis_names
    rows = sorted({cell.coords[names[0]] for cell in result.cells})
    cols = sorted({cell.coords[names[1]] for cell in result.cells}) if len(names) > 1 else [None]
    lookup = {}
    for cell in result.cells:
        key = (cell.coords[names[0]], cell.coords[names[1]] if len(names) > 1 else None)
        lookup[key] = cell.mean(stat)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [names[0]] + ([repr(c) for c in cols] if cols != [None] else [stat])
        writer.writerow(header)
        for r in rows:
            row = [repr(r)]
            for c in cols:
                value = lookup.get((r, c), math.nan)
                row.append(repr(float(value)))
            writer.writerow(row)


def write_curves_csv(result: SweepResult, path) -> None:
    """Per-replicate event-fraction curves: axis1,axis2,replicate,t,value."""
    names = result.axis_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis1", "axis2", "replicate", "t", "value"])
        for cell in result.cells:
            first = repr(cell.coords[names[0]])
            second = repr(cell.coords[names[1]]) if len(names) > 1 else ""
            for rep, curve in enumerate(cell.values.get(_CURVE, [])):
                for t, value in enumerate(curve):
                    writer.writerow([first, second, rep, t, repr(float(value))])


def write_failures_csv(result: SweepResult, path) -> None:
    """One row per failed cell: axis coordinates and the recorded error."""
    names = result.axis_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis1", "axis2", "error"])
        for cell in result.failures():
            first = repr(cell.coords[names[0]])
            second = repr(cell.coords[names[1]]) if len(names) > 1 else ""
            writer.writerow([first, second, cell.error])
