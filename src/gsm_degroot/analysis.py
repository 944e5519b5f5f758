"""Trajectory statistics and seeded parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice, product

import numpy as np

from .csvio import failure_text, write_csv, write_series_csv
from .dynamics import (MAX_HORIZON, ModelParams, PopulationSpec, RunSummary, Trajectory, fan_out,
                       replicate_summaries, replicate_work)
from .graph import GraphError, GraphGenSpec
from .rules import check_rules, rule_of, ruled
from .seeds import derive_seed

SWEEP_AXES = ("mu", "gamma", "r", "beta", "alpha", "network-size", "family-param")

STATISTICS = ("D_max", "D_max_inf", "X_min_final", "X_max_final", "event_fraction_curve")

_CURVE = "event_fraction_curve"

# the GraphGenSpec field a family-param axis sets: attachment count, neighbor
# count, edge probability or intra-cluster probability
_FAMILY_KNOBS = {"barabasi-albert": "m", "watts-strogatz": "k", "erdos-renyi": "edge_prob", "sbm": "intra_prob"}


def polarization_indices(run: Trajectory | RunSummary) -> dict[str, float]:
    """Peak opinion spread and its long-run estimate for a run.

    D_max is the maximum of the per-tick spread max_i X - min_i X over the
    whole run; D_max_inf estimates the limiting spread as the mean spread
    over the final tenth of the run (at least one tick).
    """
    series = run.max_diversity
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
        # a coordinate names one cell: the heatmap and SweepResult.cell key cells by it
        if len(set(self.values().tolist())) < self.cells:
            raise ValueError(f"axis {self.name!r} needs {self.cells} distinct values in [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.cells)


def check_distinct(kind: str, names) -> None:
    """Raise ValueError naming the first of names, a sweep's axis names or
    its statistics, that repeats an earlier one: a repeated axis would
    share the first one's coordinate, and a repeated statistic would write
    its rows twice."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{kind} {name!r} is repeated")


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
        check_distinct("axis", [axis.name for axis in self.axes])
        check_distinct("statistic", self.statistics)
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must lie in [1, {MAX_HORIZON}], got {self.horizon}")


@dataclass
class CellResult:
    coords: dict[str, float]
    values: dict[str, list]
    seeds: list[int]
    error: str | None = None

    def mean(self, stat: str) -> float:
        return float(np.mean(self.values[stat])) if self.values.get(stat) else math.nan


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

    def axis_fields(self, cell: CellResult) -> tuple[float, float | str]:
        """The axis1,axis2 fields of cell's rows; axis2 is blank for a one-axis sweep."""
        names = self.axis_names
        return cell.coords[names[0]], cell.coords[names[1]] if len(names) > 1 else ""


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
            graph_spec = replace(graph_spec, n=_whole("n", value))
        elif name == "family-param":
            knob = _FAMILY_KNOBS[graph_spec.family]
            graph_spec = replace(graph_spec, **{knob: _whole(knob, value) if knob in ("m", "k") else value})
    return graph_spec, pop_spec, params, alpha


def _whole(name: str, value: float) -> int:
    """An axis value rounded for GraphGenSpec's integer field name, checked
    against the field's rule first so that an error shows the value as given."""
    reason = rule_of(GraphGenSpec, name).violation(value)
    if reason:
        raise GraphError(f"{name} {reason}")
    return int(round(value))


def _run_cells(plans: list[tuple], spec: SweepSpec) -> list[CellResult]:
    """The CellResult of each cell's (coords, error, tasks) plan, every
    replicate of every cell run through one replicate_summaries stream.

    A cell whose axes do not apply carries their error and no tasks, and
    fails with no seeds. A failed replicate fails its cell: the cell keeps
    the values of the replicates before it and the seeds up to it, as when
    the replicates ran one at a time. The runs after it may execute, but
    are not read.
    """
    runs = replicate_summaries([task for _, _, tasks in plans for task in tasks], spec.horizon)
    results = []
    for coords, error, tasks in plans:
        values: dict[str, list] = {stat: [] for stat in spec.statistics}
        seeds = [task[3] for task in tasks]
        # take all of the cell's runs, read or not, so the next cell starts at its own
        for rep, run in enumerate(list(islice(runs, len(tasks)))):
            if isinstance(run, Exception):
                seeds, error = seeds[:rep + 1], failure_text(run)
                break
            stats = {**polarization_indices(run), "X_min_final": float(run.final_opinions.min()),
                     "X_max_final": float(run.final_opinions.max()), _CURVE: run.event_fraction}
            for stat in spec.statistics:
                values[stat].append(stats[stat])
        results.append(CellResult(coords=coords, values=values, seeds=seeds, error=error))
    return results


def run_sweep(spec: SweepSpec, jobs: int | None = None) -> SweepResult:
    """Evaluate every cell of the axis grid with seeded replicates.

    Each cell's axes are applied once, here. fan_out splits the cells'
    plans into contiguous parts of about equal estimated work, the sum of
    replicate_work over the cell's tasks, one per worker process: at most
    jobs, or with jobs None as many as that work pays for (fan_out). The
    replicates of a part's cells run through one
    replicate_summaries stream, so its batches take members from several
    cells. Cell failures are recorded on the cell instead of aborting.
    Results are identical for any jobs value.
    """
    grids = [axis.values() for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    plans = []  # per cell: its coords, the error of its axes or None, and its replicate tasks
    for cell_index, combo in enumerate(product(*grids)):
        coords = {name: float(v) for name, v in zip(names, combo)}
        try:
            graph_spec, pop_spec, params, alpha = _apply_axes(spec, coords)
        except Exception as exc:  # noqa: BLE001 - cell failures are data, not crashes
            plans.append((coords, failure_text(exc), []))
            continue
        plans.append((coords, None, [(graph_spec, pop_spec, params, derive_seed(spec.seed, "cell", cell_index, rep),
                                      alpha) for rep in range(spec.replicates)]))
    work = [sum(replicate_work(task[0].n, spec.horizon) for task in tasks) for _, _, tasks in plans]
    return SweepResult(spec=spec, cells=fan_out(_run_cells, plans, spec, jobs=jobs, work=work,
                                                 members=spec.replicates))


def write_long_csv(result: SweepResult, path) -> None:
    """Long format: axis1,axis2,replicate,statistic,value (axis2 blank for 1-axis)."""
    write_csv(path, ["axis1", "axis2", "replicate", "statistic", "value"], (
        [*result.axis_fields(cell), rep, stat, float(value)]
        for cell in result.cells
        for stat, values in cell.values.items() if stat != _CURVE
        for rep, value in enumerate(values)
    ))


def write_heatmap_csv(result: SweepResult, stat: str, path) -> None:
    """Pivot of cell means: rows are axis1 values, columns axis2 values."""
    if stat == _CURVE:
        raise ValueError("event_fraction_curve has no scalar heatmap; use write_curves_csv")
    means = {result.axis_fields(cell): cell.mean(stat) for cell in result.cells}
    rows = sorted({row for row, _ in means})
    cols = sorted({col for _, col in means})
    header = [result.axis_names[0]] + (cols if cols != [""] else [stat])
    write_csv(path, header, ([r] + [means.get((r, c), math.nan) for c in cols] for r in rows))


def write_curves_csv(result: SweepResult, path) -> None:
    """Per-replicate event-fraction curves: axis1,axis2,replicate,t,value."""
    write_series_csv(path, ["axis1", "axis2", "replicate", "t", "value"], (
        ([*result.axis_fields(cell), rep], np.asarray(curve, dtype=np.float64).tolist())
        for cell in result.cells
        for rep, curve in enumerate(cell.values.get(_CURVE, []))
    ))


def write_failures_csv(result: SweepResult, path) -> None:
    """One row per failed cell: axis coordinates and the recorded error."""
    write_csv(path, ["axis1", "axis2", "error"],
              ([*result.axis_fields(cell), cell.error] for cell in result.failures()))


def write_sweep(result: SweepResult, out) -> None:
    """The sweep's files in directory out: sweep_long.csv, heatmap_<stat>.csv
    for each scalar statistic, curves.csv when the event-fraction curve is
    asked for, and failures.csv when a cell failed."""
    write_long_csv(result, out / "sweep_long.csv")
    for stat in result.spec.statistics:
        if stat != _CURVE:
            write_heatmap_csv(result, stat, out / f"heatmap_{stat}.csv")
    if _CURVE in result.spec.statistics:
        write_curves_csv(result, out / "curves.csv")
    if result.failures():
        write_failures_csv(result, out / "failures.csv")
