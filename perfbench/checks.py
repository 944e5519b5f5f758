"""Output checks for the benchmark workloads.

Each check returns a list of problems, empty when the output is right. The
checks test properties of the method or recompute a value independently;
none of them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

# distances reordered by a future kernel may differ in the last bits
SCORE_SLACK = 1e-12
ROW_SUM_TOL = 1e-12
UPDATE_RTOL = 1e-11
MAX_SIGMA = 5.0
CHUNK_TICKS = 50


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def check_fit(result, fit_csv: Path, grid_csv: Path, expected_cells: int) -> list[str]:
    """fit-mixing: score bound, box, pinned axes, grid file and fit file."""
    problems = []
    space = result.space
    scores = np.asarray(result.grid.scores, dtype=np.float64)
    scores = scores[np.isfinite(scores)]
    # expected mode with one replicate is deterministic, and every chain
    # starts from a grid cell, so the fit can only improve on the grid
    if scores.size and result.error > float(scores.min()) + SCORE_SLACK:
        problems.append(f"fit error {result.error!r} exceeds the lowest grid score {float(scores.min())!r}")
    for name in space.axes:
        lo, hi = space.bounds[name]
        if not lo <= result.best[name] <= hi:
            problems.append(f"best {name}={result.best[name]!r} outside [{lo}, {hi}]")
    best = result.full_best()
    for name, value in space.pinned.items():
        if best[name] != value:
            problems.append(f"pinned {name} is {best[name]!r}, not {value!r}")

    header, rows = _read_rows(grid_csv)
    if len(rows) != expected_cells:
        problems.append(f"grid.csv has {len(rows)} rows, expected {expected_cells}")
    split = header.index("score")
    for i, row in enumerate(rows):
        score = float(row[split])
        if not 0.0 <= score <= 1.0:  # also rejects NaN, a failed cell
            problems.append(f"grid.csv row {i} score {score!r} outside [0, 1]")

    header, rows = _read_rows(fit_csv)
    if len(rows) != 1:
        problems.append(f"fit.csv has {len(rows)} rows, expected 1")
    else:
        row = dict(zip(header, rows[0]))
        expected = {
            "error": result.error,
            "mu": best["mu"],
            "gamma": best["gamma"],
            "r": best["r"],
            "p": best.get("p", 0.0),
            "scale": result.scale,
        }
        for key, value in expected.items():
            if float(row[key]) != float(value):
                problems.append(f"fit.csv {key}={row[key]} does not match the result's {value!r}")
        if int(row["seed"]) != result.seed:
            problems.append(f"fit.csv seed {row['seed']} does not match {result.seed}")

    r_floor = space.bounds["r"][0] if "r" in space.bounds else None
    for chain, trace in enumerate(result.traces):
        failed = [pt for pt, score in zip(trace.points, trace.scores) if score == math.inf]
        if len(failed) != trace.failures:
            problems.append(f"chain {chain} counts {trace.failures} failures but has {len(failed)} failed proposals")
        for pt in failed:
            if pt.get("r") != r_floor:
                problems.append(f"chain {chain} proposal {pt} failed away from r = {r_floor}")
    return problems


def fit_operations(result) -> tuple[int, int]:
    """(attempted, failed) surrogate evaluations of one fit.

    Grid cells, then per chain its start point plus every proposal, then
    the final evaluation of the best point.
    """
    attempted = len(result.grid.scores) + sum(1 + len(t.points) for t in result.traces) + 1
    failed = len(result.grid.errors) + sum(t.failures for t in result.traces)
    return attempted, failed


def check_sweep(outdir: Path, cells: int, replicates: int, horizon: int, n: int) -> list[str]:
    """sweep-regimes: polarization order, heatmaps, curves and no failures."""
    problems = []
    if (outdir / "failures.csv").exists():
        problems.append("failures.csv was written")

    _, rows = _read_rows(outdir / "sweep_long.csv")
    per_rep: dict[tuple, dict[str, float]] = defaultdict(dict)
    per_cell: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for first, second, rep, stat, value in rows:
        per_rep[(first, second, rep)][stat] = float(value)
        per_cell[(float(first), float(second))][stat].append(float(value))
    if len(per_cell) != cells:
        problems.append(f"sweep_long.csv covers {len(per_cell)} cells, expected {cells}")
    if len(per_rep) != cells * replicates:
        problems.append(f"sweep_long.csv has {len(per_rep)} replicates, expected {cells * replicates}")
    for key, values in per_rep.items():
        if not values["D_max"] >= values["D_max_inf"] >= 0.0:
            problems.append(f"replicate {key}: D_max {values['D_max']!r}, D_max_inf {values['D_max_inf']!r}")

    for stat in ("D_max", "D_max_inf"):
        header, rows = _read_rows(outdir / f"heatmap_{stat}.csv")
        cols = [float(c) for c in header[1:]]
        seen = 0
        for row in rows:
            for col, text in zip(cols, row[1:]):
                seen += 1
                recomputed = float(np.mean(per_cell[(float(row[0]), col)][stat]))
                if not math.isclose(float(text), recomputed, rel_tol=1e-12, abs_tol=0.0):
                    problems.append(f"heatmap_{stat} cell ({row[0]}, {col}) {text} != recomputed {recomputed!r}")
        if seen != cells:
            problems.append(f"heatmap_{stat} has {seen} cells, expected {cells}")

    _, rows = _read_rows(outdir / "curves.csv")
    if len(rows) != cells * replicates * horizon:
        problems.append(f"curves.csv has {len(rows)} rows, expected {cells * replicates * horizon}")
    values = np.asarray([float(row[4]) for row in rows])
    problems += check_event_fractions(values, n, "curves.csv")
    return problems


def check_event_fractions(values: np.ndarray, n: int, where: str) -> list[str]:
    """Every event fraction is exactly k / n for an integer k in [0, n]."""
    k = np.round(values * n)
    bad = (k < 0) | (k > n) | (k / n != values)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"{where}: value {values[i]!r} at index {i} is not k/{n}"]
    return []


def check_graph(matrix) -> list[str]:
    """Row-stochastic and strongly connected."""
    problems = []
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > ROW_SUM_TOL:
        problems.append(f"graph row sums deviate from 1 by {worst!r}")
    count, _ = connected_components(sparse.csr_array(matrix), directed=True, connection="strong")
    if count != 1:
        problems.append(f"graph has {count} strongly connected components")
    return problems


def check_trajectory(matrix, reactions, gamma: float, lam: float, trajectory, summary_csv: Path) -> list[str]:
    """simulate-large: update law, event counts, event draws and summary file.

    The update law opinions[t+1] = W opinions[t] + reactions gamma
    event_fraction[t] is recomputed with a batched sparse product over
    chunks of ticks, so the check holds only a few ticks in memory at once.
    """
    problems = []
    opinions = trajectory.opinions
    states = trajectory.states
    fraction = trajectory.event_fraction
    horizon, n = opinions.shape
    problems += check_event_fractions(np.asarray(fraction), n, "event_fraction")
    counts = states.sum(axis=1, dtype=np.int64)
    if not np.array_equal(counts / n, fraction):
        problems.append("event_fraction differs from the state rows")

    operator = sparse.csr_array(matrix)
    for lo in range(0, horizon - 1, CHUNK_TICKS):
        hi = min(lo + CHUNK_TICKS, horizon - 1)
        current = opinions[lo:hi]
        expected = (operator @ current.T).T + np.outer(gamma * fraction[lo:hi], reactions)
        scale = max(1.0, float(np.abs(current).max()))
        gap = float(np.abs(opinions[lo + 1:hi + 1] - expected).max())
        if gap > UPDATE_RTOL * scale:
            problems.append(f"update law off by {gap!r} in ticks {lo}..{hi} (scale {scale!r})")
            break

    # sum of (state - p) over ticks and agents, against its own standard
    # deviation under independent Bernoulli(p) draws
    excess = 0.0
    variance = 0.0
    for lo in range(0, horizon, CHUNK_TICKS):
        p = expit(lam * opinions[lo:lo + CHUNK_TICKS])
        excess += float(states[lo:lo + CHUNK_TICKS].sum(dtype=np.int64) - p.sum())
        variance += float((p * (1.0 - p)).sum())
    z = excess / math.sqrt(variance) if variance > 0.0 else (0.0 if excess == 0.0 else math.inf)
    if abs(z) > MAX_SIGMA:
        problems.append(f"event draws are {z:.2f} sigma from their probabilities")

    _, rows = _read_rows(summary_csv)
    if len(rows) != horizon:
        problems.append(f"{summary_csv.name} has {len(rows)} rows, expected {horizon}")
    else:
        columns = np.asarray([[float(v) for v in row[1:]] for row in rows])
        for j, name in enumerate(("event_fraction", "mean_opinion", "max_diversity")):
            if not np.array_equal(columns[:, j], getattr(trajectory, name)):
                problems.append(f"{summary_csv.name} column {name} does not match the trajectory")
    return problems
