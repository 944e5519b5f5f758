"""Tests of the benchmark itself: smoke sizes, checks that reject bad output.

    python3 -m pytest perfbench

Every check must pass on a real (smoke-size) output and fail on a copy of
it with one property broken.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

FIT_SMOKE = workloads.FitSize(n=30, ticks=200, smooth=5, resolution=2, restarts=1, anneal_iters=4)
SWEEP_SMOKE = workloads.SweepSize(n=30, horizon=40, cells=2, replicates=2)
SIMULATE_SMOKE = workloads.SimulateSize(n=300, horizon=60)


def _smoke(workload, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(workload.name)
    inputs = workload.setup(7, workdir)
    outdir = workdir / "round"
    outdir.mkdir()
    return workload, inputs, outdir, workload.run(inputs, outdir)


@pytest.fixture(scope="module")
def fit_round(tmp_path_factory):
    return _smoke(workloads.FitMixing(FIT_SMOKE), tmp_path_factory)


@pytest.fixture(scope="module")
def sweep_round(tmp_path_factory):
    return _smoke(workloads.SweepRegimes(SWEEP_SMOKE), tmp_path_factory)


@pytest.fixture(scope="module")
def simulate_round(tmp_path_factory):
    return _smoke(workloads.SimulateLarge(SIMULATE_SMOKE), tmp_path_factory)


def _rewrite(path: Path, edit) -> None:
    """Apply edit(header, rows) to a csv file in place."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    edit(header, body)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + body)


def _copy_dir(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


# --- smoke runs ---------------------------------------------------------

def test_fit_smoke_passes_its_checks(fit_round):
    workload, _, _, outcome = fit_round
    assert workload.check(outcome) == []
    # 4 grid cells, one chain of a start point and 4 proposals, 1 final
    assert outcome.attempted == 4 + 5 + 1


def test_sweep_smoke_passes_its_checks(sweep_round):
    workload, _, _, outcome = sweep_round
    assert workload.check(outcome) == []
    assert (outcome.attempted, outcome.failed) == (4, 0)


def test_simulate_smoke_passes_its_checks(simulate_round):
    workload, _, _, outcome = simulate_round
    assert workload.check(outcome) == []
    assert (outcome.attempted, outcome.failed) == (1, 0)


# --- fit-mixing checks --------------------------------------------------

def _fit_problems(fit_round, result=None, fit_csv=None, grid_csv=None):
    workload, _, outdir, outcome = fit_round
    return checks.check_fit(
        result or outcome.outputs["result"],
        fit_csv or outdir / "fit.csv",
        grid_csv or outdir / "grid.csv",
        workload.size.resolution ** 2,
    )


def _fit_result(fit_round):
    return copy.deepcopy(fit_round[3].outputs["result"])


def test_fit_check_rejects_error_above_grid(fit_round):
    result = _fit_result(fit_round)
    result.error = float(np.nanmin(result.grid.scores)) + 1e-6
    assert any("lowest grid score" in p for p in _fit_problems(fit_round, result=result))


def test_fit_check_rejects_best_outside_box(fit_round):
    result = _fit_result(fit_round)
    result.best["r"] = result.space.bounds["r"][1] + 0.01
    assert any("outside" in p for p in _fit_problems(fit_round, result=result))


def test_fit_check_rejects_moved_pinned_gamma(fit_round):
    result = _fit_result(fit_round)
    result.space.pinned["gamma"] = 4.0
    result.best["gamma"] = 5.0
    assert any("pinned gamma" in p for p in _fit_problems(fit_round, result=result))


def test_fit_check_rejects_missing_grid_row(fit_round, tmp_path):
    _, _, outdir, _ = fit_round
    grid = _copy_dir(outdir, tmp_path) / "grid.csv"
    _rewrite(grid, lambda header, rows: rows.pop())
    assert any("rows, expected" in p for p in _fit_problems(fit_round, grid_csv=grid))


def test_fit_check_rejects_score_outside_unit_interval(fit_round, tmp_path):
    _, _, outdir, _ = fit_round
    grid = _copy_dir(outdir, tmp_path) / "grid.csv"

    def edit(header, rows):
        rows[0][header.index("score")] = "1.5"

    _rewrite(grid, edit)
    assert any("outside [0, 1]" in p for p in _fit_problems(fit_round, grid_csv=grid))


def test_fit_check_rejects_fit_csv_mismatch(fit_round, tmp_path):
    _, _, outdir, _ = fit_round
    fit_csv = _copy_dir(outdir, tmp_path) / "fit.csv"

    def edit(header, rows):
        i = header.index("mu")
        rows[0][i] = repr(float(rows[0][i]) + 1e-9)

    _rewrite(fit_csv, edit)
    assert any("fit.csv mu" in p for p in _fit_problems(fit_round, fit_csv=fit_csv))


def test_fit_check_rejects_failure_away_from_r_floor(fit_round):
    result = _fit_result(fit_round)
    trace = result.traces[0]
    trace.points[0] = {**trace.points[0], "r": 0.3}
    trace.scores[0] = math.inf
    trace.failures += 1
    assert any("failed away from r" in p for p in _fit_problems(fit_round, result=result))


def test_fit_operations_counts_failures(fit_round):
    result = _fit_result(fit_round)
    result.traces[0].failures += 2
    result.grid.errors.append((0, "FitError: x"))
    attempted, failed = checks.fit_operations(result)
    assert (attempted, failed) == (10, 3)


# --- sweep-regimes checks -----------------------------------------------

def _sweep_problems(sweep_round, outdir):
    workload, _, _, _ = sweep_round
    size = workload.size
    return checks.check_sweep(outdir, size.cells ** 2, size.replicates, size.horizon, size.n)


def test_sweep_check_rejects_inverted_polarization(sweep_round, tmp_path):
    _, _, outdir, _ = sweep_round
    out = _copy_dir(outdir, tmp_path)

    def edit(header, rows):
        for row in rows:
            if row[3] == "D_max_inf":
                row[4] = "1e9"
                return

    _rewrite(out / "sweep_long.csv", edit)
    assert any("D_max_inf" in p and "replicate" in p for p in _sweep_problems(sweep_round, out))


def test_sweep_check_rejects_heatmap_that_is_not_the_mean(sweep_round, tmp_path):
    _, _, outdir, _ = sweep_round
    out = _copy_dir(outdir, tmp_path)

    def edit(header, rows):
        rows[0][1] = repr(float(rows[0][1]) * (1 + 1e-9))

    _rewrite(out / "heatmap_D_max.csv", edit)
    assert any("heatmap_D_max cell" in p for p in _sweep_problems(sweep_round, out))


def test_sweep_check_rejects_curve_value_off_the_lattice(sweep_round, tmp_path):
    _, _, outdir, _ = sweep_round
    out = _copy_dir(outdir, tmp_path)

    def edit(header, rows):
        rows[5][4] = repr(float(rows[5][4]) + 0.5 / 30)

    _rewrite(out / "curves.csv", edit)
    assert any("is not k/30" in p for p in _sweep_problems(sweep_round, out))


def test_sweep_check_rejects_missing_curve_rows(sweep_round, tmp_path):
    _, _, outdir, _ = sweep_round
    out = _copy_dir(outdir, tmp_path)
    _rewrite(out / "curves.csv", lambda header, rows: rows.pop())
    assert any("curves.csv has" in p for p in _sweep_problems(sweep_round, out))


def test_sweep_check_rejects_failures_file(sweep_round, tmp_path):
    _, _, outdir, _ = sweep_round
    out = _copy_dir(outdir, tmp_path)
    (out / "failures.csv").write_text("axis1,axis2,error\n")
    assert "failures.csv was written" in _sweep_problems(sweep_round, out)


# --- simulate-large checks ----------------------------------------------

def _simulate_parts(simulate_round):
    out = simulate_round[3].outputs
    return out["graph"], out["population"], out["params"], out["trajectory"], out["summary"]


def _trajectory_problems(simulate_round, trajectory=None, summary=None):
    g, population, params, original, path = _simulate_parts(simulate_round)
    return checks.check_trajectory(g.matrix, population.reactions, params.gamma, params.lam,
                                   trajectory or original, summary or path)


def test_trajectory_check_rejects_broken_update_law(simulate_round):
    trajectory = copy.deepcopy(_simulate_parts(simulate_round)[3])
    trajectory.opinions[17, 5] += 1e-6
    assert any("update law" in p for p in _trajectory_problems(simulate_round, trajectory=trajectory))


def test_trajectory_check_rejects_fraction_off_the_lattice(simulate_round):
    trajectory = copy.deepcopy(_simulate_parts(simulate_round)[3])
    trajectory.event_fraction[3] += 0.25 / trajectory.n
    assert any("not k/" in p for p in _trajectory_problems(simulate_round, trajectory=trajectory))


def test_trajectory_check_rejects_biased_event_draws(simulate_round):
    trajectory = copy.deepcopy(_simulate_parts(simulate_round)[3])
    p = 1.0 / (1.0 + np.exp(-trajectory.opinions))
    trajectory.states[:] = (p > 0.3).astype(np.int8)  # thresholded, not drawn
    trajectory.event_fraction[:] = trajectory.states.sum(axis=1) / trajectory.n
    assert any("sigma" in p for p in _trajectory_problems(simulate_round, trajectory=trajectory))


def test_trajectory_check_rejects_summary_mismatch(simulate_round, tmp_path):
    path = _simulate_parts(simulate_round)[4]
    summary = tmp_path / "trajectory.csv"
    shutil.copy(path, summary)

    def edit(header, rows):
        rows[10][2] = repr(float(rows[10][2]) + 1e-9)

    _rewrite(summary, edit)
    assert any("mean_opinion" in p for p in _trajectory_problems(simulate_round, summary=summary))


def test_graph_check_rejects_unnormalized_rows():
    matrix = sparse.csr_array(np.array([[0.5, 0.5], [0.6, 0.5]]))
    assert any("row sums" in p for p in checks.check_graph(matrix))


def test_graph_check_rejects_disconnected_graph():
    matrix = sparse.csr_array(np.eye(3))
    assert any("strongly connected" in p for p in checks.check_graph(matrix))


def test_graph_check_accepts_smoke_graph(simulate_round):
    assert checks.check_graph(_simulate_parts(simulate_round)[0].matrix) == []


# --- the command --------------------------------------------------------

def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_workload_and_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    tracer = run.layer_tracer()
    empty = tracer.snapshot()
    metrics = run.layer_metrics(tracer, empty, 0, 1, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]


# --- the tracer ---------------------------------------------------------

def test_tracer_self_time_failures_and_restore():
    import time
    import types

    from tracer import Tracer

    def inner(x):
        time.sleep(0.02)
        if x < 0:
            raise ValueError(x)
        return x

    def outer(x):
        time.sleep(0.01)
        return module.inner(x)

    module = types.ModuleType("fake")
    module.inner, module.outer = inner, outer
    tracer = Tracer([module])
    tracer.wrap(inner, "inner", leaf=True)
    tracer.wrap(outer, "outer")
    tracer.install()
    module.outer(1)
    with pytest.raises(ValueError):
        module.outer(-1)
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    assert tracer.calls == {"inner": 2, "outer": 2}
    assert tracer.failed == {"inner": 1, "outer": 1}
    assert [span[0] for span in tracer.spans] == ["outer", "outer"]  # leaves keep no span
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert tracer.self_s["outer"] >= 0.02  # the two 10 ms sleeps of outer itself
