"""End-to-end subcommand runs in temporary directories."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from gsm_degroot import cli, dynamics
from gsm_degroot.analysis import regime
from gsm_degroot.cli import main
from gsm_degroot.fitting import GridResult, read_grid_csv, write_grid_csv


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


SIM_CONFIG = {
    "seed": 5,
    "graph": {"family": "barabasi-albert", "n": 30, "m": 3},
    "population": {"positive_fraction": 0.25},
    "params": {"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1.0},
    "horizon": 300,
}


# ---------------------------------------------------------------------------
# gen-graph


def test_gen_graph_writes_edges_and_report(tmp_path, capsys):
    config = write_config(tmp_path, {"seed": 5, "graph": {"family": "sbm", "n": 40}})
    out = tmp_path / "out"
    assert main(["gen-graph", "--config", config, "--out", str(out)]) == 0
    assert (out / "edges.csv").exists()
    assert (out / "resolved_config.yaml").exists()
    assert (out / "seed.txt").read_text() == "5\n"
    report = (out / "validation.json").read_text()
    assert '"strongly_connected": true' in report
    assert '"normalized": true' in report
    assert "40 nodes" in capsys.readouterr().out


def test_gen_graph_is_seed_deterministic(tmp_path):
    config = write_config(tmp_path, {"graph": {"family": "sbm", "n": 40}})
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["gen-graph", "--config", config, "--seed", "7", "--out", str(first)]) == 0
    assert main(["gen-graph", "--config", config, "--seed", "7", "--out", str(second)]) == 0
    assert read_bytes(first / "edges.csv") == read_bytes(second / "edges.csv")
    assert (first / "seed.txt").read_text() == "7\n"


def test_schema_violation_exits_2_with_field_path(tmp_path, capsys):
    config = write_config(tmp_path, {"params": {"lambda": -1.0}})
    assert main(["gen-graph", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "params.lambda" in capsys.readouterr().err


def test_a_non_finite_parameter_exits_2_naming_its_field(tmp_path, capsys):
    config = write_config(tmp_path, dict(SIM_CONFIG, params={"lambda": 1.0, "mu": float("nan")}))
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config field params.mu: must be finite, got nan" in capsys.readouterr().err


def test_a_start_draw_past_the_floats_exits_2_naming_sigma(tmp_path, capsys):
    config = write_config(tmp_path, dict(SIM_CONFIG, params={"lambda": 1.0, "mu": 0.0, "sigma": 1.0e308}))
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: initial opinions drawn with mu 0.0 and sigma 1e+308 are not all finite\n"


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["gen-graph", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_a_graph_past_the_size_limit_exits_2_naming_the_field(tmp_path, capsys):
    config = write_config(tmp_path, {"graph": {"family": "barabasi-albert", "n": 10**6 + 1}})
    assert main(["gen-graph", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config field graph.n: must be <= 1000000, got 1000001" in capsys.readouterr().err
    config = write_config(tmp_path, {"fit": {"surrogate": {"n": 10**6 + 1}}})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "config field fit.surrogate.n: must be <= 1000000, got 1000001" in capsys.readouterr().err


def test_bad_flag_values_exit_2(tmp_path):
    config = write_config(tmp_path, {})
    assert main(["gen-graph", "--config", config, "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
    assert main(["gen-graph", "--config", config, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# simulate


def test_simulate_consensus_run_prints_indices(tmp_path, capsys):
    config = write_config(tmp_path, SIM_CONFIG)
    out = tmp_path / "deep" / "nested" / "out"  # created on demand
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    stdout = capsys.readouterr().out
    assert "regime: self-cooling" in stdout  # 25% positive reactions
    d_max_inf = float(stdout.split("D_max_inf=")[1].split()[0])
    assert d_max_inf < 1e-6  # no steering, strongly connected: consensus


def test_simulate_agent_files_are_optional(tmp_path):
    payload = dict(SIM_CONFIG, simulate={"write_agents": True}, horizon=40)
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert (out / "opinions.csv").exists()
    assert (out / "states.csv").exists()


def test_simulate_overflow_exits_3_naming_the_step(tmp_path, capsys):
    payload = dict(SIM_CONFIG, params={"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1e13}, horizon=50)
    config = write_config(tmp_path, payload)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 3
    assert "at step" in capsys.readouterr().err


@pytest.mark.parametrize("message,line", [("", "error: MemoryError\n"),
                                          ("Unable to allocate 2.91 TiB", "error: Unable to allocate 2.91 TiB\n")])
def test_a_run_too_large_for_memory_exits_2_in_one_line(tmp_path, capsys, monkeypatch, message, line):
    def no_room(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "replicate", no_room)
    config = write_config(tmp_path, SIM_CONFIG)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == line


def test_simulate_regime_matches_analysis_label(tmp_path, capsys):
    from gsm_degroot.dynamics import PopulationSpec
    from gsm_degroot.graph import GraphGenSpec, generate
    from gsm_degroot.seeds import derive_seed, rng_from

    config = write_config(tmp_path, SIM_CONFIG)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.split("regime: ")[1].splitlines()[0]
    graph = generate(GraphGenSpec(family="barabasi-albert", n=30, m=3, seed=derive_seed(5, "graph")))
    population = PopulationSpec(positive_fraction=0.25).build(
        30, rng_from(5, "population"), 0.0, 1.0, clusters=graph.clusters
    )
    assert printed == regime(population)


# ---------------------------------------------------------------------------
# sweep


SWEEP_CONFIG = {
    "seed": 11,
    "graph": {"family": "sbm", "n": 20},
    "population": {"positive_fraction": 0.5},
    "params": {"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1.0},
    "horizon": 80,
    "sweep": {
        "axes": [{"name": "gamma", "lo": 0.0, "hi": 1.0, "cells": 2}],
        "replicates": 2,
        "statistics": ["D_max", "D_max_inf"],
    },
}


def test_sweep_writes_heatmaps(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert (out / "sweep_long.csv").exists()
    assert (out / "heatmap_D_max.csv").exists()
    assert (out / "heatmap_D_max_inf.csv").exists()
    assert not (out / "failures.csv").exists()


def test_sweep_output_is_jobs_invariant(tmp_path):
    config = write_config(tmp_path, SWEEP_CONFIG)
    unset = tmp_path / "unset"
    assert main(["sweep", "--config", config, "--out", str(unset)]) == 0
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs-{jobs}"
        assert main(["sweep", "--config", config, "--jobs", jobs, "--out", str(out)]) == 0
        assert read_bytes(unset / "heatmap_D_max.csv") == read_bytes(out / "heatmap_D_max.csv")
        assert read_bytes(unset / "sweep_long.csv") == read_bytes(out / "sweep_long.csv")


def test_sweep_without_axes_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, dict(SWEEP_CONFIG, sweep={"axes": []}))
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "sweep.axes is empty" in capsys.readouterr().err


def test_sweep_with_every_cell_failing_exits_4(tmp_path, capsys):
    payload = dict(
        SWEEP_CONFIG,
        params={"lambda": 1.0, "gamma": 0.1, "mu": 1e9, "sigma": 1.0},
        horizon=400,
        sweep={
            "axes": [{"name": "alpha", "lo": 1.5, "hi": 1.9, "cells": 2}],
            "replicates": 1,
            "statistics": ["D_max"],
        },
    )
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 4
    assert (out / "failures.csv").exists()
    assert "cells failed" in capsys.readouterr().err


def test_a_sweep_cell_past_the_graph_size_limit_fails_alone(tmp_path, capsys):
    # the second cell asks for n = 1e300, which the rule rejects before any graph is built
    payload = dict(SWEEP_CONFIG, sweep={
        "axes": [{"name": "network-size", "lo": 20, "hi": 1e300, "cells": 2}],
        "replicates": 1,
        "statistics": ["D_max"],
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert "1 of 2 cells failed" in capsys.readouterr().err
    rows = list(csv.reader((out / "failures.csv").read_text().splitlines()))
    assert len(rows) == 2 and rows[1][0] == "1e+300"
    assert rows[1][-1] == "GraphError: n must be <= 1000000, got 1e+300"
    assert next(csv.reader((out / "sweep_long.csv").read_text().splitlines()[1:]))[0] == "20.0"


# ---------------------------------------------------------------------------
# fit and identify


def decaying_series(tmp_path):
    path = tmp_path / "observed.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t in range(40):
            writer.writerow([t, f"{0.5 * 0.98 ** t:.6f}"])
    return str(path)


FIT_SECTION = {
    "space": {"mu": [-50.0, 50.0, 2], "gamma": [0.0, 5.0, 2]},
    "pinned": {"r": 0.2},
    "surrogate": {"n": 30},
    "replicates": 1,
    "mode": "expected",
    "restarts": 1,
    "anneal_iters": 5,
}


def test_fit_writes_summary_and_grid(tmp_path, capsys):
    data = decaying_series(tmp_path)
    config = write_config(tmp_path, {"seed": 3, "fit": dict(FIT_SECTION, data=data)})
    out = tmp_path / "out"
    assert main(["fit", "--config", config, "--out", str(out)]) == 0
    with open(out / "fit.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["label", "error", "mu"]
    assert rows[1][0] == "observed"  # label defaults to the data file stem
    axes, points, scores = read_grid_csv(out / "grid.csv")
    assert axes == ["mu", "gamma"]
    assert points.shape == (4, 2)
    assert np.all(np.isfinite(scores))
    with open(out / "anneal_trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    assert list(trace[0]) == ["chain", "iter", "mu", "gamma", "score", "accepted", "temp", "best"]
    assert len(trace) == FIT_SECTION["restarts"] * FIT_SECTION["anneal_iters"]
    assert [row["iter"] for row in trace] == [str(i) for i in range(FIT_SECTION["anneal_iters"])]
    stdout = capsys.readouterr().out
    assert "best:" in stdout and "error=" in stdout


def test_fit_without_data_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"fit": FIT_SECTION})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "fit.data is required" in capsys.readouterr().err


def test_fit_with_malformed_data_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,value\n1,2.0\n1,3.0\n")
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=str(path))})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "duplicate timestamp" in capsys.readouterr().err


def dated_series(tmp_path):
    path = tmp_path / "dated.csv"
    path.write_text("timestamp,value\n" + "".join(
        f"2020-01-{day:02d},{0.5 * 0.98 ** day:.6f}\n" for day in range(1, 31)
    ))
    return str(path)


def test_fit_crops_a_dated_series_to_a_date_window(tmp_path):
    prep = {"window": ["2020-01-05", "2020-01-25"]}
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=dated_series(tmp_path), preprocess=prep)})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "fit.csv").exists()


def test_fit_with_a_tick_window_on_a_dated_series_exits_2(tmp_path, capsys):
    prep = {"window": [5, 25]}
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=dated_series(tmp_path), preprocess=prep)})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "does not match the series timestamps" in capsys.readouterr().err


def test_fit_writes_the_cause_of_each_failed_grid_cell(tmp_path, capsys, monkeypatch):
    # the middle of three r cells fails to build its surrogate; the fit
    # still finishes, and names the cell and its error
    section = dict(FIT_SECTION, data=decaying_series(tmp_path), space={"r": [0.1, 0.4, 3]},
                   pinned={"mu": -20.0, "gamma": 3.0})
    config = write_config(tmp_path, {"seed": 3, "fit": section})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "plain")]) == 0
    assert not (tmp_path / "plain" / "grid_failures.csv").exists()
    assert "grid cells failed" not in capsys.readouterr().err
    build = dynamics._replicate_inputs

    def failing(graph_spec, *args):
        if abs(graph_spec.inter_prob - 0.25) < 1e-9:
            raise RuntimeError("surrogate build stand-in")
        return build(graph_spec, *args)

    monkeypatch.setattr(dynamics, "_replicate_inputs", failing)
    out = tmp_path / "out"
    assert main(["fit", "--config", config, "--out", str(out)]) == 0
    assert "1 of 3 grid cells failed; see grid_failures.csv" in capsys.readouterr().err
    with open(out / "grid_failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "error"]
    assert len(rows) == 2 and abs(float(rows[1][0]) - 0.25) < 1e-9
    assert rows[1][1] == "RuntimeError: surrogate build stand-in"
    grid = list(csv.reader((out / "grid.csv").read_text().splitlines()))
    assert [row[1] for row in grid[1:]].count("nan") == 1
    assert "`grid_failures.csv`" in (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_fit_exits_4_when_every_grid_cell_fails(tmp_path, capsys, monkeypatch):
    section = dict(FIT_SECTION, data=decaying_series(tmp_path), space={"r": [0.1, 0.4, 3]},
                   pinned={"mu": -20.0, "gamma": 3.0})
    config = write_config(tmp_path, {"seed": 3, "fit": section})

    def failing(*args):
        raise RuntimeError("surrogate build stand-in")

    monkeypatch.setattr(dynamics, "_replicate_inputs", failing)
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.endswith("error: every grid cell failed; nothing to anneal from\n")


def test_fit_rejects_an_all_zero_series_before_simulating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "zeros.csv"
    path.write_text("timestamp,value\n" + "".join(f"{t},0\n" for t in range(40)))
    sims = 0
    run_members = dynamics._run_members

    def counted_run_members(members, *args, **kwargs):
        nonlocal sims
        sims += len(members)
        return run_members(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", counted_run_members)
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=str(path))})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "zero norm" in capsys.readouterr().err
    assert sims == 0


def test_fit_on_a_one_sample_window_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("timestamp,value\n0,0.5\n1,0.4\n2,0.3\n")
    prep = {"window": [1, 1]}
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=str(path), preprocess=prep)})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "need at least 2 samples to fit, got 1" in capsys.readouterr().err


def test_fit_with_a_smooth_wider_than_the_series_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("timestamp,value\n0,0.5\n1,0.4\n2,0.3\n")
    config = write_config(tmp_path, {"fit": dict(FIT_SECTION, data=str(path), preprocess={"smooth": 5})})
    assert main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "smooth width 5 exceeds the 3 samples of the filled series" in capsys.readouterr().err


# sha256 of the files a small fit wrote before the fit scored its grid
# cells and anneal chains in batches: three searched axes, two stochastic
# replicates and two chains whose wide proposals fail at r = 0.0
FIT_FINGERPRINT = {
    "fit.csv": "71499810799c14b930e13442f706038957882844b4afa8398d197880c63cae58",
    "grid.csv": "01bd22d58c0fb1ffe78fe717d7fb7b3edcafdf64f703a90e3cbc2b3616fb7b4c",
    "anneal_trace.csv": "23d89c3cd0be9fb2acd5f5ef64a4e78216df3dda5112c5c07047b1b08b7d9cf6",
}


def test_fit_outputs_keep_their_bytes_at_any_jobs(tmp_path):
    section = {
        "data": decaying_series(tmp_path),
        "space": {"mu": [-50.0, 50.0, 2], "gamma": [0.0, 5.0, 2], "r": [0.0, 0.5, 2]},
        "surrogate": {"n": 30}, "replicates": 2, "restarts": 2, "anneal_iters": 8,
        "neighborhood_volume": 0.5,
    }
    config = write_config(tmp_path, {"seed": 3, "fit": section})
    for jobs in (None, "1", "2"):
        out = tmp_path / f"out-{jobs}"
        flag = [] if jobs is None else ["--jobs", jobs]
        assert main(["fit", "--config", config, *flag, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256(read_bytes(out / name)).hexdigest() for name in FIT_FINGERPRINT}
        assert digests == FIT_FINGERPRINT, f"--jobs {jobs}"


def planted_grid_csv(tmp_path):
    axis = np.linspace(0.0, 1.0, 20)
    mesh_mu, mesh_gamma = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([mesh_mu.ravel(), mesh_gamma.ravel()])
    scores = np.linalg.norm(points - np.array([0.4, 0.6]), axis=1)
    grid = GridResult(
        axes=["mu", "gamma"], points=points, scores=scores,
        mean_errors=scores, error_stds=np.zeros(scores.size), errors=[],
    )
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    return str(path)


def test_identify_writes_decreasing_chi(tmp_path):
    grid_path = planted_grid_csv(tmp_path)
    payload = {
        "seed": 3,
        "identify": {"grid": grid_path, "q_min": 0.01, "q_max": 0.1, "points": 5},
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["identify", "--config", config, "--out", str(out)]) == 0
    with open(out / "chi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "chi"]
    chi = [float(row[1]) for row in rows[1:]]
    assert len(chi) == 5
    assert chi[0] > chi[-1]  # sharp basin fades as q grows


def test_identify_with_too_few_valid_cells_exits_2(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("mu,score\n" + "0.5,nan\n" * 300 + "0.5,1.0\n" * 99)
    config = write_config(tmp_path, {"identify": {"grid": str(grid_path), "q_min": 0.01}})
    assert main(["identify", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "99 valid cells of 399" in capsys.readouterr().err


def test_identify_on_a_grid_row_shorter_than_its_header_exits_2_naming_the_line(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("mu,gamma,score,mean_error,error_std\n0.1,0.2,0.5,0.5,0.0\n0.3,0.4\n")
    config = write_config(tmp_path, {"identify": {"grid": str(grid_path), "q_min": 0.01}})
    assert main(["identify", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "line 3: 2 fields, the header has 5" in capsys.readouterr().err


def test_identify_on_a_grid_field_that_is_not_a_number_exits_2_naming_the_line(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    grid_path.write_text("mu,gamma,score,mean_error,error_std\n0.1,0.2,0.5,0.5,0.0\n0.3,x,0.4,0.4,0.0\n")
    config = write_config(tmp_path, {"identify": {"grid": str(grid_path), "q_min": 0.01}})
    assert main(["identify", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{grid_path} line 3: could not convert string to float: 'x'" in capsys.readouterr().err


def test_identify_without_grid_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {})
    assert main(["identify", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "identify.grid is required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# provenance


def test_rerun_from_resolved_config_is_bit_identical(tmp_path):
    config = write_config(tmp_path, SIM_CONFIG)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["simulate", "--config", config, "--out", str(first)]) == 0
    assert main(["simulate", "--config", str(first / "resolved_config.yaml"), "--out", str(second)]) == 0
    assert read_bytes(first / "trajectory.csv") == read_bytes(second / "trajectory.csv")
    assert read_bytes(first / "resolved_config.yaml") == read_bytes(second / "resolved_config.yaml")


# ---------------------------------------------------------------------------
# README


def run_every_command(tmp_path) -> list:
    """Each command on the config of its tests above, with every optional
    file switched on (agent matrices, event-fraction curves, failed cells);
    returns the output directories in run order."""
    every_cell_fails = dict(SWEEP_CONFIG, params={"lambda": 1.0, "gamma": 0.1, "mu": 1e9, "sigma": 1.0},
                            horizon=400, sweep={"axes": [{"name": "alpha", "lo": 1.5, "hi": 1.9, "cells": 2}],
                                                "replicates": 1, "statistics": ["D_max"]})
    runs = [
        ("gen-graph", {"seed": 5, "graph": {"family": "sbm", "n": 40}}, 0),
        ("simulate", dict(SIM_CONFIG, simulate={"write_agents": True}, horizon=40), 0),
        ("sweep", dict(SWEEP_CONFIG, sweep=dict(SWEEP_CONFIG["sweep"], statistics=["D_max", "event_fraction_curve"])),
         0),
        ("sweep", every_cell_fails, 4),
        ("fit", {"seed": 3, "fit": dict(FIT_SECTION, data=decaying_series(tmp_path))}, 0),
        ("identify", {"seed": 3, "identify": {"grid": planted_grid_csv(tmp_path), "q_min": 0.01, "q_max": 0.1,
                                              "points": 5}}, 0),
    ]
    outs = []
    for k, (command, payload, code) in enumerate(runs):
        out = tmp_path / f"out{k}"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == code
        outs.append(out)
    return outs


def test_readme_names_every_file_a_command_writes(tmp_path):
    written = {path.name for out in run_every_command(tmp_path) for path in out.iterdir()}
    names = {"heatmap_<stat>.csv" if name.startswith("heatmap_") else name for name in written}
    assert {"curves.csv", "failures.csv", "opinions.csv", "heatmap_<stat>.csv"} <= names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


# sha256 of every file the runs of run_every_command write, taken before
# one module took over writing and reading CSV; the resolved configs of fit
# and identify name their input file, so the run's directory reads as TMP
EVERY_COMMAND_FINGERPRINT = {
    "out0/edges.csv": "84acfac6564688dc09ab3ca2931c0e24e57f33c80e2a5e45972b7f07a0e585ba",
    "out0/resolved_config.yaml": "d9b42c0f9b002e98cd0a494346ce991501175f3e519f2f02a3b651ae7e068d1a",
    "out0/seed.txt": "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "out0/validation.json": "1db57e2701b855ccf42e09a37f7815029c324d9aa6037facc60cf09ea3ab0a17",
    "out1/opinions.csv": "0abf9733b2367a90bcf411fd3782380354840d7922fd257c9f87c666dbbdfc39",
    "out1/resolved_config.yaml": "82321102999f2a77ffce97adc02988b202c2d514ef1037bf9f2c2a90c638d2ce",
    "out1/seed.txt": "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "out1/states.csv": "2691d2d091ce6865096a642097337fa0e0526b52cf1087cf947e2b97e1ff9d96",
    "out1/trajectory.csv": "584269b550c4d89fa993e22b43666b8c132d274c17ea32ddf50afd55f90e04f8",
    "out2/curves.csv": "d25625f28d920cb684304b1f9bbfd7c04fbffa11d800412aac267e544c3692b4",
    "out2/heatmap_D_max.csv": "b0eedabf803ccc8aac3172a884b86b93078b5a35574fe38da9e37fa1a5a36334",
    "out2/resolved_config.yaml": "ea56c252c45352e1a478a680685c7bb7dc1aed22358d34b856c5396caaaf8a55",
    "out2/seed.txt": "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
    "out2/sweep_long.csv": "d0769bf3d217a511287b54f5436e47aff6168d85c15ff46db94c86b0db32fee9",
    "out3/failures.csv": "5b6aa4e81562b96c1ae007063ea6d35e14bb7aec3792cd5332055b404796969a",
    "out3/heatmap_D_max.csv": "2bd1a818e55f36041ac81c049a16ae0c0740fdbd0465eb47e77912add0a74421",
    "out3/resolved_config.yaml": "2e72c9525a289b558193fcacfb7509a1cb9b9b8be24883ccc0b42d2f9f5cdc9e",
    "out3/seed.txt": "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
    "out3/sweep_long.csv": "15a378d254080ff16e9e94cf1178c33611fe4717e8c2ac2a9da92b6a42a78691",
    "out4/anneal_trace.csv": "6011107fdec976ee0a4e4a57e147aa88f59e72740fa3aa368e8038f47253b023",
    "out4/fit.csv": "5e6432c535001277f3504cec23f12a475c7aed6c903f7326f04ca164a334a2dd",
    "out4/grid.csv": "f744cbe6000e88710635ea6ffefe1efcfbbc08fff62f5fab12abfacb301c4e43",
    "out4/resolved_config.yaml": "608518413eda24b5a34b094df4a49d6c0f4ec7f4826868f863da551c5428cfa7",
    "out4/seed.txt": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "out5/chi.csv": "031d29f76c10f2c994728253af7117882d5f98654a63ee1639ef11d0024c8b35",
    "out5/resolved_config.yaml": "1cc6ef838181008b3438724645d81594a283a80eb8229116b89e1a2a89977be1",
    "out5/seed.txt": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
}


def test_every_command_output_keeps_its_bytes(tmp_path):
    digests = {
        f"{out.name}/{path.name}": hashlib.sha256(read_bytes(path).replace(str(tmp_path).encode(), b"TMP")).hexdigest()
        for out in run_every_command(tmp_path) for path in sorted(out.iterdir())
    }
    assert digests == EVERY_COMMAND_FINGERPRINT


def run_stubborn_commands(tmp_path) -> list:
    """(command, config) of runs whose populations hold stubborn agents: a
    fit that searches the stubborn share p, in expected and stochastic mode;
    a Watts-Strogatz sweep with a stubborn share and partial susceptibility,
    writing every statistic; an sbm simulate writing the agent matrices."""
    fit = {"data": decaying_series(tmp_path), "space": {"mu": [-50.0, 50.0, 2], "gamma": [0.0, 5.0, 2],
                                                         "p": [0.0, 0.4, 2]},
           "pinned": {"r": 0.2}, "surrogate": {"n": 30}, "replicates": 2, "restarts": 2, "anneal_iters": 8,
           "neighborhood_volume": 0.5}
    return [
        ("fit", {"seed": 3, "fit": dict(fit, mode="expected")}),
        ("fit", {"seed": 3, "fit": dict(fit, mode="stochastic")}),
        ("sweep", {"seed": 11, "graph": {"family": "watts-strogatz", "n": 40, "k": 4},
                   "population": {"positive_fraction": 0.5, "stubborn_fraction": 0.2, "susceptibility": 0.8},
                   "params": {"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1.0}, "horizon": 80,
                   "sweep": {"axes": [{"name": "gamma", "lo": 0.0, "hi": 1.0, "cells": 2}], "replicates": 2,
                             "statistics": ["D_max", "D_max_inf", "X_min_final", "X_max_final",
                                            "event_fraction_curve"]}}),
        ("simulate", {"seed": 5, "graph": {"family": "sbm", "n": 40},
                      "population": {"positive_fraction": 0.25, "stubborn_fraction": 0.3},
                      "params": {"lambda": 1.0, "gamma": 0.5, "mu": 0.0, "sigma": 1.0}, "horizon": 60,
                      "simulate": {"write_agents": True}}),
    ]


# sha256 of every file the runs of run_stubborn_commands write, taken while
# a stubborn agent was still pinned by a mask copied back every tick rather
# than by susceptibility 0; the fits' resolved configs name their input file
STUBBORN_FINGERPRINT = {
    "out0/anneal_trace.csv": "53f3b5d3117509d4a27e2cf90de5faaa42c77122f018fd64046137a22621a3f3",
    "out0/fit.csv": "b0ec86e4b8b93fbb9f965b35ea9f231b7cc0743878f36b0e116eb869d5b0fbb0",
    "out0/grid.csv": "cc6bdcf4cb40499cb5b7a35422518c0265b7337c83e8c30ad49309226b3cc9ca",
    "out0/resolved_config.yaml": "168c0059ef740aea38c4a7d0fd22552b2f17065d09e4d7602eaf6faeff62339a",
    "out0/seed.txt": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "out1/anneal_trace.csv": "65d6fde57d53bee931dc2c3811c65c4f9198d7641a38d682256163294c476a0d",
    "out1/fit.csv": "18c0f06ec3cecdedc9097f69b2f8789523965c6990c6f320d472255217e8684f",
    "out1/grid.csv": "a24c744bf61056dbb875505cfbef6191f7c491b7a2f59a8b9f54c138f7f88c89",
    "out1/resolved_config.yaml": "075ca132bdb8942f62dc2dcb4fdaca6e4fbc11e2e2ce28edaefd743ba15b1d42",
    "out1/seed.txt": "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "out2/curves.csv": "a448a8d2654827754bd631225a9884e788d5edd3c17dd2225e5ac6b873db053a",
    "out2/heatmap_D_max.csv": "8274a921fb8cc478904f10f8571a53881062a05e718138479a203d1277f7f320",
    "out2/heatmap_D_max_inf.csv": "12bf8810132e545023cd0d085bb2857ead8ac5d4530d61eb112f01fe66a5abc1",
    "out2/heatmap_X_max_final.csv": "5aa5d91b53098399cfb4600571607cc7dc21db9e8ebd021b5ec8c9fecfed3ee1",
    "out2/heatmap_X_min_final.csv": "be3f53c913f06e76f6a4405bca2eccacffe1be39c0d3670cca49c3857f4e0b31",
    "out2/resolved_config.yaml": "3c9cd28b19041fc4b5041317a5d1887db2a96ad472ec4b238cd9a857dae7899d",
    "out2/seed.txt": "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
    "out2/sweep_long.csv": "058066f65e15b2f7ab52e5d423fb3a760da0c3fbd2ce6e2cbf152575e3e3993c",
    "out3/opinions.csv": "bfd58f63867755c4edbf3f8bb26624ea81aceb3555471d1ca7fe21255128b7e2",
    "out3/resolved_config.yaml": "cb676071d6e44b692f4e1445ab55d5016c05dee448ffc3ab4b3abe21f6cd14bf",
    "out3/seed.txt": "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "out3/states.csv": "d295e9470a7903334cd160923566aa9c63bb0d5c5bc2551aed5d6e3d7a03256d",
    "out3/trajectory.csv": "77dbaf5f12bf3c019ac361f3358013e8eee115d4d5128746b14918f35539d677",
}


def test_stubborn_runs_keep_their_bytes(tmp_path, monkeypatch):
    mixed = []  # per batch: whether it ran pinned and unpinned members together
    run_members = dynamics._run_members

    def spied_run_members(members, *args, **kwargs):
        pinned = [bool(np.any(np.asarray(population.susceptibility) == 0.0)) for _, population, _, _ in members]
        mixed.append(any(pinned) and not all(pinned))
        return run_members(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", spied_run_members)
    digests = {}
    for k, (command, payload) in enumerate(run_stubborn_commands(tmp_path)):
        out = tmp_path / f"out{k}"
        assert main([command, "--config", write_config(tmp_path, payload), "--jobs", "1", "--out", str(out)]) == 0
        digests.update({f"{out.name}/{path.name}":
                        hashlib.sha256(read_bytes(path).replace(str(tmp_path).encode(), b"TMP")).hexdigest()
                        for path in sorted(out.iterdir())})
    assert digests == STUBBORN_FINGERPRINT
    # an anneal step clipped a chain to p = 0 while another chain sat at p > 0
    assert any(mixed)


def readme_block(language, after):
    """The first fenced block in README.md of language that follows the text after."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index(f"```{language}\n", text.index(after)) + len(language) + 4
    return text[start:text.index("```", start)]


def test_readme_python_run_matches_the_cli(tmp_path, monkeypatch):
    config = tmp_path / "run.yaml"
    config.write_text(readme_block("yaml", "with a minimal `run.yaml`"))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
    monkeypatch.chdir(tmp_path)
    exec(readme_block("python", "From Python the same run is"), {})
    assert read_bytes(tmp_path / "trajectory.csv") == read_bytes(tmp_path / "cli" / "trajectory.csv")
