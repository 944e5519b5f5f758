"""End-to-end subcommand runs in temporary directories."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import yaml

from gsm_degroot import dynamics
from gsm_degroot.analysis import regime
from gsm_degroot.cli import main
from gsm_degroot.dynamics import event_fractions
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


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["gen-graph", "--config", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


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
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", config, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", config, "--jobs", "2", "--out", str(parallel)]) == 0
    assert read_bytes(serial / "heatmap_D_max.csv") == read_bytes(parallel / "heatmap_D_max.csv")
    assert read_bytes(serial / "sweep_long.csv") == read_bytes(parallel / "sweep_long.csv")


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


def test_fit_rejects_an_all_zero_series_before_simulating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "zeros.csv"
    path.write_text("timestamp,value\n" + "".join(f"{t},0\n" for t in range(40)))
    sims = 0

    def counted_event_fractions(members, *args, **kwargs):
        nonlocal sims
        sims += len(members)
        return event_fractions(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "event_fractions", counted_event_fractions)
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
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}"
        assert main(["fit", "--config", config, "--jobs", jobs, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256(read_bytes(out / name)).hexdigest() for name in FIT_FINGERPRINT}
        assert digests == FIT_FINGERPRINT, f"--jobs {jobs}"


def planted_grid_csv(tmp_path):
    axis = np.linspace(0.0, 1.0, 20)
    mesh_mu, mesh_gamma = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([mesh_mu.ravel(), mesh_gamma.ravel()])
    scores = np.linalg.norm(points - np.array([0.4, 0.6]), axis=1)
    grid = GridResult(
        axes=["mu", "gamma"], points=points, scores=scores,
        mean_errors=scores, error_stds=np.zeros(scores.size),
        mean_scales=np.ones(scores.size), errors=[],
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
# README quick start


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
