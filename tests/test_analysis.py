"""Polarization indices, regime labels, and the sweep harness."""

import csv
from itertools import product

import numpy as np
import pytest

from gsm_degroot.analysis import (
    STATISTICS,
    CellResult,
    SweepAxis,
    SweepResult,
    SweepSpec,
    _apply_axes,
    polarization_indices,
    regime,
    run_sweep,
    write_curves_csv,
    write_failures_csv,
    write_heatmap_csv,
    write_long_csv,
)
from gsm_degroot.dynamics import ModelParams, Population, PopulationSpec, Trajectory, replicate, simulate
from gsm_degroot.graph import GraphGenSpec, generate
from gsm_degroot.seeds import derive_seed, rng_from


def trajectory_from_opinions(opinions):
    opinions = np.asarray(opinions, dtype=np.float64)
    states = np.zeros_like(opinions, dtype=np.int8)
    return Trajectory(
        opinions=opinions,
        states=states,
        event_fraction=states.sum(axis=1) / opinions.shape[1],
        mean_opinion=opinions.mean(axis=1),
        max_diversity=opinions.max(axis=1) - opinions.min(axis=1),
        seed=0,
    )


def sweep_spec(**overrides):
    base = dict(
        graph=GraphGenSpec(family="sbm", n=25, seed=1),
        population=PopulationSpec(positive_fraction=0.5),
        params=ModelParams(lam=1.0, gamma=0.0, mu=0.0, sigma=1.0),
        horizon=120,
        axes=[SweepAxis("gamma", 0.0, 0.0, 1)],
        replicates=3,
        statistics=("D_max", "D_max_inf"),
        seed=7,
    )
    base.update(overrides)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# polarization indices


def test_constant_opinions_have_zero_spread():
    indices = polarization_indices(trajectory_from_opinions(np.ones((30, 4))))
    assert indices == {"D_max": 0.0, "D_max_inf": 0.0}


def test_peak_spread_is_the_series_maximum():
    opinions = np.zeros((3, 2))
    opinions[:, 1] = [1.0, 3.0, 2.0]  # spread series 1, 3, 2
    assert polarization_indices(trajectory_from_opinions(opinions))["D_max"] == 3.0


def test_consensus_run_spread_peaks_at_start_and_dies_out():
    graph = generate(GraphGenSpec(family="sbm", n=30, seed=4, ensure_self_loops=True))
    pop = PopulationSpec().build(30, rng_from(4, "pop"), mu=0.0, sigma=1.0)
    traj = simulate(graph, pop, ModelParams(gamma=0.0), horizon=1500, seed=0)
    indices = polarization_indices(traj)
    assert indices["D_max_inf"] < 1e-6
    assert indices["D_max"] == traj.max_diversity[0]


# ---------------------------------------------------------------------------
# regime


def test_regime_labels():
    def pop(fraction, n=20):
        reactions = np.full(n, -1.0)
        reactions[: int(fraction * n)] = 1.0
        return Population(reactions=reactions, initial_opinions=np.zeros(n))

    assert regime(pop(0.05)) == "self-cooling"
    assert regime(pop(0.95)) == "self-exciting"
    assert regime(pop(0.5, n=2)) == "critical"


def test_regime_rejects_fractional_reactions():
    bad = Population(reactions=np.array([0.5, -1.0]), initial_opinions=np.zeros(2))
    with pytest.raises(ValueError, match="regime"):
        regime(bad)


# ---------------------------------------------------------------------------
# sweep spec validation


def test_axis_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepAxis("theta", 0.0, 1.0, 3)


def test_axis_rejects_empty_range():
    with pytest.raises(ValueError, match="at least one cell"):
        SweepAxis("gamma", 0.0, 1.0, 0)


def test_single_cell_axis_is_a_point():
    np.testing.assert_array_equal(SweepAxis("gamma", 0.0, 0.0, 1).values(), [0.0])
    with pytest.raises(ValueError, match="lo == hi"):
        SweepAxis("gamma", 0.0, 1.0, 1)


def test_spec_rejects_three_axes():
    axes = [SweepAxis("mu", 0, 1, 2), SweepAxis("gamma", 0, 1, 2), SweepAxis("r", 0, 0.5, 2)]
    with pytest.raises(ValueError, match="1 or 2 axes"):
        sweep_spec(axes=axes)


def test_spec_rejects_unknown_statistic():
    with pytest.raises(ValueError, match="statistics must be one of .*; got 'entropy'"):
        sweep_spec(statistics=("D_max", "entropy"))


def test_spec_rejects_zero_replicates():
    with pytest.raises(ValueError, match="replicates must be >= 1, got 0"):
        sweep_spec(replicates=0)


def test_spec_rejects_an_empty_statistics_list():
    with pytest.raises(ValueError, match="at least one statistic"):
        sweep_spec(statistics=())


# ---------------------------------------------------------------------------
# run_sweep


def test_zero_steering_sweep_reaches_consensus_everywhere():
    result = run_sweep(sweep_spec(horizon=1500))
    assert len(result.cells) == 1
    for value in result.cells[0].values["D_max_inf"]:
        assert value < 1e-6


def test_sweep_is_deterministic():
    spec = sweep_spec(axes=[SweepAxis("gamma", 0.0, 0.5, 3)], horizon=60)
    a, b = run_sweep(spec), run_sweep(spec)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.coords == cb.coords
        assert ca.values == cb.values
        assert ca.seeds == cb.seeds


def test_sweep_jobs_do_not_change_results():
    spec = sweep_spec(axes=[SweepAxis("mu", -1.0, 1.0, 2), SweepAxis("gamma", 0.0, 0.4, 2)],
                      horizon=50)
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    for ca, cb in zip(serial.cells, parallel.cells):
        assert ca.coords == cb.coords
        assert ca.values == cb.values


def test_sweep_cells_keep_their_seeds():
    # taken from the code before sweeps ran through dynamics.replicate: a
    # changed seed label or derivation changes these digits
    spec = sweep_spec(axes=[SweepAxis("gamma", 0.0, 0.5, 2)], horizon=40, replicates=2,
                      statistics=("D_max", "X_min_final"), seed=3)
    cell = run_sweep(spec).cell(0.5)
    assert cell.seeds == [18072681202594094623, 13998627772876606951]
    assert {stat: [repr(v) for v in values] for stat, values in cell.values.items()} == {
        "D_max": ["3.221829829720088", "4.423676687689287"],
        "X_min_final": ["-0.35416400574920126", "-0.26960781787959087"],
    }


def test_replicate_seeds_are_distinct():
    result = run_sweep(sweep_spec(axes=[SweepAxis("gamma", 0.0, 1.0, 4)], horizon=30))
    all_seeds = [s for cell in result.cells for s in cell.seeds]
    assert len(all_seeds) == len(set(all_seeds)) == 12


def test_failed_cell_is_recorded_not_raised():
    # alpha > 1 inflates opinions geometrically past the overflow guard
    spec = sweep_spec(
        axes=[SweepAxis("alpha", 1.0, 1.9, 2)],
        params=ModelParams(lam=1.0, gamma=0.0, mu=1e9, sigma=1.0),
        horizon=400,
    )
    result = run_sweep(spec)
    good, bad = result.cells
    assert good.error is None
    assert "OpinionOverflowError" in bad.error
    assert result.failures() == [bad]
    assert bad.values["D_max"] == []


def test_beta_axis_reaches_population():
    spec = sweep_spec(axes=[SweepAxis("beta", 0.0, 1.0, 2)],
                      params=ModelParams(lam=1.0, gamma=0.2), horizon=40)
    result = run_sweep(spec)
    assert result.cells[0].error is None
    assert result.cells[1].error is None


def test_r_axis_requires_sbm():
    spec = sweep_spec(
        graph=GraphGenSpec(family="erdos-renyi", n=20, edge_prob=0.3, seed=1),
        axes=[SweepAxis("r", 0.1, 0.4, 2)],
        horizon=30,
    )
    result = run_sweep(spec)
    assert all("sbm" in cell.error for cell in result.cells)


def test_cell_lookup():
    result = run_sweep(sweep_spec(axes=[SweepAxis("gamma", 0.0, 1.0, 3)], horizon=30))
    assert result.cell(0.5).coords == {"gamma": 0.5}
    with pytest.raises(KeyError):
        result.cell(0.7)


# ---------------------------------------------------------------------------
# exports


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_long_csv_shape(tmp_path):
    result = run_sweep(sweep_spec(axes=[SweepAxis("gamma", 0.0, 1.0, 2)], horizon=30))
    path = tmp_path / "long.csv"
    write_long_csv(result, path)
    rows = read_rows(path)
    assert rows[0] == ["axis1", "axis2", "replicate", "statistic", "value"]
    assert len(rows) == 1 + 2 * 3 * 2  # cells x replicates x statistics


def test_heatmap_csv_holds_cell_means(tmp_path):
    spec = sweep_spec(axes=[SweepAxis("mu", -1.0, 1.0, 2), SweepAxis("gamma", 0.0, 0.4, 2)],
                      horizon=40)
    result = run_sweep(spec)
    path = tmp_path / "heatmap.csv"
    write_heatmap_csv(result, "D_max", path)
    rows = read_rows(path)
    assert len(rows) == 3  # header + two mu rows
    got = float(rows[1][1])
    assert got == result.cell(-1.0, 0.0).mean("D_max")


def test_heatmap_refuses_curves(tmp_path):
    result = run_sweep(sweep_spec(horizon=30, statistics=("event_fraction_curve",)))
    with pytest.raises(ValueError, match="curve"):
        write_heatmap_csv(result, "event_fraction_curve", tmp_path / "x.csv")


def test_curves_csv_runs_full_horizon(tmp_path):
    result = run_sweep(sweep_spec(horizon=25, replicates=2,
                                  statistics=("event_fraction_curve",)))
    path = tmp_path / "curves.csv"
    write_curves_csv(result, path)
    rows = read_rows(path)
    assert len(rows) == 1 + 2 * 25


def test_failures_csv_lists_only_failures(tmp_path):
    spec = sweep_spec(
        axes=[SweepAxis("alpha", 1.0, 1.9, 2)],
        params=ModelParams(lam=1.0, gamma=0.0, mu=1e9, sigma=1.0),
        horizon=400,
    )
    result = run_sweep(spec)
    path = tmp_path / "failures.csv"
    write_failures_csv(result, path)
    rows = read_rows(path)
    assert len(rows) == 2
    assert "OpinionOverflowError" in rows[1][2]


# ---------------------------------------------------------------------------
# failed cells against one replicate at a time


def one_replicate_at_a_time(spec):
    """run_sweep with every replicate run alone through replicate, in order,
    until the first that fails."""
    cells = []
    for cell_index, combo in enumerate(product(*[axis.values() for axis in spec.axes])):
        coords = {axis.name: float(v) for axis, v in zip(spec.axes, combo)}
        values = {stat: [] for stat in spec.statistics}
        seeds = []
        error = None
        try:
            graph_spec, pop_spec, params, alpha = _apply_axes(spec, coords)
            for rep in range(spec.replicates):
                seeds.append(derive_seed(spec.seed, "cell", cell_index, rep))
                _, trajectory = replicate(graph_spec, pop_spec, params, spec.horizon, seeds[-1], weight_scale=alpha)
                measured = {
                    **polarization_indices(trajectory),
                    "X_min_final": float(trajectory.opinions[-1].min()),
                    "X_max_final": float(trajectory.opinions[-1].max()),
                    "event_fraction_curve": trajectory.event_fraction.copy(),
                }
                for stat in spec.statistics:
                    values[stat].append(measured[stat])
        except Exception as exc:  # noqa: BLE001 - as run_sweep records it
            error = f"{type(exc).__name__}: {exc}"
        cells.append(CellResult(coords=coords, values=values, seeds=seeds, error=error))
    return SweepResult(spec=spec, cells=cells)


def sweep_files(result, out):
    """Every file the sweep command writes for result, by name."""
    out.mkdir()
    write_long_csv(result, out / "sweep_long.csv")
    for stat in result.spec.statistics:
        if stat != "event_fraction_curve":
            write_heatmap_csv(result, stat, out / f"heatmap_{stat}.csv")
    write_curves_csv(result, out / "curves.csv")
    write_failures_csv(result, out / "failures.csv")
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


FAILING_SWEEPS = {
    # the second of three replicates overflows at alpha = 1.115
    "overflow": dict(graph=GraphGenSpec(family="watts-strogatz", n=60, k=4),
                     params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                     axes=[SweepAxis("alpha", 1.100, 1.115, 2)], horizon=260, seed=8),
    # at r = 0 no sbm is strongly connected, so the first replicate fails in generate
    "generate": dict(axes=[SweepAxis("r", 0.0, 0.1, 2)], horizon=60),
}


@pytest.mark.parametrize("case", sorted(FAILING_SWEEPS))
def test_failed_cells_keep_the_outputs_of_one_replicate_at_a_time(tmp_path, case):
    spec = sweep_spec(statistics=STATISTICS, **FAILING_SWEEPS[case])
    reference = one_replicate_at_a_time(spec)
    failed = reference.failures()
    assert len(failed) == 1
    kept = {"overflow": 1, "generate": 0}[case]
    assert len(failed[0].seeds) == kept + 1
    assert all(len(values) == kept for values in failed[0].values.values())
    want = sweep_files(reference, tmp_path / "want")
    for jobs in (1, 2):
        got = run_sweep(spec, jobs=jobs)
        assert [cell.seeds for cell in got.cells] == [cell.seeds for cell in reference.cells]
        assert sweep_files(got, tmp_path / f"jobs-{jobs}") == want, f"jobs {jobs}"

