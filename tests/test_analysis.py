"""Polarization indices, regime labels, and the sweep harness."""

import csv
from itertools import product

import numpy as np
import pytest

from gsm_degroot import dynamics
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
    write_sweep,
)
from gsm_degroot.dynamics import ModelParams, Population, PopulationSpec, Trajectory, replicate, simulate
from gsm_degroot.graph import GraphError, GraphGenSpec, generate
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


@pytest.mark.parametrize("axis, distinct", [(("gamma", 0.5, 0.5, 3), 1), (("mu", 1.0, 1.0 + 2**-52, 3), 2)])
def test_axis_rejects_cells_that_share_a_coordinate(axis, distinct):
    # the heatmap and SweepResult.cell key a cell by its coordinate, so two
    # cells at one coordinate would hide each other
    assert np.unique(np.linspace(*axis[1:])).size == distinct
    with pytest.raises(ValueError, match=f"axis '{axis[0]}' needs 3 distinct values"):
        SweepAxis(*axis)


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


def test_sweep_jobs_do_not_change_results(tmp_path):
    specs = {
        "equal": sweep_spec(axes=[SweepAxis("mu", -1.0, 1.0, 2), SweepAxis("gamma", 0.0, 0.4, 2)], horizon=50),
        # cells of unequal work: the part cut by work holds one cell of 600
        # nodes against three of 50 to 417
        "network-size": sweep_spec(graph=GraphGenSpec(family="watts-strogatz", n=60, k=6),
                                   params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                                   axes=[SweepAxis("network-size", 50, 600, 4)], horizon=30, statistics=STATISTICS),
    }
    for name, spec in specs.items():
        want = sweep_files(run_sweep(spec, jobs=1), tmp_path / f"{name}-1")
        for jobs in (None, 2):
            assert sweep_files(run_sweep(spec, jobs=jobs), tmp_path / f"{name}-{jobs}") == want, f"{name} jobs {jobs}"


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


@pytest.mark.parametrize("family, axis, value, message", [
    ("sbm", "network-size", 1e300, "n must be <= 1000000"),
    ("barabasi-albert", "family-param", 1e300, "m must be < 1000000"),
    ("watts-strogatz", "family-param", 1e300, "k must be < 1000000"),
    ("barabasi-albert", "network-size", 1.6, "n must be >= 2"),
])
def test_an_integer_axis_value_is_checked_as_the_axis_gave_it(family, axis, value, message):
    spec = sweep_spec(graph=GraphGenSpec(family=family), axes=[SweepAxis(axis, value, value, 1)])
    with pytest.raises(GraphError) as err:
        _apply_axes(spec, {axis: value})
    assert str(err.value) == f"{message}, got {value!r}"


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
    write_sweep(result, out)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


FAILING_SWEEPS = {
    # the second of three replicates overflows at alpha = 1.115
    "overflow": dict(graph=GraphGenSpec(family="watts-strogatz", n=60, k=4),
                     params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                     axes=[SweepAxis("alpha", 1.100, 1.115, 2)], horizon=260, seed=8),
    # at r = 0 no sbm is strongly connected, so the first replicate fails in generate
    "generate": dict(axes=[SweepAxis("r", 0.0, 0.1, 2)], horizon=60),
    # n = 6 leaves no room for k = 6 neighbours, so that cell fails in _apply_axes;
    # Watts-Strogatz k = 6 mixes densely up to n = 56, so the cells' batches
    # change size and operator
    "network-size": dict(graph=GraphGenSpec(family="watts-strogatz", n=60, k=6),
                         params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                         axes=[SweepAxis("network-size", 6, 86, 5), SweepAxis("gamma", 0.2, 0.4, 2)], horizon=80),
    # the nine runs at alpha = 1.115 share a batch; the first run of its second
    # cell overflows, and the runs after it go on
    "alpha": dict(graph=GraphGenSpec(family="watts-strogatz", n=60, k=4),
                  params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                  axes=[SweepAxis("alpha", 1.100, 1.115, 2), SweepAxis("gamma", 0.45, 0.55, 3)], horizon=260,
                  seed=13),
    # the same axes the other way round: its eighteen runs, of both weight
    # scales, still share one batch; two cells at alpha = 1.115 overflow, at
    # their first and second run, between cells at alpha = 1.1 that finish
    "gamma-alpha": dict(graph=GraphGenSpec(family="watts-strogatz", n=60, k=4),
                        params=ModelParams(lam=1.0, gamma=0.5, mu=0.0, sigma=1.0),
                        axes=[SweepAxis("gamma", 0.45, 0.55, 3), SweepAxis("alpha", 1.100, 1.115, 2)], horizon=260,
                        seed=6),
    # axis r needs an sbm graph, so every cell fails in _apply_axes
    "axes": dict(graph=GraphGenSpec(family="watts-strogatz", n=40, k=4),
                 axes=[SweepAxis("r", 0.0, 0.1, 2), SweepAxis("beta", 0.2, 0.8, 2)], horizon=60),
}

# the seeds each failed cell keeps, in cell order
FAILED_SEEDS = {"overflow": [2], "generate": [1], "network-size": [0, 0], "alpha": [1], "gamma-alpha": [1, 2],
                "axes": [0, 0, 0, 0]}


@pytest.mark.parametrize("case", sorted(FAILING_SWEEPS))
def test_failed_cells_keep_the_outputs_of_one_replicate_at_a_time(tmp_path, case):
    spec = sweep_spec(statistics=STATISTICS, **FAILING_SWEEPS[case])
    reference = one_replicate_at_a_time(spec)
    failed = reference.failures()
    assert [len(cell.seeds) for cell in failed] == FAILED_SEEDS[case]
    for cell in failed:
        assert all(len(values) == max(0, len(cell.seeds) - 1) for values in cell.values.values())
    want = sweep_files(reference, tmp_path / "want")
    for jobs in (1, 2):
        got = run_sweep(spec, jobs=jobs)
        assert [cell.seeds for cell in got.cells] == [cell.seeds for cell in reference.cells]
        assert sweep_files(got, tmp_path / f"jobs-{jobs}") == want, f"jobs {jobs}"


def curves_by_csv_writer(result, path):
    """write_curves_csv's rows, written through csv.writer one at a time."""
    names = result.axis_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis1", "axis2", "replicate", "t", "value"])
        for cell in result.cells:
            first = repr(cell.coords[names[0]])
            second = repr(cell.coords[names[1]]) if len(names) > 1 else ""
            for rep, curve in enumerate(cell.values.get("event_fraction_curve", [])):
                for t, value in enumerate(curve):
                    writer.writerow([first, second, rep, t, repr(float(value))])


@pytest.mark.parametrize("case", ["overflow", "network-size"])
def test_curves_csv_equals_the_rows_of_csv_writer(tmp_path, case):
    # "overflow" has one axis, so a blank axis2, and a failed cell that keeps
    # the curve of its first replicate; "network-size" has two axes
    result = run_sweep(sweep_spec(statistics=STATISTICS, **FAILING_SWEEPS[case]))
    assert result.failures()
    write_curves_csv(result, tmp_path / "got.csv")
    curves_by_csv_writer(result, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_a_sweep_batches_its_replicates_across_cells(monkeypatch):
    # 108 Watts-Strogatz runs at n = 300 (31 kB of CSR each, so 33 to a
    # batch) take 4 calls of the tick loop, not one per cell
    sizes = []
    run_members = dynamics._run_members

    def counted(members, *args, **kwargs):
        sizes.append(len(members))
        return run_members(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", counted)
    spec = sweep_spec(graph=GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.1), horizon=5,
                      axes=[SweepAxis("gamma", 0.0, 2.0, 6), SweepAxis("beta", 0.1, 0.9, 6)])
    assert not run_sweep(spec).failures()
    assert sum(sizes) == 108
    assert len(sizes) <= 4


def test_a_sweep_makes_as_many_tick_loop_calls_in_either_axis_order(monkeypatch):
    # each member carries its own weight scale, so the alpha axis closes no
    # batch: 108 Watts-Strogatz runs at n = 300 take 4 calls either way
    sizes = []
    run_members = dynamics._run_members

    def counted(members, *args, **kwargs):
        sizes[-1].append(len(members))
        return run_members(members, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_run_members", counted)
    gamma, alpha = SweepAxis("gamma", 0.0, 2.0, 6), SweepAxis("alpha", 0.9, 1.0, 6)
    for axes in ([gamma, alpha], [alpha, gamma]):
        sizes.append([])
        spec = sweep_spec(graph=GraphGenSpec(family="watts-strogatz", n=300, k=6, rewire_prob=0.1), horizon=5,
                          axes=axes)
        assert not run_sweep(spec, jobs=1).failures()
    assert sizes == [[33, 33, 33, 9]] * 2
