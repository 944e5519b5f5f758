"""Command line front end.

main reads one YAML config (--config), resolves it against the package
defaults, and writes resolved_config.yaml plus seed.txt into the output
directory before it hands that directory to the subcommand, so a finished
directory, or one whose command failed, documents exactly how to reproduce
itself. The same config and seed give byte-equal outputs, whatever --jobs
is.

Exit codes: 0 success, 1 I/O failure, 2 bad config, malformed input data or
a run too large for memory, 3 numeric overflow during simulation, 4
optimization failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    SweepAxis,
    SweepSpec,
    polarization_indices,
    regime,
    run_sweep,
    write_sweep,
)
from .config import ConfigError, build, dump_config, load_config, param_space
from .dynamics import ModelParams, OpinionOverflowError, PopulationSpec, replicate
from .fitting import (
    FitConfig,
    FitError,
    fit,
    identifiability,
    read_grid_csv,
    write_anneal_trace_csv,
    write_chi_csv,
    write_fit_csv,
    write_grid_csv,
    write_grid_failures_csv,
)
from .graph import (
    GenerationError,
    GraphGenSpec,
    generate,
    save_edge_list,
    validate,
)
from .ingest import load_series, preprocess
from .seeds import derive_seed

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_OPTIMIZATION = 4

# the exit code of each error main reports, the first matching kind winning
_EXIT_CODES = {
    OpinionOverflowError: EXIT_NUMERIC,
    FitError: EXIT_OPTIMIZATION,
    GenerationError: EXIT_CONFIG,
    ValueError: EXIT_CONFIG,
    MemoryError: EXIT_CONFIG,
    OSError: EXIT_IO,
}


def cmd_gen_graph(args: argparse.Namespace, config: dict, out: Path) -> int:
    spec = build(GraphGenSpec, config, seed=derive_seed(config["seed"], "graph"))
    graph = generate(spec)
    save_edge_list(graph, out / "edges.csv")
    report = validate(graph)
    payload = {
        "n": graph.n,
        "edges": int(graph.matrix.nnz),
        "clusters": list(graph.clusters) if graph.clusters else None,
        "strongly_connected": report.strongly_connected,
        "aperiodic": report.aperiodic,
        "normalized": report.normalized,
    }
    (out / "validation.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'edges.csv'}: {graph.n} nodes, {payload['edges']} edges")
    if not (report.strongly_connected and report.normalized):
        print("graph failed validation; see validation.json", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace, config: dict, out: Path) -> int:
    population, trajectory = replicate(
        build(GraphGenSpec, config), build(PopulationSpec, config), build(ModelParams, config),
        config["horizon"], config["seed"], mode=config["simulate"]["mode"],
    )
    trajectory.write_summary_csv(out / "trajectory.csv")
    if config["simulate"]["write_agents"]:
        trajectory.write_agent_csv(out / "opinions.csv", which="opinions")
        trajectory.write_agent_csv(out / "states.csv", which="states")
    indices = polarization_indices(trajectory)
    print(f"regime: {regime(population)}")
    print(f"D_max={indices['D_max']:.6g} D_max_inf={indices['D_max_inf']:.6g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, config: dict, out: Path) -> int:
    section = config["sweep"]
    if not section["axes"]:
        raise ConfigError("sweep.axes is empty")
    spec = SweepSpec(
        graph=build(GraphGenSpec, config, seed=0),
        population=build(PopulationSpec, config),
        params=build(ModelParams, config),
        horizon=config["horizon"],
        axes=[SweepAxis(**axis) for axis in section["axes"]],
        replicates=section["replicates"],
        statistics=tuple(section["statistics"]),
        seed=config["seed"],
    )
    result = run_sweep(spec, jobs=args.jobs)
    write_sweep(result, out)
    failures = result.failures()
    if failures:
        print(f"{len(failures)} of {len(result.cells)} cells failed; see failures.csv", file=sys.stderr)
        if len(failures) == len(result.cells):
            return EXIT_OPTIMIZATION
    print(f"swept {len(result.cells)} cells x {spec.replicates} replicates")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace, config: dict, out: Path) -> int:
    section = config["fit"]
    if not section["data"]:
        raise ConfigError("fit.data is required")
    series = preprocess(load_series(section["data"]), **section["preprocess"])

    fit_config = build(FitConfig, config, seed=config["seed"])
    result = fit(series.values, param_space(config), fit_config, jobs=args.jobs)
    label = section["label"] or Path(section["data"]).stem
    write_fit_csv(result, out / "fit.csv", label)
    write_grid_csv(result.grid, out / "grid.csv")
    write_anneal_trace_csv(result, out / "anneal_trace.csv")
    failed = result.grid.errors
    if failed:
        write_grid_failures_csv(result.grid, out / "grid_failures.csv")
        print(f"{len(failed)} of {len(result.grid.scores)} grid cells failed; see grid_failures.csv", file=sys.stderr)
    best = result.full_best()
    print("best: " + " ".join(f"{name}={best[name]:.6g}" for name in sorted(best)))
    print(f"error={result.error:.6g} scale={result.scale:.6g}")
    return EXIT_OK


def cmd_identify(args: argparse.Namespace, config: dict, out: Path) -> int:
    section = config["identify"]
    if not section["grid"]:
        raise ConfigError("identify.grid is required")
    axes, points, scores = read_grid_csv(section["grid"])
    curve = identifiability(
        points,
        scores,
        q_range=(section["q_min"], section["q_max"]),
        n_q=section["points"],
        bootstrap=section["bootstrap"],
        seed=config["seed"],
    )
    write_chi_csv(curve, out / "chi.csv")
    print(f"chi over {len(axes)} axes: min={curve.chi.min():.6g} max={curve.chi.max():.6g}")
    return EXIT_OK


COMMANDS = {
    "gen-graph": cmd_gen_graph,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "identify": cmd_identify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsm-degroot",
        description="Simulation and calibration for coupled opinion and event dynamics on weighted digraphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML run configuration")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory, created if missing")
    common.add_argument("--jobs", type=int, default=None,
                        help="at most this many worker processes for sweep and fit (default: as the work pays for)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-graph", parents=[common], help="generate a graph and write its edge list")
    sub.add_parser("simulate", parents=[common], help="run one trajectory and write its summary")
    sub.add_parser("sweep", parents=[common], help="replicate simulations over a parameter grid")
    sub.add_parser("fit", parents=[common], help="calibrate parameters to an event time series")
    sub.add_parser("identify", parents=[common], help="landscape sharpness curve for a scored grid")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.jobs is not None and args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        config = load_config(args.config, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_config(config, out / "resolved_config.yaml")
        (out / "seed.txt").write_text(f"{config['seed']}\n")
        return COMMANDS[args.command](args, config, out)
    except tuple(_EXIT_CODES) as exc:
        # a MemoryError may carry no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
