#!/usr/bin/env python3
"""gsm-degroot benchmark: one workload per run, a closed loop of whole rounds.

    python3 perfbench/run.py --workload fit-mixing --seed 1 --seconds 20 --trace 0

One caller runs one round at a time (one fit, one sweep or one
trajectory, jobs=1) until the next round would end past --seconds; at
least one round always runs. Every round's outputs are checked. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones of a traced
run, which also writes its spans to perfbench/out/trace-<workload>-<seed>.json.

The package is imported from src/ of the checkout this file sits in; the
run fails when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fit-mixing", "sweep-regimes", "simulate-large")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_source() -> None:
    if not (SRC / "gsm_degroot" / "__init__.py").is_file():
        sys.exit(f"error: gsm_degroot source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(args) -> float:
    """Median over fresh processes of the time from spawn to inputs ready.

    Each probe starts the interpreter, imports the package and builds the
    workload's inputs, then prints one line; its exit is not timed.
    """
    times = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--probe-setup"]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {code}")
        times.append(ready - start)
    return statistics.median(times)


def layer_tracer():
    """A Tracer over every layer the per-layer metrics name."""
    from gsm_degroot import analysis, cli, config, dynamics, fitting, graph, ingest
    import gsm_degroot
    from tracer import Tracer

    tracer = Tracer([gsm_degroot, analysis, cli, config, dynamics, fitting, graph, ingest])

    def on_trajectory(t, result, args):
        t.counts["dynamics.simulate.ticks"] += result.horizon
        t.note_max("dynamics.trajectory_mb", (result.opinions.nbytes + result.states.nbytes) / 1e6)

    def on_chain(t, result, args):
        trace = result[2]
        t.counts["fitting.anneal.proposals"] += len(trace.points)
        t.counts["fitting.anneal.accepted"] += sum(trace.accepted)

    def on_sweep(t, result, args):
        t.counts["analysis.cells"] += len(result.cells)
        t.counts["analysis.cells_failed"] += len(result.failures())

    def on_write(t, result, args):
        t.counts["analysis.write.bytes"] += os.path.getsize(args[-1])

    tracer.wrap(cli.main, "cli.main")
    tracer.wrap(config.load_config, "config.load_config")
    tracer.wrap(ingest.load_series, "ingest")
    tracer.wrap(ingest.preprocess, "ingest")
    tracer.wrap(fitting.fit, "fitting.fit")
    tracer.wrap(fitting.grid_explore, "fitting.grid_explore")
    tracer.wrap(fitting.anneal, "fitting.anneal", on_result=on_chain)
    tracer.wrap(fitting.evaluate_point, "fitting.evaluate_point")
    tracer.wrap(fitting.write_fit_csv, "fitting.write")
    tracer.wrap(fitting.write_grid_csv, "fitting.write")
    tracer.wrap(analysis.run_sweep, "analysis.run_sweep", on_result=on_sweep)
    tracer.wrap(analysis.polarization_indices, "analysis.polarization_indices")
    for writer in (analysis.write_long_csv, analysis.write_heatmap_csv,
                   analysis.write_curves_csv, analysis.write_failures_csv):
        tracer.wrap(writer, "analysis.write", on_result=on_write)
    tracer.wrap(graph.generate, "graph.generate")
    tracer.wrap(graph._structure_edges, "graph.structure_edges")
    tracer.wrap(graph._reaches_all, "graph.reaches_all", leaf=True)
    tracer.wrap(graph.randomize_weights, "graph.randomize_weights")
    tracer.wrap(graph.validate, "graph.validate")
    tracer.wrap(dynamics.simulate, "dynamics.simulate", on_result=on_trajectory)
    tracer.wrap(dynamics.event_probability, "dynamics.event_probability", leaf=True)
    tracer.wrap(dynamics._advance, "dynamics.advance", leaf=True)
    tracer.wrap(dynamics.Trajectory.write_summary_csv, "dynamics.write_summary_csv",
                owners=[dynamics.Trajectory])
    return tracer


def layer_metrics(tracer, setup: dict, first_span: int, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics per traced round; ingest.s is the setup's own.

    setup is the tracer's snapshot after set-up; untraced rounds add
    nothing, so the rest is the traced rounds' own.
    """
    after = tracer.snapshot()

    def delta(table, name):
        return after[table].get(name, 0) - setup[table].get(name, 0)

    def per_round(table, name):
        return delta(table, name) / rounds

    point_ms = [d * 1e3 for d in tracer.durations("fitting.evaluate_point", since=first_span)]
    ticks = delta("counts", "dynamics.simulate.ticks")
    rows = [
        ("dynamics.simulate.calls", "count", per_round("calls", "dynamics.simulate")),
        ("dynamics.simulate.ticks", "count", ticks / rounds),
        ("dynamics.simulate.s", "s", per_round("total_s", "dynamics.simulate")),
        ("dynamics.simulate.self_s", "s", per_round("self_s", "dynamics.simulate")),
        ("dynamics.simulate.us_per_tick", "us",
         delta("total_s", "dynamics.simulate") / ticks * 1e6 if ticks else 0.0),
        ("dynamics.event_probability.s", "s", per_round("total_s", "dynamics.event_probability")),
        ("dynamics.advance.s", "s", per_round("total_s", "dynamics.advance")),
        ("dynamics.trajectory_mb", "MB", tracer.maxima.get("dynamics.trajectory_mb", 0.0)),
        ("dynamics.write_summary_csv.s", "s", per_round("total_s", "dynamics.write_summary_csv")),
        ("graph.validate.calls", "count", per_round("calls", "graph.validate")),
        ("graph.validate.s", "s", per_round("total_s", "graph.validate")),
        ("graph.generate.calls", "count", per_round("calls", "graph.generate")),
        ("graph.generate.attempts", "count", per_round("calls", "graph.structure_edges")),
        ("graph.generate.failed", "count", per_round("failed", "graph.generate")),
        ("graph.generate.s", "s", per_round("total_s", "graph.generate")),
        ("graph.generate.self_s", "s", per_round("self_s", "graph.generate")),
        ("graph.structure_edges.s", "s", per_round("total_s", "graph.structure_edges")),
        ("graph.reaches_all.s", "s", per_round("total_s", "graph.reaches_all")),
        ("graph.randomize_weights.s", "s", per_round("total_s", "graph.randomize_weights")),
        ("fitting.evaluate_point.calls", "count", per_round("calls", "fitting.evaluate_point")),
        ("fitting.evaluate_point.failed", "count", per_round("failed", "fitting.evaluate_point")),
        ("fitting.evaluate_point.ms", "ms", statistics.median(point_ms) if point_ms else 0.0),
        ("fitting.evaluate_point.self_s", "s", per_round("self_s", "fitting.evaluate_point")),
        ("fitting.grid_explore.s", "s", per_round("total_s", "fitting.grid_explore")),
        ("fitting.anneal.s", "s", per_round("total_s", "fitting.anneal")),
        ("fitting.anneal.proposals", "count", per_round("counts", "fitting.anneal.proposals")),
        ("fitting.anneal.accepted", "count", per_round("counts", "fitting.anneal.accepted")),
        ("fitting.write.s", "s", per_round("total_s", "fitting.write")),
        ("analysis.run_sweep.s", "s", per_round("total_s", "analysis.run_sweep")),
        ("analysis.run_sweep.self_s", "s", per_round("self_s", "analysis.run_sweep")),
        ("analysis.cells", "count", per_round("counts", "analysis.cells")),
        ("analysis.cells_failed", "count", per_round("counts", "analysis.cells_failed")),
        ("analysis.polarization_indices.s", "s", per_round("total_s", "analysis.polarization_indices")),
        ("analysis.write.s", "s", per_round("total_s", "analysis.write")),
        ("analysis.write.mb", "MB", per_round("counts", "analysis.write.bytes") / 1e6),
        ("config.load_config.s", "s", per_round("total_s", "config.load_config")),
        ("ingest.s", "s", setup["total_s"].get("ingest", 0.0)),
        ("trace.overhead_pct", "%", overhead_pct),
    ]
    return {name: {"value": float(value), "unit": unit} for name, unit, value in rows}


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }


def run_round(workload, inputs, workdir: Path, index: int):
    """One timed round, then its checks; returns (seconds, attempted, failed, problems)."""
    outdir = workdir / f"round-{index}"
    outdir.mkdir()
    start = time.perf_counter()
    outcome = workload.run(inputs, outdir)
    seconds = time.perf_counter() - start
    problems = [f"round {index}: {p}" for p in workload.check(outcome)]
    shutil.rmtree(outdir)
    return seconds, outcome.attempted, outcome.failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller on one core: multithreaded BLAS on a small shared machine
    # adds thread start-up and contention noise, not throughput
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.probe_setup:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_s = measure_setup(args)

        tracer = layer_tracer() if args.trace else None
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        if tracer is not None:
            tracer.install()
        with span("setup"):
            inputs = workload.setup(args.seed, workdir)

        # with tracing, rounds alternate untraced and traced, so that the
        # overhead compares rounds run under the same conditions
        done = []  # (seconds, attempted, failed, problems) of every round
        timed, untraced = [], []
        clock = time.perf_counter()
        if tracer is not None:
            setup = tracer.snapshot()
            first_span = len(tracer.spans)
        while True:
            if tracer is not None:
                tracer.uninstall()
                untraced.append(run_round(workload, inputs, workdir, len(done)))
                done.append(untraced[-1])
                tracer.install()
            with span("round"):
                timed.append(run_round(workload, inputs, workdir, len(done)))
            done.append(timed[-1])
            elapsed = time.perf_counter() - clock
            if elapsed + elapsed / len(timed) > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
        times = [r[0] for r in timed]
        attempted = sum(r[1] for r in done)
        failed = sum(r[2] for r in done)
        problems = [p for r in done for p in r[3]]

        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        if tracer is None:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "task_s": {"value": statistics.median(times), "unit": "s"},
                "peak_mem_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                                "unit": "MB"},
            }
        else:
            reference = [r[0] for r in untraced]
            overhead = (statistics.median(times) / statistics.median(reference) - 1.0) * 100.0
            metrics = layer_metrics(tracer, setup, first_span, len(times), overhead)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "environment": environment(),
                "setup_s": setup_s,
                "untraced_round_s": reference,
                "traced_round_s": times,
                "metrics": metrics,
                **tracer.to_json(),
            }) + "\n")
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
