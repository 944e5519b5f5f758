"""Simulation and calibration toolkit for coupled opinion and event dynamics.

Agents hold continuous opinions on a weighted digraph with incoming weights
normalized to 1. Each tick every agent acts with a probability that rises
with its opinion, and the population-wide action fraction feeds back into
the next round of opinion averaging, scaled by each agent's reaction sign.
The package simulates these dynamics, sweeps them over parameter grids, and
calibrates the feedback parameters against observed event counts.
"""

from .analysis import (
    SweepAxis,
    SweepSpec,
    SweepResult,
    polarization_indices,
    regime,
    run_sweep,
)
from .dynamics import (
    ModelParams,
    OpinionOverflowError,
    Population,
    PopulationSpec,
    Trajectory,
    event_probability,
    replicate,
    simulate,
)
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    ParamSpace,
    anneal,
    evaluate_point,
    fit,
    grid_explore,
    identifiability,
    scale_invariant_distance,
)
from .graph import (
    GenerationError,
    GraphError,
    GraphGenSpec,
    WeightedDigraph,
    from_dense,
    from_edges,
    generate,
    identity_graph,
    load_edge_list,
    randomize_weights,
    save_edge_list,
    stationary_distribution,
    validate,
)
from .ingest import SeriesError, TimeSeries, load_series, preprocess
from .seeds import derive_seed, rng_from

__version__ = "0.1.0"

__all__ = [
    "FitConfig",
    "FitError",
    "FitResult",
    "GenerationError",
    "GraphError",
    "GraphGenSpec",
    "ModelParams",
    "OpinionOverflowError",
    "ParamSpace",
    "Population",
    "PopulationSpec",
    "SeriesError",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "TimeSeries",
    "Trajectory",
    "WeightedDigraph",
    "anneal",
    "derive_seed",
    "evaluate_point",
    "event_probability",
    "fit",
    "from_dense",
    "from_edges",
    "generate",
    "grid_explore",
    "identifiability",
    "identity_graph",
    "load_edge_list",
    "load_series",
    "polarization_indices",
    "preprocess",
    "randomize_weights",
    "regime",
    "replicate",
    "rng_from",
    "run_sweep",
    "save_edge_list",
    "scale_invariant_distance",
    "simulate",
    "stationary_distribution",
    "validate",
]
