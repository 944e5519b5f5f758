"""Config checking, default merging, and resolved-config round-trips."""

import inspect
import math
from dataclasses import fields

import pytest
import yaml

from gsm_degroot.analysis import SweepSpec
from gsm_degroot.config import (
    CONFIG_VERSION,
    DEFAULTS,
    ConfigError,
    dump_config,
    load_config,
    param_space,
    validate_config,
)
from gsm_degroot.dynamics import replicate, simulate
from gsm_degroot.fitting import ParamSpace, identifiability
from gsm_degroot.ingest import preprocess


def write_yaml(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload) if isinstance(payload, dict) else payload)
    return path


def test_empty_config_resolves_to_defaults(tmp_path):
    config = load_config(write_yaml(tmp_path, "{}\n"))
    assert config == DEFAULTS
    assert config is not DEFAULTS  # caller owns a private copy
    assert config["version"] == CONFIG_VERSION


def test_partial_override_keeps_sibling_defaults(tmp_path):
    config = load_config(write_yaml(tmp_path, {"graph": {"n": 30}, "seed": 9}))
    assert config["graph"]["n"] == 30
    assert config["graph"]["family"] == DEFAULTS["graph"]["family"]
    assert config["seed"] == 9
    assert config["params"] == DEFAULTS["params"]


def test_mutating_a_resolved_config_leaves_defaults_alone(tmp_path):
    config = load_config(write_yaml(tmp_path, {"graph": {"n": 30}}))
    config["graph"]["cluster_ratios"][0] = 0.0
    assert DEFAULTS["graph"]["cluster_ratios"] == [0.7, 0.3]


def test_schema_violation_names_the_field_path(tmp_path):
    with pytest.raises(ConfigError, match="config field params.lambda"):
        load_config(write_yaml(tmp_path, {"params": {"lambda": -1.0}}))


def test_nested_schema_violation_path(tmp_path):
    payload = {"fit": {"surrogate": {"n": 1}}}
    with pytest.raises(ConfigError, match="config field fit.surrogate.n"):
        load_config(write_yaml(tmp_path, payload))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write_yaml(tmp_path, {"bogus": 1}))


def test_unknown_surrogate_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="fit.mode"):
        load_config(write_yaml(tmp_path, {"fit": {"mode": "average"}}))


def test_invalid_yaml_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not valid yaml"):
        load_config(write_yaml(tmp_path, "graph: [unclosed\n"))


def test_non_mapping_root_rejected(tmp_path):
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(write_yaml(tmp_path, "- 1\n- 2\n"))


def _defaults_of(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items() if p.default is not p.empty}


def test_command_line_defaults_match_the_api_defaults():
    prep = _defaults_of(preprocess)
    assert DEFAULTS["fit"]["preprocess"] == {key: prep[key] for key in ("window", "smooth", "fill")}
    ident = _defaults_of(identifiability)
    section = DEFAULTS["identify"]
    assert (section["q_min"], section["q_max"]) == ident["q_range"]
    assert (section["points"], section["bootstrap"]) == (ident["n_q"], ident["bootstrap"])
    assert DEFAULTS["simulate"]["mode"] == _defaults_of(simulate)["mode"] == _defaults_of(replicate)["mode"]
    sweep = {f.name: f.default for f in fields(SweepSpec)}
    assert DEFAULTS["sweep"]["replicates"] == sweep["replicates"]
    assert DEFAULTS["sweep"]["statistics"] == list(sweep["statistics"])
    space = ParamSpace()
    assert DEFAULTS["fit"]["space"] == {axis: [*space.bounds[axis], space.resolution_of(axis)] for axis in space.axes}


def test_keys_without_a_default_stay_out_of_the_resolved_config():
    assert "p" not in DEFAULTS["fit"]["space"]
    assert DEFAULTS["fit"]["pinned"] == {}


def test_space_p_adds_a_searched_p_axis(tmp_path):
    config = load_config(write_yaml(tmp_path, {"fit": {"space": {"p": [0.0, 0.4, 4]}}}))
    space = param_space(config)
    assert space.axes == ["mu", "gamma", "r", "p"]
    assert space.bounds["p"] == (0.0, 0.4)
    assert [space.resolution_of(axis) for axis in space.axes] == [6, 6, 6, 4]


def test_validate_accepts_resolved_defaults():
    validate_config(DEFAULTS)


def test_a_horizon_at_the_cap_loads(tmp_path):
    assert load_config(write_yaml(tmp_path, {"horizon": 10**6}))["horizon"] == 10**6


def test_sweep_axis_shape_is_checked(tmp_path):
    payload = {"sweep": {"axes": [{"name": "gamma", "lo": 0.0, "hi": 1.0}]}}
    with pytest.raises(ConfigError, match="sweep.axes.0"):
        load_config(write_yaml(tmp_path, payload))


def test_resolved_config_roundtrips(tmp_path):
    config = load_config(write_yaml(tmp_path, {"graph": {"n": 30}, "horizon": 50}))
    out = tmp_path / "resolved.yaml"
    dump_config(config, out)
    assert load_config(out) == config


def test_dump_is_deterministic(tmp_path):
    config = load_config(write_yaml(tmp_path, {"seed": 3}))
    first = tmp_path / "a.yaml"
    second = tmp_path / "b.yaml"
    dump_config(config, first)
    dump_config(config, second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# rejection table: one violating config per rule, each naming its field path

_AXIS = {"name": "gamma", "lo": 0.0, "hi": 1.0, "cells": 3}


def _with(section, **values):
    """Nest values under a dotted section: _with("fit.surrogate", n=1)."""
    payload = dict(values)
    for key in reversed(section.split(".")) if section else ():
        payload = {key: payload}
    return payload


REJECTED = [
    # root
    ("", {"bogus": 1}),
    ("version", {"version": 2}),
    ("version", {"version": "1"}),
    ("seed", {"seed": -1}),
    ("seed", {"seed": 2**64}),
    ("seed", {"seed": 1.5}),
    ("seed", {"seed": "7"}),
    ("horizon", {"horizon": 0}),
    ("horizon", {"horizon": 2.5}),
    # graph
    ("graph", _with("graph", bogus=1)),
    ("graph.family", _with("graph", family="lattice")),
    ("graph.n", _with("graph", n=1)),
    ("graph.n", _with("graph", n=20.5)),
    ("graph.m", _with("graph", m=0)),
    ("graph.k", _with("graph", k=1)),
    ("graph.rewire_prob", _with("graph", rewire_prob=-0.1)),
    ("graph.rewire_prob", _with("graph", rewire_prob=1.1)),
    ("graph.edge_prob", _with("graph", edge_prob=1.5)),
    ("graph.cluster_ratios", _with("graph", cluster_ratios=[1.0])),
    ("graph.cluster_ratios", _with("graph", cluster_ratios=[0.5, 0.3, 0.2])),
    ("graph.cluster_ratios", _with("graph", cluster_ratios=[0.0, 1.0])),
    ("graph.cluster_ratios", _with("graph", cluster_ratios=0.7)),
    ("graph.intra_prob", _with("graph", intra_prob=2.0)),
    ("graph.inter_prob", _with("graph", inter_prob=-1.0)),
    ("graph.ensure_self_loops", _with("graph", ensure_self_loops=1)),
    ("graph.weight_rounds", _with("graph", weight_rounds=-1)),
    ("graph.weight_rounds", _with("graph", weight_rounds=41)),
    ("graph.weight_rounds", _with("graph", weight_rounds=1.5)),
    # population
    ("population", _with("population", bogus=1)),
    ("population.positive_fraction", _with("population", positive_fraction=-0.1)),
    ("population.positive_fraction", _with("population", positive_fraction=1.5)),
    ("population.positive_fraction", _with("population", positive_fraction="half")),
    ("population.cluster_positive_fractions", _with("population", cluster_positive_fractions=[0.5])),
    ("population.cluster_positive_fractions", _with("population", cluster_positive_fractions=[0.2, 0.3, 0.5])),
    ("population.cluster_positive_fractions", _with("population", cluster_positive_fractions=[0.5, 1.5])),
    ("population.cluster_positive_fractions", _with("population", cluster_positive_fractions="x")),
    ("population.stubborn_fraction", _with("population", stubborn_fraction=1.1)),
    ("population.susceptibility", _with("population", susceptibility=-0.5)),
    # params
    ("params", _with("params", bogus=1)),
    ("params.lambda", _with("params", **{"lambda": 0.0})),
    ("params.lambda", _with("params", **{"lambda": -1.0})),
    ("params.gamma", _with("params", gamma=-1.0)),
    ("params.mu", _with("params", mu="high")),
    ("params.sigma", _with("params", sigma=-1.0)),
    # simulate
    ("simulate", _with("simulate", bogus=1)),
    ("simulate.mode", _with("simulate", mode="average")),
    ("simulate.write_agents", _with("simulate", write_agents="no")),
    # sweep
    ("sweep", _with("sweep", bogus=1)),
    ("sweep.axes", _with("sweep", axes=[_AXIS, dict(_AXIS, name="mu"), dict(_AXIS, name="r", hi=0.5)])),
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, bogus=1)])),
    ("sweep.axes.0", _with("sweep", axes=[{"name": "gamma", "lo": 0.0, "hi": 1.0}])),
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, name="theta")])),
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, lo="low")])),
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, hi=None)])),
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, cells=0)])),
    ("sweep.axes.1", _with("sweep", axes=[_AXIS, dict(_AXIS, cells=2.5)])),
    ("sweep.replicates", _with("sweep", replicates=0)),
    ("sweep.statistics", _with("sweep", statistics=[])),
    ("sweep.statistics", _with("sweep", statistics=["D_max", "entropy"])),
    # fit
    ("fit", _with("fit", bogus=1)),
    ("fit.data", _with("fit", data=5)),
    ("fit.label", _with("fit", label=["a"])),
    ("fit.preprocess", _with("fit.preprocess", bogus=1)),
    ("fit.preprocess.window", _with("fit.preprocess", window=[0])),
    ("fit.preprocess.window", _with("fit.preprocess", window=[0, 1.5])),
    ("fit.preprocess.smooth", _with("fit.preprocess", smooth=0)),
    ("fit.preprocess.fill", _with("fit.preprocess", fill="mean")),
    ("fit.space", _with("fit.space", bogus=[0.0, 1.0, 3])),
    ("fit.space.mu", _with("fit.space", mu=[0.0, 1.0])),
    ("fit.space.mu", _with("fit.space", mu=[0.0, 1.0, 3, 4])),
    ("fit.space.mu", _with("fit.space", mu=[0.0, 1.0, 2.5])),
    ("fit.space.mu", _with("fit.space", mu=["lo", 1.0, 3])),
    ("fit.space", _with("fit.space", mu=[0.0, 1.0, 1])),
    ("fit.space", {"fit": {"space": {"gamma": [0.0, 5.0, 1]}, "pinned": {"gamma": 5.0}}}),
    ("fit.pinned", _with("fit.pinned", bogus=1.0)),
    ("fit.pinned.gamma", _with("fit.pinned", gamma="five")),
    ("fit.with_stubbornness", _with("fit", with_stubbornness=True)),  # removed key: search p with space.p
    ("fit.p_max", _with("fit", p_max=0.4)),
    ("fit.space", _with("fit.space", p=[0.0, 0.6, 4])),
    ("fit.surrogate", _with("fit.surrogate", bogus=1)),
    ("fit.surrogate.n", _with("fit.surrogate", n=1)),
    ("fit.surrogate.n", _with("fit.surrogate", n=50.5)),
    ("fit.surrogate.cluster_ratios", _with("fit.surrogate", cluster_ratios=[1.0])),
    ("fit.surrogate.cluster_ratios", _with("fit.surrogate", cluster_ratios=[-0.3, 1.3])),
    ("fit.surrogate.cluster_positive_fractions", _with("fit.surrogate", cluster_positive_fractions=None)),
    ("fit.surrogate.cluster_positive_fractions", _with("fit.surrogate", cluster_positive_fractions=[0.3, 0.7, 0.5])),
    ("fit.surrogate.cluster_positive_fractions", _with("fit.surrogate", cluster_positive_fractions=[0.3, 1.7])),
    ("fit.surrogate.intra_prob", _with("fit.surrogate", intra_prob=1.5)),
    ("fit.surrogate.lambda", _with("fit.surrogate", **{"lambda": 0.0})),
    ("fit.surrogate.sigma", _with("fit.surrogate", sigma=-0.1)),
    ("fit.replicates", _with("fit", replicates=0)),
    ("fit.mode", _with("fit", mode="average")),
    ("fit.noise_weight", _with("fit", noise_weight=-1.0)),
    ("fit.restarts", _with("fit", restarts=0)),
    ("fit.anneal_iters", _with("fit", anneal_iters=-1)),
    ("fit.anneal_iters", _with("fit", anneal_iters=10.5)),
    ("fit.initial_temp", _with("fit", initial_temp=0.0)),
    ("fit.cooling", _with("fit", cooling=0.0)),
    ("fit.cooling", _with("fit", cooling=1.0)),
    ("fit.neighborhood_volume", _with("fit", neighborhood_volume=0.0)),
    ("fit.neighborhood_volume", _with("fit", neighborhood_volume=1.0)),
    # identify
    ("identify", _with("identify", bogus=1)),
    ("identify.grid", _with("identify", grid=3)),
    ("identify.q_min", _with("identify", q_min=0.0)),
    ("identify.q_max", _with("identify", q_max=-0.01)),
    ("identify.points", _with("identify", points=0)),
    ("identify.bootstrap", _with("identify", bootstrap=0)),
    # rules of preprocess and identifiability, checked at load
    ("fit.preprocess.smooth", _with("fit.preprocess", smooth=2)),
    ("identify.q_max", _with("identify", q_min=0.5, q_max=0.1)),
    # non-finite values, which pass every range
    ("params.lambda", _with("params", **{"lambda": math.inf})),
    ("params.mu", _with("params", mu=math.nan)),
    # axes whose cells coincide
    ("sweep.axes.0", _with("sweep", axes=[dict(_AXIS, lo=0.5, hi=0.5, cells=3)])),
    ("sweep.axes.1", _with("sweep", axes=[_AXIS, {"name": "mu", "lo": 1.0, "hi": 1.0 + 2**-52, "cells": 3}])),
    # a horizon past the cap shared with graph.n
    ("horizon", {"horizon": 10**6 + 1}),
]


@pytest.mark.parametrize("path, payload", REJECTED, ids=[
    f"{path or 'root'}-{i}" for i, (path, _) in enumerate(REJECTED)
])
def test_each_rule_rejects_with_its_field_path(tmp_path, path, payload):
    with pytest.raises(ConfigError) as caught:
        load_config(write_yaml(tmp_path, payload))
    message = str(caught.value)
    assert f"config field {path}" in message
    if "bogus" in str(payload):
        assert "bogus" in message


@pytest.mark.parametrize("command, payload, flags", [
    ("gen-graph", _with("graph", k=1), []),
    ("simulate", {"bogus": 1}, []),
    ("sweep", _with("sweep", axes=[dict(_AXIS, cells=0)]), []),
    ("fit", _with("fit.surrogate", n=1), []),
    ("identify", _with("identify", points=0), []),
    ("gen-graph", {}, ["--seed", str(2**64)]),
    ("simulate", {"horizon": 10**6 + 1}, []),
    ("sweep", {"horizon": 10**6 + 1, "sweep": {"axes": [_AXIS]}}, []),
])
def test_rejected_config_exits_2(tmp_path, capsys, command, payload, flags):
    from gsm_degroot.cli import main

    config = write_yaml(tmp_path, payload)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out"), *flags]) == 2
    assert "error" in capsys.readouterr().err

