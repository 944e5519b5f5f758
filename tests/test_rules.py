"""Defaults and rules declared on the dataclass fields a run config feeds."""

import math

import pytest
import yaml

from gsm_degroot.config import DEFAULTS, ConfigError, build, load_config
from gsm_degroot.dynamics import ModelParams
from gsm_degroot.fitting import FitConfig
from gsm_degroot.graph import GraphGenSpec
from gsm_degroot.rules import Rule


def write_yaml(tmp_path, payload):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(payload))
    return path


def test_defaults_are_the_dataclass_field_defaults():
    graph = GraphGenSpec()
    assert DEFAULTS["graph"] == {
        "family": graph.family, "n": graph.n, "m": graph.m, "k": graph.k,
        "rewire_prob": graph.rewire_prob, "edge_prob": graph.edge_prob,
        "cluster_ratios": list(graph.cluster_ratios), "intra_prob": graph.intra_prob,
        "inter_prob": graph.inter_prob, "ensure_self_loops": graph.ensure_self_loops,
        "weight_rounds": graph.weight_rounds,
    }
    assert DEFAULTS["params"] == {"lambda": 1.0, "gamma": 0.0, "mu": 0.0, "sigma": 1.0}
    assert DEFAULTS["fit"]["surrogate"]["lambda"] == FitConfig().lam
    assert DEFAULTS["fit"]["anneal_iters"] == FitConfig().anneal_iters


def test_resolved_sections_build_their_dataclasses(tmp_path):
    config = load_config(write_yaml(tmp_path, {"seed": 4, "params": {"lambda": 0.5}, "fit": {"surrogate": {"n": 30}}}))
    assert build(ModelParams, config) == ModelParams(lam=0.5)
    fit_config = build(FitConfig, config, seed=config["seed"])
    assert fit_config == FitConfig(n=30, seed=4)
    assert isinstance(fit_config.cluster_ratios, tuple)


@pytest.mark.parametrize("path, payload", [
    ("graph", {"graph": {"family": "sbm", "cluster_ratios": [0.5, 0.4]}}),
    ("graph", {"graph": {"family": "barabasi-albert", "n": 3, "m": 3}}),
    ("population", {"population": {"positive_fraction": None}}),
    ("sweep.axes.0", {"sweep": {"axes": [{"name": "gamma", "lo": 1.0, "hi": 0.0, "cells": 3}]}}),
    ("fit.space", {"fit": {"space": {"r": [0.0, 0.6, 6]}}}),
    ("params.gamma", {"params": {"gamma": float("nan")}}),
])
def test_dataclass_rules_reject_at_load(tmp_path, path, payload):
    with pytest.raises(ConfigError, match=f"config field {path}"):
        load_config(write_yaml(tmp_path, payload))


def test_rule_checks_every_item_and_skips_none():
    rule = Rule(gt=0.0, le=1.0)
    assert rule.violation((0.5, 1.0)) is None
    assert rule.violation(None) is None
    assert rule.violation([0.5, 0.0]) == "must be > 0.0, got 0.0"
    assert Rule(among=("a", "b")).violation("c") == "must be one of 'a', 'b'; got 'c'"
    assert Rule().violation(0.5) is None
    assert Rule().violation(math.inf) == "must be finite, got inf"
    assert rule.violation([0.5, math.nan]) == "must be finite, got nan"
