"""Run configuration: defaults, loading, checking, resolution.

A run config is one YAML document. The keys of its graph, population and
params sections, and the search and surrogate keys of its fit section, are
the fields of GraphGenSpec, PopulationSpec, ModelParams and FitConfig:
their defaults, types and rules come from those dataclasses (the YAML key
`lambda` is the field `lam`). The keys that only the command line reads
are listed here with their defaults, types and rules. Unset keys take the
defaults; the --seed flag overrides the seed. The resolved config
(defaults merged in) is written next to every command's outputs so any run
can be reproduced from its own artifacts.
"""

from __future__ import annotations

import copy
import types
import typing
from dataclasses import MISSING, fields

import yaml

from .analysis import SweepAxis, SweepSpec
from .dynamics import MAX_HORIZON, MODES, ModelParams, PopulationSpec
from .fitting import AXIS_ORDER, DEFAULT_BOUNDS, DEFAULT_RESOLUTION, FitConfig, ParamSpace, check_q_range
from .graph import GraphGenSpec
from .ingest import check_preprocess
from .rules import Rule

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Missing, malformed, or rule-breaking configuration."""


# The dataclass each section's keys are fields of. FitConfig spans two
# sections; seeds come from the top-level seed, never from a section.
_SECTIONS = {
    "graph": GraphGenSpec,
    "population": PopulationSpec,
    "params": ModelParams,
    "fit": FitConfig,
    "fit.surrogate": FitConfig,
}
_SURROGATE = ("n", "cluster_ratios", "cluster_positive_fractions", "intra_prob", "lam", "sigma")
_KEYS = {"lam": "lambda"}  # a Python keyword cannot name a field


def _fields_in(section: str) -> dict:
    """The dataclass fields a section holds, by their config key."""
    cls = _SECTIONS[section]
    surrogate = section == "fit.surrogate"
    return {
        _KEYS.get(f.name, f.name): f
        for f in fields(cls)
        if f.name != "seed" and (cls is not FitConfig or (f.name in _SURROGATE) == surrogate)
    }


def _leaf(hint, default=MISSING, **rule) -> tuple:
    return hint, Rule(**rule) if rule else None, default


def _shape_of(cls, keys: dict) -> dict:
    """Type hint, rule and default of each field of cls, by config key."""
    hints = typing.get_type_hints(cls)
    return {
        key: (hints[f.name], f.metadata.get("rule"), list(f.default) if isinstance(f.default, tuple) else f.default)
        for key, f in keys.items()
    }  # YAML spells a tuple as a list


def _section_shape(section: str) -> dict:
    return _shape_of(_SECTIONS[section], _fields_in(section))


# Type, rule and default of every key; a list shape holds the shape of its
# items and defaults to empty. The dataclass sections, the sweep axes and
# the sweep's replicates and statistics come from their fields; the keys
# only the command line reads are spelled out here. A key with no default,
# such as fit.space.p, is absent until a config sets it.
_SHAPE = {
    "version": _leaf(int, CONFIG_VERSION, among=(CONFIG_VERSION,)),
    "seed": _leaf(int, 0, ge=0, le=2**64 - 1),
    "graph": _section_shape("graph"),
    "population": _section_shape("population"),
    "params": _section_shape("params"),
    "horizon": _leaf(int, 300, ge=1, le=MAX_HORIZON),
    "simulate": {"mode": _leaf(str, "stochastic", among=MODES), "write_agents": _leaf(bool, False)},
    "sweep": {
        "axes": [_shape_of(SweepAxis, {f.name: f for f in fields(SweepAxis)})],
        **_shape_of(SweepSpec, {f.name: f for f in fields(SweepSpec) if f.name in ("replicates", "statistics")}),
    },
    "fit": {
        "data": _leaf(str | None, None),
        "label": _leaf(str | None, None),
        "preprocess": {
            "window": _leaf(tuple[int | str, int | str] | None, None),
            "smooth": _leaf(int, 1),
            "fill": _leaf(str, "zero"),
        },
        "space": {
            axis: _leaf(tuple[float, float, int], [*DEFAULT_BOUNDS[axis], DEFAULT_RESOLUTION]
                        if axis in DEFAULT_BOUNDS else MISSING)
            for axis in AXIS_ORDER
        },
        "pinned": {axis: _leaf(float) for axis in AXIS_ORDER},
        "surrogate": _section_shape("fit.surrogate"),
        **_section_shape("fit"),
    },
    "identify": {
        "grid": _leaf(str | None, None),
        "q_min": _leaf(float, 1e-4),
        "q_max": _leaf(float, 1e-2),
        "points": _leaf(int, 9, ge=1),
        "bootstrap": _leaf(int, 10, ge=1),
    },
}


def _defaults(shape):
    """The resolved config of an empty document: every default in shape."""
    if isinstance(shape, dict):
        return {
            key: _defaults(item) for key, item in shape.items()
            if not isinstance(item, tuple) or item[2] is not MISSING
        }
    return [] if isinstance(shape, list) else copy.deepcopy(shape[2])


DEFAULTS = _defaults(_SHAPE)


def build(cls, config: dict, **given):
    """An instance of cls with the fields its sections of config hold.

    given supplies the fields no section holds, such as seed.
    """
    for section, owner in _SECTIONS.items():
        if owner is cls:
            values = config
            for part in section.split("."):
                values = values[part]
            for key, f in _fields_in(section).items():
                given[f.name] = tuple(values[key]) if isinstance(values[key], list) else values[key]
    return cls(**given)


def param_space(config: dict) -> ParamSpace:
    """The fit search box: the space axes that are not pinned."""
    section = config["fit"]
    bounds: dict[str, tuple[float, float]] = {}
    resolution: dict[str, int] = {}
    for axis, (lo, hi, cells) in section["space"].items():
        if axis in section["pinned"]:
            continue  # pinning overrides the default search axis
        bounds[axis] = (float(lo), float(hi))
        resolution[axis] = int(cells)
    return ParamSpace(bounds=bounds, resolution=resolution, pinned=dict(section["pinned"]))


def _merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = copy.deepcopy(base)
        for key, value in override.items():
            merged[key] = _merge(base.get(key), value) if key in base else copy.deepcopy(value)
        return merged
    return copy.deepcopy(override)


def load_config(path, seed: int | None = None) -> dict:
    """Read a YAML config, merge in the defaults, and check the result.

    seed, when given, replaces the config's seed before the check. Checks
    run on the resolved document so partial configs never have to repeat
    required fields; unknown keys survive the merge and are still rejected.
    """
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"not valid yaml: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if seed is not None:
        raw["seed"] = seed
    merged = _merge(DEFAULTS, raw)
    validate_config(merged)
    return merged


def validate_config(config: dict) -> None:
    """Raise ConfigError naming the first field of a resolved config that is
    unknown, of the wrong type, or breaks a rule of the dataclass it feeds."""
    _check(config, _SHAPE, "")
    sweep = config["sweep"]
    if len(sweep["axes"]) > 2:
        raise _error("sweep.axes", f"holds at most 2 axes, got {len(sweep['axes'])}")
    if not sweep["statistics"]:
        raise _error("sweep.statistics", "needs at least one statistic")
    for axis, (_, _, cells) in config["fit"]["space"].items():
        if cells < 2:  # pinned axes too, which the search box leaves out
            raise _error(f"fit.space.{axis}", f"needs at least 2 cells, got {cells}")
    for i, axis in enumerate(sweep["axes"]):
        _attempt(f"sweep.axes.{i}", SweepAxis, **axis)
    for section, cls in _SECTIONS.items():
        _attempt(section, build, cls, config)
    _attempt("fit.space", param_space, config)
    # the argument checks of preprocess and identifiability, called so that
    # each call can fail only on the key it names: fill with a valid smooth
    # width first, and q_min against a q_max that cannot undercut it
    prep = config["fit"]["preprocess"]
    _attempt("fit.preprocess.fill", check_preprocess, 1, prep["fill"])
    _attempt("fit.preprocess.smooth", check_preprocess, prep["smooth"], prep["fill"])
    q_min, q_max = config["identify"]["q_min"], config["identify"]["q_max"]
    _attempt("identify.q_min", check_q_range, q_min, max(q_min, q_max))
    _attempt("identify.q_max", check_q_range, q_min, q_max)


def _attempt(path: str, make, *args, **kwargs) -> None:
    """Call make; report its TypeError or ValueError at path."""
    try:
        make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise _error(path, str(exc)) from exc


def _error(path: str, reason: str) -> ConfigError:
    return ConfigError(f"config field {path}: {reason}")


def _check(value, shape, path: str) -> None:
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise _error(path, f"expected a mapping, got {value!r}")
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key not in shape:
                raise _error(where, "unknown key")
            _check(item, shape[key], where)
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise _error(path, f"expected a list, got {value!r}")
        for i, item in enumerate(value):
            _check(item, shape[0], f"{path}.{i}")
    else:
        hint, rule, _ = shape
        if not _matches(value, hint):
            raise _error(path, f"expected {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")
        reason = rule and rule.violation(value)
        if reason:
            raise _error(path, reason)


def _matches(value, hint) -> bool:
    """Whether a YAML value fits a type hint; YAML spells a tuple as a list."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if origin in (list, tuple):
        if not isinstance(value, list):
            return False
        if origin is list or args[1:] == (Ellipsis,):
            return all(_matches(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_matches, value, args))
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def dump_config(config: dict, path) -> None:
    """Write the resolved config deterministically (sorted keys)."""
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True, default_flow_style=False)
