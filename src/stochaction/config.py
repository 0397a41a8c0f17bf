"""Experiment configuration: schema, validation, round-trip serialization.

Configs are JSON with one nested section per engine.  The grid bounds and
the ``physical``, ``stochastic``, ``ensemble.dt_traj``, ``state`` and
``appendix`` keys are the fields of ``GridSpec``, ``PhysicalConfig``,
``StochasticParams``, ``EnsembleSpec``, ``StateSpec`` and ``AppendixSpec``:
their types and defaults are read from the dataclasses, each section's
rules are stated once in its dataclass, and each section's view is its
dataclass.  Every other key states its type, default and rule together,
in its ``_SCHEMA`` entry; an engine call's rule on a plain argument (the
least trial, draw and bin counts) is its engine module's, called there.
Only the config reads the velocity names: an actual run hands the engine
``StochasticParams``.  Validation reports every violation with its path, in
one pass over every key rule, section rule and cross-section invariant
(packet separation, time-scale hierarchy, grid headroom, step count,
grid-run scales), at load time so a bad run fails before any work happens.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .core import (DomainOverflowError, FieldErrors, GridSpec, InvalidSystemError,
                   PhysicalConfig, _is_number, canonical_json, field_errors, require_count)
from .measurement import N_MC_MIN, N_TRIALS_MIN, StateSpec
from .potentials import APPENDIX_MAGNITUDE_MAX, AppendixSpec, LambdaSweep
from .rng import INDEX_MAX, SEED_MAX
from .spectral import AngularBasis, evolve_measurement_spectral
from .stochastic import StochasticParams
from .trajectories import N_BINS_MIN, EnsembleSpec

EXPERIMENT_KINDS = ("born", "trajectories", "prior-average", "repeatability",
                    "appendix", "lambda-sweep", "stochastic-check")
# the two velocity sources of a run (see :mod:`stochaction.trajectories`)
VELOCITIES = ("effective", "actual")


class ConfigError(ValueError):
    """Carries the list of violations, each with its config path."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))


# the typed views: each section's dataclass, whose fields give keys, JSON
# types and defaults (the section's other keys are stated in _SCHEMA)
_VIEWS = {"grid": GridSpec, "physical": PhysicalConfig, "stochastic": StochasticParams,
          "ensemble": EnsembleSpec, "state": StateSpec, "appendix": AppendixSpec}
# JSON types of each name in a dataclass field's annotation
_JSON_TYPES = {"float": (float, int), "int": (int,), "bool": (bool,), "str": (str,),
               "list": (list,), "dict": (dict,), "None": (type(None),)}


def _fields(cls) -> dict:
    return {f.name: (tuple(t for name in f.type.split(" | ") for t in _JSON_TYPES[name]),
                     f.default_factory() if f.default is MISSING else f.default, None)
            for f in fields(cls)}


def _rule(ok, message: str):
    """The rule that gives ``message`` unless ``ok(value)`` holds."""
    return lambda value: None if ok(value) else message


def _count(least: int, most: int | None = None):
    """:func:`core.require_count`'s rule at ``least``; a trial count's ``most``
    keeps every trial index a run keys at most ``rng.INDEX_MAX``."""
    def rule(value):
        for _, message in field_errors(require_count, "", value, least):
            return message
        if most is not None and value > most:
            return f"must be at most {most}, so that no trial index passes {INDEX_MAX}"
    return rule


# declared-check thresholds no run could pass: a rate, deviation or z-score
# is never below 0
_POSITIVE = _rule(lambda v: v > 0, "must be positive")

# schema: section -> key -> (type tuple, default, rule); a rule gives the
# value's violation message or None, and a view field's rules are its
# dataclass's (None here).  A count's least value is the engine call's own
# minimum where it has one
_SCHEMA: dict[str, dict[str, tuple[tuple[type, ...], Any, Any]]] = {
    "": {
        "experiment": ((str,), None, _rule(lambda v: v in EXPERIMENT_KINDS,
                                           f"must be one of {EXPERIMENT_KINDS}")),
        "seed": ((int,), 0, _rule(lambda v: 0 <= v <= SEED_MAX, f"must be in [0, {SEED_MAX}]")),
        "out_dir": ((str,), "out", None),
        "threads": ((int,), 1, _rule(lambda v: v >= 1, "must be at least 1")),
        "velocity": ((str,), "effective", _rule(lambda v: v in VELOCITIES,
                                                f"must be {' or '.join(VELOCITIES)}")),
    },
    # the two grid counts are read by no run and are only range-checked
    "grid": {"n_theta": ((int,), 128, _count(8)), **_fields(GridSpec),
             "n_q2": ((int,), 1024, _count(32))},
    "physical": _fields(PhysicalConfig),
    # a null tau_lambda is inf
    "stochastic": {**_fields(StochasticParams),
                   "tau_lambda": ((float, int, type(None)), None, None)},
    "ensemble": {
        # a run keys trials 0..n_trials-1
        "n_trials": ((int,), 1000, _count(N_TRIALS_MIN, INDEX_MAX + 1)),
        **_fields(EnsembleSpec),
        # each parses at its one value only; the keys stay while benchmark
        # configs still set them
        "integrator": ((str,), "rk4", _rule(lambda v: v == "rk4", "must be rk4")),
        "node_policy": ((str,), "reject-resample", _rule(lambda v: v == "reject-resample",
                                                         "must be reject-resample")),
        "fail_on_overflow": ((bool,), False, None),
        # a trajectory table stores its trials (it may store none) every
        # store_every >= 1 steps
        "n_store": ((int,), 20, _count(0)),
        "store_every": ((int,), 10, _count(1)),
    },
    "state": _fields(StateSpec),
    "prior": {
        "n_mc": ((int,), 100000, _count(N_MC_MIN)),
        "z_max": ((float, int), 4.0, _POSITIVE),
    },
    "repeat": {
        # a repeatability run keys its repeats as trials 1..n_repeats
        "n_repeats": ((int,), 1000, _count(1, INDEX_MAX)),
    },
    "appendix": _fields(AppendixSpec),
    "checks": {
        # a p-value never exceeds 1
        "chi2_p_min": ((float, int), 0.01, _rule(lambda v: v < 1, "must be below 1")),
        "max_ambiguous_rate": ((float, int), 1e-3, _POSITIVE),
        "freq_within_3sigma": ((bool,), True, None),
        "mean_abs_dev_rtol": ((float, int), 0.01, _POSITIVE),
        # a lag-1 product needs two samples
        "n_draws": ((int,), 1000000, _count(2)),
        "enabled": ((bool,), True, None),
    },
    "equivariance": {
        "enabled": ((bool,), False, None),
        "n_bins": ((int,), 50, _count(N_BINS_MIN)),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    def __getitem__(self, key: str):
        return self.raw[key]

    # typed views onto the engine parameter sections -----------------------

    def _view(self, section: str):
        """``section`` as its ``_VIEWS`` dataclass, float fields as floats."""
        values = dict(self.raw[section])
        if section == "stochastic" and values["tau_lambda"] is None:
            values["tau_lambda"] = math.inf
        cls = _VIEWS[section]
        return cls(**{f.name: float(values[f.name]) if f.type == "float" else values[f.name]
                      for f in fields(cls)})

    def grid(self) -> GridSpec:
        return self._view("grid")

    def physical(self) -> PhysicalConfig:
        return self._view("physical")

    def stochastic(self) -> StochasticParams:
        return self._view("stochastic")

    def ensemble(self) -> EnsembleSpec:
        return self._view("ensemble")

    def state(self) -> StateSpec:
        return self._view("state")

    def appendix(self) -> AppendixSpec:
        return self._view("appendix")

    def basis(self) -> AngularBasis:
        return self.state().basis()

    def coefficients(self) -> dict[int, complex]:
        return self.state().coefficients()


def _out_of_range(value, path: str = ""):
    """Paths of the numbers no float64 holds: NaN, Infinity, beyond 1.8e308."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _out_of_range(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _out_of_range(item, f"{path}[{i}]")
    elif _is_number(value) and not abs(value) <= sys.float_info.max:
        yield path


def _check_types(data: dict, violations: list[str]) -> dict:
    merged: dict[str, Any] = {}
    for section, fields in _SCHEMA.items():
        # section "" holds the top-level scalars, and there every section name is known
        given = data.get(section, {}) if section else data
        if not isinstance(given, dict):
            violations.append(f"{section}: expected an object")
            given = {}
        prefix = f"{section}." if section else ""
        out = merged.setdefault(section, {}) if section else merged
        for key, (types, default, _) in fields.items():
            if key not in given:
                if default is None and type(None) not in types:
                    violations.append(f"{prefix}{key}: required")
                else:
                    out[key] = default
                continue
            value = given[key]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                violations.append(f"{prefix}{key}: expected "
                                  f"{'/'.join(t.__name__ for t in types)}, "
                                  f"got {type(value).__name__}")
            else:
                out[key] = value
        known = fields.keys() | (set() if section else _SCHEMA.keys())
        violations += [f"{prefix}{key}: unknown key" for key in given if key not in known]
    return merged


def _check_invariants(cfg: dict, violations: list[str]) -> None:
    # every key's own rule, then each view's and the cross-section rules
    for section, entries in _SCHEMA.items():
        values, prefix = (cfg[section], f"{section}.") if section else (cfg, "")
        for key, (_, _, rule) in entries.items():
            message = rule and rule(values[key])
            if message:
                violations.append(f"{prefix}{key}: {message}")

    view = ExperimentConfig(cfg)
    views = {}
    for section in _VIEWS:
        try:
            views[section] = view._view(section)
        except FieldErrors as exc:
            violations += [f"{section}.{key}: {message}" for key, message in exc.errors]
        except ValueError as exc:   # InvalidSystemError included
            violations.append(f"{section}: {exc}")
    grid, physical, stochastic, ensemble, state, appendix = map(views.get, _VIEWS)

    if state and physical and grid:
        # the run's own checks on the state it prepares: packet separation
        # over the occupied modes, their centers inside the grid from 0 to t_M
        try:
            prepared = state.prepare(physical, grid)
        except InvalidSystemError as exc:
            violations.append(f"physical.sep_factor: {exc}")
            prepared = state.prepare(physical, grid, enforce_separation=False)
        try:
            evolve_measurement_spectral(prepared, physical.t_M, physical.g)
        except DomainOverflowError as exc:
            violations.append(f"grid.q2_max/q2_min: {exc}")
    # only actual-velocity runs draw sign paths
    if stochastic and ensemble and cfg["velocity"] == "actual":
        violations += [f"ensemble.{key}: {message}" for key, message in
                       field_errors(ensemble.validate_against, stochastic, name="dt_traj")]
    if physical and ensemble:
        violations += [f"ensemble.{key}: {message}" for key, message in
                       field_errors(ensemble.n_steps, physical.t_M, name="dt_traj")]
    if physical and appendix and cfg["experiment"] in ("appendix", "lambda-sweep"):
        # a grid run builds its operator at every scale lambda_mag * (1 + delta);
        # an appendix run at delta 0 alone
        sweep = appendix.sweep if cfg["experiment"] == "lambda-sweep" else LambdaSweep
        try:
            sweep(base=physical.lambda_mag)
        except ValueError:
            violations.append(f"physical.lambda_mag: every scale lambda_mag * (1 + delta) "
                              f"must be at most {APPENDIX_MAGNITUDE_MAX:g}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises :class:`ConfigError` listing all violations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected an object"])
    violations = [f"{path}: must be a finite number within float64 range"
                  for path in _out_of_range(data)]
    merged = _check_types(data, violations)
    if not violations:
        _check_invariants(merged, violations)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(merged)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON with every default made explicit; parse round-trips."""
    return canonical_json(cfg.raw)
