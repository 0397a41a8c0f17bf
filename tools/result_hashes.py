"""Result-file hashes and outcomes of one small run per experiment kind.

Runs each config below through ``run_experiment``, plus the API-level runs
the CLI cannot reach.  Per kind it takes the hashes of its result files
(the manifest's ``files`` map for a config, the hash of the result's
canonical JSON for an API run) and its outcome data: the ``records.jsonl``
rows (the born kinds and the API-level ``born-position``,
``born-position-edge``, ``born-linear-momentum``,
``born-linear-momentum-offset`` and ``born-overlap``, whose overlapping
windows leave some trials ambiguous), the outcome counts and every number
of its ``summary.json``, its ``trajectories.csv`` rows, and the numbers of
the grid kinds' ``observables.csv``, ``sweep.csv`` and ``psi_final.csv`` and
of every API kind's ``result.json``.  Each config kind also has a
``config.json`` hash: that of ``serialize_config(parse_config(...))``, the
bytes ``--echo-config`` prints, so every default and parsed value keeps its
echo.  One of two modes is required.

``--against REV`` compares the package's ``src/`` at a git revision with
the working tree's:

    python3 tools/result_hashes.py --against HEAD

It extracts ``src/`` at REV with ``git archive`` into a temporary directory
(an unknown revision exits 2 with git's message) and runs this script's
kinds once on that package and once on the working tree's, each in a fresh
interpreter with its own ``PYTHONPATH`` that prints one JSON result.  The
report prints, per kind, whether the outcome counts match, ``max
|dq2_final|``, the largest change in any trajectories.csv cell and in each
kind's numbers, then the largest number change over all kinds; then every
(kind, file) whose hash differs or that one side only has, and names every
kind that only one side ran (a kind the other side's package cannot run
fails there).  Each side also parses the invalid configs of
``parse_corpus()``: every config kind with each engine-owned parameter rule
broken, and every exit-1 case of ``tests/test_config_cli.py``, both read
from ``tests/parse_cases.py``; the report names each config whose exit code
or sorted violation paths differ.  It exits 1 on any outcome difference, a
file whose count of numbers differs, or a differing file, kind or parse.
Changed numbers alone do not fail it, so it measures a declared last-bit
change.

``--pin FILE`` writes the compact reference that Tier-1 compares every run
with (``tests/test_pinned_outcomes.py``): per kind, the outcome vector and
the overflowed and ambiguous trials of its records, its outcome counts,
every number and flag of its ``summary.json`` by path and, for a config
kind, the hash of its ``config.json`` echo.  A change that alters outcomes
or echoes on purpose rewrites the file from its own checkout:

    python3 tools/result_hashes.py --pin tests/data/pinned_outcomes.json

``--pin`` imports the package from the ``src`` directory next to this script.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))   # also when loaded by path
from revision import ROOT, fresh_json, src_at  # noqa: E402

BASE = {
    "seed": 5,
    "grid": {"q2_min": -4.0, "q2_max": 4.0},
    "ensemble": {"n_trials": 200, "dt_traj": 0.002},
    "stochastic": {"tau_xi": 0.02},
    "state": {"modes": [-1, 0, 1], "weights": [0.5, 0.3, 0.2]},
}
TRAJ = {"n_trials": 100, "dt_traj": 0.002, "n_store": 5, "store_every": 50}
WIDE_STATE = {"modes": [-3, -1, 1, 3], "weights": [0.1, 0.4, 0.3, 0.2]}
# packets that start near the lower pointer edge and only move up: the
# pointer-domain rule is signed, so this state parses and runs
EDGE_STATE = {"modes": [0, 1], "weights": [0.5, 0.5], "packet_center": -3.2}
# 17 modes in phase at equal weight: the envelope touches the density peak,
# so some trials accept nothing in their first ring round and are redrawn
IN_PHASE_STATE = {"modes": list(range(-8, 9)), "weights": [1.0] * 17}
APPENDIX = {"scalar": "0.5*q^2", "n_steps": 100, "record_every": 10,
            "residual_check": True, "initial_center": 1.0,
            "save_wavefunctions": True}
# wrap-around stencil entries give the Cayley factorization a different pattern
APPENDIX_PERIODIC = {"periodic": True, "x_min": -3.0, "x_max": 3.0, "n_points": 128,
                     "metric": "1+0.2*sin(pi*q/3)^2", "vector": ["0.3*cos(pi*q/3)"],
                     "scalar": "0.5*cos(pi*q/3)", "initial_width": 0.5,
                     "initial_momentum": 2.0, "n_steps": 100, "record_every": 10,
                     "save_wavefunctions": True}
# the field grammar: e, the ** alias, 2^-q^2 (power above unary minus), a
# right-associative chain and nested calls
APPENDIX_GRAMMAR = {"metric": "1+0.2*exp(-sin(cos(q))^2)", "vector": ["0.3*e^(-q**2/8)"],
                    "scalar": "0.5*q^2 - 2^-q^2 + 0.1*2^2^0.5*sin(q)", "n_steps": 100,
                    "record_every": 10, "initial_center": 0.5, "save_wavefunctions": True}
SWEEP = {"deltas": [0.0, 0.25], "n_steps": 100, "record_every": 50,
         "x_min": -20.0, "x_max": 20.0, "n_points": 256}

# name -> (experiment kind, sections overriding BASE)
CONFIGS = {
    "born-effective": ("born", {"equivariance": {"enabled": True}}),
    "born-actual": ("born", {"velocity": "actual"}),
    "born-edge": ("born", {"state": EDGE_STATE}),
    "born-redraw": ("born", {"state": IN_PHASE_STATE,
                             "grid": {"q2_min": -9.0, "q2_max": 9.0}}),
    "trajectories-effective": ("trajectories", {"ensemble": TRAJ,
                                                "equivariance": {"enabled": True}}),
    "trajectories-actual": ("trajectories", {"ensemble": TRAJ, "velocity": "actual"}),
    "trajectories-wide-effective": ("trajectories", {"ensemble": TRAJ,
                                                     "state": WIDE_STATE}),
    "trajectories-wide-actual": ("trajectories", {"ensemble": TRAJ, "state": WIDE_STATE,
                                                  "velocity": "actual"}),
    # telegraph signs hold for 10 steps on average: long runs of one sign in
    # the theta finish of decided trials
    "trajectories-telegraph": ("trajectories", {
        "ensemble": TRAJ, "state": WIDE_STATE, "velocity": "actual",
        "stochastic": {"tau_xi": 0.02, "sign_law": "telegraph", "flip_prob": 0.1}}),
    # packets near the widest the separation rule allows (sigma <= 1/6 at
    # sep_factor 6): neighbours still overlap by exp(-1 / (8 * 0.16^2)) ~ 0.008
    # at t_M, so the theta marginal's cross terms enter the equivariance numbers
    "trajectories-overlap": ("trajectories", {
        "ensemble": TRAJ, "physical": {"sigma": 0.16, "sep_factor": 6.0},
        "equivariance": {"enabled": True}}),
    "prior-average": ("prior-average", {"prior": {"n_mc": 20000}}),
    # gapped modes up to |l| = 5 with unequal phases: the prior observable's
    # ring sums reach powers and conjugates that the in-phase |l| <= 1 state
    # does not; the grid is widened so that the l = 5 packet stays on it
    "prior-average-gapped": ("prior-average", {
        "state": {"modes": [-3, -1, 2, 5], "weights": [1.0, 1.0, 1.0, 1.0],
                  "phases": [0.0, 1.0, 2.0, 0.7]},
        "grid": {"q2_min": -9.0, "q2_max": 9.0}, "prior": {"n_mc": 20000}}),
    "repeatability": ("repeatability", {"repeat": {"n_repeats": 50}}),
    "repeatability-actual": ("repeatability", {"repeat": {"n_repeats": 50},
                                               "velocity": "actual"}),
    "appendix": ("appendix", {"appendix": APPENDIX}),
    "appendix-periodic": ("appendix", {"appendix": APPENDIX_PERIODIC}),
    "appendix-grammar": ("appendix", {"appendix": APPENDIX_GRAMMAR}),
    "lambda-sweep": ("lambda-sweep", {"appendix": SWEEP}),
    "stochastic-check": ("stochastic-check", {"checks": {"n_draws": 100000}}),
}


def _config(kind: str, overrides: dict, *merged: dict) -> dict:
    """BASE as a ``kind`` run with the sections of ``overrides`` in place of its
    own, as ``CONFIGS`` gives them, then each of ``merged``'s sections merged in."""
    data = dict(BASE, experiment=kind, **overrides)
    for sections in merged:
        for key, value in sections.items():
            data[key] = {**data.get(key, {}), **value} if isinstance(value, dict) else value
    return data


def parse_corpus() -> dict:
    """``{name: config}`` of the invalid configs: each config kind with each
    ``ENGINE_RULES`` break, and each exit-1 case, of ``tests/parse_cases.py``."""
    spec = importlib.util.spec_from_file_location("parse_cases",
                                                  ROOT / "tests" / "parse_cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    # each test's rows, and its row as (experiment kind, sections merged into BASE)
    tests = {
        "each_bad_key_of_a_section_reported": (
            cases.BAD_SECTION_KEYS, lambda kind, section, values, _: (kind, {section: values})),
        "threshold_no_run_can_pass_exit_one": (
            cases.UNPASSABLE_THRESHOLDS, lambda kind, overrides, _: (kind, overrides)),
        "unrunnable_appendix_rejected_at_parse": (
            cases.UNRUNNABLE_APPENDIX, lambda kind, appendix, _: (kind, {"appendix": appendix})),
        "grid_scale_beyond_magnitude_bound_rejected_at_parse": (
            cases.GRID_SCALES_TOO_LARGE, lambda kind, lam, deltas: (kind, {
                "physical": {"lambda_mag": lam},
                "appendix": {**cases.GRID_RUN, "deltas": deltas}})),
        "bad_appendix_field_rejected_at_parse": (
            cases.BAD_APPENDIX_FIELDS, lambda kind, appendix, _: (kind, {"appendix": appendix})),
        "arithmetic_failure_named_in_grammar_terms": (
            cases.ARITHMETIC_FAILURES,
            lambda kind, scalar, _: (kind, {"appendix": {"scalar": scalar}})),
        # the test enables the equivariance section whose bins it breaks
        "too_small_sample_count_rejected_at_parse": (
            cases.TOO_SMALL_COUNTS, lambda kind, section, key, value: (kind, {section: {
                key: value, **({"enabled": True} if section == "equivariance" else {})}})),
        "unrunnable_state_rejected_at_parse": (
            cases.UNRUNNABLE_STATES, lambda state, _: ("born", {"state": state})),
        "out_of_range_seed_rejected_at_parse": (
            cases.OUT_OF_RANGE_SEEDS, lambda kind, seed: (kind, {"seed": seed})),
        "shape_and_bound_rules_rejected_at_parse": (
            cases.SHAPE_AND_BOUND_RULES, lambda kind, overrides, _: (kind, overrides)),
        "every_broken_rule_reported_in_one_pass": (
            cases.FULL_REPORTS, lambda kind, overrides, _: (kind, overrides)),
    }
    corpus = {f"{name}/{rule}": _config(kind, overrides, broken)
              for name, (kind, overrides) in CONFIGS.items()
              for rule, (_, broken, _) in cases.ENGINE_RULES.items()}
    for test, (rows, case) in tests.items():
        for key, row in (rows.items() if isinstance(rows, dict) else enumerate(rows)):
            kind, overrides = case(*row)
            corpus[f"{test}[{key}]"] = _config(kind, {}, overrides)
    return corpus


def parse_outcomes() -> dict:
    """``{name: [exit code, sorted violation paths]}`` of ``parse_corpus()`` as the
    CLI parses it: 0 if the config parses, 1 with its violations' paths if it is
    rejected, and the exception's type name for anything else."""
    from stochaction import ConfigError, parse_config

    out = {}
    for name, data in parse_corpus().items():
        try:
            parse_config(json.dumps(data))
            out[name] = [0, []]
        except ConfigError as exc:
            out[name] = [1, sorted(v.split(": ", 1)[0] for v in exc.violations)]
        except Exception as exc:  # noqa: BLE001 - the CLI would stop with a traceback
            out[name] = [type(exc).__name__, []]
    return out


def mixed_2d():
    """Mixed-periodic 2-D system with metric (cross term included), vector and scalar.

    Returns the system, its 24x20 grid (x periodic, y closed) and a unit-norm
    start state.
    """
    import numpy as np
    from stochaction import CartesianGrid, system_from_expressions

    system = system_from_expressions(
        2, metric={"g11": "1+0.2*sin(x)^2", "g22": "1+0.1*cos(x)*exp(-y^2/8)",
                   "g12": "0.05*sin(x)*exp(-y^2/8)"},
        vector=["-0.5*y", "0.3*cos(x)"], scalar="0.5*y^2+0.2*cos(x)")
    grid = CartesianGrid((-np.pi, -5.0), (np.pi, 5.0), (24, 20), (True, False))
    x, y = grid.coords()
    psi0 = np.exp(-(x**2 + (y - 0.5) ** 2) / 2 + 1j * x)
    return system, grid, psi0 / np.sqrt(grid.norm2(psi0))


def lambda_sweep_2d():
    """Sweep of the mixed-periodic 2-D system at deltas 0 and 0.1."""
    from stochaction import LambdaSweep, run_lambda_sweep

    system, grid, psi0 = mixed_2d()
    return run_lambda_sweep(system, psi0, grid, LambdaSweep(deltas=(0.0, 0.1)),
                            0.005, 40, 20)


def classical_limit_2d():
    """Classical-limit check of the mixed-periodic 2-D start state at lambda 1, 0.5, 0.25."""
    from stochaction import classical_limit_check

    system, grid, psi0 = mixed_2d()
    return classical_limit_check(system, psi0, grid, (1.0, 0.5, 0.25))


def cayley_2d():
    """Final field of 10 Cayley steps on a closed 96x96 grid, metric cross term included.

    At this size a threaded OpenBLAS rounds some entries of the LU factors
    differently, so the kind pins the solver's bits where the BLAS thread
    count matters.
    """
    import numpy as np
    from stochaction import (CartesianGrid, build_metric_hamiltonian, evolve_grid,
                             system_from_expressions)

    system = system_from_expressions(
        2, metric={"g11": "1+0.2*sin(x)", "g22": "1+0.1*cos(y)",
                   "g12": "0.05*sin(x)*cos(y)"},
        vector=["0.1*y", "-0.1*x"], scalar="0.5*(x^2+y^2)")
    grid = CartesianGrid((-4.0, -4.0), (4.0, 4.0), (96, 96), (False, False))
    x, y = grid.coords()
    psi0 = np.exp(-((x - 0.5) ** 2 + y**2) / 2 + 0.8j * y)
    psi0 = psi0 / np.sqrt(grid.norm2(psi0))
    out = evolve_grid(psi0, build_metric_hamiltonian(system, 1.0, grid), 0.01, 10)
    return {"real": out.real.ravel().tolist(), "imag": out.imag.ravel().tolist()}


def born_line(kind: str, edge: bool = False, offset: bool = False):
    """Records of a binned position or linear-momentum readout of a line state.

    ``edge`` takes a state of constant density on ``|x| < 3.9`` and a
    pointer grid that ends at 3.75, inside the window's last bin, so the
    trials whose pointer line leaves the grid overflow.  ``offset`` moves the
    momentum state to base momentum 12, window (7, 17) and pointer grid
    (-1, 19): the plane waves' common phase ``exp(i p_0 x)`` is then far from
    1 along every trajectory.
    """
    import numpy as np
    from stochaction import (EnsembleSpec, GridSpec, PhysicalConfig, run_ensemble,
                             substitute_observable)

    config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
    x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
    p0 = 12.0 if offset else 1.0
    psi = np.where(np.abs(x) < 3.9, 1.0 + 0j, 0.0) if edge else np.exp(-x**2 / 4 + 1j * p0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
    window, n_bins = ((-4.0, 4.0), 8) if kind == "position" else ((p0 - 5.0, p0 + 5.0), 10)
    grid = GridSpec(-1.0, 19.0) if offset else GridSpec(-8.0, 3.75 if edge else 8.0)
    pipe = substitute_observable(kind, psi, x, window=window, n_bins=n_bins,
                                 config=config, grid=grid)
    records, _, _ = run_ensemble(pipe, config, EnsembleSpec(dt_traj=0.002), 200, seed=5)
    return [r.to_dict() for r in records]


def born_overlap():
    """Records of a ring run whose packet windows overlap, so some trials are ambiguous.

    The state is prepared with ``enforce_separation=False``; at g = 0.25 the
    readout windows of neighbouring modes share part of their width.
    """
    from stochaction import (EnsembleSpec, GaussianPacket, GridSpec, PhysicalConfig,
                             prepare_initial_state, run_ensemble)

    config = PhysicalConfig(g=0.25, t_M=1.0, sigma=0.05, sep_factor=8.0)
    state = prepare_initial_state({-1: 0.6, 0: 0.64, 1: 0.48}, GaussianPacket(0.0, 0.05),
                                  config, GridSpec(-4.0, 4.0), enforce_separation=False)
    records, _, _ = run_ensemble(state, config, EnsembleSpec(dt_traj=0.002), 200, seed=5)
    return [r.to_dict() for r in records]


def node_policy():
    """Rows on the README 3-mode state under the node rule, both velocities.

    Two rows start in the far pointer tail, where ``|Psi|^2`` is below
    ``EPS_NODE_REL`` of the peak, so their landings trip the node check and
    hold them; one row leaves the pointer bounds.  20 steps each; the result
    is each run's ``configs``, ``overflow`` and ``node_clamped``.
    """
    import numpy as np
    from stochaction import (EnsembleSpec, GaussianPacket, GridSpec, PhysicalConfig,
                             integrate_ensemble, prepare_initial_state)
    from stochaction.rng import stream
    from stochaction.trajectories import ModeFlow

    config = PhysicalConfig()
    state = prepare_initial_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                                  GaussianPacket(0.0, config.sigma), config, GridSpec(-4.0, 4.0))
    flow = ModeFlow(state, config.g)
    q2 = [0.0, 0.03, -0.05, 0.3, -0.3, 0.34, 0.37, 0.39]
    q0 = np.stack([np.linspace(0.0, 2 * np.pi, len(q2), endpoint=False), q2], axis=-1)
    signs = (stream(5).integers(0, 2, size=(len(q2), 20)) * 2 - 1).astype(np.int8)
    out = {}
    for velocity, paths in (("effective", None), ("actual", signs)):
        run = integrate_ensemble(flow, q0, EnsembleSpec(dt_traj=0.002), 0.0, 0.04,
                                 sign_paths=paths, lambda_mag=config.lambda_mag,
                                 q2_bounds=(-0.32, 0.45))
        out[velocity] = {key: run[key].tolist() for key in
                         ("configs", "overflow", "node_clamped")}
    return out


# the config kinds that step a grid, and the result files whose numbers they dump
GRID_KINDS = ("appendix", "lambda-sweep")
GRID_FILES = ("observables.csv", "sweep.csv", "psi_final.csv")

# name -> API run whose result is hashed as canonical JSON
API_RUNS = {
    "node-policy": node_policy,
    "born-overlap": born_overlap,
    "lambda-sweep-2d": lambda_sweep_2d,
    "classical-limit-2d": classical_limit_2d,
    "cayley-2d": cayley_2d,
    "born-position": lambda: born_line("position"),
    "born-position-edge": lambda: born_line("position", edge=True),
    "born-linear-momentum": lambda: born_line("linear_momentum"),
    "born-linear-momentum-offset": lambda: born_line("linear_momentum", offset=True),
}


def csv_numbers(text: str) -> list[float]:
    """Every cell below the header of a numeric CSV, row by row."""
    return [float(c) for line in text.splitlines()[1:] for c in line.split(",")]


def flat_values(obj, path: str = "") -> dict:
    """Every number and boolean in a JSON value, by its ``/``-joined path of keys and indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj} if isinstance(obj, (bool, int, float)) else {}
    return {k: v for key, item in items for k, v in flat_values(item, f"{path}/{key}").items()}


def outcome_data(out_dir: Path, grid: bool = False) -> dict:
    """What one run's result files say about its trials' outcomes, plus the
    numbers of its ``summary.json`` and, when ``grid`` is set, of its grid
    result files."""
    data = {}
    records = out_dir / "records.jsonl"
    if records.exists():
        data["records"] = [json.loads(line) for line in records.read_text().splitlines()]
    summary = json.loads((out_dir / "summary.json").read_text())
    counts = {k: summary[k] for k in ("first_outcome", "n_agreeing") if k in summary}
    if "stats" in summary:
        counts.update({k: summary["stats"][k] for k in ("counts", "n_ambiguous", "n_overflow")})
    if counts:
        data["counts"] = counts
    trajectories = out_dir / "trajectories.csv"
    if trajectories.exists():
        data["trajectories"] = [[float(c) for c in line.split(",")]
                                for line in trajectories.read_text().splitlines()[1:]]
    data["numbers"] = {"summary.json": [float(v) for v in flat_values(summary).values()
                                        if not isinstance(v, bool)]}
    if grid:
        data["numbers"].update({
            name: csv_numbers(path.read_text())
            for name in GRID_FILES if (path := out_dir / name).exists()})
    return data


def result_hashes(failed: dict | None = None) -> tuple[dict, dict, dict]:
    """``{kind: {file: sha256}}``, ``{kind: outcome data}`` and
    ``{kind: summary.json}`` (config kinds) of every run.

    A kind that raises stops the call or, when ``failed`` is a dict, is
    left out of the results and recorded there as ``{kind: error}``.
    """
    from stochaction import parse_config, run_experiment, serialize_config
    from stochaction.experiments import canonical_json

    hashes, outcomes, summaries = {}, {}, {}

    def config_run(name: str, kind: str, overrides: dict, tmp: Path):
        data = dict(_config(kind, overrides), out_dir=name)
        # the echo names out_dir, so it is hashed with the kind's name there
        echo = serialize_config(parse_config(json.dumps(data))).encode()
        data["out_dir"] = str(tmp / name)
        run_experiment(parse_config(json.dumps(data)))
        manifest = json.loads((tmp / name / "manifest.json").read_text())
        hashes[name] = {**manifest["files"], "config.json": hashlib.sha256(echo).hexdigest()}
        summaries[name] = json.loads((tmp / name / "summary.json").read_text())
        outcomes[name] = outcome_data(tmp / name, grid=kind in GRID_KINDS)

    def api_run(name: str, run):
        result = run()
        blob = canonical_json(result)
        hashes[name] = {"result.json": hashlib.sha256(blob.encode()).hexdigest()}
        # canonical JSON sorts its keys, so the numbers come in sorted key order
        numbers = [float(v) for v in flat_values(json.loads(blob)).values()
                   if not isinstance(v, bool)]
        outcomes[name] = {"numbers": {"result.json": numbers}}
        if name.startswith("born-"):
            outcomes[name]["records"] = result

    def attempt(name: str, run, *args):
        try:
            run(name, *args)
        except Exception as exc:  # noqa: BLE001 - the other side's package may lack the kind
            if failed is None:
                raise
            failed[name] = f"{type(exc).__name__}: {exc}"
            for results in (hashes, outcomes, summaries):
                results.pop(name, None)

    with tempfile.TemporaryDirectory() as tmp:
        for name, (kind, overrides) in CONFIGS.items():
            attempt(name, config_run, kind, overrides, Path(tmp))
    for name, run in API_RUNS.items():
        attempt(name, api_run, run)
    return hashes, outcomes, summaries


# relative tolerance of the pinned summary numbers: far above a last-bit
# change, far below any change of the physics
PIN_RTOL = 1e-9


def pinned(outcomes: dict, summaries: dict, hashes: dict) -> dict:
    """The compact reference of every kind that records outcomes or a summary."""
    pins = {}
    for kind in sorted(set(outcomes) | set(summaries)):
        data, pin = outcomes.get(kind, {}), {}
        if "config.json" in hashes.get(kind, {}):
            pin["config"] = hashes[kind]["config.json"]
        if records := data.get("records"):
            pin["outcomes"] = [r["outcome_index"] for r in records]
            for flag in ("overflow", "ambiguous"):
                pin[flag] = [r["trial"] for r in records if r[flag]]
        if "counts" in data:
            pin["counts"] = data["counts"]
        if kind in summaries:
            pin["summary"] = flat_values(summaries[kind])
        if pin:
            pins[kind] = pin
    return pins


def pin_differences(expected: dict, actual: dict) -> list[str]:
    """What differs between two references: outcomes, flags, counts, the set
    of summary paths and booleans exactly, summary numbers beyond ``PIN_RTOL``."""
    diffs = []
    for kind in sorted(set(expected) | set(actual)):
        want, got = expected.get(kind), actual.get(kind)
        if want is None or got is None:
            diffs.append(f"{kind}: on one side only")
            continue
        diffs += [f"{kind}: {key} differs" for key in sorted(set(want) | set(got))
                  if key != "summary" and want.get(key) != got.get(key)]
        w_sum, g_sum = want.get("summary", {}), got.get("summary", {})
        diffs += [f"{kind}: summary {path} {w_sum.get(path)!r} -> {g_sum.get(path)!r}"
                  for path in sorted(set(w_sum) | set(g_sum))
                  if not _pin_close(w_sum.get(path), g_sum.get(path))]
    return diffs


def _pin_close(a, b) -> bool:
    """Numbers within ``PIN_RTOL`` of each other; a flag or a missing value only equals itself."""
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return abs(a - b) <= PIN_RTOL * max(abs(a), abs(b))


def pin_text(pins: dict) -> str:
    """The reference as JSON text, one line per kind and field."""
    kinds = []
    for kind, pin in sorted(pins.items()):
        fields = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                            for key, value in sorted(pin.items()))
        kinds.append(f"{json.dumps(kind)}: {{\n{fields}\n}}")
    return "{\n" + ",\n".join(kinds) + "\n}\n"


def record_differences(expected: dict, actual: dict) -> tuple[list[str], list[str], str]:
    """Outcome differences per kind, one report line per kind compared, and
    a line naming the largest number change over all kinds."""
    diffs, report = [], []
    largest = (0.0, "no numbers compared")
    for kind in sorted(set(expected) | set(actual)):
        if kind not in expected or kind not in actual:
            diffs.append(f"{kind}: outcomes on one side only")
            continue
        want, got = expected[kind], actual[kind]
        parts = []
        if want.get("counts") != got.get("counts"):
            diffs.append(f"{kind}: outcome counts {want.get('counts')} -> {got.get('counts')}")
        elif "counts" in want:
            parts.append("outcome counts equal")
        w_rec, g_rec = want.get("records", []), got.get("records", [])
        if len(w_rec) != len(g_rec):
            diffs.append(f"{kind}: {len(w_rec)} -> {len(g_rec)} records")
        elif w_rec:
            for a, b in zip(w_rec, g_rec):
                if (a["outcome_index"], a["overflow"]) != (b["outcome_index"], b["overflow"]):
                    diffs.append(f"{kind}: trial {a['trial']} outcome "
                                 f"{a['outcome_index']} overflow {a['overflow']} -> "
                                 f"{b['outcome_index']} overflow {b['overflow']}")
            dq2 = max(abs(a["q2_final"] - b["q2_final"]) for a, b in zip(w_rec, g_rec))
            parts.append(f"{len(w_rec)} records, max |dq2_final| {dq2:.3g}")
        w_tr, g_tr = want.get("trajectories", []), got.get("trajectories", [])
        if len(w_tr) != len(g_tr) or any(len(a) != len(b) for a, b in zip(w_tr, g_tr)):
            diffs.append(f"{kind}: trajectories.csv shapes differ")
        elif w_tr:
            cell = max(abs(x - y) for a, b in zip(w_tr, g_tr) for x, y in zip(a, b))
            parts.append(f"max |d| in trajectories.csv {cell:.3g}")
        w_num, g_num = want.get("numbers", {}), got.get("numbers", {})
        changes = {}
        for name in sorted(set(w_num) | set(g_num)):
            a, b = w_num.get(name), g_num.get(name)
            if a is None or b is None or len(a) != len(b):
                diffs.append(f"{kind}: numbers of {name} differ in count")
            else:
                changes[name] = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        if changes:
            name = max(changes, key=changes.get)
            parts.append(f"max |d| in numbers {changes[name]:.3g} ({name})")
            largest = max(largest, (changes[name], f"{kind} {name}"))
        report.append(f"{kind}: {', '.join(parts)}")
    return diffs, report, f"largest number change: {largest[0]:.3g} ({largest[1]})"


def differences(expected: dict, actual: dict) -> list[tuple[str, str]]:
    """Every (kind, file) whose hash differs or that only one side has."""
    out = []
    for kind in sorted(set(expected) | set(actual)):
        want, got = expected.get(kind, {}), actual.get(kind, {})
        out += [(kind, name) for name in sorted(set(want) | set(got))
                if want.get(name) != got.get(name)]
    return out


def report_records(expected: dict, outcomes: dict) -> int:
    """Print the outcome comparison; 1 if any outcome differs, else 0."""
    diffs, report, largest = record_differences(expected, outcomes)
    for line in report + [largest] + [f"differs: {d}" for d in diffs]:
        print(line)
    print(f"{len(diffs)} outcome differences in {len(report)} kinds")
    return 1 if diffs else 0


def report_hashes(expected: dict, hashes: dict) -> int:
    """Print the result-file comparison; 1 if any file differs, else 0."""
    diff = differences(expected, hashes)
    for kind, name in diff:
        print(f"differs: {kind} {name}")
    n_files = sum(len(files) for files in hashes.values())
    print(f"{len(diff)} differing of {n_files} files in {len(hashes)} kinds")
    return 1 if diff else 0


def report_parses(expected: dict, parses: dict) -> int:
    """Print the parse comparison; 1 if any exit code or violation path set differs, else 0."""
    diff = [name for name in sorted(set(expected) | set(parses))
            if expected.get(name) != parses.get(name)]
    for name in diff:
        print(f"parse differs: {name} {expected.get(name)} -> {parses.get(name)}")
    print(f"{len(diff)} parse differences in {len(parses)} invalid configs")
    return 1 if diff else 0


def side() -> dict:
    """Every kind, tolerating failures, and the corpus's parses: ``hashes``,
    ``outcomes``, ``failed`` (``{kind: error}``) and ``parses``."""
    failed = {}
    hashes, outcomes, _ = result_hashes(failed)
    return {"hashes": hashes, "outcomes": outcomes, "failed": failed,
            "parses": parse_outcomes()}


def against(rev: str) -> int:
    """Compare the package's ``src/`` at git revision ``rev`` with the working
    tree's; 1 if any file, outcome, kind or parse differs."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {rev: fresh_json(src_at(rev, Path(tmp)), "result_hashes", "side"),
                 "the working tree": fresh_json(ROOT / "src", "result_hashes", "side")}
    want, got = sides.values()
    # a kind one side did not run differs in both reports
    status = (report_records(want["outcomes"], got["outcomes"])
              | report_hashes(want["hashes"], got["hashes"])
              | report_parses(want["parses"], got["parses"]))
    for kind in sorted(set(want["hashes"]) ^ set(got["hashes"])):
        ran, other = list(sides) if kind in want["hashes"] else list(sides)[::-1]
        print(f"only {ran} ran {kind}: {sides[other]['failed'].get(kind, 'not a kind there')}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV",
                      help="compare files, outcomes and parses of src/ at a git revision "
                           "with the working tree's")
    mode.add_argument("--pin", metavar="FILE",
                      help="write the compact outcome reference that Tier-1 compares with")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    sys.path.insert(0, str(ROOT / "src"))
    hashes, outcomes, summaries = result_hashes()
    Path(args.pin).write_text(pin_text(pinned(outcomes, summaries, hashes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
