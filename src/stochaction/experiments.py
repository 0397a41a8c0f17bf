"""Batch experiment execution and artifact serialization.

Each experiment kind has one runner, ``_run_<kind>(cfg, out)``.  It adds its
result files to ``out`` and returns ``(summary, checks)``: the summary dict and
its declared ``(name, passed, detail)`` checks, or None for a kind that
declares none.  :func:`run_experiment` alone turns the checks into the exit
status and a ``checks`` block of the summary, and writes ``summary.json``.
Every run writes its result files plus ``manifest.json`` carrying the echoed
config, the package version, the seed, per-file content hashes, the wall
time, the environment (cpu count, requested threads, OpenBLAS threads,
library versions), for trajectory runs an ``ensemble`` block of run
counters (trials, decided trials and their mean decision time, node-clamped
trials, chunks, rows per chunk and worker processes used) and, for grid
runs, a ``grid`` block with each Cayley operator's Hermiticity defect and
worst snapshot norm drift (lambda sweeps add ``grid_workers``, the worker
processes used).
Result files are byte-identical across repeat runs and across worker counts
for a fixed (config, seed); the manifest is excluded from that contract
because it records the wall time, but its file-hash map is itself
deterministic.
"""
from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .core import DomainOverflowError, canonical_json, csv_text, field_to_csv
from .gridop import (blas_threads, build_metric_hamiltonian, evolve_grid,
                     verify_hjm_residual)
from .measurement import _collapsed, average_prior, run_ensemble
from .potentials import OBSERVABLE_MENU, _observables, _sweep, appendix_setup
from .rng import GENERIC, stream
from .stochastic import (ActionIncrement, check_separability, gaussian_log_weight,
                         sample_deviation, sample_sign_path)
from .trajectories import equivariance_report

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECKS = 3

# a runner's declared checks, or None, and what it returns
Checks = list[tuple[str, bool, str]] | None
Result = tuple[dict, Checks]


class RunOutput:
    """Collects result files, then writes them with a hashed manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.files: dict[str, bytes] = {}
        self.telemetry: dict = {}   # extra manifest blocks, outside the byte contract

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text.encode()

    def add_json(self, name: str, obj) -> None:
        self.add_text(name, canonical_json(obj))

    def write(self, cfg: ExperimentConfig, started: float) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        hashes = {}
        for name, blob in sorted(self.files.items()):
            (self.out_dir / name).write_bytes(blob)
            hashes[name] = hashlib.sha256(blob).hexdigest()
        manifest = {
            "config": cfg.raw,
            "seed": cfg["seed"],
            "package_version": __version__,
            "files": hashes,
            "wall_time_s": time.monotonic() - started,
            "environment": _environment(cfg["threads"]),
            **self.telemetry,
        }
        (self.out_dir / "manifest.json").write_bytes(canonical_json(manifest).encode())


def _environment(threads: int) -> dict:
    """Machine and library versions behind a run's numbers.

    Result bytes rest on the platform's math library and on numpy's
    ``tan`` (the velocity kernel builds exp(i x) from one ``tan``), so a run
    names where it ran.
    ``blas_threads`` is what scipy's OpenBLAS reports outside the Cayley
    solver, which holds it at one thread (None when none is loaded).
    """
    import platform

    import scipy

    return {"cpu_count": os.cpu_count(), "threads": threads,
            "blas_threads": blas_threads(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def _declared_checks(cfg: ExperimentConfig, summary: dict, checks: Checks) -> int:
    """Exit status of a runner's checks, put in ``summary`` if any and enabled."""
    if checks is None or not cfg["checks"]["enabled"]:
        return EXIT_OK
    passed = bool(all(ok for _, ok, _ in checks))
    summary["checks"] = {
        "passed": passed,
        "items": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
    }
    return EXIT_OK if passed else EXIT_CHECKS


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _ensemble(cfg: ExperimentConfig, state0, n_trials: int, seed: int,
              snapshot_steps: tuple[int, ...] = ()):
    """``run_ensemble`` of ``state0`` under the config's velocity, threads and
    ``fail_on_overflow``: the one way a run integrates an ensemble."""
    records, stats, extras = run_ensemble(
        state0, cfg.physical(), cfg.ensemble(), n_trials, seed,
        stoch=cfg.stochastic() if cfg["velocity"] == "actual" else None,
        threads=cfg["threads"], snapshot_steps=snapshot_steps)
    if cfg["ensemble"]["fail_on_overflow"]:
        for rec in records:
            if rec.overflow:
                raise DomainOverflowError(
                    f"trial {rec.trial_seed} left the pointer grid", trial=rec.trial_seed)
    return records, stats, extras


def _configured_run(cfg: ExperimentConfig, out: RunOutput, n_trials: int,
                    snapshot_steps: tuple[int, ...] = ()):
    """The configured state and ``n_trials`` of its ensemble; counters go to the manifest.

    Returns ``(state0, records, stats, extras)``.
    """
    state0 = cfg.state().prepare(cfg.physical(), cfg.grid())
    records, stats, extras = _ensemble(cfg, state0, n_trials, cfg["seed"], snapshot_steps)
    out.telemetry["ensemble"] = _ensemble_counters(extras)
    return state0, records, stats, extras


def _equivariance(cfg: ExperimentConfig, summary: dict, state0, extras: dict) -> None:
    """Equivariance of the run's final configurations (at t_M), put in ``summary`` if enabled."""
    if cfg["equivariance"]["enabled"]:
        espec = cfg.ensemble()
        # the key a snapshot at the last step has: steps * dt_traj + t0
        t_end = espec.n_steps(cfg.physical().t_M) * espec.dt_traj + state0.t
        report = equivariance_report({t_end: extras["final_configs"]}, state0,
                                     cfg.physical().g, n_bins=cfg["equivariance"]["n_bins"])
        summary["equivariance"] = {repr(t): r for t, r in report.items()}


def _run_born(cfg: ExperimentConfig, out: RunOutput) -> Result:
    state0, records, stats, extras = _configured_run(cfg, out, cfg["ensemble"]["n_trials"])
    out.add_text("records.jsonl", "".join(r.json_line() for r in records))
    summary = {"stats": stats.to_dict()}
    table = [summary["stats"][key] for key in ("indices", "omegas", "counts", "frequencies",
                                               "reference", "standard_errors")]
    out.add_text("frequencies.csv", csv_text(zip(*table), ["outcome_index", "omega", "count",
                                                           "frequency", "reference", "se"]))
    ck = cfg["checks"]
    items = [
        ("ambiguous_rate", stats.ambiguous_rate < ck["max_ambiguous_rate"],
         f"rate {stats.ambiguous_rate:.2e} budget {ck['max_ambiguous_rate']:.2e}"),
        ("chi2_p", stats.chi2_p > ck["chi2_p_min"],
         f"p {stats.chi2_p:.4g} floor {ck['chi2_p_min']}"),
    ]
    if ck["freq_within_3sigma"]:
        dev = np.abs(stats.frequencies - stats.reference)
        ok = bool(np.all(dev <= 3.0 * stats.standard_errors + 1e-15))
        items.append(("freq_within_3sigma", ok, f"max |f - p| = {float(dev.max()):.4g}"))
    _equivariance(cfg, summary, state0, extras)
    return summary, items


def _run_trajectories(cfg: ExperimentConfig, out: RunOutput) -> Result:
    n_steps = cfg.ensemble().n_steps(cfg.physical().t_M)
    n_store = min(cfg["ensemble"]["n_store"], cfg["ensemble"]["n_trials"])
    stored = range(0, n_steps + 1, cfg["ensemble"]["store_every"])

    state0, _, stats, extras = _configured_run(cfg, out, cfg["ensemble"]["n_trials"],
                                               tuple(stored))
    # snapshot times ascend with their steps
    snaps = dict(zip(stored, sorted(extras["snapshots"].items())))
    # the sign each trial holds at each snapshot, one column per step
    signs = dict(zip(stored, extras["snapshot_signs"].T))
    rows = []
    for trial in range(n_store):
        for k in stored:
            t, pts = snaps[k]
            rows.append([trial, float(t), float(np.mod(pts[trial, 0], 2 * np.pi)),
                         float(pts[trial, 1]), int(signs[k][trial])])
    out.add_text("trajectories.csv",
                 csv_text(rows, ["trial", "t", "theta1", "q2", "lambda_sign"]))

    final = extras["final_configs"]
    hist_theta, edges_theta = np.histogram(np.mod(final[:, 0], 2 * np.pi), bins=36,
                                           range=(0.0, 2 * np.pi))
    hist_q2, edges_q2 = np.histogram(final[:, 1], bins=50,
                                     range=(state0.grid.q2_min, state0.grid.q2_max))
    summary = {
        "endpoint_histograms": {
            "theta": {"counts": hist_theta.tolist(), "edges": edges_theta.tolist()},
            "q2": {"counts": hist_q2.tolist(), "edges": edges_q2.tolist()},
        },
        "stats": stats.to_dict(),
    }
    _equivariance(cfg, summary, state0, extras)
    return summary, None


def _run_prior_average(cfg: ExperimentConfig, out: RunOutput) -> Result:
    result = average_prior(cfg.coefficients(), cfg.basis(), cfg["prior"]["n_mc"],
                           cfg["seed"], lambda_mag=cfg.physical().lambda_mag)
    z = abs(result["mean"] - result["analytic"]) / max(result["se"], 1e-300)
    return {"prior_average": result, "z_score": z}, [
        ("mc_matches_analytic", z <= cfg["prior"]["z_max"],
         f"z = {z:.3f} limit {cfg['prior']['z_max']}")]


def _run_repeatability(cfg: ExperimentConfig, out: RunOutput) -> Result:
    # trial 0 of the seed's ensemble, as run_single_event draws it
    state0, (first,), _, first_extras = _configured_run(cfg, out, 1)
    n_rep = cfg["repeat"]["n_repeats"]
    summary = {"first_outcome": first.outcome_index, "n_repeats": n_rep}
    if first.outcome_index is None:
        # a flagged first event names no eigenstate to repeat
        agree, detail = 0, "first event was flagged; no repeats run"
    else:
        eigenstate = _collapsed(state0, first.outcome_index, cfg.physical())
        records, _, extras = _ensemble(cfg, eigenstate, n_rep, cfg["seed"] + 1)
        out.telemetry["ensemble"] = _ensemble_counters(first_extras, extras)
        agree = sum(1 for r in records if r.outcome_index == first.outcome_index)
        detail = f"{agree}/{n_rep}"
    summary.update(n_agreeing=agree, agreement=agree / n_rep)
    return summary, [
        ("always_same_outcome", agree == n_rep and first.outcome_index is not None, detail)]


def _ensemble_counters(*extras) -> dict:
    """Counters of the trajectory ensembles behind one run, summed over them;
    ``chunk_rows`` is the largest chunk's row count."""
    decided_at = np.concatenate([e["decided_at"] for e in extras])
    decided = decided_at[~np.isnan(decided_at)]
    return {"n_trials": len(decided_at), "n_decided": len(decided),
            "mean_decision_time": float(decided.mean()) if len(decided) else None,
            "n_node_clamped": sum(int(np.count_nonzero(e["node_clamped"])) for e in extras),
            "node_held_steps": sum(e["node_held_steps"] for e in extras),
            "chunks": sum(e["chunks"] for e in extras),
            "chunk_rows": max(e["chunk_rows"] for e in extras),
            "workers": max(e["workers"] for e in extras)}


def _grid_health(lambda_mag: float, defect: float, norms) -> dict:
    """Solver health of one Cayley run: Hermiticity defect and worst norm drift."""
    return {"lambda_mag": lambda_mag, "hermiticity_defect": defect,
            "max_norm_error": max(abs(n - 1.0) for n in norms)}


def _run_appendix(cfg: ExperimentConfig, out: RunOutput) -> Result:
    app = cfg.appendix()
    grid, system, psi0 = appendix_setup(app)
    lam = cfg.physical().lambda_mag
    op = build_metric_hamiltonian(system, lam, grid)
    final, history = evolve_grid(psi0, op, app.dt, app.n_steps, record_every=app.record_every)
    names = ["norm", "position", "position_sq"]
    rows = []
    for t, snap in history:
        obs = _observables(snap, psi0, op, grid)
        rows.append([float(t)] + [obs[k] for k in names])
    out.add_text("observables.csv", csv_text(rows, ["t"] + names))
    out.telemetry["grid"] = [_grid_health(lam, op.hermiticity_defect(),
                                          [row[1] for row in rows])]
    summary = {"final_norm": float(grid.norm2(final)), "n_steps": app.n_steps,
               "lambda_mag": lam}
    if app.residual_check:
        summary["hjm_residuals"] = verify_hjm_residual(history, system, grid, lam)
    if app.save_wavefunctions:
        out.add_text("psi_final.csv", field_to_csv(final, [grid.axis(0)], ["q"]))
    return summary, None


def _run_lambda_sweep(cfg: ExperimentConfig, out: RunOutput) -> Result:
    app = cfg.appendix()
    grid, system, psi0 = appendix_setup(app)
    sweep = app.sweep(cfg.physical().lambda_mag)
    results, defects, workers = _sweep(system, psi0, grid, sweep, app.dt, app.n_steps,
                                       app.record_every)
    rows = [[float(delta), float(results[delta]["lambda"]), float(row["t"])]
            + [float(row[k]) for k in OBSERVABLE_MENU]
            for delta in sorted(results) for row in results[delta]["series"]]
    out.add_text("sweep.csv", csv_text(rows, ["delta", "lambda", "t", *OBSERVABLE_MENU]))
    defects = dict(zip(sweep.deltas, defects))
    out.telemetry["grid"] = [
        _grid_health(results[d]["lambda"], defects[d],
                     [row["norm"] for row in results[d]["series"]])
        for d in sorted(results)]
    out.telemetry["grid_workers"] = workers
    deviations = {repr(d): results[d]["max_deviation_from_reference"] for d in sorted(results)}
    ref_dev = results[0.0]["max_deviation_from_reference"]
    return {"deviations": deviations}, [
        ("reference_zero_deviation", ref_dev == 0.0, f"delta=0 deviation {ref_dev!r}")]


def _run_stochastic_check(cfg: ExperimentConfig, out: RunOutput) -> Result:
    lam = cfg.physical().lambda_mag
    n = cfg["checks"]["n_draws"]
    r = stream(cfg["seed"], GENERIC, 0)
    draws = sample_deviation(lam, +1, r, size=n)
    mean_abs = float(np.mean(np.abs(draws)))
    sign_locked = bool(np.all(draws >= 0.0))
    expected = lam / 2.0

    path = sample_sign_path(cfg.stochastic(), n, stream(cfg["seed"], GENERIC, 1))
    sign_mean = float(np.mean(path))
    lag1 = float(np.mean(path[:-1] * path[1:]))

    r2 = stream(cfg["seed"], GENERIC, 2)
    worst = 0.0
    worst_gauss = 0.0
    for _ in range(1000):
        inc1 = ActionIncrement.from_deviation(float(r2.uniform(0.0, 2.0)))
        inc2 = ActionIncrement.from_deviation(float(r2.uniform(0.0, 2.0)))
        th1, th2 = r2.uniform(0.0, 0.5, size=2)
        lpj, lp1, lp2 = check_separability(inc1, inc2, lam, th1, th2)
        worst = max(worst, abs(lpj - lp1 - lp2))
        gj, g1, g2 = check_separability(inc1, inc2, lam, th1, th2,
                                        log_weight=gaussian_log_weight)
        worst_gauss = max(worst_gauss, abs(gj - g1 - g2))

    summary = {
        "mean_abs_deviation": mean_abs,
        "expected_mean": expected,
        "sign_locked": sign_locked,
        "sign_path_mean": sign_mean,
        "sign_path_lag1": lag1,
        "separability_max_error": float(worst),
        "gaussian_control_max_error": float(worst_gauss),
        "n_draws": n,
    }
    rtol = cfg["checks"]["mean_abs_dev_rtol"]
    return summary, [
        ("mean_abs_deviation", abs(mean_abs - expected) <= rtol * expected,
         f"{mean_abs:.5f} vs {expected:.5f}"),
        ("sign_lock", sign_locked, "all draws share the scale sign"),
        ("separability", worst < 1e-12, f"max error {worst:.3e}"),
        ("gaussian_control_fails", worst_gauss > 1e-2,
         f"gaussian max error {worst_gauss:.3e}"),
    ]


_RUNNERS = {
    "born": _run_born,
    "trajectories": _run_trajectories,
    "prior-average": _run_prior_average,
    "repeatability": _run_repeatability,
    "appendix": _run_appendix,
    "lambda-sweep": _run_lambda_sweep,
    "stochastic-check": _run_stochastic_check,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute a validated config; returns the exit status (0 or 3).

    Runtime failures raise; the CLI turns them into a structured error file
    and exit status 2.
    """
    started = time.monotonic()
    out = RunOutput(Path(cfg["out_dir"]))
    summary, checks = _RUNNERS[cfg["experiment"]](cfg, out)
    status = _declared_checks(cfg, summary, checks)
    out.add_json("summary.json", summary)
    out.write(cfg, started)
    return status
