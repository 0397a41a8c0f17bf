"""Span tracing from outside the package, and the per-layer metrics built on it.

The tracer wraps public functions and methods of ``stochaction`` modules at
run time (every module-level binding of the same function object is
replaced, so ``from .x import f`` call sites are covered too).  Spans are
kept in memory and written out when the unit ends.  Each span records its
name, start, end, thread and the span that caused it; a span opened on a
worker thread with no open span of its own is caused by the innermost open
span of the main thread, which is the call that started the pool.
"""
from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def begin(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) or [None]
                parent = main[-1] if ident != self._main else None
            sid = len(self.spans)
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "thread": ident, "start": time.perf_counter(),
                               "end": None})
            stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        now = time.perf_counter()
        with self._lock:
            self.spans[sid]["end"] = now
            self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, kwargs, result)`` counts work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = union_length((max(a, lo), min(b, hi))
                               for a, b in children.get(s["id"], []))
        out[s["id"]] = (hi - lo) - covered
    return out


def nesting_violations(spans: list[dict], slack: float = 1e-9) -> list[tuple[int, int]]:
    """(child, parent) pairs where the child is unfinished or leaves its parent."""
    by_id = {s["id"]: s for s in spans}
    bad = []
    for s in spans:
        if s["end"] is None:
            bad.append((s["id"], s["parent"]))
            continue
        p = by_id.get(s["parent"])
        if p is not None and (p["end"] is None or s["start"] < p["start"] - slack
                              or s["end"] > p["end"] + slack):
            bad.append((s["id"], s["parent"]))
    return bad


# ---------------------------------------------------------------------------
# instrumentation of the stochaction layers
# ---------------------------------------------------------------------------

def _points(args) -> int:
    return int(np.prod(np.shape(args[1])[:-1]))


def _after_velocity(tr, args, kwargs, result):
    tr.add("trajectories.velocity.points", _points(args))


def _after_integrate(tr, args, kwargs, result):
    n_trials = len(result["configs"])
    tr.add("trajectories.chunk_steps", result["n_steps"])
    tr.add("trajectories.trial_steps", n_trials * result["n_steps"])
    tr.add("trajectories.node_clamped", int(np.count_nonzero(result["node_clamped"])))


def _after_run_ensemble(tr, args, kwargs, result):
    stats = result[1]
    tr.add("measurement.events", stats.n_trials)
    tr.add("measurement.ambiguous", stats.n_ambiguous)
    tr.add("measurement.overflow", stats.n_overflow)


def _after_write(tr, args, kwargs, result):
    out = args[0]
    total = sum(len(blob) for blob in out.files.values())
    tr.add("experiments.bytes_written", total + (out.out_dir / "manifest.json").stat().st_size)


def _after_build(tr, args, kwargs, result):
    tr.peak("gridop.nnz", result.matrix.nnz)


def _after_evolve_grid(tr, args, kwargs, result):
    n_steps = args[3] if len(args) > 3 else kwargs["n_steps"]
    tr.add("gridop.steps", n_steps)


def instrument(tracer: Tracer):
    """Wrap every traced layer entry point; returns a function that undoes it."""
    from stochaction import (cli, config, experiments, expressions, gridop,
                             measurement, potentials, rng, spectral, stochastic,
                             trajectories)

    functions = [
        (cli, "main", "cli.main", None),
        (config, "parse_config", "config.parse", None),
        (experiments, "run_experiment", "experiments.run", None),
        (measurement, "prepare_initial_state", "measurement.prepare", None),
        (measurement, "run_ensemble", "measurement.run_ensemble", _after_run_ensemble),
        (trajectories, "integrate_ensemble", "trajectories.integrate", _after_integrate),
        (trajectories, "equivariance_report", "trajectories.equivariance", None),
        (rng, "stream", "rng.stream", None),
        (stochastic, "sample_sign_path", "stochastic.sign_path", None),
        (spectral, "evolve_measurement_spectral", "spectral.evolve", None),
        (expressions, "compile_expression", "expressions.compile", None),
        (potentials, "run_lambda_sweep", "potentials.sweep", None),
        (potentials, "classical_limit_check", "potentials.classical", None),
        (gridop, "build_metric_hamiltonian", "gridop.build", _after_build),
        (gridop, "evolve_grid", "gridop.evolve", _after_evolve_grid),
        # the sparse factorization gridop binds from scipy, split out of evolve
        (gridop, "splu", "gridop.factor", None),
    ]
    methods = [
        (experiments.RunOutput, "write", "experiments.write", _after_write),
        (trajectories.ModeFlow, "__init__", "trajectories.flow_build", None),
        (trajectories.ModeFlow, "effective", "trajectories.velocity", _after_velocity),
        (trajectories.ModeFlow, "actual", "trajectories.velocity", _after_velocity),
        (trajectories.ModeFlow, "density", "trajectories.density", None),
        (gridop.GridOperator, "apply", "gridop.apply", None),
    ]
    undo = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "stochaction" or n.startswith("stochaction."))]
    for home, attr, name, after in functions:
        original = getattr(home, attr)
        traced = tracer.wrap(name, original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                undo.append((mod, attr, original))
    for cls, attr, name, after in methods:
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, after))
        undo.append((cls, attr, original))

    def uninstall():
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; every traced run reports all of them (0 where a layer is idle)
LAYER_METRICS = {
    "import_s": "s",
    "config.parse_s": "s",
    "measurement.prepare_s": "s",
    "trajectories.flow_build_s": "s",
    "expressions.compile_s": "s",
    "trajectories.integrate_s": "s",
    "trajectories.integrate.self_s": "s",
    "trajectories.trial_steps_per_s": "1/s",
    "trajectories.chunk_s": "s",
    "trajectories.velocity.calls": "count",
    "trajectories.velocity_s": "s",
    "trajectories.velocity_us_per_kpoint": "us",
    "trajectories.density.calls": "count",
    "trajectories.density_s": "s",
    "trajectories.node_rechecks": "count",
    "trajectories.node_clamped": "count",
    "trajectories.equivariance_s": "s",
    "measurement.run_ensemble_s": "s",
    "measurement.self_s": "s",
    "measurement.events": "count",
    "measurement.ambiguous": "count",
    "measurement.overflow": "count",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "spectral.evolve_s": "s",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "bytes",
    "stochastic.sign_paths": "count",
    "stochastic.sign_path_s": "s",
    "gridop.build.calls": "count",
    "gridop.build_s": "s",
    "gridop.nnz": "count",
    "gridop.evolve_s": "s",
    "gridop.factor_s": "s",
    "gridop.steps": "count",
    "gridop.step_ms": "ms",
    "gridop.apply.calls": "count",
    "gridop.apply_s": "s",
    "potentials.sweep_s": "s",
    "potentials.sweep.self_s": "s",
    "potentials.classical_s": "s",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans: list[dict], counters: dict[str, float], import_s: float) -> dict:
    """Per-layer figures of one traced unit (``trace.overhead_frac`` is left to the caller)."""
    selfs = self_times(spans)
    groups: dict[str, list[dict]] = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(groups.get(name, []))

    def total(name):
        return sum(s["end"] - s["start"] for s in groups.get(name, []))

    def own(name):
        return sum(selfs[s["id"]] for s in groups.get(name, []))

    def wall(name):
        return union_length((s["start"], s["end"]) for s in groups.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    integrate = groups.get("trajectories.integrate", [])
    steps = c("gridop.steps", 0)
    return {
        "import_s": import_s,
        "config.parse_s": total("config.parse"),
        "measurement.prepare_s": total("measurement.prepare"),
        "trajectories.flow_build_s": total("trajectories.flow_build"),
        "expressions.compile_s": total("expressions.compile"),
        "trajectories.integrate_s": wall("trajectories.integrate"),
        "trajectories.integrate.self_s": own("trajectories.integrate"),
        "trajectories.trial_steps_per_s": ratio(c("trajectories.trial_steps", 0),
                                                wall("trajectories.integrate")),
        "trajectories.chunk_s": (statistics.median(s["end"] - s["start"] for s in integrate)
                                 if integrate else 0.0),
        "trajectories.velocity.calls": calls("trajectories.velocity"),
        "trajectories.velocity_s": total("trajectories.velocity"),
        "trajectories.velocity_us_per_kpoint": ratio(
            1e6 * total("trajectories.velocity"),
            c("trajectories.velocity.points", 0) / 1000.0),
        "trajectories.density.calls": calls("trajectories.density"),
        "trajectories.density_s": total("trajectories.density"),
        "trajectories.node_rechecks": calls("trajectories.density")
        - c("trajectories.chunk_steps", 0),
        "trajectories.node_clamped": c("trajectories.node_clamped", 0),
        "trajectories.equivariance_s": total("trajectories.equivariance"),
        "measurement.run_ensemble_s": total("measurement.run_ensemble"),
        "measurement.self_s": own("measurement.run_ensemble"),
        "measurement.events": c("measurement.events", 0),
        "measurement.ambiguous": c("measurement.ambiguous", 0),
        "measurement.overflow": c("measurement.overflow", 0),
        "rng.streams": calls("rng.stream"),
        "rng.stream_s": total("rng.stream"),
        "spectral.evolve_s": total("spectral.evolve"),
        "experiments.self_s": own("experiments.run"),
        "experiments.write_s": total("experiments.write"),
        "experiments.bytes_written": c("experiments.bytes_written", 0),
        "stochastic.sign_paths": calls("stochastic.sign_path"),
        "stochastic.sign_path_s": total("stochastic.sign_path"),
        "gridop.build.calls": calls("gridop.build"),
        "gridop.build_s": total("gridop.build"),
        "gridop.nnz": c("gridop.nnz", 0),
        "gridop.evolve_s": total("gridop.evolve"),
        "gridop.factor_s": total("gridop.factor"),
        "gridop.steps": steps,
        "gridop.step_ms": ratio(1e3 * (total("gridop.evolve") - total("gridop.factor")),
                                steps),
        "gridop.apply.calls": calls("gridop.apply"),
        "gridop.apply_s": total("gridop.apply"),
        "potentials.sweep_s": total("potentials.sweep"),
        "potentials.sweep.self_s": own("potentials.sweep"),
        "potentials.classical_s": total("potentials.classical"),
        "trace.spans": len(spans),
    }
