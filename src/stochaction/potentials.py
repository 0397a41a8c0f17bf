"""Particles in external potentials: velocities, scale sweeps, classical limit.

This is the single-particle side of the model: the same exponential-law
machinery quantizes a classical Hamiltonian with metric, vector and scalar
potentials into the sandwich-ordered grid operator of :mod:`stochaction.gridop`,
and the companion velocity field carries the signed osmotic term.  The action
scale is a free parameter here; the usual quantum case is scale = 1 in hbar
units, and the sweep utilities probe the neighborhood of that point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (EPS_NODE_REL, FieldErrors, _is_number, field_errors, fork_map, fork_workers,
                   require_count)
from .expressions import compile_expression
from .gridop import (CartesianGrid, GridOperator, MetricPotentialSystem, _d1_4,
                     _validate_metric, build_metric_hamiltonian, check_residual_grid,
                     check_residual_snapshots, check_schedule, evolve_grid, interior_mask,
                     quantum_potential)

_COORD_NAMES = {1: ("q",), 2: ("x", "y")}
# largest magnitude an appendix section may give a coordinate, a packet
# parameter, the step, a field value or the inverse grid spacing, and a
# sweep its scales: the Hamiltonian, the observables and the residuals
# multiply a few of them and square the result, which then stays finite
APPENDIX_MAGNITUDE_MAX = 1e50


def system_from_expressions(dimension: int, metric=None, vector=None, scalar=None
                            ) -> MetricPotentialSystem:
    """Build a system from expression strings.

    ``metric`` is a single conformal-factor expression (isotropic metric) or
    a dict with keys like ``"g11", "g12", "g22"``; ``vector`` a sequence of
    component expressions; ``scalar`` one expression.  Coordinates are ``q``
    in one dimension and ``x, y`` in two.
    """
    names = _COORD_NAMES[dimension]

    def wrap_scalar(text):
        fn = compile_expression(text, names)
        return lambda coords: fn(*coords)

    scalar_fn = wrap_scalar(scalar) if scalar else None

    vector_fn = None
    if vector is not None:
        comps = [compile_expression(t, names) for t in vector]
        if len(comps) != dimension:
            raise ValueError("vector potential needs one component per dimension")

        def vector_fn(coords):
            return np.stack([c(*coords) for c in comps], axis=-1)

    if metric is None:
        return MetricPotentialSystem(dimension, None, vector_fn, scalar_fn)
    if isinstance(metric, str):
        conf = compile_expression(metric, names)
        return MetricPotentialSystem.isotropic(dimension, lambda coords: conf(*coords),
                                               scalar_fn, vector_fn)

    comp_fns = {key: compile_expression(text, names) for key, text in metric.items()}

    def metric_fn(coords):
        shape = coords[0].shape
        out = np.zeros(shape + (dimension, dimension))
        for key, fn in comp_fns.items():
            i, j = int(key[1]) - 1, int(key[2]) - 1
            vals = fn(*coords)
            out[..., i, j] = vals
            out[..., j, i] = vals
        return out

    return MetricPotentialSystem(dimension, metric_fn, vector_fn, scalar_fn)


@dataclass(frozen=True)
class AppendixSpec:
    """The ``appendix`` section: fields in ``q`` on ``n_points`` points of ``[x_min, x_max]``,
    a Gaussian start, its Cayley steps and the sweep's deltas.  Construction runs
    :func:`appendix_setup`, so a section that could not run fails before any step."""

    dimension: int = 1
    x_min: float = -8.0
    x_max: float = 8.0
    n_points: int = 512
    periodic: bool = False
    metric: str | dict | None = None
    vector: list | None = None
    scalar: str | None = None
    initial_center: float = 0.0
    initial_width: float = 1.0
    initial_momentum: float = 0.0
    dt: float = 0.002
    n_steps: int = 500
    record_every: int = 50
    deltas: list = field(default_factory=lambda: [0.0])
    residual_check: bool = False
    save_wavefunctions: bool = False

    def __post_init__(self):
        errors = [(key, message) for key, message, broken in (
            ("dimension", "only 1-D appendix runs are implemented", self.dimension != 1),
            *((key, f"must be at most {APPENDIX_MAGNITUDE_MAX:g} in magnitude",
               not abs(getattr(self, key)) <= APPENDIX_MAGNITUDE_MAX)
              for key in ("x_min", "x_max", "initial_center", "initial_width",
                          "initial_momentum", "dt")),
            ("initial_width", "must be positive", not self.initial_width > 0)) if broken]
        errors += field_errors(check_schedule, self.dt, self.n_steps, self.record_every)
        if self.residual_check and self.record_every >= 1:
            errors += field_errors(check_residual_snapshots,
                                   1 + self.n_steps // self.record_every, name="residual_check")
        grid_errors = field_errors(self.grid)
        errors += [({"maxs": "x_max", "ns": "n_points"}[name], message)
                   for name, message in grid_errors]
        if self.residual_check and not grid_errors:
            errors += field_errors(check_residual_grid, self.grid(), name="residual_check")
        if not errors:   # fields and packet on the grid, once every other key is valid
            errors += field_errors(appendix_setup, self)
        if not all(map(_is_number, self.deltas)):
            errors.append(("deltas", "every entry must be a number"))
        else:
            errors += field_errors(self.sweep, 1.0, name="deltas")
        if errors:
            raise FieldErrors(errors)

    def grid(self) -> CartesianGrid:
        return CartesianGrid((self.x_min,), (self.x_max,), (self.n_points,), (self.periodic,))

    def sweep(self, base: float) -> LambdaSweep:
        return LambdaSweep(tuple(map(float, self.deltas)), base)


def appendix_setup(spec: AppendixSpec):
    """Grid, field system and unit-norm initial packet of an appendix section.

    Each field is compiled and evaluated on the grid, and the packet's
    discrete norm must be positive and finite, so every defect raises
    :class:`FieldErrors` naming its field before any step is taken.
    """
    d = spec.dimension
    grid = spec.grid()
    if not grid.spacing(0) * APPENDIX_MAGNITUDE_MAX >= 1.0:
        raise FieldErrors([("x_max", f"the grid spacing must be at least "
                                     f"{1 / APPENDIX_MAGNITUDE_MAX:g}")])
    coords = grid.coords()
    parts = {}
    for key in ("metric", "vector", "scalar"):
        try:
            part = system_from_expressions(d, **{key: getattr(spec, key)})
            # a field outside its domain on the grid (q^0.5 at q < 0) is NaN there
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                values = [part.metric_field(coords), part.vector_field(coords),
                          part.scalar_field(coords)]
            if not all(np.all(np.isfinite(v)) for v in values):
                raise ValueError("values on the grid must be finite")
            _validate_metric(values[0], d)
        except (ValueError, IndexError, ArithmeticError, TypeError) as exc:
            # float arithmetic fails on constant parts: 0^-1, 10^400, (-8)^0.5
            raise FieldErrors([(key, str(exc))]) from exc
        if not all(np.all(np.abs(v) <= APPENDIX_MAGNITUDE_MAX) for v in values):
            raise FieldErrors([(key, f"values on the grid must be at most "
                                     f"{APPENDIX_MAGNITUDE_MAX:g} in magnitude")])
        parts[key] = part
    system = MetricPotentialSystem(d, parts["metric"].metric,
                                   parts["vector"].vector_potential,
                                   parts["scalar"].scalar_potential)
    x = grid.axis(0)
    width = spec.initial_width
    # a width whose square underflows gives 0/0 and x/0 here; the norm test rejects it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi0 = np.exp(-((x - spec.initial_center) ** 2) / (4.0 * width**2)
                      + 1j * spec.initial_momentum * x)
    norm2 = grid.norm2(psi0)
    if not (np.isfinite(norm2) and norm2 > 0):
        raise FieldErrors([("initial_center/initial_width",
                            f"the initial packet has discrete norm {norm2!r} on the grid; "
                            "it must overlap the grid's points")])
    return grid, system, psi0 / np.sqrt(norm2)


def appendix_velocity(psi: np.ndarray, system: MetricPotentialSystem,
                      grid: CartesianGrid, lambda_signed: float):
    """Velocity field ``v^i = g^{ij} (d_j S + (lambda/2) d_j Omega / Omega - a_j)``.

    Evaluated on the grid with 4th-order differences; returns the field and
    the mask of points where it is trustworthy (off nodes, off the boundary
    margin).  The osmotic term is linear in ``lambda_signed``, so averaging
    the two signs leaves the classical-looking ``g^{ij} (d_j S - a_j)`` drift,
    the field at ``lambda_signed = 0``.
    """
    coords = grid.coords()
    g = system.metric_field(coords)
    a = system.vector_field(coords)
    d = grid.dimension
    dens = np.abs(psi) ** 2
    safe = np.maximum(dens, 1e-300)
    valid = (dens > EPS_NODE_REL * dens.max()) & interior_mask(grid, 2)
    grads = []
    for j in range(d):
        dpsi = _d1_4(psi, grid.spacing(j), j)
        core = np.conj(psi) * dpsi
        grad_s = np.imag(core) / safe          # in units of the action scale = 1
        osm = np.real(core) / safe             # (1/2) d_j Omega / Omega
        grads.append((grad_s, osm))
    vel = np.zeros(grid.shape + (d,))
    for i in range(d):
        for j in range(d):
            grad_s, osm = grads[j]
            vel[..., i] += g[..., i, j] * (grad_s + lambda_signed * osm - a[..., j])
    vel[~valid] = 0.0
    return vel, valid


# ---------------------------------------------------------------------------
# scale sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSweep:
    """Relative scale offsets to probe, each once; 0 is the quantum reference point."""

    deltas: tuple[float, ...] = (0.0,)
    base: float = 1.0

    def __post_init__(self):
        # written so that a NaN fails them, before any worker starts
        if not 0.0 < self.base < np.inf:
            raise ValueError(f"the sweep's base must be positive and finite: {self.base!r}")
        if not all(-1.0 < d and lam <= APPENDIX_MAGNITUDE_MAX
                   for d, lam in zip(self.deltas, self.lambdas)):
            raise ValueError(f"the sweep's deltas must be above -1, with scales "
                             f"base * (1 + delta) at most {APPENDIX_MAGNITUDE_MAX:g}: "
                             f"{self.deltas!r}")
        if 0.0 not in self.deltas:
            raise ValueError("the sweep must contain the delta = 0 reference")
        # a repeated delta would run again and overwrite its own entry; 0.0 == -0.0
        if len(set(self.deltas)) != len(self.deltas):
            raise ValueError(f"the sweep's deltas must be distinct: {self.deltas!r}")

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(self.base * (1.0 + d) for d in self.deltas)


OBSERVABLE_MENU = ("norm", "position", "position_sq", "energy", "autocorr")


def _observables(psi: np.ndarray, psi0: np.ndarray, op: GridOperator,
                 grid: CartesianGrid) -> dict:
    dens = np.abs(psi) ** 2
    total = dens.sum() * grid.cell_volume
    coords = grid.coords()
    out = {"norm": float(total)}
    q1 = coords[0]
    out["position"] = float(np.sum(q1 * dens) * grid.cell_volume / total)
    out["position_sq"] = float(np.sum(q1**2 * dens) * grid.cell_volume / total)
    h_psi = op.apply(psi)
    out["energy"] = float(np.real(np.sum(np.conj(psi) * h_psi)) * grid.cell_volume / total)
    out["autocorr"] = float(np.abs(np.sum(np.conj(psi0) * psi) * grid.cell_volume) ** 2)
    return out


def run_lambda_sweep(system: MetricPotentialSystem, psi0: np.ndarray,
                     grid: CartesianGrid, sweep: LambdaSweep, dt: float,
                     n_steps: int, record_every: int) -> dict:
    """Evolve the same initial state at every scale in the sweep.

    Output maps each delta to a time series of the observables in
    ``OBSERVABLE_MENU`` plus the running deviation from the delta = 0 entry.
    The delta = 0 run uses the same code path as any other, so it doubles as
    the quantum reference.  Each scale is one task of :func:`fork_map`, on
    up to ``os.cpu_count()`` worker processes, with the same numbers at any
    worker count.
    """
    return _sweep(system, psi0, grid, sweep, dt, n_steps, record_every)[0]


def _sweep(system: MetricPotentialSystem, psi0: np.ndarray, grid: CartesianGrid,
           sweep: LambdaSweep, dt: float, n_steps: int, record_every: int
           ) -> tuple[dict, list[float], int]:
    """:func:`run_lambda_sweep`'s result, each scale's Hermiticity defect and
    the number of worker processes."""
    # checked here, not once per forked scale; the sweep compares snapshots
    check_schedule(dt, n_steps, record_every)
    require_count("record_every", record_every, 1)
    lambdas = sweep.lambdas

    def scale(i):
        # operator, factor and steps stay in the worker; rows and defect come back
        op = build_metric_hamiltonian(system, lambdas[i], grid)
        _, history = evolve_grid(psi0, op, dt, n_steps, record_every=record_every)
        rows = [{"t": float(t), **_observables(snap, psi0, op, grid)} for t, snap in history]
        return rows, op.hermiticity_defect()

    n = len(lambdas)
    runs = fork_map(scale, n, n)   # one process per scale, up to the CPU count
    results = {delta: {"lambda": lam, "series": rows}
               for delta, lam, (rows, _) in zip(sweep.deltas, lambdas, runs)}

    reference = results[0.0]["series"]
    for delta, entry in results.items():
        devs = []
        for row, ref in zip(entry["series"], reference):
            devs.append(max(abs(row[k] - ref[k]) for k in OBSERVABLE_MENU))
        entry["max_deviation_from_reference"] = float(np.max(devs))
    return results, [defect for _, defect in runs], fork_workers(n, n)


def classical_limit_check(system: MetricPotentialSystem, psi: np.ndarray,
                          grid: CartesianGrid, lambdas: tuple[float, ...]) -> dict:
    """Scale behavior of the curvature term and the velocity field.

    The curvature term carries an exact ``lambda^2`` prefactor, so halving
    the scale must quarter its norm; the velocity field converges to the
    drift ``g^{ij} (d_j S - a_j)`` at rate ``lambda``.  Velocity distances
    are density-weighted root-mean-square over the valid region, the norm a
    typical configuration actually samples.  Every scale must be positive
    and finite, as for :func:`build_metric_hamiltonian` (ValueError).
    """
    if not all(0 < lam < np.inf for lam in lambdas):   # written so that a NaN fails it
        raise ValueError(f"lambdas must be positive and finite, not {lambdas!r}")
    R = np.abs(psi)
    dens = R**2
    entries = []
    classical, valid0 = appendix_velocity(psi, system, grid, 0.0)
    for lam in sorted(lambdas, reverse=True):
        Q, q_valid = quantum_potential(R, system, grid, lam)
        q_norm = float(np.sqrt(np.mean(Q[q_valid] ** 2)))
        vel, v_valid = appendix_velocity(psi, system, grid, lam)
        mask = v_valid & valid0
        w = dens[mask] / dens[mask].sum()
        diff2 = np.sum((vel[mask] - classical[mask]) ** 2, axis=-1)
        v_dist = float(np.sqrt(np.sum(w * diff2)))
        entries.append({"lambda": lam, "quantum_potential_rms": q_norm,
                        "velocity_rms_distance": v_dist})
    ratios = []
    for a, b in zip(entries, entries[1:]):
        if abs(a["lambda"] / b["lambda"] - 2.0) < 1e-12:
            ratios.append(b["quantum_potential_rms"] / a["quantum_potential_rms"])
    return {"entries": entries, "halving_ratios": ratios}
