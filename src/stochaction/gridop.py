"""Grid Hamiltonians and unitary propagation for particles in external potentials.

Supports 1-D and 2-D Cartesian grids, per-axis periodic or vanishing-boundary
conditions, and Hamiltonians of the form

    H = 1/2 (p - a) g(q) (p - a) + V,     p = -i lambda d/dq,

with a position-dependent symmetric positive-definite metric g, covector
potential a and scalar potential V.  The kinetic sandwich is discretized so
that Hermiticity holds by construction: the diagonal blocks use the
conservative half-point stencil for d(g d.)/dq and the cross blocks pair the
antisymmetric central-difference matrix with the metric diagonal in both
orders.  Each axis operator is assembled in one pass from the flat indices of
neighbouring grid points, the same code for any dimension and any mix of
periodic axes.  Time stepping is the Cayley (implicit midpoint) form, which
is unitary for any Hermitian matrix and second order in dt.  The transpose
of its matrix ``I + (i dt / 2 lambda) H`` is factored once per run with a
fill-reducing ordering for symmetric patterns, and each step is then a
single transposed sparse solve.
The factorization and the steps run on one thread of scipy's OpenBLAS: a
second thread on the large dense blocks of the supernodal factor and solve
costs CPU and gains no wall time, and one thread keeps the arithmetic
independent of the thread count OpenBLAS would pick on a given machine.
"""
from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (EPS_NODE_REL, FieldErrors, InvalidSystemError, NumericalError,
                   field_errors, require_count)


@dataclass(frozen=True, eq=False)
class CartesianGrid:
    """Uniform rectangular grid, one or two axes.

    Non-periodic axes hold interior points only; the field is implicitly zero
    just outside, which is the vanishing-boundary convention used throughout.
    """

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    ns: tuple[int, ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        d = len(self.ns)
        if d not in (1, 2):
            raise InvalidSystemError("only 1-D and 2-D grids are supported")
        if not (len(self.mins) == len(self.maxs) == len(self.periodic) == d):
            raise InvalidSystemError("grid axis descriptors disagree in length")
        # written so that a NaN fails it
        spans = all(hi > lo for lo, hi in zip(self.mins, self.maxs))
        errors = [(name, message) for name, message, ok in (
            ("maxs", "each axis needs hi > lo", spans),
            ("ns", "each axis needs at least 8 points", min(self.ns) >= 8)) if not ok]
        if errors:
            raise FieldErrors(errors)

    @property
    def dimension(self) -> int:
        return len(self.ns)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.ns)

    @property
    def size(self) -> int:
        return int(np.prod(self.ns))

    def spacing(self, axis: int) -> float:
        lo, hi, n = self.mins[axis], self.maxs[axis], self.ns[axis]
        return (hi - lo) / n if self.periodic[axis] else (hi - lo) / (n + 1)

    def axis(self, axis: int) -> np.ndarray:
        h = self.spacing(axis)
        lo = self.mins[axis]
        if self.periodic[axis]:
            return lo + h * np.arange(self.ns[axis])
        return lo + h * (np.arange(self.ns[axis]) + 1)

    def coords(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[self.axis(i) for i in range(self.dimension)],
                                indexing="ij"))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for i in range(self.dimension):
            v *= self.spacing(i)
        return v

    def norm2(self, psi: np.ndarray) -> float:
        return float(np.sum(np.abs(psi) ** 2) * self.cell_volume)


@dataclass(frozen=True, eq=False)
class MetricPotentialSystem:
    """Metric, vector and scalar potential fields as grid-evaluable callables.

    Each callable receives the list of coordinate arrays from
    ``CartesianGrid.coords`` and returns fields of shape ``grid + (d, d)``,
    ``grid + (d,)`` and ``grid`` respectively.  ``None`` means flat / absent.
    """

    dimension: int
    metric: Callable | None = None
    vector_potential: Callable | None = None
    scalar_potential: Callable | None = None

    def metric_field(self, coords: list[np.ndarray]) -> np.ndarray:
        shape = coords[0].shape
        d = self.dimension
        if self.metric is None:
            out = np.zeros(shape + (d, d))
            for i in range(d):
                out[..., i, i] = 1.0
            return out
        g = np.asarray(self.metric(coords), dtype=float)
        if g.shape != shape + (d, d):
            raise InvalidSystemError(f"metric field has shape {g.shape}, expected {shape + (d, d)}")
        return g

    def vector_field(self, coords: list[np.ndarray]) -> np.ndarray:
        shape = coords[0].shape
        if self.vector_potential is None:
            return np.zeros(shape + (self.dimension,))
        a = np.asarray(self.vector_potential(coords), dtype=float)
        if a.shape != shape + (self.dimension,):
            raise InvalidSystemError("vector potential field shape mismatch")
        return a

    def scalar_field(self, coords: list[np.ndarray]) -> np.ndarray:
        if self.scalar_potential is None:
            return np.zeros(coords[0].shape)
        v = np.asarray(self.scalar_potential(coords), dtype=float)
        if v.shape != coords[0].shape:
            raise InvalidSystemError("scalar potential field shape mismatch")
        return v

    @classmethod
    def isotropic(cls, dimension: int, conformal: Callable,
                  scalar: Callable | None = None,
                  vector: Callable | None = None) -> "MetricPotentialSystem":
        """Metric ``f(q) * identity`` from a scalar callable ``f``."""

        def metric(coords):
            f = np.asarray(conformal(coords), dtype=float)
            out = np.zeros(f.shape + (dimension, dimension))
            for i in range(dimension):
                out[..., i, i] = f
            return out

        return cls(dimension=dimension, metric=metric, vector_potential=vector,
                   scalar_potential=scalar)


def _validate_metric(g: np.ndarray, d: int) -> None:
    if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
        raise InvalidSystemError("metric must be symmetric at every grid point")
    if d == 1:
        if np.any(g[..., 0, 0] <= 0):
            raise InvalidSystemError("metric must be positive at every grid point")
        return
    tr = g[..., 0, 0] + g[..., 1, 1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.any(g[..., 0, 0] <= 0) or np.any(det <= 0) or np.any(tr <= 0):
        raise InvalidSystemError("metric must be positive-definite at every grid point")


def _neighbours(grid: CartesianGrid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of each grid point and of its ``+1`` neighbour along ``axis``.

    On a non-periodic axis the wrap-around pair is dropped.
    """
    index = np.arange(grid.size).reshape(grid.shape)
    nxt = np.roll(index, -1, axis)
    if not grid.periodic[axis]:
        index, nxt = np.moveaxis(index, axis, 0)[:-1], np.moveaxis(nxt, axis, 0)[:-1]
    return index.ravel(), nxt.ravel()


def _derivative(grid: CartesianGrid, axis: int) -> sp.csr_matrix:
    """Antisymmetric central difference ``d/dq`` along ``axis``."""
    i, j = _neighbours(grid, axis)
    half = np.full(len(i), 0.5 / grid.spacing(axis))
    return sp.csr_matrix((np.concatenate([half, -half]),
                          (np.concatenate([i, j]), np.concatenate([j, i]))),
                         shape=(grid.size, grid.size))


def _divergence_form(coeff: np.ndarray, grid: CartesianGrid, axis: int) -> sp.csr_matrix:
    """Symmetric stencil for ``d/dq (c(q) d/dq .)`` along ``axis``, half-point coefficients.

    Beyond a non-periodic edge the half-point coefficient is the edge value.
    """
    h = grid.spacing(axis)
    c_plus = 0.5 * (coeff + np.roll(coeff, -1, axis))
    c_minus = np.roll(c_plus, 1, axis)
    if not grid.periodic[axis]:
        edges = np.moveaxis(coeff, axis, 0)
        np.moveaxis(c_plus, axis, 0)[-1] = edges[-1]
        np.moveaxis(c_minus, axis, 0)[0] = edges[0]
    i, j = _neighbours(grid, axis)
    off = c_plus.ravel()[i] / h**2
    every = np.arange(grid.size)
    return sp.csr_matrix((np.concatenate([-(c_plus + c_minus).ravel() / h**2, off, off]),
                          (np.concatenate([every, i, j]), np.concatenate([every, j, i]))),
                         shape=(grid.size, grid.size))


@dataclass(frozen=True, eq=False)
class GridOperator:
    """Sparse Hermitian operator bound to its grid and momentum scale."""

    matrix: sp.spmatrix
    grid: CartesianGrid
    lambda_mag: float

    def hermiticity_defect(self) -> float:
        diff = (self.matrix - self.matrix.conjugate().T).tocoo()
        return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return (self.matrix @ psi.ravel()).reshape(psi.shape)


def build_metric_hamiltonian(system: MetricPotentialSystem, lambda_mag: float,
                             grid: CartesianGrid) -> GridOperator:
    """Sandwich-ordered Hamiltonian ``1/2 (p - a) g (p - a) + V``.

    Hermiticity is structural: every kinetic block is assembled from
    symmetric or antisymmetric factors in a self-adjoint combination, so no
    symmetrization fix-up is applied afterwards.
    """
    if not 0 < lambda_mag < np.inf:   # written so that a NaN fails it
        raise ValueError(f"lambda_mag must be positive and finite, not {lambda_mag!r}")
    if system.dimension != grid.dimension:
        raise InvalidSystemError("system and grid dimensions disagree")
    d = grid.dimension
    coords = grid.coords()
    g = system.metric_field(coords)
    a = system.vector_field(coords)
    v = system.scalar_field(coords)
    _validate_metric(g, d)

    lam2 = lambda_mag**2
    H = sp.csr_matrix((grid.size, grid.size), dtype=complex)

    D = [_derivative(grid, i) for i in range(d)]

    # kinetic sandwich p_i g^{ij} p_j
    for i in range(d):
        H = H + (-0.5 * lam2) * _divergence_form(g[..., i, i], grid, i)
    if d == 2:
        # D1 G12 D0 = X.T as both D are antisymmetric; taking the transpose
        # rather than a second product keeps the sum exactly symmetric
        # whatever the two spacings
        X = D[0] @ sp.diags(g[..., 0, 1].ravel()) @ D[1]
        H = H + (-0.5 * lam2) * (X + X.T)

    # gauge cross terms -(p_i b_i + b_i p_i)/2 with b_i = g^{ij} a_j
    if system.vector_potential is not None:
        for i in range(d):
            b = np.einsum("...j,...j->...", g[..., i, :], a)
            B = sp.diags(b.ravel())
            H = H + (0.5j * lambda_mag) * (D[i] @ B + B @ D[i])

    # scalar part a g a / 2 + V
    aga = 0.5 * np.einsum("...i,...ij,...j->...", a, g, a)
    H = H + sp.diags((aga + v).ravel())

    return GridOperator(matrix=H.tocsr(), grid=grid, lambda_mag=lambda_mag)


def _fresh_blas_state() -> None:
    """An unheld lock and a zero depth for :func:`_one_blas_thread`.

    Run again in every forked child: a thread of the parent that held the
    lock at the fork does not exist there, and would never release it.
    """
    global _BLAS_LOCK, _blas
    _BLAS_LOCK = threading.Lock()
    _blas = {"depth": 0, "saved": None}


_fresh_blas_state()
os.register_at_fork(after_in_child=_fresh_blas_state)


@functools.cache
def _openblas_calls():
    """``(get_num_threads, set_num_threads)`` of scipy's loaded OpenBLAS, or None.

    Looked up once per process among the shared objects already mapped
    (``/proc/self/maps``, so Linux only); scipy's own build names its entry
    points ``scipy_openblas_*``, a system OpenBLAS ``openblas_*``.  numpy's
    64-bit-integer OpenBLAS exports neither pair and is left alone.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({fields[-1] for fields in map(str.split, fh)
                            if len(fields) == 6 and "openblas" in os.path.basename(fields[-1])})
    except OSError:
        return None
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads", None)
            put = getattr(lib, f"{prefix}_set_num_threads", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """Thread count scipy's OpenBLAS reports here, or None if none is loaded."""
    calls = _openblas_calls()
    return None if calls is None else calls[0]()


@contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread; the outermost exit restores the count.

    A lock and a depth count make nested and concurrent callers share one
    save and one restore.
    """
    calls = _openblas_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _BLAS_LOCK:
        if _blas["depth"] == 0:
            _blas["saved"] = get()
            put(1)
        _blas["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas["depth"] -= 1
            if _blas["depth"] == 0:
                put(_blas["saved"])


def check_schedule(dt: float, n_steps: int, record_every: int | None = None) -> None:
    """:func:`evolve_grid`'s schedule: a finite ``dt > 0``, and ``n_steps`` and, unless None,
    ``record_every`` integers ``>= 1``; raises :class:`FieldErrors` naming each that breaks it."""
    # written so that a NaN dt fails it
    errors = [] if 0 < dt < np.inf else [("dt", f"must be a finite dt > 0, not {dt!r}")]
    errors += field_errors(require_count, "n_steps", n_steps, 1)
    if record_every is not None:
        errors += field_errors(require_count, "record_every", record_every, 1)
    if errors:
        raise FieldErrors(errors)


def evolve_grid(psi: np.ndarray, op: GridOperator, dt: float, n_steps: int,
                record_every: int | None = None):
    """Cayley-stepped evolution of ``i lambda dpsi/dt = H psi``.

    Returns the final field, or ``(final, history)`` with ``history`` a list
    of ``(t, field)`` snapshots every ``record_every`` steps (snapshot 0
    included).  The one-step map is exactly unitary up to the direct-solver
    roundoff, so norm drift is a solver health check, not a scheme property.

    ``A = I + zH`` with ``z = i dt / (2 lambda)`` is solved through an LU
    factorization of its transpose ``A^T``, taken once with SuperLU's
    partial pivoting and a multiple minimum degree ordering of ``A^T + A``.
    Every stencil here has a symmetric pattern, and that ordering leaves 37%
    less fill in L + U than the default column ordering (1.13M against 1.80M
    entries on a 128x128 grid).  Since ``A^-1 (I - zH) = 2 A^-1 - I``, a
    step is one solve and no mat-vec, here the transposed solve
    (``trans="T"``) of the ``A^T`` factor.  On the 128x128 ``sweep-2d``
    operator that factor has the same fill and diagonal pivots as a factor
    of ``A``, and its transposed solve took 2.97 ms against 3.54 ms for the
    plain solve of ``A``'s factor (shared 2-vCPU x86-64 host).  Why it is
    faster is not verified; it reads the same factor row-wise instead of
    scattering it column-wise.

    The factorization and every solve run with scipy's OpenBLAS held at one
    thread, and the caller's thread count is restored on every exit.  On
    2-D grids OpenBLAS would wake a second thread for the large dense
    blocks of both; on a ``sweep-2d`` unit that cost about 0.8 s of CPU in
    3.4 s and saved no wall time.  A threaded factorization also rounds
    some entries of L and U differently (grids from about 64x64), so one
    thread makes the results the same on any core count.
    """
    check_schedule(dt, n_steps, record_every)
    shape = psi.shape
    vec = np.asarray(psi, dtype=complex).ravel()
    z = 0.5j * dt / op.lambda_mag
    eye = sp.identity(op.grid.size, format="csc", dtype=complex)
    A_T = (eye + z * op.matrix).T.tocsc()
    history = []
    if record_every:
        history.append((0.0, vec.reshape(shape).copy()))
    with _one_blas_thread():
        try:
            lu = splu(A_T, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factorization
            raise NumericalError(f"Cayley factorization failed: {exc}") from exc
        for k in range(n_steps):
            vec = 2.0 * lu.solve(vec, trans="T") - vec
            if not np.all(np.isfinite(vec)):
                raise NumericalError(f"non-finite field after step {k + 1}; "
                                     f"dt={dt}, lambda={op.lambda_mag}")
            if record_every and (k + 1) % record_every == 0:
                history.append(((k + 1) * dt, vec.reshape(shape).copy()))
    out = vec.reshape(shape)
    if record_every:
        return out, history
    return out


# ---------------------------------------------------------------------------
# finite-difference diagnostics (4th-order interior stencils)
# ---------------------------------------------------------------------------

def _d1_4(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Wraps every axis; ``interior_mask`` drops the wrapped non-periodic edges."""
    fp1, fp2 = np.roll(f, -1, axis), np.roll(f, -2, axis)
    fm1, fm2 = np.roll(f, 1, axis), np.roll(f, 2, axis)
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)


def _d2_4(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    fp1, fp2 = np.roll(f, -1, axis), np.roll(f, -2, axis)
    fm1, fm2 = np.roll(f, 1, axis), np.roll(f, 2, axis)
    return (-fm2 + 16.0 * fm1 - 30.0 * f + 16.0 * fp1 - fp2) / (12.0 * h**2)


def interior_mask(grid: CartesianGrid, margin: int) -> np.ndarray:
    """True away from non-periodic boundaries by at least ``margin`` layers."""
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.dimension):
        if grid.periodic[ax]:
            continue
        sl = [slice(None)] * grid.dimension
        sl[ax] = slice(0, margin)
        mask[tuple(sl)] = False
        sl[ax] = slice(grid.ns[ax] - margin, grid.ns[ax])
        mask[tuple(sl)] = False
    return mask


def quantum_potential(R: np.ndarray, system: MetricPotentialSystem, grid: CartesianGrid,
                      lambda_mag: float):
    """Curvature term of the modified Hamilton-Jacobi balance.

    Returns ``(Q, valid_mask)`` with

        Q = -(lambda^2 / 2) (g^{ij} d_i d_j R + (d_i g^{ij}) d_j R) / R

    so that ``dS/dt + g(dS - a)^2 / 2 + V + Q = 0`` on smooth solutions.  The
    mask excludes nodes and the finite-difference boundary margin.  Scaling
    in lambda is exact because lambda enters only through the prefactor.
    """
    coords = grid.coords()
    g = system.metric_field(coords)
    d = grid.dimension
    dR = [_d1_4(R, grid.spacing(i), i) for i in range(d)]
    ddR = np.zeros_like(R)
    div_term = np.zeros_like(R)
    for i in range(d):
        for j in range(d):
            gij = g[..., i, j]
            if i == j:
                dij = _d2_4(R, grid.spacing(i), i)
            else:
                dij = _d1_4(dR[j], grid.spacing(i), i)
            ddR += gij * dij
            div_term += _d1_4(gij, grid.spacing(i), i) * dR[j]
    peak = float((R**2).max())
    valid = (R**2 > EPS_NODE_REL * peak) & interior_mask(grid, 4)
    safe_R = np.where(valid, R, 1.0)
    Q = -(lambda_mag**2 / 2.0) * (ddR + div_term) / safe_R
    Q[~valid] = 0.0
    return Q, valid


# residuals are taken where the density exceeds this fraction of its peak
_BULK_THRESHOLD = 1e-6
# and this many layers in from each non-periodic edge, past the 4th-order stencils
_RESIDUAL_MARGIN = 4


def check_residual_snapshots(n_snapshots: int) -> None:
    """:func:`verify_hjm_residual`'s rule: three snapshots, for a centered time difference."""
    if n_snapshots < 3:
        raise ValueError(f"needs at least three snapshots, not {n_snapshots}")


def check_residual_grid(grid: CartesianGrid) -> None:
    """:func:`verify_hjm_residual`'s rule: a point past the margin on each closed axis."""
    for n, periodic in zip(grid.ns, grid.periodic):
        if not periodic and n <= 2 * _RESIDUAL_MARGIN:
            raise ValueError(f"needs more than {2 * _RESIDUAL_MARGIN} points on a non-periodic "
                             f"axis, not {n}")


def verify_hjm_residual(history: list[tuple[float, np.ndarray]],
                        system: MetricPotentialSystem, grid: CartesianGrid,
                        lambda_mag: float, include_quantum_term: bool = True) -> dict:
    """Residuals of the continuity / modified Hamilton-Jacobi pair.

    Both equations are evaluated on the amplitude and phase of the evolved
    field at interior snapshot times, using centered time differences and
    4th-order space differences.  The pair is equivalent to the wave
    equation the propagator solves, so the residual measures discretization
    error only and must shrink under refinement.  Setting
    ``include_quantum_term=False`` drops the curvature term from the
    Hamilton-Jacobi balance; the residual then jumps by orders of magnitude,
    which makes a convenient ablation control.

    A snapshot with no point past the margin above ``_BULK_THRESHOLD`` of its
    peak density reports None for both RMS values; each mean is over the
    snapshots that have one, and None if none has.
    """
    check_residual_snapshots(len(history))
    check_residual_grid(grid)
    coords = grid.coords()
    g = system.metric_field(coords)
    a = system.vector_field(coords)
    v = system.scalar_field(coords)
    d = grid.dimension
    cont_rms, hj_rms, used_times = [], [], []

    for k in range(1, len(history) - 1):
        t_prev, psi_prev = history[k - 1]
        t_now, psi_now = history[k]
        t_next, psi_next = history[k + 1]
        dt2 = t_next - t_prev
        dens = np.abs(psi_now) ** 2
        R = np.abs(psi_now)
        peak = dens.max()
        valid = (dens > _BULK_THRESHOLD * peak) & interior_mask(grid, _RESIDUAL_MARGIN)
        safe = np.maximum(dens, 1e-300)

        # time derivatives: density directly, phase via the branch-free ratio
        dOmega_dt = (np.abs(psi_next) ** 2 - np.abs(psi_prev) ** 2) / dt2
        dS_dt = lambda_mag * np.angle(psi_next * np.conj(psi_prev)) / dt2

        grad_s = [lambda_mag * np.imag(np.conj(psi_now)
                                       * _d1_4(psi_now, grid.spacing(i), i))
                  / safe for i in range(d)]

        flux_div = np.zeros_like(dens)
        for i in range(d):
            flux_i = np.zeros_like(dens)
            for j in range(d):
                flux_i += g[..., i, j] * (grad_s[j] - a[..., j])
            flux_div += _d1_4(flux_i * dens, grid.spacing(i), i)
        continuity = dOmega_dt + flux_div

        hj = dS_dt + v.copy()
        for i in range(d):
            for j in range(d):
                hj = hj + 0.5 * g[..., i, j] * (grad_s[i] - a[..., i]) * (grad_s[j] - a[..., j])
        if include_quantum_term:
            Q, q_valid = quantum_potential(R, system, grid, lambda_mag)
            hj = hj + Q
            valid = valid & q_valid

        cont_rms.append(float(np.sqrt(np.mean(continuity[valid] ** 2))) if valid.any() else None)
        hj_rms.append(float(np.sqrt(np.mean(hj[valid] ** 2))) if valid.any() else None)
        used_times.append(t_now)

    known = ([v for v in rms if v is not None] for rms in (cont_rms, hj_rms))
    cont_mean, hj_mean = (float(np.mean(k)) if k else None for k in known)
    return {"times": used_times, "continuity_rms": cont_rms, "hj_rms": hj_rms,
            "continuity_mean": cont_mean, "hj_mean": hj_mean}

