"""Metric Hamiltonians, Cayley propagation, curvature term, residual pair."""
import contextlib
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from ordering_oracle import build_unsymmetrized_hamiltonian
from stochaction import (CartesianGrid, FieldErrors, InvalidSystemError, MetricPotentialSystem,
                         build_metric_hamiltonian, evolve_grid, quantum_potential,
                         verify_hjm_residual)
from stochaction import gridop
from stochaction.core import fork_map
from stochaction.gridop import NumericalError, _derivative, _divergence_form


def harmonic_system():
    return MetricPotentialSystem(1, scalar_potential=lambda c: 0.5 * c[0] ** 2)


def wavy_2d_system():
    """Metric with a cross term, a rotational vector potential and a bowl."""

    def metric(coords):
        x, y = coords
        out = np.zeros(x.shape + (2, 2))
        out[..., 0, 0] = 1.0 + 0.2 * np.sin(x)
        out[..., 1, 1] = 1.0 + 0.1 * np.cos(y)
        out[..., 0, 1] = out[..., 1, 0] = 0.05 * np.sin(x) * np.cos(y)
        return out

    def vector(coords):
        x, y = coords
        return np.stack([0.1 * y, -0.1 * x], axis=-1)

    return MetricPotentialSystem(2, metric, vector, lambda c: 0.5 * (c[0] ** 2 + c[1] ** 2))


@pytest.fixture
def line_grid():
    return CartesianGrid((-7.0,), (7.0,), (512,), (False,))


def normalized(psi, grid):
    return psi / np.sqrt(grid.norm2(psi))


class TestHamiltonianAssembly:
    def test_variable_metric_is_hermitian(self):
        grid = CartesianGrid((0.0,), (2 * np.pi,), (128,), (True,))
        system = MetricPotentialSystem.isotropic(
            1, lambda c: 1.0 + 0.1 * np.sin(c[0]))
        op = build_metric_hamiltonian(system, 1.0, grid)
        assert op.hermiticity_defect() < 1e-10

    def test_2d_variable_metric_is_hermitian(self):
        grid = CartesianGrid((-2.0, -2.0), (2.0, 2.0), (24, 24), (False, False))
        op = build_metric_hamiltonian(wavy_2d_system(), 1.0, grid)
        assert op.hermiticity_defect() < 1e-10

    @pytest.mark.parametrize("ns, periodic", [((24, 20), (False, False)),
                                              ((20, 14), (False, True))])
    def test_2d_operator_is_exactly_hermitian_on_unequal_spacings(self, ns, periodic):
        grid = CartesianGrid((-2.0, -2.0), (2.0, 2.0), ns, periodic)
        assert grid.spacing(0) != grid.spacing(1)
        assert build_metric_hamiltonian(wavy_2d_system(), 1.0, grid).hermiticity_defect() == 0.0

    @pytest.mark.parametrize("ns, periodic", [((24, 24), (True, True)),
                                              ((24, 23), (True, False))])
    def test_2d_periodic_operator_is_hermitian_and_unitary(self, ns, periodic):
        # on [-2, 2] a periodic axis of n points and a closed one of n - 1 share
        # the spacing 4/n
        grid = CartesianGrid((-2.0, -2.0), (2.0, 2.0), ns, periodic)
        assert grid.spacing(0) == grid.spacing(1)
        op = build_metric_hamiltonian(wavy_2d_system(), 1.0, grid)
        assert op.hermiticity_defect() == 0.0
        x, y = grid.coords()
        psi = normalized(np.exp(-((x - 0.3) ** 2 + y**2) / 0.5 + 0.7j * y), grid)
        out = evolve_grid(psi, op, 5e-3, 200)
        assert abs(1.0 - grid.norm2(out)) < 1e-12

    def test_naive_ordering_breaks_hermiticity(self):
        grid = CartesianGrid((0.0,), (2 * np.pi,), (128,), (True,))
        system = MetricPotentialSystem.isotropic(
            1, lambda c: 1.0 + 0.1 * np.sin(c[0]))
        op = build_unsymmetrized_hamiltonian(system, 1.0, grid)
        assert op.hermiticity_defect() > 1e-4

    @pytest.mark.parametrize("mins, maxs, ns, fields", [
        ((1.0,), (-1.0,), (64,), ["maxs"]), ((-1.0,), (1.0,), (4,), ["ns"]),
        ((1.0,), (-1.0,), (4,), ["maxs", "ns"]),
        ((float("nan"),), (1.0,), (64,), ["maxs"]),
        ((-1.0, float("nan")), (1.0, 1.0), (16, 16), ["maxs"]),
        ((0.0,), (1.0,), (8.5,), ["ns"]), ((0.0,), (1.0,), (True,), ["ns"]),
        ((-1.0, 0.0), (1.0, 1.0), (4, 4), ["ns"]),
        ((-float("inf"),), (0.0,), (16,), ["maxs"]),
        ((0.0, 0.0), (1.0, float("inf")), (16, 16), ["maxs"]),
    ])
    def test_bad_axes_rejected(self, mins, maxs, ns, fields):
        # each broken rule is named once by its field; a count is an integer
        # (not a bool) and a span finite
        messages = {"maxs": "each axis needs -inf < lo < hi < inf",
                    "ns": "must be an integer at least 8, not "}
        with pytest.raises(FieldErrors) as err:
            CartesianGrid(mins, maxs, ns, (False,) * len(ns))
        assert [name for name, _ in err.value.errors] == fields
        assert all(message.startswith(messages[name]) for name, message in err.value.errors)

    @pytest.mark.parametrize("mins, maxs, ns, periodic, message", [
        ((0.0,) * 3, (1.0,) * 3, (8,) * 3, (False,) * 3, "only 1-D and 2-D grids"),
        ((0.0, 0.0), (1.0,), (8, 8), (False, False), "axis descriptors disagree"),
        ((0.0,), (1.0,), (8,), (False, False), "axis descriptors disagree"),
    ])
    def test_grid_shape_rejected(self, mins, maxs, ns, periodic, message):
        with pytest.raises(InvalidSystemError, match=message):
            CartesianGrid(mins, maxs, ns, periodic)

    @pytest.mark.parametrize("field, message", [
        ("metric", "metric field has shape"),
        ("vector_potential", "vector potential field shape mismatch"),
        ("scalar_potential", "scalar potential field shape mismatch"),
    ])
    def test_field_of_the_wrong_shape_rejected(self, line_grid, field, message):
        # one value too few on the grid
        system = MetricPotentialSystem(1, **{field: lambda c: np.ones(c[0].shape[0] - 1)})
        with pytest.raises(InvalidSystemError, match=message):
            build_metric_hamiltonian(system, 1.0, line_grid)

    @pytest.mark.parametrize("off_diagonal, message", [
        ((0.1, -0.1), "metric must be symmetric"),
        ((2.0, 2.0), "metric must be positive-definite"),     # det 1 - 4 < 0
    ], ids=["asymmetric", "indefinite"])
    def test_bad_2d_metric_rejected(self, off_diagonal, message):
        grid = CartesianGrid((-1.0, -1.0), (1.0, 1.0), (8, 8), (False, False))

        def metric(coords):
            out = np.zeros(coords[0].shape + (2, 2))
            out[..., 0, 0] = out[..., 1, 1] = 1.0
            out[..., 0, 1], out[..., 1, 0] = off_diagonal
            return out

        with pytest.raises(InvalidSystemError, match=message):
            build_metric_hamiltonian(MetricPotentialSystem(2, metric), 1.0, grid)

    def test_system_and_grid_dimensions_must_agree(self, line_grid):
        with pytest.raises(InvalidSystemError, match="system and grid dimensions disagree"):
            build_metric_hamiltonian(wavy_2d_system(), 1.0, line_grid)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_bad_scale_rejected(self, line_grid, lam):
        with pytest.raises(ValueError, match="lambda_mag must be positive and finite"):
            build_metric_hamiltonian(harmonic_system(), lam, line_grid)

    def test_non_positive_metric_rejected(self):
        grid = CartesianGrid((-1.0,), (1.0,), (64,), (False,))
        system = MetricPotentialSystem.isotropic(1, lambda c: c[0])  # changes sign
        with pytest.raises(InvalidSystemError):
            build_metric_hamiltonian(system, 1.0, grid)

    def test_oscillator_ground_state_is_near_eigenvector(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        x = line_grid.axis(0)
        psi0 = normalized(np.exp(-x**2 / 2) / np.pi**0.25, line_grid)
        residual = op.apply(psi0.astype(complex)) - 0.5 * psi0
        assert np.sqrt(line_grid.norm2(residual)) < 1e-4

    def test_constant_gauge_spectrum_matches_plane_wave_symbol(self):
        n, a0 = 128, 0.37
        grid = CartesianGrid((0.0,), (2 * np.pi,), (n,), (True,))
        system = MetricPotentialSystem(
            1, vector_potential=lambda c: np.stack([np.full_like(c[0], a0)], axis=-1))
        op = build_metric_hamiltonian(system, 1.0, grid)
        evals = np.sort(np.linalg.eigvalsh(op.matrix.toarray()))
        h = grid.spacing(0)
        k = 2 * np.pi * np.fft.fftfreq(n, d=h)
        # the discrete operator applied to exp(ikx), worked out by hand
        symbol = 0.5 * ((2 - 2 * np.cos(k * h)) / h**2
                        - 2 * a0 * np.sin(k * h) / h + a0**2)
        assert np.max(np.abs(evals - np.sort(symbol))) < 1e-6


class TestEvolveGrid:
    def test_norm_drift_tiny(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        x = line_grid.axis(0)
        psi = normalized(np.exp(-((x - 1.0) ** 2) / 2).astype(complex), line_grid)
        out = evolve_grid(psi, op, 2e-3, 1000)
        assert abs(1.0 - line_grid.norm2(out)) < 1e-8

    def test_free_packet_dispersion(self):
        grid = CartesianGrid((-30.0,), (30.0,), (768,), (False,))
        x = grid.axis(0)
        psi = normalized(np.exp(-x**2 / 4).astype(complex), grid)  # width 1
        op = build_metric_hamiltonian(MetricPotentialSystem(1), 1.0, grid)
        out = evolve_grid(psi, op, 2e-3, 1000)
        dens = np.abs(out) ** 2
        total = dens.sum() * grid.cell_volume
        mean = np.sum(x * dens) * grid.cell_volume / total
        var = np.sum((x - mean) ** 2 * dens) * grid.cell_volume / total
        exact = 1.0 + (2.0 / 2.0) ** 2
        assert abs(var - exact) / exact < 0.005

    def test_discrete_ground_state_is_stationary(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        _, vecs = eigh(op.matrix.toarray())
        gs = normalized(vecs[:, 0].astype(complex), line_grid)
        out = evolve_grid(gs, op, 2e-3, 3142)  # one period
        assert np.max(np.abs(np.abs(out) ** 2 - np.abs(gs) ** 2)) < 1e-6

    def test_second_order_self_convergence(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        x = line_grid.axis(0)
        psi = normalized(np.exp(-((x - 1.0) ** 2) / 2).astype(complex), line_grid)
        outs = {dt: evolve_grid(psi, op, dt, int(round(1.0 / dt)))
                for dt in (0.05, 0.025, 0.0125)}
        d1 = np.sqrt(line_grid.norm2(outs[0.05] - outs[0.025]))
        d2 = np.sqrt(line_grid.norm2(outs[0.025] - outs[0.0125]))
        assert 3.4 < d1 / d2 < 4.6

    def test_closed_2d_norm_drift_tiny(self):
        # the unitarity test above covers periodic axes only; here both axes
        # are closed and the operator carries a g12 cross term and a vector
        # potential
        grid = CartesianGrid((-3.0, -3.0), (3.0, 3.0), (28, 24), (False, False))
        op = build_metric_hamiltonian(wavy_2d_system(), 1.0, grid)
        x, y = grid.coords()
        psi = normalized(np.exp(-((x - 0.4) ** 2 + y**2) / 0.8 + 0.9j * y), grid)
        out = evolve_grid(psi, op, 5e-3, 200)
        assert abs(1.0 - grid.norm2(out)) < 1e-12

    def test_bad_steps_rejected(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        with pytest.raises(ValueError):
            evolve_grid(np.ones(512, dtype=complex), op, -0.1, 10)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf])
    def test_non_finite_or_zero_step_rejected(self, line_grid, dt):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        with pytest.raises(ValueError, match="finite dt > 0"):
            evolve_grid(np.ones(512, dtype=complex), op, dt, 10)

    @pytest.mark.parametrize("n_steps, record_every, name", [
        (10, -1, "record_every"), (10, -3, "record_every"), (10, 2.5, "record_every"),
        (10, 0, "record_every"), (2.5, None, "n_steps"), (0, 5, "n_steps")])
    def test_bad_count_rejected_naming_the_argument(self, line_grid, n_steps, record_every,
                                                    name):
        # record_every -1 and -3 used to record every |r|-th step, 2.5 only
        # step 5, 0 to drop the history and change the return type, and
        # n_steps 2.5 to fail in range()
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        value = n_steps if name == "n_steps" else record_every
        with pytest.raises(ValueError) as info:
            evolve_grid(np.ones(512, dtype=complex), op, 0.01, n_steps, record_every=record_every)
        assert info.value.errors == [(name, f"must be an integer at least 1, not {value!r}")]

    def test_every_broken_count_named(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        with pytest.raises(FieldErrors) as info:
            evolve_grid(np.ones(512, dtype=complex), op, np.nan, 0, record_every=-1)
        assert [name for name, _ in info.value.errors] == ["dt", "n_steps", "record_every"]


class TestQuantumPotential:
    def test_constant_amplitude_gives_zero(self):
        grid = CartesianGrid((0.0,), (2 * np.pi,), (64,), (True,))
        Q, valid = quantum_potential(np.ones(64), MetricPotentialSystem(1),
                                     grid, 1.0)
        assert np.allclose(Q[valid], 0.0, atol=1e-12)

    def test_exact_quadratic_scaling(self, line_grid):
        x = line_grid.axis(0)
        R = np.exp(-x**2 / 2)
        system = MetricPotentialSystem(1)
        Q1, v1 = quantum_potential(R, system, line_grid, 1.0)
        Qh, vh = quantum_potential(R, system, line_grid, 0.5)
        assert np.array_equal(v1, vh)
        assert np.allclose(Qh[vh], 0.25 * Q1[v1], rtol=0, atol=1e-14)

    def test_stationary_madelung_balance(self, line_grid):
        # ground state: curvature term + V must be flat at the energy
        x = line_grid.axis(0)
        R = np.exp(-x**2 / 2) / np.pi**0.25
        Q, valid = quantum_potential(R, harmonic_system(), line_grid, 1.0)
        balance = Q[valid] + 0.5 * x[valid] ** 2
        assert np.max(np.abs(balance - 0.5)) < 1e-4


class TestResidualPair:
    @staticmethod
    def _history(n, dt, steps, record):
        grid = CartesianGrid((-8.0,), (8.0,), (n,), (False,))
        op = build_metric_hamiltonian(harmonic_system(), 1.0, grid)
        x = grid.axis(0)
        psi = np.exp(-((x - 1.0) ** 2) / 2).astype(complex)
        psi = normalized(psi, grid)
        _, hist = evolve_grid(psi, op, dt, steps, record_every=record)
        return grid, hist

    def test_residuals_shrink_fourfold_under_refinement(self):
        grid_c, hist_c = self._history(256, 2e-3, 250, 5)
        grid_f, hist_f = self._history(512, 1e-3, 500, 5)
        res_c = verify_hjm_residual(hist_c[::10], harmonic_system(), grid_c, 1.0)
        res_f = verify_hjm_residual(hist_f[::10], harmonic_system(), grid_f, 1.0)
        assert 3.0 < res_c["continuity_mean"] / res_f["continuity_mean"] < 5.0
        assert 3.0 < res_c["hj_mean"] / res_f["hj_mean"] < 5.0

    def test_eigenstate_continuity_residual_vanishes(self, line_grid):
        op = build_metric_hamiltonian(harmonic_system(), 1.0, line_grid)
        _, vecs = eigh(op.matrix.toarray())
        gs = normalized(vecs[:, 0].astype(complex), line_grid)
        _, hist = evolve_grid(gs, op, 2e-3, 100, record_every=10)
        res = verify_hjm_residual(hist, harmonic_system(), line_grid, 1.0)
        assert res["continuity_mean"] < 1e-6

    def test_dropping_curvature_term_blows_up_residual(self):
        grid, hist = self._history(256, 2e-3, 100, 10)
        full = verify_hjm_residual(hist, harmonic_system(), grid, 1.0)
        ablated = verify_hjm_residual(hist, harmonic_system(), grid, 1.0,
                                      include_quantum_term=False)
        assert ablated["hj_mean"] > 50 * full["hj_mean"]


# ---------------------------------------------------------------------------
# the stencil assembly against a copy of the earlier per-line builders
# ---------------------------------------------------------------------------

def _oracle_central_diff(n, h, periodic):
    d = sp.diags([np.full(n - 1, -0.5 / h), np.full(n - 1, 0.5 / h)],
                 offsets=[-1, 1], format="lil")
    if periodic:
        d[0, n - 1] = -0.5 / h
        d[n - 1, 0] = 0.5 / h
    return d.tocsr()


def _oracle_conservative(coeff, h, periodic):
    n = len(coeff)
    if periodic:
        c_plus = 0.5 * (coeff + np.roll(coeff, -1))
        c_minus = np.roll(c_plus, 1)
    else:
        c_plus = np.empty(n)
        c_plus[:-1] = 0.5 * (coeff[:-1] + coeff[1:])
        c_plus[-1] = coeff[-1]
        c_minus = np.empty(n)
        c_minus[1:] = c_plus[:-1]
        c_minus[0] = coeff[0]
    mat = sp.lil_matrix((n, n))
    mat.setdiag(-(c_plus + c_minus) / h**2)
    mat.setdiag(c_plus[:-1] / h**2, 1)
    mat.setdiag(c_plus[:-1] / h**2, -1)
    if periodic:
        mat[0, n - 1] = c_minus[0] / h**2
        mat[n - 1, 0] = c_plus[n - 1] / h**2
    return mat.tocsr()


def _oracle_axis_operator(mat_1d, axis, shape):
    if len(shape) == 1:
        return mat_1d
    if axis == 0:
        return sp.kron(mat_1d, sp.identity(shape[1]), format="csr")
    return sp.kron(sp.identity(shape[0]), mat_1d, format="csr")


def _oracle_conservative_nd(coeff, grid, axis):
    if grid.dimension == 1:
        return _oracle_conservative(coeff, grid.spacing(0), grid.periodic[0])
    h = grid.spacing(axis)
    per = grid.periodic[axis]
    n0, n1 = grid.shape
    flat = sp.lil_matrix((grid.size, grid.size))
    if axis == 0:
        for j in range(n1):
            line = _oracle_conservative(coeff[:, j], h, per).tocoo()
            flat[line.row * n1 + j, line.col * n1 + j] = line.data
    else:
        for i in range(n0):
            line = _oracle_conservative(coeff[i, :], h, per).tocoo()
            flat[i * n1 + line.row, i * n1 + line.col] = line.data
    return flat.tocsr()


def _oracle_metric_hamiltonian(system, lambda_mag, grid):
    d = grid.dimension
    coords = grid.coords()
    g = system.metric_field(coords)
    a = system.vector_field(coords)
    v = system.scalar_field(coords)
    lam2 = lambda_mag**2
    H = sp.csr_matrix((grid.size, grid.size), dtype=complex)
    D = [_oracle_axis_operator(_oracle_central_diff(grid.ns[i], grid.spacing(i),
                                                    grid.periodic[i]), i, grid.shape)
         for i in range(d)]
    for i in range(d):
        H = H + (-0.5 * lam2) * _oracle_conservative_nd(g[..., i, i], grid, i)
    if d == 2:
        G12 = sp.diags(g[..., 0, 1].ravel())
        H = H + (-0.5 * lam2) * (D[0] @ G12 @ D[1] + (D[0] @ G12 @ D[1]).T)
    if system.vector_potential is not None:
        for i in range(d):
            b = np.einsum("...j,...j->...", g[..., i, :], a)
            B = sp.diags(b.ravel())
            H = H + (0.5j * lambda_mag) * (D[i] @ B + B @ D[i])
    aga = 0.5 * np.einsum("...i,...ij,...j->...", a, g, a)
    H = H + sp.diags((aga + v).ravel())
    return H.tocsr()


def assert_same_csr(got, want):
    assert got.format == want.format == "csr"
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.data, want.data)


def bumpy_metric(coords):
    """Position-dependent SPD metric, with a cross term in two dimensions."""
    x = coords[0]
    d = len(coords)
    out = np.zeros(x.shape + (d, d))
    out[..., 0, 0] = 1.0 + 0.3 * np.sin(1.3 * x) ** 2
    if d == 2:
        y = coords[1]
        out[..., 1, 1] = 1.1 + 0.2 * np.cos(0.7 * y + 0.4 * x)
        out[..., 0, 1] = out[..., 1, 0] = 0.07 * np.sin(x - y)
    return out


ORACLE_GRIDS = [
    CartesianGrid((-2.0,), (3.0,), (n,), (per,))
    for n in (8, 37) for per in (False, True)
] + [
    CartesianGrid((-2.0, -1.5), (3.0, 2.5), shape, per)
    for shape in ((8, 8), (9, 13), (16, 8))
    for per in ((False, False), (True, False), (False, True), (True, True))
]


def grid_id(grid):
    return "x".join(map(str, grid.ns)) + "-" + "".join("p" if p else "n"
                                                      for p in grid.periodic)


class TestStencilOracle:
    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=grid_id)
    def test_axis_operators_equal_the_per_line_builders(self, grid):
        g = bumpy_metric(grid.coords())
        for axis in range(grid.dimension):
            want = _oracle_axis_operator(
                _oracle_central_diff(grid.ns[axis], grid.spacing(axis),
                                     grid.periodic[axis]), axis, grid.shape)
            assert_same_csr(_derivative(grid, axis), want)
            for coeff in (g[..., axis, axis], np.ones(grid.shape)):
                assert_same_csr(_divergence_form(coeff, grid, axis),
                                _oracle_conservative_nd(coeff, grid, axis))

    @pytest.mark.parametrize("periodic", [(True, False), (False, True)])
    def test_full_hamiltonian_equals_oracle_build(self, periodic):
        grid = CartesianGrid((-3.0, -2.0), (3.0, 2.5), (20, 14), periodic)

        def vector(coords):
            x, y = coords
            return np.stack([0.3 * np.cos(y), -0.2 * x], axis=-1)

        system = MetricPotentialSystem(2, bumpy_metric, vector,
                                       lambda c: 0.5 * c[0] ** 2 + 0.1 * c[1] ** 4)
        for lam in (1.0, 0.37):
            op = build_metric_hamiltonian(system, lam, grid)
            assert_same_csr(op.matrix, _oracle_metric_hamiltonian(system, lam, grid))

    def test_transposed_cross_term_keeps_the_bits_on_equal_spacings(self):
        # D0 G D1 + D1 G D0 rounds (a*g)*b and (b*g)*a alike when |a| == |b|
        grid = CartesianGrid((-3.0, -2.0), (3.0, 2.5), (20, 14), (True, False))
        assert grid.spacing(0) == grid.spacing(1)
        D = [_derivative(grid, axis) for axis in range(2)]
        G12 = sp.diags(bumpy_metric(grid.coords())[..., 0, 1].ravel())
        X = D[0] @ G12 @ D[1]
        assert_same_csr((X + X.T).tocsr(), (X + D[1] @ G12 @ D[0]).tocsr())


# ---------------------------------------------------------------------------
# the one-solve Cayley step against a copy of the earlier two-matrix loop
# ---------------------------------------------------------------------------

def _oracle_evolve(psi, op, dt, n_steps, record_every):
    """``(I + zH)^-1 (I - zH)`` per step, default column ordering."""
    vec = np.asarray(psi, dtype=complex).ravel()
    z = 0.5j * dt / op.lambda_mag
    eye = sp.identity(op.grid.size, format="csc", dtype=complex)
    lu = splu((eye + z * op.matrix).tocsc())
    B = (eye - z * op.matrix).tocsr()
    history = [(0.0, vec.reshape(psi.shape).copy())]
    for k in range(n_steps):
        vec = lu.solve(B @ vec)
        if (k + 1) % record_every == 0:
            history.append(((k + 1) * dt, vec.reshape(psi.shape).copy()))
    return vec.reshape(psi.shape), history


def _line_case(periodic):
    grid = CartesianGrid((-6.0,), (6.0,), (200,), (periodic,))
    system = MetricPotentialSystem.isotropic(
        1, lambda c: 1.0 + 0.3 * np.sin(0.8 * c[0]) ** 2,
        scalar=lambda c: 0.5 * c[0] ** 2,
        vector=lambda c: np.stack([0.4 * np.cos(0.5 * c[0])], axis=-1))
    x = grid.axis(0)
    return grid, system, np.exp(-((x - 1.0) ** 2) / 2 + 0.8j * x)


def _plane_case(periodic):
    grid = CartesianGrid((-3.0, -3.0), (3.0, 3.0), (26, 22), periodic)
    x, y = grid.coords()
    return grid, wavy_2d_system(), np.exp(-((x - 0.5) ** 2 + y**2) / 0.8 + 0.6j * x)


CAYLEY_CASES = {
    "1d-closed": lambda: _line_case(False),
    "1d-periodic": lambda: _line_case(True),
    "2d-closed-closed": lambda: _plane_case((False, False)),
    "2d-periodic-closed": lambda: _plane_case((True, False)),
}


class TestCayleyOracle:
    @pytest.mark.parametrize("case", sorted(CAYLEY_CASES))
    def test_one_solve_step_matches_two_matrix_loop(self, case):
        grid, system, psi = CAYLEY_CASES[case]()
        psi = normalized(psi, grid)
        op = build_metric_hamiltonian(system, 0.8, grid)
        final, history = evolve_grid(psi, op, 4e-3, 120, record_every=20)
        want_final, want_history = _oracle_evolve(psi, op, 4e-3, 120, 20)
        assert np.max(np.abs(final - want_final)) < 1e-12
        assert len(history) == len(want_history) == 7
        for (t, snap), (t_want, snap_want) in zip(history, want_history):
            assert t == t_want
            assert np.max(np.abs(snap - snap_want)) < 1e-12


# ---------------------------------------------------------------------------
# the Cayley solver runs on one OpenBLAS thread
# ---------------------------------------------------------------------------

needs_openblas = pytest.mark.skipif(gridop.blas_threads() is None,
                                    reason="no OpenBLAS loaded")


@pytest.fixture
def blas_count():
    """Set the caller's OpenBLAS thread count; the test's end puts the old one back."""
    get, put = gridop._openblas_calls()
    saved = get()

    def set_count(n):
        put(n)
        return get()

    yield set_count
    put(saved)


def _blas_case(n=96):
    """Closed ``n`` x ``n`` grid, metric cross term, vector and scalar terms."""
    grid = CartesianGrid((-4.0, -4.0), (4.0, 4.0), (n, n), (False, False))
    x, y = grid.coords()
    psi = normalized(np.exp(-((x - 0.5) ** 2 + y**2) / 2 + 0.8j * y), grid)
    return psi, build_metric_hamiltonian(wavy_2d_system(), 1.0, grid)


def _recording_splu(seen):
    """``splu`` whose factorization and solves log the OpenBLAS thread count."""

    class Recorded:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs, trans="N"):
            seen.append(("solve", gridop.blas_threads()))
            return self.lu.solve(rhs, trans=trans)

    def wrapped(A, **kwargs):
        seen.append(("splu", gridop.blas_threads()))
        return Recorded(splu(A, **kwargs))

    return wrapped


@needs_openblas
class TestOneBlasThread:
    def test_bits_are_the_one_thread_bits_at_any_caller_count(self, blas_count,
                                                              monkeypatch):
        # 96x96 is large enough that OpenBLAS threads the factorization's
        # supernode updates, and a threaded factorization rounds differently
        psi, op = _blas_case()
        blas_count(2)
        pinned = evolve_grid(psi, op, 0.01, 10)
        monkeypatch.setattr(gridop, "_one_blas_thread", contextlib.nullcontext)
        blas_count(1)
        assert np.array_equal(pinned, evolve_grid(psi, op, 0.01, 10))

    def test_factorization_and_every_solve_see_one_thread(self, blas_count, monkeypatch):
        psi, op = _blas_case(24)
        blas_count(2)
        seen = []
        monkeypatch.setattr(gridop, "splu", _recording_splu(seen))
        evolve_grid(psi, op, 0.01, 5)
        assert seen == [("splu", 1)] + [("solve", 1)] * 5

    def test_count_restored_after_return_and_after_each_numerical_error(
            self, blas_count, monkeypatch):
        psi, op = _blas_case(24)
        most = blas_count(2)
        evolve_grid(psi, op, 0.01, 3)
        assert gridop.blas_threads() == most
        with pytest.raises(NumericalError, match="non-finite field after step 1"):
            evolve_grid(np.full_like(psi, np.nan), op, 0.01, 3)
        assert gridop.blas_threads() == most

        def singular(A, **kwargs):
            assert gridop.blas_threads() == 1
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(gridop, "splu", singular)
        with pytest.raises(NumericalError, match="factorization failed"):
            evolve_grid(psi, op, 0.01, 3)
        assert gridop.blas_threads() == most
        assert gridop._blas["depth"] == 0

    def test_concurrent_runs_restore_the_count_once(self, blas_count, monkeypatch):
        psi, op = _blas_case(48)
        most = blas_count(2)
        want = evolve_grid(psi, op, 0.01, 20)
        seen = []
        monkeypatch.setattr(gridop, "splu", _recording_splu(seen))
        start = threading.Barrier(2)
        outs = [None, None]

        def run(i):
            start.wait()
            outs[i] = evolve_grid(psi, op, 0.01, 20)

        workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(np.array_equal(out, want) for out in outs)
        assert {count for _, count in seen} == {1}
        assert gridop.blas_threads() == most
        assert gridop._blas["depth"] == 0


def test_forked_child_starts_with_an_unheld_blas_lock(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    # held as if by another thread at the fork, which the child would not have
    with gridop._BLAS_LOCK:
        seen = fork_map(lambda i: (gridop._BLAS_LOCK.locked(), gridop._blas["depth"]), 2, 2)
    assert seen == [(False, 0), (False, 0)]
