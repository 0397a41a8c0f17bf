"""Velocity fields, Born sampling, integration, equivariance."""
import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import quad

from joint_oracle import JointAxes, synthesize_joint, system_marginal_density
import stochaction
from stochaction import (AngularBasis, GaussianPacket, GridSpec, LineModes,
                         PlaneWaveModes, SpectralState, equivariance_report,
                         evolve_measurement_spectral, integrate_ensemble)
from stochaction import trajectories
from stochaction.core import PhysicalConfig
from stochaction.measurement import _initial_draws, substitute_observable
from stochaction.stochastic import StochasticParams
from stochaction.rng import stream
from stochaction.core import EPS_NODE_REL
from stochaction.trajectories import (DECIDE_EPS, EnsembleSpec, ModeFlow, PointerReadoutFlow,
                                      _ring_plan, _ring_rows, _stage_velocity, _step, _unit_phase,
                                      RingSampler)


@pytest.fixture
def grid():
    return GridSpec(-3.0, 3.0)


@pytest.fixture
def basis():
    return AngularBasis(8)


def make_state(coeff_map, basis, grid, sigma=0.3, mu0=0.0):
    c = np.zeros(len(basis.modes), dtype=complex)
    for l, amp in coeff_map.items():
        c[np.flatnonzero(basis.modes == l)[0]] = amp
    return SpectralState(coeffs=c, modes=basis,
                         packet=GaussianPacket(mu0, sigma),
                         centers=np.full(len(c), mu0), t=0.0, grid=grid)


class TestBornSampling:
    def test_ring_rejection_sampler_matches_density(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.5)
        draws = RingSampler(c, basis.modes)(20_000, stream(5))
        # CDF oracle by quadrature of |phi|^2 = (1 + cos theta) / (2 pi)
        th = np.linspace(0, 2 * np.pi, 4001)
        cdf = (th + np.sin(th)) / (2 * np.pi)
        ks = sps.kstest(draws, lambda v: np.interp(v, th, cdf))
        assert ks.pvalue > 0.01


class TestVelocities:
    def test_single_mode_velocity(self, grid, basis):
        state = make_state({2: 1.0}, basis, grid)
        pts = np.array([[0.3, 0.0], [2.0, 0.1], [5.0, -0.2]])
        v = ModeFlow(state, 1.0).effective(pts, state.t)
        assert np.allclose(v[:, 1], 2.0, atol=1e-12)   # pointer drifts at g omega
        assert np.allclose(v[:, 0], 0.0, atol=1e-12)   # centered real packet

    def test_real_state_has_zero_effective_velocity(self, grid, basis):
        state = make_state({0: 1.0}, basis, grid)
        pts = np.array([[1.0, 0.2]])
        assert np.allclose(ModeFlow(state, 1.0).effective(pts, state.t), 0.0)

    def test_two_mode_field_against_phase_difference_oracle(self, basis):
        fine = JointAxes(GridSpec(-3.0, 3.0), 2048, 2048)
        state = make_state({0: np.sqrt(0.6), 1: np.sqrt(0.4)}, basis, fine.grid)
        joint = synthesize_joint(state, fine)
        phase = np.angle(joint.amplitudes)
        phase = np.unwrap(np.unwrap(phase, axis=0), axis=1)
        # 4th-order central differences of the unwrapped phase
        def d4(f, h, axis):
            r = np.roll
            return (r(f, 2, axis) - 8 * r(f, 1, axis)
                    + 8 * r(f, -1, axis) - r(f, -2, axis)) / (12 * h)
        dS_th = d4(phase, fine.dtheta, 0)
        dS_q2 = d4(phase, fine.dq2, 1)
        ii = np.ix_(range(50, 150), range(900, 1150))
        pts = np.stack([np.broadcast_to(fine.theta[50:150, None], (100, 250)),
                        np.broadcast_to(fine.q2[None, 900:1150], (100, 250))],
                       axis=-1)
        v = ModeFlow(state, 1.0).effective(pts.reshape(-1, 2), state.t).reshape(100, 250, 2)
        assert np.max(np.abs(v[..., 0] - dS_q2[ii])) < 1e-6
        assert np.max(np.abs(v[..., 1] - dS_th[ii])) < 1e-6

    def test_sign_average_recovers_effective(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 2: np.sqrt(0.5)}, basis, grid)
        pts = np.array([[0.7, 0.05], [4.0, -0.3]])
        plus = ModeFlow(state, 1.3).actual(pts, state.t, +1.0)
        minus = ModeFlow(state, 1.3).actual(pts, state.t, -1.0)
        eff = ModeFlow(state, 1.3).effective(pts, state.t)
        scale = np.max(np.abs(plus)) + np.max(np.abs(eff))
        assert np.max(np.abs(0.5 * (plus + minus) - eff)) < 1e-13 * scale

    def test_gaussian_osmotic_term_analytic(self, grid, basis):
        sigma = 0.3
        state = make_state({0: 1.0}, basis, grid, sigma=sigma)
        q = np.array([0.1, -0.25, 0.4])
        pts = np.stack([np.zeros(3), q], axis=-1)
        v = ModeFlow(state, 1.0).actual(pts, state.t, 1.0)
        # (lambda/2) dOmega/Omega = -lambda (q - mu) / (2 sigma^2), feeds theta-dot
        expected = -q / (2 * sigma**2)
        assert np.allclose(v[:, 0], expected, atol=1e-8)
        assert np.allclose(v[:, 1], 0.0, atol=1e-12)

    def test_vanishing_scale_recovers_effective(self, grid, basis):
        state = make_state({0: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        pts = np.array([[1.0, 0.1]])
        eff = ModeFlow(state, 1.0).effective(pts, state.t)
        act = ModeFlow(state, 1.0).actual(pts, state.t, 0.0)
        assert np.array_equal(act, eff)


class TestUnitPhase:
    """``exp(i x)`` from ``tan(x / 2)`` against libm ``cos`` and ``sin``."""

    @staticmethod
    def _angles():
        special = np.concatenate(([-0.0, 0.0, 2 * np.pi], np.arange(-8, 9) * (np.pi / 2)))
        return np.concatenate((special, stream(71).uniform(-1e3, 1e3, 100_000)))

    def test_within_rounding_of_libm(self):
        x = self._angles()
        z = _unit_phase(x)
        assert z.shape == x.shape and z.dtype == complex
        assert np.max(np.abs(z.real - np.cos(x))) <= 1e-15
        assert np.max(np.abs(z.imag - np.sin(x))) <= 1e-15
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15
        # exact where the half-angle tangent is exact
        assert np.array_equal(_unit_phase(np.array([0.0, -0.0])), [1.0, 1.0])

    def test_slices_are_bit_equal(self):
        # a value must not depend on its place in the array (SIMD body or tail)
        x = self._angles()[:4099]
        whole = _unit_phase(x)
        for a, b in ((0, 1), (0, 7), (3, 12), (5, 1030), (1, 2049), (17, 4099), (4090, 4099)):
            assert np.array_equal(_unit_phase(x[a:b]), whole[a:b])
        # and not on its stride or its array's shape
        assert np.array_equal(_unit_phase(x[::3]), whole[::3])
        square = x[:4096].reshape(64, 64)
        assert np.array_equal(_unit_phase(square), whole[:4096].reshape(64, 64))

    def test_ring_rows_within_rounding_of_libm(self):
        # the rows that ModeFlow, RingSampler and the prior observable all sum
        theta = stream(72).uniform(0.0, 2 * np.pi, 10_000)
        l = np.arange(-8, 9)
        order = [k for k, _ in _ring_rows(_ring_plan(l), theta)]
        assert sorted(order) == list(range(len(l)))
        assert np.all(np.diff(np.abs(l[order])) >= 0)   # one running power, rung by rung
        rows = dict(_ring_rows(_ring_plan(l), theta))
        assert rows[8] is None
        err = max(np.max(np.abs(row - np.exp(1j * l[k] * theta)))
                  for k, row in rows.items() if row is not None)
        assert err <= 1e-14

    def test_mode_rows_leave_few_buffers_alive(self):
        # the 48-mode plane-wave ladder of a linear-momentum readout: a call on
        # 2048 points holds its (K, n) packet and Gaussian tables and a few rows,
        # not one row per rung
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
        psi = np.exp(-x**2 / 4 + 1j * x)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        pipe = substitute_observable("linear_momentum", psi, x, window=(-4.0, 6.0), n_bins=10,
                                     config=config, grid=GridSpec(-8.0, 8.0))
        flow = ModeFlow(pipe.state0, config.g)
        n_modes, n = len(flow.coeffs), 2048
        assert n_modes == 48
        r = stream(3)
        points = np.stack([r.uniform(-20.0, 20.0, n), r.uniform(-1.0, 1.0, n)], axis=-1)
        flow.effective(points, 0.3)
        tracemalloc.start()
        try:
            flow.effective(points, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = n_modes * n * (16 + 8)   # complex packet terms, float Gaussians
        assert peak <= tables + 8 * n * 16


def oracle_mode_values(state, x, with_derivatives):
    """Reference table of the occupied modes: ring rows as a power chain of complex
    exp from ones, plane waves as libm ``exp(i p x)`` base phase included.  The
    plane-wave phase ``p x`` is formed in extended precision: at ``p x ~ 800``
    its float64 rounding alone would move a row by 6e-14."""
    sup = state.support_indices()
    shape = (-1,) + (1,) * x.ndim
    if isinstance(state.modes, AngularBasis):
        w = state.modes.modes[sup]
        z = np.exp(1j * x)
        powers = [np.ones_like(z)]
        for _ in range(int(np.max(np.abs(w)))):
            powers.append(powers[-1] * z)
        u = np.empty((len(w),) + x.shape, dtype=complex)
        for k, l in enumerate(w):
            u[k] = powers[abs(l)] if l >= 0 else np.conj(powers[abs(l)])
        u *= 1.0 / np.sqrt(2 * np.pi)
    else:
        w = state.modes.momenta[sup]
        phase = w.reshape(shape).astype(np.longdouble) * x
        u = np.exp(1j * phase).astype(complex) / np.sqrt(state.modes.box_length)
    du = (1j * w.reshape(shape)) * u if with_derivatives else None
    return u, du


def oracle_gaussians(flow, q2, t):
    mu = flow.centers(t)
    shift = q2[None, ...] - mu.reshape((-1,) + (1,) * q2.ndim)
    zq = shift / (2.0 * flow.sigma**2)
    gauss = flow._pack_norm * np.exp(-0.5 * zq * shift)
    return gauss, zq


def oracle_terms(flow, state, x, q2, t):
    u, du = oracle_mode_values(state, x, True)
    gauss, zq = oracle_gaussians(flow, q2, t)
    cg = flow.coeffs.reshape((-1,) + (1,) * x.ndim) * gauss
    cgu = cg * u
    psi = np.sum(cgu, axis=0)
    dpsi_x = np.sum(cg * du, axis=0)
    dpsi_q = np.sum(cgu * (-zq), axis=0)
    return psi, dpsi_x, dpsi_q, np.abs(psi) ** 2


def oracle_density(flow, state, points, t):
    x, q2 = points[..., 0], points[..., 1]
    u, _ = oracle_mode_values(state, x, False)
    gauss, _ = oracle_gaussians(flow, q2, t)
    cg = flow.coeffs.reshape((-1,) + (1,) * x.ndim) * gauss
    return np.abs(np.sum(cg * u, axis=0)) ** 2


def oracle_effective(flow, state, points, t):
    psi, dpsi_x, dpsi_q, dens = oracle_terms(flow, state, points[..., 0], points[..., 1], t)
    safe = np.maximum(dens, 1e-300)
    grad_s_x = np.imag(np.conj(psi) * dpsi_x) / safe
    grad_s_q = np.imag(np.conj(psi) * dpsi_q) / safe
    return flow.g * np.stack([grad_s_q, grad_s_x], axis=-1), dens


def oracle_actual(flow, state, points, t, lambda_signed):
    psi, dpsi_x, dpsi_q, dens = oracle_terms(flow, state, points[..., 0], points[..., 1], t)
    safe = np.maximum(dens, 1e-300)
    pc = np.conj(psi)
    grad_s_x = np.imag(pc * dpsi_x) / safe
    grad_s_q = np.imag(pc * dpsi_q) / safe
    osm_x = np.real(pc * dpsi_x) / safe
    osm_q = np.real(pc * dpsi_q) / safe
    lam = np.asarray(lambda_signed)
    v = flow.g * np.stack([grad_s_q + lam * osm_q, grad_s_x + lam * osm_x], axis=-1)
    return v, dens


def plane_wave_state(grid, base=0.0):
    # equally spaced momenta around ``base`` with a zero-weight interior mode, on
    # a box of length 4 pi that holds two periods of the spacing-1 density
    x = np.linspace(-2 * np.pi, 2 * np.pi, 256, endpoint=False)
    p = base + np.array([-1.5, -0.5, 0.5, 1.5, 2.5])
    c = np.array([0.3, 0.6, 0.0, 0.5j, -0.4 + 0.2j])
    return SpectralState(coeffs=c / np.linalg.norm(c),
                         modes=PlaneWaveModes(p, 4 * np.pi, x),
                         packet=GaussianPacket(0.0, 0.05),
                         centers=np.full(len(p), 0.02), t=0.0, grid=grid)


def line_mode_state(grid):
    x = np.linspace(-6.0, 6.0, 401)
    table = np.stack([np.exp(-(x - 1.0) ** 2 + 0.7j * x),
                      np.exp(-(x + 1.0) ** 2 / 2 - 0.2j * x)])
    return SpectralState(coeffs=np.array([0.8, 0.6j]),
                         modes=LineModes(x, table, np.array([-1.0, 1.0])),
                         packet=GaussianPacket(0.0, 0.05),
                         centers=np.zeros(2), t=0.0, grid=grid)


class TestKernelOracle:
    """The velocity kernel agrees with the reference kernel to rounding.

    The kernel builds ``exp(i x)`` from ``tan(x / 2)`` and folds its constants
    in another order than the reference (libm ``cos``/``sin``), so the two
    differ in the last bits.  Bounds: the density within ``1e-14 ref_peak``;
    the velocity within ``1e-13 (1 + |v|) sqrt(ref_peak / dens)`` wherever the
    reference density passes the node threshold, since rounding of ``Psi``
    and its gradients at ``|Psi| ~ sqrt(dens)`` is divided by ``dens``; and
    exact zeros where the reference density underflows to 0.
    """

    RING_STATES = {
        "three": {-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
        "wide": {-3: np.sqrt(0.1), -1: np.sqrt(0.4), 1: np.sqrt(0.3), 3: np.sqrt(0.2)},
        # |l| up to 8, gaps, and an explicit zero weight inside the range
        "high": {-8: 0.3, -5: 0.4j, -2: 0.2, 0: 0.0, 1: -0.5, 4: 0.3 + 0.3j,
                 8: 0.5},
    }

    @staticmethod
    def _points(state, n, seed):
        r = stream(seed)
        theta = r.uniform(-20.0, 20.0, n)          # well outside [0, 2 pi)
        q2 = r.normal(0.0, 2.0 * state.packet.sigma, n)
        q2[::17] = r.uniform(-60.0, 60.0, len(q2[::17]))   # far tail: density 0
        theta[:3] = (-0.0, 0.0, 2 * np.pi)
        return np.stack([theta, q2], axis=-1)

    @staticmethod
    def _assert_near(flow, got_v, got_d, want_v, want_d):
        assert got_v.shape == want_v.shape and got_d.shape == want_d.shape
        assert np.all(np.abs(got_d - want_d) <= 1e-14 * flow.ref_peak)
        zero = want_d == 0.0
        assert np.all(got_d[zero] == 0.0) and np.all(got_v[zero] == 0.0)
        live = want_d >= EPS_NODE_REL * flow.ref_peak
        tol = 1e-13 * (1.0 + np.abs(want_v[live])) * np.sqrt(
            flow.ref_peak / want_d[live])[..., None]
        assert np.all(np.abs(got_v[live] - want_v[live]) <= tol)

    def _check(self, state, seed):
        flow = ModeFlow(state, g=1.3)
        pts = self._points(state, 3000, seed)
        lam_points = 0.8 * (stream(seed + 1).integers(0, 2, len(pts)) * 2 - 1)
        for t in (state.t, 0.37):
            want_v, want_d = oracle_effective(flow, state, pts, t)
            got_v, got_d = flow.effective(pts, t, with_density=True)
            self._assert_near(flow, got_v, got_d, want_v, want_d)
            dens, want_dens = flow.density(pts, t), oracle_density(flow, state, pts, t)
            assert np.all(np.abs(dens - want_dens) <= 1e-14 * flow.ref_peak)
            assert np.all(dens[want_dens == 0.0] == 0.0)
            for lam in (0.7, lam_points):
                want_a, want_ad = oracle_actual(flow, state, pts, t, lam)
                got_a, got_ad = flow.actual(pts, t, lam, with_density=True)
                self._assert_near(flow, got_a, got_ad, want_a, want_ad)
            # any leading shape
            grid_pts = pts[:2400].reshape(40, 60, 2)
            want_g, want_gd = oracle_effective(flow, state, grid_pts, t)
            got_g, got_gd = flow.effective(grid_pts, t, with_density=True)
            self._assert_near(flow, got_g, got_gd, want_g, want_gd)
        assert np.count_nonzero(want_d == 0.0) > 0, "the 1e-300 guard was not exercised"
        return flow

    @pytest.mark.parametrize("name", sorted(RING_STATES))
    def test_ring_states(self, grid, basis, name):
        coeffs = dict(self.RING_STATES[name])
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        state = make_state({l: c / norm for l, c in coeffs.items()}, basis, grid,
                           sigma=0.05, mu0=0.1)
        flow = self._check(state, seed=61)
        assert len(flow.coeffs) == sum(c != 0 for c in coeffs.values())

    @staticmethod
    def apart_state(basis, grid):
        # packets placed apart by hand, so the kernel's E sum is not empty
        state = make_state({-2: 0.6, 0: 0.48j, 1: 0.64}, basis, grid, sigma=0.05, mu0=0.1)
        offsets = {-2: 0.04, 0: -0.03, 1: 0.02}
        return replace(state, centers=state.centers + np.array(
            [offsets.get(l, 0.0) for l in basis.modes]))

    def test_packets_starting_apart(self, grid, basis):
        flow = self._check(self.apart_state(basis, grid), seed=65)
        assert [k for k, _ in flow._eps_terms] == [1, 2]

    def test_plane_wave_flow(self, grid):
        flow = self._check(plane_wave_state(grid), seed=62)
        # the zero-weight plane wave adds no row
        assert len(flow.coeffs) == 4

    def test_plane_wave_flow_far_from_zero_momentum(self, grid):
        # base momentum near 40: the rows leave out exp(i p_0 x), the oracle keeps it
        flow = self._check(plane_wave_state(grid, base=40.0), seed=62)
        assert len(flow.coeffs) == 4

    def test_line_mode_state_rejected(self, grid):
        # position states move under PointerReadoutFlow; ModeFlow has no line kernel
        with pytest.raises(TypeError, match="PointerReadoutFlow"):
            ModeFlow(line_mode_state(grid), g=1.3)


class BroadcastModeFlow(ModeFlow):
    """The kernel in broadcast form: a ``(K, n)`` mode table, ``c'[:, None] * G``,
    ``Psi`` by ``np.add.reduce`` over the mode axis, and ``W = sum w_k b_k`` and
    ``E = sum eps_k b_k`` as the last row of ``np.add.accumulate`` over ``(K, 1)``
    weights times the table, and ``ref_peak`` the bound ``(sum |c'_k|)^2``.
    ``accumulate`` starts from the first row, as the kernel does; ``reduce``
    starts from +0, which makes a sum of -0 terms +0."""

    def __init__(self, state, g):
        super().__init__(state, g)
        self.ref_peak = float(np.sum(np.abs(self._packet_coeffs))) ** 2

    def _mode_values(self, theta):
        z = _unit_phase(theta)
        powers = [None, z]
        for _ in range(1, int(np.max(np.abs(self._n)))):
            powers.append(powers[-1] * z)
        u = np.empty((len(self._n),) + theta.shape, dtype=complex)
        for k, n in enumerate(self._n):
            if n == 0:
                u[k] = 1.0
            elif n > 0:
                u[k] = powers[n]
            else:
                np.conjugate(powers[-n], out=u[k])
        return u

    def _packets(self, x, q2, t):
        shape = (-1,) + (1,) * q2.ndim
        gauss = self.centers(t).reshape(shape) - q2
        gauss *= gauss
        gauss *= self._gauss_rate
        np.exp(gauss, out=gauss)
        b = self._mode_values(self._kappa * x)
        b *= self._packet_coeffs.reshape(shape) * gauss
        return b

    @staticmethod
    def _reduce(b, terms):
        if not terms:
            return np.zeros(b.shape[1:], dtype=complex)
        rows, weights = map(list, zip(*terms))
        table = np.reshape(weights, (-1,) + (1,) * (b.ndim - 1)) * b[rows]
        return np.add.accumulate(table, axis=0)[-1]

    def _velocity(self, points, t, lam, with_density):
        b = self._packets(points[..., 0], points[..., 1], t)
        pc = np.conj(np.add.reduce(b, axis=0))
        dens = pc.real * pc.real + pc.imag * pc.imag
        pw = pc * self._reduce(b, self._w_terms)
        pe = pc * self._reduce(b, self._eps_terms) if self._eps_terms else None
        beta = self.g * (t - self.t0) / self._two_var
        vx = pw.imag * beta
        if pe is not None:
            vx += pe.imag
        if lam is not None:
            osmotic = (self._mu_ref - points[..., 1]) * dens / self._two_var + beta * pw.real
            vx += lam * (osmotic if pe is None else osmotic + pe.real)
        gain = self.g / np.maximum(dens, 1e-300)
        vq = pw.real if lam is None else pw.real - lam * pw.imag
        v = np.stack([vx * gain, vq * gain], axis=-1)
        return (v, dens) if with_density else v


class TestRefPeak:
    """``ModeFlow.ref_peak`` bounds the density, and in-phase states reach it."""

    def test_bound_holds_at_random_points_of_a_phased_state(self, grid, basis):
        coeffs = {-3: 0.3, -1: 0.5j, 0: 0.4, 2: -0.5, 3: 0.2 + 0.4j}
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        state = make_state({l: c / norm for l, c in coeffs.items()}, basis, grid,
                           sigma=0.05, mu0=0.1)
        flow = ModeFlow(state, g=1.3)
        pts = TestKernelOracle._points(state, 3000, seed=69)
        pts[::5, 1] = 0.1   # on the packet center at t0
        for t in (state.t, 0.37):
            assert np.all(flow.density(pts, t) <= flow.ref_peak)

    def test_in_phase_state_reaches_the_bound(self, grid, basis):
        state = make_state({-1: 0.6, 0: 0.64, 2: 0.48}, basis, grid, sigma=0.05, mu0=0.1)
        flow = ModeFlow(state, g=1.3)
        assert flow.density(np.array([[0.0, 0.1]]), state.t)[0] == flow.ref_peak


class TestKernelBits:
    """The row-by-row kernel returns the broadcast kernel's bits, far tail included."""

    @staticmethod
    def _assert_bits(got, want):
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def _check(self, state, seed):
        flow, ref = ModeFlow(state, g=1.3), BroadcastModeFlow(state, g=1.3)
        assert flow.ref_peak == ref.ref_peak
        pts = TestKernelOracle._points(state, 3000, seed)
        lam_points = 0.8 * (stream(seed + 1).integers(0, 2, len(pts)) * 2 - 1)
        for t in (state.t, 0.37):
            want_d = ref.density(pts, t)
            assert np.count_nonzero(want_d == 0.0) > 0, "no far-tail row"
            self._assert_bits([flow.density(pts, t)], [want_d])
            # the field's density is density()'s, bit for bit
            self._assert_bits([flow.effective(pts, t, with_density=True)[1]], [want_d])
            self._assert_bits(flow.effective(pts, t, with_density=True),
                              ref.effective(pts, t, with_density=True))
            for lam in (0.7, lam_points):
                self._assert_bits(flow.actual(pts, t, lam, with_density=True),
                                  ref.actual(pts, t, lam, with_density=True))
            grid_pts = pts[:2400].reshape(40, 60, 2)
            self._assert_bits(flow.effective(grid_pts, t, with_density=True),
                              ref.effective(grid_pts, t, with_density=True))
            self._assert_bits(flow.actual(grid_pts, t, 0.7, with_density=True),
                              ref.actual(grid_pts, t, 0.7, with_density=True))

    @pytest.mark.parametrize("name", sorted(TestKernelOracle.RING_STATES))
    def test_ring_states(self, grid, basis, name):
        coeffs = dict(TestKernelOracle.RING_STATES[name])
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        self._check(make_state({l: c / norm for l, c in coeffs.items()}, basis, grid,
                               sigma=0.05, mu0=0.1), seed=63)

    def test_packets_starting_apart(self, grid, basis):
        self._check(TestKernelOracle.apart_state(basis, grid), seed=66)

    def test_plane_wave_flow(self, grid):
        self._check(plane_wave_state(grid), seed=64)

    def test_plane_wave_flow_far_from_zero_momentum(self, grid):
        self._check(plane_wave_state(grid, base=40.0), seed=64)

    def test_ring_modes_sharing_and_skipping_rungs(self, grid, basis):
        # -3 and 3 share a power, no mode sits on rung 1, and -1 comes before 2
        coeffs = {-3: 0.3, -1: 0.5j, 0: 0.4, 2: -0.5, 3: 0.2 + 0.4j}
        norm = np.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
        self._check(make_state({l: c / norm for l, c in coeffs.items()}, basis, grid,
                               sigma=0.05, mu0=0.1), seed=67)

    def test_plane_wave_ladder_with_a_gap(self, grid):
        # seven rungs, three unoccupied: the occupied modes sit on rungs 0, 1, 4 and 6
        x = np.linspace(-2 * np.pi, 2 * np.pi, 256, endpoint=False)
        p = 3.0 + np.arange(-1.5, 5.0)
        c = np.array([0.3, 0.6, 0.0, 0.0, 0.5j, 0.0, -0.4 + 0.2j])
        self._check(SpectralState(coeffs=c / np.linalg.norm(c),
                                  modes=PlaneWaveModes(p, 4 * np.pi, x),
                                  packet=GaussianPacket(0.0, 0.05),
                                  centers=np.full(len(p), 0.02), t=0.0, grid=grid), seed=68)

    @pytest.mark.parametrize("state", ["ring", "plane-wave"])
    def test_calls_reuse_the_flow_plan(self, grid, basis, monkeypatch, state):
        # the mode plan is built with the flow; a field call sorts nothing
        state = (make_state({-1: 0.6, 0: 0.64, 2: 0.48}, basis, grid) if state == "ring"
                 else plane_wave_state(grid))
        flow = ModeFlow(state, g=1.3)
        sorts, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(a) or argsort(*a, **k))
        pts = TestKernelOracle._points(state, 64, 69)
        for points in (pts, pts.reshape(8, 8, 2)):
            flow.effective(points, 0.37)
            flow.effective(points, 0.37, with_density=True)
            flow.actual(points, 0.37, 0.7, with_density=True)
        assert sorts == []
        ModeFlow(state, g=1.3)
        assert sorts, "the counter missed the construction's sort"


class ColumnsFlow(ModeFlow):
    """Logs whether both coordinate columns are contiguous at every field or decision call."""

    def _velocity(self, points, t, lam, with_density):
        self.log.append(points[..., 0].flags.c_contiguous and points[..., 1].flags.c_contiguous)
        return super()._velocity(points, t, lam, with_density)

    def decided(self, points, *args):
        self.log.append(points[:, 0].flags.c_contiguous and points[:, 1].flags.c_contiguous)
        return super().decided(points, *args)


class TestLayout:
    """Component-major rows and row-major points give the same bits."""

    @pytest.mark.parametrize("state", ["ring", "plane-wave"])
    def test_kernel_reads_rows_and_points_alike(self, grid, basis, state):
        state = (make_state(TestKernelOracle.RING_STATES["three"], basis, grid, sigma=0.05,
                            mu0=0.1) if state == "ring" else plane_wave_state(grid))
        flow = ModeFlow(state, g=1.3)
        pts = TestKernelOracle._points(state, 3000, 70)
        rows = np.ascontiguousarray(pts.T)         # (2, n), each coordinate contiguous
        lam_points = 0.8 * (stream(71).integers(0, 2, len(pts)) * 2 - 1)
        same_bits = TestKernelBits._assert_bits
        for t in (state.t, 0.37):
            same_bits([flow.density(rows.T, t)], [flow.density(pts, t)])
            same_bits(flow.effective(rows.T, t, with_density=True),
                      flow.effective(pts, t, with_density=True))
            for lam in (0.7, lam_points):
                same_bits(flow.actual(rows.T, t, lam, with_density=True),
                          flow.actual(pts, t, lam, with_density=True))

    def test_velocity_components_are_contiguous(self, grid, basis):
        state = make_state(TestKernelOracle.RING_STATES["three"], basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.3)
        pts = TestKernelOracle._points(state, 64, 72)
        rows = np.ascontiguousarray(pts.T)
        for v in (flow.effective(pts, 0.37), flow.effective(pts, 0.37, with_density=True)[0],
                  flow.actual(pts, 0.37, 0.7), flow.effective(rows.T, 0.37),
                  PointerReadoutFlow(1.3).effective(pts, 0.37)):
            assert v.shape == pts.shape
            assert v[:, 0].flags.c_contiguous and v[:, 1].flags.c_contiguous

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_integration_ignores_the_layout_of_q0(self, grid, basis, velocity, monkeypatch):
        # node holds (the threshold of TestStepLoop), overflows below and decided
        # rows above all occur
        monkeypatch.setattr(trajectories, "EPS_NODE_REL", 1e-2)
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid, sigma=0.05)
        flow = ColumnsFlow(state, g=1.0)
        r = stream(73)
        n, n_steps = 96, 120
        q0 = np.stack([r.uniform(0.0, 2 * np.pi, n), r.uniform(-0.45, 0.45, n)], axis=-1)
        signs = (None if velocity == "effective"
                 else (r.integers(0, 2, size=(n, n_steps)) * 2 - 1).astype(np.int8))
        strided = np.zeros((2 * n, 4))
        strided[::2, 1::2] = q0
        flow.log = []
        runs = [integrate_ensemble(flow, q, EnsembleSpec(dt_traj=5e-3), 0.0, n_steps * 5e-3,
                                   sign_paths=signs, lambda_mag=1.0, q2_bounds=(-0.5, 0.9),
                                   snapshot_steps=(0, 7, 30, n_steps))
                for q in (q0, np.asfortranarray(q0), strided[::2, 1::2])]
        # the integrator hands the flow contiguous coordinates, retirements and holds included
        assert flow.log and all(flow.log)
        want = runs[0]
        assert want["overflow"].any() and want["node_clamped"].any()
        assert not np.all(np.isnan(want["decided_at"]))
        same_bits = TestKernelBits._assert_bits
        for got in runs[1:]:
            same_bits([got["configs"], got["decided_at"], *got["snapshots"].values()],
                      [want["configs"], want["decided_at"], *want["snapshots"].values()])
            assert np.array_equal(got["overflow"], want["overflow"])
            assert np.array_equal(got["node_clamped"], want["node_clamped"])
            assert got["node_held_steps"] == want["node_held_steps"]


class TestIntegration:
    @pytest.mark.parametrize("dt_traj", [0.0, -1e-3, float("nan")])
    def test_step_must_be_positive(self, dt_traj):
        with pytest.raises(ValueError, match="dt_traj"):
            EnsembleSpec(dt_traj=dt_traj)

    def test_zero_field_stays_put(self, grid, basis):
        state = make_state({0: 1.0}, basis, grid)   # real: zero effective field
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=0.01)
        q0 = np.array([[1.0, 0.0]])
        out = integrate_ensemble(flow, q0, spec, 0.0, 0.5, snapshot_steps=tuple(range(51)))
        assert len(out["snapshots"]) == 51
        for snap in out["snapshots"].values():
            assert np.allclose(snap, q0)

    @pytest.mark.parametrize("step", [51, -1, 2.5])
    def test_snapshot_step_outside_run_raises_before_stepping(self, grid, basis, step):
        flow = RecordingFlow(ModeFlow(make_state({0: 1.0}, basis, grid), g=1.0))
        with pytest.raises(ValueError, match=f"snapshot step {step} .*n_steps = 50"):
            integrate_ensemble(flow, np.array([[1.0, 0.0]]), EnsembleSpec(dt_traj=0.01),
                               0.0, 0.5, snapshot_steps=(0, 50, step))
        assert flow.calls == []

    @pytest.mark.parametrize("q0, match", [
        (np.array([1.0, 0.0]), r"q0 must be an \(n, 2\) array .*shape \(2,\)"),
        (np.zeros((3, 3)), r"q0 must be an \(n, 2\) array .*shape \(3, 3\)"),
        (np.array([[1.0, 0.0], [2.0, np.nan]]), "q0 row 1 is not finite"),
    ], ids=["one-dimensional", "three-columns", "nan-row"])
    def test_q0_must_be_finite_rows_before_stepping(self, grid, basis, q0, match):
        flow = RecordingFlow(ModeFlow(make_state({0: 1.0}, basis, grid), g=1.0))
        with pytest.raises(ValueError, match=match):
            integrate_ensemble(flow, q0, EnsembleSpec(dt_traj=0.01), 0.0, 0.5)
        assert flow.calls == []

    def test_single_mode_pointer_relation(self, grid, basis):
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=1e-3)
        out = integrate_ensemble(flow, np.array([[0.7, 0.02]]), spec, 0.0, 1.0,
                                 q2_bounds=(grid.q2_min, grid.q2_max),
                                 snapshot_steps=(0, 1000))
        shift = out["snapshots"][1000][0, 1] - out["snapshots"][0][0, 1]
        assert shift == pytest.approx(2.0, abs=1e-6)
        assert not out["overflow"][0]

    def test_richardson_convergence(self, grid, basis):
        state = make_state({0: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        flow = ModeFlow(state, g=1.0)
        ends = {}
        for dt in (4e-3, 2e-3, 1e-3):
            spec = EnsembleSpec(dt_traj=dt)
            steps = int(round(0.4 / dt))
            out = integrate_ensemble(flow, np.array([[1.2, 0.1]]), spec, 0.0, 0.4,
                                     snapshot_steps=(steps,))
            ends[dt] = out["snapshots"][steps][0]
        d1 = np.linalg.norm(ends[4e-3] - ends[2e-3])
        d2 = np.linalg.norm(ends[2e-3] - ends[1e-3])
        assert 12.0 < d1 / d2 < 20.0            # fourth order: 2^4

    def test_ensemble_matches_individual(self, grid, basis):
        # a 4-row batch equals four 1-row batches, along the whole path
        state = make_state({-1: np.sqrt(0.4), 1: np.sqrt(0.6)}, basis, grid)
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=2e-3)
        q0 = np.array([[0.5, 0.1], [2.0, -0.2], [4.0, 0.0], [1.0, 0.3]])
        steps = (0, 50, 100, 150)
        batch = integrate_ensemble(flow, q0, spec, 0.0, 0.3, snapshot_steps=steps)
        for i in range(4):
            single = integrate_ensemble(flow, q0[i:i + 1], spec, 0.0, 0.3,
                                        snapshot_steps=steps)
            assert np.allclose(batch["configs"][i], single["configs"][0], atol=1e-12)
            for k in steps:
                assert np.allclose(batch["snapshots"][k][i], single["snapshots"][k][0],
                                   atol=1e-12)

    def test_overflow_flagged(self, grid, basis):
        # trajectory rides the drifting packet off the edge of the pointer grid
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=1e-2)
        out = integrate_ensemble(flow, np.array([[0.0, 0.0]]), spec, 0.0, 2.0,
                                 q2_bounds=(grid.q2_min, grid.q2_max))
        assert out["overflow"][0]
        assert out["configs"][0, 1] <= grid.q2_max

    def test_unflagged_trials_stay_off_nodes(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid,
                           sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=1e-3)
        r = stream(31)
        theta = RingSampler(state.coeffs, state.modes.modes)(128, r)
        q2 = r.normal(0.0, 0.05, 128)
        q0 = np.stack([theta, q2], axis=-1)
        out = integrate_ensemble(flow, q0, spec, 0.0, 0.5,
                                 snapshot_steps=(100, 300, 500))
        eps = EPS_NODE_REL * flow.ref_peak
        clamped = out["node_clamped"]
        for step, snap in out["snapshots"].items():
            dens = flow.density(snap, step * spec.dt_traj)
            assert np.all(dens[~clamped] >= eps)
        # Born-initialized trials essentially never strand between packets
        assert clamped.sum() <= 2


class RecordingFlow:
    """Forwards to a flow and logs ``(kind, rows)`` for every field evaluation.

    Its decision rule decides no row, so every live row steps to the end.
    """

    def __init__(self, flow):
        self.flow = flow
        self.ref_peak = flow.ref_peak
        self.calls = []

    def effective(self, points, t, **kw):
        self.calls.append(("velocity", len(points)))
        return self.flow.effective(points, t, **kw)

    def actual(self, points, t, lambda_signed, **kw):
        self.calls.append(("velocity", len(points)))
        return self.flow.actual(points, t, lambda_signed, **kw)

    def density(self, points, t):
        self.calls.append(("density", len(points)))
        return self.flow.density(points, t)

    def decided(self, points, dens, t, t_end, q2_bounds, eps_abs):
        none = np.zeros(len(points))
        return none.astype(bool), none, none


def oracle_step(flow, x, t, dt, lam):
    def vel(p, s):
        return flow.effective(p, s) if lam is None else flow.actual(p, s, lam)
    k1 = vel(x, t)
    k2 = vel(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = vel(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = vel(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def oracle_integrate(flow, q0, spec, t0, n_steps, sign_paths, lambda_mag, q2_bounds):
    """Reference loop: every trial steps every time, then a separate landing check."""
    x = np.array(q0, dtype=float)
    overflow = np.zeros(len(x), dtype=bool)
    clamped = np.zeros(len(x), dtype=bool)
    # read at call time, so a test may raise the threshold
    eps_abs = trajectories.EPS_NODE_REL * flow.ref_peak
    landings = 0
    for k in range(n_steps):
        t = t0 + k * spec.dt_traj
        lam = None if sign_paths is None else lambda_mag * sign_paths[:, k]
        prop = oracle_step(flow, x, t, spec.dt_traj, lam)
        bad = flow.density(prop, t + spec.dt_traj) < eps_abs
        landings += int(np.count_nonzero(bad & ~overflow))
        prop[bad] = x[bad]
        clamped |= bad
        if q2_bounds is not None:
            out = (prop[:, 1] < q2_bounds[0]) | (prop[:, 1] > q2_bounds[1])
            overflow |= out & ~overflow
        prop[overflow] = x[overflow]
        x = prop
    return x, overflow, clamped, landings


class TestStepLoop:
    """The loop evaluates each stage once and drops frozen trials."""

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_matches_reference_loop(self, grid, basis, velocity, monkeypatch):
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=1e-2)
        # a threshold this high makes the node rule fire within 30 steps
        monkeypatch.setattr(trajectories, "EPS_NODE_REL", 1e-2)
        r = stream(41)
        n, n_steps = 96, 30
        q0 = np.stack([r.uniform(0.0, 2 * np.pi, n), r.uniform(-0.45, 0.45, n)], axis=-1)
        signs = None
        if velocity == "actual":
            signs = (r.integers(0, 2, size=(n, n_steps)) * 2 - 1).astype(np.int8)
        bounds = (-0.5, 0.5)
        want, w_over, w_clamped, landings = oracle_integrate(
            flow, q0, spec, 0.0, n_steps, signs, 1.0, bounds)
        got = integrate_ensemble(flow, q0, spec, 0.0, n_steps * spec.dt_traj,
                                 sign_paths=signs, lambda_mag=1.0, q2_bounds=bounds)
        assert landings > 0                      # the node rule fired
        assert 0 < w_over.sum() < n              # some trials froze, not all
        assert np.array_equal(got["configs"], want)
        assert np.array_equal(got["overflow"], w_over)
        # frozen trials stop collecting node flags; live ones must agree
        assert np.array_equal(got["node_clamped"][~w_over], w_clamped[~w_over])

    def test_one_field_evaluation_per_stage(self, grid, basis):
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = RecordingFlow(ModeFlow(state, g=1.0))
        q0 = np.array([[0.3, 0.01], [2.0, -0.02], [4.5, 0.0]])
        n_steps = 25
        integrate_ensemble(flow, q0, EnsembleSpec(dt_traj=1e-3), 0.0, n_steps * 1e-3,
                           q2_bounds=(grid.q2_min, grid.q2_max))
        kinds = [kind for kind, _ in flow.calls]
        assert kinds.count("velocity") == 4 * n_steps + 1
        assert kinds.count("density") == 0

    def test_node_landing_holds_the_row(self, grid, basis):
        # row 1 starts 9 sigma ahead of the packet, where |Psi|^2 is below the node
        # threshold, and holds there until the packet, moving at g omega = 2, arrives
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = RecordingFlow(ModeFlow(state, g=1.0))
        q0 = np.array([[0.3, 0.01], [1.0, 0.45]])
        spec = EnsembleSpec()
        n_steps = 60
        out = integrate_ensemble(flow, q0, spec, 0.0, n_steps * spec.dt_traj,
                                 q2_bounds=(grid.q2_min, grid.q2_max),
                                 snapshot_steps=tuple(range(n_steps + 1)))
        eps = EPS_NODE_REL * flow.ref_peak
        assert flow.flow.density(q0[1:], 0.0)[0] < eps
        path = np.array([out["snapshots"][k][1] for k in range(n_steps + 1)])
        held = np.all(path == q0[1], axis=1)
        n_held = int(np.argmin(held)) - 1          # steps taken before it first moves
        assert 0 < n_held < n_steps - 1
        assert np.all(held[:n_held + 1]) and not np.any(held[n_held + 1:])
        # it moves on the first step whose landing is no longer a node
        landing = path[n_held + 1]
        assert flow.flow.density(landing[None], (n_held + 1) * spec.dt_traj)[0] >= eps
        assert flow.flow.density(landing[None], n_held * spec.dt_traj)[0] < eps
        assert out["node_clamped"].tolist() == [False, True]
        assert not np.any(out["overflow"])
        # no density calls; each held step re-evaluates the held row's first stage
        kinds = [kind for kind, _ in flow.calls]
        assert kinds.count("density") == 0
        assert flow.calls.count(("velocity", 1)) == n_held
        assert kinds.count("velocity") == 4 * n_steps + 1 + n_held

    def test_held_steps_count_each_held_row_step(self, grid, basis):
        # the held row of the test above, twice (a one-mode density ignores theta):
        # one count per row and step waited at its start
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        q0 = np.array([[0.3, 0.01], [1.0, 0.45], [2.0, 0.45]])
        spec = EnsembleSpec()
        n_steps = 60
        out = integrate_ensemble(ModeFlow(state, g=1.0), q0, spec, 0.0, n_steps * spec.dt_traj,
                                 q2_bounds=(grid.q2_min, grid.q2_max),
                                 snapshot_steps=tuple(range(n_steps + 1)))
        path = np.array([out["snapshots"][k][1] for k in range(n_steps + 1)])
        n_held = int(np.argmin(np.all(path == q0[1], axis=1))) - 1
        assert n_held > 0
        assert np.array_equal(out["snapshots"][n_held][2], q0[2])
        assert out["node_held_steps"] == 2 * n_held
        # no row on a node, no count
        free = integrate_ensemble(ModeFlow(state, g=1.0), q0[:1], spec, 0.0,
                                  n_steps * spec.dt_traj, q2_bounds=(grid.q2_min, grid.q2_max))
        assert not np.any(free["node_clamped"]) and free["node_held_steps"] == 0

    def test_row_held_outside_the_bounds_leaves_at_once(self, grid, basis):
        # row 1 starts beyond the upper bound in the far tail: its first landing is a
        # node, so it holds at q0, overflows there and is never evaluated again
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = RecordingFlow(ModeFlow(state, g=1.0))
        q0 = np.array([[0.3, 0.01], [1.0, 0.6]])
        out = integrate_ensemble(flow, q0, EnsembleSpec(), 0.0, 0.01, q2_bounds=(-0.5, 0.5))
        assert out["overflow"].tolist() == out["node_clamped"].tolist() == [False, True]
        assert out["node_held_steps"] == 1
        assert np.array_equal(out["configs"][1], q0[1])
        assert min(rows for _, rows in flow.calls) == 1

    def test_loop_stops_once_the_last_rows_overflow(self, grid, basis):
        # every row leaves the bounds on step 0: the field is evaluated at the
        # start and four times in that step, and never on zero rows
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = RecordingFlow(ModeFlow(state, g=1.0))
        q0 = np.array([[0.3, 0.0], [1.0, 2e-5], [2.0, -2e-5]])
        out = integrate_ensemble(flow, q0, EnsembleSpec(dt_traj=1e-3), 0.0, 0.05,
                                 q2_bounds=(-1e-4, 1e-4), snapshot_steps=(0, 1, 50))
        assert out["overflow"].all()
        assert [rows for kind, rows in flow.calls if kind == "velocity"] == [3] * 5
        # an overflowed row freezes at its last configuration
        for k in (0, 1, 50):
            assert np.array_equal(out["snapshots"][k], q0)
        assert np.array_equal(out["configs"], q0)

    def test_node_policy_rows_count_held_steps(self, monkeypatch):
        # the node-policy kind of tools/result_hashes.py, both velocities
        path = Path(__file__).resolve().parents[1] / "tools" / "result_hashes.py"
        spec = importlib.util.spec_from_file_location("result_hashes", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        runs = []
        monkeypatch.setattr(stochaction, "integrate_ensemble",
                            lambda *a, **k: runs.append(integrate_ensemble(*a, **k)) or runs[-1])
        tool.node_policy()
        assert len(runs) == 2
        for run in runs:
            clamped = int(np.count_nonzero(run["node_clamped"]))
            assert clamped > 0 and run["node_held_steps"] >= clamped

    def test_frozen_trial_leaves_working_set(self, grid, basis):
        # trial 0 starts near the upper bound and rides the packet out early
        state = make_state({2: 1.0}, basis, grid)
        q0 = np.array([[0.3, 0.45], [2.0, 0.01], [4.5, -0.02], [1.0, 0.0]])
        spec = EnsembleSpec(dt_traj=1e-3)
        steps = (0, 20, 100, 200)
        flow = RecordingFlow(ModeFlow(state, g=1.0))
        full = integrate_ensemble(flow, q0, spec, 0.0, 0.2, q2_bounds=(-0.5, 0.5),
                                  snapshot_steps=steps)
        rows = [m for _, m in flow.calls]
        assert len(q0) - 1 in rows, "the frozen trial was never dropped"
        first_drop = rows.index(len(q0) - 1)
        assert first_drop < len(rows) // 4
        assert max(rows[first_drop:]) == len(q0) - 1
        assert full["overflow"].tolist() == [True, False, False, False]
        assert full["configs"][0, 1] <= 0.5
        # RecordingFlow decides no row: both batches step every live row
        rest = integrate_ensemble(RecordingFlow(ModeFlow(state, g=1.0)), q0[1:], spec,
                                  0.0, 0.2, q2_bounds=(-0.5, 0.5), snapshot_steps=steps)
        assert np.array_equal(full["configs"][1:], rest["configs"])
        for k in steps:
            assert np.array_equal(full["snapshots"][k][1:], rest["snapshots"][k])
        assert np.array_equal(full["snapshots"][200][0], full["configs"][0])


def parent_integrate(flow, q0, spec, t0, duration, sign_paths=None, lambda_mag=0.0,
                     q2_bounds=None, snapshot_steps=()):
    """The integration loop before decided trials: every live row steps until the end."""
    n_steps = int(round(duration / spec.dt_traj))
    dt = spec.dt_traj
    configs = np.array(q0, dtype=float)
    n = configs.shape[0]
    overflow = np.zeros(n, dtype=bool)
    node_clamped = np.zeros(n, dtype=bool)
    eps_abs = EPS_NODE_REL * flow.ref_peak
    snapshots = {}
    if 0 in snapshot_steps:
        snapshots[0] = configs.copy()
    live = np.arange(n)
    x = configs.copy()
    lam = None if sign_paths is None else lambda_mag * sign_paths[:, 0]
    v = _stage_velocity(flow, x, t0, lam)
    for k in range(n_steps):
        t = t0 + k * dt
        t_next = t0 + (k + 1) * dt
        prop = _step(flow, x, t, dt, lam, v)
        lam_next = (None if sign_paths is None or k + 1 == n_steps
                    else lambda_mag * sign_paths[live, k + 1])
        v_next, landing = _stage_velocity(flow, prop, t_next, lam_next, with_density=True)
        bad = landing < eps_abs
        if np.any(bad):
            prop[bad] = x[bad]
            node_clamped[live[bad]] = True
        newly = np.zeros(len(live), dtype=bool)
        if q2_bounds is not None:
            newly |= (prop[:, 1] < q2_bounds[0]) | (prop[:, 1] > q2_bounds[1])
        if np.any(newly):
            configs[live[newly]] = x[newly]
            overflow[live[newly]] = True
            keep = ~newly
            live, prop, bad, v_next = live[keep], prop[keep], bad[keep], v_next[keep]
            if lam_next is not None:
                lam_next = lam_next[keep]
        x = prop
        if np.any(bad) and k + 1 < n_steps:
            v_next[bad] = _stage_velocity(flow, x[bad], t_next,
                                          None if lam_next is None else lam_next[bad])
        v, lam = v_next, lam_next
        if (k + 1) in snapshot_steps:
            snap = configs.copy()
            snap[live] = x
            snapshots[k + 1] = snap
    configs[live] = x
    return {"configs": configs, "overflow": overflow, "node_clamped": node_clamped,
            "snapshots": snapshots}


def seven_mode_state(basis, grid):
    weights = [0.05, 0.1, 0.15, 0.4, 0.15, 0.1, 0.05]
    phases = [0.0, 0.3, 1.1, 0.0, -0.7, 2.0, 0.4]
    return make_state({l: np.sqrt(w) * np.exp(1j * ph)
                       for l, w, ph in zip(range(-3, 4), weights, phases)},
                      basis, grid, sigma=0.05)


def window_outcomes(flow, q2, overflow, t_end, window):
    """Index of the unique occupied packet window holding each landing, else -1."""
    centers = flow.centers(t_end)[flow.coeffs != 0]
    hits = np.abs(q2[:, None] - centers[None, :]) < window
    out = np.where(hits.sum(axis=1) == 1, np.argmax(hits, axis=1), -1)
    return np.where(overflow, -2, out)


class TestDecidedTrials:
    """Separated trials finish on their pointer line with the parent loop's outcomes."""

    @pytest.mark.parametrize("name", ["three", "seven", "plane"])
    def test_same_outcomes_as_parent_loop(self, grid, basis, name):
        state = {
            "three": make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                                basis, grid, sigma=0.05),
            "seven": seven_mode_state(basis, grid),
            "plane": plane_wave_state(grid),
        }[name]
        flow = ModeFlow(state, g=1.0)
        q0 = _initial_draws(state, 11, np.arange(256), stream(11), None, 1)[0]
        spec = EnsembleSpec(dt_traj=2e-3)
        steps = (0, 250, 500)
        kw = dict(q2_bounds=(grid.q2_min, grid.q2_max), snapshot_steps=steps)
        want = parent_integrate(flow, q0, spec, 0.0, 1.0, **kw)
        got = integrate_ensemble(flow, q0, spec, 0.0, 1.0, **kw)
        decided = ~np.isnan(got["decided_at"])
        assert decided.sum() > len(q0) // 2
        assert np.array_equal(got["overflow"], want["overflow"])
        assert np.array_equal(got["node_clamped"], want["node_clamped"])
        assert np.array_equal(window_outcomes(flow, got["configs"][:, 1], got["overflow"],
                                              1.0, 0.2),
                              window_outcomes(flow, want["configs"][:, 1], want["overflow"],
                                              1.0, 0.2))
        assert np.max(np.abs(got["configs"] - want["configs"])) <= 1e-12
        for k in steps:
            assert np.max(np.abs(got["snapshots"][k] - want["snapshots"][k])) <= 1e-12
        # rows undecided at a snapshot are still bit-equal there
        mid = np.isnan(got["decided_at"]) | (got["decided_at"] > 0.5)
        assert np.array_equal(got["snapshots"][250][mid], want["snapshots"][250][mid])

    @staticmethod
    def _crossing_state(basis, grid, center_minus):
        # modes -1 and +1 with their packets placed apart by hand
        c = np.zeros(len(basis.modes), dtype=complex)
        centers = np.zeros(len(basis.modes))
        for l, mu in ((-1, center_minus), (1, -center_minus)):
            i = np.flatnonzero(basis.modes == l)[0]
            c[i], centers[i] = np.sqrt(0.5), mu
        return SpectralState(coeffs=c, modes=basis,
                             packet=GaussianPacket(0.0, 0.05), centers=centers, t=0.0,
                             grid=grid)

    def test_approaching_packet_is_not_decided(self, grid, basis):
        # the row sits in packet -1 and the +1 packet is 60 exponent units away:
        # decided when that packet recedes, not when it approaches
        for center_minus, q2, want in ((0.5, 0.3, False), (-0.5, -0.3, True)):
            flow = ModeFlow(self._crossing_state(basis, grid, center_minus), g=1.0)
            pts = np.array([[1.0, q2]])
            done, speed, _ = flow.decided(pts, flow.density(pts, 0.0), 0.0, 1.0,
                                          (grid.q2_min, grid.q2_max), 1e-300)
            assert done.tolist() == [want]
            assert speed[0] == -1.0
        flow = ModeFlow(self._crossing_state(basis, grid, 0.5), g=1.0)
        q0 = np.array([[1.0, 0.3], [2.0, 0.35]])
        spec = EnsembleSpec(dt_traj=1e-3)
        want = parent_integrate(flow, q0, spec, 0.0, 0.2, snapshot_steps=(100, 200))
        got = integrate_ensemble(flow, q0, spec, 0.0, 0.2, snapshot_steps=(100, 200))
        assert np.all(np.isnan(got["decided_at"]))
        assert np.array_equal(got["configs"], want["configs"])

    def test_finish_out_of_bounds_is_not_decided(self, grid, basis):
        # one mode: a row decides at once unless its straight finish leaves the bounds
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        q0 = np.array([[0.3, 0.45], [2.0, 0.01]])
        spec = EnsembleSpec(dt_traj=1e-3)
        kw = dict(q2_bounds=(-0.5, 0.5), snapshot_steps=(20, 200))
        want = parent_integrate(flow, q0, spec, 0.0, 0.2, **kw)
        got = integrate_ensemble(flow, q0, spec, 0.0, 0.2, **kw)
        assert np.isnan(got["decided_at"][0]) and got["decided_at"][1] == 0.0
        assert got["overflow"].tolist() == want["overflow"].tolist() == [True, False]
        assert np.array_equal(got["configs"][0], want["configs"][0])
        assert got["configs"][1, 1] == 0.01 + 2.0 * 0.2
        assert abs(got["configs"][1, 1] - want["configs"][1, 1]) <= 1e-12

    def test_row_below_node_threshold_is_not_decided(self, grid, basis):
        # 9 sigma out the density is below the node threshold: the row stays with
        # the node policy, as in the parent loop, instead of finishing on its line
        state = make_state({2: 1.0}, basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        q0 = np.array([[0.3, 0.45], [2.0, 0.01]])
        spec = EnsembleSpec(dt_traj=1e-3)
        want = parent_integrate(flow, q0, spec, 0.0, 0.05)
        got = integrate_ensemble(flow, q0, spec, 0.0, 0.05)
        assert np.isnan(got["decided_at"][0]) and got["decided_at"][1] == 0.0
        assert want["node_clamped"].tolist() == got["node_clamped"].tolist() == [True, False]
        assert np.array_equal(got["configs"][0], want["configs"][0])

    def test_one_mode_rows_finish_at_once(self, grid, basis):
        calls = []

        class CountingFlow(ModeFlow):
            def effective(self, points, t, **kw):
                calls.append(len(points))
                return super().effective(points, t, **kw)

        flow = CountingFlow(make_state({2: 1.0}, basis, grid, sigma=0.05), g=1.0)
        q0 = np.array([[0.3, 0.01], [2.0, -0.02], [4.5, 0.0]])
        out = integrate_ensemble(flow, q0, EnsembleSpec(dt_traj=1e-3), 0.0, 1.0,
                                 q2_bounds=(grid.q2_min, grid.q2_max),
                                 snapshot_steps=(0, 500, 1000))
        assert calls == [3]                       # the first stage, then no steps
        assert np.array_equal(out["decided_at"], np.zeros(3))
        assert np.array_equal(out["configs"][:, 0], q0[:, 0])
        assert np.array_equal(out["configs"][:, 1], q0[:, 1] + 2.0 * (1000 * 1e-3))
        assert np.array_equal(out["snapshots"][500][:, 1], q0[:, 1] + 2.0 * (500 * 1e-3))

    @pytest.mark.parametrize("name", ["three", "seven"])
    @pytest.mark.parametrize("law", ["iid", "telegraph"])
    def test_actual_run_same_outcomes_as_parent_loop(self, grid, basis, name, law):
        # decided rows of an actual run finish on their pointer line, with theta
        # moved by its rate times lambda_mag dt times the row's sign sum
        state = (seven_mode_state(basis, grid) if name == "seven" else
                 make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                            basis, grid, sigma=0.05))
        flow = ModeFlow(state, g=1.0)
        trials = np.arange(256)
        q0 = _initial_draws(state, 12, trials, stream(12), None, 1)[0]
        n_steps = 500
        stoch = StochasticParams(sign_law=law, flip_prob=0.1 if law == "telegraph" else 0.5)
        signs = _initial_draws(state, 13, trials, stream(13), stoch, n_steps)[1]
        steps = (0, 350, 500)
        kw = dict(sign_paths=signs, lambda_mag=0.8, q2_bounds=(grid.q2_min, grid.q2_max),
                  snapshot_steps=steps)
        spec = EnsembleSpec(dt_traj=2e-3)
        want = parent_integrate(flow, q0, spec, 0.0, 1.0, **kw)
        got = integrate_ensemble(flow, q0, spec, 0.0, 1.0, **kw)
        decided = ~np.isnan(got["decided_at"])
        assert decided.sum() > len(q0) // 3
        assert np.array_equal(got["overflow"], want["overflow"])
        assert np.array_equal(got["node_clamped"], want["node_clamped"])
        assert np.array_equal(window_outcomes(flow, got["configs"][:, 1], got["overflow"],
                                              1.0, 0.2),
                              window_outcomes(flow, want["configs"][:, 1], want["overflow"],
                                              1.0, 0.2))
        # theta goes on moving after the decision
        early = got["decided_at"] < 0.69
        assert np.any(np.abs(got["configs"][early, 0] - got["snapshots"][350][early, 0]) > 1e-3)
        assert np.max(np.abs(got["configs"] - want["configs"])) <= 1e-12
        for k in steps:
            assert np.max(np.abs(got["snapshots"][k] - want["snapshots"][k])) <= 1e-12
        # rows undecided at a snapshot are still bit-equal there
        mid = ~early
        assert np.array_equal(got["snapshots"][350][mid], want["snapshots"][350][mid])

    def test_position_readout_decides_every_row_that_stays_in_bounds(self):
        # a flat state across the window; the pointer grid ends inside its last bin
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
        psi = np.where(np.abs(x) < 3.9, 1.0, 0.0).astype(complex)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        pipe = substitute_observable("position", psi, x, window=(-4.0, 4.0), n_bins=8,
                                     config=config, grid=GridSpec(-8.0, 3.75))
        state = pipe.state0
        flow = PointerReadoutFlow(config.g)
        q0 = _initial_draws(state, 14, np.arange(400), stream(14), None, 1)[0]
        kw = dict(q2_bounds=(state.grid.q2_min, state.grid.q2_max), snapshot_steps=(0, 250))
        spec = EnsembleSpec(dt_traj=2e-3)
        want = parent_integrate(flow, q0, spec, 0.0, 1.0, **kw)
        got = integrate_ensemble(flow, q0, spec, 0.0, 1.0, **kw)
        overflow = got["overflow"]
        assert 0 < overflow.sum() < len(q0) // 10
        assert np.array_equal(overflow, want["overflow"])
        assert not np.any(got["node_clamped"]) and not np.any(want["node_clamped"])
        # a row is decided at t0 exactly when it does not overflow
        assert np.array_equal(np.isnan(got["decided_at"]), overflow)
        assert np.all(got["decided_at"][~overflow] == 0.0)
        assert np.array_equal(got["configs"][overflow], want["configs"][overflow])
        assert np.array_equal(got["configs"][:, 0], want["configs"][:, 0])
        assert np.max(np.abs(got["configs"] - want["configs"])) <= 1e-12
        assert np.max(np.abs(got["snapshots"][250] - want["snapshots"][250])) <= 1e-12
        bins = [np.searchsorted(pipe.outcome_edges, run["configs"][~overflow, 1])
                for run in (got, want)]
        assert np.array_equal(*bins)

    @pytest.mark.parametrize("lam", [0.8, -1.5])
    def test_actual_velocity_error_within_neglected_mode_bound(self, grid, basis, lam):
        # the osmotic term adds the real parts of the sums the effective field
        # takes the imaginary parts of, so each bound gains a factor (1 + |lam|):
        # |v_q2 - g omega_k| <= (1 + |lam|) g sum rho_j |omega_j - omega_k| / (1 - R)
        # |v_x - lam rate_k| <= (1 + |lam|) g sum rho_j |mu_j - mu_k| / (2 sigma^2 (1 - R))
        state = seven_mode_state(basis, grid)
        flow = ModeFlow(state, g=1.3)
        t = 0.8
        r = stream(15)
        pts = np.stack([r.uniform(0.0, 2 * np.pi, 20000), r.uniform(-3.5, 3.5, 20000)],
                       axis=-1)
        mu = flow.centers(t)
        amp = np.abs(flow.coeffs)[:, None] * np.exp(
            -(pts[:, 1][None, :] - mu[:, None]) ** 2 / (4 * flow.sigma**2))
        top = np.argmax(amp, axis=0)
        rho = amp / amp[top, np.arange(len(pts))]
        rho[top, np.arange(len(pts))] = 0.0
        total = rho.sum(axis=0)
        use = total < 0.5
        scale = (1 + abs(lam)) * flow.g / (1 - total)
        bound_q = scale * np.sum(rho * np.abs(flow.omegas[:, None] - flow.omegas[top]), axis=0)
        bound_x = scale * np.sum(rho * np.abs(mu[:, None] - mu[top]), axis=0) / (
            2 * flow.sigma**2)
        rate = flow.g * (mu[top] - pts[:, 1]) / (2 * flow.sigma**2)
        v = flow.actual(pts, t, lam)
        err_q = np.abs(v[:, 1] - flow.g * flow.omegas[top])
        err_x = np.abs(v[:, 0] - lam * rate)
        slack = 1e-12          # the kernel's own rounding
        assert np.all(err_q[use] <= bound_q[use] * (1 + 1e-9) + slack)
        assert np.all(err_x[use] <= bound_x[use] * (1 + 1e-9) + slack)
        big = use & (bound_q > 1e-8)
        assert np.max(err_q[big] / bound_q[big]) > 0.3
        assert np.max(err_x[big] / bound_x[big]) > 0.3
        # at decision time both errors are rounding, and decided() gives the rate
        done, speed, got_rate = flow.decided(pts, flow.density(pts, t), t, 1.0,
                                             (-np.inf, np.inf), 0.0)
        assert done.sum() > 1000
        assert np.all(total[done] < len(mu) * DECIDE_EPS)
        assert np.all(bound_q[done] <= 1e-13) and np.all(bound_x[done] <= 1e-11)
        assert np.all(err_q[done] <= bound_q[done] + slack)
        assert np.all(err_x[done] <= bound_x[done] + slack)
        assert np.array_equal(speed[done], flow.g * flow.omegas[top[done]])
        assert np.allclose(got_rate[done], rate[done], rtol=1e-12, atol=1e-12)

    def test_velocity_error_within_neglected_mode_bound(self, grid, basis):
        # with rho_j = |c_j G_j| / |c_k G_k| and R = sum rho_j < 1 for the
        # dominant packet k: |v_q2 - g omega_k| <= g sum rho_j |omega_j - omega_k| / (1 - R)
        # and |v_x| <= g sum rho_j |mu_j - mu_k| / (2 sigma^2 (1 - R))
        state = make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                           basis, grid, sigma=0.05)
        flow = ModeFlow(state, g=1.3)
        t = 0.4
        r = stream(14)
        pts = np.stack([r.uniform(0.0, 2 * np.pi, 20000), r.uniform(-0.8, 0.8, 20000)],
                       axis=-1)
        mu = flow.centers(t)
        amp = np.abs(flow.coeffs)[:, None] * np.exp(
            -(pts[:, 1][None, :] - mu[:, None]) ** 2 / (4 * flow.sigma**2))
        top = np.argmax(amp, axis=0)
        rho = amp / amp[top, np.arange(len(pts))]
        rho[top, np.arange(len(pts))] = 0.0
        total = rho.sum(axis=0)
        use = total < 0.5
        bound_q = flow.g * np.sum(rho * np.abs(flow.omegas[:, None] - flow.omegas[top]),
                                  axis=0) / (1 - total)
        bound_x = flow.g * np.sum(rho * np.abs(mu[:, None] - mu[top]), axis=0) / (
            2 * flow.sigma**2 * (1 - total))
        v = flow.effective(pts, t)
        err_q = np.abs(v[:, 1] - flow.g * flow.omegas[top])
        err_x = np.abs(v[:, 0])
        slack = 1e-12          # the kernel's own rounding
        assert np.all(err_q[use] <= bound_q[use] * (1 + 1e-9) + slack)
        assert np.all(err_x[use] <= bound_x[use] * (1 + 1e-9) + slack)
        # the bounds are attained up to the phases of the neglected terms
        big = use & (bound_q > 1e-8)
        assert np.max(err_q[big] / bound_q[big]) > 0.5
        assert np.max(err_x[big] / bound_x[big]) > 0.5
        # at the decision threshold both errors are rounding
        tiny = total < DECIDE_EPS
        assert tiny.sum() > 1000
        assert np.all(bound_q[tiny] <= 1e-14) and np.all(bound_x[tiny] <= 1e-12)


class TestEquivariance:
    def _ensemble(self, state, n, seed, t_end, biased=False):
        flow = ModeFlow(state, g=1.0)
        r = stream(seed)
        if biased:
            theta = r.uniform(0, 2 * np.pi, n)
            q2 = r.uniform(-0.6, 0.6, n)
            q0 = np.stack([theta, q2], axis=-1)
        else:
            theta = RingSampler(state.coeffs, state.modes.modes)(n, r)
            q2 = r.normal(state.packet.center, state.packet.sigma, n)
            q0 = np.stack([theta, q2], axis=-1)
        spec = EnsembleSpec(dt_traj=2e-3)
        steps = int(round(t_end / spec.dt_traj))
        out = integrate_ensemble(flow, q0, spec, 0.0, t_end,
                                 snapshot_steps=(steps,))
        return out["snapshots"][steps]

    def test_plane_wave_state_rejected(self, grid):
        with pytest.raises(NotImplementedError, match="assume the ring system"):
            equivariance_report({0.0: np.zeros((4, 2))}, plane_wave_state(grid), g=1.0)

    def test_born_ensemble_stays_born(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                           basis, grid, sigma=0.05)
        snap = self._ensemble(state, 4000, 21, 1.0)
        report = equivariance_report({1.0: snap}, state, g=1.0, n_bins=50)
        assert report[1.0]["theta"]["chi2_p"] > 0.01
        assert report[1.0]["q2"]["chi2_p"] > 0.01

    def test_time_zero_matches_by_construction(self, grid, basis):
        state = make_state({0: np.sqrt(0.7), 1: np.sqrt(0.3)}, basis, grid,
                           sigma=0.05)
        flow = ModeFlow(state, g=1.0)
        r = stream(22)
        theta = RingSampler(state.coeffs, state.modes.modes)(4000, r)
        q2 = r.normal(0.0, 0.05, 4000)
        report = equivariance_report({0.0: np.stack([theta, q2], axis=-1)},
                                     state, g=1.0)
        assert report[0.0]["theta"]["chi2_p"] > 0.01
        assert report[0.0]["q2"]["chi2_p"] > 0.01

    def test_biased_initialization_detected(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                           basis, grid, sigma=0.05)
        snap = self._ensemble(state, 4000, 23, 1.0, biased=True)
        report = equivariance_report({1.0: snap}, state, g=1.0, n_bins=50)
        assert report[1.0]["q2"]["chi2_p"] < 1e-4

    @pytest.mark.parametrize("n_bins", [1, 0, -2])
    def test_fewer_than_two_bins_rejected(self, grid, basis, n_bins):
        # one bin used to give chi2_p NaN, 0 a ZeroDivisionError and -2 numpy's
        # minlength error
        state = make_state({0: np.sqrt(0.7), 1: np.sqrt(0.3)}, basis, grid, sigma=0.05)
        pts = np.zeros((10, 2))
        with pytest.raises(ValueError) as info:
            equivariance_report({0.0: pts}, state, g=1.0, n_bins=n_bins)
        assert info.value.errors == [("n_bins", f"must be an integer at least 2, not {n_bins}")]

    def test_cdf_rounded_above_one_counts_in_the_last_bin(self, grid, basis):
        # these shares sum to 1 + 2^-52 in the q2 CDF's float sum, so far
        # above every packet the CDF reads just above 1
        shares = [0.23619722766245624, 0.05327423434077773, 0.41429547275183026,
                  0.20329423210298425, 0.09293883314195156]
        state = make_state(dict(enumerate(np.sqrt(shares))), basis, grid, sigma=0.05)
        assert trajectories.marginal_cdfs(state)[1](50.0) > 1.0
        pts = np.column_stack([np.zeros(100), np.full(100, 50.0)])
        report = equivariance_report({0.0: pts}, state, g=1.0, n_bins=10)
        # all 100 samples in one of 10 bins: chi2 = 100 * (10 - 1)
        assert report[0.0]["q2"]["chi2"] == 900.0

    @pytest.mark.parametrize("t", [0.0, 0.05])
    def test_theta_cdf_is_the_integral_of_the_density(self, grid, basis, t):
        # phased packets that overlap at t = 0.05: every cross term counts
        state = make_state({-3: 0.5, -1: 0.5j, 2: 0.5, 3: -0.5}, basis, grid, sigma=0.05)
        state = evolve_measurement_spectral(state, t, 1.0)
        cdf_theta = trajectories.marginal_cdfs(state)[0]
        for th in np.linspace(0.1, 6.2, 13):
            want, _ = quad(lambda v: system_marginal_density(state, v), 0.0, th,
                           epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(cdf_theta(th) - want) < 1e-13
        assert cdf_theta(0.0) == 0.0
        assert abs(cdf_theta(np.nextafter(2 * np.pi, 0.0)) - 1.0) < 1e-15

    def test_single_mode_theta_cdf_is_uniform(self, grid, basis):
        state = make_state({2: 1j}, basis, grid, sigma=0.05)
        th = np.linspace(0.0, 2 * np.pi, 9)[:-1]
        assert np.array_equal(trajectories.marginal_cdfs(state)[0](th), th / (2 * np.pi))

    @pytest.mark.parametrize("in_phase", [False, True])
    def test_cdf_values_do_not_depend_on_their_block(self, grid, basis, in_phase):
        state = make_state({l: 1 / np.sqrt(17) for l in basis.modes} if in_phase else
                           {-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                           basis, grid, sigma=0.05)
        r = stream(73)
        samples = (r.uniform(0.0, 2 * np.pi, 20_000), r.normal(0.0, 0.05, 20_000))
        for x, cdf in zip(samples, trajectories.marginal_cdfs(state)):
            whole = cdf(x)
            for a, b in ((0, 1), (5, 1030), (963, 4099), (19_990, 20_000)):
                assert np.array_equal(cdf(x[a:b]), whole[a:b])
            assert np.array_equal(cdf(x.reshape(100, 200)), whole.reshape(100, 200))

    def test_report_memory_does_not_grow_with_modes(self, grid, basis):
        # the CDFs take their samples in row blocks, so 17 modes cost no more than 3
        import tracemalloc
        r = stream(74)
        pts = np.column_stack([r.uniform(0.0, 2 * np.pi, 10**5), r.normal(0.0, 0.05, 10**5)])
        peaks = []
        for coeffs in ({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                       {l: 1 / np.sqrt(17) for l in basis.modes}):
            state = make_state(coeffs, basis, grid, sigma=0.05)
            tracemalloc.start()
            try:
                equivariance_report({0.1: pts}, state, g=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8e6
        assert abs(peaks[1] - peaks[0]) <= 1e6

    def test_cdf_rounded_below_zero_counts_in_the_first_bin(self, grid, basis):
        # the density has a node at theta = 0, so just above it the theta CDF
        # is far below its rounding error and some values come out negative
        state = make_state({-1: 0.5, 0: -0.5j, 1: -0.5, 2: 0.5j}, basis, grid, sigma=0.05)
        theta = np.geomspace(1e-12, 1e-7, 100)
        assert trajectories.marginal_cdfs(state)[0](theta).min() < 0.0
        pts = np.column_stack([theta, np.zeros(100)])
        report = equivariance_report({0.0: pts}, state, g=1.0, n_bins=10)
        assert report[0.0]["theta"]["chi2"] == 900.0
