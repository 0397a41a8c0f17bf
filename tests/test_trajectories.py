"""Velocity fields, Born sampling, integration, equivariance."""
import numpy as np
import pytest
from scipy import stats as sps

from joint_oracle import JointAxes, synthesize_joint
from stochaction import (AngularBasis, GaussianPacket, GridSpec, LineModes,
                         PlaneWaveModes, SpectralState, equivariance_report,
                         integrate_ensemble)
from stochaction import trajectories
from stochaction.core import PhysicalConfig
from stochaction.measurement import _initial_draws, _sign_paths, substitute_observable
from stochaction.stochastic import StochasticParams
from stochaction.rng import stream
from stochaction.core import EPS_NODE_REL
from stochaction.trajectories import (DECIDE_EPS, EnsembleSpec, ModeFlow, PointerReadoutFlow,
                                      _stage_velocity, _step, _unit_phase, RingSampler)


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


def oracle_mode_values(flow, x, with_derivatives):
    """Reference mode table: complex exp, power chain from ones, per-mode copies."""
    if flow.ring:
        z = np.exp(1j * x)
        l_abs_max = int(np.max(np.abs(flow._l))) if len(flow._l) else 0
        powers = [np.ones_like(z)]
        for _ in range(l_abs_max):
            powers.append(powers[-1] * z)
        u = np.empty((len(flow._l),) + x.shape, dtype=complex)
        for k, l in enumerate(flow._l):
            u[k] = powers[abs(l)] if l >= 0 else np.conj(powers[abs(l)])
        u *= 1.0 / np.sqrt(2 * np.pi)
        du = (1j * flow._l.reshape((-1,) + (1,) * x.ndim)) * u if with_derivatives else None
        return u, du
    p = flow._p
    u = np.empty((len(p),) + x.shape, dtype=complex)
    u[0] = np.exp(1j * p[0] * x)
    if len(p) > 1:
        step = np.exp(1j * (p[1] - p[0]) * x)
        for k in range(1, len(p)):
            u[k] = u[k - 1] * step
    u *= flow._box_scale
    du = (1j * p.reshape((-1,) + (1,) * x.ndim)) * u if with_derivatives else None
    return u, du


def oracle_gaussians(flow, q2, t):
    mu = flow.centers(t)
    shift = q2[None, ...] - mu.reshape((-1,) + (1,) * q2.ndim)
    zq = shift / (2.0 * flow.sigma**2)
    gauss = flow._pack_norm * np.exp(-0.5 * zq * shift)
    return gauss, zq


def oracle_terms(flow, x, q2, t):
    u, du = oracle_mode_values(flow, x, True)
    gauss, zq = oracle_gaussians(flow, q2, t)
    cg = flow.coeffs.reshape((-1,) + (1,) * x.ndim) * gauss
    cgu = cg * u
    psi = np.sum(cgu, axis=0)
    dpsi_x = np.sum(cg * du, axis=0)
    dpsi_q = np.sum(cgu * (-zq), axis=0)
    return psi, dpsi_x, dpsi_q, np.abs(psi) ** 2


def oracle_density(flow, points, t):
    x, q2 = points[..., 0], points[..., 1]
    u, _ = oracle_mode_values(flow, x, False)
    gauss, _ = oracle_gaussians(flow, q2, t)
    cg = flow.coeffs.reshape((-1,) + (1,) * x.ndim) * gauss
    return np.abs(np.sum(cg * u, axis=0)) ** 2


def oracle_effective(flow, points, t):
    psi, dpsi_x, dpsi_q, dens = oracle_terms(flow, points[..., 0], points[..., 1], t)
    safe = np.maximum(dens, 1e-300)
    grad_s_x = np.imag(np.conj(psi) * dpsi_x) / safe
    grad_s_q = np.imag(np.conj(psi) * dpsi_q) / safe
    return flow.g * np.stack([grad_s_q, grad_s_x], axis=-1), dens


def oracle_actual(flow, points, t, lambda_signed):
    psi, dpsi_x, dpsi_q, dens = oracle_terms(flow, points[..., 0], points[..., 1], t)
    safe = np.maximum(dens, 1e-300)
    pc = np.conj(psi)
    grad_s_x = np.imag(pc * dpsi_x) / safe
    grad_s_q = np.imag(pc * dpsi_q) / safe
    osm_x = np.real(pc * dpsi_x) / safe
    osm_q = np.real(pc * dpsi_q) / safe
    lam = np.asarray(lambda_signed)
    v = flow.g * np.stack([grad_s_q + lam * osm_q, grad_s_x + lam * osm_x], axis=-1)
    return v, dens


def plane_wave_state(grid):
    # equally spaced momenta with a zero-weight interior mode, on a box of
    # length 4 pi that holds two periods of the spacing-1 density
    x = np.linspace(-2 * np.pi, 2 * np.pi, 256, endpoint=False)
    p = np.array([-1.5, -0.5, 0.5, 1.5, 2.5])
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
            want_v, want_d = oracle_effective(flow, pts, t)
            got_v, got_d = flow.effective(pts, t, with_density=True)
            self._assert_near(flow, got_v, got_d, want_v, want_d)
            dens, want_dens = flow.density(pts, t), oracle_density(flow, pts, t)
            assert np.all(np.abs(dens - want_dens) <= 1e-14 * flow.ref_peak)
            assert np.all(dens[want_dens == 0.0] == 0.0)
            for lam in (0.7, lam_points):
                want_a, want_ad = oracle_actual(flow, pts, t, lam)
                got_a, got_ad = flow.actual(pts, t, lam, with_density=True)
                self._assert_near(flow, got_a, got_ad, want_a, want_ad)
            # any leading shape
            grid_pts = pts[:2400].reshape(40, 60, 2)
            want_g, want_gd = oracle_effective(flow, grid_pts, t)
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
        assert flow.ring and len(flow._l) == sum(c != 0 for c in coeffs.values())

    def test_plane_wave_flow(self, grid):
        flow = self._check(plane_wave_state(grid), seed=62)
        assert not flow.ring and len(flow._p) == 5

    def test_line_mode_state_rejected(self, grid):
        # position states move under PointerReadoutFlow; ModeFlow has no line kernel
        with pytest.raises(TypeError, match="PointerReadoutFlow"):
            ModeFlow(line_mode_state(grid), g=1.3)


class BroadcastModeFlow(ModeFlow):
    """The kernel with its earlier broadcast products: a ``(K, n)`` mode table,
    ``c'[:, None] * G`` and ``(i l)[:, None] * b`` reduced over the mode axis."""

    def _reference_peak(self):
        th = (np.linspace(0.0, 2 * np.pi, 512, endpoint=False) if self.ring
              else self.modes.x_grid)
        peak = np.abs(np.tensordot(self._packet_coeffs, self._mode_values(th), axes=1)) ** 2
        return float(peak.max())

    def _mode_values(self, x):
        if self.ring:
            z = _unit_phase(x)
            powers = [None, z]
            for _ in range(1, self._l_abs_max):
                powers.append(powers[-1] * z)
            u = np.empty((len(self._l),) + x.shape, dtype=complex)
            for k, l in enumerate(self._l):
                if l == 0:
                    u[k] = 1.0
                elif l > 0:
                    u[k] = powers[l]
                else:
                    np.conjugate(powers[-l], out=u[k])
        else:
            p = self._p
            u = np.empty((len(p),) + x.shape, dtype=complex)
            u[0] = _unit_phase(p[0] * x)
            if len(p) > 1:
                step = _unit_phase((p[1] - p[0]) * x)
                for k in range(1, len(p)):
                    np.multiply(u[k - 1], step, out=u[k])
        return u

    def _packets(self, x, q2, t):
        shape = (-1,) + (1,) * q2.ndim
        mshift = self.centers(t).reshape(shape) - q2
        gauss = mshift * mshift
        gauss *= self._gauss_rate
        np.exp(gauss, out=gauss)
        b = self._mode_values(x)
        b *= self._packet_coeffs.reshape(shape) * gauss
        return b, mshift

    def _terms(self, x, q2, t):
        b, mshift = self._packets(x, q2, t)
        psi = np.add.reduce(b, axis=0)
        dpsi_x = np.add.reduce(self._dfactor.reshape((-1,) + (1,) * x.ndim) * b, axis=0)
        mshift /= self._two_var
        b *= mshift
        dpsi_q = np.add.reduce(b, axis=0)
        return psi, dpsi_x, dpsi_q, np.abs(psi) ** 2


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

    def test_plane_wave_flow(self, grid):
        self._check(plane_wave_state(grid), seed=64)


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
        q0 = _initial_draws(state, 11, np.arange(256), stream(11))
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
        q0 = _initial_draws(state, 12, trials, stream(12))
        n_steps = 500
        stoch = StochasticParams(sign_law=law, flip_prob=0.1 if law == "telegraph" else 0.5)
        signs = _sign_paths(13, trials, n_steps, stoch, stream(13))
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
        q0 = _initial_draws(state, 14, np.arange(400), stream(14))
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
