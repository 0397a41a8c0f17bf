"""Velocity fields, Born sampling, integration, equivariance."""
import numpy as np
import pytest
from scipy import stats as sps

from stochaction import (AngularBasis, GaussianPacket, GridSpec, LineModes,
                         RingModes, SpectralState, actual_velocity,
                         effective_velocity, equivariance_report,
                         integrate_ensemble, synthesize_joint)
from stochaction.rng import stream
from stochaction.trajectories import EnsembleSpec, ModeFlow, sample_ring_angles


@pytest.fixture
def grid():
    return GridSpec(128, -3.0, 3.0, 768)


@pytest.fixture
def basis():
    return AngularBasis(8)


def make_state(coeff_map, basis, grid, sigma=0.3, mu0=0.0):
    c = np.zeros(len(basis.modes), dtype=complex)
    for l, amp in coeff_map.items():
        c[np.flatnonzero(basis.modes == l)[0]] = amp
    return SpectralState(coeffs=c, modes=RingModes(basis),
                         packet=GaussianPacket(mu0, sigma),
                         centers=np.full(len(c), mu0), t=0.0, grid=grid)


class TestBornSampling:
    def test_ring_rejection_sampler_matches_density(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.5)
        draws = sample_ring_angles(c, RingModes(basis), 20_000, stream(5))
        # CDF oracle by quadrature of |phi|^2 = (1 + cos theta) / (2 pi)
        th = np.linspace(0, 2 * np.pi, 4001)
        cdf = (th + np.sin(th)) / (2 * np.pi)
        ks = sps.kstest(draws, lambda v: np.interp(v, th, cdf))
        assert ks.pvalue > 0.01


class TestVelocities:
    def test_single_mode_velocity(self, grid, basis):
        state = make_state({2: 1.0}, basis, grid)
        pts = np.array([[0.3, 0.0], [2.0, 0.1], [5.0, -0.2]])
        v = effective_velocity(state, pts, g=1.0)
        assert np.allclose(v[:, 1], 2.0, atol=1e-12)   # pointer drifts at g omega
        assert np.allclose(v[:, 0], 0.0, atol=1e-12)   # centered real packet

    def test_real_state_has_zero_effective_velocity(self, grid, basis):
        state = make_state({0: 1.0}, basis, grid)
        pts = np.array([[1.0, 0.2]])
        assert np.allclose(effective_velocity(state, pts, g=1.0), 0.0)

    def test_two_mode_field_against_phase_difference_oracle(self, basis):
        fine = GridSpec(2048, -3.0, 3.0, 2048)
        state = make_state({0: np.sqrt(0.6), 1: np.sqrt(0.4)}, basis, fine)
        joint = synthesize_joint(state)
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
        v = effective_velocity(state, pts.reshape(-1, 2), g=1.0).reshape(100, 250, 2)
        assert np.max(np.abs(v[..., 0] - dS_q2[ii])) < 1e-6
        assert np.max(np.abs(v[..., 1] - dS_th[ii])) < 1e-6

    def test_sign_average_recovers_effective(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 2: np.sqrt(0.5)}, basis, grid)
        pts = np.array([[0.7, 0.05], [4.0, -0.3]])
        plus = actual_velocity(state, pts, g=1.3, lambda_signed=+1.0)
        minus = actual_velocity(state, pts, g=1.3, lambda_signed=-1.0)
        eff = effective_velocity(state, pts, g=1.3)
        scale = np.max(np.abs(plus)) + np.max(np.abs(eff))
        assert np.max(np.abs(0.5 * (plus + minus) - eff)) < 1e-13 * scale

    def test_gaussian_osmotic_term_analytic(self, grid, basis):
        sigma = 0.3
        state = make_state({0: 1.0}, basis, grid, sigma=sigma)
        q = np.array([0.1, -0.25, 0.4])
        pts = np.stack([np.zeros(3), q], axis=-1)
        v = actual_velocity(state, pts, g=1.0, lambda_signed=1.0)
        # (lambda/2) dOmega/Omega = -lambda (q - mu) / (2 sigma^2), feeds theta-dot
        expected = -q / (2 * sigma**2)
        assert np.allclose(v[:, 0], expected, atol=1e-8)
        assert np.allclose(v[:, 1], 0.0, atol=1e-12)

    def test_line_mode_field_from_the_mode_table(self, grid):
        # a tabulated plane-wave envelope: the pointer moves at g times its momentum
        x = np.linspace(-6.0, 6.0, 801)
        psi = np.exp(-x**2 / 2 + 0.7j * x)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        state = SpectralState(coeffs=np.array([1.0]), modes=LineModes(x, psi[None, :],
                                                                       np.array([0.0])),
                              packet=GaussianPacket(0.0, 0.3), centers=np.zeros(1),
                              t=0.0, grid=grid)
        v = effective_velocity(state, np.array([[0.3, 0.1], [-1.0, -0.2]]), g=1.5)
        assert np.allclose(v[:, 1], 1.5 * 0.7, atol=1e-6)
        assert np.allclose(v[:, 0], 0.0, atol=1e-12)

    def test_vanishing_scale_recovers_effective(self, grid, basis):
        state = make_state({0: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        pts = np.array([[1.0, 0.1]])
        eff = effective_velocity(state, pts, g=1.0)
        act = actual_velocity(state, pts, g=1.0, lambda_signed=0.0)
        assert np.array_equal(act, eff)


class TestIntegration:
    def test_zero_field_stays_put(self, grid, basis):
        state = make_state({0: 1.0}, basis, grid)   # real: zero effective field
        flow = ModeFlow(state, g=1.0)
        spec = EnsembleSpec(dt_traj=0.01)
        q0 = np.array([[1.0, 0.0]])
        out = integrate_ensemble(flow, q0, spec, 0.0, 0.5, snapshot_steps=tuple(range(51)))
        assert len(out["snapshots"]) == 51
        for snap in out["snapshots"].values():
            assert np.allclose(snap, q0)

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
            spec = EnsembleSpec(dt_traj=dt, integrator="explicit-midpoint")
            steps = int(round(0.4 / dt))
            out = integrate_ensemble(flow, np.array([[1.2, 0.1]]), spec, 0.0, 0.4,
                                     snapshot_steps=(steps,))
            ends[dt] = out["snapshots"][steps][0]
        d1 = np.linalg.norm(ends[4e-3] - ends[2e-3])
        d2 = np.linalg.norm(ends[2e-3] - ends[1e-3])
        assert 3.0 < d1 / d2 < 5.5

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
        spec = EnsembleSpec(dt_traj=1e-3, node_policy="reject-resample")
        r = stream(31)
        theta = sample_ring_angles(state.coeffs, state.modes, 128, r)
        q2 = r.normal(0.0, 0.05, 128)
        q0 = np.stack([theta, q2], axis=-1)
        out = integrate_ensemble(flow, q0, spec, 0.0, 0.5,
                                 snapshot_steps=(100, 300, 500))
        eps = spec.eps_node_rel * flow.ref_peak
        clamped = out["node_clamped"]
        for step, snap in out["snapshots"].items():
            dens = flow.density(snap, step * spec.dt_traj)
            assert np.all(dens[~clamped] >= eps)
        # Born-initialized trials essentially never strand between packets
        assert clamped.sum() <= 2


class TestEquivariance:
    def _ensemble(self, state, n, seed, t_end, biased=False):
        flow = ModeFlow(state, g=1.0)
        r = stream(seed)
        if biased:
            theta = r.uniform(0, 2 * np.pi, n)
            q2 = r.uniform(-0.6, 0.6, n)
            q0 = np.stack([theta, q2], axis=-1)
        else:
            theta = sample_ring_angles(state.coeffs, state.modes, n, r)
            q2 = r.normal(state.packet.center, state.packet.sigma, n)
            q0 = np.stack([theta, q2], axis=-1)
        spec = EnsembleSpec(dt_traj=2e-3, node_policy="clamp")
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
        theta = sample_ring_angles(state.coeffs, state.modes, 4000, r)
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
