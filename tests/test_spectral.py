"""Angular basis, exact measurement propagation, checked on a joint grid."""
from dataclasses import replace

import numpy as np
import pytest

from joint_oracle import (JointAxes, eigenfunctions, norm, packet_profile,
                          pointer_marginal_density, synthesize_joint,
                          system_marginal_density)
from stochaction import (AngularBasis, DomainOverflowError, FieldErrors, GaussianPacket,
                         GridSpec, LineModes, PlaneWaveModes, SpectralState,
                         evolve_measurement_spectral)


@pytest.fixture
def grid():
    return GridSpec(-3.0, 3.0)


@pytest.fixture
def axes(grid):
    return JointAxes(grid, 128, 1024)


@pytest.fixture
def basis():
    return AngularBasis(8)


def make_state(coeff_map, basis, grid, sigma=0.05, mu0=0.0):
    c = np.zeros(len(basis.modes), dtype=complex)
    for l, amp in coeff_map.items():
        c[np.flatnonzero(basis.modes == l)[0]] = amp
    return SpectralState(coeffs=c, modes=basis,
                         packet=GaussianPacket(mu0, sigma),
                         centers=np.full(len(c), mu0), t=0.0, grid=grid)


class TestAngularBasis:
    def test_orthonormal_on_grid(self, axes, basis):
        eig = eigenfunctions(basis, axes.theta)
        gram = (eig.conj() * axes.theta_weights) @ eig.T
        assert np.max(np.abs(gram - np.eye(len(basis.modes)))) < 1e-10

    def test_modes_are_derivative_eigenfunctions(self, axes, basis):
        # spectral derivative on the ring is exact for resolved modes
        for l in (-3, 0, 5):
            phi = np.exp(1j * l * axes.theta) / np.sqrt(2 * np.pi)
            k = np.fft.fftfreq(len(axes.theta), d=axes.dtheta) * 2 * np.pi
            dphi = np.fft.ifft(1j * k * np.fft.fft(phi))
            assert np.allclose(dphi, 1j * l * phi, atol=1e-10)

    @pytest.mark.parametrize("l_max", [2.5, 0, -1])
    def test_l_max_is_a_count(self, l_max):
        # 2.5 would give the half-integer modes -2.5 ... 2.5
        with pytest.raises(FieldErrors) as info:
            AngularBasis(l_max)
        assert info.value.errors == [("l_max", f"must be an integer at least 1, not {l_max!r}")]


class TestSpectralEvolution:
    def test_zero_time_is_identity(self, grid, basis):
        state = make_state({1: 1.0}, basis, grid)
        out = evolve_measurement_spectral(state, 0.0, 1.0)
        assert np.array_equal(out.centers, state.centers)
        assert out.t == state.t

    def test_single_mode_pointer_shift(self, grid, basis):
        state = make_state({2: 1.0}, basis, grid, mu0=0.0)
        out = evolve_measurement_spectral(state, 1.0, 1.0)
        assert out.centers[basis.l_max + 2] == pytest.approx(2.0, abs=1e-14)

    def test_coefficients_never_change(self, grid, basis):
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        out = evolve_measurement_spectral(state, 0.7, 1.3)
        assert np.array_equal(out.coeffs, state.coeffs)

    def test_pointer_expectation_against_quadrature(self, grid, axes, basis):
        state = make_state({-1: np.sqrt(0.4), 2: np.sqrt(0.6)}, basis, grid)
        t, g = 0.5, 1.0
        out = evolve_measurement_spectral(state, t, g)
        joint = synthesize_joint(out, axes)
        w = joint.quadrature_weights()
        q2 = axes.q2[None, :]
        mean_q2 = float(np.sum(q2 * joint.density() * w))
        analytic = g * t * (0.4 * -1.0 + 0.6 * 2.0)
        assert mean_q2 == pytest.approx(analytic, abs=1e-8)

    def test_domain_overflow_raises(self, grid, basis):
        state = make_state({8: 1.0}, basis, grid)
        with pytest.raises(DomainOverflowError):
            evolve_measurement_spectral(state, 1.0, 1.0)  # center 8 > 3 - 5 sigma

    def test_start_center_outside_margin_overflows(self, grid, basis):
        # the start of the interval is checked too: a packet at 2.9 is inside
        # the grid but not 5 sigma inside it, whatever its drift
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid, mu0=2.9)
        with pytest.raises(DomainOverflowError, match="2.9"):
            evolve_measurement_spectral(state, 1.0, -1.0)
        with pytest.raises(DomainOverflowError, match="2.9"):
            evolve_measurement_spectral(state, 0.0, 1.0)

    def test_nan_center_overflows(self, grid, basis):
        # the packet rejects a NaN center, but the state's centers may still carry one
        state = replace(make_state({1: 1.0}, basis, grid),
                        centers=np.full(len(basis.modes), float("nan")))
        with pytest.raises(DomainOverflowError, match="nan"):
            evolve_measurement_spectral(state, 1.0, 1.0)


class TestSynthesis:
    def test_single_mode_factorizes(self, grid, axes, basis):
        state = make_state({1: 1.0}, basis, grid)
        joint = synthesize_joint(state, axes)
        dens = joint.density()
        outer = np.sum(dens, axis=1)[:, None] * np.sum(dens, axis=0)[None, :]
        outer *= dens.sum() / outer.sum()
        assert np.allclose(dens, outer, atol=1e-12)

    def test_norm_equals_coefficient_mass(self, grid, axes, basis):
        state = make_state({-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
                           basis, grid)
        assert norm(synthesize_joint(state, axes)) == pytest.approx(1.0, abs=1e-8)

    def test_cross_terms_vanish_when_separated(self, grid, axes, basis):
        state = make_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)}, basis, grid)
        out = evolve_measurement_spectral(state, 1.0, 1.0)
        joint = synthesize_joint(out, axes)
        dens = joint.density()
        # oracle: incoherent sum of the per-mode products
        eig = eigenfunctions(basis, axes.theta)
        incoherent = np.zeros_like(dens)
        for l, wgt in ((-1, 0.5), (1, 0.5)):
            pk = packet_profile(out, axes.q2, basis.l_max + l)
            incoherent += wgt * np.abs(eig[basis.l_max + l][:, None]) ** 2 * pk**2
        peak = dens.max()
        assert np.max(np.abs(dens - incoherent)) < 1e-8 * peak

    def test_evolution_commutes_with_projection(self, grid, axes, basis):
        # projecting the evolved joint field onto a mode leaves that mode's
        # coefficient times its rigidly shifted packet
        state = make_state({-1: np.sqrt(0.4), 2: np.sqrt(0.6)}, basis, grid)
        out = evolve_measurement_spectral(state, 0.4, 1.0)
        joint = synthesize_joint(out, axes)
        eig = eigenfunctions(basis, axes.theta)
        for l, amp in ((-1, np.sqrt(0.4)), (2, np.sqrt(0.6))):
            idx = basis.l_max + l
            section = (eig[idx].conj() * axes.theta_weights) @ joint.amplitudes
            shifted = amp * packet_profile(out, axes.q2, idx)
            assert np.max(np.abs(section - shifted)) < 1e-12

    def test_marginals_match_synthesis(self, grid, axes, basis):
        state = make_state({0: np.sqrt(0.7), 1: np.sqrt(0.3)}, basis, grid)
        out = evolve_measurement_spectral(state, 0.2, 1.0)
        joint = synthesize_joint(out, axes)
        dens = joint.density()
        q2_marg = dens @ axes.q2_weights
        th_marg = axes.theta_weights @ dens
        assert np.allclose(q2_marg, system_marginal_density(out, axes.theta),
                           atol=1e-9)
        assert np.allclose(th_marg, pointer_marginal_density(out, axes.q2),
                           atol=1e-9)


def all_pairs_marginal(state, theta):
    """The ring density summed over every pair of basis modes, occupied or not."""
    eig = eigenfunctions(state.modes, theta)
    dens = np.zeros_like(theta)
    for a in range(len(state.coeffs)):
        for b in range(len(state.coeffs)):
            overlap = np.exp(-((state.centers[a] - state.centers[b]) ** 2)
                             / (8.0 * state.packet.sigma ** 2))
            dens += (state.coeffs[a] * np.conj(state.coeffs[b]) * eig[a] * np.conj(eig[b])
                     * overlap).real
    return dens


@pytest.mark.parametrize("coeff_map", [
    {-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
    {-3: np.sqrt(0.1), -1: np.sqrt(0.4), 1: np.sqrt(0.3), 3: np.sqrt(0.2)},
    {0: np.sqrt(0.7), 2: 1j * np.sqrt(0.3)},
])
@pytest.mark.parametrize("t", [0.0, 0.02, 0.5])
def test_marginal_density_skips_only_zero_terms(grid, axes, basis, coeff_map, t):
    # the closed form sums the occupied pairs by frequency; the loop over every
    # pair of basis modes adds exact zeros besides, so the two agree to rounding
    state = evolve_measurement_spectral(make_state(coeff_map, basis, grid), t, 1.0)
    got = system_marginal_density(state, axes.theta)
    assert np.max(np.abs(got - all_pairs_marginal(state, axes.theta))) < 1e-15


class TestPlaneWaveModes:
    def test_orthonormal_under_box_quadrature(self):
        L = 20.0
        x = np.linspace(-10, 10, 256, endpoint=False)
        p = 2 * np.pi * np.fft.fftfreq(256, d=L / 256)
        modes = PlaneWaveModes(np.sort(p)[100:110], L, x)
        u = modes.values(x)
        gram = (u.conj() * (L / 256)) @ u.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_unequal_spacing_rejected(self):
        with pytest.raises(ValueError):
            PlaneWaveModes(np.array([0.0, 0.5, 1.5]), 10.0, np.linspace(0, 1, 8))

    @pytest.mark.parametrize("box", [16.0, np.pi, float("nan")])
    def test_box_off_the_spacing_period_rejected(self, box):
        # spacing 1: the 1/sqrt(L) modes are orthonormal only on L = 2 pi k
        with pytest.raises(ValueError, match="multiple of 2 pi"):
            PlaneWaveModes(np.array([-1.5, -0.5, 0.5]), box, np.linspace(-8, 8, 16))
        PlaneWaveModes(np.array([-1.5, -0.5, 0.5]), 4 * np.pi, np.linspace(-8, 8, 16))


class TestStateValidation:
    def test_line_mode_table_shape_checked(self):
        x = np.linspace(-1.0, 1.0, 16)
        with pytest.raises(ValueError, match="mode table shape mismatch"):
            LineModes(x, np.ones((2, 15), dtype=complex), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="mode table shape mismatch"):
            LineModes(x, np.ones((2, 16), dtype=complex), np.array([0.0]))

    @pytest.mark.parametrize("n_coeffs, n_centers", [(16, 17), (17, 16)])
    def test_coefficients_and_centers_share_the_mode_shape(self, grid, basis, n_coeffs,
                                                           n_centers):
        c = np.zeros(n_coeffs, dtype=complex)
        c[0] = 1.0
        with pytest.raises(ValueError, match="must share a shape"):
            SpectralState(coeffs=c, modes=basis, packet=GaussianPacket(0.0, 0.05),
                          centers=np.zeros(n_centers), t=0.0, grid=grid)

    @pytest.mark.parametrize("sigma", [0.0, -0.05, float("nan")])
    def test_packet_width_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            GaussianPacket(0.0, sigma)

    @pytest.mark.parametrize("center", [float("nan"), float("inf"), float("-inf")])
    def test_packet_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center"):
            GaussianPacket(center, 0.05)

    def test_unnormalized_coefficients_rejected(self, grid, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = 0.9
        with pytest.raises(ValueError):
            SpectralState(coeffs=c, modes=basis,
                          packet=GaussianPacket(0.0, 0.05),
                          centers=np.zeros(len(c)), t=0.0, grid=grid)

    def test_nan_coefficients_rejected(self, grid, basis):
        # a NaN total fails every comparison, so the check must not read "> tol"
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            SpectralState(coeffs=c, modes=basis,
                          packet=GaussianPacket(0.0, 0.05),
                          centers=np.zeros(len(c)), t=0.0, grid=grid)
