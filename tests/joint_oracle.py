"""Joint-grid oracle for the tests.

The package evaluates the joint state only along trajectories and never
samples ``Psi(theta, q2)`` on a grid.  Tests that check the closed forms
against a grid picture (phase-gradient velocities, marginals, pointer
moments) sample it here: ``n_theta`` ring points without a duplicate
endpoint times ``n_q2 + 1`` pointer points spanning a ``GridSpec``, with
Riemann weights on the ring and trapezoid weights on the line, against
which the closed-form marginals are checked.  The ring eigenfunctions and
the ring-angle density are written here too, in libm ``exp``, as
references for the package's ring rows and CDFs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stochaction import AngularBasis, GridSpec, SpectralState
from stochaction.spectral import ring_fourier


@dataclass(frozen=True, eq=False)
class JointAxes:
    grid: GridSpec
    n_theta: int
    n_q2: int

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def dq2(self) -> float:
        return (self.grid.q2_max - self.grid.q2_min) / self.n_q2

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta

    @property
    def q2(self) -> np.ndarray:
        return self.grid.q2_min + np.arange(self.n_q2 + 1) * self.dq2

    @property
    def theta_weights(self) -> np.ndarray:
        return np.full(self.n_theta, self.dtheta)

    @property
    def q2_weights(self) -> np.ndarray:
        w = np.full(self.n_q2 + 1, self.dq2)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True, eq=False)
class JointField:
    amplitudes: np.ndarray
    axes: JointAxes

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def quadrature_weights(self) -> np.ndarray:
        return self.axes.theta_weights[:, None] * self.axes.q2_weights[None, :]


def norm(field: JointField) -> float:
    return float(np.sum(field.density() * field.quadrature_weights()))


def eigenfunctions(basis: AngularBasis, theta) -> np.ndarray:
    """Values of every mode of ``basis`` at ``theta``; shape (n_modes,) + theta.shape."""
    th = np.asarray(theta, dtype=float)
    l = basis.modes.reshape((-1,) + (1,) * th.ndim)
    return np.exp(1j * l * th) / np.sqrt(2.0 * np.pi)


def system_marginal_density(state: SpectralState, theta) -> np.ndarray:
    """Exact ring-angle density over the occupied modes, with packet-overlap interference."""
    w, d, amps = ring_fourier(state)
    waves = (amps * np.exp(1j * d * np.asarray(theta, dtype=float)[..., None])).real
    return (w + 2.0 * np.sum(waves, axis=-1)) / (2.0 * np.pi)


def packet_profile(state: SpectralState, q, mode_index: int) -> np.ndarray:
    """Mode ``mode_index``'s pointer packet, ``(2 pi sigma^2)^(-1/4)
    exp(-(q - mu)^2 / (4 sigma^2))`` around its center ``mu``."""
    q = np.asarray(q, dtype=float)
    sigma = state.packet.sigma
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    return norm * np.exp(-((q - state.centers[mode_index]) ** 2) / (4.0 * sigma**2))


def synthesize_joint(state: SpectralState, axes: JointAxes) -> JointField:
    """The ring state's closed-form joint wavefunction on the axes."""
    eig = eigenfunctions(state.modes, axes.theta)             # (M, n_theta)
    packs = np.stack([packet_profile(state, axes.q2, m)       # (M, n_q2+1)
                      for m in range(len(state.coeffs))])
    return JointField(np.einsum("m,mt,mq->tq", state.coeffs, eig, packs), axes)


def pointer_marginal_density(state: SpectralState, q) -> np.ndarray:
    """Closed-form pointer density: ring modes are orthonormal, so the cross
    terms vanish under the theta integral."""
    q = np.asarray(q, dtype=float)
    return sum(w * np.abs(packet_profile(state, q, m)) ** 2
               for m, w in enumerate(np.abs(state.coeffs) ** 2))
