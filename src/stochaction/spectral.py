"""Exact spectral propagation of the measurement interaction.

The coupling ``g * O1 * p2`` is first order in the pointer momentum, so each
system eigenmode drags a rigid copy of the pointer packet at speed
``g * omega``.  The joint wavefunction therefore stays a finite sum

    Psi(x, q2; t) = sum_l c_l u_l(x) phi(q2 - mu_l(t)),   mu_l(t) = mu0 + g omega_l t

with constant coefficients.  No time discretization error enters, and the
joint field is never sampled on a grid: runs evaluate it along trajectories,
and the only grid a state carries is the pointer domain its packets must
stay inside.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import HBAR, DegenerateInputError, DomainOverflowError, GridSpec, require_count


@dataclass(frozen=True, eq=False)
class AngularBasis:
    """The ring's mode table: eigenmodes ``exp(i l theta) / sqrt(2 pi)`` for |l| <= l_max."""

    l_max: int = 8

    def __post_init__(self):
        require_count("l_max", self.l_max, 1)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.l_max, self.l_max + 1)

    @property
    def omegas(self) -> np.ndarray:
        return HBAR * self.modes.astype(float)


@dataclass(frozen=True)
class GaussianPacket:
    """Pointer packet with density standard deviation ``sigma``."""

    center: float
    sigma: float

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not abs(self.center) < np.inf:
            raise ValueError("center must be finite")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


class LineModes:
    """Tabulated mode functions on a line: one row of ``table`` per mode on ``x_grid``.

    Used by the position measurement kind, where the 'modes' are the
    bin-masked pieces of the state with outcome values at bin centers.  Its
    states move under :class:`~stochaction.trajectories.PointerReadoutFlow`,
    so the table is only read for the initial draws.
    """

    def __init__(self, x_grid: np.ndarray, table: np.ndarray, omegas: np.ndarray):
        if table.shape != (len(omegas), len(x_grid)):
            raise ValueError("mode table shape mismatch")
        self.x_grid = np.asarray(x_grid, dtype=float)
        self.table = np.asarray(table, dtype=complex)
        self.omegas = np.asarray(omegas, dtype=float)


class PlaneWaveModes:
    """Equally spaced plane waves ``exp(i p_k x) / sqrt(L)`` on a length-L box.

    These are exact eigenfunctions of the momentum coupling, so the spectral
    solution with one packet per retained wavenumber is exact; the discrete
    outcome only appears when the readout is binned.  The spacing times ``L``
    must be a multiple of 2 pi: only then are the modes orthonormal under
    the ``1/sqrt(L)`` normalization and the density periodic on the box, so
    the system coordinate needs no bounds.  ``x_grid`` is kept for
    initial-density sampling only.
    """

    def __init__(self, momenta: np.ndarray, box_length: float, x_grid: np.ndarray):
        p = np.asarray(momenta, dtype=float)
        if len(p) > 1:
            dp = np.diff(p)
            if not np.allclose(dp, dp[0], rtol=0, atol=1e-12 * abs(dp[0])):
                raise ValueError("plane-wave momenta must be equally spaced")
            turns = abs(dp[0]) * box_length / (2 * np.pi)
            if not (turns >= 0.5 and abs(turns - round(turns)) <= 1e-9 * turns):
                raise ValueError("plane-wave spacing times box_length must be a "
                                 "multiple of 2 pi")
        self.momenta = p
        self.omegas = p
        self.box_length = float(box_length)
        self.x_grid = np.asarray(x_grid, dtype=float)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = self.momenta.reshape((-1,) + (1,) * x.ndim)
        return np.exp(1j * p * x) / np.sqrt(self.box_length)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Closed-form joint state: coefficients plus per-mode packet centers."""

    coeffs: np.ndarray
    modes: AngularBasis | LineModes | PlaneWaveModes
    packet: GaussianPacket
    centers: np.ndarray
    t: float
    grid: GridSpec

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        mu = np.asarray(self.centers, dtype=float)
        if c.shape != self.modes.omegas.shape or mu.shape != c.shape:
            raise ValueError("coefficients, omegas and centers must share a shape")
        object.__setattr__(self, "coeffs", normalized(c))
        object.__setattr__(self, "centers", mu)

    @property
    def omegas(self) -> np.ndarray:
        return self.modes.omegas

    def support_indices(self) -> np.ndarray:
        """Modes actually present in the superposition (:func:`occupied`)."""
        return occupied(self.coeffs)


def normalized(coeffs) -> np.ndarray:
    """``coeffs`` as a complex vector; raises :class:`DegenerateInputError` unless
    ``sum |c|^2`` is within 1e-10 of 1, as Born weights need."""
    c = np.asarray(coeffs, dtype=complex)
    total = float(np.sum(np.abs(c) ** 2))
    if not abs(total - 1.0) <= 1e-10:   # written so that a NaN total fails it
        raise DegenerateInputError(f"coefficients are not normalized: sum |c|^2 = {total!r}")
    return c


def occupied(coeffs) -> np.ndarray:
    """Indices of the occupied modes of a normalized coefficient vector: |c|^2 > 1e-14."""
    return np.flatnonzero(np.abs(np.asarray(coeffs)) ** 2 > 1e-14)


def evolve_measurement_spectral(state: SpectralState, delta_t: float, g: float) -> SpectralState:
    """Advance the exact solution: centers shift by ``g * omega * delta_t``.

    Raises :class:`DomainOverflowError` unless every occupied center is 5 sigma
    inside the pointer grid at both ends of the step, and so, on its straight
    line, at every time between.
    """
    centers = state.centers + g * state.omegas * delta_t
    sup = state.support_indices()
    ends = np.concatenate((state.centers[sup], centers[sup]))
    margin, grid = 5.0 * state.packet.sigma, state.grid
    inside = (ends >= grid.q2_min + margin) & (ends <= grid.q2_max - margin)
    if not inside.all():   # a NaN center is outside too
        raise DomainOverflowError(
            f"packet center {ends[~inside][0]:.4g} is not 5 sigma inside the pointer grid "
            f"[{grid.q2_min}, {grid.q2_max}]")
    return replace(state, centers=centers, t=state.t + delta_t)


def ring_fourier(state: SpectralState) -> tuple[float, np.ndarray, np.ndarray]:
    """Fourier form ``(W, d, A)`` of the ring marginal of ``|Psi|^2`` over the occupied modes.

    ``rho(theta) = (W + 2 Re sum_d A_d e^{i d theta}) / 2 pi`` with ``W = sum |c_a|^2``
    and, for each frequency ``d > 0`` present,
    ``A_d = sum_{l_a - l_b = d} c_a conj(c_b) exp(-(mu_a - mu_b)^2 / 8 sigma^2)``:
    the packet overlap weights each cross term.
    """
    sup = state.support_indices()
    c, mu, l = state.coeffs[sup], state.centers[sup], state.modes.modes[sup]
    a, b = np.nonzero(l[:, None] > l[None, :])
    terms = c[a] * np.conj(c[b]) * np.exp(-((mu[a] - mu[b]) ** 2)
                                          / (8.0 * state.packet.sigma ** 2))
    d, slot = np.unique(l[a] - l[b], return_inverse=True)
    amps = np.bincount(slot, terms.real) + 1j * np.bincount(slot, terms.imag)
    return float(np.sum(np.abs(c) ** 2)), d, amps
