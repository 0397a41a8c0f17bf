"""Configuration-space machinery shared by every engine.

The measured particle lives on the unit ring (angle ``theta``, periodic) and
the apparatus pointer on a line segment (coordinate ``q2``).  Everything is
expressed in units with hbar = 1; action-scale parameters are recorded as
multiples of hbar.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from io import BytesIO

import numpy as np

HBAR = 1.0

#: relative density threshold below which a grid point counts as a node
EPS_NODE_REL = 1e-12


class DegenerateInputError(ValueError):
    """An operation received an all-zero or unnormalizable field."""


class DomainOverflowError(RuntimeError):
    """Dynamics tried to leave the configured grid; ``trial`` names the event, if any."""

    def __init__(self, message: str, trial: int | None = None):
        super().__init__(message)
        self.trial = trial


class InvalidSystemError(ValueError):
    """Ill-posed physical setup (non-positive metric, bad packet layout, ...)."""


class TruncationError(ValueError):
    """Spectral expansion lost more weight than the configured tolerance."""


class NumericalError(RuntimeError):
    """A solver produced non-finite values; diagnostics in ``args[0]``."""


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Joint grid: ``n_theta`` ring points x ``n_q2 + 1`` line points.

    ``n_q2`` counts intervals on the pointer line, so the spacing is
    ``(q2_max - q2_min) / n_q2`` with both endpoints included.  The ring
    axis has no duplicate endpoint.
    """

    n_theta: int
    q2_min: float
    q2_max: float
    n_q2: int

    def __post_init__(self):
        if self.n_theta < 8:
            raise InvalidSystemError("n_theta must be at least 8")
        if self.n_q2 < 32:
            raise InvalidSystemError("n_q2 must be at least 32")
        if not self.q2_max > self.q2_min:
            raise InvalidSystemError("q2_max must exceed q2_min")

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def dq2(self) -> float:
        return (self.q2_max - self.q2_min) / self.n_q2

    @property
    def theta(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta

    @property
    def q2(self) -> np.ndarray:
        return self.q2_min + np.arange(self.n_q2 + 1) * self.dq2

    @property
    def theta_weights(self) -> np.ndarray:
        # periodic trapezoid = plain Riemann sum, spectrally accurate on the ring
        return np.full(self.n_theta, self.dtheta)

    @property
    def q2_weights(self) -> np.ndarray:
        w = np.full(self.n_q2 + 1, self.dq2)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def axis_points(self, axis: str) -> np.ndarray:
        return {"theta": self.theta, "q2": self.q2}[axis]

    def axis_weights(self, axis: str) -> np.ndarray:
        return {"theta": self.theta_weights, "q2": self.q2_weights}[axis]


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitude field over one or both grid axes.

    ``axes`` names the array dimensions in order, e.g. ``("theta", "q2")``
    for the joint field.
    """

    amplitudes: np.ndarray
    grid: GridSpec
    axes: tuple[str, ...]

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        expected = tuple(len(self.grid.axis_points(a)) for a in self.axes)
        if amp.shape != expected:
            raise ValueError(f"amplitude shape {amp.shape} does not match axes {self.axes} (expected {expected})")
        object.__setattr__(self, "amplitudes", amp)

    def quadrature_weights(self) -> np.ndarray:
        w = np.array(1.0)
        for k, a in enumerate(self.axes):
            shape = [1] * len(self.axes)
            shape[k] = -1
            w = w * self.grid.axis_weights(a).reshape(shape)
        return w

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def norm(psi: WaveFunction) -> float:
    """Squared-norm quadrature of ``|psi|^2`` over the attached grid."""
    return float(np.sum(psi.density() * psi.quadrature_weights()))


def normalize(psi: WaveFunction) -> WaveFunction:
    n = norm(psi)
    if n <= 0.0 or not np.isfinite(n):
        raise DegenerateInputError("cannot normalize a zero or non-finite field")
    return replace(psi, amplitudes=psi.amplitudes / np.sqrt(n))


@dataclass(frozen=True, eq=False)
class PolarFields:
    """Amplitude/action decomposition ``psi = R exp(i S / lambda_mag)``.

    ``S`` is in action units (multiples of the magnitude used to decompose)
    and is only defined modulo ``2 pi lambda_mag``; it is unwrapped axis by
    axis from the grid origin, so gradients are faithful away from nodes.
    ``node_mask`` flags points where ``R^2`` fell below the node threshold;
    values of ``S`` there are unusable.
    """

    R: np.ndarray
    S: np.ndarray
    node_mask: np.ndarray
    winding: int | None = None
    grid: GridSpec | None = None
    axes: tuple[str, ...] | None = None


def polar_decompose(psi, lambda_mag: float, eps_node_rel: float = EPS_NODE_REL) -> PolarFields:
    """Split a field into non-negative amplitude R and unwrapped action S.

    Accepts a :class:`WaveFunction` or a bare complex array.  For fields with
    a ring axis the integer phase winding around the ring is reported.
    """
    if lambda_mag <= 0:
        raise ValueError("lambda_mag must be positive")
    grid = axes = None
    if isinstance(psi, WaveFunction):
        grid, axes = psi.grid, psi.axes
        values = psi.amplitudes
    else:
        values = np.asarray(psi, dtype=complex)
    dens = np.abs(values) ** 2
    peak = dens.max()
    if peak == 0.0:
        raise DegenerateInputError("all-zero field has no polar decomposition")
    node_mask = dens < eps_node_rel * peak

    R = np.abs(values)
    phase = np.angle(values)
    winding = None
    if axes is not None and axes[0] == "theta" and values.ndim >= 1:
        steps = np.angle(np.exp(1j * (np.diff(phase, axis=0, append=phase[:1]))))
        col = steps[(slice(None),) + (0,) * (values.ndim - 1)]
        winding = int(np.rint(col.sum() / (2.0 * np.pi)))
    for ax in range(values.ndim):
        phase = np.unwrap(phase, axis=ax)
    return PolarFields(R=R, S=lambda_mag * phase, node_mask=node_mask,
                       winding=winding, grid=grid, axes=axes)


def compose_polar(fields: PolarFields, lambda_mag: float):
    """Rebuild ``R exp(i S / lambda_mag)``; inverse of :func:`polar_decompose` off nodes."""
    if np.any(fields.R < 0):
        raise ValueError("R must be non-negative")
    values = fields.R * np.exp(1j * fields.S / lambda_mag)
    if fields.grid is not None and fields.axes is not None:
        return WaveFunction(values, fields.grid, fields.axes)
    return values


@dataclass(frozen=True)
class PhysicalConfig:
    """Measurement-interaction parameters.  hbar is pinned to 1."""

    lambda_mag: float = 1.0
    g: float = 1.0
    t_M: float = 1.0
    sigma: float = 0.05
    sep_factor: float = 8.0
    hbar: float = HBAR

    def __post_init__(self):
        if self.hbar != HBAR:
            raise InvalidSystemError("hbar is fixed to 1 by the unit convention")
        for name in ("lambda_mag", "t_M", "sigma", "sep_factor"):
            if getattr(self, name) <= 0:
                raise InvalidSystemError(f"{name} must be positive")
        if self.sep_factor < 6.0:
            raise InvalidSystemError("sep_factor must be at least 6 for packet non-overlap")

    def check_separation(self, omegas) -> None:
        """Packet layout guard: g * t_M * (smallest eigenvalue gap) >= sep_factor * sigma."""
        distinct = np.unique(np.asarray(omegas, dtype=float))
        if len(distinct) < 2:
            return
        gap = np.min(np.diff(np.sort(distinct)))
        if abs(self.g) * self.t_M * gap < self.sep_factor * self.sigma:
            raise InvalidSystemError(
                f"pointer packets overlap: |g|*t_M*gap = {abs(self.g) * self.t_M * gap:.4g} "
                f"< sep_factor*sigma = {self.sep_factor * self.sigma:.4g}")


# ---------------------------------------------------------------------------
# wavefunction snapshot export (CSV and a compact little-endian binary dump)
# ---------------------------------------------------------------------------

_MAGIC = b"WFSN"
_VERSION = 1


def field_to_csv(amplitudes: np.ndarray, axis_points: list[np.ndarray],
                 axis_names: list[str]) -> str:
    """One row per grid point: coordinate columns, then Re and Im."""
    coords = np.meshgrid(*axis_points, indexing="ij")
    header = ",".join(list(axis_names) + ["re", "im"])
    lines = [header]
    flat = [c.ravel() for c in coords]
    re = amplitudes.real.ravel()
    im = amplitudes.imag.ravel()
    for i in range(re.size):
        cols = [repr(float(c[i])) for c in flat] + [repr(float(re[i])), repr(float(im[i]))]
        lines.append(",".join(cols))
    return "\n".join(lines) + "\n"


def field_to_binary(amplitudes: np.ndarray, axis_points: list[np.ndarray]) -> bytes:
    """Little-endian dump.

    Layout: magic ``WFSN`` (4 bytes), uint32 version, uint32 ndim, then per
    axis a uint64 point count with float64 first and last coordinates, then
    for every grid point in C order interleaved float64 (Re, Im).
    """
    buf = BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<II", _VERSION, len(axis_points)))
    for pts in axis_points:
        buf.write(struct.pack("<Qdd", len(pts), float(pts[0]), float(pts[-1])))
    inter = np.empty(amplitudes.size * 2, dtype="<f8")
    inter[0::2] = amplitudes.real.ravel()
    inter[1::2] = amplitudes.imag.ravel()
    buf.write(inter.tobytes())
    return buf.getvalue()


def wavefunction_to_csv(psi: WaveFunction) -> str:
    return field_to_csv(psi.amplitudes, [psi.grid.axis_points(a) for a in psi.axes],
                        list(psi.axes))


def wavefunction_to_binary(psi: WaveFunction) -> bytes:
    return field_to_binary(psi.amplitudes, [psi.grid.axis_points(a) for a in psi.axes])


def wavefunction_from_binary(blob: bytes) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Inverse of :func:`wavefunction_to_binary`; returns (amplitudes, axis specs)."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a wavefunction dump")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported dump version {version}")
    off = 12
    axes = []
    for _ in range(ndim):
        n, lo, hi = struct.unpack_from("<Qdd", blob, off)
        axes.append((int(n), lo, hi))
        off += 24
    count = int(np.prod([n for n, _, _ in axes]))
    inter = np.frombuffer(blob, dtype="<f8", count=2 * count, offset=off)
    amp = (inter[0::2] + 1j * inter[1::2]).reshape([n for n, _, _ in axes])
    return amp, axes
