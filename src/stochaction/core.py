"""Configuration-space machinery shared by every engine.

The measured particle lives on the unit ring (angle ``theta``, periodic) and
the apparatus pointer on a line segment (coordinate ``q2``).  Everything is
expressed in units with hbar = 1; action-scale parameters are recorded as
multiples of hbar.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from io import BytesIO

import numpy as np

HBAR = 1.0
#: a point is a node of a wavefunction when its density is below this
#: fraction of the peak density
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


class NumericalError(RuntimeError):
    """A solver produced non-finite values; diagnostics in ``args[0]``."""


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Pointer domain ``[q2_min, q2_max]``.

    Runs evaluate the joint state in closed form along trajectories, so the
    only grid they read is the pointer segment: packet centers must stay 5
    sigma inside it and a trajectory that leaves it overflows.
    """

    q2_min: float = -4.0
    q2_max: float = 4.0

    def __post_init__(self):
        if not self.q2_max > self.q2_min:
            raise InvalidSystemError("q2_max must exceed q2_min")


@dataclass(frozen=True)
class PhysicalConfig:
    """Measurement-interaction parameters, in units with hbar = 1."""

    lambda_mag: float = 1.0
    g: float = 1.0
    t_M: float = 1.0
    sigma: float = 0.05
    sep_factor: float = 8.0

    def __post_init__(self):
        # each test is written so that a NaN fails it
        for name in ("lambda_mag", "t_M", "sigma", "sep_factor"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidSystemError(f"{name} must be positive and finite")
        if not abs(self.g) < np.inf:
            raise InvalidSystemError("g must be finite")
        if not self.sep_factor >= 6.0:
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
# field snapshot export (CSV and a compact little-endian binary dump)
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
