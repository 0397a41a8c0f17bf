"""Configuration-space machinery shared by every engine.

The measured particle lives on the unit ring (angle ``theta``, periodic) and
the apparatus pointer on a line segment (coordinate ``q2``).  Everything is
expressed in units with hbar = 1; action-scale parameters are recorded as
multiples of hbar.
"""
from __future__ import annotations

import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
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
# forked worker processes
# ---------------------------------------------------------------------------

def fork_workers(requested: int, n_tasks: int) -> int:
    """Processes :func:`fork_map` runs ``n_tasks`` tasks on.

    ``requested`` capped by the task count and ``os.cpu_count()``, and 1
    where the platform has no ``fork`` start method.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(requested, n_tasks, os.cpu_count() or 1))


# the task of a forked worker, set once in that worker by its initializer
_fork_task = None


def _set_fork_task(fn) -> None:
    global _fork_task
    _fork_task = fn


def _run_fork_task(i: int):
    return _fork_task(i)


def fork_map(fn, n: int, workers: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, on :func:`fork_workers` forked processes.

    ``fn`` reaches the workers through the fork, so it and everything it
    reads (flows, systems, compiled field expressions) are never pickled;
    only the indices go out and the results come back.  A worker's
    exception is raised here with its type, message and attributes.  Every
    worker has exited and been reaped when this returns or raises, so its
    CPU time counts among the caller's reaped children.  With one worker
    the tasks run in this process, in order.
    """
    workers = fork_workers(workers, n)
    if workers == 1:
        return [fn(i) for i in range(n)]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_fork_task, initargs=(fn,))
    try:
        return list(pool.map(_run_fork_task, range(n)))
    finally:
        # on an error the tasks not yet started are dropped; the joins still wait
        pool.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# field snapshot export (CSV and a compact little-endian binary dump)
# ---------------------------------------------------------------------------

_MAGIC = b"WFSN"
_VERSION = 1


def csv_text(rows, header: list[str]) -> str:
    """Comma-separated ``rows`` under ``header``: floats by ``repr``, other cells by ``str``."""
    lines = [",".join(header)]
    lines += [",".join(repr(c) if isinstance(c, float) else str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def field_to_csv(amplitudes: np.ndarray, axis_points: list[np.ndarray],
                 axis_names: list[str]) -> str:
    """One row per grid point: coordinate columns, then Re and Im."""
    coords = [c.ravel().tolist() for c in np.meshgrid(*axis_points, indexing="ij")]
    rows = zip(*coords, amplitudes.real.ravel().tolist(), amplitudes.imag.ravel().tolist())
    return csv_text(rows, list(axis_names) + ["re", "im"])


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
