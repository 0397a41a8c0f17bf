"""Random action-increment machinery.

The transition weight between infinitesimally close configurations is an
exponential law in the deviation of the action increment from its stationary
value, one-sided along the sign of the scale parameter ``lambda``.  The sign
of ``lambda`` is locked to the sign of the hidden fluctuation ``xi``; one
shared sign holds for one ``dt_traj`` step of a trajectory.  No magnitude of
``xi`` or ``lambda`` is drawn: ``|lambda|`` is the fixed ``lambda_mag`` of
:class:`~stochaction.core.PhysicalConfig`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class StochasticParams:
    """The sign law, and the time scales it is validated against.

    ``sign_law`` is ``"iid"`` (a fresh equiprobable sign each ``dt_traj``
    step) or ``"telegraph"`` (flip with probability ``flip_prob`` per step;
    0.5 reproduces iid).  ``tau_xi``, ``tau_lambda`` (may be ``inf``),
    ``hierarchy_factor`` and ``dt`` only feed validation: the checks here
    and the bound ``dt_traj <= tau_xi / hierarchy_factor`` of actual runs.
    """

    tau_lambda: float = math.inf
    tau_xi: float = 0.01
    dt: float = 0.001
    hierarchy_factor: float = 10.0
    sign_law: str = "iid"
    flip_prob: float = 0.5

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not (self.tau_xi > 0 and self.dt > 0):
            raise ValueError("tau_xi and dt must be positive")
        if not self.hierarchy_factor >= 10.0:
            raise ValueError("hierarchy_factor must be at least 10")
        if not self.tau_lambda >= self.hierarchy_factor * self.tau_xi:
            raise ValueError("tau_lambda must dominate tau_xi by the hierarchy factor")
        if not self.tau_xi >= self.hierarchy_factor * self.dt:
            raise ValueError("tau_xi must dominate dt by the hierarchy factor")
        if self.sign_law not in ("iid", "telegraph"):
            raise ValueError(f"unknown sign_law {self.sign_law!r}")
        if not 0.0 < self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in (0, 1]")


@dataclass(frozen=True)
class ActionIncrement:
    """Action increments along the two sign branches of the hidden variable.

    ``dA_plus`` is the increment on the realized branch, ``dA_minus`` on the
    sign-flipped one.  The symmetrized increment dS and the branch asymmetry
    Z are derived; dS - dA_plus = -Z/2 holds by construction.
    """

    dA_plus: float
    dA_minus: float

    @property
    def dS(self) -> float:
        return 0.5 * (self.dA_plus + self.dA_minus)

    @property
    def Z(self) -> float:
        return self.dA_plus - self.dA_minus

    @property
    def deviation(self) -> float:
        """dS - dA on the realized branch."""
        return self.dS - self.dA_plus

    @classmethod
    def from_deviation(cls, deviation: float) -> "ActionIncrement":
        return cls(dA_plus=-deviation, dA_minus=deviation)

    def combined_with(self, other: "ActionIncrement") -> "ActionIncrement":
        """Composite increment of two non-interacting subsystems (branchwise sum)."""
        return ActionIncrement(self.dA_plus + other.dA_plus,
                               self.dA_minus + other.dA_minus)


def transition_log_weight(inc: ActionIncrement, lambda_signed: float,
                          theta_s_dt: float = 0.0) -> float:
    """Log of the exponential transition law, up to its normalization.

    Returns ``-(2/lambda)(dS - dA) - theta_s_dt``.  A deviation whose sign
    disagrees with ``lambda`` is not normalizable and returns ``-inf``,
    signalling a sign-lock breach.
    """
    if lambda_signed == 0.0:
        raise ValueError("lambda_signed must be nonzero")
    dev = inc.deviation
    if dev / lambda_signed < 0.0:
        return NEG_INF
    return -2.0 * dev / lambda_signed - theta_s_dt


def gaussian_log_weight(inc: ActionIncrement, lambda_signed: float,
                        theta_s_dt: float = 0.0) -> float:
    """Gaussian counter-law used as a negative control.

    Unlike the exponential law it is not additive over non-interacting
    subsystems, which is exactly what the control test demonstrates.
    """
    if lambda_signed == 0.0:
        raise ValueError("lambda_signed must be nonzero")
    return -((inc.deviation / lambda_signed) ** 2) - theta_s_dt


def sample_deviation(lambda_mag: float, lambda_sign: int, rng: np.random.Generator,
                     size=None):
    """Draw dS - dA from the one-sided exponential law.

    The magnitude is exponential with mean ``lambda_mag / 2`` and the sign
    equals ``lambda_sign``.
    """
    if not lambda_mag > 0:   # a NaN fails it too
        raise ValueError("lambda_mag must be positive")
    if lambda_sign not in (-1, 1):
        raise ValueError("lambda_sign must be +1 or -1")
    mag = rng.exponential(scale=lambda_mag / 2.0, size=size)
    return lambda_sign * mag


def sample_sign_path(params: StochasticParams, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Shared sign path of xi and lambda, one entry per ``dt_traj`` step."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if params.sign_law == "iid":
        return (rng.integers(0, 2, size=n_steps) * 2 - 1).astype(np.int8)
    first = np.int8(rng.integers(0, 2) * 2 - 1)
    flips = rng.random(n_steps - 1) < params.flip_prob
    toggles = np.concatenate(([0], np.cumsum(flips) % 2)).astype(np.int8)
    return first * np.where(toggles == 0, np.int8(1), np.int8(-1))


def check_separability(inc1: ActionIncrement, inc2: ActionIncrement, lambda_signed: float,
                       theta1_dt: float = 0.0, theta2_dt: float = 0.0,
                       log_weight=transition_log_weight) -> tuple[float, float, float]:
    """Log-weights (joint, first, second) for two non-interacting subsystems.

    For the exponential law the joint weight is exactly the sum of the single
    ones; pass ``log_weight=gaussian_log_weight`` to watch that fail.
    """
    joint = inc1.combined_with(inc2)
    lp1 = log_weight(inc1, lambda_signed, theta1_dt)
    lp2 = log_weight(inc2, lambda_signed, theta2_dt)
    lpj = log_weight(joint, lambda_signed, theta1_dt + theta2_dt)
    return lpj, lp1, lp2
