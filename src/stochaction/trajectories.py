"""Particle trajectories driven by the joint wavefunction.

Two velocity sources exist for the pair (system coordinate, pointer):

* the effective field, the phase-gradient flow of the joint wavefunction,
  obtained by averaging the two hidden-sign branches, and
* the actual field, which adds the sign-flipping osmotic term
  ``(lambda/2) * grad(Omega) / Omega`` read off the joint density.

For a spectral state both are evaluated in closed form (mode sums), so no
interpolation error enters the ensemble statistics.  Ensembles integrate
vectorized over trials in chunks sized by ``measurement._chunk_rows``;
per-trial randomness comes from counter-based streams, which keeps runs
bit-reproducible at any chunking and worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from scipy import stats
from scipy.special import chdtrc, erf

from .core import EPS_NODE_REL, DegenerateInputError, require_count
from .spectral import (AngularBasis, PlaneWaveModes, SpectralState,
                       evolve_measurement_spectral, ring_fourier)

TWO_PI = 2.0 * np.pi
# A decided row's neglected packets sit below DECIDE_EPS of its own amplitude
# (rounding level); live rows are tested every DECIDE_EVERY steps.
DECIDE_EPS = 2.0 ** -53
DECIDE_EVERY = 10
# Mode rows x trial rows of an ensemble chunk (measurement._chunk_rows) or of a
# block of equivariance CDF values at most, so each complex per-mode temporary
# stays at or under 256 KB.  A kernel call or RK4 step costs about 40 numpy calls
# whatever its row count, so fewer chunks run faster until that temporary
# outgrows L2: with 2 MB of L2 per core, runs slowed once it passed about 450 KB.
_MODE_ROWS = 2**14
# the fewest equivariance bins: a chi-squared with one bin has no degree of freedom
N_BINS_MIN = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """The step of trajectory ensembles, their one numerical knob."""

    dt_traj: float = 1e-3

    def __post_init__(self):
        # written so that a NaN fails it
        if not self.dt_traj > 0:
            raise ValueError("dt_traj must be positive")

    def n_steps(self, duration: float) -> int:
        """Steps of ``dt_traj`` in ``duration``, which must be a positive whole number.

        Whole means within 1e-9 of an integer; above 2^53 steps a float no
        longer tells whole numbers apart.  Raises ValueError otherwise.
        """
        steps = duration / self.dt_traj
        if not (0.5 <= steps < 2.0**53 and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"t_M = {duration!r} is not a positive whole number of "
                             f"dt_traj = {self.dt_traj!r} steps")
        return int(round(steps))

    def validate_against(self, stoch) -> None:
        """Integration steps may not outpace the sign-block scale (actual-velocity runs),
        to 4 ulp of the quotient: 0.21 / 10 is 0.020999999999999998, not 0.021."""
        bound = stoch.tau_xi / stoch.hierarchy_factor
        if self.dt_traj > bound + 4 * np.spacing(bound):
            raise ValueError(f"dt_traj = {self.dt_traj} exceeds tau_xi / hierarchy_factor "
                             f"= {bound}")


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """``exp(i x)`` from ``t = tan(x / 2)``: ``cos x = r - 1`` and ``sin x = t r``.

    Here ``r = 2 / (1 + t^2)``.  One ``tan``, which numpy vectorizes with
    SIMD where the CPU has it, replaces float64 ``cos`` and ``sin``, which
    numpy 2.4 leaves to scalar libm calls on x86-64; each part is within a
    few units in the last place of theirs.  No float is an odd multiple of
    ``pi``, so ``t`` stays finite and ``r`` positive.
    """
    t = np.multiply(x, 0.5)
    np.tan(t, out=t)
    r = t * t
    r += 1.0
    np.divide(2.0, r, out=r)
    z = np.empty(t.shape, dtype=complex)
    np.subtract(r, 1.0, out=z.real)
    np.multiply(t, r, out=z.imag)
    return z


def _ring_plan(n) -> list[tuple[int, int, int]]:
    """The walk of :func:`_ring_rows` over the mode numbers ``n``: ``(k, rungs, sign)``.

    Modes come in stable order of ``|n_k|``; ``rungs`` is how many more
    products by the unit phase reach ``|n_k|`` and ``sign`` is that of
    ``n_k``.  A flow or sampler builds it once, not on every call.
    """
    plan, rung = [], 0
    for k in np.argsort(np.abs(n), kind="stable"):
        nk = int(n[k])
        plan.append((int(k), abs(nk) - rung, (nk > 0) - (nk < 0)))
        rung = abs(nk)
    return plan


def _ring_rows(plan, theta: np.ndarray):
    """Each ring row ``exp(i n_k theta)`` as ``(k, row)``, along a :func:`_ring_plan`.

    One :func:`_unit_phase` and one running integer power of it, a product
    per rung, so a caller that uses each row as it comes holds a few rows at
    once, not one per rung.  Conjugates give ``n < 0`` and ``None`` stands
    for the row of ones (``n = 0``).  Equal ``|n_k|`` share one power, so
    the rows are read-only.
    """
    z = _unit_phase(theta)
    power = None
    for k, rungs, sign in plan:
        for _ in range(rungs):
            power = z if power is None else power * z
        yield k, None if sign == 0 else power if sign > 0 else np.conjugate(power)


def _ring_sum(a, rows, shape) -> np.ndarray:
    """``sum_k a_k rows_k`` over the ``(k, row)`` pairs of :func:`_ring_rows`, added in k order."""
    rows = dict(rows)
    out = np.zeros(shape, dtype=complex)
    for k, ak in enumerate(a):
        out += ak if rows[k] is None else ak * rows[k]
    return out


def _abs2(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` as ``re^2 + im^2``, the one expression of every ``ModeFlow`` density."""
    out = z.real * z.real
    out += z.imag * z.imag
    return out


def _weighted_sum(b: np.ndarray, terms) -> np.ndarray:
    """``sum_k a_k b_k`` over the ``(k, a_k)`` in ``terms``, added row by row in k order."""
    out = b[terms[0][0]] * terms[0][1] if terms else np.zeros(b.shape[1:], dtype=complex)
    tmp = np.empty_like(out)
    for k, a in terms[1:]:
        out += np.multiply(b[k], a, out=tmp)
    return out


def _component_major(shape: tuple[int, ...]) -> np.ndarray:
    """An empty ``shape + (2,)`` array whose components ``[..., 0]`` and ``[..., 1]``
    are each one contiguous block: the reversed view of ``(2,) + shape[::-1]``."""
    return np.empty((2,) + shape[::-1]).T


def _ring_peak_bound(a) -> float:
    """``(sum_k |a_k|)^2``, a bound on ``|sum_k a_k u_k|^2`` for any ``|u_k| <= 1`` by the
    triangle inequality, reached where every ``a_k u_k`` shares one phase."""
    return float(np.abs(a).sum()) ** 2


class ModeFlow:
    """Closed-form velocity fields of a spectral state.

    The coupling swaps the gradient axes: the system coordinate moves with the
    pointer-gradient of the phase and the pointer with the system-gradient, each
    scaled by g.  Only occupied modes enter the sums.  Every mode row is a
    :func:`_ring_rows` power ``exp(i n_k kappa x)``: on the ring ``n_k = l_k``
    and ``kappa = 1``; a plane wave ``p_k`` on a ladder of spacing ``kappa``
    takes ``n_k = (p_k - p_0) / kappa`` from the first occupied momentum
    ``p_0``.  Their common factor ``exp(i p_0 x)`` is left out, since
    ``|Psi|^2``, ``conj(Psi) W`` and ``conj(Psi) E`` pair Psi with its
    conjugate.  Each packet moves linearly in its wavenumber, so one
    mode-weighted sum gives both gradients (:meth:`_velocity`).

    Ring (:class:`AngularBasis`) and plane-wave states only: a position
    state moves under :class:`PointerReadoutFlow`.
    """

    def __init__(self, state: SpectralState, g: float):
        modes, sup = state.modes, state.support_indices()
        if isinstance(modes, AngularBasis):
            w, base, self._kappa, box = modes.modes[sup].astype(float), 0.0, 1.0, TWO_PI
        elif isinstance(modes, PlaneWaveModes):
            p = modes.momenta
            w, box = p[sup], modes.box_length
            base, self._kappa = w[0], (p[1] - p[0] if len(p) > 1 else 1.0)
        else:
            raise TypeError(f"ModeFlow takes ring or plane-wave states, not "
                            f"{type(modes).__name__}; position states move "
                            "under PointerReadoutFlow")
        self.g = g
        self.sigma = state.packet.sigma
        self.t0 = state.t
        self.coeffs = state.coeffs[sup]
        self.omegas = state.omegas[sup]
        self.centers0 = state.centers[sup]
        self._n = np.rint((w - base) / self._kappa).astype(int)
        self._plan = _ring_plan(self._n)
        # dPsi/dx weighs b_k by i w_k and the packet drift by omega_k = HBAR w_k
        assert np.array_equal(self.omegas, w), "one mode-weighted sum needs HBAR = 1"
        self._pack_norm = (TWO_PI * self.sigma**2) ** -0.25
        self._two_var = 2.0 * self.sigma**2
        # c'_k = c_k * mode scale * packet norm, and the packet exponent's factor
        self._packet_coeffs = self.coeffs * (1.0 / np.sqrt(box) * self._pack_norm)
        self._gauss_rate = -0.5 / self._two_var
        # the nonzero weights of W and E; E is empty unless packets start apart
        self._mu_ref = self.centers0[0]
        eps = (self.centers0 - self._mu_ref) / self._two_var
        self._w_terms, self._eps_terms = ([(k, a[k]) for k in range(len(a)) if a[k] != 0]
                                          for a in (w, eps))
        # what every call reads: pointer speeds g omega_k, their columns, log |c_k|
        self._speeds = self.g * self.omegas
        self._speed_col, self._center_col = self._speeds[:, None], self.centers0[:, None]
        self._log_c = np.log(np.abs(self.coeffs))[:, None]
        # |Psi|^2 at most (sum |c'_k|)^2: each mode row and packet factor is at most one in modulus
        self.ref_peak = _ring_peak_bound(self._packet_coeffs)

    def centers(self, t: float) -> np.ndarray:
        return self.centers0 + self._speeds * (t - self.t0)

    def _packets(self, x: np.ndarray, q2: np.ndarray, t: float) -> np.ndarray:
        """The ``(K, ...)`` table of each mode's term ``b_k = c'_k G_k(q2) u_k(x)`` of Psi.

        ``G_k(q2) = exp(-(mu_k - q2)^2 / (4 sigma^2))``, its norm in ``c'_k``.  Each
        per-mode constant multiplies its row as a scalar, not as a ``(K, 1)`` broadcast,
        and each mode row enters its term as :func:`_ring_rows` yields it.
        """
        gauss = np.subtract.outer(self.centers(t), q2)
        gauss *= gauss
        gauss *= self._gauss_rate
        np.exp(gauss, out=gauss)
        b = np.empty(gauss.shape, dtype=complex)
        # a ring flow's kappa is 1, and 1.0 * x is x
        for k, row in _ring_rows(self._plan, x if self._kappa == 1.0 else self._kappa * x):
            np.multiply(self._packet_coeffs[k], gauss[k], out=b[k])
            if row is not None:
                np.multiply(row, b[k], out=b[k])
        return b

    def density(self, points: np.ndarray, t: float) -> np.ndarray:
        return _abs2(np.add.reduce(self._packets(points[..., 0], points[..., 1], t), axis=0))

    def _velocity(self, points: np.ndarray, t: float, lam, with_density: bool):
        """Phase-gradient field, plus the osmotic term scaled by ``lam`` unless it is None.

        ``mu_k(t) = mu_ref + 2 sigma^2 eps_k + g w_k (t - t0)``, so with ``W = sum w_k b_k``,
        ``E = sum eps_k b_k``, ``s0 = (mu_ref - q2) / (2 sigma^2)`` and ``beta = g (t - t0)
        / (2 sigma^2)``: ``dPsi/dx = i W`` and ``dPsi/dq2 = s0 Psi + beta W + E``.  With
        ``P = conj(Psi) W`` the phase gradients times ``|Psi|^2`` are ``beta Im P +
        Im conj(Psi) E`` and ``Re P``; the osmotic ones ``s0 |Psi|^2 + beta Re P +
        Re conj(Psi) E`` and ``-Im P``.
        """
        b = self._packets(points[..., 0], points[..., 1], t)
        pc = np.add.reduce(b, axis=0)
        np.conjugate(pc, out=pc)
        dens = _abs2(pc)
        pw = _weighted_sum(b, self._w_terms)
        np.multiply(pc, pw, out=pw)
        pe = pc * _weighted_sum(b, self._eps_terms) if self._eps_terms else None
        beta = self.g * (t - self.t0) / self._two_var
        v = _component_major(dens.shape)
        np.multiply(pw.imag, beta, out=v[..., 0])
        if pe is not None:
            v[..., 0] += pe.imag
        if lam is not None:
            osmotic = (self._mu_ref - points[..., 1]) * dens / self._two_var + beta * pw.real
            v[..., 0] += lam * (osmotic if pe is None else osmotic + pe.real)
        gain = np.maximum(dens, 1e-300)
        np.divide(self.g, gain, out=gain)
        v[..., 0] *= gain
        np.multiply(pw.real if lam is None else pw.real - lam * pw.imag, gain, out=v[..., 1])
        return (v, dens) if with_density else v

    def effective(self, points: np.ndarray, t: float, with_density: bool = False):
        """Phase-gradient field; ``with_density`` also returns ``|Psi|^2`` as ``(v, dens)``."""
        return self._velocity(points, t, None, with_density)

    def decided(self, points: np.ndarray, dens: np.ndarray, t: float, t_end: float,
                q2_bounds: tuple[float, float], eps_abs: float):
        """Rows that stay in one packet until ``t_end``, their speed and theta rate.

        A row is decided when one occupied packet k dominates at its pointer
        (every other ``|c_j| G_j(q2)`` is below ``DECIDE_EPS |c_k| G_k(q2)``,
        compared as logs), every other packet recedes from it
        (``(q2 - mu_j) (omega_k - omega_j) g > 0``), its density ``dens``
        passes the node check and the straight finish
        ``q2 + g omega_k (t_end - t)`` stays inside ``q2_bounds``.  Along that
        finish the gaps only grow and ``|c_k G_k|`` is constant, so the row
        moves on the classical line ``q2' = g omega_k`` and its system
        coordinate at the signed scale (0 in effective runs) times the fixed
        rate ``g (mu_k - q2) / (2 sigma^2)``.  Returns the mask, speed and rate.
        """
        q2 = points[:, 1]
        d = q2 - (self._center_col + self._speed_col * (t - self.t0))
        logw = self._log_c - d * d / (2.0 * self._two_var)
        top = np.argmax(logw, axis=0)
        rows = np.arange(len(q2))
        speed = self._speeds[top]
        other_ok = ((logw - logw[top, rows] < np.log(DECIDE_EPS))
                    & (d * (speed - self._speed_col) > 0))
        other_ok[top, rows] = True
        end = q2 + speed * (t_end - t)
        done = (np.all(other_ok, axis=0) & (dens >= eps_abs)
                & (end >= q2_bounds[0]) & (end <= q2_bounds[1]))
        return done, speed, -self.g * d[top, rows] / self._two_var

    def actual(self, points: np.ndarray, t: float, lambda_signed, with_density: bool = False):
        """Effective field plus the osmotic term with the given signed scale.

        ``lambda_signed`` may be a scalar or a per-point vector of signed
        magnitudes (sign path value times lambda_mag).  ``with_density``
        also returns ``|Psi|^2`` as ``(v, dens)``.
        """
        return self._velocity(points, t, np.asarray(lambda_signed), with_density)


class PointerReadoutFlow:
    """Exact characteristics of the position-coupling interaction.

    With the measured quantity equal to the system position itself, the
    velocity rule involves no wavefunction gradients at all: the system
    coordinate is frozen and the pointer drifts at ``g * x``.
    """

    # the density is this constant everywhere, so no landing is ever a node
    ref_peak = 1.0

    def __init__(self, g: float):
        self.g = g

    def density(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.full(points.shape[:-1], self.ref_peak)

    def effective(self, points: np.ndarray, t: float, with_density: bool = False):
        out = _component_major(points.shape[:-1])
        out[..., 0] = 0.0
        out[..., 1] = self.g * points[..., 0]
        return (out, self.density(points, t)) if with_density else out

    def actual(self, points: np.ndarray, t: float, lambda_signed, with_density: bool = False):
        return self.effective(points, t, with_density)

    def decided(self, points: np.ndarray, dens: np.ndarray, t: float, t_end: float,
                q2_bounds: tuple[float, float], eps_abs: float):
        """Rows whose line ``q2 + g x (t_end - t)`` stays in bounds; speed ``g x``, rate 0."""
        speed = self.g * points[:, 0]
        end = points[:, 1] + speed * (t_end - t)
        return (end >= q2_bounds[0]) & (end <= q2_bounds[1]), speed, np.zeros(len(speed))


class RingSampler:
    """Exact draws from ``|sum_k c_k exp(i l_k theta)|^2 / 2 pi``: ``sampler(n, rng)``.

    ``c`` holds the occupied coefficients and ``l`` their mode numbers.
    Rejection under the constant envelope :func:`_ring_peak_bound` over
    ``2 pi``, which touches the density for in-phase states.  A round for ``n`` draws takes
    ``m = round_size(n)`` uniforms for the angles and then ``m`` for the
    heights, and keeps the accepted angles in draw order.  ``accept`` decides
    rounds from their raw uniforms, so a caller may draw the first rounds of
    many trials and decide them at once; it sums the shared :func:`_ring_rows`
    in mode order, so no BLAS call (and no second BLAS thread) enters a draw.
    An envelope that is not positive and finite (no occupied mode, or a NaN
    amplitude) would never accept, so it raises before any draw.
    """

    def __init__(self, c: np.ndarray, l: np.ndarray):
        self.c = np.asarray(c, dtype=complex)
        self.l = np.asarray(l)
        self._plan = _ring_plan(self.l)
        self.bound = _ring_peak_bound(self.c) / TWO_PI
        if not (np.isfinite(self.bound) and self.bound > 0):
            raise DegenerateInputError(
                f"ring density has no positive finite bound ({self.bound!r})")

    def round_size(self, n: int) -> int:
        """Angles in a round that still owes ``n`` draws."""
        return int(2.5 * n * self.bound * TWO_PI) + 16

    def accept(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Angles and acceptance of rounds given as rows ``[angle uniforms, height uniforms]``.

        ``2 pi u`` and ``bound u`` are what ``uniform(0, 2 pi)`` and
        ``uniform(0, bound)`` return for the same ``u``.
        """
        m = raw.shape[-1] // 2
        theta = raw[..., :m] * TWO_PI
        psi = _ring_sum(self.c, _ring_rows(self._plan, theta), theta.shape)
        return theta, raw[..., m:] * self.bound < np.abs(psi) ** 2 / TWO_PI

    def __call__(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            theta, ok = self.accept(rng.random(2 * self.round_size(n - filled)))
            acc = theta[ok]
            take = min(len(acc), n - filled)
            out[filled:filled + take] = acc[:take]
            filled += take
        return out


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def _stage_velocity(flow, x, t, lam, with_density: bool = False):
    if lam is None:
        return flow.effective(x, t, with_density=with_density)
    return flow.actual(x, t, lam, with_density=with_density)


def _keep(keep: np.ndarray, *arrays):
    """Each array's rows under the mask ``keep``; None (an effective run's scale) stays None.

    A 2-D array is the ``(n, 2)`` view of ``(2, n)`` rows, and ``np.compress``
    along those rows keeps it one: a mask on the view returns a row-major copy,
    and a mask on the rows a column-major one.
    """
    return [None if a is None else a[keep] if a.ndim == 1 else np.compress(keep, a.T, axis=1).T
            for a in arrays]


def check_snapshot_steps(snapshot_steps: tuple[int, ...], n_steps: int) -> None:
    """Raise ValueError unless every snapshot step is an integer in ``[0, n_steps]``."""
    if bad := [s for s in snapshot_steps
               if not (isinstance(s, (int, np.integer)) and 0 <= s <= n_steps)]:
        raise ValueError(f"snapshot step {bad[0]!r} is not a step in [0, n_steps = {n_steps}]")


def _step(flow, x, t, dt, lam, k1: np.ndarray) -> np.ndarray:
    """One RK4 step; ``k1`` is the field at ``(x, t)``.

    The sums are formed in place, with the IEEE operations of
    ``x + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)`` in that order.
    """
    def from_x(v, h):
        y = v * h
        y += x
        return y

    half = 0.5 * dt
    k2 = _stage_velocity(flow, from_x(k1, half), t + half, lam)
    k3 = _stage_velocity(flow, from_x(k2, half), t + half, lam)
    k4 = _stage_velocity(flow, from_x(k3, dt), t + dt, lam)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    return from_x(k2, dt / 6.0)


def integrate_ensemble(flow, q0: np.ndarray, spec: EnsembleSpec, t0: float, duration: float,
                       sign_paths: np.ndarray | None = None, lambda_mag: float = 0.0,
                       q2_bounds: tuple[float, float] = (-np.inf, np.inf),
                       snapshot_steps: tuple[int, ...] = ()) -> dict:
    """Fixed-step RK4 integration of a batch of trajectories.

    ``sign_paths`` (n, n_steps) switches the osmotic term per step; omit it
    for effective-velocity runs.  Trials whose pointer leaves ``q2_bounds``
    freeze at their last configuration, are flagged, and drop out of the
    working set.  The system coordinate has no bounds: the ring angle and
    the box plane waves are periodic, and a position readout's coordinate
    never moves.  Returns final configs, per-trial flags, the time each
    trial was decided (NaN if never) and the snapshots at the requested
    steps, integers in ``[0, n_steps]`` (checked before any step).

    Each step evaluates the field once per stage: one evaluation at the
    landing point gives both the node check and the next step's first stage
    (first-same-as-last).  A landing is a node when its ``|Psi|^2`` is below
    ``EPS_NODE_REL`` of the flow's ``ref_peak``, a bound on its density, where
    the velocity is undefined; the row then holds at its start of the step, is
    flagged in ``node_clamped`` and gets its first stage evaluated again
    there; ``node_held_steps`` counts these row-steps.

    Every ``DECIDE_EVERY`` steps, under either velocity, the rows that the
    flow's ``decided`` rule passes leave the working set and finish on their
    pointer line; in actual runs the system coordinate adds its rate times
    ``lambda_mag dt`` times the row's integer sum of sign entries since then.

    ``q0`` must be a finite ``(n, 2)`` array (ValueError otherwise, before any
    step).  The working configurations, stage points and velocities are
    ``(n, 2)`` views of component-major ``(2, n)`` rows, so each coordinate the
    field reads and each velocity component it writes is contiguous.
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.ndim != 2 or q0.shape[1] != 2:
        raise ValueError(f"q0 must be an (n, 2) array of configurations, not shape {q0.shape}")
    if not np.isfinite(q0).all():
        raise ValueError(f"q0 row {int(np.argmin(np.isfinite(q0).all(axis=1)))} is not finite")
    n_steps = spec.n_steps(duration)
    check_snapshot_steps(snapshot_steps, n_steps)
    dt = spec.dt_traj
    t_end = t0 + n_steps * dt
    x = np.array(q0.T, order="C").T
    n = x.shape[0]
    overflow = np.zeros(n, dtype=bool)
    node_clamped = np.zeros(n, dtype=bool)
    decided_at = np.full(n, np.nan)
    eps_abs = EPS_NODE_REL * flow.ref_peak
    live = np.arange(n)          # rows still integrating, at configs x
    held_steps = 0
    # (rows, config, pointer speed, theta rate, step) of each batch that left the working set
    retired = []

    def _frame(step: int) -> np.ndarray:
        """Every row's configuration at ``step``; retired rows move on from their step k."""
        out = np.empty((n, 2))
        out[live] = x
        for rows, xr, speed, rate, k in retired:
            out[rows] = xr
            out[rows, 1] += speed * ((step - k) * dt)
            if sign_paths is not None:
                out[rows, 0] += rate * (lambda_mag * dt) * sign_paths[rows, k:step].sum(axis=1)
        return out

    snapshots: dict[int, np.ndarray] = {0: _frame(0)} if 0 in snapshot_steps else {}
    lam = None if sign_paths is None else lambda_mag * sign_paths[:, 0]
    v, dens = _stage_velocity(flow, x, t0, lam, with_density=True)
    for k in range(n_steps):
        t = t0 + k * dt
        if k % DECIDE_EVERY == 0:
            done, speed, rate = flow.decided(x, dens, t, t_end, q2_bounds, eps_abs)
            if np.any(done):
                retired.append((live[done], x[done], speed[done], rate[done], k))
                decided_at[live[done]] = t
                live, x, v, dens, lam = _keep(~done, live, x, v, dens, lam)
        # the last rows left, decided here or out of bounds on the step before
        if len(live) == 0:
            break
        t_next = t0 + (k + 1) * dt
        prop = _step(flow, x, t, dt, lam, v)
        # after the last step only the landing density is used
        lam_next = (None if sign_paths is None or k + 1 == n_steps
                    else lambda_mag * sign_paths[live, k + 1])
        v_next, landing = _stage_velocity(flow, prop, t_next, lam_next, with_density=True)
        bad = landing < eps_abs
        held = bad.any()
        if held:
            prop[bad] = x[bad]
            node_clamped[live[bad]] = True
            held_steps += int(np.count_nonzero(bad))
        newly = (prop[:, 1] < q2_bounds[0]) | (prop[:, 1] > q2_bounds[1])
        if np.any(newly):
            retired.append((live[newly], x[newly], 0.0, 0.0, k))
            overflow[live[newly]] = True
            live, prop, bad, v_next, landing, lam_next = _keep(
                ~newly, live, prop, bad, v_next, landing, lam_next)
            # only a row held at a q0 outside the bounds leaves with them
            held = held and bad.any()
        x, dens = prop, landing
        if held:
            # a held row has no density yet; such rows wait for the next test
            dens = np.where(bad, 0.0, landing)
            if k + 1 < n_steps:
                x_held, lam_held = _keep(bad, x, lam_next)
                v_next[bad] = _stage_velocity(flow, x_held, t_next, lam_held)
        v, lam = v_next, lam_next
        if (k + 1) in snapshot_steps:
            snapshots[k + 1] = _frame(k + 1)

    # every row decided early: the later snapshots are the finished lines
    snapshots.update({s: _frame(s) for s in snapshot_steps if s not in snapshots})
    return {"configs": _frame(n_steps), "overflow": overflow, "node_clamped": node_clamped,
            "node_held_steps": held_steps, "decided_at": decided_at, "snapshots": snapshots,
            "n_steps": n_steps}


# ---------------------------------------------------------------------------
# equivariance diagnostics
# ---------------------------------------------------------------------------

def marginal_cdfs(state: SpectralState):
    """CDFs of both marginals of ``|Psi(t)|^2``, over the occupied modes, in closed form.

    The q2 CDF is a weighted sum of Gaussian CDFs.  The theta CDF integrates
    the ring marginal's Fourier series (:func:`~stochaction.spectral.ring_fourier`)
    term by term: ``F = (W theta + 2 Re sum_d A_d (e^{i d theta} - 1) / (i d)) / (2 pi W)``.
    """
    sup = state.support_indices()
    weights, mus = np.abs(state.coeffs[sup]) ** 2, state.centers[sup]
    scale = np.sqrt(2.0) * state.packet.sigma
    w, d, amps = ring_fourier(state)

    def cdf_q2(q):
        z = (q[:, None] - mus) / scale
        return np.sum(weights * 0.5 * (1.0 + erf(z)), axis=-1)

    def cdf_theta(x):
        th = np.mod(x, TWO_PI)
        waves = (amps * (np.exp(1j * d * th[:, None]) - 1.0) / (1j * d)).real
        return (w * th + 2.0 * np.sum(waves, axis=-1)) / (TWO_PI * w)

    return _in_row_blocks(cdf_theta, len(d)), _in_row_blocks(cdf_q2, len(mus))


def _in_row_blocks(f, n_terms: int):
    """``f`` over any array, in 1-D blocks whose ``(points, n_terms)`` tables stay
    within ``_MODE_ROWS``; each value reduces its own row, so blocks keep its bits."""
    rows = max(1, _MODE_ROWS // max(n_terms, 1))

    def blocked(x):
        x = np.asarray(x, dtype=float)
        flat, out = x.reshape(-1), np.empty(x.size)
        for start in range(0, x.size, rows):
            out[start:start + rows] = f(flat[start:start + rows])
        return out.reshape(x.shape)[()]

    return blocked


def equivariance_report(snapshots: dict[float, np.ndarray], state0: SpectralState,
                        g: float, n_bins: int = 50) -> dict:
    """Binned chi-squared and KS comparisons against the evolved marginals.

    ``snapshots`` maps times to (n, 2) configuration arrays drawn from the
    ensemble.  Each sample goes through its marginal's reference CDF, so
    ``n_bins`` equal bins of [0, 1] are the equal-mass bins (the probability
    integral transform) and every bin has the same expected count; a CDF
    value rounded above 1 counts in the last bin.  The same CDF drives KS.
    """
    require_count("n_bins", n_bins, N_BINS_MIN)
    if not isinstance(state0.modes, AngularBasis):
        raise NotImplementedError("equivariance diagnostics assume the ring system")
    report = {}
    for t, pts in sorted(snapshots.items()):
        state_t = evolve_measurement_spectral(state0, t - state0.t, g)
        report[t] = {"n": int(len(pts))}
        samples = (np.mod(pts[:, 0], TWO_PI), pts[:, 1])
        for name, x, cdf in zip(("theta", "q2"), samples, marginal_cdfs(state_t)):
            bins = np.minimum((cdf(x) * n_bins).astype(np.intp), n_bins - 1)
            expected = len(x) / n_bins
            chi2 = float(np.sum((np.bincount(bins, minlength=n_bins) - expected) ** 2
                                / expected))
            ks = stats.kstest(x, cdf)
            report[t][name] = {"chi2": chi2, "chi2_p": float(chdtrc(n_bins - 1, chi2)),
                               "ks": float(ks.statistic), "ks_p": float(ks.pvalue)}
    return report
