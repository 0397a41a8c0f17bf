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

from .core import EPS_NODE_REL, DegenerateInputError
from .spectral import (AngularBasis, PlaneWaveModes, SpectralState,
                       evolve_measurement_spectral, system_marginal_density)

TWO_PI = 2.0 * np.pi
# A decided row's neglected packets sit below DECIDE_EPS of its own amplitude
# (rounding level); live rows are tested every DECIDE_EVERY steps.
DECIDE_EPS = 2.0 ** -53
DECIDE_EVERY = 10


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
        """Integration steps may not outpace the sign-block scale (actual-velocity runs)."""
        if self.dt_traj > stoch.tau_xi / stoch.hierarchy_factor + 1e-15:
            raise ValueError(
                f"dt_traj = {self.dt_traj} exceeds tau_xi / hierarchy_factor "
                f"= {stoch.tau_xi / stoch.hierarchy_factor}")


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


class ModeFlow:
    """Closed-form velocity fields of a spectral state.

    The coupling swaps the gradient axes: the system coordinate moves with
    the pointer-gradient of the phase and the pointer with the
    system-gradient, each scaled by g.  Only occupied modes enter the sums;
    ring eigenfunctions come from a single unit phase through an integer
    power chain, which is what keeps large ensembles cheap.  Each mode row
    goes straight from the chain into its term, and every product with a
    per-mode constant is taken row by row with a scalar operand: no
    ``(K, n)`` mode table is written, and numpy's slower broadcast loop for
    a ``(K, 1)`` factor is never taken.  The operations and their order are
    those of the broadcast form, so the bits are too.

    Ring (:class:`AngularBasis`) and plane-wave states only: a position
    state moves under :class:`PointerReadoutFlow`.
    """

    def __init__(self, state: SpectralState, g: float):
        self.ring = isinstance(state.modes, AngularBasis)
        if not (self.ring or isinstance(state.modes, PlaneWaveModes)):
            raise TypeError(f"ModeFlow takes ring or plane-wave states, not "
                            f"{type(state.modes).__name__}; position states move "
                            "under PointerReadoutFlow")
        self.g = g
        self.sigma = state.packet.sigma
        self.t0 = state.t
        self.modes = state.modes
        # the plane-wave power chain needs the full equally spaced ladder, so
        # zero-weight interior modes must stay in place there
        sup = state.support_indices() if self.ring else np.arange(len(state.coeffs))
        self.coeffs = state.coeffs[sup]
        self.omegas = state.omegas[sup]
        self.centers0 = state.centers[sup]
        if self.ring:
            self._l = state.modes.modes[sup].astype(int)
            self._l_abs_max = int(np.max(np.abs(self._l))) if len(self._l) else 0
            scale = 1.0 / np.sqrt(TWO_PI)
            self._dfactor = 1j * self._l
        else:
            self._p = state.modes.momenta[sup]
            self._box_scale = scale = 1.0 / np.sqrt(state.modes.box_length)
            self._dfactor = 1j * self._p
        self._pack_norm = (TWO_PI * self.sigma**2) ** -0.25
        self._two_var = 2.0 * self.sigma**2
        # c'_k = c_k * mode scale * packet norm, and the packet exponent's factor
        self._packet_coeffs = self.coeffs * (scale * self._pack_norm)
        self._gauss_rate = -0.5 / self._two_var
        self.ref_peak = self._reference_peak()
        # |u_l| is the same for every ring or plane-wave mode, so a row can be
        # decided from the packets alone (zero-weight plane waves do not count)
        occ = np.flatnonzero(self.coeffs != 0)
        self._occ_log_amp = np.log(np.abs(self.coeffs[occ]))
        self._occ_omegas = self.omegas[occ]
        self._occ_centers0 = self.centers0[occ]

    def _reference_peak(self) -> float:
        if self.ring:
            th = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        else:
            th = self.modes.x_grid
        u = np.empty((len(self.coeffs),) + th.shape, dtype=complex)
        for k, row in enumerate(self._mode_rows(th)):
            u[k] = 1.0 if row is None else row
        peak = np.abs(np.tensordot(self._packet_coeffs, u, axes=1)) ** 2
        return float(peak.max())

    def centers(self, t: float) -> np.ndarray:
        return self.centers0 + self.g * self.omegas * (t - self.t0)

    def _mode_rows(self, x: np.ndarray):
        """Each occupied mode row ``exp(i l_k x)`` or ``exp(i p_k x)`` in k order.

        ``None`` stands for the row of ones (``l = 0``).  A plane-wave row is
        the running product of the chain, valid only until the next is drawn.
        """
        if self.ring:
            # powers of exp(i x) cover every occupied mode; conjugates give l < 0
            z = _unit_phase(x)
            powers = [None, z]
            for _ in range(1, self._l_abs_max):
                powers.append(powers[-1] * z)
            for l in self._l:
                yield powers[l] if l >= 0 else np.conjugate(powers[-l])
        else:
            # equally spaced momenta: one phase for the base, one per step of the chain
            p = self._p
            u = _unit_phase(p[0] * x)
            yield u
            if len(p) > 1:
                step = _unit_phase((p[1] - p[0]) * x)
                for _ in range(1, len(p)):
                    np.multiply(u, step, out=u)
                    yield u

    def _packets(self, x: np.ndarray, q2: np.ndarray, t: float):
        """Each mode's term ``b_k = c'_k G_k(q2) u_k(x)`` of Psi, and ``mu_k - q2``.

        ``G_k(q2) = exp(-(mu_k - q2)^2 / (4 sigma^2))``; its norm sits in ``c'_k``.
        """
        shape = (-1,) + (1,) * q2.ndim
        mshift = self.centers(t).reshape(shape) - q2
        gauss = mshift * mshift
        gauss *= self._gauss_rate
        np.exp(gauss, out=gauss)
        b = np.empty(gauss.shape, dtype=complex)
        for k, row in enumerate(self._mode_rows(x)):
            np.multiply(self._packet_coeffs[k], gauss[k], out=b[k])
            if row is not None:
                np.multiply(row, b[k], out=b[k])
        return b, mshift

    def _terms(self, x: np.ndarray, q2: np.ndarray, t: float):
        """Psi, its two gradients and the density at arbitrary points.

        ``dPsi/dx = sum (i l_k) b_k`` and ``dPsi/dq2 = sum (mu_k - q2) / (2 sigma^2) b_k``,
        each summed in k order as ``np.add.reduce`` sums over the mode axis.
        """
        b, mshift = self._packets(x, q2, t)
        psi = np.add.reduce(b, axis=0)
        dpsi_x = self._dfactor[0] * b[0]
        term = np.empty_like(dpsi_x)
        for k in range(1, len(b)):
            np.multiply(self._dfactor[k], b[k], out=term)
            dpsi_x += term
        mshift /= self._two_var
        b *= mshift
        dpsi_q = np.add.reduce(b, axis=0)
        return psi, dpsi_x, dpsi_q, np.abs(psi) ** 2

    def density(self, points: np.ndarray, t: float) -> np.ndarray:
        b, _ = self._packets(points[..., 0], points[..., 1], t)
        return np.abs(np.add.reduce(b, axis=0)) ** 2

    def _velocity(self, points: np.ndarray, t: float, lam, with_density: bool):
        """Phase-gradient field, plus the osmotic term scaled by ``lam`` unless it is None."""
        psi, dpsi_x, dpsi_q, dens = self._terms(points[..., 0], points[..., 1], t)
        safe = np.maximum(dens, 1e-300)
        pc = np.conj(psi)
        v = np.empty(psi.shape + (2,))
        for j, dpsi in enumerate((dpsi_q, dpsi_x)):
            np.multiply(pc, dpsi, out=dpsi)
            np.divide(dpsi.imag, safe, out=v[..., j])
            if lam is not None:
                osmotic = dpsi.real / safe
                osmotic *= lam
                v[..., j] += osmotic
        v *= self.g
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
        occ_speed = self.g * self._occ_omegas
        d = q2[None, :] - (self._occ_centers0 + occ_speed * (t - self.t0))[:, None]
        logw = self._occ_log_amp[:, None] - d * d / (2.0 * self._two_var)
        top = np.argmax(logw, axis=0)
        rows = np.arange(len(q2))
        speed = occ_speed[top]
        other_ok = ((logw - logw[top, rows] < np.log(DECIDE_EPS))
                    & (d * (speed[None, :] - occ_speed[:, None]) > 0))
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
        out = np.zeros_like(points)
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


def _ring_envelope(c: np.ndarray) -> float:
    """``(sum |c_k|)^2 / 2 pi``, a bound on the ring density by the triangle inequality."""
    return float(np.abs(c).sum()) ** 2 / TWO_PI


class RingSampler:
    """Exact draws from ``|sum_k c_k exp(i l_k theta)|^2 / 2 pi``: ``sampler(n, rng)``.

    ``c`` holds the occupied coefficients and ``l`` their mode numbers.
    Rejection under the constant envelope :func:`_ring_envelope`, which
    touches the density for in-phase states.  A round for ``n`` draws takes
    ``m = round_size(n)`` uniforms for the angles and then ``m`` for the
    heights, and keeps the accepted angles in draw order.  ``accept`` decides
    rounds from their raw uniforms, so a caller may draw the first rounds of
    many trials and decide them at once; it sums the modes row by row, so
    no BLAS call (and no second BLAS thread) enters a draw.  An envelope
    that is not positive and finite (no occupied mode, or a NaN amplitude)
    would never accept, so it raises before any draw.
    """

    def __init__(self, c: np.ndarray, l: np.ndarray):
        self.c = np.asarray(c, dtype=complex)
        self.il = 1j * np.asarray(l)
        self.bound = _ring_envelope(self.c)
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
        psi = self.c[0] * np.exp(self.il[0] * theta)
        for ck, ilk in zip(self.c[1:], self.il[1:]):
            psi += ck * np.exp(ilk * theta)
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
    """Each array's rows under the mask ``keep``; None (an effective run's scale) stays None."""
    return [None if a is None else a[keep] for a in arrays]


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
    ``EPS_NODE_REL`` of the flow's peak, where the velocity is undefined; the
    row then holds at its start of the step, is flagged in ``node_clamped``
    and gets its first stage evaluated again there.

    Every ``DECIDE_EVERY`` steps, under either velocity, the rows that the
    flow's ``decided`` rule passes leave the working set and finish on their
    pointer line; in actual runs the system coordinate adds its rate times
    ``lambda_mag dt`` times the row's integer sum of sign entries since then.
    """
    n_steps = spec.n_steps(duration)
    check_snapshot_steps(snapshot_steps, n_steps)
    dt = spec.dt_traj
    t_end = t0 + n_steps * dt
    x = np.array(q0, dtype=float)
    n = x.shape[0]
    overflow = np.zeros(n, dtype=bool)
    node_clamped = np.zeros(n, dtype=bool)
    decided_at = np.full(n, np.nan)
    eps_abs = EPS_NODE_REL * flow.ref_peak
    live = np.arange(n)          # rows still integrating, at configs x
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
            if len(live) == 0:
                break
        t_next = t0 + (k + 1) * dt
        prop = _step(flow, x, t, dt, lam, v)
        # after the last step only the landing density is used
        lam_next = (None if sign_paths is None or k + 1 == n_steps
                    else lambda_mag * sign_paths[live, k + 1])
        v_next, landing = _stage_velocity(flow, prop, t_next, lam_next, with_density=True)
        bad = landing < eps_abs
        if np.any(bad):
            prop[bad] = x[bad]
            node_clamped[live[bad]] = True
        newly = (prop[:, 1] < q2_bounds[0]) | (prop[:, 1] > q2_bounds[1])
        if np.any(newly):
            retired.append((live[newly], x[newly], 0.0, 0.0, k))
            overflow[live[newly]] = True
            live, prop, bad, v_next, landing, lam_next = _keep(
                ~newly, live, prop, bad, v_next, landing, lam_next)
        x = prop
        # a held row has no density yet; such rows wait for the next test
        dens = np.where(bad, 0.0, landing)
        if np.any(bad) and k + 1 < n_steps:
            v_next[bad] = _stage_velocity(flow, x[bad], t_next,
                                          None if lam_next is None else lam_next[bad])
        v, lam = v_next, lam_next
        if (k + 1) in snapshot_steps:
            snapshots[k + 1] = _frame(k + 1)

    # every row decided early: the later snapshots are the finished lines
    snapshots.update({s: _frame(s) for s in snapshot_steps if s not in snapshots})
    return {"configs": _frame(n_steps), "overflow": overflow, "node_clamped": node_clamped,
            "decided_at": decided_at, "snapshots": snapshots, "n_steps": n_steps}


# ---------------------------------------------------------------------------
# equivariance diagnostics
# ---------------------------------------------------------------------------

# trapezoid nodes of the theta marginal's CDF table over [0, 2 pi]
N_THETA_QUAD = 8192


def marginal_cdfs(state: SpectralState):
    """CDFs of both marginals of ``|Psi(t)|^2``, over the occupied modes.

    The q2 CDF is closed-form, a weighted sum of Gaussian CDFs; only the
    theta CDF is a quadrature, the trapezoid table of the system marginal
    on ``N_THETA_QUAD`` intervals, interpolated linearly.
    """
    sup = state.support_indices()
    weights = np.abs(state.coeffs[sup]) ** 2
    mus = state.centers[sup]
    sig = state.packet.sigma

    def cdf_q2(q):
        q = np.asarray(q, dtype=float)
        z = (q[..., None] - mus) / (np.sqrt(2.0) * sig)
        return np.sum(weights * 0.5 * (1.0 + erf(z)), axis=-1)

    th = np.linspace(0.0, TWO_PI, N_THETA_QUAD + 1)
    dens_th = system_marginal_density(state, th)
    cdf_th_vals = np.concatenate(([0.0], np.cumsum(0.5 * (dens_th[1:] + dens_th[:-1])
                                                   * np.diff(th))))
    cdf_th_vals /= cdf_th_vals[-1]

    def cdf_theta(x):
        return np.interp(np.mod(np.asarray(x, dtype=float), TWO_PI), th, cdf_th_vals)

    return cdf_theta, cdf_q2


def equivariance_report(snapshots: dict[float, np.ndarray], state0: SpectralState,
                        g: float, n_bins: int = 50) -> dict:
    """Binned chi-squared and KS comparisons against the evolved marginals.

    ``snapshots`` maps times to (n, 2) configuration arrays drawn from the
    ensemble.  Each sample goes through its marginal's reference CDF, so
    ``n_bins`` equal bins of [0, 1] are the equal-mass bins (the probability
    integral transform) and every bin has the same expected count; a CDF
    value rounded above 1 counts in the last bin.  The same CDF drives KS.
    """
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
