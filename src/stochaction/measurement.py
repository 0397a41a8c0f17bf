"""End-to-end measurement pipeline.

A run prepares the product state (system superposition x pointer packet),
lets the joint wavefunction evolve in closed form while a trajectory of the
definite configuration is integrated underneath it, and reads the outcome off
the pointer position: the packet window that ``q2(t_M)`` landed in names the
recorded eigenvalue.  The wavefunction never collapses during an event; the
replacement of the system state by the correlated eigenfunction between
successive measurements is an explicit bookkeeping step
(:func:`correlated_eigenstate`).

Position and linear-momentum measurements reuse the same pipeline through
:func:`substitute_observable`, with bin centers standing in for the discrete
spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

import numpy as np
from scipy.special import chdtrc

from . import rng as rngmod
from .core import (EPS_NODE_REL, HBAR, DegenerateInputError, FieldErrors, GridSpec,
                   InvalidSystemError, PhysicalConfig, _is_number, field_errors, fork_map,
                   fork_workers, require_count)
from .spectral import (AngularBasis, GaussianPacket, LineModes, PlaneWaveModes,
                       SpectralState, evolve_measurement_spectral, normalized, occupied)
from .stochastic import StochasticParams, sample_sign_path
from .trajectories import (_MODE_ROWS, EnsembleSpec, ModeFlow, PointerReadoutFlow,
                           RingSampler, _ring_peak_bound, _ring_plan, _ring_rows, _ring_sum,
                           check_snapshot_steps, integrate_ensemble)

# trials whose initial draws are decided at once, which bounds the
# (trials x round) temporaries
_DRAW_BLOCK = 256
# share of the state's norm a binned readout's window must cover
_COVERAGE_MIN = 0.999
# the fewest trials of a run, and of prior draws (a standard deviation needs two)
N_TRIALS_MIN, N_MC_MIN = 1, 2


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_scalar(value) -> str:
    """``value`` (None, a bool, an int or a float) as ``json.dumps`` writes it."""
    if value is None or value is True or value is False:
        return _JSON_WORDS[value]
    if isinstance(value, float):
        return ("NaN" if value != value else "Infinity" if value == np.inf
                else "-Infinity" if value == -np.inf else float.__repr__(value))
    return int.__repr__(value)


@dataclass(frozen=True)
class MeasurementRecord:
    """One trial: initial configuration, pointer landing, inferred outcome."""

    outcome_index: int | None
    omega: float | None
    q2_initial: float
    q2_final: float
    theta_initial: float
    lambda_sign0: int
    trial: int
    ambiguous: bool = False
    overflow: bool = False

    # every written field, in the order of to_dict()
    _KEYS = ("trial", "outcome_index", "omega", "q2_initial", "q2_final", "theta_initial",
             "lambda_sign0", "ambiguous", "overflow")
    # json.dumps(sort_keys=True)'s key order and separators, a slot per value
    _LINE = "{" + ", ".join(f'"{key}": %s' for key in sorted(_KEYS)) + "}\n"
    _line_values = attrgetter(*sorted(_KEYS))

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self._KEYS}

    def json_line(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True) + "\\n"``, without an encoder."""
        # a finite float, the common value, goes straight to float.__repr__
        return self._LINE % tuple([float.__repr__(v) if type(v) is float and v - v == 0.0
                                   else _json_scalar(v) for v in self._line_values(self)])


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Outcome frequencies against the squared coefficients."""

    indices: np.ndarray          # support mode identifiers
    omegas: np.ndarray
    reference: np.ndarray        # |c|^2 per support mode
    counts: np.ndarray
    n_trials: int
    n_ambiguous: int
    n_overflow: int

    @property
    def n_used(self) -> int:
        return self.n_trials - self.n_ambiguous - self.n_overflow

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / max(self.n_used, 1)

    @property
    def standard_errors(self) -> np.ndarray:
        # a one-mode reference |c|^2 can round to 1 + 4.4e-16 (numpy's complex abs is a hypot)
        p = np.clip(self.reference, 0.0, 1.0)
        return np.sqrt(p * (1.0 - p) / max(self.n_used, 1))

    @property
    def chi2(self) -> float:
        occupied = self.reference > 0
        if np.any(self.counts[~occupied] > 0):
            return float("inf")   # landed in a category of reference weight zero
        # no recorded outcome: zero frequencies, as in ``frequencies``, give sum(p)
        expected = self.reference[occupied] * max(self.n_used, 1)
        return float(np.sum((self.counts[occupied] - expected) ** 2 / expected))

    @property
    def chi2_p(self) -> float:
        df = int(np.count_nonzero(self.reference > 0)) - 1
        return float(chdtrc(max(df, 1), self.chi2))

    @property
    def ambiguous_rate(self) -> float:
        return self.n_ambiguous / self.n_trials

    def mean_omega(self) -> tuple[float, float]:
        """Ensemble mean of recorded eigenvalues with its standard error."""
        w = self.frequencies
        mean = float(np.sum(w * self.omegas))
        var = float(np.sum(w * (self.omegas - mean) ** 2))
        return mean, np.sqrt(var / max(self.n_used, 1))

    def to_dict(self) -> dict:
        mean, se = self.mean_omega()
        return {
            "indices": [int(i) for i in self.indices],
            "omegas": [float(w) for w in self.omegas],
            "reference": [float(p) for p in self.reference],
            "counts": [int(c) for c in self.counts],
            "frequencies": [float(f) for f in self.frequencies],
            "standard_errors": [float(s) for s in self.standard_errors],
            "chi2": self.chi2,
            "chi2_p": self.chi2_p,
            "n_trials": self.n_trials,
            "n_ambiguous": self.n_ambiguous,
            "n_overflow": self.n_overflow,
            "mean_omega": mean,
            "mean_omega_se": se,
        }


@dataclass(frozen=True, eq=False)
class MeasurementPipeline:
    """Prepared state, velocity rule and outcome readout for one observable.

    Discrete spectra leave ``outcome_edges`` None: the landing must fall in
    the unique packet window ``sep_factor * sigma / 2`` around one center.
    Binned continuous spectra give the bin edges: the pointer shift is mapped
    back through the classical relation and binned by them.  A position
    state (:class:`LineModes`) moves under :class:`PointerReadoutFlow`, every
    other state under :class:`ModeFlow`.
    """

    state0: SpectralState
    outcome_indices: np.ndarray  # category labels (mode numbers or bin indices)
    outcome_values: np.ndarray   # recorded eigenvalue per category
    outcome_reference: np.ndarray  # squared-coefficient weight per category
    outcome_edges: np.ndarray | None = None  # bin edges, observable units


def _outside_ring(modes, l_max: int) -> str | None:
    """Why the mode numbers ``modes`` are not all in the ring basis ``|l| <= l_max``."""
    outside = [l for l in modes if not (abs(l) <= l_max and l == int(l))]
    return f"mode {outside[0]} outside basis range |l| <= {l_max}" if outside else None


def _coefficient_vector(coeffs, basis: AngularBasis) -> np.ndarray:
    """Normalized amplitudes over ``basis.modes`` from a {mode number: amplitude}
    mapping or a full complex vector."""
    if isinstance(coeffs, dict):
        if outside := _outside_ring(coeffs, basis.l_max):
            raise InvalidSystemError(outside)
        vec = np.zeros(len(basis.modes), dtype=complex)
        for l, c in coeffs.items():
            vec[int(l) + basis.l_max] = c
        coeffs = vec
    return normalized(coeffs)


def prepare_initial_state(coeffs, packet: GaussianPacket, config: PhysicalConfig,
                          grid: GridSpec, basis: AngularBasis | None = None,
                          enforce_separation: bool = True) -> SpectralState:
    """Product preparation at t = 0 with every packet center at the packet origin.

    ``coeffs`` is either a mapping {mode number: amplitude} or a full complex
    vector over the basis modes.  Amplitudes must already be normalized; the
    packet-separation invariant is checked against the occupied spectrum
    unless explicitly disabled for diagnostics.
    """
    basis = basis or AngularBasis()
    vec = _coefficient_vector(coeffs, basis)
    if enforce_separation:
        config.check_separation(basis.omegas[occupied(vec)])
    centers = np.full(len(vec), packet.center)
    return SpectralState(coeffs=vec, modes=basis, packet=packet, centers=centers,
                         t=0.0, grid=grid)


@dataclass(frozen=True)
class StateSpec:
    """The ``state`` section: ``c_l = sqrt(w_l / sum w) exp(i phase_l)`` over the
    listed modes on the ring basis ``|l| <= l_max``, and the packets' start.
    Construction raises :class:`FieldErrors` naming each field that breaks a rule."""

    modes: list = field(default_factory=lambda: [-1, 0, 1])
    weights: list = field(default_factory=lambda: [0.5, 0.3, 0.2])
    phases: list | None = None
    l_max: int = 8
    packet_center: float = 0.0

    def __post_init__(self):
        modes, weights, phases = self.modes, self.weights, self.phases
        errors = [(key, "every entry must be a number") for key, entries in
                  (("modes", modes), ("weights", weights), ("phases", phases or []))
                  if not all(map(_is_number, entries))]
        if not errors:
            with np.errstate(over="ignore"):
                total = np.sum(weights, dtype=float)
            outside = _outside_ring(modes, self.l_max)
            # the first broken rule only: each presumes the ones before it
            errors += [(key, message) for key, message, ok in (
                ("modes", "every entry must be an integer",
                 all(float(m).is_integer() for m in modes)),
                ("modes", "must be distinct", len(set(modes)) == len(modes)),
                ("weights", "must match the modes in length", len(weights) == len(modes)),
                ("phases", "must match the modes in length",
                 phases is None or len(phases) == len(modes)),
                ("weights", "must be non-negative with a positive, finite total",
                 min(weights, default=0) >= 0 and 0 < total < np.inf),
                ("modes", outside, outside is None)) if not ok][:1]
        errors += field_errors(self.basis)
        if errors:
            raise FieldErrors(errors)

    def basis(self) -> AngularBasis:
        return AngularBasis(self.l_max)

    def coefficients(self) -> dict[int, complex]:
        weights = np.asarray(self.weights, dtype=float)
        weights = weights / weights.sum()
        phases = self.phases or [0.0] * len(weights)
        return {int(m): np.sqrt(w) * np.exp(1j * float(ph))
                for m, w, ph in zip(self.modes, weights, phases)}

    def prepare(self, config: PhysicalConfig, grid: GridSpec,
                enforce_separation: bool = True) -> SpectralState:
        return prepare_initial_state(self.coefficients(),
                                     GaussianPacket(self.packet_center, config.sigma),
                                     config, grid, self.basis(), enforce_separation)


def _resolve_pipeline(prepared) -> MeasurementPipeline:
    if isinstance(prepared, MeasurementPipeline):
        return prepared
    state = prepared
    sup = state.support_indices()
    if isinstance(state.modes, AngularBasis):
        labels = state.modes.modes[sup]
    else:
        labels = sup
    return MeasurementPipeline(
        state0=state, outcome_indices=np.asarray(labels), outcome_values=state.omegas[sup],
        outcome_reference=np.abs(state.coeffs[sup]) ** 2)


def _readout(pipe: MeasurementPipeline, q2: np.ndarray, config: PhysicalConfig) -> np.ndarray:
    """Category of each pointer landing ``q2`` at t_M, or -1 where none is named."""
    state0 = pipe.state0
    if pipe.outcome_edges is None:
        state_M = evolve_measurement_spectral(state0, config.t_M, config.g)
        centers = state_M.centers[state_M.support_indices()]
        inside = np.abs(q2[:, None] - centers) < config.sep_factor * config.sigma / 2.0
        return np.where(inside.sum(axis=1) == 1, inside.argmax(axis=1), -1)
    edges = pipe.outcome_edges
    value = (q2 - state0.packet.center) / (config.g * config.t_M)
    inside = (value >= edges[0]) & (value < edges[-1])
    return np.where(inside, np.searchsorted(edges, value, side="right") - 1, -1)


def _sample_line(density: np.ndarray, points: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF map of uniforms ``u`` onto a 1-D tabulated density (piecewise constant cells)."""
    h = points[1] - points[0]
    masses = density * h
    cdf = np.cumsum(masses)
    u = u * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(points) - 1)
    prev = np.where(idx > 0, cdf[idx - 1], 0.0)
    frac = np.clip((u - prev) / np.maximum(masses[idx], 1e-300), 0.0, 1.0)
    return points[idx] + (frac - 0.5) * h


def _initial_draws(state0: SpectralState, seed: int, trials: np.ndarray,
                   gen: np.random.Generator, stoch: StochasticParams | None,
                   n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial draws from |Psi(0)|^2 and of the hidden sign, one visit per trial.

    ``gen`` is re-keyed to each trial's ``INITIAL`` stream, which gives the
    uniforms of the system coordinate and then one pointer normal, then to
    its ``SIGNS`` stream, which gives the ``(n, n_steps)`` int8 sign paths
    under ``stoch``, or the ``(n, 1)`` first signs of effective runs
    (``stoch`` None).  On the ring the uniforms are the trial's first
    :class:`RingSampler` round (``2 round_size(1)`` uniforms), on a line
    one uniform for the inverse CDF of the tabulated density.  The uniforms
    are mapped, and the ring rounds decided, ``_DRAW_BLOCK`` trials at a
    time; a trial whose first round accepts nothing is re-keyed and drawn
    by the sampler's rounds, which repeat that round and go on.  A trial's
    draws depend on its streams alone, so no chunking can change them.
    """
    if isinstance(state0.modes, AngularBasis):
        sup = state0.support_indices()
        sampler = RingSampler(state0.coeffs[sup], state0.modes.modes[sup])
        width = 2 * sampler.round_size(1)
    else:
        xg = state0.modes.x_grid
        table = (state0.modes.values(xg) if isinstance(state0.modes, PlaneWaveModes)
                 else state0.modes.table)
        dens = np.abs(np.tensordot(state0.coeffs, table, axes=1)) ** 2
        sampler, width = None, 1
    out = np.empty((len(trials), 2))
    signs = np.empty((len(trials), 1 if stoch is None else n_steps), dtype=np.int8)
    raw = np.empty((min(len(trials), _DRAW_BLOCK), width))
    center, sigma = state0.centers[0], state0.packet.sigma
    for start in range(0, len(trials), _DRAW_BLOCK):
        block = trials[start:start + _DRAW_BLOCK].tolist()
        rows, u = out[start:start + len(block)], raw[:len(block)]
        for k, trial in enumerate(block):
            rngmod.rekey(gen, seed, rngmod.INITIAL, trial)
            gen.random(out=u[k])
            rows[k, 1] = gen.normal(center, sigma)
            rngmod.rekey(gen, seed, rngmod.SIGNS, trial)
            signs[start + k] = (gen.integers(0, 2) * 2 - 1 if stoch is None
                                else sample_sign_path(stoch, n_steps, gen))
        if sampler is None:
            rows[:, 0] = _sample_line(dens, xg, u[:, 0])
            continue
        theta, ok = sampler.accept(u)
        rows[:, 0] = theta[np.arange(len(block)), ok.argmax(axis=1)]
        for k in np.flatnonzero(~ok.any(axis=1)):
            rngmod.rekey(gen, seed, rngmod.INITIAL, block[k])
            rows[k, 0] = sampler(1, gen)[0]
            rows[k, 1] = gen.normal(center, sigma)
    return out, signs


def _chunk_rows(n_trials: int, threads: int, n_modes: int) -> int:
    """Trials per ensemble chunk for a flow that evaluates ``n_modes`` mode rows.

    At most ``min(ceil(n_trials / threads), max(1, _MODE_ROWS // n_modes))``,
    so every worker gets a chunk and no chunk outgrows the budget; the trials
    are then spread evenly over the chunks that cap makes, so no short tail
    chunk pays for a full run of steps.
    """
    cap = min(-(-n_trials // max(threads, 1)), max(1, _MODE_ROWS // n_modes))
    n_chunks = -(-n_trials // cap)
    return -(-n_trials // n_chunks)


def _run_chunk(pipe: MeasurementPipeline, flow: ModeFlow | PointerReadoutFlow,
               config: PhysicalConfig, spec: EnsembleSpec, seed: int, trials: np.ndarray,
               n_steps: int, stoch: StochasticParams | None,
               snapshot_steps: tuple[int, ...]) -> dict:
    """Integrate one chunk under the shared, read-only ``flow``; ``stoch`` is None
    in effective runs.

    Returns ``integrate_ensemble``'s dict plus ``initial_configs``, each
    trial's first sign ``signs0`` and ``snapshot_signs``, the sign it holds at
    each of ``snapshot_steps`` (ones in effective runs).
    """
    state0 = pipe.state0
    # one generator per chunk, re-keyed to every per-trial stream it draws from;
    # an effective run still carries the hidden sign at t = 0, its one column
    q0, signs = _initial_draws(state0, seed, trials, rngmod.stream(seed), stoch, n_steps)
    paths = None if stoch is None else signs
    held = (np.ones((len(trials), len(snapshot_steps)), dtype=np.int8) if stoch is None
            else signs[:, [min(s, n_steps - 1) for s in snapshot_steps]])
    result = integrate_ensemble(
        flow, q0, spec, t0=state0.t, duration=config.t_M, sign_paths=paths,
        lambda_mag=config.lambda_mag, q2_bounds=(state0.grid.q2_min, state0.grid.q2_max),
        snapshot_steps=snapshot_steps)
    return dict(result, initial_configs=q0, signs0=signs[:, 0], snapshot_signs=held)


def run_ensemble(prepared, config: PhysicalConfig, spec: EnsembleSpec, trials: int | range,
                 seed: int, stoch: StochasticParams | None = None, threads: int = 1,
                 snapshot_steps: tuple[int, ...] = ()):
    """Seeded batch of measurement events: the ``trials`` of the seed's ensemble,
    a count n (trials 0..n-1) or a non-empty range of indices in
    [0, ``rng.INDEX_MAX``]; one event is a one-trial range.

    A trial's event depends on ``(seed, trial)`` alone.  Returns ``(records,
    stats, extras)``; extras carries trajectory snapshots for equivariance
    diagnostics.  ``stoch`` makes the run actual-velocity.  Trials are
    integrated in chunks (:func:`_chunk_rows`) on up to ``threads``
    :func:`~stochaction.core.fork_workers` forked worker processes, with the
    same results at any chunking and worker count; each worker inherits the
    flow through the fork and is sent only the index of its chunk.  The
    state's packet width must be ``config.sigma`` (InvalidSystemError).
    """
    if not isinstance(trials, range):
        require_count("n_trials", trials, N_TRIALS_MIN)
        trials = range(trials)
    elif not (trials and min(trials[0], trials[-1]) >= 0):
        raise ValueError(f"trials {trials!r} names no trial or a negative one")
    if max(trials[0], trials[-1]) > rngmod.INDEX_MAX:
        raise ValueError(f"trials {trials!r} go past the largest trial index "
                         f"{rngmod.INDEX_MAX}")
    pipe, trials = _resolve_pipeline(prepared), np.asarray(trials)
    state0 = pipe.state0
    # the separation check, readout windows and osmotic term read the config's scales
    if state0.packet.sigma != config.sigma:
        raise InvalidSystemError(f"state packet sigma {state0.packet.sigma!r} is not the "
                                 f"config's sigma {config.sigma!r}")
    if stoch is not None:
        spec.validate_against(stoch)
    n_steps = spec.n_steps(config.t_M)
    check_snapshot_steps(snapshot_steps, n_steps)
    # no packet center may drift off the pointer grid; checked before any work
    evolve_measurement_spectral(state0, config.t_M, config.g)

    if isinstance(state0.modes, LineModes):
        flow, n_modes = PointerReadoutFlow(config.g), 1
    else:
        flow = ModeFlow(state0, config.g)
        n_modes = len(flow.coeffs)
    # workers that cannot start (beyond the CPU count or without fork) would
    # only cut the rows finer
    workers = fork_workers(threads, len(trials))
    rows = _chunk_rows(len(trials), workers, n_modes)
    chunks = [trials[k:k + rows] for k in range(0, len(trials), rows)]
    work = partial(_run_chunk, pipe, flow, config, spec, seed, n_steps=n_steps, stoch=stoch,
                   snapshot_steps=snapshot_steps)
    parts = fork_map(lambda i: work(chunks[i]), len(chunks), workers)
    run = {key: np.concatenate([p[key] for p in parts])
           for key in ("configs", "overflow", "node_clamped", "decided_at",
                       "initial_configs", "signs0", "snapshot_signs")}
    snaps = {s: np.concatenate([p["snapshots"][s] for p in parts]) for s in snapshot_steps}

    q0, final, overflow = run["initial_configs"], run["configs"], run["overflow"]
    hit = np.where(overflow, -1, _readout(pipe, final[:, 1], config))
    ambiguous = (hit < 0) & ~overflow
    # Python scalars from .tolist() columns: the same JSON as numpy's, built faster
    indices, values = (np.asarray(a).tolist() for a in (pipe.outcome_indices,
                                                         pipe.outcome_values))
    columns = (hit, q0[:, 1], final[:, 1], q0[:, 0], run["signs0"], trials, ambiguous, overflow)
    records = [MeasurementRecord(None if h < 0 else indices[h], None if h < 0 else values[h],
                                 *row, ambiguous=amb, overflow=over)
               for h, *row, amb, over in zip(*(c.tolist() for c in columns))]
    stats = EnsembleStats(
        indices=np.asarray(pipe.outcome_indices), omegas=np.asarray(pipe.outcome_values),
        reference=np.asarray(pipe.outcome_reference),
        counts=np.bincount(hit[hit >= 0], minlength=len(pipe.outcome_indices)),
        n_trials=len(trials), n_ambiguous=int(ambiguous.sum()),
        n_overflow=int(overflow.sum()))
    extras = {"snapshots": {s * spec.dt_traj + state0.t: snaps[s] for s in snaps},
              "node_clamped": run["node_clamped"],
              "node_held_steps": sum(p["node_held_steps"] for p in parts),
              "decided_at": run["decided_at"],
              "final_configs": final, "initial_configs": q0,
              "snapshot_signs": run["snapshot_signs"],
              "chunks": len(chunks), "chunk_rows": rows,
              "workers": min(workers, len(chunks))}
    return records, stats, extras


# ---------------------------------------------------------------------------
# observable values before and after a measurement
# ---------------------------------------------------------------------------

def actual_observable_prior(coeffs: np.ndarray, basis: AngularBasis, theta, lambda_signed):
    """Configuration-valued observable of the ring state ``coeffs`` at ``theta``.

    The phase gradient plus the osmotic term signed by ``lambda_signed`` (a
    scalar or one per point), over the occupied modes; raises
    :class:`DegenerateInputError` at a node.  Before a measurement it varies
    with theta, unlike the recorded outcomes; after one, the correlated
    eigenfunction at ``lambda_signed = 0`` gives its eigenvalue everywhere.
    """
    c = np.asarray(coeffs, dtype=complex)
    support = occupied(c)
    c, l = c[support], basis.modes[support]
    th = np.asarray(theta, dtype=float)
    rows = dict(_ring_rows(_ring_plan(l), th.reshape(-1)))
    phi = _ring_sum(c, rows, th.size).reshape(th.shape)
    dphi = _ring_sum(c * (1j * l), rows, th.size).reshape(th.shape)
    dens = np.abs(phi) ** 2
    if np.any(dens < EPS_NODE_REL * _ring_peak_bound(c)):
        raise DegenerateInputError("observable evaluated at a node of the wavefunction")
    core = np.conj(phi) * dphi
    return HBAR * np.imag(core) / dens + lambda_signed * np.real(core) / dens


def average_prior(coeffs, basis: AngularBasis, n_mc: int, seed: int,
                  lambda_mag: float = 1.0) -> dict:
    """Monte Carlo average of the prior observable over configuration and sign.

    ``coeffs`` is a {mode number: amplitude} mapping or a full vector, as
    for :func:`prepare_initial_state`.  Draws theta from the system density
    and the hidden sign fairly, then compares with the closed-form
    expectation sum(omega_l |c_l|^2), which holds for normalized amplitudes
    only.  ``n_mc`` must be at least ``N_MC_MIN``, for the standard error.
    """
    require_count("n_mc", n_mc, N_MC_MIN)
    c = _coefficient_vector(coeffs, basis)
    support = occupied(c)
    r = rngmod.stream(seed, rngmod.PRIOR, 0)
    theta = RingSampler(c[support], basis.modes[support])(n_mc, r)
    signs = r.integers(0, 2, size=n_mc) * 2 - 1
    samples = actual_observable_prior(c, basis, theta, lambda_mag * signs)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(n_mc))
    analytic = float(np.sum(basis.omegas * np.abs(c) ** 2))
    return {"mean": mean, "se": se, "analytic": analytic, "n": n_mc}


def correlated_eigenstate(state0: SpectralState, outcome_index: int | None,
                          config: PhysicalConfig) -> SpectralState:
    """Eigenstate of ``outcome_index`` under ``state0``'s pointer packet, at t = 0.

    The bookkeeping step between measurements: the system wavefunction is
    replaced by the eigenfunction correlated with the recorded outcome and a
    fresh pointer packet is attached, after which a repeat is an ordinary
    event of :func:`run_ensemble` that must reproduce the outcome.  A flagged
    event (``outcome_index`` None) names no eigenstate (ValueError).
    """
    if outcome_index is None:
        raise ValueError("a flagged measurement names no eigenstate to repeat")
    if not isinstance(state0.modes, AngularBasis):
        raise NotImplementedError("repetition protocol is defined for the ring system")
    return prepare_initial_state({outcome_index: 1.0}, state0.packet, config,
                                 state0.grid, state0.modes)


# ---------------------------------------------------------------------------
# substituted observables: position and linear momentum
# ---------------------------------------------------------------------------

def substitute_observable(kind: str, system_psi: np.ndarray, x_grid: np.ndarray,
                          window: tuple[float, float], n_bins: int,
                          config: PhysicalConfig, grid: GridSpec,
                          packet_center: float = 0.0) -> MeasurementPipeline:
    """Rebuild the pipeline for a continuous-spectrum observable.

    The readout is discretized into ``n_bins`` bins across ``window`` and the
    recorded value is the bin center of the inverted pointer shift.  The
    underlying dynamics stays exact: for ``kind="position"`` the pointer
    follows the exact characteristics of the coupling (the system coordinate
    is conserved), and for ``kind="linear_momentum"`` the spectral state is
    expanded over the discrete plane waves of the sampling box, which are
    true eigenfunctions, one drifting packet each.  Discreteness therefore
    enters only through the binned reading, as it should for a continuous
    spectrum.  The window must hold 0.999 of the state's norm.
    """
    if kind == "angular_momentum":
        raise ValueError("use prepare_initial_state for the angular-momentum pipeline")
    if kind not in ("position", "linear_momentum"):
        raise ValueError(f"unknown observable kind {kind!r}")
    psi = np.asarray(system_psi, dtype=complex)
    x = np.asarray(x_grid, dtype=float)
    h = x[1] - x[0]
    total = float(np.sum(np.abs(psi) ** 2) * h)
    if not abs(total - 1.0) <= 1e-8:
        raise DegenerateInputError(f"system state is not normalized: {total!r}")
    lo, hi = window
    # written so that a NaN fails it
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"observable window {window!r} is not a finite lo < hi")
    require_count("n_bins", n_bins, 1)
    edges = np.linspace(lo, hi, n_bins + 1)
    bin_centers = 0.5 * (edges[:-1] + edges[1:])
    config.check_separation(bin_centers)  # bins must be pointer-resolvable
    packet = GaussianPacket(packet_center, config.sigma)

    if kind == "position":
        table = np.zeros((n_bins, len(x)), dtype=complex)
        weights = np.zeros(n_bins)
        for b in range(n_bins):
            mask = (x >= edges[b]) & (x < edges[b + 1])
            weights[b] = w = float(np.sum(np.abs(psi[mask]) ** 2) * h)
            if w > 0:
                table[b, mask] = psi[mask] / np.sqrt(w)
    else:
        spect = np.fft.fft(psi)
        p_axis = 2.0 * np.pi * np.fft.fftfreq(len(x), d=h)
        box = h * len(x)
        # coefficients of the orthonormal box plane waves exp(i p x) / sqrt(L)
        c_all = np.exp(-1j * p_axis * x[0]) * spect * h / np.sqrt(box)
        w_all = np.abs(c_all) ** 2
        order = np.argsort(p_axis)
        p_sorted, c_sorted, w_sorted = p_axis[order], c_all[order], w_all[order]
        in_window = (p_sorted >= lo) & (p_sorted < hi)
        weights = np.array([w_sorted[in_window & (p_sorted >= edges[b])
                                     & (p_sorted < edges[b + 1])].sum()
                            for b in range(n_bins)])
    coverage = float(weights.sum())
    if coverage < _COVERAGE_MIN:
        raise InvalidSystemError(
            f"observable window covers only {coverage:.4f} of the state "
            f"(needs {_COVERAGE_MIN}); widen the window")
    # the outcome reference is the state's distribution over the window's bins
    weights /= coverage

    if kind == "position":
        modes, coeffs = LineModes(x, table, bin_centers), np.sqrt(weights).astype(complex)
    else:
        keep = in_window & (w_sorted > 1e-12 * w_sorted.max())
        kept_cov = float(w_sorted[keep].sum())
        # carry a contiguous momentum range so the mode table stays equally spaced
        kept_idx = np.flatnonzero(keep)
        k0, k1 = int(kept_idx[0]), int(kept_idx[-1])
        modes = PlaneWaveModes(p_sorted[k0:k1 + 1], box, x)
        coeffs = np.zeros(k1 + 1 - k0, dtype=complex)
        coeffs[kept_idx - k0] = c_sorted[keep] / np.sqrt(kept_cov)
    state0 = SpectralState(coeffs=coeffs, modes=modes, packet=packet,
                           centers=np.full(len(coeffs), packet_center), t=0.0, grid=grid)

    return MeasurementPipeline(
        state0=state0, outcome_indices=np.arange(n_bins), outcome_values=bin_centers,
        outcome_reference=weights, outcome_edges=edges)
