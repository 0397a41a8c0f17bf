"""Preparation, single events, ensembles, prior/post values, substitution."""
import json
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochaction import (AngularBasis, DegenerateInputError, DomainOverflowError,
                         EnsembleStats, GaussianPacket, GridSpec, InvalidSystemError,
                         PhysicalConfig, StochasticParams, actual_observable_prior,
                         average_prior, prepare_initial_state, repeat_measurement,
                         run_ensemble, run_single_event, substitute_observable)
from stochaction.rng import INITIAL, SIGNS, stream
from stochaction.stochastic import sample_sign_path
from stochaction.trajectories import EnsembleSpec


@pytest.fixture
def grid():
    return GridSpec(-4.0, 4.0)


@pytest.fixture
def basis():
    return AngularBasis(8)


@pytest.fixture
def config():
    return PhysicalConfig(lambda_mag=1.0, g=1.0, t_M=1.0, sigma=0.05, sep_factor=8.0)


@pytest.fixture
def packet():
    return GaussianPacket(0.0, 0.05)


@pytest.fixture
def espec():
    return EnsembleSpec(dt_traj=1e-3)


def fixture_coeffs():
    return {-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)}


class TestPreparation:
    def test_eigenstate(self, grid, basis, config, packet):
        state = prepare_initial_state({0: 1.0}, packet, config, grid, basis)
        assert np.sum(np.abs(state.coeffs) ** 2) == pytest.approx(1.0)
        assert np.all(state.centers == 0.0)

    def test_fixture_accepted(self, grid, basis, config, packet):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        w = np.abs(state.coeffs) ** 2
        assert w[basis.l_max - 1] == pytest.approx(0.5)

    def test_wide_packet_rejected(self, grid, basis, config):
        wide = GaussianPacket(0.0, 0.2)
        bad = PhysicalConfig(g=1.0, t_M=1.0, sigma=0.2, sep_factor=8.0)
        with pytest.raises(InvalidSystemError):
            prepare_initial_state(fixture_coeffs(), wide, bad, grid, basis)

    def test_unnormalized_rejected(self, grid, basis, config, packet):
        with pytest.raises(Exception):
            prepare_initial_state({0: 0.7}, packet, config, grid, basis)

    def test_nan_amplitudes_rejected(self, grid, basis, config, packet):
        # a NaN total fails every comparison; it used to pass and hang the sampler
        with pytest.raises(DegenerateInputError, match="normalized"):
            prepare_initial_state({0: np.nan, 1: np.nan}, packet, config, grid, basis)

    def test_mode_outside_basis_rejected(self, grid, config, packet):
        with pytest.raises(InvalidSystemError):
            prepare_initial_state({9: 1.0}, packet, config, grid, AngularBasis(8))


class TestSingleEvent:
    def test_eigenstate_outcome_deterministic(self, grid, basis, config, packet, espec):
        state = prepare_initial_state({2: 1.0}, packet, config, grid, basis)
        for trial in range(5):
            rec = run_single_event(state, config, espec, seed=9, trial=trial)
            assert rec.outcome_index == 2
            assert rec.omega == pytest.approx(2.0)
            assert rec.q2_final - rec.q2_initial == pytest.approx(2.0, abs=1e-6)

    def test_zero_coupling_every_trial_ambiguous(self, grid, basis, packet, espec):
        free = PhysicalConfig(g=0.0, t_M=1.0, sigma=0.05, sep_factor=8.0)
        state = prepare_initial_state(fixture_coeffs(), packet, free, grid, basis,
                                      enforce_separation=False)
        recs = [run_single_event(state, free, espec, seed=10, trial=t)
                for t in range(8)]
        assert all(r.ambiguous for r in recs)

    def test_no_collapse_during_event(self, grid, basis, config, packet, espec):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        before = state.coeffs.copy()
        run_single_event(state, config, espec, seed=11)
        assert np.array_equal(state.coeffs, before)


class TestEnsemble:
    def test_equal_weight_frequencies(self, grid, basis, config, packet):
        state = prepare_initial_state({-1: np.sqrt(0.5), 1: np.sqrt(0.5)},
                                      packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-3)
        _, stats, _ = run_ensemble(state, config, spec, 2000, seed=12, threads=2)
        se = np.sqrt(0.25 / stats.n_used)
        assert np.all(np.abs(stats.frequencies - 0.5) < 3 * se + 1e-12)

    def test_eigenstate_point_mass(self, grid, basis, config, packet):
        state = prepare_initial_state({1: 1.0}, packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-3)
        _, stats, _ = run_ensemble(state, config, spec, 300, seed=13)
        assert stats.frequencies.tolist() == [1.0]
        assert stats.n_ambiguous == 0

    def test_global_phase_invariance(self, grid, basis, config, packet):
        spec = EnsembleSpec(dt_traj=1e-3)
        base = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        rotated = prepare_initial_state(
            {l: c * np.exp(0.73j) for l, c in fixture_coeffs().items()},
            packet, config, grid, basis)
        _, s1, _ = run_ensemble(base, config, spec, 1500, seed=14)
        _, s2, _ = run_ensemble(rotated, config, spec, 1500, seed=14)
        se = np.sqrt(s1.reference * (1 - s1.reference) / 1500)
        assert np.all(np.abs(s1.frequencies - s2.frequencies) < 3 * np.sqrt(2) * se)

    def test_counts_account_for_all_trials(self, grid, basis, config, packet):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-3)
        _, stats, _ = run_ensemble(state, config, spec, 500, seed=15)
        assert stats.counts.sum() == 500 - stats.n_ambiguous - stats.n_overflow

    def test_packet_drift_checked_before_integrating(self, basis, config, packet,
                                                     monkeypatch):
        import stochaction.measurement as meas
        calls = []
        real = meas.integrate_ensemble
        monkeypatch.setattr(meas, "integrate_ensemble",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        narrow = GridSpec(-1.0, 1.0)   # the l = 3 packet drifts to q2 = 3
        state = prepare_initial_state({3: 1.0}, packet, config, narrow, basis)
        with pytest.raises(DomainOverflowError):
            run_ensemble(state, config, EnsembleSpec(dt_traj=1e-2), 5, seed=27)
        assert calls == []

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_packet_width_other_than_the_configs_raises_before_drawing(
            self, grid, basis, config, espec, monkeypatch, velocity):
        # the separation check and the readout windows would use 0.05, the packets 0.3
        import stochaction.measurement as meas
        calls = []
        real = meas._initial_draws
        monkeypatch.setattr(meas, "_initial_draws",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        state = prepare_initial_state(fixture_coeffs(), GaussianPacket(0.0, 0.3), config,
                                      grid, basis)
        stoch = StochasticParams() if velocity == "actual" else None
        with pytest.raises(InvalidSystemError, match="sigma 0.3 .* sigma 0.05"):
            run_ensemble(state, config, espec, 8, seed=31, stoch=stoch)
        assert calls == []

    @pytest.mark.parametrize("step", [2000, -5, 2.5])
    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_snapshot_step_outside_run_raises_before_drawing(self, grid, basis, config,
                                                              packet, espec, monkeypatch,
                                                              step, velocity):
        # a 1000-step run has snapshots at steps 0 to 1000 only
        import stochaction.measurement as meas
        calls = []
        real = meas._initial_draws
        monkeypatch.setattr(meas, "_initial_draws",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        stoch = StochasticParams() if velocity == "actual" else None
        with pytest.raises(ValueError, match=f"snapshot step {step} .*n_steps = 1000"):
            run_ensemble(state, config, espec, 8, seed=31, stoch=stoch,
                         snapshot_steps=(0, step))
        assert calls == []

    @pytest.mark.parametrize("velocity, n_trials", [("effective", 1500), ("actual", 300)])
    def test_chunking_and_workers_do_not_change_results(self, grid, basis, config, packet,
                                                        monkeypatch, velocity, n_trials):
        import stochaction.measurement as meas
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=5e-3)
        stoch = StochasticParams(tau_xi=0.05) if velocity == "actual" else None
        real_rule = meas._chunk_rows
        runs = []
        # fixed row counts, then the rule's own
        for chunk in (128, 1000, 2048, None):
            monkeypatch.setattr(meas, "_chunk_rows", real_rule if chunk is None
                                else lambda n_trials, threads, n_modes, rows=chunk: rows)
            for threads in (1, 4):
                records, _, extras = run_ensemble(state, config, spec, n_trials, seed=29,
                                                  stoch=stoch, threads=threads)
                runs.append(([r.to_dict() for r in records],
                             extras["final_configs"].tobytes()))
        assert all(run == runs[0] for run in runs[1:])

    def test_workers_capped_at_cpu_count(self, grid, basis, config, packet, monkeypatch):
        # more threads than CPUs would only cut the trials into more, shorter chunks
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=5e-3)
        runs = {threads: run_ensemble(state, config, spec, 64, seed=30, threads=threads)
                for threads in (1, 8)}
        assert multiprocessing.active_children() == []
        assert (runs[8][2]["chunks"], runs[8][2]["workers"]) == (2, 2)
        assert runs[1][2]["workers"] == 1
        assert [r.to_dict() for r in runs[8][0]] == [r.to_dict() for r in runs[1][0]]
        assert runs[8][2]["final_configs"].tobytes() == runs[1][2]["final_configs"].tobytes()

    def test_no_chunks_for_workers_that_cannot_fork(self, grid, basis, config, packet,
                                                   monkeypatch):
        # without a fork start method every chunk runs in this process, so the
        # trials are not cut for workers that never start
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        _, _, extras = run_ensemble(state, config, EnsembleSpec(dt_traj=5e-3), 64, seed=30,
                                    threads=4)
        assert (extras["chunks"], extras["workers"]) == (1, 1)

    @pytest.mark.parametrize("n_modes", [1, 3, 7, 48])
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n_trials", [1, 1500, 4096])
    def test_chunk_rule(self, n_modes, threads, n_trials):
        import stochaction.measurement as meas
        rows = meas._chunk_rows(n_trials, threads, n_modes)
        n_chunks = -(-n_trials // rows)
        assert 1 <= rows <= n_trials
        # within the mode-row budget (a one-row chunk is always allowed) ...
        assert rows * n_modes <= meas._MODE_ROWS or rows == 1
        # ... one chunk per worker at least, and rows spread evenly: the last
        # chunk is short by fewer rows than there are chunks
        assert rows <= -(-n_trials // threads)
        if threads > 1 and n_trials >= 2:
            assert n_chunks >= 2
        assert n_trials - (n_chunks - 1) * rows > rows - n_chunks

    @pytest.mark.parametrize("n_modes, threads, expected", [
        (3, 1, (4096, 1)),      # the README Born state on one worker
        (7, 2, (2048, 2)),      # seven modes on two workers
        (48, 1, (316, 13)),     # at most 16384 // 48 = 341 rows, spread over 13 chunks
    ])
    def test_chunk_rule_on_4096_trials(self, n_modes, threads, expected):
        import stochaction.measurement as meas
        rows = meas._chunk_rows(4096, threads, n_modes)
        assert (rows, -(-4096 // rows)) == expected

    def test_standard_error_of_reference_rounded_past_one(self):
        # a phased one-mode amplitude can square to 1 + 4.4e-16 under numpy's abs
        stats = EnsembleStats(indices=np.array([0]), omegas=np.array([0.0]),
                              reference=np.array([1.0 + 4.4e-16]), counts=np.array([3]),
                              n_trials=3, n_ambiguous=0, n_overflow=0)
        assert stats.reference[0] > 1.0
        assert stats.standard_errors.tolist() == [0.0]
        json.dumps(stats.to_dict(), allow_nan=False)

    def test_count_in_a_zero_weight_category_has_infinite_chi2(self):
        stats = EnsembleStats(indices=np.array([0, 1]), omegas=np.array([0.0, 1.0]),
                              reference=np.array([1.0, 0.0]), counts=np.array([3, 1]),
                              n_trials=4, n_ambiguous=0, n_overflow=0)
        assert (stats.chi2, stats.chi2_p) == (float("inf"), 0.0)

    def test_trial_count_must_be_positive(self, grid, basis, config, packet, espec):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        with pytest.raises(ValueError, match="n_trials"):
            run_ensemble(state, config, espec, 0, seed=28)


class TestPriorObservable:
    def test_eigenstate_value_for_both_signs(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max + 3] = 1.0
        theta = np.array([0.1, 1.0, 4.0])
        for sign in (+1.0, -1.0):
            assert np.allclose(actual_observable_prior(c, basis, theta, sign), 3.0)

    def test_real_state_is_sign_antisymmetric(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max - 1] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.5)
        theta = np.array([0.3, 0.9])
        plus = actual_observable_prior(c, basis, theta, +1.0)
        minus = actual_observable_prior(c, basis, theta, -1.0)
        assert np.allclose(plus + minus, 0.0, atol=1e-12)

    def test_superposition_against_finite_difference_oracle(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.3)
        c[basis.l_max - 2] = np.sqrt(0.2) * np.exp(0.4j)
        theta = np.linspace(0.2, 5.8, 10)
        h = 1e-5
        support = np.abs(c) > 0

        def phi(th):
            ls = basis.modes[support]
            return np.tensordot(c[support],
                                np.exp(1j * ls[:, None] * th[None, :]), axes=1)

        # centered differences of phase and log-density
        f0, fp, fm = phi(theta), phi(theta + h), phi(theta - h)
        dS = np.angle(fp * np.conj(fm)) / (2 * h)
        dlogO = (np.abs(fp) ** 2 - np.abs(fm) ** 2) / (2 * h * np.abs(f0) ** 2)
        for sign in (+1.0, -1.0):
            vals = actual_observable_prior(c, basis, theta, sign)
            oracle = dS + sign * dlogO / 2
            assert np.max(np.abs(vals - oracle)) < 1e-6

    def test_node_rejected(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.5)   # node at theta = pi
        with pytest.raises(Exception):
            actual_observable_prior(c, basis, np.array([np.pi]), 1.0)


class TestAveragePrior:
    def _coeffs(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max - 1] = np.sqrt(0.5)
        c[basis.l_max] = np.sqrt(0.3)
        c[basis.l_max + 1] = np.sqrt(0.2)
        return c

    def test_matches_analytic_expectation(self, basis):
        res = average_prior(self._coeffs(basis), basis, 50_000, seed=16)
        assert res["analytic"] == pytest.approx(-0.3)
        assert abs(res["mean"] - res["analytic"]) < 3 * res["se"]

    def test_eigenstate_zero_variance(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max + 2] = 1.0
        res = average_prior(c, basis, 2000, seed=17)
        assert res["mean"] == pytest.approx(2.0, abs=1e-12)
        assert res["se"] == pytest.approx(0.0, abs=1e-12)

    def test_real_state_averages_to_zero(self, basis):
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max - 1] = np.sqrt(0.5)
        c[basis.l_max + 1] = np.sqrt(0.5)
        res = average_prior(c, basis, 50_000, seed=18)
        assert abs(res["mean"]) < 3 * res["se"]

    def test_mapping_equals_vector(self, basis):
        c = self._coeffs(basis)
        mapping = {l: c[basis.l_max + l] for l in (-1, 0, 1)}
        assert (average_prior(mapping, basis, 1000, seed=16)
                == average_prior(c, basis, 1000, seed=16))

    @pytest.mark.parametrize("n_mc", [1, 0, -3])
    def test_fewer_than_two_draws_raise(self, basis, n_mc):
        # one draw has no standard error; it used to come back as nan
        with pytest.raises(ValueError, match="n_mc"):
            average_prior(self._coeffs(basis), basis, n_mc, seed=16)

    def test_empty_state_raises(self, basis):
        # no occupied mode: the ring sampler has nothing to accept under
        with pytest.raises(DegenerateInputError):
            average_prior(np.zeros(len(basis.modes)), basis, 10, seed=0)
        # a scaled vector: the closed form scales with the norm, the samples do not
        c = np.zeros(len(basis.modes), dtype=complex)
        c[basis.l_max - 1], c[basis.l_max + 1] = np.sqrt(0.5), np.sqrt(0.5)
        with pytest.raises(DegenerateInputError, match="normalized"):
            average_prior(2 * c, basis, 10, seed=0)


class TestEffectivePost:
    # after an event the system state is the correlated eigenfunction; its
    # observable at lambda 0 is the post-measurement value
    @staticmethod
    def _post(l, theta, basis, grid, config, packet):
        collapsed = prepare_initial_state({l: 1.0}, packet, config, grid, basis)
        return actual_observable_prior(collapsed.coeffs, basis, theta, 0.0)

    def test_constant_eigenvalue(self, basis, grid, config, packet):
        theta = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(self._post(3, theta, basis, grid, config, packet), 3.0)
        assert np.allclose(self._post(0, theta, basis, grid, config, packet), 0.0)

    def test_against_grid_operator_oracle(self, basis, grid, config, packet):
        # Re(phi* L phi)/|phi|^2 with the spectral derivative on the ring
        l, n_theta = 3, 128
        dtheta = 2 * np.pi / n_theta
        theta = np.arange(n_theta) * dtheta
        phi = np.exp(1j * l * theta) / np.sqrt(2 * np.pi)
        k = 2 * np.pi * np.fft.fftfreq(n_theta, d=dtheta)
        lphi = np.fft.ifft(k * np.fft.fft(phi))       # -i d/dtheta in k space
        oracle = np.real(np.conj(phi) * lphi) / np.abs(phi) ** 2
        vals = self._post(l, theta, basis, grid, config, packet)
        assert np.max(np.abs(vals - oracle)) < 1e-10

    def test_outside_basis_rejected(self, basis, grid, config, packet):
        with pytest.raises(ValueError):
            self._post(99, np.array([0.0]), basis, grid, config, packet)


class TestRepeatability:
    def test_repeat_agrees(self, grid, basis, config, packet, espec):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        first = run_single_event(state, config, espec, seed=19, trial=0)
        assert first.outcome_index is not None
        for k in range(5):
            again = repeat_measurement(first, state, config, espec,
                                       seed=20, trial=k)
            assert again.outcome_index == first.outcome_index

    def test_collapsed_ensemble_unanimous(self, grid, basis, config, packet):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-3)
        first = run_single_event(state, config, spec, seed=21)
        collapsed = prepare_initial_state({first.outcome_index: 1.0}, packet,
                                          config, grid, basis)
        _, stats, _ = run_ensemble(collapsed, config,
                                   EnsembleSpec(dt_traj=1e-3),
                                   400, seed=22)
        assert stats.frequencies.tolist() == [1.0]

    def test_ablated_collapse_not_repeatable(self, grid, basis, config, packet):
        # re-measuring the original superposition spreads outcomes again
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-3)
        _, stats, _ = run_ensemble(state, config, spec, 400, seed=23)
        assert np.count_nonzero(stats.counts) >= 2

    def test_flagged_record_rejected(self, grid, basis, config, packet, espec):
        from stochaction import MeasurementRecord
        bad = MeasurementRecord(None, None, 0.0, 0.0, 0.0, 1, 0, ambiguous=True)
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        with pytest.raises(ValueError):
            repeat_measurement(bad, state, config, espec, seed=0)


class TestRecordLine:
    """``json_line`` writes the bytes of ``json.dumps(to_dict(), sort_keys=True)``."""

    @staticmethod
    def _dumped(record):
        return json.dumps(record.to_dict(), sort_keys=True) + "\n"

    @pytest.mark.parametrize("fields", [
        dict(outcome_index=None, omega=None, ambiguous=True),
        dict(outcome_index=None, omega=None, overflow=True),
        dict(q2_initial=-0.0, q2_final=5e-324, theta_initial=1e300, lambda_sign0=-1),
        dict(omega=float("nan"), q2_initial=float("inf"), q2_final=float("-inf")),
        dict(omega=np.float64(-1.0), q2_initial=np.float64(0.1), q2_final=np.float64(-0.0),
             theta_initial=np.float64(np.inf), trial_seed=2**63 + 1),
    ], ids=["ambiguous", "overflow", "float-extremes", "non-finite", "numpy-floats"])
    def test_line_is_the_sorted_dump(self, fields):
        from stochaction import MeasurementRecord
        record = MeasurementRecord(**{**dict(outcome_index=2, omega=1.0, q2_initial=0.25,
                                             q2_final=1.0 / 3.0, theta_initial=6.0,
                                             lambda_sign0=1, trial_seed=7), **fields})
        assert record.json_line() == self._dumped(record)

    def test_run_records_write_their_dumped_lines(self, grid, basis, config, packet):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        records, _, _ = run_ensemble(state, config, EnsembleSpec(dt_traj=5e-3), 64, seed=31)
        assert [r.json_line() for r in records] == [self._dumped(r) for r in records]


class TestSubstituteObservable:
    def _line_state(self, center=0.0, width=1.0, momentum=0.0, n=1024, L=40.0):
        x = np.linspace(-L / 2, L / 2, n, endpoint=False)
        psi = np.exp(-((x - center) ** 2) / (4 * width**2) + 1j * momentum * x)
        psi = psi.astype(complex)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        return x, psi

    def test_momentum_eigen_packet_pointer_shift(self, grid):
        # narrow momentum distribution inside one bin
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(width=8.0, momentum=1.5, L=80.0, n=2048)
        pipe = substitute_observable("linear_momentum", psi, x,
                                     window=(-4.0, 6.0), n_bins=10,
                                     config=config, grid=GridSpec(-8, 8))
        spec = EnsembleSpec(dt_traj=2e-3)
        recs, stats, _ = run_ensemble(pipe, config, spec, 60, seed=24)
        # every outcome lands in the bin containing p0 = 1.5 (center 1.5)
        assert all(r.omega == pytest.approx(1.5) for r in recs)
        for r in recs:
            assert r.q2_final - r.q2_initial == pytest.approx(1.5, abs=0.51)

    def test_position_localized_packet(self, grid):
        config = PhysicalConfig(sigma=0.05, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(center=1.3, width=0.03, L=10.0)
        pipe = substitute_observable("position", psi, x, window=(-4.0, 4.0),
                                     n_bins=8, config=config,
                                     grid=GridSpec(-6, 6))
        spec = EnsembleSpec(dt_traj=2e-3)
        recs, stats, _ = run_ensemble(pipe, config, spec, 400, seed=25)
        hits = sum(1 for r in recs if r.omega == pytest.approx(1.5))
        assert hits / len(recs) > 0.99

    @pytest.mark.slow
    def test_broad_momentum_state_histogram(self, grid):
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(width=1.0, momentum=1.0, L=40.0, n=1024)
        pipe = substitute_observable("linear_momentum", psi, x,
                                     window=(-4.0, 6.0), n_bins=10,
                                     config=config, grid=GridSpec(-8, 8))
        spec = EnsembleSpec(dt_traj=2e-3)
        _, stats, _ = run_ensemble(pipe, config, spec, 1200, seed=26, threads=4)
        assert stats.n_ambiguous + stats.n_overflow < 10
        dev = np.abs(stats.frequencies - stats.reference)
        bound = 3 * np.sqrt(stats.reference * (1 - stats.reference)
                            / stats.n_used) + 1e-9
        assert np.all(dev <= bound)

    def test_two_bump_spectrum_flow_matches_direct_sum(self, grid):
        # gapped momentum support leaves zero-weight rungs inside the ladder;
        # the chained mode evaluation must still agree with a direct sum
        from stochaction.trajectories import ModeFlow
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x, _ = self._line_state(L=40.0)
        h = x[1] - x[0]
        psi = (np.exp(-x**2 / 4 + 1.5j * x) + np.exp(-x**2 / 4 - 1.5j * x))
        psi = psi.astype(complex)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * h)
        pipe = substitute_observable("linear_momentum", psi, x,
                                     window=(-4.0, 4.0), n_bins=8,
                                     config=config, grid=GridSpec(-8, 8))
        state = pipe.state0
        flow = ModeFlow(state, g=1.0)
        pts = np.array([[0.3, 0.01], [-1.2, -0.02], [2.5, 0.0]])
        got = flow.effective(pts, 0.2)

        mu = state.centers + 1.0 * state.omegas * 0.2
        norm = (2 * np.pi * 0.02**2) ** -0.25 / np.sqrt(state.modes.box_length)
        psi_v = dx_v = dq_v = 0.0
        for c, p, m in zip(state.coeffs, state.modes.momenta, mu):
            u = norm * np.exp(1j * p * pts[:, 0])
            gpack = np.exp(-((pts[:, 1] - m) ** 2) / (4 * 0.02**2))
            psi_v = psi_v + c * u * gpack
            dx_v = dx_v + c * 1j * p * u * gpack
            dq_v = dq_v + c * u * gpack * (-(pts[:, 1] - m) / (2 * 0.02**2))
        dens = np.abs(psi_v) ** 2
        oracle = np.stack([np.imag(np.conj(psi_v) * dq_v) / dens,
                           np.imag(np.conj(psi_v) * dx_v) / dens], axis=-1)
        assert np.max(np.abs(got - oracle)) < 1e-9

    @pytest.mark.parametrize("kind, window, n_bins", [
        ("position", (-4.0, 4.0), 8), ("linear_momentum", (-4.0, 6.0), 10)])
    def test_outcome_reference_is_normalized(self, kind, window, n_bins):
        # the window covers 0.99994 of the position state; the reference is the
        # state's distribution over the bins, so it sums to 1 in both kinds
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(momentum=1.0)
        pipe = substitute_observable(kind, psi, x, window=window, n_bins=n_bins,
                                     config=config, grid=GridSpec(-8, 8))
        assert abs(pipe.outcome_reference.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("kind", ["position", "linear_momentum"])
    def test_no_overflow_from_draws_in_the_outer_half_cells(self, kind):
        # initial x is drawn anywhere in the cells around the grid points,
        # x[0] - h/2 to x[-1] + h/2; the system coordinate has no bounds, so
        # a draw in an outer half-cell is an ordinary trial
        x = np.linspace(-1.0, 1.0, 64, endpoint=False)
        if kind == "position":
            psi = np.full(64, np.sqrt(0.5), dtype=complex)
            config, window, dt = PhysicalConfig(sigma=0.05), (-1.0 - 1e-9, 1.0), 2e-3
        else:
            psi = (np.exp(1j * np.pi * x) + np.exp(-1j * np.pi * x)
                   + 0.7 * np.exp(3j * np.pi * x))
            psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
            config, window, dt = PhysicalConfig(g=0.1, sep_factor=6.0), (-12.0, 12.0), 1e-3
        pipe = substitute_observable(kind, psi, x, window=window, n_bins=4,
                                     config=config, grid=GridSpec(-4.0, 4.0))
        recs, stats, _ = run_ensemble(pipe, config, EnsembleSpec(dt_traj=dt), 600, seed=3)
        outer = [r for r in recs if not x[0] <= r.theta_initial <= x[-1]]
        assert outer, "no draw fell in an outer half-cell"
        assert stats.n_overflow == 0

    def test_window_coverage_guard(self, grid):
        # sigma 0.02 keeps 4 bins of (-0.5, 0.5) apart (|g| t_M gap 0.25 >= 8 sigma),
        # so the window's coverage, not the separation rule, rejects it
        narrow = PhysicalConfig(lambda_mag=1.0, g=1.0, t_M=1.0, sigma=0.02, sep_factor=8.0)
        x, psi = self._line_state(width=1.0)
        with pytest.raises(InvalidSystemError, match="observable window covers only"):
            substitute_observable("position", psi, x, window=(-0.5, 0.5),
                                  n_bins=4, config=narrow, grid=grid)

    def test_unresolvable_bins_rejected(self, grid):
        wide = PhysicalConfig(sigma=0.2, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(width=1.0)
        with pytest.raises(InvalidSystemError):
            substitute_observable("position", psi, x, window=(-4.0, 4.0),
                                  n_bins=8, config=wide, grid=grid)

    @pytest.mark.parametrize("kind", ["position", "linear_momentum"])
    def test_nan_state_rejected(self, grid, config, kind):
        x, psi = self._line_state()
        psi[10] = np.nan
        with pytest.raises(DegenerateInputError, match="not normalized"):
            substitute_observable(kind, psi, x, window=(-4.0, 4.0), n_bins=8,
                                  config=config, grid=grid)

    @pytest.mark.parametrize("kind", ["position", "linear_momentum"])
    @pytest.mark.parametrize("window, n_bins, message", [
        ((-4.0, 4.0), 0, "n_bins: must be an integer at least 1, not 0"),
        ((-4.0, 4.0), -1, "n_bins: must be an integer at least 1, not -1"),
        ((-4.0, 4.0), 2.5, "n_bins: must be an integer at least 1, not 2.5"),
        ((float("nan"), 4.0), 8, "window .* is not a finite"),
        ((-4.0, float("inf")), 8, "window .* is not a finite"),
        ((4.0, -4.0), 8, "window .* is not a finite")])
    def test_bad_bins_or_window_rejected_before_any_work(self, grid, config, monkeypatch,
                                                         kind, window, n_bins, message):
        x, psi = self._line_state()

        def no_transform(*args, **kwargs):
            raise AssertionError("the state was transformed before the check")

        monkeypatch.setattr(np.fft, "fft", no_transform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                substitute_observable(kind, psi, x, window=window, n_bins=n_bins,
                                      config=config, grid=grid)

    def test_unknown_kind_rejected(self, grid, config):
        x, psi = self._line_state()
        with pytest.raises(ValueError):
            substitute_observable("energy", psi, x, window=(-1, 1), n_bins=4,
                                  config=config, grid=grid)

    def test_angular_momentum_is_not_a_substitute(self, grid, config):
        x, psi = self._line_state()
        with pytest.raises(ValueError, match="use prepare_initial_state"):
            substitute_observable("angular_momentum", psi, x, window=(-1, 1), n_bins=4,
                                  config=config, grid=grid)

    @pytest.mark.parametrize("kind, window", [("position", (-0.5, 0.5)),
                                              ("linear_momentum", (-0.1, 0.1))])
    def test_window_short_of_the_norm_rejected(self, grid, config, kind, window):
        # one bin, so no separation rule applies: the coverage rule alone rejects it
        x, psi = self._line_state(width=1.0)
        with pytest.raises(InvalidSystemError, match="observable window covers only"):
            substitute_observable(kind, psi, x, window=window, n_bins=1, config=config,
                                  grid=grid)

    def test_plane_wave_state_is_not_repeated(self, grid, espec):
        # the repetition protocol collapses onto a ring eigenstate
        from stochaction import MeasurementRecord
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x, psi = self._line_state(width=8.0, momentum=1.5, L=80.0, n=2048)
        pipe = substitute_observable("linear_momentum", psi, x, window=(-4.0, 6.0),
                                     n_bins=10, config=config, grid=GridSpec(-8, 8))
        first = MeasurementRecord(0, 1.5, 0.0, 1.5, 0.0, 1, 0)
        with pytest.raises(NotImplementedError, match="defined for the ring system"):
            repeat_measurement(first, pipe.state0, config, espec, seed=0)


def oracle_sample_line(density, points, n, rng):
    """Reference inverse-CDF draws from a tabulated density (piecewise constant cells)."""
    h = points[1] - points[0]
    masses = density * h
    cdf = np.cumsum(masses)
    u = rng.random(n) * cdf[-1]
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(points) - 1)
    prev = np.where(idx > 0, cdf[idx - 1], 0.0)
    frac = np.clip((u - prev) / np.maximum(masses[idx], 1e-300), 0.0, 1.0)
    return points[idx] + (frac - 0.5) * h


def oracle_initial_draws(state0, seed, trials):
    """Reference loop: a new stream per trial, rejection rounds over the occupied modes."""
    from stochaction.spectral import PlaneWaveModes
    out = np.empty((len(trials), 2))
    rounds = np.zeros(len(trials), dtype=int)
    if isinstance(state0.modes, AngularBasis):
        sup = np.flatnonzero(np.abs(state0.coeffs) ** 2 > 1e-14)
        c, l = state0.coeffs[sup], state0.modes.modes[sup]
        bound = float(np.sum(np.abs(c))) ** 2 / (2.0 * np.pi)
        m = int(2.5 * bound * 2.0 * np.pi) + 16
        for k, trial in enumerate(trials):
            r = stream(seed, INITIAL, int(trial))
            while True:
                rounds[k] += 1
                th = r.uniform(0.0, 2.0 * np.pi, size=m)
                u = r.uniform(0.0, bound, size=m)
                dens = np.abs(c @ np.exp(1j * l[:, None] * th)) ** 2 / (2.0 * np.pi)
                ok = np.flatnonzero(u < dens)
                if len(ok):
                    out[k, 0] = th[ok[0]]
                    break
            out[k, 1] = r.normal(state0.centers[0], state0.packet.sigma)
    else:
        xg = state0.modes.x_grid
        table = (state0.modes.values(xg) if isinstance(state0.modes, PlaneWaveModes)
                 else state0.modes.table)
        dens = np.abs(np.tensordot(state0.coeffs, table, axes=1)) ** 2
        for k, trial in enumerate(trials):
            r = stream(seed, INITIAL, int(trial))
            out[k, 0] = oracle_sample_line(dens, xg, 1, r)[0]
            out[k, 1] = r.normal(state0.centers[0], state0.packet.sigma)
    return out, rounds


# four modes with gaps and unequal phases: the envelope is 4x the mean density
GAPPED = {-3: 0.5, -1: 0.5j, 2: -0.5, 5: 0.5 * np.exp(0.7j)}


def ring_cdf(coeffs: dict):
    """Exact CDF of ``|sum_l c_l exp(i l theta)|^2 / 2 pi`` on [0, 2 pi)."""
    l = np.array(list(coeffs))
    c = np.array(list(coeffs.values()), dtype=complex)
    d = l[:, None] - l[None, :]
    cc = c[:, None] * np.conj(c)[None, :]
    off = d != 0
    dsafe = np.where(off, d, 1)

    def cdf(theta):
        th = np.asarray(theta, dtype=float)[:, None, None]
        terms = np.where(off, cc * (np.exp(1j * dsafe * th) - 1.0) / (1j * dsafe), cc * th)
        return np.real(terms.sum(axis=(1, 2))) / (2.0 * np.pi)

    return cdf


class TestDrawOracle:
    """Per-trial initial draws and re-keyed streams equal per-trial fresh streams."""

    @staticmethod
    def _draws(state0, seed, trials):
        from stochaction.measurement import _initial_draws
        return _initial_draws(state0, seed, trials, stream(seed), None, 1)[0]

    def test_canonical_state(self, grid, basis, config, packet):
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        trials = np.arange(100, 2600)
        want, _ = oracle_initial_draws(state, 31, trials)
        assert np.array_equal(self._draws(state, 31, trials), want)

    def test_low_acceptance_ring_state(self, grid, basis, config, packet):
        # all 17 modes in phase: the envelope touches the peak and accepts 1/17;
        # the gapped state accepts 1/4, so a second round needs all 26 draws of
        # the first rejected and takes many trials to show up
        for coeffs, n_trials in [({l: 1.0 / np.sqrt(17) for l in basis.modes}, 400),
                                 (GAPPED, 20000)]:
            state = prepare_initial_state(coeffs, packet, config, grid, basis,
                                          enforce_separation=False)
            trials = np.array([0, 5, 3, 2**48 - 1] + list(range(10, n_trials)))
            want, rounds = oracle_initial_draws(state, 32, trials)
            assert np.count_nonzero(rounds >= 2) >= 3
            assert np.array_equal(self._draws(state, 32, trials), want)

    def test_partial_blocks(self, grid, basis, config, packet):
        # chunks that end inside a block of trials decided together, keys out of order
        from stochaction.measurement import _DRAW_BLOCK
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        keys = stream(36).permutation(3 * _DRAW_BLOCK)
        for n in (1, _DRAW_BLOCK - 1, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 88):
            want, _ = oracle_initial_draws(state, 36, keys[:n])
            assert np.array_equal(self._draws(state, 36, keys[:n]), want)

    def test_missed_first_rounds_are_redrawn(self, grid, basis, config, packet,
                                             monkeypatch):
        # 17 in-phase modes: about 3% of the first rounds accept nothing, and
        # those trials are drawn again by the sampler's own rounds
        from stochaction import measurement
        redrawn = []

        class CountingSampler(measurement.RingSampler):
            def __call__(self, n, rng):
                redrawn.append(n)
                return super().__call__(n, rng)

        monkeypatch.setattr(measurement, "RingSampler", CountingSampler)
        state = prepare_initial_state({l: 1.0 / np.sqrt(17) for l in basis.modes}, packet,
                                      config, grid, basis, enforce_separation=False)
        trials = np.arange(600)
        want, rounds = oracle_initial_draws(state, 37, trials)
        assert np.array_equal(self._draws(state, 37, trials), want)
        assert redrawn == [1] * np.count_nonzero(rounds >= 2) and len(redrawn) >= 1

    @pytest.mark.parametrize("kind", ["position", "linear_momentum"])
    def test_line_pipelines(self, kind):
        config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
        x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
        psi = np.exp(-x**2 / 4 + 1j * x).astype(complex)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
        window, n_bins = ((-4.0, 4.0), 8) if kind == "position" else ((-4.0, 6.0), 10)
        pipe = substitute_observable(kind, psi, x, window=window, n_bins=n_bins,
                                     config=config, grid=GridSpec(-8, 8))
        trials = np.arange(300)
        want, _ = oracle_initial_draws(pipe.state0, 33, trials)
        assert np.array_equal(self._draws(pipe.state0, 33, trials), want)

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_signs_equal_fresh_streams(self, grid, basis, config, packet, velocity):
        from stochaction.measurement import _initial_draws
        state = prepare_initial_state(fixture_coeffs(), packet, config, grid, basis)
        spec = EnsembleSpec(dt_traj=1e-2)
        stoch = StochasticParams(tau_xi=0.1, sign_law="telegraph", flip_prob=0.3)
        records, _, _ = run_ensemble(state, config, spec, 40, seed=34,
                                     stoch=stoch if velocity == "actual" else None)
        trials = np.arange(40)
        if velocity == "effective":
            want0 = [int(stream(34, SIGNS, t).integers(0, 2) * 2 - 1) for t in trials]
            # the first entry of a sign path under either law, as drawn before
            for law in ("iid", "telegraph"):
                assert want0 == [int(sample_sign_path(StochasticParams(sign_law=law), 1,
                                                      stream(34, SIGNS, t))[0])
                                 for t in trials]
        else:
            want0 = [int(sample_sign_path(stoch, 100, stream(34, SIGNS, t))[0])
                     for t in trials]
        assert [r.lambda_sign0 for r in records] == want0
        paths = _initial_draws(state, 34, trials[::-1], stream(0), stoch, 100)[1]
        want = np.stack([sample_sign_path(stoch, 100, stream(34, SIGNS, t))
                         for t in trials[::-1]])
        assert np.array_equal(paths, want)


class TestReadout:
    """The array readout names the category the per-trial rule named, bit for bit."""

    @staticmethod
    def oracle(pipe, q2, config):
        # the per-trial rule it replaced, -1 for a landing that names nothing
        state0 = pipe.state0
        if pipe.outcome_edges is None:
            sup = state0.support_indices()
            centers = state0.centers[sup] + config.g * state0.omegas[sup] * config.t_M
            hits = np.flatnonzero(np.abs(q2 - centers) < config.sep_factor * config.sigma / 2.0)
            return int(hits[0]) if len(hits) == 1 else -1
        value = (q2 - state0.packet.center) / (config.g * config.t_M)
        edges = pipe.outcome_edges
        if value < edges[0] or value >= edges[-1]:
            return -1
        return int(np.searchsorted(edges, value, side="right") - 1)

    @pytest.mark.parametrize("kind", ["windows", "position"])
    def test_equals_per_trial_rule(self, grid, basis, packet, kind):
        from stochaction.measurement import _readout, _resolve_pipeline
        if kind == "windows":
            # windows of neighbouring modes overlap at g = 0.25
            config = PhysicalConfig(g=0.25, t_M=1.0, sigma=0.05, sep_factor=8.0)
            pipe = _resolve_pipeline(prepare_initial_state(
                fixture_coeffs(), packet, config, grid, basis, enforce_separation=False))
            sup = pipe.state0.support_indices()
            marks = np.concatenate([pipe.state0.omegas[sup] * 0.25 + d for d in (-0.2, 0.2)])
        else:
            config = PhysicalConfig(sigma=0.02, sep_factor=8.0, g=1.0, t_M=1.0)
            x = np.linspace(-20.0, 20.0, 1024, endpoint=False)
            psi = np.exp(-x**2 / 4).astype(complex)
            psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (x[1] - x[0]))
            pipe = substitute_observable("position", psi, x, window=(-4.0, 4.0), n_bins=8,
                                         config=config, grid=GridSpec(-8, 8))
            marks = pipe.outcome_edges
        # window and bin boundaries, their float neighbours and uniform landings
        q2 = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                             stream(35).uniform(-5.0, 5.0, 2000)])
        want = [self.oracle(pipe, q, config) for q in q2]
        assert _readout(pipe, q2, config).tolist() == want
        assert -1 in want and len(set(want)) > 2


class TestRingSampler:
    """The one ring sampler draws the exact marginal under an exact envelope."""

    @pytest.mark.parametrize("coeffs", [fixture_coeffs(), GAPPED],
                             ids=["canonical", "gapped-4"])
    def test_ks_against_exact_cdf(self, coeffs):
        from scipy import stats as sps
        from stochaction.trajectories import RingSampler
        l = np.array(list(coeffs))
        c = np.array(list(coeffs.values()), dtype=complex)
        draws = RingSampler(c, l)(100_000, stream(41))
        assert sps.kstest(draws, ring_cdf(coeffs)).pvalue > 0.01

    @pytest.mark.parametrize("c", [[0.0, 0.0], [np.nan, 0.5], [np.inf, 0.5]],
                             ids=["empty", "nan", "inf"])
    def test_degenerate_envelope_raises_before_drawing(self, c):
        from stochaction.trajectories import RingSampler
        gen = stream(42)
        with pytest.raises(DegenerateInputError, match="positive finite bound"):
            RingSampler(np.array(c, dtype=complex), np.array([0, 1]))(3, gen)
        assert gen.random() == stream(42).random()   # nothing was drawn

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_envelope_bounds_density(self, data):
        from stochaction.trajectories import _ring_peak_bound
        l = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=1, max_size=17,
                                        unique=True)))
        part = st.floats(-1.0, 1.0, allow_subnormal=False)
        c = np.array([complex(data.draw(part), data.draw(part)) for _ in l])
        th = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
        dens = np.abs(c @ np.exp(1j * l[:, None] * th)) ** 2 / (2.0 * np.pi)
        assert dens.max() <= _ring_peak_bound(c) / (2.0 * np.pi) * (1.0 + 1e-12)
