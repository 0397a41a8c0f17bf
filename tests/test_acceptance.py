"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Fixtures are module-scoped so the two large seeded ensembles are
integrated once and shared.
"""
import json

import numpy as np
import pytest
from scipy.linalg import eigh

from ordering_oracle import build_unsymmetrized_hamiltonian
from stochaction import (ActionIncrement, AngularBasis, CartesianGrid,
                         GaussianPacket, GridSpec, MetricPotentialSystem,
                         PhysicalConfig, actual_observable_prior,
                         average_prior, build_metric_hamiltonian, check_separability,
                         classical_limit_check, correlated_eigenstate, equivariance_report,
                         evolve_grid, gaussian_log_weight, integrate_ensemble,
                         prepare_initial_state, run_ensemble, sample_deviation,
                         verify_hjm_residual)
from stochaction.cli import main as cli_main
from stochaction.rng import stream
from stochaction.trajectories import EnsembleSpec, ModeFlow

GRID = GridSpec(-4.0, 4.0)
BASIS = AngularBasis(8)
CONFIG = PhysicalConfig(lambda_mag=1.0, g=1.0, t_M=1.0, sigma=0.05, sep_factor=8.0)
PACKET = GaussianPacket(0.0, 0.05)
SPEC = EnsembleSpec(dt_traj=1e-3)
SEED = 20240817


def report(number: int, description: str, conditions: list[tuple[str, bool]]):
    ok = all(flag for _, flag in conditions)
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} - {description}")
    failed = [name for name, flag in conditions if not flag]
    assert ok, f"criterion {number} failed: {failed}"


@pytest.fixture(scope="module")
def born_run():
    state = prepare_initial_state(
        {-1: np.sqrt(0.5), 0: np.sqrt(0.3), 1: np.sqrt(0.2)},
        PACKET, CONFIG, GRID, BASIS)
    records, stats, extras = run_ensemble(
        state, CONFIG, SPEC, 10_000, SEED, snapshot_steps=(1000,))
    return state, records, stats, extras


@pytest.fixture(scope="module")
def two_mode_run():
    state = prepare_initial_state(
        {0: np.sqrt(0.5), 1: np.sqrt(0.5)}, PACKET, CONFIG, GRID, BASIS)
    records, stats, extras = run_ensemble(state, CONFIG, SPEC, 10_000, SEED + 1)
    return state, records, stats, extras


@pytest.fixture(scope="module")
def eigen_run():
    state = prepare_initial_state({2: 1.0}, PACKET, CONFIG, GRID, BASIS)
    records, stats, extras = run_ensemble(
        state, CONFIG, EnsembleSpec(dt_traj=1e-3), 1000, SEED + 2)
    return state, records, stats, extras


def test_criterion_01_born_rule(born_run):
    _, _, stats, _ = born_run
    dev = np.abs(stats.frequencies - stats.reference)
    bound = 3.0 * np.sqrt(stats.reference * (1 - stats.reference) / 10_000)
    report(1, "Born rule frequencies for |c|^2 = (0.5, 0.3, 0.2)", [
        ("each frequency within 3 binomial sigma", bool(np.all(dev <= bound))),
        ("chi-squared p above 0.01", stats.chi2_p > 0.01),
        ("ambiguous rate below 1e-3", stats.ambiguous_rate < 1e-3),
    ])


def test_criterion_02_pointer_classical_relation(eigen_run):
    _, records, stats, _ = eigen_run
    shifts = np.array([r.q2_final - r.q2_initial for r in records])
    outcomes = {r.outcome_index for r in records}
    report(2, "eigenstate pointer shift g*omega*t_M, deterministic outcome", [
        ("every trial shift within 1e-4 of 2.0",
         bool(np.all(np.abs(shifts - 2.0) < 1e-4))),
        ("outcome always l = 2", outcomes == {2}),
        ("no flagged trials", stats.n_ambiguous == 0 and stats.n_overflow == 0),
    ])


def test_criterion_03_mean_deviation():
    plus = sample_deviation(1.0, +1, stream(SEED, index=3), size=1_000_000)
    minus = sample_deviation(1.0, -1, stream(SEED, index=4), size=1_000_000)
    mean_abs = float(np.mean(np.abs(plus)))
    report(3, "mean |dS - dA| equals lambda/2 with a locked sign", [
        ("mean within 0.5 +- 0.002", abs(mean_abs - 0.5) <= 0.002),
        ("positive branch sign lock 100%", bool(np.all(plus >= 0.0))),
        ("negative branch sign lock 100%", bool(np.all(minus <= 0.0))),
    ])


def test_criterion_04_separability():
    r = stream(SEED, index=5)
    worst = 0.0
    worst_gauss = 0.0
    for _ in range(1000):
        inc1 = ActionIncrement.from_deviation(float(r.uniform(0.0, 2.0)))
        inc2 = ActionIncrement.from_deviation(float(r.uniform(0.0, 2.0)))
        th1, th2 = (float(v) for v in r.uniform(0.0, 0.5, size=2))
        lpj, lp1, lp2 = check_separability(inc1, inc2, 1.0, th1, th2)
        worst = max(worst, abs(lpj - lp1 - lp2))
        gj, g1, g2 = check_separability(inc1, inc2, 1.0, th1, th2,
                                        log_weight=gaussian_log_weight)
        worst_gauss = max(worst_gauss, abs(gj - g1 - g2))
    report(4, "exponential law separability; Gaussian control fails", [
        ("log-additivity within 1e-12 over 1000 pairs", worst < 1e-12),
        ("Gaussian counter-law violates additivity", worst_gauss > 0.01),
    ])


def test_criterion_05_expectation_equality(born_run):
    state, _, stats, _ = born_run
    mean_rec, se_rec = stats.mean_omega()
    analytic = -0.3
    prior = average_prior(state.coeffs, BASIS, 100_000, SEED + 6)
    se_mc = prior["se"]
    combined = np.hypot(se_rec, se_mc)
    report(5, "recorded mean = analytic expectation = prior-average MC", [
        ("ensemble mean vs analytic within 3 SE",
         abs(mean_rec - analytic) <= 3 * se_rec),
        ("MC prior vs analytic within 3 SE",
         abs(prior["mean"] - analytic) <= 3 * se_mc),
        ("ensemble vs MC within 3 combined SE",
         abs(mean_rec - prior["mean"]) <= 3 * combined),
        ("analytic expectation is -0.3", abs(prior["analytic"] - analytic) < 1e-12),
    ])


def test_criterion_06_effective_post_and_repeatability(born_run):
    state, records, _, _ = born_run
    outcomes = sorted({r.outcome_index for r in records if r.outcome_index is not None})
    thetas = np.linspace(0.0, 2 * np.pi, 17)
    # the post-measurement value: the observable of the collapsed state at lambda 0
    post_ok = all(
        np.max(np.abs(actual_observable_prior(
            correlated_eigenstate(state, l, CONFIG).coeffs,
            BASIS, thetas, 0.0) - float(l))) < 1e-10
        for l in outcomes)

    spec1 = EnsembleSpec(dt_traj=1e-3)
    (first,), _, _ = run_ensemble(state, CONFIG, spec1, 1, SEED + 7)
    collapsed = correlated_eigenstate(state, first.outcome_index, CONFIG)
    _, rep_stats, _ = run_ensemble(collapsed, CONFIG,
                                   EnsembleSpec(dt_traj=1e-3),
                                   1000, SEED + 8)
    unanimous = (rep_stats.indices.tolist() == [first.outcome_index]
                 and rep_stats.frequencies.tolist() == [1.0]
                 and rep_stats.n_ambiguous == 0)
    op_repeats, _, _ = run_ensemble(collapsed, CONFIG, spec1, 3, SEED + 9)
    report(6, "post-measurement value equals the outcome; repetition agrees", [
        ("effective value is omega_l within 1e-10", post_ok),
        ("1000 repeats agree with the first outcome", unanimous),
        ("repeats of the correlated eigenstate reproduce the outcome",
         all(r.outcome_index == first.outcome_index for r in op_repeats)),
    ])


def test_criterion_07_discreteness_and_non_revelation(born_run, eigen_run,
                                                      two_mode_run):
    collected = []
    for run in (born_run, eigen_run, two_mode_run):
        collected.extend(r.omega for r in run[1] if r.omega is not None)
    collected = np.array(collected)
    discrete = bool(np.all(collected == np.round(collected)))

    state2, records2, _, _ = two_mode_run
    used = [r for r in records2 if r.outcome_index is not None]
    theta0 = np.array([r.theta_initial for r in used])
    signs0 = np.array([r.lambda_sign0 for r in used], dtype=float)
    omega = np.array([r.omega for r in used])
    base = actual_observable_prior(state2.coeffs, BASIS, theta0, 0.0)
    osm = actual_observable_prior(state2.coeffs, BASIS, theta0, 1.0) - base
    prior_vals = base + signs0 * osm
    fraction = float(np.mean(np.abs(omega - prior_vals) > 1e-6))
    report(7, "outcomes are discrete eigenvalues, not prior values", [
        ("all recorded omegas in the integer spectrum", discrete),
        ("single events disagree with the prior value for most trials",
         fraction > 0.5),
    ])


def test_criterion_08_equivariance(born_run):
    state, _, _, extras = born_run
    rep = equivariance_report(extras["snapshots"], state, CONFIG.g, n_bins=50)
    at_tm = rep[1.0]

    flow = ModeFlow(state, CONFIG.g)
    r = stream(SEED, index=10)
    n_biased = 4000
    biased = np.stack([r.uniform(0, 2 * np.pi, n_biased),
                       r.uniform(-0.6, 0.6, n_biased)], axis=-1)
    spec = EnsembleSpec(dt_traj=1e-3)
    out = integrate_ensemble(flow, biased, spec, 0.0, 1.0, snapshot_steps=(1000,))
    rep_b = equivariance_report({1.0: out["snapshots"][1000]}, state, CONFIG.g,
                                n_bins=50)
    report(8, "effective flow transports Born samples to |Psi(t_M)|^2", [
        ("ring marginal chi-squared p above 0.01", at_tm["theta"]["chi2_p"] > 0.01),
        ("pointer marginal chi-squared p above 0.01", at_tm["q2"]["chi2_p"] > 0.01),
        ("biased initialization detected at p below 1e-4",
         rep_b[1.0]["q2"]["chi2_p"] < 1e-4),
    ])


def test_criterion_09_engine_fidelity():
    harmonic = MetricPotentialSystem(1, scalar_potential=lambda c: 0.5 * c[0] ** 2)
    grid = CartesianGrid((-7.0,), (7.0,), (512,), (False,))
    op = build_metric_hamiltonian(harmonic, 1.0, grid)
    x = grid.axis(0)
    packet = np.exp(-((x - 1.0) ** 2) / 2).astype(complex)
    packet /= np.sqrt(grid.norm2(packet))
    out = evolve_grid(packet, op, 2e-3, 1000)
    drift = abs(1.0 - grid.norm2(out))

    _, vecs = eigh(op.matrix.toarray())
    gs = vecs[:, 0].astype(complex)
    gs /= np.sqrt(grid.norm2(gs))
    gs_out = evolve_grid(gs, op, 2e-3, 3142)
    density_drift = float(np.max(np.abs(np.abs(gs_out) ** 2 - np.abs(gs) ** 2)))

    free_grid = CartesianGrid((-30.0,), (30.0,), (768,), (False,))
    xf = free_grid.axis(0)
    free = np.exp(-xf**2 / 4).astype(complex)
    free /= np.sqrt(free_grid.norm2(free))
    free_op = build_metric_hamiltonian(MetricPotentialSystem(1), 1.0, free_grid)
    free_out = evolve_grid(free, free_op, 2e-3, 1000)
    dens = np.abs(free_out) ** 2
    total = dens.sum() * free_grid.cell_volume
    mean = np.sum(xf * dens) * free_grid.cell_volume / total
    var = np.sum((xf - mean) ** 2 * dens) * free_grid.cell_volume / total
    dispersion_err = abs(var - 2.0) / 2.0

    def residuals(n, dt):
        g = CartesianGrid((-8.0,), (8.0,), (n,), (False,))
        h = build_metric_hamiltonian(harmonic, 1.0, g)
        p = np.exp(-((g.axis(0) - 1.0) ** 2) / 2).astype(complex)
        p /= np.sqrt(g.norm2(p))
        _, hist = evolve_grid(p, h, dt, int(round(0.5 / dt)), record_every=5)
        return verify_hjm_residual(hist[::10], harmonic, g, 1.0)

    coarse = residuals(256, 2e-3)
    fine = residuals(512, 1e-3)
    cont_ratio = coarse["continuity_mean"] / fine["continuity_mean"]
    hj_ratio = coarse["hj_mean"] / fine["hj_mean"]

    report(9, "norm conservation, stationarity, dispersion, residual convergence", [
        ("norm drift below 1e-8 per 1000 steps", drift < 1e-8),
        ("ground-state density drift below 1e-6 over a period",
         density_drift < 1e-6),
        ("free dispersion within 0.5% of the analytic law",
         dispersion_err < 0.005),
        ("continuity residual drops about 4x under refinement",
         3.0 < cont_ratio < 5.0),
        ("Hamilton-Jacobi residual drops about 4x under refinement",
         3.0 < hj_ratio < 5.0),
    ])


def test_criterion_10_operator_ordering():
    grid = CartesianGrid((0.0,), (2 * np.pi,), (128,), (True,))
    system = MetricPotentialSystem.isotropic(1, lambda c: 1.0 + 0.1 * np.sin(c[0]))
    sandwich = build_metric_hamiltonian(system, 1.0, grid)
    naive = build_unsymmetrized_hamiltonian(system, 1.0, grid)
    report(10, "sandwich ordering is Hermitian, left ordering is not", [
        ("sandwich defect below 1e-10", sandwich.hermiticity_defect() < 1e-10),
        ("naive ordering defect above 1e-4", naive.hermiticity_defect() > 1e-4),
    ])


def test_criterion_11_classical_limit():
    s = 10.0
    grid = CartesianGrid((-60.0,), (60.0,), (1024,), (False,))
    x = grid.axis(0)
    psi = np.exp(-x**2 / (4 * s**2)).astype(complex)
    psi /= np.sqrt(grid.norm2(psi))
    rep = classical_limit_check(MetricPotentialSystem(1), psi, grid,
                                lambdas=(1.0, 0.5, 1e-3))
    ratio = rep["halving_ratios"][0]
    v_dist = rep["entries"][-1]["velocity_rms_distance"]
    report(11, "curvature term scales as lambda^2; velocities turn classical", [
        ("halving ratio within 1% of 0.25", abs(ratio - 0.25) <= 0.0025),
        ("velocity distance below 1e-4 at lambda = 1e-3", v_dist < 1e-4),
    ])


def test_criterion_12_reproducibility(tmp_path):
    config = {
        "experiment": "born",
        "seed": 424242,
        "grid": {"n_theta": 64, "q2_min": -4.0, "q2_max": 4.0, "n_q2": 512},
        "ensemble": {"n_trials": 1500, "dt_traj": 0.002},
        "stochastic": {"tau_xi": 0.02},
        "state": {"modes": [-1, 0, 1], "weights": [0.5, 0.3, 0.2]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for tag, threads in (("t1", 1), ("t8", 8), ("t1b", 1)):
        out = tmp_path / tag
        status = cli_main(["born", "--config", str(path), "--out", str(out),
                           "--threads", str(threads)])
        assert status == 0
        outs.append(out)
    names = ("records.jsonl", "summary.json", "frequencies.csv")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    == (outs[2] / n).read_bytes() for n in names)
    manifests = [json.loads((o / "manifest.json").read_text())["files"]
                 for o in outs]
    report(12, "fixed (config, seed) is byte-identical at 1 and 8 threads", [
        ("result files byte-identical across runs and thread counts", identical),
        ("manifest hash maps identical", manifests[0] == manifests[1] == manifests[2]),
    ])
