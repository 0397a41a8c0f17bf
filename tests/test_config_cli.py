"""Config validation, experiment runners, CLI exit codes, determinism."""
import json
import math
import os
import tempfile
import warnings
from dataclasses import astuple, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from parse_cases import (ARITHMETIC_FAILURES, BAD_APPENDIX_FIELDS, BAD_SECTION_KEYS,
                         ENGINE_RULES, GRID_RUN, GRID_SCALES_TOO_LARGE, OUT_OF_RANGE_SEEDS,
                         SHAPE_AND_BOUND_RULES, TOO_SMALL_COUNTS, UNPASSABLE_THRESHOLDS,
                         UNRUNNABLE_APPENDIX, UNRUNNABLE_STATES)
from stochaction import (AngularBasis, AppendixSpec, CartesianGrid, ConfigError,
                         DegenerateInputError, EnsembleSpec, FieldErrors, GaussianPacket,
                         GridSpec, LambdaSweep, MetricPotentialSystem, PhysicalConfig,
                         SpectralState, StateSpec, StochasticParams, average_prior,
                         build_metric_hamiltonian, equivariance_report, evolve_grid, gridop,
                         parse_config, prepare_initial_state, run_ensemble, run_experiment,
                         run_lambda_sweep, serialize_config, trajectories,
                         verify_hjm_residual)
from stochaction.cli import main as cli_main
from stochaction.potentials import appendix_setup

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

MINIMAL_BORN = {
    "experiment": "born",
    "seed": 42,
    "grid": {"n_theta": 64, "q2_min": -4.0, "q2_max": 4.0, "n_q2": 512},
    "ensemble": {"n_trials": 200, "dt_traj": 0.002},
    "stochastic": {"tau_xi": 0.02},
    "state": {"modes": [-1, 0, 1], "weights": [0.5, 0.3, 0.2]},
}


# the engine calls given the value that breaks each rule of ENGINE_RULES
ENGINE_CALLS = {
    "normalization": [
        lambda e: SpectralState(np.zeros(17), AngularBasis(), GaussianPacket(0.0, 0.05),
                                np.zeros(17), 0.0, GridSpec()),
        lambda e: prepare_initial_state({0: 0.0}, GaussianPacket(0.0, 0.05), e.physical,
                                        GridSpec()),
        lambda e: average_prior({0: 0.0}, AngularBasis(), 10, seed=0)],
    "schedule-dt": [lambda e: evolve_grid(e.psi, e.op, 0.0, 10)],
    "schedule-n_steps": [lambda e: evolve_grid(e.psi, e.op, 0.01, 0)],
    "schedule-record_every": [
        lambda e: evolve_grid(e.psi, e.op, 0.01, 10, record_every=0),
        lambda e: run_lambda_sweep(e.system, e.psi, e.grid, LambdaSweep(), 0.01, 10, 0)],
    "residual-snapshots": [
        lambda e: verify_hjm_residual(evolve_grid(e.psi, e.op, 0.01, 100, 51)[1], e.system,
                                      e.grid, 1.0)],
    "residual-interior": [
        lambda e: verify_hjm_residual([(0.0, np.ones(8, complex))] * 3, e.system,
                                      CartesianGrid((-4.0,), (4.0,), (8,), (False,)), 1.0)],
    "prior-draws": [lambda e: average_prior({0: 1.0}, AngularBasis(), 1, seed=0)],
    "trials": [lambda e: run_ensemble(e.state, e.physical, EnsembleSpec(0.01), 0, seed=0)],
    "equivariance-bins": [
        lambda e: equivariance_report({0.0: np.zeros((4, 2))}, e.state, 1.0, n_bins=1)],
}
assert ENGINE_CALLS.keys() == ENGINE_RULES.keys()


@pytest.fixture(scope="module")
def engines():
    """A ring state and a small grid run for the ``ENGINE_CALLS``."""
    physical = PhysicalConfig()
    grid = CartesianGrid((-4.0,), (4.0,), (16,), (False,))
    system = MetricPotentialSystem(1)
    psi = np.full(16, 1.0 + 0j) / np.sqrt(grid.norm2(np.ones(16)))
    return SimpleNamespace(
        physical=physical, grid=grid, system=system, psi=psi,
        op=build_metric_hamiltonian(system, 1.0, grid),
        state=prepare_initial_state({0: np.sqrt(0.5), 1: np.sqrt(0.5)},
                                    GaussianPacket(0.0, physical.sigma), physical, GridSpec()))


def make_config(tmp_path, overrides=None, **top):
    data = json.loads(json.dumps(MINIMAL_BORN))
    for section, vals in (overrides or {}).items():
        if isinstance(vals, dict):
            data.setdefault(section, {}).update(vals)
        else:
            data[section] = vals
    data.update(top)
    data.setdefault("out_dir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path, data


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_BORN))
        assert cfg["threads"] == 1
        assert cfg["physical"]["sigma"] == 0.05
        assert (cfg.grid().q2_min, cfg.grid().q2_max) == (-4.0, 4.0)
        # the engine dataclasses state the defaults and name the keys
        bare = parse_config(json.dumps({"experiment": "born"}))
        views = (bare.grid(), bare.physical(), bare.stochastic(), bare.ensemble())
        defaults = (GridSpec(), PhysicalConfig(), StochasticParams(tau_lambda=math.inf),
                    EnsembleSpec())
        assert list(map(astuple, views)) == list(map(astuple, defaults))   # GridSpec has eq=False
        assert (bare.state(), bare.appendix()) == (StateSpec(), AppendixSpec())
        assert list(cfg["physical"]) == [f.name for f in fields(PhysicalConfig)]
        assert list(bare["state"]) == [f.name for f in fields(StateSpec)]
        assert list(bare["appendix"]) == [f.name for f in fields(AppendixSpec)]
        assert list(cfg["stochastic"]) == [f.name for f in fields(StochasticParams)]
        # integer-valued numbers give float fields
        ints = parse_config(json.dumps({"experiment": "born", "physical": {"g": 1},
                                        "stochastic": {"tau_xi": 1}}))
        for view in (ints.physical(), ints.stochastic()):
            assert all(type(getattr(view, f.name)) is float
                       for f in fields(view) if f.type == "float")
        assert (ints.physical().g, ints.stochastic().tau_xi) == (1.0, 1.0)

    def test_action_scale_rule_reported_once(self):
        # |lambda| is physical.lambda_mag alone; the stochastic view has no copy to check
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"experiment": "stochastic-check",
                                     "physical": {"lambda_mag": 0}}))
        assert info.value.violations == ["physical: lambda_mag must be positive and finite"]

    def test_round_trip(self):
        cfg = parse_config(json.dumps(MINIMAL_BORN))
        again = parse_config(serialize_config(cfg))
        assert again.raw == cfg.raw

    def test_packet_separation_violation_names_path(self):
        bad = dict(MINIMAL_BORN, physical={"sigma": 0.2, "sep_factor": 8.0})
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("physical.sep_factor" in v for v in err.value.violations)

    def test_unknown_key_reported_with_path(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["grid"]["n_thetas"] = 12
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("grid.n_thetas" in v for v in err.value.violations)

    def test_type_mismatch_reported_with_path(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["ensemble"]["n_trials"] = "many"
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any(v.startswith("ensemble.n_trials") for v in err.value.violations)

    def test_timescale_hierarchy_enforced(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["stochastic"] = {"tau_xi": 0.002, "dt": 0.001}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("stochastic" in v for v in err.value.violations)

    def test_sign_hierarchy_applies_to_actual_velocity_only(self):
        data = {"experiment": "born", "velocity": "effective",
                "ensemble": {"dt_traj": 0.01}}
        assert parse_config(json.dumps(data)).ensemble().dt_traj == 0.01
        data["velocity"] = "actual"
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(data))
        assert any(v.startswith("ensemble.dt_traj") for v in err.value.violations)

    def test_trial_count_must_be_positive(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["ensemble"]["n_trials"] = 0
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any(v.startswith("ensemble.n_trials") for v in err.value.violations)

    def test_traj_step_must_divide_duration(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["ensemble"]["dt_traj"] = 0.0003
        bad["stochastic"] = {"tau_xi": 0.02}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("dt_traj" in v for v in err.value.violations)
        # zero steps: within the integrality tolerance of 0, but nothing to integrate
        zero = {"experiment": "trajectories", "physical": {"t_M": 1e-10, "sigma": 1e-12},
                "ensemble": {"dt_traj": 1.0}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(zero))
        assert any(v.startswith("ensemble.dt_traj") for v in err.value.violations)

    def test_pointer_drift_must_fit_grid(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["grid"] = {"n_theta": 64, "q2_min": -1.0, "q2_max": 1.0, "n_q2": 256}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("q2_max" in v for v in err.value.violations)

    def test_pointer_rule_is_signed(self, tmp_path):
        # from -3.2 the mode-0 packet stays put and the mode-1 packet moves up
        # to -2.2 at t_M: both stay 5 sigma inside the grid, so the run goes ahead
        edge = {"state": {"modes": [0, 1], "weights": [0.5, 0.5], "packet_center": -3.2},
                "ensemble": {"n_trials": 200, "dt_traj": 0.01}}
        path, _ = make_config(tmp_path, edge)
        parse_config(path.read_text())
        assert cli_main(["born", "--config", str(path)]) == 0
        # mirrored, the mode-1 packet ends at 4.2, past 4 - 5 sigma
        edge["state"]["packet_center"] = 3.2
        path, _ = make_config(tmp_path, edge)
        with pytest.raises(ConfigError) as err:
            parse_config(path.read_text())
        assert any(v.startswith("grid.q2_max/q2_min") for v in err.value.violations)
        assert cli_main(["born", "--config", str(path)]) == 1

    def test_sub_threshold_weight_is_unoccupied(self, tmp_path):
        # a weight-1e-20 mode has |c|^2 below the occupied threshold: it drags no
        # packet, so it cannot overlap the mode-0 ... 1 gap at sigma 0.2
        sub = {"physical": {"sigma": 0.2},
               "state": {"modes": [-1, 1, 0], "weights": [0.5, 0.5, 1e-20]}}
        path, _ = make_config(tmp_path, sub)
        parse_config(path.read_text())
        assert cli_main(["born", "--config", str(path)]) in (0, 3)

    def test_both_state_checks_reported(self):
        # overlapping packets that also leave the grid name both paths
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["grid"].update(q2_min=-1.0, q2_max=1.0)
        bad["physical"] = {"sigma": 0.2}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        paths = [v.split(":")[0] for v in err.value.violations]
        assert paths == ["physical.sep_factor", "grid.q2_max/q2_min"]

    @pytest.mark.parametrize("kind, section, values, paths", BAD_SECTION_KEYS)
    def test_each_bad_key_of_a_section_reported(self, kind, section, values, paths):
        # a spec names every key that breaks a rule, each under its own path
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["experiment"] = kind
        bad.setdefault(section, {}).update(values)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert sorted({v.split(":")[0] for v in err.value.violations}) == paths

    def test_experiment_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{}")
        assert err.value.violations == ["experiment: required"]

    @pytest.mark.parametrize("text, violation", [
        ('{"experiment": "born",', "json: "),
        ("[1, 2]", "top level: expected an object"),
        ('"born"', "top level: expected an object"),
    ], ids=["invalid-json", "list", "string"])
    def test_text_that_is_not_a_config_object_rejected(self, text, violation):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(violation)

    def test_unknown_experiment_kind(self):
        bad = dict(MINIMAL_BORN, experiment="teleport")
        with pytest.raises(ConfigError):
            parse_config(json.dumps(bad))

    def test_multiple_violations_all_reported(self):
        bad = json.loads(json.dumps(MINIMAL_BORN))
        bad["grid"]["n_theta"] = "x"
        bad["physical"] = {"sigma": "wide"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.violations) >= 2


# a small run of each experiment kind; the Born chi2 floor fails every run
KIND_RUNS = {
    "born": {"checks": {"chi2_p_min": 1 - 1e-12}},
    "trajectories": {"ensemble": {"n_trials": 20, "n_store": 2, "store_every": 100}},
    "prior-average": {"prior": {"n_mc": 1000}},
    "repeatability": {"repeat": {"n_repeats": 5}},
    "appendix": {"appendix": {"n_points": 64, "n_steps": 4, "record_every": 2}},
    "lambda-sweep": {"appendix": {"n_points": 64, "n_steps": 4, "record_every": 2}},
    "stochastic-check": {"checks": {"n_draws": 1000}},
}


def read_psi_final(out: Path) -> np.ndarray:
    """The ``q``, ``re`` and ``im`` columns of a run's ``psi_final.csv``."""
    lines = (out / "psi_final.csv").read_text().splitlines()
    assert lines[0] == "q,re,im"
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T


class TestExperiments:
    def test_born_writes_artifacts_and_passes_checks(self, tmp_path):
        path, data = make_config(tmp_path)
        cfg = parse_config(path.read_text())
        status = run_experiment(cfg)
        assert status == 0
        out = Path(data["out_dir"])
        for name in ("records.jsonl", "summary.json", "frequencies.csv",
                     "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["passed"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"records.jsonl", "summary.json",
                                          "frequencies.csv"}

    def test_summary_consistent_with_records(self, tmp_path):
        path, data = make_config(tmp_path)
        run_experiment(parse_config(path.read_text()))
        out = Path(data["out_dir"])
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        counts = {}
        for rec in records:
            if rec["outcome_index"] is not None:
                counts[rec["outcome_index"]] = counts.get(rec["outcome_index"], 0) + 1
        stats = summary["stats"]
        assert [counts.get(i, 0) for i in stats["indices"]] == stats["counts"]

    def test_stochastic_check_experiment(self, tmp_path):
        path, data = make_config(tmp_path, overrides={
            "checks": {"n_draws": 200000}}, experiment="stochastic-check")
        status = run_experiment(parse_config(path.read_text()))
        assert status == 0
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        assert summary["sign_locked"]
        assert summary["separability_max_error"] < 1e-12
        assert summary["gaussian_control_max_error"] > 1e-2

    def test_prior_average_experiment(self, tmp_path):
        path, data = make_config(tmp_path, overrides={"prior": {"n_mc": 20000}},
                                 experiment="prior-average")
        assert run_experiment(parse_config(path.read_text())) == 0
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        assert summary["prior_average"]["analytic"] == pytest.approx(-0.3)

    def test_repeatability_experiment(self, tmp_path):
        path, data = make_config(tmp_path, overrides={"repeat": {"n_repeats": 50}},
                                 experiment="repeatability")
        assert run_experiment(parse_config(path.read_text())) == 0
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        assert summary["agreement"] == 1.0

    def test_repeatability_flagged_first_event_fails_check(self, tmp_path):
        # coarse actual-velocity steps leave trial 0 of seed 1 outside every window
        path, data = make_config(tmp_path, overrides={
            "physical": {"g": -1.0, "sigma": 0.01, "sep_factor": 6.0},
            "stochastic": {"tau_xi": 100.0}, "ensemble": {"dt_traj": 0.5},
            "repeat": {"n_repeats": 2}}, experiment="repeatability", velocity="actual",
            seed=1)
        assert cli_main(["repeatability", "--config", str(path)]) == 3
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        assert summary["first_outcome"] is None and summary["n_agreeing"] == 0
        (item,) = summary["checks"]["items"]
        assert not item["passed"] and "flagged" in item["detail"]

    def test_actual_repeats_draw_their_own_sign_paths(self, tmp_path, monkeypatch):
        # the repeats run on the configured velocity too: one path per event
        import stochaction.measurement as measurement
        real = measurement.sample_sign_path
        calls = []
        monkeypatch.setattr(measurement, "sample_sign_path",
                            lambda *args: calls.append(args) or real(*args))
        path, data = make_config(tmp_path, overrides={"repeat": {"n_repeats": 50}},
                                 experiment="repeatability", velocity="actual", seed=3)
        assert run_experiment(parse_config(path.read_text())) == 0
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        assert len(calls) == 1 + 50 and summary["agreement"] == 1.0

    def test_trajectories_experiment(self, tmp_path):
        path, data = make_config(tmp_path, overrides={
            "ensemble": {"n_trials": 100, "dt_traj": 0.002, "n_store": 5,
                         "store_every": 50}}, experiment="trajectories")
        assert run_experiment(parse_config(path.read_text())) == 0
        out = Path(data["out_dir"])
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "trial,t,theta1,q2,lambda_sign"
        assert len(lines) == 1 + 5 * 11   # 5 trials, 500 steps stored every 50

    def test_trajectory_signs_drawn_once_per_trial(self, tmp_path, monkeypatch):
        # the lambda_sign column reads the paths the ensemble drew; no trial's is drawn twice
        import stochaction.measurement as measurement
        from stochaction.rng import SIGNS, stream
        real = measurement.sample_sign_path
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(measurement, "sample_sign_path", counting)
        path, data = make_config(tmp_path, overrides={
            "ensemble": {"n_trials": 100, "dt_traj": 0.002, "n_store": 5, "store_every": 50},
            "stochastic": {"tau_xi": 0.02, "sign_law": "telegraph", "flip_prob": 0.1}},
            experiment="trajectories", velocity="actual")
        cfg = parse_config(path.read_text())
        assert run_experiment(cfg) == 0
        assert len(calls) == 100
        lines = (Path(data["out_dir"]) / "trajectories.csv").read_text().splitlines()
        for row in (line.split(",") for line in lines[1:]):
            trial, step = int(row[0]), round(float(row[1]) / 0.002)
            want = real(cfg.stochastic(), 500, stream(42, SIGNS, trial))
            assert int(row[4]) == want[min(step, 499)]

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_trajectory_rows_end_at_recorded_configs(self, tmp_path, monkeypatch,
                                                     velocity):
        import stochaction.experiments as experiments
        finals = []
        real = experiments.run_ensemble

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            finals.append(out[2]["final_configs"])
            return out

        monkeypatch.setattr(experiments, "run_ensemble", spy)
        path, data = make_config(tmp_path, overrides={
            "ensemble": {"n_trials": 100, "dt_traj": 0.002, "n_store": 20,
                         "store_every": 50},
            "state": {"modes": [-3, -1, 1, 3], "weights": [0.1, 0.4, 0.3, 0.2]}},
            experiment="trajectories", velocity=velocity, seed=5)
        assert run_experiment(parse_config(path.read_text())) == 0
        lines = (Path(data["out_dir"]) / "trajectories.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(finals) == 1 and len(rows) == 20 * 11
        for trial in range(20):
            last = rows[11 * trial + 10]
            assert int(last[0]) == trial and float(last[1]) == 1.0
            assert float(last[2]) == np.mod(finals[0][trial, 0], 2 * np.pi)
            assert float(last[3]) == finals[0][trial, 1]

    def test_appendix_experiment_with_residuals(self, tmp_path):
        path, data = make_config(tmp_path, overrides={
            "appendix": {"scalar": "0.5*q^2", "n_steps": 100, "record_every": 10,
                         "residual_check": True, "initial_center": 1.0,
                         "initial_width": 0.7071067811865476,
                         "save_wavefunctions": True}},
            experiment="appendix")
        assert run_experiment(parse_config(path.read_text())) == 0
        out = Path(data["out_dir"])
        assert (out / "observables.csv").exists()
        assert (out / "psi_final.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_norm"] == pytest.approx(1.0, abs=1e-10)
        assert summary["hjm_residuals"]["hj_mean"] < 0.1
        q, re, im = read_psi_final(out)
        assert len(q) == 512
        assert abs(np.sum(re**2 + im**2) * (q[-1] - q[0]) / 511 - 1.0) < 0.01
        # the CSV is the field's one encoding
        assert {f.name for f in out.iterdir()} == {"manifest.json", "observables.csv",
                                                   "psi_final.csv", "summary.json"}

    def test_psi_final_csv_is_the_final_field_bit_for_bit(self, tmp_path):
        # floats by repr, so the file parses back to the evolved field exactly
        path, data = make_config(tmp_path, overrides={
            "appendix": {"scalar": "0.5*q^2", "n_points": 128, "n_steps": 20,
                         "record_every": 10, "save_wavefunctions": True}},
            experiment="appendix")
        cfg = parse_config(path.read_text())
        assert run_experiment(cfg) == 0
        app = cfg.appendix()
        grid, system, psi0 = appendix_setup(app)
        op = build_metric_hamiltonian(system, cfg.physical().lambda_mag, grid)
        final, _ = evolve_grid(psi0, op, app.dt, app.n_steps, record_every=app.record_every)
        q, re, im = read_psi_final(Path(data["out_dir"]))
        for got, want in ((q, grid.axis(0)), (re, final.real), (im, final.imag)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_residuals_of_a_packet_within_the_margin_are_null(self, tmp_path):
        # the packet sits within the stencil margin of the closed edge at 8, so no
        # snapshot has a point to take a residual at
        path, data = make_config(tmp_path, overrides={
            "appendix": {"n_points": 32, "initial_center": 7.6, "initial_width": 0.1,
                         "n_steps": 20, "record_every": 5, "residual_check": True}},
            experiment="appendix")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["appendix", "--config", str(path)]) == 0
        res = json.loads((Path(data["out_dir"]) / "summary.json").read_text())["hjm_residuals"]
        assert res["continuity_rms"] == res["hj_rms"] == [None, None, None]
        assert res["continuity_mean"] is None and res["hj_mean"] is None

    @pytest.mark.parametrize("enabled", [False, True], ids=["disabled", "enabled"])
    @pytest.mark.parametrize("kind", sorted(KIND_RUNS))
    def test_checks_block_only_for_declared_enabled_checks(self, tmp_path, kind, enabled):
        overrides = dict(KIND_RUNS[kind])
        overrides["checks"] = {**overrides.get("checks", {}), "enabled": enabled}
        path, data = make_config(tmp_path, overrides=overrides, experiment=kind)
        status = cli_main([kind, "--config", str(path)])
        summary = json.loads((Path(data["out_dir"]) / "summary.json").read_text())
        declares = kind not in ("trajectories", "appendix")
        assert ("checks" in summary) == (enabled and declares)
        if not (enabled and declares):
            assert status == 0
        elif kind == "born":
            # the chi2 floor no run can pass
            assert status == 3 and not summary["checks"]["passed"]

    @pytest.mark.parametrize("experiment", ["appendix", "lambda-sweep"])
    def test_manifest_records_grid_health(self, tmp_path, experiment):
        path, data = make_config(tmp_path, overrides={
            "appendix": {"deltas": [0.0, 0.25], "n_steps": 40, "record_every": 10,
                         "n_points": 128, "metric": "1+0.1*sin(q)^2",
                         "vector": ["0.2*cos(q)"], "scalar": "0.5*q^2"}},
            experiment=experiment)
        assert run_experiment(parse_config(path.read_text())) == 0
        out = Path(data["out_dir"])
        manifest = json.loads((out / "manifest.json").read_text())
        appendix = experiment == "appendix"
        assert set(manifest["files"]) == {"observables.csv" if appendix else "sweep.csv",
                                          "summary.json"}
        entries = manifest["grid"]
        assert [e["lambda_mag"] for e in entries] == ([1.0] if appendix else [1.0, 1.25])
        # one worker process per scale, up to the CPU count
        assert manifest.get("grid_workers") == (None if appendix
                                                else min(2, os.cpu_count() or 1))
        for entry in entries:
            assert entry["hermiticity_defect"] == 0.0
            assert 0.0 <= entry["max_norm_error"] < 1e-12

    def test_lambda_sweep_experiment(self, tmp_path):
        path, data = make_config(tmp_path, overrides={
            "appendix": {"deltas": [0.0, 0.25], "n_steps": 100,
                         "record_every": 50, "x_min": -20.0, "x_max": 20.0,
                         "n_points": 256}},
            experiment="lambda-sweep")
        assert run_experiment(parse_config(path.read_text())) == 0
        out = Path(data["out_dir"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["deviations"]["0.0"] == 0.0
        assert (out / "sweep.csv").exists()


class TestCli:
    def test_examples_parse_and_the_readme_command_runs(self, tmp_path):
        # every shipped config parses, and the README's first command runs on
        # the Born example; its declared checks decide between 0 and 3
        examples = sorted(EXAMPLES.glob("*.json"))
        assert EXAMPLES / "born.json" in examples
        for path in examples:
            parse_config(path.read_text())
        out = tmp_path / "results"
        status = cli_main(["born", "--config", str(EXAMPLES / "born.json"), "--seed", "42",
                           "--trials", "64", "--out", str(out)])
        assert status in (0, 3)
        assert len((out / "records.jsonl").read_text().splitlines()) == 64

    def test_run_and_exit_zero(self, tmp_path, capsys):
        path, data = make_config(tmp_path)
        assert cli_main(["born", "--config", str(path)]) == 0

    def test_validation_failure_exit_one(self, tmp_path, capsys):
        path, _ = make_config(tmp_path, overrides={"physical": {"sigma": 0.5}})
        assert cli_main(["born", "--config", str(path)]) == 1
        assert "sep_factor" in capsys.readouterr().err

    def test_integrator_other_than_rk4_exit_one(self, tmp_path, capsys):
        path, _ = make_config(tmp_path,
                              overrides={"ensemble": {"integrator": "explicit-midpoint"}})
        assert cli_main(["born", "--config", str(path)]) == 1
        assert "ensemble.integrator" in capsys.readouterr().err

    def test_node_policy_other_than_default_exit_one(self, tmp_path, capsys):
        path, _ = make_config(tmp_path, overrides={"ensemble": {"node_policy": "clamp"}})
        assert cli_main(["born", "--config", str(path)]) == 1
        assert "ensemble.node_policy" in capsys.readouterr().err

    def test_subcommand_kind_mismatch(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        assert cli_main(["repeatability", "--config", str(path)]) == 1

    def test_checks_failure_exit_three(self, tmp_path):
        # a floor that parses (below 1) but that this seed's p does not reach
        path, _ = make_config(tmp_path, overrides={
            "checks": {"chi2_p_min": 1.0 - 1e-12}})
        assert cli_main(["born", "--config", str(path)]) == 3

    @pytest.mark.parametrize("kind, overrides, key", UNPASSABLE_THRESHOLDS)
    def test_threshold_no_run_can_pass_exit_one(self, tmp_path, capsys, kind, overrides,
                                                key):
        # rejected at parse, before any work, naming the key
        small = {"ensemble": {"n_trials": 50}, "prior": {"n_mc": 100},
                 "checks": {"n_draws": 100}}
        path, _ = make_config(tmp_path, experiment=kind, overrides={
            section: {**small.get(section, {}), **overrides.get(section, {})}
            for section in small.keys() | overrides.keys()})
        assert cli_main([kind, "--config", str(path)]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exit_one(self, tmp_path):
        assert cli_main(["born", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "born",')
        assert cli_main(["born", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("invalid JSON: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, trials, violation", [
        ("[1, 2]", None, "top level: expected an object"),
        ('"born"', None, "top level: expected an object"),
        ("NaN", None, "top level: expected an object"),
        ('{"experiment": "born", "ensemble": [1]}', "64", "ensemble: expected an object"),
        ('{"experiment": "born", "ensemble": "x"}', "64", "ensemble: expected an object"),
    ], ids=["list", "string", "nan", "ensemble-list", "ensemble-string"])
    def test_config_that_is_not_an_object_exit_one(self, tmp_path, capsys, text, trials,
                                                    violation):
        # the overrides leave it for the parser to name: cli_main returns
        # rather than raising (a traceback from the command line)
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["born", "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli_main(argv + (["--trials", trials] if trials else [])) == 1
        err = capsys.readouterr().err
        assert f"- {violation}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, overrides, violation", SHAPE_AND_BOUND_RULES)
    def test_shape_and_bound_rules_rejected_at_parse(self, tmp_path, capsys, experiment,
                                                     overrides, violation):
        path, data = make_config(tmp_path, overrides=overrides, experiment=experiment)
        assert cli_main([experiment, "--config", str(path)]) == 1
        assert f"- {violation}" in capsys.readouterr().err
        assert not Path(data["out_dir"]).exists()

    def test_step_bound_holds_to_a_few_ulp(self):
        # the quotient may round below the decimal it stands for: 0.21 / 10 is
        # 0.020999999999999998, while 0.03 / 10 is 0.003
        for tau_xi, dt_traj in ((0.03, 0.003), (0.21, 0.021)):
            cfg = parse_config(json.dumps({
                "experiment": "born", "velocity": "actual", "stochastic": {"tau_xi": tau_xi},
                "physical": {"t_M": 2.1}, "ensemble": {"dt_traj": dt_traj}}))
            assert cfg.ensemble().dt_traj == dt_traj

    def test_format_is_not_an_option(self, tmp_path, capsys):
        # a Born run writes one frequency table, frequencies.csv
        path, _ = make_config(tmp_path, format="csv")
        assert cli_main(["born", "--config", str(path)]) == 1
        assert "- format: unknown key" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["born", "--config", str(path), "--format", "csv"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_echo_config(self, tmp_path, capsys):
        path, _ = make_config(tmp_path)
        assert cli_main(["born", "--config", str(path), "--echo-config"]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["experiment"] == "born"
        assert echoed["physical"]["sigma"] == 0.05

    @pytest.mark.parametrize("experiment", ["born", "repeatability"])
    def test_runtime_overflow_writes_error_json(self, tmp_path, monkeypatch, experiment):
        # escapes are tail events, so inject one to exercise the error path:
        # fail_on_overflow must surface the trial in the error artifact (for
        # repeatability, repeat 3: its first event is a single trial)
        import stochaction.measurement as meas
        real = meas.integrate_ensemble

        def leaky(*args, **kwargs):
            out = real(*args, **kwargs)
            if 3 < len(out["overflow"]):
                out["overflow"][3] = True
            return out

        monkeypatch.setattr(meas, "integrate_ensemble", leaky)
        path, data = make_config(tmp_path, overrides={
            "ensemble": {"n_trials": 50, "dt_traj": 0.002, "fail_on_overflow": True},
            "repeat": {"n_repeats": 50}}, experiment=experiment)
        status = cli_main([experiment, "--config", str(path)])
        assert status == 2
        err = json.loads((Path(data["out_dir"]) / "error.json").read_text())
        assert err["error"] == "DomainOverflowError"
        assert err["trial"] == 3

    @pytest.mark.parametrize("experiment", ["born", "trajectories"])
    def test_fail_on_overflow_holds_for_every_ensemble_kind(self, tmp_path, experiment):
        # coarse actual-velocity steps carry trial 71 of seed 1 off this pointer grid
        data = {"experiment": experiment, "seed": 1, "velocity": "actual",
                "physical": {"g": -1.0, "sigma": 0.01, "sep_factor": 6.0},
                "stochastic": {"tau_xi": 100.0},
                "ensemble": {"dt_traj": 0.5, "n_trials": 200, "fail_on_overflow": True},
                "grid": {"q2_min": -1.051, "q2_max": 1.051}, "out_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli_main([experiment, "--config", str(path)]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert (err["error"], err["trial"]) == ("DomainOverflowError", 71)

    def test_two_dimensional_appendix_rejected_at_parse(self, tmp_path, capsys):
        path, data = make_config(tmp_path, overrides={"appendix": {"dimension": 2}},
                                 experiment="appendix")
        assert cli_main(["appendix", "--config", str(path)]) == 1
        assert "appendix.dimension" in capsys.readouterr().err
        assert not (Path(data["out_dir"]) / "error.json").exists()

    @pytest.mark.parametrize("experiment, appendix, path", UNRUNNABLE_APPENDIX)
    def test_unrunnable_appendix_rejected_at_parse(self, tmp_path, capsys, experiment,
                                                   appendix, path):
        path_cfg, data = make_config(tmp_path, overrides={"appendix": appendix},
                                     experiment=experiment)
        assert cli_main([experiment, "--config", str(path_cfg)]) == 1
        assert path in capsys.readouterr().err
        assert not Path(data["out_dir"]).exists()

    @pytest.mark.parametrize("experiment, lambda_mag, deltas", GRID_SCALES_TOO_LARGE)
    def test_grid_scale_beyond_magnitude_bound_rejected_at_parse(
            self, tmp_path, capsys, experiment, lambda_mag, deltas):
        path_cfg, data = make_config(
            tmp_path, experiment=experiment,
            overrides={"physical": {"lambda_mag": lambda_mag},
                       "appendix": {**GRID_RUN, "deltas": deltas}})
        assert cli_main([experiment, "--config", str(path_cfg)]) == 1
        assert "physical.lambda_mag" in capsys.readouterr().err
        assert not Path(data["out_dir"]).exists()

    def test_grid_scale_bound_leaves_other_kinds_alone(self, tmp_path, capsys):
        # a Born run builds no grid; a sweep scale at the bound still runs
        path_cfg, _ = make_config(tmp_path, overrides={"physical": {"lambda_mag": 1e200}})
        assert cli_main(["born", "--config", str(path_cfg), "--echo-config"]) == 0
        path_cfg, _ = make_config(
            tmp_path, experiment="lambda-sweep",
            overrides={"physical": {"lambda_mag": 1e50},
                       "appendix": {**GRID_RUN, "deltas": [0.0, -0.5]}})
        assert cli_main(["lambda-sweep", "--config", str(path_cfg), "--echo-config"]) == 0

    # numpy warnings are errors: a rejected field or packet must not leak one to stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("experiment, appendix, path", list(BAD_APPENDIX_FIELDS.values()),
                             ids=list(BAD_APPENDIX_FIELDS))
    def test_bad_appendix_field_rejected_at_parse(self, tmp_path, capsys, experiment,
                                                  appendix, path):
        path_cfg, data = make_config(tmp_path, overrides={"appendix": appendix},
                                     experiment=experiment)
        assert cli_main([experiment, "--config", str(path_cfg)]) == 1
        assert path in capsys.readouterr().err
        assert not (Path(data["out_dir"]) / "error.json").exists()

    @pytest.mark.parametrize("experiment, scalar, message", list(ARITHMETIC_FAILURES.values()),
                             ids=list(ARITHMETIC_FAILURES))
    def test_arithmetic_failure_named_in_grammar_terms(self, tmp_path, capsys, experiment,
                                                       scalar, message):
        path_cfg, data = make_config(tmp_path, overrides={"appendix": {"scalar": scalar}},
                                     experiment=experiment)
        assert cli_main([experiment, "--config", str(path_cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Numerical result" not in err and "not 'complex'" not in err
        assert not (Path(data["out_dir"]) / "error.json").exists()

    @pytest.mark.parametrize("experiment, section, key, value", TOO_SMALL_COUNTS)
    def test_too_small_sample_count_rejected_at_parse(self, tmp_path, capsys, experiment,
                                                      section, key, value):
        overrides = {section: {key: value}}
        if section == "equivariance":
            overrides[section]["enabled"] = True
        path, data = make_config(tmp_path, overrides=overrides, experiment=experiment)
        assert cli_main([experiment, "--config", str(path)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (Path(data["out_dir"]) / "error.json").exists()

    @pytest.mark.parametrize("rule", list(ENGINE_RULES))
    def test_engine_rule_fails_at_parse_and_in_the_engine_alike(self, tmp_path, capsys,
                                                                engines, rule):
        # each rule is stated once, in the engine module that enforces it: the
        # config names the key and every engine entry raises the same text
        experiment, overrides, path = ENGINE_RULES[rule]
        cfg_path, data = make_config(tmp_path, overrides=overrides, experiment=experiment)
        assert cli_main([experiment, "--config", str(cfg_path)]) == 1
        lines = [line.strip()[2:] for line in capsys.readouterr().err.splitlines()
                 if line.strip().startswith(f"- {path}: ")]
        assert len(lines) == 1 and not Path(data["out_dir"]).exists()
        messages, types = set(), set()
        for call in ENGINE_CALLS[rule]:
            with pytest.raises(ValueError) as info:
                call(engines)
            types.add(info.type)
            if isinstance(info.value, FieldErrors):
                assert [name for name, _ in info.value.errors] == [path.split(".")[-1]]
                messages.add(info.value.errors[0][1])
            else:
                messages.add(str(info.value))
        assert len(messages) == 1
        if rule == "normalization":
            # the config normalizes its weights, so a state reaches the rule only
            # through StateSpec's positive total
            assert types == {DegenerateInputError}
            assert messages.pop().startswith("coefficients are not normalized")
        else:
            assert lines == [f"{path}: {messages.pop()}"]

    def test_grid_counts_are_inert(self, tmp_path):
        # only the pointer bounds act; the ring and line counts change no byte
        files = []
        for n_theta, n_q2 in ((8, 32), (128, 1024)):
            out = tmp_path / f"grid-{n_theta}"
            path, _ = make_config(tmp_path, overrides={
                "grid": {"n_theta": n_theta, "n_q2": n_q2},
                "ensemble": {"n_trials": 64, "dt_traj": 0.01}})
            assert cli_main(["born", "--config", str(path), "--out", str(out)]) == 0
            files.append(json.loads((out / "manifest.json").read_text())["files"])
        assert files[0] == files[1]

    def test_l_max_only_bounds_modes(self, tmp_path):
        # no dynamics or diagnostic reads the unoccupied basis modes: a Born run
        # with equivariance on writes the same bytes at l_max 2 and 8
        files = []
        for l_max in (2, 8):
            out = tmp_path / f"l_max-{l_max}"
            path, _ = make_config(tmp_path, overrides={
                "state": {"l_max": l_max}, "equivariance": {"enabled": True},
                "ensemble": {"n_trials": 2000, "dt_traj": 0.01}}, seed=7)
            assert cli_main(["born", "--config", str(path), "--out", str(out)]) == 0
            files.append(json.loads((out / "manifest.json").read_text())["files"])
        assert files[0] == files[1]

    @pytest.mark.parametrize("state, message", list(UNRUNNABLE_STATES.values()),
                             ids=list(UNRUNNABLE_STATES))
    def test_unrunnable_state_rejected_at_parse(self, tmp_path, capsys, state, message):
        path, data = make_config(tmp_path, overrides={"state": state})
        assert cli_main(["born", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not Path(data["out_dir"]).exists()

    @pytest.mark.parametrize("experiment, seed", OUT_OF_RANGE_SEEDS)
    def test_out_of_range_seed_rejected_at_parse(self, tmp_path, capsys, experiment, seed):
        path, data = make_config(tmp_path, experiment=experiment, seed=seed)
        assert cli_main([experiment, "--config", str(path)]) == 1
        assert "seed: must be in [0, " in capsys.readouterr().err
        assert not Path(data["out_dir"]).exists()

    def test_largest_seed_accepted(self):
        assert parse_config(json.dumps(dict(MINIMAL_BORN, seed=2**64 - 1)))["seed"] == 2**64 - 1

    def test_seed_and_trials_overrides(self, tmp_path):
        path, data = make_config(tmp_path)
        out = tmp_path / "alt"
        assert cli_main(["born", "--config", str(path), "--seed", "7",
                         "--trials", "150", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["ensemble"]["n_trials"] == 150

    def test_manifest_names_its_environment(self, tmp_path):
        path, data = make_config(tmp_path)
        out = tmp_path / "env"
        assert cli_main(["born", "--config", str(path), "--threads", "3",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"cpu_count", "threads", "blas_threads", "numpy", "scipy",
                            "python", "machine"}
        assert env["threads"] == 3
        # the requested count, capped by the CPUs and the chunks
        block = manifest["ensemble"]
        assert block["workers"] == min(3, os.cpu_count() or 1, block["chunks"])
        assert env["cpu_count"] == os.cpu_count()
        assert env["numpy"] == np.__version__
        assert set(manifest["files"]) == {"records.jsonl", "summary.json",
                                          "frequencies.csv"}

    def test_manifest_reports_blas_threads_outside_the_solver(self, tmp_path, monkeypatch):
        path, data = make_config(tmp_path, experiment="appendix",
                                 overrides={"appendix": {"n_steps": 10, "record_every": 5}})
        before = gridop.blas_threads()
        assert cli_main(["appendix", "--config", str(path)]) == 0
        env = json.loads((Path(data["out_dir"]) / "manifest.json").read_text())["environment"]
        assert env["blas_threads"] == before == gridop.blas_threads()
        # no OpenBLAS found: the key is null and the run is unchanged
        monkeypatch.setattr(gridop, "_openblas_calls", lambda: None)
        out = tmp_path / "no-blas"
        assert cli_main(["appendix", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["blas_threads"] is None
        assert manifest["files"] == json.loads(
            (Path(data["out_dir"]) / "manifest.json").read_text())["files"]


    @pytest.mark.parametrize("experiment, overrides, n_trials", [
        ("born", {}, 200),
        ("born", {"velocity": "actual"}, 200),
        ("trajectories", {"ensemble": {"n_store": 3, "store_every": 100}}, 200),
        ("repeatability", {"repeat": {"n_repeats": 20}}, 21),   # first event + repeats
    ])
    def test_manifest_counts_ensemble_safeguards(self, tmp_path, experiment, overrides,
                                                 n_trials):
        path, data = make_config(tmp_path, overrides=overrides, experiment=experiment)
        assert cli_main([experiment, "--config", str(path)]) == 0
        block = json.loads((Path(data["out_dir"]) / "manifest.json").read_text())["ensemble"]
        assert set(block) == {"n_trials", "n_decided", "mean_decision_time",
                              "n_node_clamped", "node_held_steps", "chunks", "chunk_rows",
                              "workers"}
        assert block["workers"] == 1
        assert block["n_trials"] == n_trials
        assert 1 <= block["chunks"] <= n_trials and 1 <= block["chunk_rows"] <= n_trials
        assert 0 <= block["n_decided"] <= n_trials
        assert 0 <= block["n_node_clamped"] <= n_trials
        # a held row-step for each step a trial waited at a node
        assert (block["node_held_steps"] == 0) == (block["n_node_clamped"] == 0)
        assert block["node_held_steps"] >= block["n_node_clamped"]
        # the README 3-mode state separates well before t_M, under either velocity
        assert block["n_decided"] > n_trials // 2
        assert 0.0 <= block["mean_decision_time"] < 1.0

    @pytest.mark.parametrize("velocity", ["effective", "actual"])
    def test_manifest_counts_held_steps_at_any_worker_count(self, tmp_path, monkeypatch,
                                                            velocity):
        # a node threshold this high holds Born-drawn rows in the packet tails
        monkeypatch.setattr(trajectories, "EPS_NODE_REL", 1e-2)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        blocks = {}
        for threads in (1, 2):
            (tmp_path / str(threads)).mkdir()
            path, data = make_config(tmp_path / str(threads), overrides={"velocity": velocity})
            cli_main(["born", "--config", str(path), "--threads", str(threads)])
            blocks[threads] = json.loads(
                (Path(data["out_dir"]) / "manifest.json").read_text())["ensemble"]
        assert (blocks[1]["workers"], blocks[2]["workers"]) == (1, 2)
        assert blocks[1]["n_node_clamped"] == blocks[2]["n_node_clamped"] > 0
        assert blocks[1]["node_held_steps"] == blocks[2]["node_held_steps"]
        assert blocks[1]["node_held_steps"] >= blocks[1]["n_node_clamped"]

    def test_manifest_records_chunking(self, tmp_path):
        # the benchmark's canonical Born run: 3 modes, 4096 trials, 1 thread
        path, data = make_config(tmp_path, experiment="born", threads=1, overrides={
            "ensemble": {"n_trials": 4096, "dt_traj": 0.001},
            "state": {"modes": [-1, 0, 1], "weights": [0.5, 0.3, 0.2]}})
        assert cli_main(["born", "--config", str(path)]) == 0
        block = json.loads((Path(data["out_dir"]) / "manifest.json").read_text())["ensemble"]
        assert (block["chunks"], block["chunk_rows"]) == (1, 4096)


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        path, data = make_config(tmp_path, overrides={
            "ensemble": {"n_trials": 600, "dt_traj": 0.002}})
        outs = []
        for tag, threads in (("a", 1), ("b", 8), ("c", 1)):
            out = tmp_path / tag
            assert cli_main(["born", "--config", str(path), "--out", str(out),
                             "--threads", str(threads)]) == 0
            outs.append(out)
        names = ("records.jsonl", "summary.json", "frequencies.csv")
        for name in names:
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]
        hash_maps = [json.loads((o / "manifest.json").read_text())["files"]
                     for o in outs]
        assert hash_maps[0] == hash_maps[1] == hash_maps[2]


_ANY_FLOAT = st.floats()          # NaN, +-Infinity and 1e308 included


@st.composite
def grid_and_state(draw):
    """Schema-valid ``grid`` and ``state`` sections: runnable ones with up to
    two fields drawn from an unusual range (below a minimum, inverted or
    narrow bounds, repeated or fractional modes, non-finite numbers)."""
    n = draw(st.integers(1, 4))

    def sized(elements):
        return st.lists(elements, min_size=n, max_size=n)

    # key -> (usual values, unusual values)
    fields = {
        "n_theta": (st.integers(8, 256), st.integers(-1, 7)),
        "n_q2": (st.integers(32, 2048), st.integers(-1, 31)),
        "q2_min": (st.floats(-6.0, -4.0), st.floats(-6.0, 1.0) | _ANY_FLOAT),
        "q2_max": (st.floats(4.0, 6.0), st.floats(-1.0, 6.0) | _ANY_FLOAT),
        "modes": (st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True),
                  st.lists(st.integers(-4, 4) | st.floats(-4.0, 4.0), max_size=5)),
        "weights": (sized(st.floats(0.01, 1.0)), sized(st.floats(0.0, 1.0) | _ANY_FLOAT)),
        "phases": (st.none() | sized(st.floats(-7.0, 7.0)), sized(_ANY_FLOAT)),
        "l_max": (st.integers(4, 8), st.integers(-1, 3)),
        "packet_center": (st.floats(-0.5, 0.5), _ANY_FLOAT),
    }
    odd = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    values = {key: draw(unusual if key in odd else usual)
              for key, (usual, unusual) in fields.items()}
    grid_keys = ("n_theta", "n_q2", "q2_min", "q2_max")
    return ({key: values[key] for key in grid_keys},
            {key: value for key, value in values.items() if key not in grid_keys})


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sections=grid_and_state())
# one-mode states whose |c|^2 rounds to 1 + 4.4e-16
@example(sections=({"q2_min": -4.0, "q2_max": 4.0},
                   {"modes": [0], "weights": [1.0], "phases": [0.5650869536481924]}))
@example(sections=({"q2_min": -4.0, "q2_max": 4.0},
                   {"modes": [0], "weights": [1.0], "phases": [3.348872692004718e+16]}))
def test_fuzzed_grid_and_state_fail_at_parse_or_run(tmp_path, sections):
    # a config parse_config accepts runs (exit 0) or fails its checks (exit 3);
    # one it rejects exits 1; none exits 2 or raises
    grid, state = sections
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "config.json"
    path.write_text(json.dumps({"experiment": "born", "seed": 1, "out_dir": str(case / "out"),
                                "grid": grid, "state": state,
                                "ensemble": {"n_trials": 3, "dt_traj": 0.01}}))
    try:
        parse_config(path.read_text())
    except ConfigError:
        expected = {1}
    else:
        expected = {0, 3}
    assert cli_main(["born", "--config", str(path)]) in expected


@st.composite
def physical_and_ensemble(draw):
    """Schema-valid ``physical`` and ``ensemble`` sections and a trajectory kind.

    ``t_M`` and ``dt_traj`` come from short lists, so zero-step, non-integral
    and one-step runs all come up; the other physical fields are runnable
    ones with up to two drawn from an unusual range (``g`` 0 or of either
    sign, a ``sigma`` far below any step, ``sep_factor`` below 6).  At most
    4 trials of at most 200 steps each."""
    # key -> (usual values, unusual values)
    fields = {
        "g": (st.floats(0.5, 1.5) | st.floats(-1.5, -0.5),
              st.sampled_from([0.0, -1.0]) | st.floats(-4.0, 4.0)),
        "sigma": (st.floats(0.005, 0.02), st.sampled_from([1e-12]) | st.floats(1e-3, 0.5)),
        "sep_factor": (st.floats(6.0, 10.0), st.floats(0.0, 20.0)),
        "lambda_mag": (st.floats(0.1, 3.0), st.floats(-1.0, 100.0)),
    }
    odd = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    physical = {key: draw(unusual if key in odd else usual)
                for key, (usual, unusual) in fields.items()}
    physical["t_M"] = draw(st.sampled_from([1.0, 0.5, 2.0, 1e-10]))
    ensemble = {
        "n_trials": draw(st.integers(1, 4)),
        "dt_traj": draw(st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.01])),
        # integrator and node_policy parse at one value only (their own exit-1
        # tests cover the others), so they keep their defaults here
        "fail_on_overflow": False,   # its exit 2 is opt-in
    }
    kind = draw(st.sampled_from(["born", "trajectories", "repeatability"]))
    velocity = draw(st.sampled_from(["effective", "actual"]))
    return kind, velocity, physical, ensemble


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=physical_and_ensemble())
# zero steps, and a repeatability run whose first event is flagged
@example(drawn=("trajectories", "effective", {"t_M": 1e-10, "sigma": 1e-12},
                {"dt_traj": 1.0, "n_trials": 2}))
@example(drawn=("repeatability", "actual", {"g": -1.0, "sigma": 0.01, "sep_factor": 6.0},
                {"dt_traj": 0.5, "n_trials": 1}))
def test_fuzzed_physical_and_ensemble_fail_at_parse_or_run(tmp_path, drawn):
    # as above, for the sections that set the step count and the coupling of
    # the trajectory kinds
    kind, velocity, physical, ensemble = drawn
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "config.json"
    path.write_text(json.dumps({"experiment": kind, "seed": 1, "out_dir": str(case / "out"),
                                "velocity": velocity, "physical": physical,
                                "ensemble": ensemble, "stochastic": {"tau_xi": 100.0},
                                "repeat": {"n_repeats": 4}}))
    try:
        parse_config(path.read_text())
    except ConfigError:
        expected = {1}
    else:
        expected = {0, 3}
    assert cli_main([kind, "--config", str(path)]) in expected


@st.composite
def stochastic_section(draw):
    """A schema-valid ``stochastic`` section for an actual-velocity born or
    trajectories run: runnable values with up to two fields drawn from an
    unusual range (an unknown sign law, a flip probability outside (0, 1],
    a ``tau_xi``, ``dt`` or ``hierarchy_factor`` that breaks the time-scale
    hierarchy or the step bound, non-finite numbers).  ``dt_traj`` comes from
    a short list, so at most 4 trials of at most 200 steps each."""
    # key -> (usual values, unusual values)
    fields = {
        "sign_law": (st.sampled_from(["iid", "telegraph"]),
                     st.sampled_from(["", "Telegraph", "gaussian"])),
        "flip_prob": (st.floats(0.01, 1.0), st.sampled_from([0.0, -0.5, 1.5]) | _ANY_FLOAT),
        "tau_xi": (st.floats(0.1, 0.5), st.floats(-0.1, 0.2) | _ANY_FLOAT),
        "dt": (st.floats(1e-4, 0.005), st.floats(-0.01, 0.1) | _ANY_FLOAT),
        "hierarchy_factor": (st.floats(10.0, 20.0), st.floats(0.0, 100.0) | _ANY_FLOAT),
        "tau_lambda": (st.none(), st.floats(0.0, 100.0) | _ANY_FLOAT),
    }
    odd = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    stochastic = {key: draw(unusual if key in odd else usual)
                  for key, (usual, unusual) in fields.items()}
    kind = draw(st.sampled_from(["born", "trajectories"]))
    ensemble = {"n_trials": draw(st.integers(1, 4)),
                "dt_traj": draw(st.sampled_from([0.005, 0.01, 0.02])),
                "n_store": 2, "store_every": 10}
    return kind, stochastic, ensemble


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=stochastic_section())
@example(drawn=("trajectories", {"sign_law": "telegraph", "flip_prob": 1.0, "tau_xi": 0.2},
                {"n_trials": 2, "dt_traj": 0.02, "n_store": 2}))
def test_fuzzed_stochastic_fail_at_parse_or_run(tmp_path, drawn):
    # as above, for the sign process of actual-velocity runs; the example sits
    # on the step bound dt_traj = tau_xi / hierarchy_factor
    kind, stochastic, ensemble = drawn
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "config.json"
    path.write_text(json.dumps({"experiment": kind, "seed": 1, "out_dir": str(case / "out"),
                                "velocity": "actual", "stochastic": stochastic,
                                "ensemble": ensemble}))
    try:
        parse_config(path.read_text())
    except ConfigError:
        expected = {1}
    else:
        expected = {0, 3}
    assert cli_main([kind, "--config", str(path)]) in expected


@st.composite
def checks_prior_and_repeat(draw):
    """Schema-valid ``checks``, ``prior`` and ``repeat`` sections and a kind that
    reads them: runnable values with up to two fields drawn from an unusual
    range (a count below its minimum, a threshold or tolerance that is
    negative, zero, above one or not finite, checks switched off).  At most
    64 draws or samples and 4 repeats of 100 steps."""
    # (section, key) -> (usual values, unusual values)
    fields = {
        ("checks", "chi2_p_min"): (st.floats(0.0, 0.05), st.floats(-1.0, 2.0) | _ANY_FLOAT),
        ("checks", "max_ambiguous_rate"): (st.floats(1e-3, 0.5),
                                           st.floats(-1.0, 2.0) | _ANY_FLOAT),
        ("checks", "freq_within_3sigma"): (st.booleans(), st.booleans()),
        ("checks", "mean_abs_dev_rtol"): (st.floats(0.05, 1.0),
                                          st.floats(-1.0, 1e3) | _ANY_FLOAT),
        ("checks", "n_draws"): (st.integers(2, 64), st.integers(-1, 1)),
        ("checks", "enabled"): (st.booleans(), st.just(False)),
        ("prior", "n_mc"): (st.integers(2, 64), st.integers(-1, 1)),
        ("prior", "z_max"): (st.floats(1.0, 10.0), st.floats(-1.0, 1.0) | _ANY_FLOAT),
        ("repeat", "n_repeats"): (st.integers(1, 4), st.integers(-1, 0)),
    }
    odd = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    sections = {"checks": {}, "prior": {}, "repeat": {}}
    for (section, key), (usual, unusual) in fields.items():
        sections[section][key] = draw(unusual if (section, key) in odd else usual)
    kind = draw(st.sampled_from(["born", "prior-average", "repeatability",
                                 "stochastic-check"]))
    return kind, sections


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=checks_prior_and_repeat())
def test_fuzzed_checks_prior_and_repeat_fail_at_parse_or_run(tmp_path, drawn):
    # as above, for the sections that size the Monte Carlo samples and repeats
    # and set the declared checks' thresholds
    kind, sections = drawn
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "config.json"
    path.write_text(json.dumps({"experiment": kind, "seed": 1, "out_dir": str(case / "out"),
                                "ensemble": {"n_trials": 3, "dt_traj": 0.01}, **sections}))
    try:
        parse_config(path.read_text())
    except ConfigError:
        expected = {1}
    else:
        expected = {0, 3}
    assert cli_main([kind, "--config", str(path)]) in expected


@st.composite
def appendix_section(draw):
    """A schema-valid ``appendix`` section and a grid kind: runnable values
    with up to two fields drawn from an unusual range (an inverted or
    non-finite interval, a count below its minimum, field expressions that
    do not compile, are not positive or overflow, a packet off the grid or
    of zero width, a non-positive or huge step, deltas without the 0 entry
    or at -1, a residual check without three snapshots).  At most 48 points
    and 12 steps."""
    fields = {
        "dimension": (st.just(1), st.sampled_from([0, 2, 3])),
        "x_min": (st.floats(-8.0, -4.0), st.floats(-1.0, 10.0) | _ANY_FLOAT),
        "x_max": (st.floats(4.0, 8.0), st.floats(-10.0, 1.0) | _ANY_FLOAT),
        "n_points": (st.integers(16, 48), st.integers(-1, 15)),
        "periodic": (st.booleans(), st.booleans()),
        "metric": (st.sampled_from([None, "1+0.2*sin(q)^2", {"g11": "2-exp(-q^2)"}]),
                   st.sampled_from(["q", "0", "-1", "", "1+", "1/q", "q^0.5", "10^400",
                                    {"g22": "1"}, {"g1": "1"}, {"g11": 2}])),
        "vector": (st.sampled_from([None, ["0.3*cos(q)"]]),
                   st.sampled_from([[], ["q", "1"], ["x"], [1], ["0^-1"]])),
        "scalar": (st.sampled_from([None, "0.5*q^2", "0.1*cos(q)"]),
                   st.sampled_from(["", "qq", "sin(", "(-8)^0.5", "exp(q^3)",
                                    "1e300*q^2", "0^-1"])),
        "initial_center": (st.floats(-1.0, 1.0), st.floats(-100.0, 100.0) | _ANY_FLOAT),
        "initial_width": (st.floats(0.5, 2.0),
                          st.sampled_from([0.0, -1.0, 1e-300]) | _ANY_FLOAT),
        "initial_momentum": (st.floats(-2.0, 2.0), st.floats(-1e6, 1e6) | _ANY_FLOAT),
        "dt": (st.sampled_from([0.002, 0.01]), st.floats(-0.01, 1e3) | _ANY_FLOAT),
        "n_steps": (st.integers(1, 12), st.integers(-1, 0)),
        "record_every": (st.integers(1, 6), st.integers(-1, 0) | st.integers(7, 40)),
        "deltas": (st.sampled_from([[0.0], [0.0, 0.25], [-0.1, 0.0, 0.1]]),
                   st.lists(st.floats(-2.0, 2.0) | _ANY_FLOAT | st.text(max_size=2),
                            max_size=3)),
        "residual_check": (st.booleans(), st.just(True)),
        "save_wavefunctions": (st.booleans(), st.booleans()),
    }
    odd = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    appendix = {key: draw(unusual if key in odd else usual)
                for key, (usual, unusual) in fields.items()}
    return draw(st.sampled_from(["appendix", "lambda-sweep"])), appendix


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=appendix_section())
# a number where an expression belongs, and magnitudes whose products or
# squares overflow float64 in the run
@example(drawn=("appendix", {"vector": [1], "n_points": 16, "n_steps": 1}))
@example(drawn=("appendix", {"scalar": "1e300*q^2", "n_points": 16, "n_steps": 2,
                             "record_every": 1, "residual_check": True}))
@example(drawn=("lambda-sweep", {"deltas": [0.0, 1e300], "n_points": 16, "n_steps": 2,
                                 "record_every": 1}))
# a closed 8-point grid, which leaves the residuals no point past the stencil margin
@example(drawn=("appendix", {"n_points": 8, "scalar": "0.5*q^2", "n_steps": 20,
                             "record_every": 5, "residual_check": True}))
# a packet that lies within that margin, so no snapshot has a point past it
@example(drawn=("appendix", {"n_points": 32, "initial_center": 7.6, "initial_width": 0.1,
                             "n_steps": 20, "record_every": 5, "residual_check": True}))
def test_fuzzed_appendix_fail_at_parse_or_run(tmp_path, drawn):
    # as above, for the grid kinds' section: grid, fields, packet and steps
    kind, appendix = drawn
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    path = case / "config.json"
    path.write_text(json.dumps({"experiment": kind, "seed": 1, "out_dir": str(case / "out"),
                                "appendix": appendix}))
    try:
        parse_config(path.read_text())
    except ConfigError:
        expected = {1}
    else:
        expected = {0, 3}
    assert cli_main([kind, "--config", str(path)]) in expected
