"""Expression grammar, appendix velocities, scale sweeps, classical limit."""
import multiprocessing

import numpy as np
import pytest

from stochaction import (CartesianGrid, FieldErrors, InvalidSystemError, LambdaSweep,
                         MetricPotentialSystem, NumericalError, appendix_velocity,
                         build_metric_hamiltonian, classical_limit_check,
                         evolve_grid, run_lambda_sweep, system_from_expressions)
from stochaction.expressions import ExpressionError, compile_expression
from stochaction.potentials import _sweep


class TestExpressionGrammar:
    def test_precedence_and_power(self):
        f = compile_expression("2 + 3 * q ^ 2", ("q",))
        q = np.array([1.0, 2.0])
        assert np.allclose(f(q), [5.0, 14.0])

    def test_power_right_associative(self):
        f = compile_expression("2 ^ 3 ^ 2", ())
        assert f() == pytest.approx(512.0)

    def test_functions_and_constants(self):
        f = compile_expression("sin(pi * q) + exp(0) - cos(0)", ("q",))
        assert np.allclose(f(np.array([0.5])), [1.0])

    def test_unary_minus(self):
        f = compile_expression("-q^2 + (-1)*q", ("q",))
        assert f(np.array([2.0]))[0] == pytest.approx(-6.0)

    def test_two_coordinates(self):
        f = compile_expression("x*y - y/2", ("x", "y"))
        x, y = np.array([2.0]), np.array([3.0])
        assert f(x, y)[0] == pytest.approx(4.5)

    def test_scalar_broadcasts(self):
        f = compile_expression("0", ("q",))
        assert f(np.zeros(7)).shape == (7,)

    @pytest.mark.parametrize("text", ["q +", "sin(q", "2 ** * 3", "q @ 2",
                                      "tan(q)", "unknown + 1", "q[0]", "q.real",
                                      "q < 1", "q//2", "1j*q", "True*q", "sin(q, q)",
                                      "sin(x=q)", "lambda: q", "0x10*q", "1_0*q", "",
                                      "\u0663*q"])
    def test_rejects_bad_expressions(self, text):
        with pytest.raises(ExpressionError):
            compile_expression(text, ("q",))

    def test_overlong_integer_literal_reads_inf(self):
        f = compile_expression("1" + "0" * 400 + "*q", ("q",))
        assert np.array_equal(f(np.array([1.0, -2.0])), [np.inf, -np.inf])

    def test_leading_zero_integer_rejected(self):
        # Python's grammar has no such literal; "007." and "0.07" are decimals
        with pytest.raises(ExpressionError):
            compile_expression("007*q", ("q",))
        assert compile_expression("007.*q", ("q",))(np.array([2.0]))[0] == 14.0


class TestSystemFromExpressions:
    def test_isotropic_metric_and_potentials(self):
        system = system_from_expressions(1, metric="1 + 0.1*sin(q)",
                                         vector=["0.3"], scalar="0.5*q^2")
        grid = CartesianGrid((0.0,), (2 * np.pi,), (64,), (True,))
        coords = grid.coords()
        g = system.metric_field(coords)
        assert np.allclose(g[..., 0, 0], 1 + 0.1 * np.sin(coords[0]))
        assert np.allclose(system.vector_field(coords)[..., 0], 0.3)
        assert np.allclose(system.scalar_field(coords), 0.5 * coords[0] ** 2)

    def test_component_metric_2d(self):
        system = system_from_expressions(
            2, metric={"g11": "1 + 0.1*x^2", "g22": "1", "g12": "0.05*x*y"})
        grid = CartesianGrid((-1.0, -1.0), (1.0, 1.0), (10, 10), (False, False))
        g = system.metric_field(grid.coords())
        assert np.allclose(g[..., 0, 1], g[..., 1, 0])

    def test_indefinite_metric_caught_at_build(self):
        system = system_from_expressions(1, metric="q")
        grid = CartesianGrid((-1.0,), (1.0,), (32,), (False,))
        with pytest.raises(InvalidSystemError):
            build_metric_hamiltonian(system, 1.0, grid)


class TestAppendixVelocity:
    def test_real_state_is_pure_osmotic(self):
        grid = CartesianGrid((-8.0,), (8.0,), (512,), (False,))
        x = grid.axis(0)
        psi = np.exp(-x**2 / 2).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = MetricPotentialSystem(1)
        vel, valid = appendix_velocity(psi, system, grid, lambda_signed=1.0)
        # (lambda/2) d ln(Omega) = -x for this width; differencing error grows
        # with x^5 in the far tail, so compare on the bulk
        bulk = valid & (np.abs(x) < 3.0)
        assert np.max(np.abs(vel[bulk, 0] + x[bulk])) < 1e-6

    def test_sign_average_gives_effective(self):
        grid = CartesianGrid((-8.0,), (8.0,), (256,), (False,))
        x = grid.axis(0)
        psi = (np.exp(-x**2 / 2) * np.exp(0.4j * x)).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = MetricPotentialSystem(1)
        plus, valid = appendix_velocity(psi, system, grid, +0.7)
        minus, _ = appendix_velocity(psi, system, grid, -0.7)
        eff, eff_valid = appendix_velocity(psi, system, grid, 0.0)
        assert np.array_equal(eff_valid, valid)
        assert np.max(np.abs(0.5 * (plus + minus) - eff)[valid]) < 1e-13

    def test_coherent_state_velocity_analytic(self):
        grid = CartesianGrid((-10.0,), (10.0,), (1024,), (False,))
        x = grid.axis(0)
        t = 0.7
        xc, pc = np.cos(t), -np.sin(t)
        psi = np.exp(-((x - xc) ** 2) / 2 + 1j * pc * x).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = system_from_expressions(1, scalar="0.5*q^2")
        eff, valid = appendix_velocity(psi, system, grid, 0.0)
        assert np.max(np.abs(eff[valid, 0] - pc)) < 1e-4

    def test_gauge_term_subtracts(self):
        grid = CartesianGrid((-8.0,), (8.0,), (256,), (False,))
        x = grid.axis(0)
        psi = np.exp(-x**2 / 2).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        a0 = 0.4
        system = MetricPotentialSystem(
            1, vector_potential=lambda c: np.stack([np.full_like(c[0], a0)], axis=-1))
        eff, valid = appendix_velocity(psi, system, grid, 0.0)
        assert np.allclose(eff[valid, 0], -a0, atol=1e-10)


class TestLambdaSweep:
    @staticmethod
    def _free_packet(grid):
        x = grid.axis(0)
        psi = np.exp(-x**2 / 4).astype(complex)
        return psi / np.sqrt(grid.norm2(psi))

    def test_reference_entry_required(self):
        with pytest.raises(ValueError):
            LambdaSweep(deltas=(0.1, 0.2))

    @pytest.mark.parametrize("deltas", [(0.0, 0.1, 0.1), (0.0, -0.0), (0.0, 0.1, 0.1, -0.0)])
    def test_repeated_delta_rejected(self, deltas):
        # each would run again and overwrite its own entry
        with pytest.raises(ValueError, match="distinct"):
            LambdaSweep(deltas=deltas)

    @pytest.mark.parametrize("deltas, base", [
        ((0.0, np.nan), 1.0), ((0.0, -2.0), 1.0), ((0.0, -1.0), 1.0), ((0.0, np.inf), 1.0),
        ((0.0, 1.0), 1e308), ((0.0,), 0.0), ((0.0,), -1.0), ((0.0,), np.nan), ((0.0,), np.inf)])
    def test_bad_scales_rejected_before_any_work(self, deltas, base, monkeypatch):
        # a NaN delta used to fail in the factorization and -2 in a worker
        monkeypatch.setattr("stochaction.potentials.fork_map", None)
        with pytest.raises(ValueError, match="the sweep's"):
            run_lambda_sweep(MetricPotentialSystem(1), np.ones(8, dtype=complex),
                             CartesianGrid((0.0,), (1.0,), (8,), (False,)),
                             LambdaSweep(deltas=deltas, base=base), 0.1, 1, 1)

    def test_reference_deviation_is_exactly_zero(self):
        grid = CartesianGrid((-20.0,), (20.0,), (256,), (False,))
        system = MetricPotentialSystem(1)
        res = run_lambda_sweep(system, self._free_packet(grid), grid,
                               LambdaSweep(deltas=(0.0, 0.2)), dt=5e-3,
                               n_steps=100, record_every=50)
        assert res[0.0]["max_deviation_from_reference"] == 0.0
        assert res[0.2]["max_deviation_from_reference"] > 0.0

    def test_free_dispersion_scales_with_lambda(self):
        grid = CartesianGrid((-30.0,), (30.0,), (768,), (False,))
        system = MetricPotentialSystem(1)
        sweep = LambdaSweep(deltas=(0.0, 0.5, -0.5))
        res = run_lambda_sweep(system, self._free_packet(grid), grid, sweep,
                               dt=2e-3, n_steps=500, record_every=500)
        for delta in sweep.deltas:
            lam = res[delta]["lambda"]
            last = res[delta]["series"][-1]
            var = last["position_sq"] - last["position"] ** 2
            growth = var - 1.0
            exact = (lam * 1.0 / 2.0) ** 2
            assert abs(growth - exact) / exact < 0.01

    def test_harmonic_mean_position_is_scale_free(self):
        # linear-force motion of the centroid does not see the action scale
        grid = CartesianGrid((-12.0,), (12.0,), (512,), (False,))
        x = grid.axis(0)
        psi = np.exp(-((x - 1.0) ** 2) / 2).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = system_from_expressions(1, scalar="0.5*q^2")
        sweep = LambdaSweep(deltas=(0.0, 0.3))
        res = run_lambda_sweep(system, psi, grid, sweep, dt=2e-3, n_steps=500,
                               record_every=100)
        ref = [row["position"] for row in res[0.0]["series"]]
        alt = [row["position"] for row in res[0.3]["series"]]
        assert np.max(np.abs(np.array(ref) - np.array(alt))) < 1e-4

    def test_reference_run_is_bit_identical_to_direct_evolution(self):
        grid = CartesianGrid((-20.0,), (20.0,), (256,), (False,))
        system = MetricPotentialSystem(1)
        psi = self._free_packet(grid)
        res = run_lambda_sweep(system, psi, grid, LambdaSweep(deltas=(0.0,)),
                               dt=5e-3, n_steps=50, record_every=50)
        op = build_metric_hamiltonian(system, 1.0, grid)
        direct = evolve_grid(psi, op, 5e-3, 50)
        dens = np.abs(direct) ** 2
        total = dens.sum() * grid.cell_volume
        x = grid.axis(0)
        mean = float(np.sum(x * dens) * grid.cell_volume / total)
        assert res[0.0]["series"][-1]["position"] == mean


class TestSweepWorkers:
    """Each scale is one task of a forked pool, with the in-process numbers."""

    @staticmethod
    def _case():
        system = system_from_expressions(2, metric={"g11": "1+0.2*exp(-(x^2+y^2)/8)",
                                                    "g22": "1+0.2*exp(-(x^2+y^2)/8)",
                                                    "g12": "0.05*exp(-(x^2+y^2)/8)"},
                                         vector=["-0.5*y", "0.5*x"], scalar="0.5*(x^2+y^2)")
        grid = CartesianGrid((-5.0, -5.0), (5.0, 5.0), (24, 24), (False, False))
        x, y = grid.coords()
        psi = np.exp(-((x - 1.0) ** 2 + y**2) / 4 + 0.5j * y)
        return system, grid, psi / np.sqrt(grid.norm2(psi))

    def test_pool_gives_the_in_process_floats(self, monkeypatch):
        system, grid, psi = self._case()
        sweep = LambdaSweep(deltas=(-0.1, 0.0, 0.1, 0.2))
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            runs[cpus] = _sweep(system, psi, grid, sweep, 0.01, 12, 4)
            assert multiprocessing.active_children() == []
        assert [runs[cpus][2] for cpus in (1, 2)] == [1, 2]
        assert runs[2][:2] == runs[1][:2]
        assert runs[2][0] == run_lambda_sweep(system, psi, grid, sweep, 0.01, 12, 4)
        assert runs[2][1] == [build_metric_hamiltonian(system, lam, grid).hermiticity_defect()
                              for lam in sweep.lambdas]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        system, grid, psi = self._case()
        sweep = LambdaSweep(deltas=(-0.1, 0.0, 0.1))
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            with pytest.raises(NumericalError, match="non-finite field after step 1") as info:
                run_lambda_sweep(system, np.full_like(psi, np.nan), grid, sweep, 0.01, 4, 2)
            messages.append(str(info.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1]

    def test_bad_schedule_reaches_the_caller_whole(self, monkeypatch):
        # the sweep checks evolve_grid's schedule before it forks, so the caller
        # gets its FieldErrors whole at any CPU count; record_every 0 used to
        # drop the history and fail to unpack it
        system, grid, psi = self._case()
        for cpus in (1, 2):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            with pytest.raises(FieldErrors) as info:
                run_lambda_sweep(system, psi, grid, LambdaSweep(deltas=(0.0, 0.1)), 0.01, 4, 0)
            assert info.value.errors == [("record_every", "must be an integer at least 1, not 0")]
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("record_every", [0, None])
    def test_schedule_checked_before_any_worker(self, monkeypatch, record_every):
        # each scale's worker used to meet the rule, and None failed there to unpack
        # the history the sweep needs
        def no_fork(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr("stochaction.potentials.fork_map", no_fork)
        with pytest.raises(FieldErrors) as info:
            run_lambda_sweep(MetricPotentialSystem(1), np.ones(16, dtype=complex),
                             CartesianGrid((0.0,), (1.0,), (16,), (False,)), LambdaSweep(),
                             0.01, 10, record_every)
        assert info.value.errors == [
            ("record_every", f"must be an integer at least 1, not {record_every!r}")]


class TestClassicalLimit:
    def test_quadratic_scaling_and_velocity_convergence(self):
        s = 10.0
        grid = CartesianGrid((-60.0,), (60.0,), (1024,), (False,))
        x = grid.axis(0)
        psi = np.exp(-x**2 / (4 * s**2)).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = MetricPotentialSystem(1)
        report = classical_limit_check(system, psi, grid,
                                       lambdas=(1.0, 0.5, 1e-3))
        assert report["halving_ratios"][0] == pytest.approx(0.25, rel=0.01)
        smallest = report["entries"][-1]
        assert smallest["lambda"] == 1e-3
        assert smallest["velocity_rms_distance"] < 1e-4

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_scale_not_positive_and_finite_rejected(self, bad):
        grid = CartesianGrid((-8.0,), (8.0,), (128,), (False,))
        x = grid.axis(0)
        psi = np.exp(-x**2 / 2).astype(complex)
        psi /= np.sqrt(grid.norm2(psi))
        system = MetricPotentialSystem(1)
        with pytest.raises(ValueError, match="lambdas must be positive and finite"):
            classical_limit_check(system, psi, grid, lambdas=(1.0, bad))

    def test_masked_points_reported_near_node(self):
        grid = CartesianGrid((-8.0,), (8.0,), (512,), (False,))
        x = grid.axis(0)
        psi = (x * np.exp(-x**2 / 2)).astype(complex)   # node at the origin
        psi /= np.sqrt(grid.norm2(psi))
        system = MetricPotentialSystem(1)
        report = classical_limit_check(system, psi, grid, lambdas=(1.0, 0.5))
        assert report["halving_ratios"][0] == pytest.approx(0.25, rel=0.01)
