"""Exponential transition law, sign processes, separability."""
import math

import numpy as np
import pytest

from stochaction import (ActionIncrement, StochasticParams, check_separability,
                         gaussian_log_weight, sample_deviation, sample_sign_path,
                         transition_log_weight)
from stochaction.rng import stream


@pytest.fixture
def params():
    return StochasticParams(tau_xi=0.01, dt=0.001)


class TestParams:
    def test_defaults_satisfy_hierarchy(self, params):
        assert params.tau_lambda == math.inf

    @pytest.mark.parametrize("kwargs", [
        dict(tau_lambda=0.05, tau_xi=0.01, dt=0.001),   # tau_lambda too close
        dict(tau_xi=0.005, dt=0.001),                   # tau_xi too close to dt
        dict(hierarchy_factor=2.0),
        dict(sign_law="sticky"),
        # a NaN compares false against every bound
        *({key: math.nan} for key in ("tau_lambda", "tau_xi", "dt", "hierarchy_factor",
                                      "flip_prob")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StochasticParams(**kwargs)


class TestIncrement:
    def test_branch_identities(self):
        inc = ActionIncrement(dA_plus=0.4, dA_minus=1.0)
        assert inc.dS == pytest.approx(0.7)
        assert inc.Z == pytest.approx(-0.6)
        assert inc.deviation == pytest.approx(-inc.Z / 2)

    def test_from_deviation(self):
        inc = ActionIncrement.from_deviation(0.25)
        assert inc.deviation == pytest.approx(0.25)
        assert inc.dS == pytest.approx(0.0)

    def test_sign_flip_antisymmetry(self):
        inc = ActionIncrement(dA_plus=0.4, dA_minus=1.0)
        flipped = ActionIncrement(dA_plus=inc.dA_minus, dA_minus=inc.dA_plus)
        assert flipped.Z == -inc.Z
        assert flipped.dS == inc.dS


class TestTransitionWeight:
    def test_classical_path_weight_is_zero(self):
        assert transition_log_weight(ActionIncrement.from_deviation(0.0), 1.0) == 0.0

    def test_direct_substitution(self):
        inc = ActionIncrement.from_deviation(0.5)
        assert transition_log_weight(inc, 1.0) == pytest.approx(-1.0)

    def test_sign_lock_breach_is_minus_infinity(self):
        inc = ActionIncrement.from_deviation(0.5)
        assert transition_log_weight(inc, -1.0) == float("-inf")

    def test_drift_factor_subtracts(self):
        inc = ActionIncrement.from_deviation(0.5)
        assert transition_log_weight(inc, 1.0, theta_s_dt=0.2) == pytest.approx(-1.2)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            transition_log_weight(ActionIncrement.from_deviation(0.1), 0.0)

    def test_gaussian_control_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="lambda_signed must be nonzero"):
            gaussian_log_weight(ActionIncrement.from_deviation(0.1), 0.0)


class TestSampler:
    def test_mean_matches_half_scale(self):
        r = stream(3)
        draws = sample_deviation(1.0, +1, r, size=200_000)
        assert np.mean(np.abs(draws)) == pytest.approx(0.5, abs=0.005)

    def test_one_sidedness(self):
        r = stream(4)
        assert np.all(sample_deviation(1.0, +1, r, size=10_000) >= 0)
        assert np.all(sample_deviation(1.0, -1, r, size=10_000) <= 0)

    def test_variance_against_mc_oracle(self):
        # oracle: brute-force moments of the one-sided law
        r = stream(5)
        draws = np.abs(sample_deviation(1.0, +1, r, size=400_000))
        var = np.var(draws)
        expected = (1.0 / 2.0) ** 2
        se = np.std((draws - draws.mean()) ** 2) / np.sqrt(len(draws))
        assert abs(var - expected) < 3 * se

    def test_delta_limit_as_scale_vanishes(self):
        eps = 0.05
        fractions = []
        for lam in (1.0, 0.1, 0.01):
            draws = np.abs(sample_deviation(lam, +1, stream(6), size=100_000))
            fractions.append(np.mean(draws > eps))
        assert fractions[0] > fractions[1] > fractions[2]
        assert fractions[2] < 1e-3

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            sample_deviation(1.0, 0, stream(0))

    @pytest.mark.parametrize("lambda_mag", [0.0, -1.0, math.nan])
    def test_nonpositive_scale_rejected(self, lambda_mag):
        with pytest.raises(ValueError, match="lambda_mag must be positive"):
            sample_deviation(lambda_mag, +1, stream(0))


class TestSignPath:
    def test_unbiased(self, params):
        path = sample_sign_path(params, 1_000_000, stream(7))
        assert abs(np.mean(path)) < 0.003

    def test_iid_lag1_autocorrelation(self, params):
        path = sample_sign_path(params, 1_000_000, stream(8)).astype(float)
        lag1 = np.mean(path[:-1] * path[1:])
        assert abs(lag1) < 0.003

    def test_same_seed_same_path(self, params):
        a = sample_sign_path(params, 1000, stream(9))
        b = sample_sign_path(params, 1000, stream(9))
        assert np.array_equal(a, b)

    def test_telegraph_persistence(self):
        p = StochasticParams(sign_law="telegraph", flip_prob=0.05)
        path = sample_sign_path(p, 500_000, stream(10)).astype(float)
        lag1 = np.mean(path[:-1] * path[1:])
        assert lag1 == pytest.approx(1 - 2 * 0.05, abs=0.01)

    def test_values_are_signs(self, params):
        path = sample_sign_path(params, 1000, stream(11))
        assert set(np.unique(path)) <= {-1, 1}

    @pytest.mark.parametrize("sign_law", ["iid", "telegraph"])
    def test_empty_path_rejected(self, sign_law):
        p = StochasticParams(sign_law=sign_law, flip_prob=0.05)
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            sample_sign_path(p, 0, stream(12))


class TestSeparability:
    def test_worked_example(self):
        inc1 = ActionIncrement.from_deviation(0.2)
        inc2 = ActionIncrement.from_deviation(0.3)
        lpj, lp1, lp2 = check_separability(inc1, inc2, 1.0)
        assert (lpj, lp1, lp2) == pytest.approx((-1.0, -0.4, -0.6))

    def test_zero_deviations(self):
        zero = ActionIncrement.from_deviation(0.0)
        assert check_separability(zero, zero, 1.0) == (0.0, 0.0, 0.0)

    def test_additivity_over_random_sweep(self):
        r = stream(14)
        worst = 0.0
        for _ in range(1000):
            inc1 = ActionIncrement.from_deviation(float(r.uniform(0, 2)))
            inc2 = ActionIncrement.from_deviation(float(r.uniform(0, 2)))
            th = r.uniform(0, 0.5, size=2)
            lpj, lp1, lp2 = check_separability(inc1, inc2, 1.0, th[0], th[1])
            worst = max(worst, abs(lpj - (lp1 + lp2)))
        assert worst < 1e-12

    def test_gaussian_counter_law_fails_additivity(self):
        inc1 = ActionIncrement.from_deviation(0.5)
        inc2 = ActionIncrement.from_deviation(0.7)
        lpj, lp1, lp2 = check_separability(inc1, inc2, 1.0,
                                           log_weight=gaussian_log_weight)
        assert abs(lpj - (lp1 + lp2)) > 0.01
