"""Property-based checks of the algebraic invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochaction import (ActionIncrement, AngularBasis, GaussianPacket, GridSpec,
                         ModeFlow, SpectralState, check_separability,
                         gaussian_log_weight, transition_log_weight)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)
scale = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(dev1=positive, dev2=positive, lam=scale, th1=positive, th2=positive)
def test_exponential_law_is_additive(dev1, dev2, lam, th1, th2):
    inc1 = ActionIncrement.from_deviation(dev1)
    inc2 = ActionIncrement.from_deviation(dev2)
    lpj, lp1, lp2 = check_separability(inc1, inc2, lam, th1, th2)
    assert abs(lpj - (lp1 + lp2)) <= 1e-10 * max(1.0, abs(lpj))


@settings(max_examples=100, deadline=None)
@given(dev1=st.floats(min_value=0.05, max_value=10.0),
       dev2=st.floats(min_value=0.05, max_value=10.0), lam=scale)
def test_gaussian_counter_law_is_not_additive(dev1, dev2, lam):
    inc1 = ActionIncrement.from_deviation(dev1)
    inc2 = ActionIncrement.from_deviation(dev2)
    lpj, lp1, lp2 = check_separability(inc1, inc2, lam,
                                       log_weight=gaussian_log_weight)
    # cross term 2 dev1 dev2 / lam^2 never cancels for positive deviations
    assert abs(lpj - (lp1 + lp2)) == pytest.approx(2 * dev1 * dev2 / lam**2,
                                                   rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(dev=finite, lam=st.floats(min_value=-10.0, max_value=10.0).filter(
    lambda v: abs(v) > 1e-3))
def test_weight_finite_iff_sign_locked(dev, lam):
    w = transition_log_weight(ActionIncrement.from_deviation(dev), lam)
    if dev / lam >= 0:
        assert np.isfinite(w)
    else:
        assert w == float("-inf")


@settings(max_examples=50, deadline=None)
@given(w=st.floats(min_value=0.05, max_value=0.95),
       phase=st.floats(min_value=0.0, max_value=6.28),
       theta=st.floats(min_value=0.0, max_value=6.28),
       q2=st.floats(min_value=-0.5, max_value=0.5),
       lam=st.floats(min_value=0.1, max_value=3.0))
def test_sign_average_identity(w, phase, theta, q2, lam):
    grid = GridSpec(-3.0, 3.0)
    basis = AngularBasis(4)
    c = np.zeros(9, dtype=complex)
    c[4] = np.sqrt(w)
    c[5] = np.sqrt(1 - w) * np.exp(1j * phase)
    state = SpectralState(coeffs=c, modes=basis,
                          packet=GaussianPacket(0.0, 0.3),
                          centers=np.zeros(9), t=0.0, grid=grid)
    pts = np.array([[theta, q2]])
    plus = ModeFlow(state, 1.0).actual(pts, state.t, lam)
    minus = ModeFlow(state, 1.0).actual(pts, state.t, -lam)
    eff = ModeFlow(state, 1.0).effective(pts, state.t)
    budget = 1e-12 * (np.max(np.abs(plus)) + np.max(np.abs(minus)) + 1.0)
    assert np.max(np.abs(0.5 * (plus + minus) - eff)) <= budget
