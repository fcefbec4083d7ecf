import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uot import DomainError, lambert_w, lambert_w_log


def bisect_w(z, lo=0.0, hi=800.0, tol=1e-15):
    """Independent oracle: bisection on w * exp(w) = z."""
    while hi - lo > tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) > z:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# frozen from the bisection oracle above (tol 1e-15)
OMEGA = 0.5671432904097838


def test_trivial_values():
    assert lambert_w(0.0) == 0.0
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)


def test_omega_constant_matches_bisection():
    assert bisect_w(1.0) == pytest.approx(OMEGA, abs=1e-14)
    assert lambert_w(1.0) == pytest.approx(OMEGA, abs=1e-13)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        lambert_w(-0.1)


def test_residuals_on_log_spaced_grid():
    z = np.logspace(-12, 12, 121)
    w = lambert_w(z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * (1.0 + z))


def test_matches_bisection_on_grid():
    for z in np.concatenate([np.logspace(-6, 6, 25), np.logspace(-300, 300, 25)]):
        assert lambert_w(float(z)) == pytest.approx(bisect_w(float(z)), rel=1e-12)


def test_log_form_trivial_points():
    assert lambert_w_log(1.0) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w_log(0.0) == pytest.approx(OMEGA, abs=1e-13)


def test_log_form_agrees_with_direct():
    log_z = np.linspace(-20, 25, 46)
    direct = lambert_w(np.exp(log_z))
    via_log = lambert_w_log(log_z)
    assert np.allclose(via_log, direct, rtol=1e-10)


def test_log_form_residual_up_to_700():
    log_z = np.linspace(-30.0, 700.0, 211)
    w = lambert_w_log(log_z)
    assert np.all(np.abs(w + np.log(w) - log_z) <= 1e-9)


def test_log_form_handles_extreme_negatives():
    w = lambert_w_log(-700.0)
    assert w > 0
    assert w + math.log(w) == pytest.approx(-700.0, abs=1e-9)
    assert lambert_w_log(-math.inf) == 0.0


def test_huge_arguments_stay_finite():
    biggest = np.finfo(float).max
    for z in (1.7e308, biggest):
        w = lambert_w(z)
        assert math.isfinite(w)
        assert w + math.log(w) == pytest.approx(math.log(z), rel=1e-15)
    for log_z in (1e300, biggest):
        w = lambert_w_log(log_z)
        assert math.isfinite(w)
        assert w + math.log(w) == pytest.approx(log_z, rel=1e-15)


# a few units in the last place: the tolerance every property below allows
# for rounding, scaled by 1 + |L| where L itself carries rounding
ULPS = 4 * np.finfo(float).eps


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(-1e3, 1e300), st.floats(-36.0, -34.0),
                          st.just(-math.inf)),
                min_size=1, max_size=20))
def test_log_form_properties(log_z):
    log_z = np.sort(np.array(log_z))
    scale = 1.0 + np.abs(log_z)
    w = lambert_w_log(log_z)
    assert np.all(w >= 0)
    # residual wherever log(w) is exact to rounding (w a normal float)
    normal = w >= np.finfo(float).tiny
    resid = np.abs(w + np.log(w, where=normal, out=np.zeros_like(w)) - log_z)
    assert np.all(resid[normal] <= ULPS * scale[normal])
    # monotone in L, up to rounding
    assert np.all(w[1:] >= w[:-1] * (1.0 - ULPS))
    # the direct form is the log form at log(z), wherever z = exp(L) is finite
    finite = log_z < math.log(np.finfo(float).max)
    with np.errstate(under="ignore"):
        z = np.exp(log_z[finite])
    direct = lambert_w(z)
    bound = ULPS * scale[finite] * np.maximum(w[finite], np.finfo(float).tiny)
    assert np.all(np.abs(direct - w[finite]) <= bound)
