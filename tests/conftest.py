import math

import pytest

from nopolock import SystemParams, derive_scales, replace_pump


def make_system(gamma=1.0, delta=3.0, chi=0.5, lam=1.0, eps=0.0, **kw):
    """(params, scales) at the requested pump rate."""
    params = SystemParams.symmetric(gamma=gamma, delta=delta, chi=chi,
                                    eps=eps, lam=lam, **kw)
    scales = derive_scales(params)
    return params, scales


def at_ratio(params, scales, ratio):
    """(params, scales, eps) with the pump set to ratio * eps_th."""
    eps = ratio * scales.eps_th
    p, s = replace_pump(params, scales, eps)
    return p, s, eps


@pytest.fixture
def standard():
    """The workhorse symmetric parameter point: gamma=1, delta=3, chi=0.5, lam=1."""
    return make_system()


@pytest.fixture
def eps_th(standard):
    return standard[1].eps_th


def assert_close(actual, expected, tol, label=""):
    __tracebackhide__ = True
    if abs(actual - expected) > tol:
        pytest.fail(f"{label}: {actual!r} differs from {expected!r} "
                    f"by {abs(actual - expected):.3e} > {tol:.1e}")


EPS_TH_STANDARD = math.sqrt(7.25)  # gamma=1, delta=3, chi=0.5

#: (chi, delta) at and next to chi = |delta| (gamma = 1), where the unfactored
#: below-threshold closed forms cancel
CHI_NEAR_DELTA = ((10.0, 10.0), (100.0, 100.0), (1e3, 1e3), (1e4, 1e4),
                  (50.0, 49.0), (1e3, 999.0))

#: (chi, delta) with chi = 0, delta = 0, chi = |delta| and delta < 0 among them
#: (gamma = 1), where the below-threshold closed forms must not cancel up to threshold
THRESHOLD_SETS = ((0.0, 3.0), (0.5, 0.0), (0.5, 3.0), (0.5, -3.0), (0.1, 10.0),
                  (2.0, 0.5), (1.0, 1.0), (1.0, -1.0), (50.0, -49.0))
