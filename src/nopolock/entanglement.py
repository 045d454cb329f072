"""Two-mode squeezing variances and entanglement verdicts.

The entanglement measures are the variances of the quadrature distance
``X1 - X2`` and total momentum ``Y1 + Y2`` (vacuum level normalized to 1),

    V_minus = V(X1 - X2),   V_plus = V(Y1 + Y2),
    V = (V_plus + V_minus) / 2,

with ``X_k, Y_k`` measured at local-oscillator angles ``theta_k``.  The
state is inseparable when ``V < 1`` (sum criterion) and strongly
EPR-correlated when ``V_plus * V_minus < 1/4`` (product criterion).

Everything reduces to four second-order moments per regime: the mean
photon number ``n``, the pair moment ``<a1 a2>``, the single-mode squared
moment ``<a1^2>`` (equal for both modes by symmetry) and the polarization
cross moment ``<a1+ a2>``.  Above threshold the moments are understood as
cumulants (mean-field part removed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SingularParameterError
from .fluctuations import (_below_factors, _require_symmetric, above_matrices,
                           equal_time_corr_below, equal_time_corr_below_stack, near_threshold)
from .params import DerivedScales, QuadratureAngles, SystemParams, wrap_angle
from .steady import _checked, _locked_family

FLAG_OK = "ok"
FLAG_NEAR_THRESHOLD = "linearization-unreliable"


@dataclass(frozen=True)
class MomentSet:
    """Second-order moments from which all quadrature variances derive.

    The single field ``m_a1sq`` stores both single-mode squared moments,
    equal by the 1 <-> 2 symmetry.
    """

    n: float
    m_aa: complex
    m_a1sq: complex
    m_cross: complex

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, (self.n, self.m_aa, self.m_a1sq, self.m_cross))):
            raise ParameterDomainError(f"moments must be finite, got {self}")
        if self.n < -1e-12:
            raise ParameterDomainError(f"mean photon number must be >= 0, got {self.n}")


@dataclass(frozen=True)
class VarianceReport:
    """Variances, criterion verdicts and the angles they were evaluated at."""

    V: float
    R: float
    V_plus: float
    V_minus: float
    product: float
    inseparable: bool
    strong_epr: bool
    angles: QuadratureAngles
    flag: str = FLAG_OK


@dataclass(frozen=True)
class VarianceSweep:
    """Steady-state variances along a pump grid, one array entry per pump.

    ``sigma_theta`` is the sum angle each point is evaluated at: the
    minimizing angle below threshold (0 where it is free, at ``eps = 0``),
    the locked mean-field phase sum above, and at threshold the limit of both,
    ``atan2(sign(delta) (|delta| - chi), gamma)``.  ``flag`` holds
    :data:`FLAG_OK` or :data:`FLAG_NEAR_THRESHOLD` per point.
    """

    V: np.ndarray
    R: np.ndarray
    V_plus: np.ndarray
    V_minus: np.ndarray
    product: np.ndarray
    sigma_theta: np.ndarray
    flag: np.ndarray


def _variances(n, m_aa, m_sq, m_x, sigma_theta, delta_theta: float) -> tuple:
    """``(V, R, V_plus, V_minus, product)`` of moment arrays at the given angles.

    ``V_plus``/``V_minus`` follow from the second-moment expansion of
    ``V(Y1 + Y2)`` and ``V(X1 - X2)``; they obey ``V_pm = V +- R cos(delta
    theta)`` with an angle-independent ``R`` whenever the cross moment
    ``<a1+ a2>`` is real (true in every regime of this model).
    """
    eis = np.exp(1j * sigma_theta)
    V = 1 + 2 * n - 2 * (m_aa * eis).real
    split = (2 * (m_sq * eis).real * math.cos(delta_theta)
             - 2 * (m_x * cmath.exp(1j * delta_theta)).real)
    if abs(math.cos(delta_theta)) > 1e-12:
        R = -split / math.cos(delta_theta)
    else:
        R = 2 * np.real(m_x) - 2 * (m_sq * eis).real
    V_plus, V_minus = V - split, V + split
    return V, R, V_plus, V_minus, V_plus * V_minus


def _report(V, R, V_plus, V_minus, product, angles: QuadratureAngles,
            flag: str) -> VarianceReport:
    V, R, V_plus, V_minus, product = map(float, (V, R, V_plus, V_minus, product))
    return VarianceReport(V=V, R=R, V_plus=V_plus, V_minus=V_minus,
                          product=product, inseparable=V < 1,
                          strong_epr=product < 0.25, angles=angles, flag=flag)


def variances_from_moments(moments: MomentSet, angles: QuadratureAngles) -> VarianceReport:
    """Exact quadrature variances of a symmetric two-mode Gaussian-moment set."""
    columns = _variances(moments.n, moments.m_aa, moments.m_a1sq, moments.m_cross,
                         angles.sigma_theta, angles.delta_theta)
    return _report(*columns, angles, FLAG_OK)


# ---------------------------------------------------------------------------
# steady-state regimes


def moments_below(params: SystemParams, scales: DerivedScales,
                  eps: float) -> MomentSet:
    """Moments of the below-threshold stationary state."""
    corr_aa, corr_ab = equal_time_corr_below(params, scales, eps)
    return MomentSet(n=corr_ab[0, 0].real, m_aa=complex(corr_aa[0, 1]),
                     m_a1sq=complex(corr_aa[0, 0]), m_cross=complex(corr_ab[1, 0]))


def moments_above(params: SystemParams, scales: DerivedScales,
                  eps: float) -> MomentSet:
    """Fluctuation cumulants of the locked above-threshold state.

    Assembled from the (+)/(-) covariances through the number/phase
    parametrization ``d_alpha = e^{i phi0} (dn/(2 sqrt(n0)) + i sqrt(n0)
    dphi)``; the mean-field contribution is excluded.
    """
    mats = above_matrices(params, scales, eps)
    n0 = mats.n0
    Np, Kp, Pp = mats.C_plus[0, 0], mats.C_plus[0, 1], mats.C_plus[1, 1]
    Nm, Km, Pm = mats.C_minus[0, 0], mats.C_minus[0, 1], mats.C_minus[1, 1]

    n_c = (Np + Nm) / (16 * n0) + n0 * (Pp + Pm) / 4
    m_aa = ((Np - Nm) / (16 * n0) - n0 * (Pp - Pm) / 4 + 1j * (Kp - Km) / 4)
    m_sq = ((Np + Nm) / (16 * n0) - n0 * (Pp + Pm) / 4 + 1j * (Kp + Km) / 4)
    m_x = (Np - Nm) / (16 * n0) + n0 * (Pp - Pm) / 4

    phase_sum, phase_diff = mats.phase_sum, mats.phase_diff
    return MomentSet(
        n=n_c,
        m_aa=cmath.exp(1j * phase_sum) * m_aa,
        m_a1sq=cmath.exp(1j * (phase_sum - phase_diff)) * m_sq,
        m_cross=cmath.exp(1j * phase_diff) * m_x,
    )


def variance_sweep(params: SystemParams, scales: DerivedScales, eps: np.ndarray | float,
                   delta_theta: float = 0.0) -> VarianceSweep:
    """Steady-state variances at every pump rate of the 1-D array ``eps``.

    ``eps < eps_th`` picks the below-threshold closed forms, any other pump the
    locked ones: each side gives ``(V, R, sigma_theta)`` in one batched pass, exact up
    to threshold, and runs its runtime checks on every pump they cover.
    """
    if not math.isfinite(delta_theta):
        raise ParameterDomainError(f"delta_theta must be finite, got {delta_theta!r}")
    eps = np.atleast_1d(_checked("eps", eps))
    below = eps < scales.eps_th
    columns = np.empty((3,) + eps.shape)
    if below.any():
        columns[:, below] = _below_columns(params, scales, eps[below])
    if not below.all():
        columns[:, ~below] = _above_columns(params, scales, eps[~below])
    V, R, sigma = columns
    V_plus, V_minus = V + R * math.cos(delta_theta), V - R * math.cos(delta_theta)
    flag = np.where(near_threshold(scales, eps), FLAG_NEAR_THRESHOLD, FLAG_OK)
    return VarianceSweep(V, R, V_plus, V_minus, V_plus * V_minus, sigma, flag)


def _below_columns(params: SystemParams, scales: DerivedScales, eps: np.ndarray) -> tuple:
    """Minimized-angle ``(V, R, sigma_theta)`` below threshold, none cancelling up to it::

        V = 1 - eps (g2e + delta^2) / (eps s2 + Q),   Q = hypot(gamma s2, delta u)
        R = eps chi delta (u^2 + 4 gamma^2 chi^2) / (Q (2 eps Q - P)),   P = u v - 2 gamma^2 s2
        sigma_theta = atan2(delta u, gamma s2)   (0 at eps = 0, where it is free)

    in the factors of :func:`~nopolock.fluctuations._below_factors`; ``P < 0``.  Up to
    0.999 eps_th they are checked against the correlators to ``1e-12 (1 + 2n)``.
    """
    gamma, delta, chi = _require_symmetric(params)
    _, s2, u, v = _below_factors(params, eps)
    Q = np.hypot(gamma * s2, delta * u)
    V = 1 - eps * (s2 + u) / (2 * (eps * s2 + Q))  # (s2 + u) / 2 = g2e + delta^2
    R = (eps * chi * delta * (u**2 + 4 * (gamma * chi)**2)
         / (Q * (2 * eps * Q - (u * v - 2 * gamma**2 * s2))))
    sigma = np.where(eps > 0, np.arctan2(delta * u, gamma * s2), 0.0)
    far = eps <= 0.999 * scales.eps_th
    corr_aa, corr_ab = equal_time_corr_below_stack(params, scales, eps[far])
    n = corr_ab[:, 0, 0].real
    V_ref, R_ref, *_ = _variances(n, corr_aa[:, 0, 1], corr_aa[:, 0, 0], corr_ab[:, 1, 0],
                                  sigma[far], 0.0)
    err = np.maximum(abs(V[far] - V_ref), abs(R[far] - R_ref)) / (1 + 2 * n)
    if (err > 1e-12).any():
        raise AssertionError(f"closed-form and correlator variances disagree by {err.max():.3e}"
                             f" (1 + 2n) at eps = {eps[far][err.argmax()]:.6g}")
    return V, R, sigma


def _above_columns(params: SystemParams, scales: DerivedScales, eps: np.ndarray) -> tuple:
    """Locked-regime ``(V, R, sigma_theta)``, none cancelling near threshold::

        V = 1/2 + chi / (4 |delta|) - k / 4,   R = sign(delta) (chi / |delta| + k) / 4
        k = 1/w - 1 = lo / (gamma^2 w (w + 1)) <= 0,   w = sqrt(1 - lo / gamma^2)

    with ``lo = -(eps^2 - eps_th^2)`` of :func:`~nopolock.fluctuations._below_factors`,
    exact near threshold.  The sum angle is locked to the phase sum; at ``eps = eps_th``,
    where no locked state is lit, it is the limit of both sides.
    """
    gamma, delta, chi = _require_symmetric(params)
    if delta == 0:
        raise SingularParameterError(
            "above-threshold variances divide by |delta|; delta = 0 is singular")
    ad, sg = abs(delta), math.copysign(1.0, delta)
    lo, *_ = _below_factors(params, eps)
    w = np.sqrt(1 - lo / gamma**2)
    k = lo / (gamma**2 * w * (w + 1))
    V = 0.5 + chi / (4 * ad) - k / 4
    R = sg / 4 * (chi / ad + k)
    sigma = np.full(eps.shape, math.atan2(sg * (ad - chi), gamma))
    over = eps > scales.eps_th
    if over.any():
        phase_sum, *_ = _locked_family(params, scales, eps[over], "+")
        sigma[over] = wrap_angle(-phase_sum)
    return V, R, sigma


def variance_steady(params: SystemParams, scales: DerivedScales, eps: float,
                    delta_theta: float = 0.0) -> VarianceReport:
    """:func:`variance_sweep` at the single pump ``eps``, as a :class:`VarianceReport`.

    At ``eps = 0`` the sum angle is free: 0 is used, flagged ``degenerate``.
    """
    sweep = variance_sweep(params, scales, eps, delta_theta)
    angles = QuadratureAngles.from_sums(float(sweep.sigma_theta[0]), delta_theta,
                                        params, degenerate=eps == 0)
    return _report(sweep.V[0], sweep.R[0], sweep.V_plus[0], sweep.V_minus[0],
                   sweep.product[0], angles, str(sweep.flag[0]))


# ---------------------------------------------------------------------------
# unitary (lossless, short-time) evolution at zero detuning

#: |chi - eps| below this relative size switches to the degenerate-rate series
_BOUNDARY_RTOL = 1e-12


def unitary_variance(chi: float, eps: float, t: float | np.ndarray,
                     sigma_theta: float = 0.0) -> float | np.ndarray:
    """Two-mode variance ``V`` under lossless zero-detuning evolution.

    Oscillatory for ``eps < chi`` (period ``pi/sqrt(chi^2 - eps^2)`` in
    ``t``), exponentially growing for ``eps > chi``; ``V(0) = 1``.  ``t``
    may be an array of times; a scalar ``t`` gives a float.  For ``eps > chi``
    ``V`` is summed from non-negative squares, so it keeps full relative
    precision at its minimum ``chi / (eps + chi)`` however small ``chi / eps``,
    and is ``+inf`` once it exceeds the float range.
    """
    t = _checked("t", t)
    _checked("chi", chi)
    _checked("eps", eps)
    if not math.isfinite(sigma_theta):
        raise ParameterDomainError(f"sigma_theta must be finite, got {sigma_theta!r}")
    # photon number n and the (real) pair moment <a1 a2> of the evolved vacuum
    if abs(chi - eps) <= _BOUNDARY_RTOL * max(chi, eps, 1e-300):
        n, m_aa = eps**2 * t**2, eps * t
        V = 1 + 2 * n - 2 * m_aa * math.cos(sigma_theta)
    elif eps < chi:
        mu = math.sqrt(chi**2 - eps**2)
        n, m_aa = eps**2 * np.sin(mu * t)**2 / mu**2, eps * np.sin(2 * mu * t) / (2 * mu)
        V = 1 + 2 * n - 2 * m_aa * math.cos(sigma_theta)
    else:
        # 1 + 2n - 2 m_aa regrouped (chi^2 = (eps - eta)(eps + eta), e^-x = cosh x -
        # sinh x) into squares, which do not cancel near the minimum
        eta = math.sqrt(eps**2 - chi**2)
        with np.errstate(over="ignore"):  # sinh past the float range: V = +inf
            if chi == 0:  # the mixing terms vanish; written out they are 0 * inf late on
                V = np.exp(-eta * t)**2
            else:  # chi (chi sinh), not chi**2 sinh: chi**2 can underflow to 0 where sinh is inf
                mix = chi * np.sinh(eta * t)
                V = (np.exp(-eta * t) - chi * mix / (eta * (eps + eta)))**2 + (mix / eta)**2
            if math.cos(sigma_theta) != 1:  # skipped at 1, where it would be inf * 0
                w = 1 - math.cos(sigma_theta)
                term = 2 * (eps * np.sinh(2 * eta * t) / (2 * eta)) * w  # 2 m_aa w
                # past the range of sinh(2 eta t), sinh(eta t) cosh(eta t) keeps it finite
                V = V + np.where(np.isinf(term), 2 * eps * w / eta * np.sinh(eta * t)
                                 * np.cosh(eta * t), term)
    return float(V) if V.ndim == 0 else V


def unitary_minimum(chi: float, eps: float) -> tuple[float, float]:
    """First time and value of the variance minimum at ``cos(sigma_theta) = 1``.

    ``dV/dt = 0`` first at ``t = arctan(mu/eps) / (2 mu)`` with ``mu^2 = chi^2
    - eps^2`` for ``eps < chi``, at ``t = artanh(eta/eps) / (2 eta)`` with
    ``eta^2 = eps^2 - chi^2`` for ``eps > chi``, and at ``t = 1/(2 eps)`` on the
    boundary; the minimum value equals ``chi / (eps + chi)`` in every regime.
    """
    if not (0 < chi < math.inf and 0 < eps < math.inf):
        raise ParameterDomainError("unitary_minimum requires finite chi > 0 and eps > 0")
    if abs(chi - eps) <= _BOUNDARY_RTOL * max(chi, eps):
        t_min = 1 / (2 * eps)
    elif eps < chi:
        mu = math.sqrt(chi**2 - eps**2)
        t_min = math.atan(mu / eps) / (2 * mu)
    else:
        eta = math.sqrt(eps**2 - chi**2)
        # artanh(eta/eps) without the pole: eta/eps rounds to 1 once chi/eps < 1e-8
        t_min = math.log((eps + eta) / chi) / (2 * eta)
    return t_min, unitary_variance(chi, eps, t_min)

