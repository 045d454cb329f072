"""Linearized quantum fluctuations: drift/diffusion matrices and correlators.

Below threshold the fluctuations of ``(d_alpha1, d_alpha2, d_beta1,
d_beta2)`` around the zero solution obey a linear Langevin system

    d/dt dx = -F dx + R,   <R(t) R(t')^T> = D delta(t - t'),

whose stationary covariance is ``C = (1/2) F^-1 D`` thanks to the operator
identity ``D F^T = F D`` satisfied by this model (exactly, in floating point
too: :func:`_below_matrix_stacks`).  Above threshold the
number/phase deviations decouple into independent sum (+) and difference
(-) pairs, each again a 2x2 linear Langevin system; their stationary
covariances are evaluated from closed forms.  The lagged covariance below
threshold uses a closed-form 2x2 ``exp(-F tau)`` on the two 2x2 blocks that
the mode-swap symmetry splits ``F`` into (:func:`_lagged`): numpy suffices.

Sign conventions here follow the linearization of the stochastic equations
(so that photon numbers come out positive): below threshold ``F`` is minus
the Jacobian :func:`~nopolock.steady.drift_jacobian` of the mean-field drift
at the zero state, so the off-diagonal blocks of ``F`` carry ``-eps`` where
the corresponding diffusion blocks carry ``+eps``.

All entries are covariances of the doubled-phase-space variables, i.e.
normal-ordered moments; individual entries may be negative or diverge at
threshold even though every physical variance assembled from them stays
finite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterDomainError, SingularParameterError
from .params import DerivedScales, SystemParams, wrap_angle
from .steady import _checked, _locked_family, drift_jacobian

#: relative half-width of the pump band around threshold inside which the
#: linearized treatment is flagged unreliable
NEAR_THRESHOLD_BAND = 0.05


def _require_symmetric(params: SystemParams) -> tuple[float, float, float]:
    if not params.is_symmetric:
        raise ParameterDomainError(
            "linearized correlators are implemented for symmetric parameters "
            "(gamma1 == gamma2 and delta1 == delta2)")
    return params.gamma1, params.delta1, params.chi


def _require_detuned(params: SystemParams) -> tuple[float, float, float]:
    """:func:`_require_symmetric`, also refusing ``delta = 0``, where the locked forms divide."""
    gamma, delta, chi = _require_symmetric(params)
    if delta == 0:
        raise SingularParameterError(
            "the locked-state closed forms divide by |delta|; delta = 0 is singular")
    return gamma, delta, chi


def near_threshold(scales: DerivedScales, eps: float) -> bool:
    """Whether ``eps`` lies in the band where linearization is unreliable."""
    return abs(eps - scales.eps_th) < NEAR_THRESHOLD_BAND * scales.eps_th


@dataclass(frozen=True)
class BelowThresholdMatrices:
    """Drift ``F`` and diffusion ``D`` below threshold.

    ``F`` has the block structure ``[[A, B], [conj(B), conj(A)]]``.
    """

    F: np.ndarray
    D: np.ndarray


def below_matrices(params: SystemParams, scales: DerivedScales,
                   eps: float) -> BelowThresholdMatrices:
    """Linearized drift and diffusion around the zero solution."""
    _require_symmetric(params)
    F, D = _below_matrix_stacks(params, scales, _checked("eps", [eps], scales.eps_th))
    return BelowThresholdMatrices(F=F[0], D=D[0])


def _below_matrix_stacks(params: SystemParams, scales: DerivedScales,
                         eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift ``F`` and diffusion ``D`` stacks ``(n, 4, 4)`` at the pumps ``eps``.

    ``F`` is minus :func:`~nopolock.steady.drift_jacobian` at the zero state.
    Every entry of ``D F^T`` and of ``F D`` is one product of the same two
    numbers, so ``D F^T = F D`` holds exactly.
    """
    F = -drift_jacobian(np.zeros((4, eps.size), complex), params, replace(scales, eps=eps))
    # D = eps X in the diagonal blocks, where F has B = -eps X off the diagonal
    D = np.zeros((eps.size, 4, 4), dtype=complex)
    D[:, 0, 1] = D[:, 1, 0] = D[:, 2, 3] = D[:, 3, 2] = eps
    return F, D


def _below_factors(params: SystemParams, eps: np.ndarray) -> tuple:
    """``(lo, s2, u, v) = g2e + ((chi - a)^2, chi^2 + a^2, -cd, cd)`` at the pumps ``eps``.

    ``a = |delta|``, ``g2e = gamma^2 - eps^2``, ``cd = chi^2 - a^2``.  ``lo``, zero at
    threshold, is ``(th - eps)(th + eps) + r``, ``th = eps_th``, with ``r = gamma^2 + (chi
    - a)^2 - th^2`` rounded once from exact arithmetic; the rest add one term to ``lo``.
    """
    from fractions import Fraction  # exact r, once per call; not loaded by import
    gamma, chi, ad = params.gamma1, params.chi, abs(params.delta1)
    th = math.hypot(chi - ad, gamma)  # eps_th, as derive_scales forms it
    lo = (th - eps) * (th + eps) + float(
        Fraction(gamma)**2 + (Fraction(chi) - Fraction(ad))**2 - Fraction(th)**2)
    return lo, lo + 2 * chi * ad, lo - 2 * chi * (chi - ad), lo - 2 * ad * (ad - chi)


def _corr_closed_below(params: SystemParams,
                       eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``<d_alpha d_alpha^T>``/``<d_alpha d_beta^T>`` stacks ``(n, 2, 2)``, in
    the factors of :func:`_below_factors`, which do not cancel up to threshold."""
    gamma, delta, chi = params.gamma1, params.delta1, params.chi
    lo, s2, u, v = _below_factors(params, eps)
    den = lo * (lo + 4 * chi * abs(delta))  # s2^2 - 4 delta^2 chi^2
    scale_aa, scale_ab = eps / (2 * den), eps**2 / (2 * den)
    corr_aa = np.empty((eps.size, 2, 2), dtype=complex)
    corr_aa[:, 0, 0] = corr_aa[:, 1, 1] = scale_aa * (gamma * (-2 * chi * delta) - 1j * (chi * v))
    corr_aa[:, 0, 1] = corr_aa[:, 1, 0] = scale_aa * (gamma * s2 - 1j * (delta * u))
    corr_ab = np.empty((eps.size, 2, 2), dtype=complex)
    corr_ab[:, 0, 0] = corr_ab[:, 1, 1] = scale_ab * s2
    corr_ab[:, 0, 1] = corr_ab[:, 1, 0] = scale_ab * (-2 * chi * delta)
    return corr_aa, corr_ab


def stationary_covariance_below(params: SystemParams, scales: DerivedScales,
                                eps: float) -> np.ndarray:
    """Full 4x4 stationary covariance ``(1/2) F^-1 D``."""
    mats = below_matrices(params, scales, eps)
    return 0.5 * np.linalg.solve(mats.F, mats.D)


def equal_time_corr_below(params: SystemParams, scales: DerivedScales,
                          eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Stationary ``<d_alpha d_alpha^T>`` and ``<d_alpha d_beta^T>`` blocks.

    The closed forms are returned; away from threshold they are checked
    elementwise against the generic ``(1/2) F^-1 D`` route, whose error
    grows with the condition number of ``F`` as ``F`` approaches
    singularity at threshold (:func:`equal_time_corr_below_stack`).
    """
    corr_aa, corr_ab = equal_time_corr_below_stack(params, scales,
                                                   np.array([eps], dtype=float))
    return corr_aa[0], corr_ab[0]


def equal_time_corr_below_stack(params: SystemParams, scales: DerivedScales,
                                eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`equal_time_corr_below` at every pump of the 1-D array ``eps``.

    Returns ``(n, 2, 2)`` stacks.  Wherever ``eps <= 0.999 eps_th`` the closed
    forms are checked against one batched ``(1/2) F^-1 D`` solve, built at
    those pumps only, to ``1e-12 max(1, |C|) max(1, kappa / 100)``: ``kappa =
    max|F| max|C| / max|D/2|`` is a lower bound on the condition number of
    ``F`` (0 where ``D = 0``, at ``eps = 0``, where ``C = 0``).
    """
    _require_symmetric(params)
    eps = _checked("eps", eps, scales.eps_th)
    corr_aa, corr_ab = _corr_closed_below(params, eps)
    far = eps <= 0.999 * scales.eps_th
    if far.any():
        F, D = _below_matrix_stacks(params, scales, eps[far])
        C4 = 0.5 * np.linalg.solve(F, D)
        c_max, half_d = np.abs(C4).max(axis=(1, 2)), eps[far] / 2  # max|D/2|
        kappa = np.divide(np.abs(F).max(axis=(1, 2)) * c_max, half_d,
                          out=np.zeros_like(half_d), where=half_d > 0)
        err = np.maximum(np.abs(C4[:, :2, :2] - corr_aa[far]).max(axis=(1, 2)),
                         np.abs(C4[:, :2, 2:] - corr_ab[far]).max(axis=(1, 2)))
        bad = err > 1e-12 * np.maximum(1.0, c_max) * np.maximum(1.0, kappa / 100)
        if bad.any():
            raise AssertionError(
                "closed-form and generic equal-time correlators disagree: "
                f"{err[bad][0]:.3e} at eps = {eps[far][bad][0]:.6g}")
    return corr_aa, corr_ab


def temporal_corr_below(params: SystemParams, scales: DerivedScales,
                        eps: float, tau: float) -> np.ndarray:
    """Two-time covariance ``<dx(t + tau) dx(t)^T>`` of the 4-vector.

    Equals ``exp(-F*tau) C`` for ``tau >= 0`` and ``C exp(-F^T*|tau|)``
    for ``tau < 0``; at ``tau = 0`` it reduces to the stationary covariance.
    """
    mats = below_matrices(params, scales, eps)
    return _lagged(mats.F, 0.5 * np.linalg.solve(mats.F, mats.D), tau)


def _lagged(F: np.ndarray, C: np.ndarray, tau: float) -> np.ndarray:
    """Lag-``tau`` covariance of ``d/dt dx = -F dx + R`` with stationary covariance ``C``.

    ``exp(M)``, ``M = -F |tau|`` (``-F^T |tau|`` for ``tau < 0``), is ``e^h (cosh(s) I
    + sinh(s)/s (M - h I))`` for 2x2 ``M`` (Cayley-Hamilton), ``h = tr M / 2``, ``s^2 =
    h^2 - det M``.  A 4x4 ``F`` (below threshold) and its ``C`` commute with the swap of
    modes 1 and 2 in each pair: in the basis ``(x1 +- x2) / sqrt 2`` they are two 2x2 blocks.
    """
    if F.shape == (4, 4):
        plus, minus = (_lagged(F[::2, ::2] + sign * F[::2, 1::2],
                               C[::2, ::2] + sign * C[::2, 1::2], tau) for sign in (1, -1))
        return (np.kron((plus + minus) / 2, np.eye(2))
                + np.kron((plus - minus) / 2, [[0, 1], [1, 0]]))  # the second factor is the swap
    M = -_checked("|tau|", abs(tau)) * (F if tau >= 0 else F.T)
    h = (M[0, 0] + M[1, 1]) / 2
    s = cmath.sqrt((M[0, 0] - h)**2 + M[0, 1] * M[1, 0])  # h^2 - det M, from M - h I
    if abs(s) < 1:  # bounded, uncancelled factors; exact at the defective point s = 0
        cosh, sinhc = cmath.exp(h) * cmath.cosh(s), cmath.exp(h) * (cmath.sinh(s) / s if s else 1)
    else:  # e^(h +- s) apart: at long lags e^h underflows where cosh(s) overflows
        up, down = cmath.exp(h + s), cmath.exp(h - s)
        cosh, sinhc = (up + down) / 2, (up - down) / (2 * s)
    E = cosh * np.eye(2) + sinhc * (M - h * np.eye(2))
    return E @ C if tau >= 0 else C @ E


def mean_photon_below(params: SystemParams, scales: DerivedScales,
                      eps: float) -> float:
    """Stationary mean photon number per mode below threshold, ``<d_alpha1 d_beta1>``."""
    return float(equal_time_corr_below(params, scales, eps)[1][0, 0].real)


@dataclass(frozen=True)
class AboveThresholdMatrices:
    """Stationary covariances of the decoupled (+)/(-) number/phase pairs.

    The (+) pair is ``(dn2 + dn1, dphi2 + dphi1)``, the (-) pair the
    differences; ``C_plus``/``C_minus`` come from closed forms, and
    cross-correlations between the two pairs vanish identically.  ``n0``,
    ``phase_sum`` and ``phase_diff`` are the photon number and locked phases
    of the steady state linearized about.
    """

    C_plus: np.ndarray
    C_minus: np.ndarray
    n0: float
    phase_sum: float
    phase_diff: float


def above_matrices(params: SystemParams, scales: DerivedScales,
                   eps: float) -> AboveThresholdMatrices:
    """Fluctuation covariances around the stable locked solution."""
    gamma, delta, chi = _require_detuned(params)
    if chi <= 0:
        raise ParameterDomainError("above-threshold locked fluctuations require chi > 0")
    pumps = _checked("eps", [eps], np.nextafter(scales.eps_th, math.inf), below=False)
    # the stable locked state, as steady_state gives it, without its eigenvalues
    phase_sum, phase_diff, _, n10, *_ = _locked_family(params, scales, pumps, "+")
    n0, phase_sum, phase_diff = float(n10[0]), float(phase_sum[0]), wrap_angle(phase_diff)
    lam = scales.lam
    sg = math.copysign(1.0, delta)
    ad = abs(delta)
    ch = chi - ad
    gl = gamma + lam * n0
    C_plus = np.array([
        [4 * n0 * (gamma * gl + ch**2), -2 * lam * n0 * ch * sg],
        [-2 * lam * n0 * ch * sg, -lam * gamma],
    ]) / (4 * lam * n0 * gl)
    C_minus = np.array([
        [4 * n0 * chi * ch, 2 * chi * gamma * sg],
        [2 * chi * gamma * sg, (gamma**2 - ad * ch) / n0],
    ]) / (4 * ad * chi)
    return AboveThresholdMatrices(C_plus=C_plus, C_minus=C_minus, n0=n0,
                                  phase_sum=phase_sum, phase_diff=phase_diff)
