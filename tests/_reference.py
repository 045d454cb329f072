"""Reference definitions the package is checked against, none called by the package.

``noise_increment`` is the stochastic half of one Euler step written out
directly, one Philox draw per step; with :func:`nopolock.steady.drift_field`
it defines the step that ``montecarlo._integrate`` fuses.  ``adiabatic_pump``
is the eliminated pump amplitude, a diagnostic of pump depletion.
``above_dynamics`` writes out the drift and diffusion of the locked state's
(+)/(-) number/phase pairs, whose stationary covariances
:func:`nopolock.above_matrices` gives in closed form; ``lagged_above`` gives
their lagged covariances through :func:`nopolock.fluctuations._lagged`.
``optimal_angle_sum`` is the sum angle that minimizes ``V`` for a given
moment set, and ``unitary_period`` the period of the lossless variance for
``eps < chi``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from nopolock import MomentSet, QuadratureAngles, above_matrices, wrap_angle
from nopolock.errors import ParameterDomainError
from nopolock.fluctuations import _lagged
from nopolock.params import DerivedScales, SystemParams


def noise_increment(state: np.ndarray, params: SystemParams, scales: DerivedScales,
                    dt: float, rng: np.random.Generator) -> np.ndarray:
    """One Euler step's stochastic increment for ``(alpha1, alpha2, beta1, beta2)``.

    Sample statistics realize ``<dW1 dW2> = (eps - lam*alpha1*alpha2) dt``
    and ``<dW1+ dW2+> = (eps - lam*beta1*beta2) dt`` with all other second
    moments zero; a complex correlator coefficient is legitimate here.
    """
    if dt <= 0:
        raise ParameterDomainError("dt must be positive")
    a1, a2, b1, b2 = np.asarray(state, dtype=complex)
    c = scales.eps - scales.lam * a1 * a2
    cb = scales.eps - scales.lam * b1 * b2
    xi = rng.standard_normal((4,) + np.shape(a1))
    sc = np.sqrt(np.asarray(c / 2, dtype=complex))
    scb = np.sqrt(np.asarray(cb / 2, dtype=complex))
    inc = np.stack([
        sc * (xi[0] + 1j * xi[1]),
        sc * (xi[0] - 1j * xi[1]),
        scb * (xi[2] + 1j * xi[3]),
        scb * (xi[2] - 1j * xi[3]),
    ])
    return inc * math.sqrt(dt)


def adiabatic_pump(state: np.ndarray, params: SystemParams, scales: DerivedScales) -> np.ndarray:
    """Eliminated pump amplitude ``(E - k*alpha1*alpha2) / gamma3``."""
    a1, a2 = np.asarray(state, dtype=complex)[:2]
    return (params.E - params.k * a1 * a2) / params.gamma3


def above_dynamics(params: SystemParams, scales: DerivedScales, eps: float) -> tuple:
    """Drift and diffusion ``(F_plus, F_minus, D_plus, D_minus)`` of the (+)/(-) pairs.

    The (+) pair is ``(dn2 + dn1, dphi2 + dphi1)``, the (-) pair the differences, each
    obeying ``d/dt dx = -F dx + R`` about the stable locked state.  ``D_minus`` is
    reconstructed from the closed-form ``C_minus`` by ``D = 2 F C``; the linearized
    dynamics give ``D_minus = -D_plus``.
    """
    mats = above_matrices(params, scales, eps)
    gamma, delta, chi = params.gamma1, params.delta1, params.chi
    n0, lam, sg = mats.n0, scales.lam, math.copysign(1.0, delta)
    sin_sum = math.sin(mats.phase_sum)
    F_plus = np.array([[2 * lam * n0, 4 * n0 * eps * sin_sum],
                       [0.0, 2 * (gamma + lam * n0)]])
    F_minus = np.array([[2 * gamma, -4 * n0 * chi * sg],
                        [delta / n0, 0.0]])
    D_plus = np.array([[4 * n0 * gamma, -2 * eps * sin_sum],
                       [-2 * eps * sin_sum, -gamma / n0]])
    return F_plus, F_minus, D_plus, 2 * F_minus @ mats.C_minus


def lagged_above(params: SystemParams, scales: DerivedScales, eps: float,
                 tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Lag-``tau`` covariances of the (+) and (-) pairs; ``tau = 0`` gives ``C_plus``,
    ``C_minus`` exactly."""
    mats = above_matrices(params, scales, eps)
    F_plus, F_minus, *_ = above_dynamics(params, scales, eps)
    return _lagged(F_plus, mats.C_plus, tau), _lagged(F_minus, mats.C_minus, tau)


def optimal_angle_sum(moments: MomentSet, params: SystemParams | None = None,
                      delta_theta: float = 0.0) -> QuadratureAngles:
    """Angle choice minimizing ``V``: ``sigma_theta = -arg <a1 a2>``.

    A vanishing pair moment leaves the sum angle free; zero is returned
    with the ``degenerate`` flag set.
    """
    if moments.m_aa == 0:
        return QuadratureAngles.from_sums(0.0, delta_theta, params, degenerate=True)
    return QuadratureAngles.from_sums(wrap_angle(-cmath.phase(moments.m_aa)), delta_theta,
                                      params)


def unitary_period(chi: float, eps: float) -> float:
    """Period ``pi / sqrt(chi^2 - eps^2)`` of the lossless ``V(t)`` for ``eps < chi``."""
    return math.pi / math.sqrt(chi**2 - eps**2)
