"""Deterministic part of the pump-eliminated equations in doubled phase space.

State layout is ``(alpha1, alpha2, beta1, beta2)``: independent complex
amplitudes for each subharmonic and its conjugate partner.  On the
classical submanifold ``beta_i = conj(alpha_i)`` the flow reduces to the
mean-field equations; the Monte Carlo module adds the noise.

All functions broadcast over trailing axes, so ``state`` may be shape
``(4,)`` for a single point or ``(4, n)`` for a batch of trajectories or
steady states; ``scales.eps`` may likewise hold one pump rate per state.
"""

from __future__ import annotations

import numpy as np

from .params import DerivedScales, SystemParams


def drift_field(state: np.ndarray, params: SystemParams, scales: DerivedScales) -> np.ndarray:
    """Deterministic time derivative of ``(alpha1, alpha2, beta1, beta2)``."""
    a1, a2, b1, b2 = np.asarray(state, dtype=complex)
    g1, g2 = params.gamma1, params.gamma2
    d1, d2 = params.delta1, params.delta2
    chi = params.chi
    eps, lam = scales.eps, scales.lam
    c = eps - lam * a1 * a2
    cb = eps - lam * b1 * b2
    return np.stack([
        -(g1 + 1j * d1) * a1 + c * b2 - 1j * chi * a2,
        -(g2 + 1j * d2) * a2 + c * b1 - 1j * chi * a1,
        -(g1 - 1j * d1) * b1 + cb * a2 + 1j * chi * b2,
        -(g2 - 1j * d2) * b2 + cb * a1 + 1j * chi * b1,
    ])


def drift_jacobian(state: np.ndarray, params: SystemParams, scales: DerivedScales) -> np.ndarray:
    """Exact Jacobian of :func:`drift_field`, shape ``state.shape[1:] + (4, 4)``.

    The drift is polynomial in the four complex variables, so the Jacobian
    is analytic; no finite differencing is needed.  A single state gives
    one 4x4 matrix, a batch ``(4, n)`` a stack ``(n, 4, 4)``.
    """
    a1, a2, b1, b2 = np.asarray(state, dtype=complex)
    g1, g2 = params.gamma1, params.gamma2
    d1, d2 = params.delta1, params.delta2
    chi = params.chi
    eps, lam = scales.eps, scales.lam
    c = eps - lam * a1 * a2
    cb = eps - lam * b1 * b2
    jac = np.zeros(np.shape(c) + (4, 4), dtype=complex)
    jac[..., 0, 0] = -(g1 + 1j * d1) - lam * a2 * b2
    jac[..., 0, 1] = -lam * a1 * b2 - 1j * chi
    jac[..., 0, 3] = c
    jac[..., 1, 0] = -lam * a2 * b1 - 1j * chi
    jac[..., 1, 1] = -(g2 + 1j * d2) - lam * a1 * b1
    jac[..., 1, 2] = c
    jac[..., 2, 1] = cb
    jac[..., 2, 2] = -(g1 - 1j * d1) - lam * a2 * b2
    jac[..., 2, 3] = -lam * a2 * b1 + 1j * chi
    jac[..., 3, 0] = cb
    jac[..., 3, 2] = -lam * a1 * b2 + 1j * chi
    jac[..., 3, 3] = -(g2 - 1j * d2) - lam * a1 * b1
    return jac


def adiabatic_pump(state: np.ndarray, params: SystemParams, scales: DerivedScales) -> np.ndarray:
    """Eliminated pump amplitude ``(E - k*alpha1*alpha2) / gamma3`` (diagnostic)."""
    a1, a2 = np.asarray(state, dtype=complex)[:2]
    return (params.E - params.k * a1 * a2) / params.gamma3
