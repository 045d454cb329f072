"""Per-step reference definitions the fused Monte Carlo engine is checked against.

``noise_increment`` is the stochastic half of one Euler step written out
directly, one Philox draw per step; with :func:`nopolock.steady.drift_field`
it defines the step that ``montecarlo._integrate`` fuses.  ``adiabatic_pump``
is the eliminated pump amplitude, a diagnostic of pump depletion.  Neither is
called by the package.
"""

from __future__ import annotations

import math

import numpy as np

from nopolock.errors import ParameterDomainError
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
