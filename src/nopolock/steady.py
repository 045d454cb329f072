"""Noise-free steady states of the locked oscillator and their stability.

Above a critical pump the zero solution gives way to bright, phase-locked
solutions.  Two families exist, labelled "+" and "-" after their critical
pumps ``eps_cr_plus <= eps_cr_minus``.  The "+" family turns on at the
oscillation threshold and is the stable one; the "-" family is a saddle.
For positive detuning the stable solution has the two subharmonic phases
pi apart, for negative detuning they coincide (the roles swap for the
unstable family).  Every locked solution comes with a twin shifted by pi
in both phases, a consequence of the two-fold phase-space symmetry of the
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import drift_field, drift_jacobian
from .errors import NotSteadyStateError, ParameterDomainError
from .params import (DerivedScales, SystemParams, _critical_eps_squared, _locking_sides,
                     locking_feasible, wrap_angle)

#: eigenvalue real parts must exceed this multiple of the smaller damping
#: rate to count as decaying; guards against spurious marginality at threshold
STABILITY_RTOL = 1e-9


@dataclass(frozen=True)
class CriticalPoints:
    """The two pump rates at which locked solution families appear."""

    eps_cr_plus: float
    eps_cr_minus: float


@dataclass(frozen=True)
class SteadyStateBranch:
    """One steady-state solution: photon numbers, locked phases, stability.

    ``phi10``/``phi20`` hold the canonical phase representative; the
    physically equivalent twin (both phases shifted by pi) is available via
    :meth:`twin`.  ``eigenvalues`` are the decay rates of small deviations
    (positive real part means the deviation decays), ``stable`` is true when
    every real part clears :data:`STABILITY_RTOL`.  ``below_critical`` marks
    a zero solution returned because the requested family does not yet exist
    at the given pump.
    """

    branch: str
    n10: float
    n20: float
    phi10: float
    phi20: float
    phase_sum: float
    phase_diff: float
    stable: bool
    eigenvalues: tuple[complex, ...]
    below_critical: bool = False

    @property
    def is_zero(self) -> bool:
        return self.n10 == 0.0 and self.n20 == 0.0

    def state_vector(self) -> np.ndarray:
        """Classical state ``(alpha1, alpha2, conj(alpha1), conj(alpha2))``."""
        if self.is_zero:
            return np.zeros(4, dtype=complex)
        return _state_vectors(self.n10, self.n20, self.phi10, self.phi20)

    def twin(self) -> "SteadyStateBranch":
        """The pi-shifted phase twin (identical photon numbers and stability)."""
        if self.is_zero:
            return self
        return replace(self,
                       phi10=wrap_angle(self.phi10 + math.pi),
                       phi20=wrap_angle(self.phi20 + math.pi))


def critical_points(params: SystemParams, scales: DerivedScales) -> CriticalPoints:
    """Critical pump rates of the two locked families, ordered.

    Raises
    ------
    ParameterDomainError
        When :func:`~nopolock.params.locking_feasible` fails; the message
        names both sides of its inequality.
    """
    if not locking_feasible(params):
        lhs, rhs = _locking_sides(params)
        raise ParameterDomainError(
            "locked solutions do not exist: requires "
            "4*chi^2*delta1*delta2 > (gamma1*delta2 - gamma2*delta1)^2, "
            f"got {lhs:.6g} <= {rhs:.6g}")
    lo_sq, hi_sq = _critical_eps_squared(params)
    return CriticalPoints(eps_cr_plus=math.sqrt(lo_sq), eps_cr_minus=math.sqrt(hi_sq))


def _zero_branch(branch: str, ev: np.ndarray, stable: bool,
                 below_critical: bool) -> SteadyStateBranch:
    return SteadyStateBranch(branch=branch, n10=0.0, n20=0.0,
                             phi10=math.nan, phi20=math.nan,
                             phase_sum=math.nan, phase_diff=math.nan,
                             stable=stable, eigenvalues=tuple(ev),
                             below_critical=below_critical)


def steady_state(params: SystemParams, scales: DerivedScales, eps: float,
                 branch: str = "+") -> SteadyStateBranch:
    """Solve the noise-free steady state at pump ``eps`` on one family.

    ``branch`` is ``"+"`` (the stable family) or ``"-"``.  Below the
    family's critical pump the zero solution is returned with
    ``below_critical`` set.  The canonical phase representative is returned;
    its pi-shifted twin is :meth:`SteadyStateBranch.twin`.
    """
    if branch not in ("+", "-"):
        raise ParameterDomainError(f"unknown branch {branch!r}")
    if eps < 0:
        raise ParameterDomainError("pump rate eps must be non-negative")
    if scales.lam <= 0:
        raise ParameterDomainError("effective nonlinearity lam must be positive (k > 0)")

    if eps == 0.0 or not locking_feasible(params):
        if eps > scales.eps_th and not locking_feasible(params):
            # fall through to the named-inequality error
            critical_points(params, scales)
        ev, stable = stability_eigenvalues(params, scales, eps, np.zeros(4, complex))
        return _zero_branch(branch, ev, stable, below_critical=eps > 0)

    phase_sum, phase_diff, lit, n10, n20, ev, stable = _locked_family(
        params, scales, np.array([eps], dtype=float), branch)
    if not lit[0]:
        return _zero_branch(branch, ev[0], bool(stable[0]), below_critical=True)
    phase_sum = float(phase_sum[0])
    return SteadyStateBranch(
        branch=branch, n10=float(n10[0]), n20=float(n20[0]),
        phi10=wrap_angle((phase_sum - phase_diff) / 2),
        phi20=wrap_angle((phase_sum + phase_diff) / 2),
        phase_sum=phase_sum, phase_diff=wrap_angle(phase_diff),
        stable=bool(stable[0]), eigenvalues=tuple(ev[0]))


def _locked_family(params: SystemParams, scales: DerivedScales, eps: np.ndarray,
                   label: str) -> tuple:
    """Closed-form steady states of family ``label`` at every pump of ``eps``.

    ``eps`` is a 1-D array.  Returns ``(phase_sum, phase_diff, lit, n10,
    n20, eigenvalues, stable)``: ``lit`` marks the pumps above the family's
    critical point, where the bright solution exists; elsewhere the photon
    numbers are 0 and ``phase_sum`` is NaN (the zero solution).
    ``phase_diff`` is the pump-independent unwrapped phase difference.
    Every state, zero or bright, goes through the drift-residual check and
    the stability solve of :func:`stability_eigenvalues`, each run once on
    the whole batch.
    """
    if scales.lam <= 0:
        raise ParameterDomainError("effective nonlinearity lam must be positive (k > 0)")
    crit = critical_points(params, scales)
    eps_cr = crit.eps_cr_plus if label == "+" else crit.eps_cr_minus

    g1, g2 = params.gamma1, params.gamma2
    d1, d2 = params.delta1, params.delta2
    chi, lam = params.chi, scales.lam
    gt = scales.gamma_tilde
    # signed geometric-mean detuning and the locked phase-difference sine
    ds = math.copysign(math.sqrt(d1 * d2), d1)
    sin_diff = (g1 * math.sqrt(d2 / d1) - g2 * math.sqrt(d1 / d2)) / (2 * chi)
    cos_diff = math.sqrt(max(0.0, 1.0 - sin_diff**2))
    cos_diff *= -math.copysign(1.0, ds) if label == "+" else math.copysign(1.0, ds)
    phase_diff = math.atan2(sin_diff, cos_diff)

    lit = eps > eps_cr
    e = eps[lit]
    m = np.zeros(eps.shape)
    m[lit] = (np.sqrt(e**2 - eps_cr**2 + gt**2) - gt) / lam
    n10 = m * math.sqrt(d2 / d1)
    n20 = m * math.sqrt(d1 / d2)
    phase_sum = np.full(eps.shape, np.nan)
    phase_sum[lit] = np.arctan2(-(ds + chi * cos_diff) / e, (gt + lam * m[lit]) / e)

    # dark pumps carry the zero solution: amplitude 0 at an arbitrary finite phase
    sums = np.where(lit, phase_sum, 0.0)
    states = _state_vectors(n10, n20, wrap_angle((sums - phase_diff) / 2),
                            wrap_angle((sums + phase_diff) / 2))
    ev, stable = _stability(params, scales, eps, states)
    return phase_sum, phase_diff, lit, n10, n20, ev, stable


def _state_vectors(n10, n20, phi10, phi20) -> np.ndarray:
    """``(alpha1, alpha2, conj(alpha1), conj(alpha2))``; broadcasts over the inputs."""
    a1 = np.sqrt(n10) * np.exp(1j * phi10)
    a2 = np.sqrt(n20) * np.exp(1j * phi20)
    return np.array([a1, a2, a1.conj(), a2.conj()])


def stability_eigenvalues(params: SystemParams, scales: DerivedScales, eps: float,
                          state: np.ndarray) -> tuple[np.ndarray, bool]:
    """Decay rates of deviations around a steady state, and a stability verdict.

    Returns the eigenvalues of minus the drift Jacobian, sorted by real then
    imaginary part: positive real parts mean decay.  ``stable`` is true when
    every real part exceeds ``STABILITY_RTOL * min(gamma1, gamma2)``.

    Raises
    ------
    NotSteadyStateError
        When ``state`` is not actually a steady state of the drift.
    ParameterDomainError
        When the betas of ``state`` are not the conjugates of its alphas (1e-12 relative).
    """
    state = np.asarray(state, dtype=complex)
    ev, stable = _stability(params, scales, np.array([eps], dtype=float), state[:, None])
    return ev[0], bool(stable[0])


def _stability(params: SystemParams, scales: DerivedScales, eps: np.ndarray,
               states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`stability_eigenvalues` of the states ``(4, n)`` at the pumps ``eps``.

    Every check and the eigenvalue solve run once on the whole batch; the
    first state that fails a check raises.
    """
    amp = 1.0 + np.abs(states).max(axis=0)
    if (np.abs(states[2:] - states[:2].conj()) > 1e-12 * amp).any():
        raise ParameterDomainError("stability needs a classical state, beta = conj(alpha)")
    eff = replace(scales, eps=eps)  # the drift broadcasts one pump per state
    resid = np.abs(drift_field(states, params, eff)).max(axis=0)
    rate = np.maximum(max(params.gamma1, params.gamma2, abs(params.delta1),
                          abs(params.delta2), params.chi),
                      np.maximum(eps, scales.lam * amp**2))
    bound = 1e-7 * amp * rate
    bad = resid > bound
    if bad.any():
        i = int(np.argmax(bad))
        raise NotSteadyStateError(
            f"state is not steady: drift residual {resid[i]:.3e} "
            f"exceeds {bound[i]:.3e} at eps = {eps[i]:.6g}")
    # on classical states -J = [[P, Q], [conj Q, conj P]], unitarily similar
    # to the real Jacobian of the flow in quadratures, which LAPACK solves faster
    M = -drift_jacobian(states, params, eff)
    S, D = M[..., :2, :2] + M[..., :2, 2:], M[..., :2, :2] - M[..., :2, 2:]
    ev = np.linalg.eigvals(np.block([[S.real, -D.imag], [S.imag, D.real]]))
    ev = np.sort(ev.astype(complex), axis=-1)
    tol = STABILITY_RTOL * min(params.gamma1, params.gamma2)
    return ev, np.all(ev.real > tol, axis=-1)


def replace_pump(params: SystemParams, scales: DerivedScales,
                 eps: float) -> tuple[SystemParams, DerivedScales]:
    """Parameters/scales with the pump rate overridden to ``eps``.

    Lets sweep code vary the pump without rebuilding the full parameter set.
    """
    if eps == scales.eps:
        return params, scales
    E = eps * params.gamma3 / params.k if params.k > 0 else 0.0
    return replace(params, E=E), replace(scales, eps=eps)


def drift_residual(params: SystemParams, scales: DerivedScales, eps: float,
                   state: np.ndarray) -> float:
    """Max absolute deterministic drift at ``state`` (zero for steady states)."""
    p, s = replace_pump(params, scales, eps)
    return float(np.abs(drift_field(np.asarray(state, complex), p, s)).max())


def output_rates(params: SystemParams, scales: DerivedScales,
                 n0: float) -> tuple[float, float, float]:
    """Input pump photon flux and the two subharmonic output fluxes.

    ``n3_in = E**2 / (2*gamma3)`` photons per unit time arrive in the pump;
    each subharmonic emits ``2*gamma_i*n0``.
    """
    n3_in = params.E**2 / (2 * params.gamma3)
    return n3_in, 2 * params.gamma1 * n0, 2 * params.gamma2 * n0
