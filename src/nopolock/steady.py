"""Noise-free steady states of the locked oscillator and their stability.

Steady states are the zeros of :func:`drift_field`, the deterministic part of
the pump-eliminated equations; :func:`drift_jacobian` gives their stability.

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

from .errors import NotSteadyStateError, ParameterDomainError, RegimeError
from .params import (DerivedScales, SystemParams, _critical_eps_squared, _locking_sides,
                     locking_feasible, wrap_angle)

#: eigenvalue real parts must exceed this multiple of the smaller damping
#: rate to count as decaying; guards against spurious marginality at threshold
STABILITY_RTOL = 1e-9


def _checked(name: str, values, edge: float = math.inf, below: bool = True) -> np.ndarray:
    """``values`` (pumps, times, rates or lags) as a float array, each one checked.

    A negative or non-finite value raises :class:`ParameterDomainError`.  A pump
    at or past ``edge`` (``below``), or short of it, raises :class:`RegimeError`:
    ``edge`` is where a below- or above-threshold evaluator stops.
    """
    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        raise ParameterDomainError(f"{name} must be non-negative and finite, got {values[bad][0]}")
    wrong = values >= edge if below else values < edge
    if wrong.any():
        side = ("outside the below-threshold range [0, {:.6g}); use the above-threshold evaluator"
                if below else "is at or below threshold, short of {:.6g}; use the below-threshold "
                "evaluator")
        raise RegimeError(f"{name} = {values[wrong][0]:.6g} " + side.format(edge))
    return values


def drift_field(state: np.ndarray, params: SystemParams, scales: DerivedScales) -> np.ndarray:
    """Deterministic time derivative of ``(alpha1, alpha2, beta1, beta2)``.

    The betas are independent partners of the alphas in doubled phase space; on
    ``beta = conj(alpha)`` the flow is the mean-field one, and the Monte Carlo adds
    the noise.  ``state`` may be ``(4,)`` or a batch ``(4, n)``, and ``scales.eps``
    may hold one pump rate per state.
    """
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
    pumps = np.atleast_1d(_checked("eps", eps))
    phase_sum, phase_diff, lit, n10, n20, states = _locked_family(params, scales, pumps, branch)
    ev, stable = _eigen_solve(params, scales, pumps, states)
    # a dark pump carries the zero solution, whose phases are undefined (NaN)
    phase_sum, phase_diff = float(phase_sum[0]), phase_diff if lit[0] else math.nan
    return SteadyStateBranch(
        branch=branch, n10=float(n10[0]), n20=float(n20[0]),
        phi10=wrap_angle((phase_sum - phase_diff) / 2),
        phi20=wrap_angle((phase_sum + phase_diff) / 2),
        phase_sum=phase_sum, phase_diff=wrap_angle(phase_diff),
        stable=bool(stable[0]), eigenvalues=tuple(ev[0]), below_critical=not lit[0] and eps > 0)


def _locked_family(params: SystemParams, scales: DerivedScales, eps: np.ndarray,
                   label: str) -> tuple:
    """Closed-form steady states of family ``label`` at every pump of ``eps``.

    ``eps`` is a 1-D array.  Returns ``(phase_sum, phase_diff, lit, n10,
    n20, states)``: ``lit`` marks the pumps above the family's critical
    point, where the bright solution exists; elsewhere the photon numbers
    are 0 and ``phase_sum`` is NaN (the zero solution).  ``phase_diff`` is
    the pump-independent unwrapped phase difference, NaN where locking is
    infeasible: there every pump is dark, or one above threshold raises the
    :func:`critical_points` error.  ``states`` ``(4, n)`` are the classical
    state vectors.  Every state, zero or bright, passes the checks of
    :func:`_check_states`, run once on the batch; no eigenvalue is solved.
    """
    if scales.lam <= 0:
        raise ParameterDomainError("effective nonlinearity lam must be positive (k > 0)")
    if not (locking_feasible(params) or (eps > scales.eps_th).any()):
        # no locked family exists, and no pump needs one: every state is the zero solution
        dark, states = np.zeros(eps.shape), np.zeros((4,) + eps.shape, complex)
        _check_states(params, scales, eps, states)
        return np.full(eps.shape, np.nan), math.nan, dark > 0, dark, dark, states
    crit = critical_points(params, scales)  # refuses infeasible locking, naming the inequality
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

    # dark pumps carry the zero solution: a finite stand-in phase keeps NaN out, and
    # exact zeros keep a signed zero from moving the last bit of their eigenvalues
    sums = np.where(lit, phase_sum, 0.0)
    states = _state_vectors(n10, n20, wrap_angle((sums - phase_diff) / 2),
                            wrap_angle((sums + phase_diff) / 2))
    states[:, ~lit] = 0
    _check_states(params, scales, eps, states)
    return phase_sum, phase_diff, lit, n10, n20, states


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
    every real part exceeds ``STABILITY_RTOL * min(gamma1, gamma2)``.  The
    state is checked (:func:`_check_states`) before it is solved.

    Raises
    ------
    NotSteadyStateError
        When ``state`` is not finite, or not actually a steady state of the drift.
    ParameterDomainError
        When the betas of ``state`` are not the conjugates of its alphas (1e-12 relative).
    """
    eps, state = np.array([eps], dtype=float), np.asarray(state, dtype=complex)[:, None]
    _check_states(params, scales, eps, state)
    ev, stable = _eigen_solve(params, scales, eps, state)
    return ev[0], bool(stable[0])


def _check_states(params: SystemParams, scales: DerivedScales, eps: np.ndarray,
                  states: np.ndarray) -> None:
    """Refuse the first of the states ``(4, n)`` at the pumps ``eps`` that is not
    finite and steady (``NotSteadyStateError``), or not classical (``ParameterDomainError``).

    Every check runs once on the whole batch, finiteness first.
    """
    finite = np.isfinite(states).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NotSteadyStateError(f"state {states[:, i]} is not finite at eps = {eps[i]:.6g}")
    amp = 1.0 + np.abs(states).max(axis=0)
    if (np.abs(states[2:] - states[:2].conj()) > 1e-12 * amp).any():
        raise ParameterDomainError("stability needs a classical state, beta = conj(alpha)")
    eff = replace(scales, eps=eps)  # the drift broadcasts one pump per state
    resid = np.abs(drift_field(states, params, eff)).max(axis=0)
    rate = np.maximum(max(params.gamma1, params.gamma2, abs(params.delta1),
                          abs(params.delta2), params.chi),
                      np.maximum(eps, scales.lam * amp**2))
    bound = 1e-7 * amp * rate
    bad = ~(resid <= bound)  # a NaN residual fails too
    if bad.any():
        i = int(np.argmax(bad))
        raise NotSteadyStateError(f"state is not steady: drift residual {resid[i]:.3e} "
                                  f"exceeds {bound[i]:.3e} at eps = {eps[i]:.6g}")


def _eigen_solve(params: SystemParams, scales: DerivedScales, eps: np.ndarray,
                 states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenvalues of minus the drift Jacobian at the checked states ``(4, n)``,
    and their verdicts, in one solve of the ``(n, 4, 4)`` stack.
    """
    # on classical states -J = [[P, Q], [conj Q, conj P]], unitarily similar
    # to the real Jacobian of the flow in quadratures, which LAPACK solves faster
    M = -drift_jacobian(states, params, replace(scales, eps=eps))
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


def output_rates(params: SystemParams, scales: DerivedScales,
                 n0: float) -> tuple[float, float, float]:
    """Input pump photon flux and the two subharmonic output fluxes.

    ``n3_in = E**2 / (2*gamma3)`` photons per unit time arrive in the pump;
    each subharmonic emits ``2*gamma_i*n0``.
    """
    n3_in = params.E**2 / (2 * params.gamma3)
    return n3_in, 2 * params.gamma1 * n0, 2 * params.gamma2 * n0
