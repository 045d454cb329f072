"""Physical parameters and derived scales of the self-phase-locked NOPO.

The model is a nondegenerate optical parametric oscillator with an
intracavity polarization mixer: a pump mode drives type-II down-conversion
into two orthogonally polarized subharmonics (damping rates ``gamma1``,
``gamma2``, detunings ``delta1``, ``delta2``) which are additionally
coupled linearly with strength ``chi``.  The pump mode (damping ``gamma3``,
external drive amplitude ``E``, parametric coupling ``k``) is adiabatically
eliminated, which is trustworthy only for ``gamma3 >> gamma1, gamma2``.

After elimination the dynamics depends on the pump and coupling only
through two rates,

    eps = k * E / gamma3        (scaled pump)
    lam = k**2 / gamma3         (effective nonlinearity)

and every quantity in this package is expressed through ``eps`` and
``lam``.  All rates are conventionally measured in units of the
subharmonic damping ``gamma`` (``gamma1 = gamma2 = 1`` by default).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

TWO_PI = 2.0 * math.pi

#: pump damping must exceed subharmonic damping by this factor for the
#: adiabatic elimination of the pump mode to be trusted
ADIABATIC_RATIO = 10.0


def wrap_angle(x: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi]."""
    return math.pi - (math.pi - x) % TWO_PI


@dataclass(frozen=True)
class SystemParams:
    """Rates, detunings, couplings and interaction phases of the cavity model.

    All rate-like fields share one unit (conventionally the subharmonic
    damping ``gamma``); phases are radians, stored reduced to (-pi, pi].
    Every field must be finite.

    Attributes
    ----------
    gamma1, gamma2 : float
        Cavity (amplitude) damping rates of the two subharmonics, > 0.
    gamma3 : float
        Pump-mode damping rate, > 0.  A ratio ``gamma3 / max(gamma1, gamma2)``
        below :data:`ADIABATIC_RATIO` triggers a warning: the pump-eliminated
        model is then not reliable.
    delta1, delta2 : float
        Subharmonic detunings.
    chi : float
        Linear polarization-mixing strength, >= 0.
    k : float
        Parametric (down-conversion) coupling, >= 0.
    E : float
        External pump amplitude, >= 0.
    phi_L, phi_k, phi_chi : float
        Phases of the drive, the parametric coupling and the mixer.  They
        cancel from the internal dynamics and re-enter only through the
        local-oscillator angle combinations of
        :class:`QuadratureAngles`.
    """

    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 100.0
    delta1: float = 0.0
    delta2: float = 0.0
    chi: float = 0.0
    k: float = 1.0
    E: float = 0.0
    phi_L: float = 0.0
    phi_k: float = 0.0
    phi_chi: float = 0.0

    def __post_init__(self) -> None:
        from .errors import ParameterDomainError

        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParameterDomainError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("gamma1", "gamma2", "gamma3"):
            if not getattr(self, name) > 0:
                raise ParameterDomainError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("chi", "k", "E"):
            if getattr(self, name) < 0:
                raise ParameterDomainError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("phi_L", "phi_k", "phi_chi"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))
        if self.gamma3 / max(self.gamma1, self.gamma2) < ADIABATIC_RATIO:
            warnings.warn(
                "gamma3/max(gamma1,gamma2) = "
                f"{self.gamma3 / max(self.gamma1, self.gamma2):.3g} < {ADIABATIC_RATIO:g}: "
                "adiabatic elimination of the pump mode is not reliable here",
                stacklevel=2,
            )

    @property
    def is_symmetric(self) -> bool:
        """True when damping rates and detunings are polarization independent."""
        return self.gamma1 == self.gamma2 and self.delta1 == self.delta2

    @classmethod
    def symmetric(
        cls,
        gamma: float = 1.0,
        delta: float = 0.0,
        chi: float = 0.0,
        eps: float = 0.0,
        lam: float = 1.0,
        gamma3: float = 100.0,
        **phases: float,
    ) -> "SystemParams":
        """Build symmetric parameters directly from the scaled rates.

        ``k`` and ``E`` are chosen so that ``k*E/gamma3 == eps`` and
        ``k**2/gamma3 == lam``.
        """
        k = math.sqrt(lam * gamma3)
        E = eps * gamma3 / k if k > 0 else 0.0
        return cls(gamma1=gamma, gamma2=gamma, gamma3=gamma3,
                   delta1=delta, delta2=delta, chi=chi, k=k, E=E, **phases)


def _critical_eps_squared(params: SystemParams) -> tuple[float, float]:
    """Squared critical pump rates (smaller, larger) of the locked solutions.

    Real only when :func:`locking_feasible` holds.  Returns NaNs otherwise.
    """
    g1, g2 = params.gamma1, params.gamma2
    d1, d2 = params.delta1, params.delta2
    chi = params.chi
    radicand = 4 * chi**2 * d1 * d2 - (g1 * d2 - g2 * d1) ** 2
    if radicand < 0:
        return math.nan, math.nan
    root = math.sqrt(radicand)
    base = g1 * g2 + d1 * d2 + chi**2
    return base - root, base + root


def locking_feasible(params: SystemParams) -> bool:
    """Whether locked (phase-fixed) bright solutions can exist at all.

    The condition is ``4 chi^2 delta1 delta2 > (gamma1 delta2 - gamma2 delta1)^2``;
    it requires same-sign detunings and a nonzero mixer.
    """
    g1, g2 = params.gamma1, params.gamma2
    d1, d2 = params.delta1, params.delta2
    return 4 * params.chi**2 * d1 * d2 > (g1 * d2 - g2 * d1) ** 2


@dataclass(frozen=True)
class DerivedScales:
    """Scaled pump, nonlinearity and threshold quantities.

    Attributes
    ----------
    eps : float
        Scaled pump rate ``k*E/gamma3``.
    lam : float
        Effective nonlinearity ``k**2/gamma3``.
    gamma_tilde : float
        Detuning-weighted mean damping
        ``(gamma1/2)*sqrt(delta2/delta1) + (gamma2/2)*sqrt(delta1/delta2)``;
        NaN unless the detunings have the same sign.
    eps_th : float
        Threshold pump rate.  Symmetric case:
        ``sqrt((chi - |delta|)**2 + gamma**2)``.  Asymmetric case: the lower
        critical point of the locked solutions (NaN when locking is
        infeasible).
    e_th : float
        Threshold drive amplitude ``gamma3 * eps_th / k`` (NaN for k = 0).
    p_th : float
        Threshold pump power ``e_th**2 / (2*gamma3)``.  Reported in units of
        ``hbar * omega**3`` to follow the literal source convention; the
        cubic frequency factor looks like a typographical artifact of that
        convention, so treat ``p_th`` as a relative scale only.
    """

    eps: float
    lam: float
    gamma_tilde: float
    eps_th: float
    e_th: float
    p_th: float


def derive_scales(params: SystemParams) -> DerivedScales:
    """Collapse (k, E, gamma3) to (eps, lam) and compute threshold scales.

    Pure function: identical inputs give bitwise-identical outputs.
    """
    eps = params.k * params.E / params.gamma3
    lam = params.k**2 / params.gamma3

    d1, d2 = params.delta1, params.delta2
    if d1 * d2 > 0:
        gamma_tilde = 0.5 * (params.gamma1 * math.sqrt(d2 / d1)
                             + params.gamma2 * math.sqrt(d1 / d2))
    elif d1 == 0 and d2 == 0:
        gamma_tilde = 0.5 * (params.gamma1 + params.gamma2)
    else:
        gamma_tilde = math.nan

    if params.is_symmetric:
        eps_th = math.hypot(params.chi - abs(params.delta1), params.gamma1)
    else:
        lo_sq, _ = _critical_eps_squared(params)
        eps_th = math.sqrt(lo_sq) if lo_sq == lo_sq else math.nan

    e_th = params.gamma3 * eps_th / params.k if params.k > 0 else math.nan
    p_th = e_th**2 / (2 * params.gamma3)
    return DerivedScales(eps=eps, lam=lam, gamma_tilde=gamma_tilde,
                         eps_th=eps_th, e_th=e_th, p_th=p_th)


@dataclass(frozen=True)
class QuadratureAngles:
    """Local-oscillator phases and the two combinations the variances depend on.

    The interaction phases only ever enter the quadrature variances through

        sigma_theta = theta1 + theta2 + phi_L + phi_k
        delta_theta = theta2 - theta1 - phi_chi

    both reduced to (-pi, pi].
    """

    theta1: float
    theta2: float
    phi_L: float = 0.0
    phi_k: float = 0.0
    phi_chi: float = 0.0
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        from .errors import ParameterDomainError

        for name in ("theta1", "theta2", "phi_L", "phi_k", "phi_chi"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterDomainError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def sigma_theta(self) -> float:
        return wrap_angle(self.theta1 + self.theta2 + self.phi_L + self.phi_k)

    @property
    def delta_theta(self) -> float:
        return wrap_angle(self.theta2 - self.theta1 - self.phi_chi)

    @classmethod
    def from_sums(cls, sigma_theta: float, delta_theta: float = 0.0,
                  params: SystemParams | None = None,
                  degenerate: bool = False) -> "QuadratureAngles":
        """Build angles realizing the requested combinations.

        Chooses the symmetric representative ``theta1, theta2`` compatible
        with the sums, given the interaction phases of ``params`` (zero when
        omitted).
        """
        phi_L = params.phi_L if params is not None else 0.0
        phi_k = params.phi_k if params is not None else 0.0
        phi_chi = params.phi_chi if params is not None else 0.0
        s = sigma_theta - phi_L - phi_k
        d = delta_theta + phi_chi
        return cls(theta1=wrap_angle((s - d) / 2), theta2=wrap_angle((s + d) / 2),
                   phi_L=phi_L, phi_k=phi_k, phi_chi=phi_chi, degenerate=degenerate)
