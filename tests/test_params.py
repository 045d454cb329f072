import math

import pytest

from nopolock import (ParameterDomainError, QuadratureAngles, SystemParams,
                      derive_scales, locking_feasible, wrap_angle)

from conftest import assert_close


class TestSystemParams:
    def test_rejects_nonpositive_damping(self):
        with pytest.raises(ParameterDomainError):
            SystemParams(gamma1=0.0)
        with pytest.raises(ParameterDomainError):
            SystemParams(gamma3=-1.0)

    def test_rejects_negative_couplings(self):
        for field in ("chi", "k", "E"):
            with pytest.raises(ParameterDomainError):
                SystemParams(**{field: -0.1})

    @pytest.mark.parametrize("names", [
        ("gamma1", "gamma2", "gamma3", "delta1", "delta2"), ("chi", "k", "E"),
        ("phi_L", "phi_k", "phi_chi")], ids=["rate", "coupling", "phase"])
    def test_rejects_non_finite(self, names):
        for name in names:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterDomainError, match=f"{name} must be finite"):
                    SystemParams(**{name: value})

    def test_adiabatic_violation_warns_not_raises(self):
        with pytest.warns(UserWarning, match="adiabatic"):
            SystemParams(gamma3=5.0)

    def test_phases_stored_wrapped(self):
        p = SystemParams(phi_L=3 * math.pi, phi_k=-math.pi, phi_chi=2 * math.pi)
        assert p.phi_L == pytest.approx(math.pi)
        assert p.phi_k == pytest.approx(math.pi)  # -pi maps to the +pi representative
        assert p.phi_chi == pytest.approx(0.0)

    def test_symmetric_constructor_recovers_rates(self):
        p = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, eps=2.0, lam=0.7)
        s = derive_scales(p)
        assert s.eps == pytest.approx(2.0, rel=1e-14)
        assert s.lam == pytest.approx(0.7, rel=1e-14)


class TestDeriveScales:
    def test_threshold_example(self):
        # gamma=1, delta=3, chi=0.5, k=1, gamma3=100, E=269.26
        p = SystemParams(delta1=3.0, delta2=3.0, chi=0.5, k=1.0, gamma3=100.0,
                         E=269.26)
        s = derive_scales(p)
        assert_close(s.eps_th, math.sqrt(7.25), 1e-12, "eps_th")
        assert_close(s.eps, 2.6926, 1e-4, "eps")
        assert s.lam == pytest.approx(0.01)

    def test_threshold_mixing_equals_detuning(self):
        p = SystemParams.symmetric(gamma=1.3, delta=-2.0, chi=2.0)
        assert derive_scales(p).eps_th == pytest.approx(1.3)

    def test_threshold_plain_oscillator(self):
        p = SystemParams.symmetric(gamma=1.0, delta=0.0, chi=0.0)
        assert derive_scales(p).eps_th == pytest.approx(1.0)

    def test_threshold_field_and_power(self):
        p = SystemParams(chi=0.0, k=2.0, gamma3=100.0, E=10.0)
        s = derive_scales(p)
        assert s.e_th == pytest.approx(100.0 / 2.0 * 1.0)  # gamma3 * eps_th / k
        assert s.p_th == pytest.approx(s.e_th**2 / 200.0)

    def test_pure_function(self):
        p = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, eps=1.7)
        assert derive_scales(p) == derive_scales(p)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.7])
    def test_threshold_monotone_in_gamma(self, gamma):
        lo = derive_scales(SystemParams.symmetric(gamma=gamma, delta=2.0, chi=0.5))
        hi = derive_scales(SystemParams.symmetric(gamma=gamma + 0.3, delta=2.0, chi=0.5))
        assert hi.eps_th >= lo.eps_th

    def test_threshold_monotone_in_mixing_detuning_gap(self):
        gaps = [0.0, 0.2, 0.8, 1.5, 4.0]
        values = [derive_scales(SystemParams.symmetric(gamma=1.0, delta=2.0,
                                                       chi=2.0 + g)).eps_th
                  for g in gaps]
        assert values == sorted(values)

    def test_gamma_tilde_symmetric(self):
        p = SystemParams.symmetric(gamma=1.4, delta=2.0, chi=0.3)
        assert derive_scales(p).gamma_tilde == pytest.approx(1.4)

    def test_gamma_tilde_asymmetric(self):
        p = SystemParams(gamma1=1.0, gamma2=2.0, delta1=1.0, delta2=4.0, chi=2.0)
        expected = 0.5 * (1.0 * 2.0 + 2.0 * 0.5)
        assert derive_scales(p).gamma_tilde == pytest.approx(expected)

    def test_gamma_tilde_nan_for_opposite_detunings(self):
        p = SystemParams(delta1=1.0, delta2=-1.0, chi=1.0)
        assert math.isnan(derive_scales(p).gamma_tilde)


class TestLockingFeasible:
    def test_symmetric_with_mixing(self):
        assert locking_feasible(SystemParams.symmetric(delta=3.0, chi=0.5))
        assert locking_feasible(SystemParams.symmetric(delta=-3.0, chi=0.5))

    def test_no_mixing_infeasible(self):
        assert not locking_feasible(SystemParams.symmetric(delta=3.0, chi=0.0))

    def test_asymmetric_example_infeasible(self):
        p = SystemParams(gamma1=1.0, gamma2=2.0, delta1=1.0, delta2=1.0, chi=0.4)
        assert not locking_feasible(p)  # 0.64 < 1

    def test_asymmetric_feasible_case(self):
        p = SystemParams(gamma1=1.0, gamma2=1.3, delta1=2.0, delta2=3.5, chi=0.8)
        assert locking_feasible(p)


class TestAngles:
    @pytest.mark.parametrize("x", [0.0, 1.0, math.pi, -math.pi, 3 * math.pi,
                                   -7.5, 100.0, -100.0])
    def test_wrap_range(self, x):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)

    def test_sums_reduced(self):
        ang = QuadratureAngles(theta1=3.0, theta2=3.0, phi_L=1.0, phi_k=1.0,
                               phi_chi=0.5)
        assert -math.pi < ang.sigma_theta <= math.pi
        assert -math.pi < ang.delta_theta <= math.pi
        assert ang.sigma_theta == pytest.approx(wrap_angle(8.0))
        assert ang.delta_theta == pytest.approx(-0.5)

    def test_from_sums_round_trip(self):
        for st, dt in [(0.3, -1.2), (-2.9, 3.0), (math.pi, 0.0)]:
            ang = QuadratureAngles.from_sums(st, dt)
            assert ang.sigma_theta == pytest.approx(wrap_angle(st), abs=1e-12)
            assert ang.delta_theta == pytest.approx(wrap_angle(dt), abs=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        for sums in ((value, 0.0), (0.0, value)):
            with pytest.raises(ParameterDomainError, match="must be finite"):
                QuadratureAngles.from_sums(*sums)
        for name in ("theta1", "theta2", "phi_L", "phi_k", "phi_chi"):
            kwargs = {"theta1": 0.0, "theta2": 0.0, name: value}
            with pytest.raises(ParameterDomainError, match=f"{name} must be finite"):
                QuadratureAngles(**kwargs)

    def test_from_sums_absorbs_interaction_phases(self):
        p = SystemParams(phi_L=0.4, phi_k=-0.7, phi_chi=1.1, chi=0.2)
        ang = QuadratureAngles.from_sums(0.9, 0.2, p)
        assert ang.sigma_theta == pytest.approx(0.9, abs=1e-12)
        assert ang.delta_theta == pytest.approx(0.2, abs=1e-12)
