import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from nopolock import (NotSteadyStateError, ParameterDomainError, SystemParams,
                      critical_points, derive_scales, output_rates, replace_pump,
                      stability_eigenvalues, steady_state)
from nopolock.cli import fmt, main
from nopolock.params import locking_feasible
from nopolock.steady import STABILITY_RTOL, drift_field, drift_jacobian

from conftest import assert_close, at_ratio, make_system


def drift_residual(params, scales, eps, state):
    """Max absolute drift at ``state`` with the pump set to ``eps``: zero at a steady state."""
    return np.abs(drift_field(state, *replace_pump(params, scales, eps))).max()


class TestCriticalPoints:
    def test_standard_point(self, standard):
        crit = critical_points(*standard)
        assert_close(crit.eps_cr_plus, math.sqrt(7.25), 1e-12, "eps_cr_plus")
        assert_close(crit.eps_cr_minus, math.sqrt(13.25), 1e-12, "eps_cr_minus")
        assert crit.eps_cr_plus <= crit.eps_cr_minus

    def test_small_mixing_merges(self):
        params, scales = make_system(chi=1e-9)
        crit = critical_points(params, scales)
        merged = math.hypot(1.0, 3.0)
        assert crit.eps_cr_plus == pytest.approx(merged, abs=1e-6)
        assert crit.eps_cr_minus == pytest.approx(merged, abs=1e-6)

    def test_infeasible_raises_with_inequality(self):
        p = SystemParams(gamma1=1.0, gamma2=2.0, delta1=1.0, delta2=1.0, chi=0.4)
        with pytest.raises(ParameterDomainError, match=r"4\*chi\^2"):
            critical_points(p, derive_scales(p))

    def test_threshold_equals_lower_critical_point(self, standard):
        params, scales = standard
        assert scales.eps_th == pytest.approx(
            critical_points(params, scales).eps_cr_plus, rel=1e-14)


class TestSteadyState:
    def test_zero_at_threshold(self, standard):
        params, scales, eps = at_ratio(*standard, 1.0)
        state = steady_state(params, scales, eps)
        assert state.n10 == 0.0 and state.n20 == 0.0
        assert state.below_critical

    def test_photon_number_at_twice_threshold(self, standard):
        params, scales, eps = at_ratio(*standard, 2.0)
        state = steady_state(params, scales, eps)
        assert_close(state.n10, math.sqrt(22.75) - 1, 1e-12, "n0")
        assert state.n10 == pytest.approx(3.7697, abs=1e-4)
        assert state.n10 == state.n20

    def test_symmetric_phase_difference_is_zero_or_pi(self, standard):
        params, scales, eps = at_ratio(*standard, 2.0)
        for label in ("+", "-"):
            st = steady_state(params, scales, eps, branch=label)
            assert min(abs(st.phase_diff), abs(abs(st.phase_diff) - math.pi)) < 1e-12

    def test_minus_branch_phases(self, standard):
        # in-phase family for delta > 0: phi10 = phi20 = -arcsin((chi+|delta|)/eps)/2
        params, scales, eps = at_ratio(*standard, 2.0)
        st = steady_state(params, scales, eps, branch="-")
        expected = -0.5 * math.asin(3.5 / eps)
        assert_close(st.phi10, expected, 1e-10, "phi10")
        assert_close(st.phi20, expected, 1e-10, "phi20")
        assert st.phi10 == pytest.approx(-0.35379, abs=1e-4)
        assert st.n10 == pytest.approx(math.sqrt(eps**2 - 13.25 + 1) - 1, rel=1e-12)

    def test_stable_branch_phase_pairing_by_detuning_sign(self):
        # the branch born at threshold is anti-phased for delta>0, in-phase for delta<0
        for delta, expected_diff in ((3.0, math.pi), (-3.0, 0.0)):
            params, scales = make_system(delta=delta)
            _, _, eps = at_ratio(params, scales, 1.5)
            st = steady_state(params, scales, eps, branch="+")
            assert st.stable
            assert abs(abs(st.phase_diff) - expected_diff) < 1e-12

    def test_drift_residual_below_1e10(self):
        cases = [make_system(delta=3.0), make_system(delta=-3.0),
                 make_system(delta=1.0, chi=0.5), make_system(gamma=2.0, delta=5.0, chi=1.0)]
        for params, scales in cases:
            for ratio in (1.2, 1.5, 2.0, 4.0):
                _, _, eps = at_ratio(params, scales, ratio)
                for label in ("+", "-"):
                    st = steady_state(params, scales, eps, branch=label)
                    if st.is_zero:
                        continue
                    resid = drift_residual(params, scales, eps, st.state_vector())
                    assert resid < 1e-10, (label, ratio, resid)

    def test_asymmetric_steady_state(self):
        p = SystemParams(gamma1=1.0, gamma2=1.3, delta1=2.0, delta2=3.5, chi=0.8)
        s = derive_scales(p)
        eps = 1.4 * s.eps_th
        st = steady_state(p, s, eps, branch="+")
        assert st.n10 > 0 and st.n20 > 0
        assert st.n10 / st.n20 == pytest.approx(3.5 / 2.0, rel=1e-12)
        assert drift_residual(p, s, eps, st.state_vector()) < 1e-10
        assert st.stable

    def test_below_critical_returns_zero_with_flag(self, standard):
        params, scales, eps = at_ratio(*standard, 0.5)
        st = steady_state(params, scales, eps, branch="+")
        assert st.is_zero and st.below_critical and st.stable

    @pytest.mark.parametrize("branch", ["auto", "", "+-"])
    def test_only_the_two_families_are_named(self, standard, branch):
        params, scales, eps = at_ratio(*standard, 1.5)
        with pytest.raises(ParameterDomainError, match="unknown branch"):
            steady_state(params, scales, eps, branch=branch)

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_zero_pump_gives_the_zero_solution(self, standard, capsys, branch):
        st = steady_state(*standard, eps=0.0, branch=branch)
        assert st.is_zero and not st.below_critical and st.stable
        assert main(["steady", "--chi", "0.5", "--delta", "3", "--eps", "0"]) == 0
        printed = [line.split(":", 1)[1].split() for line in capsys.readouterr().out.splitlines()
                   if "eigs(Re)" in line]
        assert printed == [[fmt(ev.real) for ev in st.eigenvalues]] * 2

    def test_zero_solution_below_threshold_without_locking(self):
        params, scales = make_system(chi=0.0)
        assert not locking_feasible(params)
        st = steady_state(params, scales, 0.5 * scales.eps_th, branch="+")
        assert st.is_zero and st.below_critical and st.stable

    def test_zero_solution_state_and_twin(self, standard):
        st = steady_state(*standard, eps=0.0)
        np.testing.assert_array_equal(st.state_vector(), np.zeros(4, complex))
        assert st.twin() is st

    @pytest.mark.parametrize("lam, eps, message", [
        (1.0, -0.5, "eps must be non-negative"), (0.0, 0.5, "lam must be positive")])
    def test_domain_refused(self, lam, eps, message):
        params, scales = make_system(lam=lam)
        with pytest.raises(ParameterDomainError, match=message):
            steady_state(params, scales, eps)

    def test_above_threshold_without_locking_raises(self):
        params, scales = make_system(chi=0.0)
        with pytest.raises(ParameterDomainError):
            steady_state(params, scales, 2 * scales.eps_th, branch="+")

    def test_photon_number_increasing_above_threshold(self, standard):
        params, scales = standard
        ratios = np.linspace(1.0, 4.0, 40)
        values = [steady_state(*at_ratio(params, scales, r)).n10 for r in ratios]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_twin_is_steady_with_same_spectrum(self):
        # second point, strong mixing: the double eigenvalue gamma splits by
        # sqrt(roundoff), 1 +- 2.6e-8 i at the state and 1 +- 1.8e-7 at its twin
        for chi, delta, ratio in ((0.5, 3.0, 1.8), (5.0, 0.05, 2.0)):
            params, scales, eps = at_ratio(*make_system(delta=delta, chi=chi, lam=1.0), ratio)
            st = steady_state(params, scales, eps)
            twin = st.twin()
            assert drift_residual(params, scales, eps, twin.state_vector()) < 1e-10
            ev2, stable = stability_eigenvalues(params, scales, eps, twin.state_vector())
            assert stable == st.stable
            # same characteristic polynomial, as in the property test below
            ev = st.eigenvalues
            scale = max(1.0, np.abs(ev).max()) ** np.arange(len(ev) + 1)
            np.testing.assert_array_less(np.abs(np.poly(ev) - np.poly(ev2)), 1e-12 * scale)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chi=hst.floats(0.05, 5.0), abs_delta=hst.floats(0.05, 10.0),
           sign=hst.sampled_from([1.0, -1.0]), lam=hst.floats(0.01, 2.0),
           ratio=hst.floats(1.01, 20.0), branch=hst.sampled_from(["+", "-"]))
    def test_twin_spectrum_property(self, chi, abs_delta, sign, lam, ratio, branch):
        params, scales, eps = at_ratio(*make_system(delta=sign * abs_delta, chi=chi, lam=lam),
                                       ratio)
        state = steady_state(params, scales, eps, branch=branch)
        assume(not state.is_zero)  # the '-' family starts above its critical point
        ev, stable = stability_eigenvalues(params, scales, eps, state.state_vector())
        ev2, stable2 = stability_eigenvalues(params, scales, eps, state.twin().state_vector())
        # same characteristic polynomial: a double eigenvalue (gamma, at strong
        # mixing) moves by sqrt(roundoff) between the two, its polynomial does not
        scale = max(1.0, np.abs(ev).max()) ** np.arange(len(ev) + 1)
        np.testing.assert_array_less(np.abs(np.poly(ev) - np.poly(ev2)), 1e-12 * scale)
        assert stable2 == stable


class TestStability:
    @pytest.mark.parametrize("delta", [3.0, -3.0, 1.0])
    @pytest.mark.parametrize("pump, branch", [("zero", "+"), ("zero", "-"),
                                              ("dark", "+"), ("dark", "-")])
    def test_zero_branch_spectrum_is_that_of_the_zero_state(self, delta, pump, branch):
        # every dark steady state comes out of the batched family solve; its
        # spectrum must be bit for bit the one of the exact zero state.  A dark
        # "-" pump lies between the two critical points.
        params, scales = make_system(delta=delta)
        crit = critical_points(params, scales)
        eps = (0.0 if pump == "zero" else 0.5 * scales.eps_th if branch == "+"
               else 0.5 * (crit.eps_cr_plus + crit.eps_cr_minus))
        params, scales = replace_pump(params, scales, eps)
        st = steady_state(params, scales, eps, branch=branch)
        ev, stable = stability_eigenvalues(params, scales, eps, np.zeros(4, complex))
        assert st.is_zero
        assert np.array_equal(st.eigenvalues, ev)
        assert st.stable == stable

    def test_empty_cavity_spectrum(self, standard):
        params, scales = standard
        ev, stable = stability_eigenvalues(params, scales, 0.0, np.zeros(4, complex))
        assert stable
        expected = sorted([1 + 3.5j, 1 - 3.5j, 1 + 2.5j, 1 - 2.5j], key=lambda z: z.imag)
        got = sorted(ev, key=lambda z: z.imag)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_solution_stable_below_unstable_above(self, standard):
        params, scales = standard
        for ratio, expect in ((0.9, True), (1.1, False)):
            eps = ratio * scales.eps_th
            _, stable = stability_eigenvalues(params, scales, eps, np.zeros(4, complex))
            assert stable is expect

    @pytest.mark.parametrize("delta", [3.0, -3.0, 1.0])
    def test_branch_stability_rule(self, delta):
        # the lower-critical-point family is the stable one for either sign
        # of the detuning; the upper family is a saddle
        params, scales = make_system(delta=delta)
        for ratio in (1.3, 2.2):
            _, _, eps = at_ratio(params, scales, ratio)
            plus = steady_state(params, scales, eps, branch="+")
            assert plus.stable, (delta, ratio)
            minus = steady_state(params, scales, eps, branch="-")
            if not minus.is_zero:
                assert not minus.stable, (delta, ratio)

    def test_non_steady_state_rejected(self, standard):
        params, scales = standard
        with pytest.raises(NotSteadyStateError):
            stability_eigenvalues(params, scales, 1.0,
                                  np.array([0.5, 0.0, 0.5, 0.0], complex))

    def test_non_finite_state_refused_by_name(self, standard):
        params, scales = standard
        with pytest.raises(NotSteadyStateError, match="not finite"):
            stability_eigenvalues(params, scales, 1.0, np.full(4, np.nan + 0j))

    def test_infinite_state_refused_by_name_without_warnings(self, standard):
        # finiteness is checked before any arithmetic that inf - inf would poison
        params, scales = standard
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NotSteadyStateError, match="not finite"):
                stability_eigenvalues(params, scales, 1.0,
                                      np.array([np.inf, 0, np.inf, 0], complex))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(symmetric=hst.booleans(), gamma2=hst.floats(0.5, 2.0),
           abs_delta=hst.floats(0.05, 10.0), detuning_ratio=hst.floats(0.5, 2.0),
           sign=hst.sampled_from([1.0, -1.0]), chi=hst.floats(0.05, 5.0),
           k=hst.floats(0.1, 1.5), ratio=hst.floats(1.01, 20.0),
           branch=hst.sampled_from(["+", "-"]))
    def test_real_form_matches_complex_solve_property(self, symmetric, gamma2, abs_delta,
                                                      detuning_ratio, sign, chi, k, ratio,
                                                      branch):
        if symmetric:
            gamma2, detuning_ratio = 1.0, 1.0
        params = SystemParams(gamma1=1.0, gamma2=gamma2, delta1=sign * abs_delta,
                              delta2=sign * abs_delta * detuning_ratio, chi=chi, k=k)
        assume(locking_feasible(params))
        params, scales, eps = at_ratio(params, derive_scales(params), ratio)
        state = steady_state(params, scales, eps, branch=branch)
        assume(not state.is_zero)
        ev, stable = stability_eigenvalues(params, scales, eps, state.state_vector())
        ref = np.linalg.eigvals(-drift_jacobian(state.state_vector(), params, scales))
        # same characteristic polynomial (a double eigenvalue may split by
        # sqrt(roundoff) differently in the two solves), same verdict, sorted
        scale = max(1.0, np.abs(ref).max()) ** np.arange(len(ref) + 1)
        np.testing.assert_array_less(np.abs(np.poly(ev) - np.poly(ref)), 1e-12 * scale)
        assert stable == bool(np.all(ref.real > STABILITY_RTOL * min(1.0, gamma2)))
        assert ev.dtype == complex and list(ev) == sorted(ev, key=lambda z: (z.real, z.imag))

    def test_non_classical_state_refused(self, standard):
        params, scales, eps = at_ratio(*standard, 1.8)
        state = steady_state(params, scales, eps).state_vector()
        for beta_shift in (1e-6, 1e-6j):
            shifted = state.copy()
            shifted[2] += beta_shift
            with pytest.raises(ParameterDomainError, match="classical"):
                stability_eigenvalues(params, scales, eps, shifted)
        with pytest.raises(ParameterDomainError, match="classical"):
            stability_eigenvalues(params, scales, 0.0, np.array([0.5, 0.0, 0.3, 0.0]))

    def test_analytic_jacobian_matches_finite_differences(self, standard):
        params, scales, eps = at_ratio(*standard, 1.7)
        from nopolock.steady import replace_pump
        p, s = replace_pump(params, scales, eps)
        state = steady_state(params, scales, eps).state_vector()
        jac = drift_jacobian(state, p, s)
        h = 1e-6
        num = np.zeros((4, 4), complex)
        for j in range(4):
            dx = np.zeros(4, complex)
            dx[j] = h
            num[:, j] = (drift_field(state + dx, p, s)
                         - drift_field(state - dx, p, s)) / (2 * h)
        np.testing.assert_allclose(jac, num, atol=1e-6)


class TestOutputRates:
    def test_zero_inside_gives_zero_out(self, standard):
        params, scales = standard
        _, n1, n2 = output_rates(params, scales, 0.0)
        assert n1 == 0.0 and n2 == 0.0

    def test_output_flux(self, standard):
        params, scales = standard
        _, n1, n2 = output_rates(params, scales, 3.7697)
        assert n1 == pytest.approx(7.5394)
        assert n2 == pytest.approx(7.5394)

    def test_input_flux(self):
        p = SystemParams(k=1.0, gamma3=100.0, E=10.0)
        n3, _, _ = output_rates(p, derive_scales(p), 0.0)
        assert n3 == pytest.approx(0.5)
