import cmath
import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nopolock import (MomentSet, NotSteadyStateError, ParameterDomainError,
                      QuadratureAngles, RegimeError, SingularParameterError,
                      SystemParams, above_matrices, below_matrices, derive_scales,
                      equal_time_corr_below, locking_feasible, mean_photon_below,
                      moments_above, moments_below, stationary_covariance_below,
                      temporal_corr_below, unitary_minimum, unitary_variance,
                      variance_steady, variance_sweep, variances_from_moments, wrap_angle)
from nopolock import entanglement, fluctuations, steady
from nopolock.steady import steady_state

from _reference import lagged_above, optimal_angle_sum, unitary_period
from conftest import CHI_NEAR_DELTA, THRESHOLD_SETS, assert_close, at_ratio, make_system


def eq54_variance(gamma, delta, chi, eps):
    """Independent transcription of the minimized below-threshold variance."""
    s2 = gamma**2 + chi**2 + delta**2 - eps**2
    den = s2**2 - 4 * delta**2 * chi**2
    w = math.sqrt(gamma**2 * s2**2 + delta**2 * (s2 - 2 * chi**2) ** 2)
    return 1 + eps * (eps * s2 - w) / den


def eq55_magnitude(gamma, delta, chi, eps):
    """Independent transcription of the below-threshold splitting amplitude."""
    s2 = gamma**2 + chi**2 + delta**2 - eps**2
    den = s2**2 - 4 * delta**2 * chi**2
    w = math.sqrt(gamma**2 * s2**2 + delta**2 * (s2 - 2 * chi**2) ** 2)
    bracket = (eps**4 - (gamma**2 + (delta - chi)**2) * (gamma**2 + (delta + chi)**2))
    return eps * chi * delta / den * (bracket / w + 2 * eps)


def exact_variances(gamma, delta, chi, eps, eps_th):
    """``(V, R)`` of :func:`variance_sweep` in exact arithmetic at the float inputs.

    Below threshold from the unfactored correlators: ``V = 1 + 2n - 2|<a1 a2>|``
    and ``R = 2 <a1+ a2> - 2 Re(<a1^2> conj <a1 a2>) / |<a1 a2>|``.  Above it from
    the closed forms in ``w``, with the threshold ``gamma^2 + (chi - |delta|)^2``
    exact as on the other side; the float ``eps_th`` only picks the side, as in
    :func:`variance_sweep`.  Only the square roots are rounded, to 60 digits.
    """
    def root(x):
        with localcontext() as ctx:
            ctx.prec = 60
            return Fraction((Decimal(x.numerator) / Decimal(x.denominator)).sqrt())

    g, d, c, e = map(Fraction, (gamma, delta, chi, eps))
    if eps >= eps_th:
        w = root(1 + (e**2 - g**2 - (c - abs(d))**2) / g**2)
        return (Fraction(3, 4) - 1 / (4 * w) + c / (4 * abs(d)),
                (1 if delta > 0 else -1) * (1 / w - (abs(d) - c) / abs(d)) / 4)
    s2 = g**2 + c**2 + d**2 - e**2
    den = 2 * (s2**2 - 4 * d**2 * c**2)
    aa_re, aa_im = e * g * s2 / den, -e * d * (s2 - 2 * c**2) / den  # <a1 a2>
    sq_re, sq_im = -2 * e * g * c * d / den, -e * c * (s2 - 2 * d**2) / den  # <a1^2>
    mod = root(aa_re**2 + aa_im**2)
    V = 1 + 2 * e**2 * s2 / den - 2 * mod
    return V, (-4 * e**2 * c * d / den - 2 * (sq_re * aa_re + sq_im * aa_im) / mod
               if mod else Fraction(0))


class TestVariancesFromMoments:
    def test_vacuum(self):
        rep = variances_from_moments(MomentSet(0.0, 0j, 0j, 0j),
                                     QuadratureAngles(0.0, 0.0))
        assert rep.V == 1.0 and rep.R == 0.0
        assert rep.V_plus == 1.0 and rep.V_minus == 1.0
        assert not rep.inseparable and not rep.strong_epr

    def test_negative_photon_number_refused(self):
        with pytest.raises(ParameterDomainError, match="mean photon number"):
            MomentSet(n=-1, m_aa=0j, m_a1sq=0j, m_cross=0j)

    def test_orthogonal_angle_difference_equalizes(self, standard):
        from nopolock.entanglement import moments_below
        moments = moments_below(*standard, eps=2.0)
        ang = QuadratureAngles.from_sums(-cmath.phase(moments.m_aa), math.pi / 2)
        rep = variances_from_moments(moments, ang)
        assert rep.V_plus == pytest.approx(rep.V, abs=1e-12)
        assert rep.V_minus == pytest.approx(rep.V, abs=1e-12)

    def test_two_mode_squeezed_input(self):
        r = 0.7
        moments = MomentSet(n=math.sinh(r)**2,
                            m_aa=math.sinh(r) * math.cosh(r) + 0j,
                            m_a1sq=0j, m_cross=0j)
        ang = optimal_angle_sum(moments)
        rep = variances_from_moments(moments, ang)
        assert rep.V == pytest.approx(math.exp(-2 * r), rel=1e-12)
        assert rep.inseparable

    def test_mean_is_half_sum(self, standard):
        from nopolock.entanglement import moments_below
        moments = moments_below(*standard, eps=2.0)
        for dt in (0.0, 0.4, 2.0, -1.3):
            rep = variances_from_moments(
                moments, QuadratureAngles.from_sums(-cmath.phase(moments.m_aa), dt))
            assert rep.V == pytest.approx((rep.V_plus + rep.V_minus) / 2, abs=1e-12)
            assert rep.V_plus == pytest.approx(rep.V + rep.R * math.cos(dt), abs=1e-12)
            assert rep.product == pytest.approx(
                rep.V**2 - rep.R**2 * math.cos(dt)**2, abs=1e-12)


class TestOptimalAngleSum:
    def test_real_positive_pair_moment(self):
        moments = MomentSet(1.0, 0.8 + 0j, 0j, 0j)
        assert optimal_angle_sum(moments).sigma_theta == pytest.approx(0.0)

    def test_imaginary_pair_moment(self):
        moments = MomentSet(1.0, 0.5j, 0j, 0j)
        assert optimal_angle_sum(moments).sigma_theta == pytest.approx(-math.pi / 2)

    def test_degenerate_flagged(self):
        ang = optimal_angle_sum(MomentSet(1.0, 0j, 0j, 0j))
        assert ang.degenerate and ang.sigma_theta == 0.0

    def test_grid_scan_never_beats_returned_angle(self, standard):
        from nopolock.entanglement import moments_below
        moments = moments_below(*standard, eps=2.0)
        best = variances_from_moments(moments, optimal_angle_sum(moments)).V
        grid = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
        scanned = 1 + 2 * moments.n - 2 * (
            abs(moments.m_aa) * np.cos(grid + cmath.phase(moments.m_aa)))
        assert scanned.min() >= best - 1e-9

    def test_minimized_value_formula(self, standard):
        from nopolock.entanglement import moments_below
        moments = moments_below(*standard, eps=2.0)
        rep = variances_from_moments(moments, optimal_angle_sum(moments))
        assert rep.V == pytest.approx(1 + 2 * (moments.n - abs(moments.m_aa)),
                                      rel=1e-12)


class TestVarianceBelow:
    def test_vacuum_limit(self, standard):
        params, scales = standard
        assert variance_steady(params, scales, 0.0).V == 1.0

    def test_standard_value(self, standard):
        rep = variance_steady(*standard, eps=2.0)
        assert rep.V == pytest.approx(0.6110, abs=1e-4)
        assert rep.V == pytest.approx(eq54_variance(1.0, 3.0, 0.5, 2.0), abs=1e-12)
        assert rep.inseparable

    def test_matches_closed_form_on_grid(self, standard):
        params, scales = standard
        for ratio in (0.1, 0.3, 0.6, 0.9, 0.94):
            eps = ratio * scales.eps_th
            rep = variance_steady(params, scales, eps)
            assert rep.V == pytest.approx(eq54_variance(1.0, 3.0, 0.5, eps), abs=1e-10)

    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_splitting_amplitude_magnitude(self, delta):
        params, scales = make_system(delta=delta)
        eps = 2.0
        rep = variance_steady(params, scales, eps, delta_theta=0.0)
        assert abs(rep.R) == pytest.approx(
            abs(eq55_magnitude(1.0, delta, 0.5, eps)), rel=1e-10)
        # orientation fixed by continuity with the locked regime (see
        # acceptance criterion 4): for delta > 0 the Y-sum variance carries
        # the +R side below threshold
        assert math.copysign(1.0, rep.R) == math.copysign(1.0, delta)

    def test_ordinary_oscillator_limit(self):
        params, scales = make_system(delta=3.0, chi=1e-8)
        g = math.hypot(1.0, 3.0)
        for ratio in (0.2, 0.5, 0.9):
            eps = ratio * scales.eps_th
            rep = variance_steady(params, scales, eps)
            assert rep.V == pytest.approx(1 - eps / (eps + g), abs=1e-6)
            assert rep.V_plus == pytest.approx(rep.V, abs=1e-6)
            assert rep.V_minus == pytest.approx(rep.V, abs=1e-6)

    def test_near_threshold_flagged(self, standard):
        params, scales = standard
        assert variance_steady(params, scales, 0.97 * scales.eps_th).flag \
            == "linearization-unreliable"
        assert variance_steady(params, scales, 0.5 * scales.eps_th).flag == "ok"

    def test_inseparable_below_threshold_when_mixing_small(self):
        params, scales = make_system(delta=3.0, chi=0.5)
        for ratio in np.linspace(0.05, 0.93, 15):
            rep = variance_steady(params, scales, ratio * scales.eps_th)
            assert 0.5 <= rep.V < 1.0


#: the (chi, delta) sets of figure 3
FIGURE3_SETS = ((0.1, 10.0), (0.5, 3.0), (0.5, 1.0))


class TestVarianceAbove:
    def test_threshold_value(self):
        params, scales = make_system(delta=10.0, chi=0.1)
        rep = variance_steady(params, scales, scales.eps_th * (1 + 1e-12))
        assert rep.V == pytest.approx(0.5025, abs=1e-6)

    def test_asymptote(self, standard):
        params, scales = standard
        rep = variance_steady(params, scales, 100 * scales.eps_th)
        assert rep.V == pytest.approx(0.75 + 0.5 / 12, abs=1e-3)

    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_maximally_different_split(self, delta):
        # at delta_theta = 0 one variance is pinned at 1/2 + chi/(2|delta|)
        # for all pumps and the other rises from 1/2 toward 1
        params, scales = make_system(delta=delta)
        chi, ad = 0.5, abs(delta)
        pinned = 0.5 + chi / (2 * ad)
        for ratio in (1.2, 1.7, 3.0):
            _, _, eps = at_ratio(params, scales, ratio)
            rep = variance_steady(params, scales, eps, delta_theta=0.0)
            w = math.sqrt(1 + (eps**2 - scales.eps_th**2))
            rising = 1 - 1 / (2 * w)
            if delta > 0:
                assert rep.V_plus == pytest.approx(pinned, rel=1e-12)
                assert rep.V_minus == pytest.approx(rising, rel=1e-12)
            else:
                assert rep.V_minus == pytest.approx(pinned, rel=1e-12)
                assert rep.V_plus == pytest.approx(rising, rel=1e-12)

    def test_product_tracks_closed_form(self):
        for chi, delta in ((0.1, 10.0), (0.5, 1.0), (0.5, 3.0)):
            params, scales = make_system(delta=delta, chi=chi)
            for ratio in (1.0 + 1e-9, 1.3, 2.0, 5.0):
                _, _, eps = at_ratio(params, scales, ratio)
                rep = variance_steady(params, scales, eps, delta_theta=0.0)
                w = math.sqrt(1 + (eps**2 - scales.eps_th**2))
                expected = (abs(delta) + chi) / (4 * abs(delta)) * (2 - 1 / w)
                assert rep.product == pytest.approx(expected, rel=1e-10)
                assert rep.product > 0.25

    def test_moment_route_agrees_at_locked_angle(self):
        # assembling the variances from the fluctuation cumulants with the
        # local oscillator locked to the mean-field phase sum reproduces
        # the closed forms
        for delta in (3.0, -3.0):
            params, scales = make_system(delta=delta)
            for ratio in (1.5, 3.0):
                _, _, eps = at_ratio(params, scales, ratio)
                closed = variance_steady(params, scales, eps, delta_theta=0.0)
                moments = moments_above(params, scales, eps)
                sigma = -steady_state(params, scales, eps, "+").phase_sum
                ang = QuadratureAngles.from_sums(sigma, 0.0)
                rep = variances_from_moments(moments, ang)
                assert rep.V == pytest.approx(closed.V, abs=1e-10)
                assert rep.V_plus == pytest.approx(closed.V_plus, abs=1e-10)
                assert rep.V_minus == pytest.approx(closed.V_minus, abs=1e-10)

    def test_moments_solve_the_locked_state_once(self, standard, monkeypatch):
        # the phases come with the fluctuation matrices, not from a second solve
        params, scales, eps = at_ratio(*standard, 1.5)
        expected = moments_above(params, scales, eps)
        calls = []
        locked_family = steady._locked_family

        def counted(*args):
            calls.append(args)
            return locked_family(*args)

        for module in (entanglement, fluctuations):
            monkeypatch.setattr(module, "_locked_family", counted)
        assert moments_above(params, scales, eps) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("chi, delta", FIGURE3_SETS)
    def test_moments_match_the_steady_state_route_bitwise(self, monkeypatch, chi, delta):
        # the locked state is the one steady_state returns, bit for bit
        params, scales = make_system(delta=delta, chi=chi)
        for ratio in (1.01, 1.5, 3.0):
            eps = ratio * scales.eps_th
            direct = moments_above(params, scales, eps)
            state = steady_state(params, scales, eps)
            with monkeypatch.context() as m:
                m.setattr(fluctuations, "_locked_family", lambda *args: (
                    np.array([state.phase_sum]), state.phase_diff, None,
                    np.array([state.n10]), None, None))
                m.setattr(fluctuations, "wrap_angle", lambda x: x)  # already wrapped
                assert moments_above(params, scales, eps) == direct, ratio

    def test_above_evaluators_solve_no_eigenvalues(self, standard, monkeypatch):
        params, scales, eps = at_ratio(*standard, 1.5)
        calls = []
        eigvals = np.linalg.eigvals

        def recording_eigvals(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        above_matrices(params, scales, eps)
        moments_above(params, scales, eps)
        lagged_above(params, scales, eps, 0.5)
        assert calls == []

    def test_regime_and_singular_errors(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            moments_above(params, scales, 0.5 * scales.eps_th)
        zero_det, zd = make_system(delta=0.0, chi=0.5)
        with pytest.raises(SingularParameterError):
            variance_steady(zero_det, zd, 2 * zd.eps_th)

    def test_sum_stays_below_one_above_half(self, standard):
        params, scales = standard
        for ratio in np.linspace(1.07, 10.0, 25):
            rep = variance_steady(params, scales, ratio * scales.eps_th)
            assert 0.5 <= rep.V < 1.0


class TestVarianceSteadyDispatch:
    def test_auto_selects_by_regime(self, standard):
        # the split sits at eps_th itself: the last pump short of it is served by the
        # below-threshold kernel, threshold and the pump past it by the locked one
        params, scales = standard
        th = scales.eps_th
        for e, kernel in ((np.nextafter(th, 0), entanglement._below_columns),
                          (th, entanglement._above_columns),
                          (np.nextafter(th, 2 * th), entanglement._above_columns)):
            eps = np.array([e])
            sweep = variance_sweep(params, scales, eps, 0.4)
            V, R, sigma = kernel(params, scales, eps)
            V_plus, V_minus = V + R * math.cos(0.4), V - R * math.cos(0.4)
            assert [getattr(sweep, name).tobytes() for name in COLUMNS] == [
                np.asarray(value).tobytes()
                for value in (V, R, V_plus, V_minus, V_plus * V_minus, sigma)], e

    @pytest.mark.parametrize("chi, delta", [(0.1, 10.0), (0.5, 3.0), (0.5, 1.0), (0.5, -3.0),
                                            (2.0, 0.5), (1.0, 1.0), (50.0, 49.0)])
    def test_continuous_at_threshold(self, chi, delta):
        # both sides meet at V = 1/2 + chi/(4|delta|) and R = sign(delta) chi/(4|delta|).
        # V and R move linearly in the distance to threshold, with slopes that grow
        # with eps_th^2 / gamma^2 (and with chi/|delta|: up to 0.62 of the bound here)
        params, scales = make_system(delta=delta, chi=chi)
        sweep = variance_sweep(params, scales, np.array([1 - 1e-12, 1, 1 + 1e-12]) * scales.eps_th)
        bound = 2e-12 * scales.eps_th**2 / params.gamma1**2
        limit = chi / (4 * abs(delta))
        assert np.abs(sweep.V - 0.5 - limit).max() <= bound, sweep.V
        assert np.abs(sweep.R - math.copysign(limit, delta)).max() <= bound, sweep.R
        # at threshold itself no locked state is lit: the sum angle is the limit of both sides
        assert np.abs(sweep.sigma_theta - sweep.sigma_theta[1]).max() <= 1e-9, sweep.sigma_theta


FIGURE_GRID = np.arange(0.01, 3.0 + 1e-9, 0.005)
COLUMNS = ("V", "R", "V_plus", "V_minus", "product", "sigma_theta")


def point_reference(params, scales, eps, delta_theta):
    """One pump evaluated by the per-point routes the batched kernel replaces.

    Below threshold: the generic ``(1/2) F^-1 D`` covariance, the minimizing
    angle and :func:`variances_from_moments`.  Above: the closed forms in
    ``w`` with the sum angle locked to ``steady_state(...).phase_sum``.  The
    generic solve loses digits near threshold, so the reference takes the
    threshold values from the second route already a relative 1e-9 short of it.
    """
    if eps < scales.eps_th * (1 - 1e-9):
        C4 = stationary_covariance_below(params, scales, eps)
        moments = MomentSet(C4[0, 2].real, complex(C4[0, 1]), complex(C4[0, 0]),
                            complex(C4[1, 2]))
        angles = optimal_angle_sum(moments, params, delta_theta)
        rep = variances_from_moments(moments, angles)
        sigma = angles.sigma_theta
        values = (rep.V, rep.R, rep.V_plus, rep.V_minus, rep.product)
    else:
        delta, chi, ad = params.delta1, params.chi, abs(params.delta1)
        w = math.sqrt(1 + max(0.0, eps**2 - scales.eps_th**2))
        V = 0.75 - 1 / (4 * w) + chi / (4 * ad)
        R = math.copysign(1.0, delta) / 4 * (1 / w - (ad - chi) / ad)
        vp, vm = V + R * math.cos(delta_theta), V - R * math.cos(delta_theta)
        values = (V, R, vp, vm, vp * vm)
        # at threshold, and in this reference's band short of it, the limit of both sides
        sigma = (wrap_angle(-steady_state(params, scales, eps, "+").phase_sum)
                 if eps > scales.eps_th
                 else math.atan2(math.copysign(1.0, delta) * (ad - chi), params.gamma1))
    flag = "linearization-unreliable" if abs(eps / scales.eps_th - 1) < 0.05 else "ok"
    return dict(zip(COLUMNS, values + (sigma,))), flag


def perturb_output(monkeypatch, module, name, change):
    """Replace ``module.name`` by a wrapper that edits its result in place."""
    original = getattr(module, name)

    def perturbed(*args):
        out = original(*args)
        change(out)
        return out

    monkeypatch.setattr(module, name, perturbed)


class TestVarianceSweep:
    @pytest.mark.parametrize("delta_theta", [0.0, 0.7])
    @pytest.mark.parametrize("chi, delta", FIGURE3_SETS)
    def test_matches_per_point_reference(self, chi, delta, delta_theta):
        # 1e-12 relative, or 1e-12 in vacuum units for the small splitting R
        # at 0.995 eps_th, where the generic solve it is compared with
        # carries about 1e-14 of absolute roundoff
        params, scales = make_system(delta=delta, chi=chi)
        eps = FIGURE_GRID * scales.eps_th
        sweep = variance_sweep(params, scales, eps, delta_theta)
        for i, e in enumerate(eps):
            ref, flag = point_reference(params, scales, e, delta_theta)
            assert sweep.flag[i] == flag, e
            for name, value in ref.items():
                assert getattr(sweep, name)[i] == pytest.approx(
                    value, rel=1e-12, abs=1e-12), (name, e)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_difference_angle_refused(self, standard, angle):
        params, scales = standard
        eps = np.array([0.5, 1.5]) * scales.eps_th
        for points in (eps[:1], eps[1:], eps):
            with pytest.raises(ParameterDomainError, match="delta_theta must be finite"):
                variance_sweep(params, scales, points, angle)
        for point in eps:
            with pytest.raises(ParameterDomainError, match="delta_theta must be finite"):
                variance_steady(params, scales, point, angle)

    def test_single_point_evaluators_are_views(self, standard):
        params, scales = standard
        ratios = np.array([0.0, 0.4, 0.97, 1 - 2e-9, 1 - 5e-10, 1 - 1e-12, 1.0, 1 + 1e-12,
                           1.02, 2.5])
        eps = ratios * scales.eps_th
        sweep = variance_sweep(params, scales, eps, 0.4)
        for i, e in enumerate(eps):
            rep = variance_steady(params, scales, e, 0.4)
            assert (rep.V, rep.R, rep.V_plus, rep.V_minus, rep.product, rep.flag) == (
                sweep.V[i], sweep.R[i], sweep.V_plus[i], sweep.V_minus[i],
                sweep.product[i], sweep.flag[i])
            assert rep.angles.sigma_theta == pytest.approx(sweep.sigma_theta[i], abs=1e-15)
            assert rep.angles.delta_theta == pytest.approx(0.4, abs=1e-15)
            assert rep.angles.degenerate is (e == 0)
            # the side of threshold picks the kernel, also for a single pump
            kernel = (entanglement._below_columns if e < scales.eps_th
                      else entanglement._above_columns)
            V, R, sigma = (float(value[0]) for value in kernel(params, scales, np.array([e])))
            V_plus, V_minus = V + R * math.cos(0.4), V - R * math.cos(0.4)
            assert (rep.V, rep.R, rep.V_plus, rep.V_minus, rep.product) == (
                V, R, V_plus, V_minus, V_plus * V_minus), ratios[i]
            assert rep.angles.sigma_theta == pytest.approx(sigma, abs=1e-15)

    @pytest.mark.parametrize("regime", ["above", "auto"])
    def test_asymmetric_parameters_refused_above_threshold(self, regime):
        # "above": a sweep wholly above threshold; "auto": one pump, routed by its side
        params = SystemParams(gamma2=1.5, delta1=2.0, delta2=3.0, chi=1.5)
        scales = derive_scales(params)
        assert locking_feasible(params)
        entry = variance_sweep if regime == "above" else variance_steady
        with pytest.raises(ParameterDomainError, match="implemented for symmetric parameters"):
            entry(params, scales, 2 * scales.eps_th)

    def test_locked_phase_needs_nonlinearity(self):
        params, scales = make_system(lam=0.0)
        with pytest.raises(ParameterDomainError, match="lam must be positive"):
            variance_sweep(params, scales, 2 * scales.eps_th)

    def test_regime_checks_cover_every_point(self):
        # a sweep that stays below threshold never needs the locked state
        zero_det, zd = make_system(delta=0.0, chi=0.5)
        assert variance_sweep(zero_det, zd, [0.5 * zd.eps_th]).V[0] < 1
        with pytest.raises(SingularParameterError):
            variance_sweep(zero_det, zd, np.array([0.5, 1.5]) * zd.eps_th)

    @pytest.mark.parametrize("chi, delta", CHI_NEAR_DELTA)
    def test_sweeps_to_threshold_near_chi_equal_delta(self, chi, delta):
        # the closed forms do not cancel there, and the solve guard's tolerance
        # grows with the conditioning of F
        params, scales = make_system(delta=delta, chi=chi)
        sweep = variance_sweep(params, scales, np.linspace(0.01, 0.999, 100) * scales.eps_th)
        assert np.isfinite(sweep.V).all() and (sweep.V < 1).all()

    @pytest.mark.parametrize("index", [0, 100, 196])
    def test_closed_form_guard_fires_at_one_point(self, standard, monkeypatch, index):
        params, scales = standard
        eps = FIGURE_GRID * scales.eps_th

        def shift_closed_form(out):
            out[0][index] *= 1 + 1e-9

        perturb_output(monkeypatch, fluctuations, "_corr_closed_below", shift_closed_form)
        with pytest.raises(AssertionError, match="disagree"):
            variance_sweep(params, scales, eps)

    @pytest.mark.parametrize("index", [0, 99, 197])
    def test_variance_guard_fires_at_one_point(self, standard, monkeypatch, index):
        # the 198 pumps up to 0.995 eps_th are checked against the correlators
        params, scales = standard
        eps = FIGURE_GRID * scales.eps_th

        def shift_correlators(out):
            out[0][index] *= 1 + 1e-9

        perturb_output(monkeypatch, entanglement, "equal_time_corr_below_stack",
                       shift_correlators)
        with pytest.raises(AssertionError, match="variances disagree"):
            variance_sweep(params, scales, eps)

    @pytest.mark.parametrize("chi, delta", THRESHOLD_SETS)
    def test_exact_to_threshold_on_both_sides(self, chi, delta):
        # 1e-14 relative, or absolute where R = 0, on both sides: above threshold too the
        # factor that vanishes at threshold is formed without cancellation
        params, scales = make_system(delta=delta, chi=chi)
        h = np.array([0.5, 1e-3, 1e-6, 1e-9, 1e-12])
        locks = chi > 0 and delta != 0  # a locked state exists above threshold
        eps = np.concatenate([1 - h, 1 + h] if locks else [1 - h]) * scales.eps_th
        sweep = variance_sweep(params, scales, eps)
        for i, e in enumerate(eps):
            for name, ref in zip(("V", "R"), exact_variances(1.0, delta, chi, e,
                                                             scales.eps_th)):
                tol = 1e-14 * abs(float(ref)) if ref else 1e-14
                assert abs(getattr(sweep, name)[i] - float(ref)) <= tol, (name, e / scales.eps_th)

    @pytest.mark.parametrize("chi, delta", [(c, d) for c, d in THRESHOLD_SETS if c > 0 and d])
    def test_locked_forms_within_ulps_on_every_decade(self, chi, delta):
        # V = 1/2 + chi/(4|delta|) - k/4 adds terms of one sign (k <= 0), and R =
        # sign(delta) (chi/|delta| + k)/4 rounds at the scale of its larger term: four
        # ulps of each, on every decade of distance to threshold and out to 3 eps_th
        params, scales = make_system(delta=delta, chi=chi)
        ratios = np.concatenate([1 + np.logspace(-12, 0, 25), np.linspace(2.25, 3, 4)])
        sweep = variance_sweep(params, scales, ratios * scales.eps_th)
        for i, e in enumerate(ratios * scales.eps_th):
            V, R = map(float, exact_variances(1.0, delta, chi, e, scales.eps_th))
            assert abs(sweep.V[i] - V) <= 2.0**-50 * V, ratios[i]
            assert abs(sweep.R[i] - R) <= 2.0**-50 * (chi / abs(delta) + 1) / 4, ratios[i]

    @pytest.mark.parametrize("index", [0, 200, 398])
    def test_drift_residual_guard_fires_at_one_point(self, standard, monkeypatch, index):
        params, scales = standard
        eps = FIGURE_GRID[FIGURE_GRID > 1] * scales.eps_th  # 399 locked pumps

        def displace(states):
            states[:, index] *= 1 + 1e-4

        perturb_output(monkeypatch, steady, "_state_vectors", displace)
        with pytest.raises(NotSteadyStateError, match="not steady"):
            variance_sweep(params, scales, eps)

    @pytest.mark.parametrize("index", [0, 200, 398])
    def test_stability_solve_covers_every_point(self, standard, monkeypatch, index):
        # every pump passes the state checks; the eigenvalue solve runs only
        # where a caller reads it, so a sweep solves none
        params, scales = standard
        eps = FIGURE_GRID[FIGURE_GRID > 1] * scales.eps_th
        shapes = []
        eigvals = np.linalg.eigvals

        def recording_eigvals(a):
            shapes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        variance_sweep(params, scales, eps)
        assert shapes == []
        state = steady_state(params, scales, eps[index])
        assert shapes == [(1, 4, 4)]
        steady.stability_eigenvalues(params, scales, eps[index], state.state_vector())
        assert shapes == [(1, 4, 4)] * 2

        # a state the residual cannot bound (NaN) fails the residual check by name
        def poison(states):
            states[:, index] = np.nan

        perturb_output(monkeypatch, steady, "_state_vectors", poison)
        with pytest.raises(NotSteadyStateError, match="not finite"):
            variance_sweep(params, scales, eps)
        assert len(shapes) == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chi=st.floats(0.01, 5.0), abs_delta=st.floats(0.05, 10.0),
           sign=st.sampled_from([1.0, -1.0]), delta_theta=st.floats(-math.pi, math.pi))
    def test_identities_and_continuity_across_threshold(self, chi, abs_delta, sign,
                                                        delta_theta):
        params, scales = make_system(delta=sign * abs_delta, chi=chi)
        h = np.array([1e-4, 1e-7, 1e-10])
        ratios = np.concatenate([np.linspace(0.05, 0.95, 7), 1 - h, 1 + h,
                                 np.linspace(1.1, 20.0, 7)])
        sweep = variance_sweep(params, scales, ratios * scales.eps_th, delta_theta)
        np.testing.assert_allclose(sweep.V, (sweep.V_plus + sweep.V_minus) / 2,
                                   rtol=1e-12)
        np.testing.assert_array_equal(sweep.product, sweep.V_plus * sweep.V_minus)
        # V, V+- and the sum angle reach threshold from both sides: the two-sided
        # gap shrinks with the distance to threshold (linearly; 1000x per step here)
        for column in (sweep.V, sweep.V_plus, sweep.V_minus, sweep.sigma_theta):
            gaps = np.abs(column[7:10] - column[10:13])
            assert (gaps[1:] <= 0.01 * gaps[:-1] + 1e-8).all(), gaps


class TestUnitary:
    def test_starts_at_vacuum(self):
        assert unitary_variance(1.0, 0.5, 0.0) == 1.0

    def test_no_mixing_two_mode_squeezing(self):
        for t in (0.1, 0.5, 2.0):
            assert unitary_variance(0.0, 1.3, t) == pytest.approx(
                math.exp(-2 * 1.3 * t), rel=1e-12)

    def test_equal_rates_series(self):
        chi = 1.0
        for t in (0.2, 0.7, 1.9):
            v = unitary_variance(chi, chi, t)
            assert v == pytest.approx(1 + 2 * chi**2 * t**2 - 2 * chi * t, rel=1e-12)

    def test_boundary_continuity(self):
        # the degenerate-rate series and the oscillatory branch agree when
        # the rate gap is 1e-6
        chi = 1.0
        eps = math.sqrt(chi**2 - 1e-12)  # mu = 1e-6
        for t in (0.3, 0.9, 2.5):
            series = 1 + 2 * eps**2 * t**2 - 2 * eps * t
            assert unitary_variance(chi, eps, t) == pytest.approx(series, abs=1e-6)

    def test_periodicity_in_oscillatory_regime(self):
        chi, eps = 1.0, 0.4
        period = unitary_period(chi, eps)
        assert period == pytest.approx(math.pi / math.sqrt(1 - 0.16), rel=1e-12)
        for t in np.linspace(0.0, 2.0, 17):
            assert unitary_variance(chi, eps, t) == pytest.approx(
                unitary_variance(chi, eps, t + period), abs=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterDomainError):
            unitary_variance(1.0, 0.5, -0.1)

    @pytest.mark.parametrize("chi, eps", [(-1.0, 0.5), (1.0, -0.5)])
    def test_negative_rates_rejected(self, chi, eps):
        with pytest.raises(ParameterDomainError, match="non-negative"):
            unitary_variance(chi, eps, 0.1)

    @pytest.mark.parametrize("sigma_theta", [0.0, 0.3])
    def test_past_float_range_is_inf(self, sigma_theta):
        # at eps/chi = 2 sinh(2 eta t) overflows just after t = 205
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = unitary_variance(1.0, 2.0, np.array([204.0, 400.0, 800.0]), sigma_theta)
        assert 1e305 < values[0] < math.inf
        assert values[1:].tolist() == [math.inf, math.inf]

    def test_no_mixing_past_sinh_range(self):
        # at chi = 0 the mixing terms would read 0 * inf once sinh(eta t) overflows
        values = unitary_variance(0.0, 1.0, np.array([100.0, 800.0]))
        assert values[0] == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert values[1] == 0.0
        # chi^2 underflows to 0 at chi = 1e-170, yet (chi sinh(eta t))^2 overflows at t = 800
        values = unitary_variance(1e-170, 1.0, np.array([100.0, 800.0]))
        assert values[0] == pytest.approx(math.exp(-200.0), rel=1e-12)
        assert values[1] == math.inf

    def test_small_sum_angle_term_finite_past_sinh_range(self):
        # sinh(2 eta t) overflows at t = 356, yet V is about 4.1e302: at large
        # eta t every sinh and cosh is e^(eta t) / 2, so V = K e^(2 eta t)
        chi, eps, t, sigma_theta = 1e-3, 1.0, 356.0, 1e-6
        eta = math.sqrt(eps**2 - chi**2)
        k = ((chi**2 / (2 * eta * (eps + eta)))**2 + (chi / (2 * eta))**2
             + eps * (1 - math.cos(sigma_theta)) / (2 * eta))
        value = unitary_variance(chi, eps, np.array([t]), sigma_theta)[0]
        assert value == pytest.approx(math.exp(2 * eta * t + math.log(k)), rel=1e-12)
        assert 4.1e302 < value < 4.2e302

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_period_only_in_oscillatory_regime(self, eps):
        # at eps >= chi V(t) dips once and then rises for good: it never comes back
        t_min, v_min = unitary_minimum(1.0, eps)
        values = unitary_variance(1.0, eps, np.linspace(t_min, 20 * t_min, 200))
        assert values[0] == pytest.approx(v_min, rel=1e-12)
        assert (np.diff(values) > 0).all()
        assert values[-1] > 1

    def test_broadcasts_over_times(self):
        t = np.linspace(0.0, 3.0, 31)
        for eps in (0.4, 1.0, 2.5):
            values = unitary_variance(1.0, eps, t, sigma_theta=0.3)
            assert values.shape == t.shape
            np.testing.assert_allclose(
                values, [unitary_variance(1.0, eps, x, sigma_theta=0.3) for x in t],
                rtol=1e-13, atol=0)
        with pytest.raises(ParameterDomainError):
            unitary_variance(1.0, 0.5, np.array([0.1, -0.1]))

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_sum_angle_refused(self, angle):
        with pytest.raises(ParameterDomainError, match="sigma_theta must be finite"):
            unitary_variance(1.0, 0.5, np.array([0.0, 0.6]), sigma_theta=angle)

    def test_sigma_theta_slice(self):
        # turning the sum angle off kills the squeezing term
        v_on = unitary_variance(1.0, 0.5, 0.6, sigma_theta=0.0)
        v_off = unitary_variance(1.0, 0.5, 0.6, sigma_theta=math.pi / 2)
        assert v_off > v_on


class TestUnitaryMinimum:
    def test_value_formula(self):
        t_min, v_min = unitary_minimum(1.0, 2.0)
        assert t_min == pytest.approx(0.38017, abs=1e-4)
        assert v_min == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_oscillatory_case_with_family(self):
        chi = 1.0
        t_min, v_min = unitary_minimum(chi, 0.4)
        assert chi * t_min == pytest.approx(0.63244, abs=1e-4)
        period = unitary_period(chi, 0.4)
        assert period == pytest.approx(1.0911 * math.pi, abs=2e-4)
        for k in (1, 2):
            assert unitary_variance(chi, 0.4, t_min + k * period) \
                == pytest.approx(v_min, abs=1e-10)

    @pytest.mark.parametrize("chi", [1e-9, 1e-6, 1e-3])
    def test_minimum_keeps_precision_at_weak_mixing(self, chi):
        # the expanded 1 + 2n - 2<a1 a2> cancels to V = 0 at chi/eps = 1e-9
        assert unitary_minimum(chi, 1.0)[1] == pytest.approx(chi / (1 + chi), rel=1e-12, abs=0)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0])
    def test_on_the_boundary_of_equal_rates(self, rate):
        t_min, v_min = unitary_minimum(rate, rate)
        assert t_min == 1 / (2 * rate)
        assert v_min == pytest.approx(0.5, rel=1e-15)

    def test_limit_of_equal_rates(self):
        _, v_min = unitary_minimum(1.0, 0.999999)
        assert v_min == pytest.approx(0.5, abs=1e-6)

    def test_against_dense_grid(self):
        for ratio in (0.15, 0.7, 1.4, 4.0):
            chi, eps = 1.0, ratio
            t_min, v_min = unitary_minimum(chi, eps)
            grid = np.linspace(1e-9, 2.5 * t_min, 400_001)
            if eps < chi:
                mu = math.sqrt(chi**2 - eps**2)
                values = 1 + 2 * eps**2 * np.sin(mu * grid)**2 / mu**2 \
                    - eps / mu * np.sin(2 * mu * grid)
            elif eps > chi:
                eta = math.sqrt(eps**2 - chi**2)
                values = 1 + 2 * eps**2 * np.sinh(eta * grid)**2 / eta**2 \
                    - eps / eta * np.sinh(2 * eta * grid)
            assert values.min() == pytest.approx(v_min, abs=1e-7)
            assert v_min == pytest.approx(chi / (eps + chi), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            unitary_minimum(0.0, 1.0)
        with pytest.raises(ParameterDomainError):
            unitary_minimum(1.0, 0.0)
        for chi, eps in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ParameterDomainError):
                unitary_minimum(chi, eps)

    def test_weak_mixing(self):
        # eta/eps rounds to 1 here, the pole of artanh; V = chi/(eps + chi) = 1e-9
        # is lost to cancellation between terms of size 1e9, so only its scale is checked
        t_min, v_min = unitary_minimum(1e-9, 1.0)
        assert t_min == pytest.approx(math.log(2e9) / 2, rel=1e-12)
        assert abs(v_min) < 1e-6


#: the lag rule, each with a pump (in units of threshold) it accepts: the public
#: below-threshold evaluator, and the locked pairs through the reference drift
LAGGED = {"temporal_corr_below": (temporal_corr_below, 0.5),
          "lagged_above": (lagged_above, 1.5)}
#: every public evaluator of the linearized theory that takes a pump, as
#: ``f(params, scales, eps)``; the lagged one at lag 0.5
PUMP_EVALUATORS = {
    f.__name__: f for f in (steady_state, below_matrices, equal_time_corr_below,
                            stationary_covariance_below, mean_photon_below, moments_below,
                            above_matrices, moments_above, variance_steady, variance_sweep)
} | {"temporal_corr_below": lambda p, s, eps: temporal_corr_below(p, s, eps, 0.5)}
UNITARY_ARGS = {"chi": 1.0, "eps": 0.5, "t": 1.0}


def refused(name, value):
    return f"{name} must be non-negative and finite, got {value}"


REFUSALS = (
    [pytest.param(lambda p, s, f=f, x=x: f(p, s, x), refused("eps", x), id=f"{name}-eps-{x}")
     for name, f in PUMP_EVALUATORS.items() for x in (math.nan, math.inf, -1.0)]
    + [pytest.param(lambda p, s, f=f, r=r, x=x: f(p, s, r * s.eps_th, x), refused("|tau|", abs(x)),
                    id=f"{name}-tau-{x}")
       for name, (f, r) in LAGGED.items() for x in (math.nan, math.inf, -math.inf)]
    + [pytest.param(lambda p, s, kw={**UNITARY_ARGS, name: [x] if name == "t" else x}:
                    unitary_variance(**kw), refused(name, x), id=f"unitary_variance-{name}-{x}")
       for name in UNITARY_ARGS for x in (math.nan, math.inf)]
    + [pytest.param(lambda p, s: MomentSet(n=math.nan, m_aa=0.2, m_a1sq=0.05, m_cross=0.01),
                    "moments must be finite", id="MomentSet-n-nan"),
       pytest.param(lambda p, s: MomentSet(n=0.1, m_aa=math.inf, m_a1sq=0.05, m_cross=0.01),
                    "moments must be finite", id="MomentSet-m_aa-inf")])


@pytest.mark.parametrize("call, message", REFUSALS)
def test_negative_and_non_finite_inputs_refused(standard, call, message):
    """A negative or non-finite pump, lag, rate, time or moment raises a named error.

    None of them may come back as NaN, a numpy ``LinAlgError``, a ``RuntimeWarning``
    or a :class:`RegimeError`: the value is out of every regime's domain.
    """
    with pytest.raises(ParameterDomainError, match=re.escape(message)):
        call(*standard)
