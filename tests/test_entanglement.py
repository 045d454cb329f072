import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nopolock import (MomentSet, NotSteadyStateError, ParameterDomainError,
                      QuadratureAngles, RegimeError, SingularParameterError,
                      SystemParams, derive_scales, locking_feasible,
                      moments_above, optimal_angle_sum,
                      stationary_covariance_below, unitary_minimum,
                      unitary_variance, variance_steady, variance_sweep,
                      variances_from_moments, wrap_angle)
from nopolock import fluctuations, steady
from nopolock.entanglement import unitary_period
from nopolock.steady import steady_state

from conftest import assert_close, at_ratio, make_system


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
        ang = QuadratureAngles.from_sums(-moments.phi_arg, math.pi / 2)
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
                moments, QuadratureAngles.from_sums(-moments.phi_arg, dt))
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
            abs(moments.m_aa) * np.cos(grid + moments.phi_arg))
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
        assert variance_steady(params, scales, 0.0, regime="below").V == 1.0

    def test_standard_value(self, standard):
        rep = variance_steady(*standard, eps=2.0, regime="below")
        assert rep.V == pytest.approx(0.6110, abs=1e-4)
        assert rep.V == pytest.approx(eq54_variance(1.0, 3.0, 0.5, 2.0), abs=1e-12)
        assert rep.inseparable

    def test_matches_closed_form_on_grid(self, standard):
        params, scales = standard
        for ratio in (0.1, 0.3, 0.6, 0.9, 0.94):
            eps = ratio * scales.eps_th
            rep = variance_steady(params, scales, eps, regime="below")
            assert rep.V == pytest.approx(eq54_variance(1.0, 3.0, 0.5, eps), abs=1e-10)

    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_splitting_amplitude_magnitude(self, delta):
        params, scales = make_system(delta=delta)
        eps = 2.0
        rep = variance_steady(params, scales, eps, delta_theta=0.0, regime="below")
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
            rep = variance_steady(params, scales, eps, regime="below")
            assert rep.V == pytest.approx(1 - eps / (eps + g), abs=1e-6)
            assert rep.V_plus == pytest.approx(rep.V, abs=1e-6)
            assert rep.V_minus == pytest.approx(rep.V, abs=1e-6)

    def test_regime_error(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            variance_steady(params, scales, scales.eps_th, regime="below")

    def test_near_threshold_flagged(self, standard):
        params, scales = standard
        assert variance_steady(params, scales, 0.97 * scales.eps_th, regime="below").flag \
            == "linearization-unreliable"
        assert variance_steady(params, scales, 0.5 * scales.eps_th, regime="below").flag == "ok"

    def test_inseparable_below_threshold_when_mixing_small(self):
        params, scales = make_system(delta=3.0, chi=0.5)
        for ratio in np.linspace(0.05, 0.93, 15):
            rep = variance_steady(params, scales, ratio * scales.eps_th, regime="below")
            assert 0.5 <= rep.V < 1.0


class TestVarianceAbove:
    def test_threshold_value(self):
        params, scales = make_system(delta=10.0, chi=0.1)
        rep = variance_steady(params, scales, scales.eps_th * (1 + 1e-12), regime="above")
        assert rep.V == pytest.approx(0.5025, abs=1e-6)

    def test_asymptote(self, standard):
        params, scales = standard
        rep = variance_steady(params, scales, 100 * scales.eps_th, regime="above")
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
            rep = variance_steady(params, scales, eps, delta_theta=0.0, regime="above")
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
                rep = variance_steady(params, scales, eps, delta_theta=0.0, regime="above")
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
                closed = variance_steady(params, scales, eps, delta_theta=0.0, regime="above")
                moments = moments_above(params, scales, eps)
                sigma = -steady_state(params, scales, eps, "+").phase_sum
                ang = QuadratureAngles.from_sums(sigma, 0.0)
                rep = variances_from_moments(moments, ang)
                assert rep.V == pytest.approx(closed.V, abs=1e-10)
                assert rep.V_plus == pytest.approx(closed.V_plus, abs=1e-10)
                assert rep.V_minus == pytest.approx(closed.V_minus, abs=1e-10)

    def test_regime_and_singular_errors(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            variance_steady(params, scales, 0.5 * scales.eps_th, regime="above")
        zero_det, zd = make_system(delta=0.0, chi=0.5)
        with pytest.raises(SingularParameterError):
            variance_steady(zero_det, zd, 2 * zd.eps_th, regime="above")

    def test_sum_stays_below_one_above_half(self, standard):
        params, scales = standard
        for ratio in np.linspace(1.07, 10.0, 25):
            rep = variance_steady(params, scales, ratio * scales.eps_th, regime="above")
            assert 0.5 <= rep.V < 1.0


class TestVarianceSteadyDispatch:
    def test_auto_selects_by_regime(self, standard):
        params, scales = standard
        below = variance_steady(params, scales, 0.5 * scales.eps_th)
        above = variance_steady(params, scales, 1.5 * scales.eps_th)
        assert below.V == variance_steady(params, scales, 0.5 * scales.eps_th, regime="below").V
        assert above.V == variance_steady(params, scales, 1.5 * scales.eps_th, regime="above").V

    def test_explicit_regime_mismatch_raises(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            variance_steady(params, scales, 1.5 * scales.eps_th, regime="below")
        with pytest.raises(RegimeError):
            variance_steady(params, scales, 0.5 * scales.eps_th, regime="above")


FIGURE3_SETS = ((0.1, 10.0), (0.5, 3.0), (0.5, 1.0))
FIGURE_GRID = np.arange(0.01, 3.0 + 1e-9, 0.005)
COLUMNS = ("V", "R", "V_plus", "V_minus", "product", "sigma_theta")


def point_reference(params, scales, eps, delta_theta):
    """One pump evaluated by the per-point routes the batched kernel replaces.

    Below threshold: the generic ``(1/2) F^-1 D`` covariance, the minimizing
    angle and :func:`variances_from_moments`.  Above: the closed forms in
    ``w`` with the sum angle locked to ``steady_state(...).phase_sum``.
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
        sigma = (wrap_angle(-steady_state(params, scales, eps, "+").phase_sum)
                 if eps > scales.eps_th else 0.0)
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
        for regime, points in (("below", eps[:1]), ("above", eps[1:]), ("auto", eps)):
            with pytest.raises(ParameterDomainError, match="delta_theta must be finite"):
                variance_sweep(params, scales, points, angle, regime)
        for regime, point in (("auto", eps[0]), ("below", eps[0]), ("above", eps[1])):
            with pytest.raises(ParameterDomainError, match="delta_theta must be finite"):
                variance_steady(params, scales, point, angle, regime)

    def test_single_point_evaluators_are_views(self, standard):
        params, scales = standard
        eps = np.array([0.0, 0.4, 0.97, 1 - 1e-10, 1.0, 1.02, 2.5]) * scales.eps_th
        sweep = variance_sweep(params, scales, eps, 0.4)
        for i, e in enumerate(eps):
            rep = variance_steady(params, scales, e, 0.4)
            assert (rep.V, rep.R, rep.V_plus, rep.V_minus, rep.product, rep.flag) == (
                sweep.V[i], sweep.R[i], sweep.V_plus[i], sweep.V_minus[i],
                sweep.product[i], sweep.flag[i])
            assert rep.angles.sigma_theta == pytest.approx(sweep.sigma_theta[i], abs=1e-15)
            assert rep.angles.delta_theta == pytest.approx(0.4, abs=1e-15)
            assert rep.angles.degenerate is (e == 0)
            single = variance_steady(params, scales, e, 0.4,
                                     "below" if e < scales.eps_th * (1 - 1e-9) else "above")
            assert single == rep

    @pytest.mark.parametrize("regime", ["above", "auto"])
    def test_asymmetric_parameters_refused_above_threshold(self, regime):
        params = SystemParams(gamma2=1.5, delta1=2.0, delta2=3.0, chi=1.5)
        scales = derive_scales(params)
        assert locking_feasible(params)
        with pytest.raises(ParameterDomainError, match="implemented for symmetric parameters"):
            variance_sweep(params, scales, 2 * scales.eps_th, regime=regime)

    def test_locked_phase_needs_nonlinearity(self):
        params, scales = make_system(lam=0.0)
        with pytest.raises(ParameterDomainError, match="lam must be positive"):
            variance_sweep(params, scales, 2 * scales.eps_th, regime="above")

    def test_regime_checks_cover_every_point(self, standard):
        params, scales = standard
        eps = np.array([0.5, 0.9, 1.2]) * scales.eps_th
        with pytest.raises(RegimeError, match="below-threshold range"):
            variance_sweep(params, scales, eps, regime="below")
        with pytest.raises(RegimeError, match="below threshold"):
            variance_sweep(params, scales, eps, regime="above")
        with pytest.raises(ParameterDomainError, match="unknown regime"):
            variance_sweep(params, scales, eps, regime="sideways")
        # a sweep that stays below threshold never needs the locked state
        zero_det, zd = make_system(delta=0.0, chi=0.5)
        assert variance_sweep(zero_det, zd, [0.5 * zd.eps_th]).V[0] < 1
        with pytest.raises(SingularParameterError):
            variance_sweep(zero_det, zd, np.array([0.5, 1.5]) * zd.eps_th)

    @pytest.mark.parametrize("index", [0, 100, 196])
    def test_identity_guard_fires_at_one_point(self, standard, monkeypatch, index):
        params, scales = standard
        eps = FIGURE_GRID * scales.eps_th  # 197 pumps below threshold

        def break_identity(out):
            out[0][index, 0, 3] += 1e-9

        perturb_output(monkeypatch, fluctuations, "_below_matrix_stacks", break_identity)
        with pytest.raises(AssertionError, match="identity violated"):
            variance_sweep(params, scales, eps)

    @pytest.mark.parametrize("index", [0, 100, 196])
    def test_closed_form_guard_fires_at_one_point(self, standard, monkeypatch, index):
        params, scales = standard
        eps = FIGURE_GRID * scales.eps_th

        def shift_closed_form(out):
            out[0][index] *= 1 + 1e-9

        perturb_output(monkeypatch, fluctuations, "_corr_closed_below", shift_closed_form)
        with pytest.raises(AssertionError, match="disagree"):
            variance_sweep(params, scales, eps)

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
        params, scales = standard
        eps = FIGURE_GRID[FIGURE_GRID > 1] * scales.eps_th
        shapes = []
        eigvals = np.linalg.eigvals

        def recording_eigvals(a):
            shapes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        variance_sweep(params, scales, eps)
        assert shapes == [(eps.size, 4, 4)]

        # a state the residual check cannot judge (NaN) still reaches the
        # eigenvalue solve, which refuses it
        def poison(states):
            states[:, index] = np.nan

        perturb_output(monkeypatch, steady, "_state_vectors", poison)
        with pytest.raises(np.linalg.LinAlgError):
            variance_sweep(params, scales, eps)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chi=st.floats(0.01, 5.0), abs_delta=st.floats(0.05, 10.0),
           sign=st.sampled_from([1.0, -1.0]), delta_theta=st.floats(-math.pi, math.pi))
    def test_identities_and_continuity_across_threshold(self, chi, abs_delta, sign,
                                                        delta_theta):
        params, scales = make_system(delta=sign * abs_delta, chi=chi)
        h = np.array([1e-4, 1e-7])
        ratios = np.concatenate([np.linspace(0.05, 0.95, 7), 1 - h, 1 + h,
                                 np.linspace(1.1, 20.0, 7)])
        sweep = variance_sweep(params, scales, ratios * scales.eps_th, delta_theta)
        np.testing.assert_allclose(sweep.V, (sweep.V_plus + sweep.V_minus) / 2,
                                   rtol=1e-12)
        np.testing.assert_array_equal(sweep.product, sweep.V_plus * sweep.V_minus)
        # V and V+- reach threshold from both sides: the two-sided gap shrinks
        # with the distance to threshold (linearly; 1000x here)
        for column in (sweep.V, sweep.V_plus, sweep.V_minus):
            wide, narrow = abs(column[7] - column[9]), abs(column[8] - column[10])
            assert narrow <= 0.01 * wide + 1e-8


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

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_period_only_in_oscillatory_regime(self, eps):
        with pytest.raises(RegimeError, match="periodic only"):
            unitary_period(1.0, eps)

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
