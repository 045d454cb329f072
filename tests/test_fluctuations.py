import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nopolock import (ParameterDomainError, RegimeError, SingularParameterError,
                      SystemParams, above_matrices, below_matrices, derive_scales,
                      equal_time_corr_below, mean_photon_below,
                      stationary_covariance_below, temporal_corr_above,
                      temporal_corr_below)

from conftest import at_ratio, make_system


class TestBelowMatrices:
    def test_diagonal_block(self, standard):
        mats = below_matrices(*standard, eps=1.0)
        expected = np.array([[1 + 3j, 0.5j], [0.5j, 1 + 3j]])
        np.testing.assert_allclose(mats.A, expected, atol=1e-15)
        np.testing.assert_allclose(mats.F[:2, :2], expected, atol=1e-15)
        np.testing.assert_allclose(mats.F[2:, 2:], expected.conj(), atol=1e-15)

    def test_no_pump_vacuum_dynamics(self, standard):
        mats = below_matrices(*standard, eps=0.0)
        assert np.all(mats.B == 0)
        assert np.all(mats.D == 0)

    def test_drift_diffusion_identity(self, standard):
        mats = below_matrices(*standard, eps=1.0)
        assert np.abs(mats.D @ mats.F.T - mats.F @ mats.D).max() < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chi=st.floats(0.0, 5.0), abs_delta=st.floats(0.0, 10.0),
           sign=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.1, 5.0),
           ratio=st.floats(0.0, 0.99, exclude_min=True))
    def test_drift_diffusion_identity_property(self, chi, abs_delta, sign, gamma, ratio):
        params, scales, eps = at_ratio(*make_system(gamma=gamma, delta=sign * abs_delta,
                                                    chi=chi), ratio)
        mats = below_matrices(params, scales, eps)
        assert np.abs(mats.D @ mats.F.T - mats.F @ mats.D).max() <= 1e-12 * max(1.0, eps * gamma)

    def test_noise_scalar_positive_below_threshold(self, standard):
        params, scales = standard
        for ratio in (0.1, 0.5, 0.9, 0.999):
            assert below_matrices(params, scales, ratio * scales.eps_th).s_sq > 0

    def test_regime_error_at_threshold(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError, match="above-threshold"):
            below_matrices(params, scales, scales.eps_th)

    def test_asymmetric_rejected(self):
        p = SystemParams(gamma1=1.0, gamma2=2.0, delta1=1.0, delta2=1.0, chi=0.5)
        with pytest.raises(ParameterDomainError):
            below_matrices(p, derive_scales(p), 0.5)

    def test_negative_pump_rejected(self, standard):
        with pytest.raises(ParameterDomainError, match="non-negative"):
            below_matrices(*standard, eps=-0.1)


def closed_form_blocks(gamma, delta, chi, eps):
    """Literal transcription of the stationary correlator closed forms."""
    s2 = gamma**2 + chi**2 + delta**2 - eps**2
    den = s2**2 - 4 * delta**2 * chi**2
    aa = eps / (2 * den) * (
        gamma * np.array([[-2 * chi * delta, s2], [s2, -2 * chi * delta]])
        - 1j * np.array([[chi * (s2 - 2 * delta**2), delta * (s2 - 2 * chi**2)],
                         [delta * (s2 - 2 * chi**2), chi * (s2 - 2 * delta**2)]]))
    ab = eps**2 / (2 * den) * np.array([[s2, -2 * chi * delta],
                                        [-2 * chi * delta, s2]])
    return aa, ab


class TestEqualTimeBelow:
    def test_vanishes_without_pump(self, standard):
        aa, ab = equal_time_corr_below(*standard, eps=1e-12)
        assert np.abs(aa).max() < 1e-11
        assert np.abs(ab).max() < 1e-11

    def test_pair_moment_value(self, standard):
        _, ab = equal_time_corr_below(*standard, eps=2.0)
        assert ab[0, 0].real == pytest.approx(0.4158004158004158, abs=1e-15)
        assert abs(ab[0, 0].imag) < 1e-15

    def test_no_mixing_cross_is_identity_scaled(self):
        params, scales = make_system(delta=3.0, chi=0.0)
        eps = 1.5
        aa, ab = equal_time_corr_below(params, scales, eps)
        s2 = 1 + 9 - eps**2
        np.testing.assert_allclose(ab, eps**2 / (2 * s2) * np.eye(2), atol=1e-14)
        assert np.abs(aa - np.diag(np.diag(aa))).max() > 0  # pair term survives

    def test_matches_generic_inverse_route(self, standard):
        params, scales = standard
        for ratio in (0.2, 0.5, 0.8, 0.95):
            eps = ratio * scales.eps_th
            aa, ab = equal_time_corr_below(params, scales, eps)
            C4 = stationary_covariance_below(params, scales, eps)
            scale = max(1.0, np.abs(C4).max())
            assert np.abs(C4[:2, :2] - aa).max() < 1e-12 * scale
            assert np.abs(C4[:2, 2:] - ab).max() < 1e-12 * scale

    def test_matches_independent_transcription(self, standard):
        params, scales = standard
        aa, ab = equal_time_corr_below(params, scales, 2.0)
        aa2, ab2 = closed_form_blocks(1.0, 3.0, 0.5, 2.0)
        np.testing.assert_allclose(aa, aa2, atol=1e-15)
        np.testing.assert_allclose(ab, ab2, atol=1e-15)


class TestTemporalBelow:
    def test_zero_lag_reduces_to_equal_time(self, standard):
        params, scales = standard
        C = temporal_corr_below(params, scales, 1.0, 0.0)
        aa, ab = equal_time_corr_below(params, scales, 1.0)
        np.testing.assert_allclose(C[:2, :2], aa, atol=1e-13)
        np.testing.assert_allclose(C[:2, 2:], ab, atol=1e-13)

    def test_decays_at_long_lag(self, standard):
        params, scales = standard
        C = temporal_corr_below(params, scales, 1.0, 40.0)
        assert np.abs(C).max() < 1e-14

    def test_negative_lag_transposes(self, standard):
        params, scales = standard
        Cp = temporal_corr_below(params, scales, 1.0, 0.7)
        Cm = temporal_corr_below(params, scales, 1.0, -0.7)
        np.testing.assert_allclose(Cm, Cp.T, atol=1e-13)

    def test_against_quadrature_oracle(self, standard):
        # independent route: Simpson quadrature of the defining integral
        # int_0^inf exp(-F(u+tau)) D exp(-F^T u) du
        params, scales = standard
        eps, tau = 1.0, 0.7
        mats = below_matrices(params, scales, eps)
        du, U = 0.0025, 30.0
        n = int(U / du)
        if n % 2:
            n += 1
        step = expm(-mats.F * du)
        Mtau = expm(-mats.F * tau)
        weights = np.ones(n + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        M = np.eye(4, dtype=complex)  # exp(-F u), advanced by one panel per loop
        total = np.zeros((4, 4), complex)
        for k in range(n + 1):
            total += weights[k] * (Mtau @ M @ mats.D @ M.T)
            M = M @ step
        integral = total * du / 3.0
        C = temporal_corr_below(params, scales, eps, tau)
        assert np.abs(C - integral).max() < 1e-8


class TestMeanPhotonBelow:
    def test_zero_pump(self, standard):
        assert mean_photon_below(*standard, eps=0.0) == 0.0

    def test_no_mixing_form(self):
        params, scales = make_system(delta=3.0, chi=0.0)
        eps = 1.5
        s2 = 1 + 9 - eps**2
        assert mean_photon_below(params, scales, eps) == pytest.approx(
            eps**2 / (2 * s2), rel=1e-14)

    @pytest.mark.parametrize("ratio", [1.0, 1.5])
    def test_regime_error_at_and_above_threshold(self, standard, ratio):
        params, scales = standard
        with pytest.raises(RegimeError, match="outside"):
            mean_photon_below(params, scales, ratio * scales.eps_th)

    def test_standard_value_and_block_consistency(self, standard):
        n = mean_photon_below(*standard, eps=2.0)
        assert n == pytest.approx(0.41580, abs=1e-5)
        _, ab = equal_time_corr_below(*standard, eps=2.0)
        assert n == pytest.approx(ab[0, 0].real, rel=1e-14)


class TestAboveMatrices:
    def test_regime_and_domain_errors(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            above_matrices(params, scales, 0.9 * scales.eps_th)
        zero_det, zd_scales = make_system(delta=0.0, chi=0.5)
        with pytest.raises(SingularParameterError):
            above_matrices(zero_det, zd_scales, 2 * zd_scales.eps_th)

    def test_mixer_required(self):
        params, scales = make_system(chi=0.0)
        with pytest.raises(ParameterDomainError, match="chi > 0"):
            above_matrices(params, scales, 2 * scales.eps_th)

    def test_number_difference_variance(self, standard):
        params, scales, eps = at_ratio(*standard, 1.5)
        mats = above_matrices(params, scales, eps)
        assert mats.C_minus[0, 0] == pytest.approx(-(5 / 6) * mats.n0, rel=1e-12)

    def test_phase_sum_variance(self, standard):
        params, scales, eps = at_ratio(*standard, 1.5)
        mats = above_matrices(params, scales, eps)
        n0 = mats.n0
        assert mats.C_plus[1, 1] == pytest.approx(-1.0 / (4 * n0 * (1 + n0)), rel=1e-12)

    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_plus_covariance_consistent_with_langevin(self, delta):
        # (1/2) F+^-1 D+ must reproduce the closed-form covariance
        params, scales = make_system(delta=delta)
        _, _, eps = at_ratio(params, scales, 1.8)
        mats = above_matrices(params, scales, eps)
        recon = 0.5 * np.linalg.solve(mats.F_plus, mats.D_plus)
        np.testing.assert_allclose(recon, mats.C_plus, atol=1e-10)

    @pytest.mark.parametrize("delta", [3.0, -3.0])
    def test_minus_diffusion_is_opposite_of_plus(self, delta):
        params, scales = make_system(delta=delta)
        _, _, eps = at_ratio(params, scales, 1.5)
        mats = above_matrices(params, scales, eps)
        np.testing.assert_allclose(mats.D_minus, -mats.D_plus, atol=1e-12)
        recon = 0.5 * np.linalg.solve(mats.F_minus, mats.D_minus)
        np.testing.assert_allclose(recon, mats.C_minus, atol=1e-10)

    def test_covariances_finite_and_symmetric(self, standard):
        params, scales, eps = at_ratio(*standard, 1.2)
        mats = above_matrices(params, scales, eps)
        for C in (mats.C_plus, mats.C_minus):
            assert np.all(np.isfinite(C))
            assert C[0, 1] == pytest.approx(C[1, 0], rel=1e-14)

    def test_both_pairs_relax(self, standard):
        params, scales, eps = at_ratio(*standard, 1.5)
        mats = above_matrices(params, scales, eps)
        for F in (mats.F_plus, mats.F_minus):
            assert np.all(np.linalg.eigvals(F).real > 0)

    def test_near_threshold_flagged(self, standard):
        params, scales = standard
        assert above_matrices(params, scales, 1.01 * scales.eps_th).near_threshold
        assert not above_matrices(params, scales, 1.5 * scales.eps_th).near_threshold

class TestTemporalAbove:
    def test_zero_lag_exact(self, standard):
        params, scales, eps = at_ratio(*standard, 1.5)
        mats = above_matrices(params, scales, eps)
        Cp, Cm = temporal_corr_above(params, scales, eps, 0.0)
        np.testing.assert_allclose(Cp, mats.C_plus, atol=1e-14)
        np.testing.assert_allclose(Cm, mats.C_minus, atol=1e-14)

    def test_long_lag_decay(self, standard):
        params, scales, eps = at_ratio(*standard, 1.5)
        Cp, Cm = temporal_corr_above(params, scales, eps, 50.0)
        assert np.abs(Cp).max() < 1e-12
        assert np.abs(Cm).max() < 1e-12

    def test_below_threshold_rejected(self, standard):
        params, scales = standard
        with pytest.raises(RegimeError):
            temporal_corr_above(params, scales, 0.5 * scales.eps_th, 0.1)
