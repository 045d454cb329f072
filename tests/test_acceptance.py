"""Acceptance gate: one test per quantitative criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines for passing criteria too).

Three criteria had targets that no correct implementation can meet; their
claims are now checked where the theory makes them:

* criterion 1: the tabulated minimum time for rate ratio 0.7 was 0.57, but
  the exact stationary condition ``tan(2 mu t) = mu/eps`` and a 4e5-point
  brute-force scan both give chi*t_min = 0.55689 (0.57 belongs to a ratio
  of about 0.65).  The anchor is 0.56, and every anchor is also checked
  against the closed-form stationary time to 1e-9.
* criterion 5: V approaches its asymptote 3/4 + chi/(4|delta|) from below
  with a residual 1/(4w), w = sqrt(1 + (eps^2 - eps_th^2)/gamma^2), which
  at 100x threshold is 2.236e-3 for chi=0.5, |delta|=1, outside the 1e-3
  window.  The window is applied at 1000x threshold (gaps 2.5e-5 and
  2.24e-4), and the gap must shrink strictly over 10x, 100x and 1000x.
* criterion 8: at lam=1 the sampler gave <b1 a1> = 0.148 +- 0.002 against
  the linearized formula 0.123, while the exact Fock-basis steady state is
  0.0975; the formula is the weak-nonlinearity result (relative error about
  -0.22 lam).  The comparison runs at lam=0.01, against both the formula
  and the exact solve.  The lam=1 positive-P bias is a separate, known
  limit of the sampler.
"""

import math

import numpy as np
import pytest

from nopolock import (SimConfig, SystemParams, below_matrices, derive_scales,
                      ensemble_moments, equal_time_corr_below,
                      mean_photon_below, sample_ensemble,
                      stationary_covariance_below, unitary_minimum,
                      variance_steady)
from nopolock.cli import main
from nopolock.steady import replace_pump

from conftest import make_system
from _fock import FockSteadyState


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def brute_unitary_min(chi: float, eps: float, n: int = 400_001):
    """Independent dense-grid minimizer of the lossless variance."""
    if eps < chi:
        mu = math.sqrt(chi**2 - eps**2)
        T = math.pi / mu
        t = np.linspace(1e-9, T, n)
        v = 1 + 2 * eps**2 * np.sin(mu * t) ** 2 / mu**2 \
            - eps / mu * np.sin(2 * mu * t)
    else:
        eta = math.sqrt(eps**2 - chi**2)
        T = 1.0 / eta
        while 1 + 2 * eps**2 * math.sinh(eta * T) ** 2 / eta**2 \
                - eps / eta * math.sinh(2 * eta * T) < 1.5:
            T *= 2
        t = np.linspace(1e-9, T, n)
        v = 1 + 2 * eps**2 * np.sinh(eta * t) ** 2 / eta**2 \
            - eps / eta * np.sinh(2 * eta * t)
    i = int(np.argmin(v))
    return float(t[i]), float(v[i])


def stationary_time(chi: float, eps: float) -> float:
    """Closed-form first zero of dV/dt: the lossless variance minimum time."""
    if eps < chi:
        mu = math.sqrt(chi**2 - eps**2)
        return math.atan(mu / eps) / (2 * mu)
    eta = math.sqrt(eps**2 - chi**2)
    return math.atanh(eta / eps) / (2 * eta)


def test_criterion_01_unitary_minimum_times():
    """Tabulated times of the first variance minimum, +-0.01, and the
    closed-form stationary time to 1e-9."""
    anchors = [(0.1, 0.74), (0.4, 0.63), (0.7, 0.56),
               (1.1, 0.48), (2.0, 0.38), (3.0, 0.31)]
    chi = 1.0
    results = []
    for ratio, target in anchors:
        t_min, _ = unitary_minimum(chi, ratio * chi)
        t_star = stationary_time(chi, ratio * chi)
        ok_anchor = abs(chi * t_min - target) <= 0.01
        ok_exact = abs(t_min - t_star) <= 1e-9
        results.append((ratio, target, chi * t_min, t_star, ok_anchor and ok_exact))
    ok = all(r[4] for r in results)
    detail = ", ".join(f"eps/chi={r:.1f}: {got:.5f} (target {tgt:.2f}, "
                       f"closed form {t_star:.5f})"
                       for r, tgt, got, t_star, _ in results)
    report(1, ok, f"unitary minimum times: {detail}")
    if not ok:
        bad = [r for r in results if not r[4]]
        pytest.fail(
            "minimum times off: "
            + "; ".join(f"eps/chi={r:.1f} gives chi*t_min={got:.6f}, "
                        f"closed form {t_star:.6f}, brute-force scan "
                        f"{brute_unitary_min(chi, r * chi)[0]:.6f}, "
                        f"tabulated {tgt:.2f}"
                        for r, tgt, got, t_star, _ in bad))


def test_criterion_02_minimum_value_closure():
    """Brute-force minimization matches chi/(eps+chi) to 1e-7 for 50 ratios."""
    chi = 1.0
    worst = 0.0
    for ratio in np.linspace(0.05, 10.0, 50):
        _, v = brute_unitary_min(chi, ratio * chi)
        worst = max(worst, abs(v - chi / (ratio * chi + chi)))
    ok = worst < 1e-7
    report(2, ok, f"minimum-value closure over 50 pump ratios: "
                  f"max |V_min - chi/(eps+chi)| = {worst:.2e}")
    assert ok


def test_criterion_03_ordinary_oscillator_limit():
    """variance_steady below threshold at chi=1e-8 matches the mixer-free closed form to 1e-6."""
    params, scales = make_system(delta=3.0, chi=1e-8)
    g = math.hypot(1.0, 3.0)
    worst = 0.0
    for eps in np.linspace(0.02, 0.95, 40) * scales.eps_th:
        v = variance_steady(params, scales, eps).V
        worst = max(worst, abs(v - (1 - eps / (eps + g))))
    ok = worst < 1e-6
    report(3, ok, f"mixer-free limit: max deviation {worst:.2e}")
    assert ok


def test_criterion_04_threshold_cancellation():
    """V, V+, V- continuous across threshold to 1e-3 at chi=0.5, delta=3."""
    params, scales = make_system(delta=3.0, chi=0.5)
    d = 1e-6
    below = variance_steady(params, scales, scales.eps_th * (1 - d))
    above = variance_steady(params, scales, scales.eps_th * (1 + d))
    gaps = (abs(below.V - above.V), abs(below.V_plus - above.V_plus),
            abs(below.V_minus - above.V_minus))
    ok = max(gaps) < 1e-3 and all(np.isfinite(gaps))
    report(4, ok, "two-sided threshold limits: "
                  f"|dV|={gaps[0]:.2e} |dV+|={gaps[1]:.2e} |dV-|={gaps[2]:.2e}")
    assert ok


def test_criterion_05_above_threshold_asymptote():
    """V at 1000x threshold within 1e-3 of 3/4 + chi/(4|delta|), both figure
    sets, with the gap shrinking strictly over 10x, 100x and 1000x."""
    pumps = (10, 100, 1000)
    gaps = {}
    for chi, delta in ((0.1, 10.0), (0.5, 1.0)):
        params, scales = make_system(delta=delta, chi=chi)
        asymptote = 0.75 + chi / (4 * abs(delta))
        gaps[chi, delta] = [
            abs(variance_steady(params, scales, k * scales.eps_th).V - asymptote)
            for k in pumps]
    shrinking = all(g[0] > g[1] > g[2] for g in gaps.values())
    ok = shrinking and max(g[-1] for g in gaps.values()) < 1e-3
    detail = "; ".join(
        f"chi={chi}, |delta|={abs(delta)}: "
        + ", ".join(f"{g:.3e} at {k}x" for k, g in zip(pumps, gs))
        for (chi, delta), gs in gaps.items())
    report(5, ok, f"asymptote gaps {detail}; strictly shrinking: {shrinking}")
    assert ok, f"asymptote gaps {detail}"


def test_criterion_06_epr_product_near_threshold():
    """V+V- just above threshold: equals (|delta|+chi)/(4|delta|) and exceeds 1/4.

    The equality window is 1e-6, and the product moves away from its
    threshold value like eps_th^2/gamma^2 * 1e-6, so the equality scan uses
    points with eps_th below ~1.9 gamma; the strict >1/4 claim is scanned
    over a wider set including the high-detuning figure parameters.
    """
    worst_eq = 0.0
    for chi, delta in ((0.5, 1.0), (0.3, 1.0), (1.0, 2.0), (0.2, 1.5), (1.0, 1.5)):
        params, scales = make_system(delta=delta, chi=chi)
        rep = variance_steady(params, scales, scales.eps_th * (1 + 1e-6),
                              delta_theta=0.0)
        target = (abs(delta) + chi) / (4 * abs(delta))
        worst_eq = max(worst_eq, abs(rep.product - target))
    above_quarter = True
    for chi, delta in ((0.1, 10.0), (0.5, 3.0), (0.5, 1.0), (1.0, 2.0),
                       (0.2, 1.5), (2.0, 5.0)):
        params, scales = make_system(delta=delta, chi=chi)
        for ratio in (1 + 1e-6, 1.05, 1.5, 3.0, 10.0):
            rep = variance_steady(params, scales, ratio * scales.eps_th,
                                  delta_theta=0.0)
            above_quarter &= rep.product > 0.25
    ok = worst_eq < 1e-6 and above_quarter
    report(6, ok, f"product vs threshold value: max gap {worst_eq:.2e}; "
                  f"exceeds 1/4 everywhere scanned: {above_quarter}")
    assert ok


def test_criterion_07_matrix_identity_suite():
    """D F^T = F D and closed form vs (1/2) F^-1 D to 1e-12 on a 100-point grid."""
    params, scales = make_system(delta=3.0, chi=0.5)
    worst_ident = 0.0
    worst_route = 0.0
    for eps in np.linspace(0.01, 0.95, 100) * scales.eps_th:
        mats = below_matrices(params, scales, eps)
        worst_ident = max(worst_ident,
                          float(np.abs(mats.D @ mats.F.T - mats.F @ mats.D).max()))
        aa, ab = equal_time_corr_below(params, scales, eps)
        C4 = stationary_covariance_below(params, scales, eps)
        scale = max(1.0, float(np.abs(C4).max()))
        worst_route = max(worst_route,
                          float(np.abs(C4[:2, :2] - aa).max()) / scale,
                          float(np.abs(C4[:2, 2:] - ab).max()) / scale)
    ok = worst_ident < 1e-12 and worst_route < 1e-12
    report(7, ok, f"identity residual {worst_ident:.2e}, "
                  f"route disagreement {worst_route:.2e} (100 pump values)")
    assert ok


def test_criterion_08_monte_carlo_vs_analytics():
    """Pair-photon estimate from 1e4 trajectories vs the linearized formula
    and the exact master equation, at weak nonlinearity lam = 0.01."""
    params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
    eps = 0.5 * scales.eps_th
    p, s = replace_pump(params, scales, eps)
    config = SimConfig(dt=1e-3, t_max=30.0, n_traj=10_000, burn_in=10.0,
                       seed=2024)
    expected = mean_photon_below(params, scales, eps)
    # n_max=11 keeps the top-of-basis population near 2.5e-9 (10 leaves 1.7e-8)
    exact = FockSteadyState(eps=eps, chi=0.5, delta=3.0, lam=0.01, n_max=11)
    ests = ensemble_moments(p, s, config, ["n1", "a1", "a2"], n_workers=4)
    est = ests[0]
    se = est.std_error
    odd_ok = all(abs(e.mean) < 3 * e.std_error for e in ests[1:])
    ok = (abs(est.mean.real - expected) < 3 * se
          and abs(est.mean.real - exact.mean_photon) < 3 * se
          and exact.truncation_error < 1e-8
          and est.discard_fraction == 0
          and odd_ok)
    detail = (f"<b1 a1> = {est.mean.real:.5f} +- {se:.5f} "
              f"(discard {est.discard_fraction:.3%}), linearized formula "
              f"{expected:.5f} ({(est.mean.real - expected) / se:+.2f} sigma), "
              f"exact master equation {exact.mean_photon:.5f} "
              f"({(est.mean.real - exact.mean_photon) / se:+.2f} sigma, "
              f"truncation error {exact.truncation_error:.1e}); odd moments "
              + ", ".join(f"|{e.label}| = {abs(e.mean) / e.std_error:.2f} sigma"
                          for e in ests[1:]))
    report(8, ok, detail)
    assert ok, detail


def test_criterion_09_phase_locking():
    """>= 90% of the phase-difference mass within 0.3 rad of 0 (mod pi).

    The nonlinearity is a free choice here and is taken weak so that the
    locked state is bright and the linearized picture applies.
    """
    params, scales = make_system(delta=3.0, chi=0.5, lam=0.01)
    eps = 1.5 * scales.eps_th
    p, s = replace_pump(params, scales, eps)
    config = SimConfig(dt=1e-3, t_max=25.0, n_traj=1024, burn_in=12.0, seed=404)
    hist = sample_ensemble(p, s, config, [], n_workers=4, phases=True)[1]
    frac = hist.locked_fraction()
    ok = frac >= 0.90
    report(9, ok, f"locked mass within 0.3 rad of 0 (mod pi): {frac:.3f} "
                  f"(discard {hist.discard_fraction:.3%})")
    assert ok


def test_criterion_10_mc_determinism(tmp_path):
    """Identical seed/config reruns give byte-identical CSV, any worker count."""
    args = ["mc", "--chi", "0.5", "--delta", "3", "--lam", "0.05",
            "--eps-ratio", "0.6", "--dt", "0.002", "--t-max", "5",
            "--burn-in", "2", "--n-traj", "600", "--seed", "77",
            "--chunk-size", "128", "--outdir", str(tmp_path)]
    files = []
    for name, workers in (("a.csv", "1"), ("b.csv", "2"), ("c.csv", "4"),
                          ("d.csv", "1")):
        assert main(args + ["--workers", workers, "--output", name]) == 0
        files.append((tmp_path / name).read_bytes())
    ok = all(f == files[0] for f in files[1:])
    report(10, ok, f"4 runs (workers 1/2/4/rerun), {len(files[0])} bytes each, "
                   f"identical: {ok}")
    assert ok
