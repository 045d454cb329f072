"""Linearized fluctuations: drift/diffusion matrices and correlators.

Below threshold the 4-vector of deviations obeys dx/dt = -F x + noise and
its stationary covariance is (1/2) F^-1 D, thanks to the operator identity
D F^T = F D.  Above threshold the number/phase deviations split into
independent sum and difference pairs; some of their covariance entries are
negative (they are normal-ordered moments) and several diverge at
threshold, even though all physical variances stay finite.
"""

import numpy as np

from nopolock import (SystemParams, above_matrices, below_matrices,
                      derive_scales, equal_time_corr_below, mean_photon_below,
                      temporal_corr_below)

params = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, lam=1.0)
scales = derive_scales(params)
eps = 0.74 * scales.eps_th  # = 2.0 in gamma units

mats = below_matrices(params, scales, eps)
print("drift matrix F (block [[A, B], [B*, A*]]):")
print(np.round(mats.F, 3))
print(f"\nidentity |D F^T - F D|_max = {np.abs(mats.D @ mats.F.T - mats.F @ mats.D).max():.1e}")

aa, ab = equal_time_corr_below(params, scales, eps)
print(f"\n<da1 db1> = {ab[0, 0]:.6f}   (mean photon number "
      f"{mean_photon_below(params, scales, eps):.6f})")
print(f"<da1 da2> = {aa[0, 1]:.6f}   (pair correlation driving the squeezing)")
print(f"<da1 db2> = {ab[0, 1]:.6f}   (polarization cross moment)")

print("\ntemporal decay of the pair correlation:")
for tau in (0.0, 0.5, 1.0, 2.0, 4.0):
    C = temporal_corr_below(params, scales, eps, tau)
    print(f"  tau = {tau:3.1f}: |<da1(t+tau) da2(t)>| = {abs(C[0, 1]):.5f}")

eps_up = 1.5 * scales.eps_th
up = above_matrices(params, scales, eps_up)
print(f"\nabove threshold at eps = 1.5 eps_th (n0 = {up.n0:.4f}):")
print(f"  <(dn+)^2>   = {up.C_plus[0, 0]:+.4f}")
print(f"  <(dn-)^2>   = {up.C_minus[0, 0]:+.4f}  (negative: anti-correlation "
      "beyond shot noise)")
print(f"  <(dphi+)^2> = {up.C_plus[1, 1]:+.6f}")
print(f"  <(dphi-)^2> = {up.C_minus[1, 1]:+.6f}")
