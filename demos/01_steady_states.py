"""Steady states of the locked oscillator: threshold, branches, stability.

The pump rate eps drives two subharmonics; above the threshold
eps_th = sqrt((chi - |delta|)^2 + gamma^2) a bright phase-locked solution
takes over from the empty cavity.  Two solution families exist; only the
one born at threshold is stable, and its two phases lock pi apart for
positive detuning (together, for negative detuning), with an equivalent
twin shifted by pi in both phases.
"""

import numpy as np

from nopolock import (SystemParams, critical_points, derive_scales, drift_field,
                      output_rates, replace_pump, steady_state)

params = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, lam=1.0)
scales = derive_scales(params)
print(f"threshold pump rate : eps_th = {scales.eps_th:.6f}")
crit = critical_points(params, scales)
print(f"critical points     : {crit.eps_cr_plus:.6f} (+), {crit.eps_cr_minus:.6f} (-)")

print("\npump sweep of the stable branch:")
print(f"{'eps/eps_th':>10} {'n0':>10} {'phi1':>9} {'phi2':>9} {'stable':>7}")
for ratio in (1.0, 1.2, 1.5, 2.0, 3.0):
    eps = ratio * scales.eps_th
    p, s = replace_pump(params, scales, eps)
    st = steady_state(p, s, eps)
    print(f"{ratio:>10.2f} {st.n10:>10.4f} {st.phi10:>9.4f} {st.phi20:>9.4f} "
          f"{str(st.stable):>7}")

eps = 2.0 * scales.eps_th
p, s = replace_pump(params, scales, eps)
st = steady_state(p, s, eps)
twin = st.twin()
print(f"\nat eps = 2 eps_th the locked phases come as a pi-shifted pair:")
print(f"  representative ({st.phi10:+.4f}, {st.phi20:+.4f}), "
      f"twin ({twin.phi10:+.4f}, {twin.phi20:+.4f})")
residual = np.abs(drift_field(twin.state_vector(), p, s)).max()
print(f"  drift residual of the twin: {residual:.2e}")

saddle = steady_state(p, s, eps, branch="-")
print(f"\nthe upper family at the same pump is a saddle: "
      f"n0 = {saddle.n10:.4f}, stable = {saddle.stable}")
print(f"  decay rates (real parts): "
      f"{np.round(np.real(saddle.eigenvalues), 4)}")

n3, n1, n2 = output_rates(p, s, st.n10)
print(f"\nphoton fluxes: pump in {n3:.3f}, subharmonics out {n1:.4f} / {n2:.4f}")
