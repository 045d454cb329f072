"""Positive-P Monte Carlo: stochastic moments and phase locking.

The stochastic trajectories sample the full nonlinear model, so they
verify the linearized formulas independently (at weak nonlinearity, where
linearization is accurate) and remain valid where the closed forms are
not, e.g. near threshold.  Above threshold the phase difference locks to
its semiclassical value modulo pi.

Takes about half a minute.
"""

from nopolock import (SimConfig, SystemParams, derive_scales, ensemble_moments,
                      mean_photon_below, replace_pump, sample_ensemble)

params = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, lam=0.05)
scales = derive_scales(params)
eps = 0.6 * scales.eps_th
p, s = replace_pump(params, scales, eps)

config = SimConfig(dt=1e-3, t_max=20.0, n_traj=512, burn_in=8.0, seed=1)
print(f"below threshold at eps = 0.6 eps_th with {config.n_traj} trajectories:")
ests = ensemble_moments(p, s, config, ["n1", "a1a2", "b1a2", "a1"], n_workers=2)
analytic = {
    "a1*b1": mean_photon_below(params, scales, eps),
    "a1": 0.0,
}
for est in ests:
    target = analytic.get(est.label)
    note = f"   (formula: {target:.5f})" if target is not None else ""
    print(f"  <{est.label:7}> = {est.mean.real:+.5f}{est.mean.imag:+.5f}i "
          f"+- {est.std_error:.5f}{note}")
print(f"  discarded trajectories: {ests[0].discard_fraction:.2%}")

print("\nabove threshold the phases lock (weak nonlinearity, bright state):")
bright = SystemParams.symmetric(gamma=1.0, delta=3.0, chi=0.5, lam=0.01)
bscales = derive_scales(bright)
eps = 1.5 * bscales.eps_th
p, s = replace_pump(bright, bscales, eps)
config = SimConfig(dt=1e-3, t_max=18.0, n_traj=256, burn_in=10.0, seed=2)
hist = sample_ensemble(p, s, config, [], n_workers=2, phases=True)[1]
print(f"  phase-difference mass within 0.3 rad of 0 (mod pi): "
      f"{hist.locked_fraction():.1%}")
peak = hist.counts_diff.argmax()
lo, hi = hist.edges[peak], hist.edges[peak + 1]
print(f"  histogram peak bin: [{lo:+.3f}, {hi:+.3f}) rad "
      "(pi apart from 0 for positive detuning)")
