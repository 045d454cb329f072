"""Two-mode squeezing across the threshold: V, V+-, and the EPR product.

The sum criterion V < 1 certifies inseparability; it holds at every pump
for chi < |delta|, with the strongest squeezing V ~ 0.5 near threshold.
The product V+ V- stays above 1/4 (no strong EPR paradox) even though one
of the variances alone can be deeply squeezed.
"""

import numpy as np

from nopolock import SystemParams, derive_scales, variance_sweep

for chi, delta in ((0.1, 10.0), (0.5, 3.0), (0.5, 1.0)):
    params = SystemParams.symmetric(gamma=1.0, delta=delta, chi=chi, lam=1.0)
    scales = derive_scales(params)
    print(f"\nchi = {chi}, delta = {delta}  (eps_th = {scales.eps_th:.4f})")
    print(f"{'eps/eps_th':>10} {'V':>8} {'V+':>8} {'V-':>8} {'V+V-':>8}  flag")
    ratios = np.array([0.3, 0.7, 0.96, 1.0, 1.04, 1.5, 3.0, 10.0])
    sweep = variance_sweep(params, scales, ratios * scales.eps_th, delta_theta=0.0)
    for ratio, V, V_plus, V_minus, product, flag in zip(
            ratios, sweep.V, sweep.V_plus, sweep.V_minus, sweep.product, sweep.flag):
        print(f"{ratio:>10.2f} {V:>8.4f} {V_plus:>8.4f} "
              f"{V_minus:>8.4f} {product:>8.4f}  {flag}")
    asym = 0.75 + chi / (4 * abs(delta))
    print(f"{'inf':>10} {asym:>8.4f}  (asymptotic sum variance)")

print("\nnote: V stays below 1 (inseparable) at every pump when chi < |delta|,")
print("and the product stays above 1/4 even arbitrarily close to threshold.")
