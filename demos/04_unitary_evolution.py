"""Lossless short-time evolution from vacuum at zero detuning.

When the mixer dominates (eps < chi) the two-mode variance oscillates with
period pi/sqrt(chi^2 - eps^2); when the parametric drive dominates
(eps > chi) it dips once and then grows.  Either way the best squeezing is
V_min = chi / (eps + chi), reached at the times printed below.
"""

import math

import numpy as np

from nopolock import unitary_minimum, unitary_variance

chi = 1.0
print("oscillatory regime (eps < chi):")
for ratio in (0.1, 0.4, 0.7):
    t_min, v_min = unitary_minimum(chi, ratio * chi)
    period = math.pi / math.sqrt(chi**2 - (ratio * chi)**2)
    print(f"  eps/chi = {ratio:3.1f}: chi*t_min = {chi * t_min:.4f} "
          f"(+ k * {period:.4f}), V_min = {v_min:.4f} "
          f"= chi/(eps+chi) = {chi / (ratio * chi + chi):.4f}")

print("\namplifying regime (eps > chi):")
for ratio in (1.1, 2.0, 3.0):
    t_min, v_min = unitary_minimum(chi, ratio * chi)
    print(f"  eps/chi = {ratio:3.1f}: chi*t_min = {chi * t_min:.4f}, "
          f"V_min = {v_min:.4f}")

print("\nV(t) along the eps/chi = 2 curve:")
ts = np.linspace(0.0, 1.0, 11)
for t in ts:
    print(f"  chi*t = {t:4.2f}: V = {unitary_variance(chi, 2 * chi, t):.4f}")
print("the variance drops below the vacuum level 1, reaches 1/3, then "
      "grows exponentially.")
