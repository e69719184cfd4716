#!/usr/bin/env python3
"""The Skorokhod dead zone, made visible.

The translation-form Skorokhod sample is

    M 1{b <= a} e^{rho T}  +  M 1{b - sigma T > a} exp((mu - sigma^2/2)T + sigma b)

and the two indicators are not complementary: for a < b <= a + sigma T the
sample is exactly zero.  An insider with *full information* holding a
portfolio that is worth exactly nothing on a positive-probability event is
the pathwise face of the model's financial paradox; in expectation it is
precisely why the Skorokhod insider never beats the honest trader.

This script measures the empirical mass of that zone against the Gaussian
prediction Phi((a + sigma T)/sqrt T) - Phi(a/sqrt T) and shows the sample
values around the zone's edges.

Run: python demos/skorokhod_dead_zone.py
"""

import math

import numpy as np

from insidermc import (
    Trader,
    estimate_mean,
    indicator_threshold,
    normal_cdf,
    validate_params,
)
from insidermc.samplers import skorokhod_unbiased_values

p = validate_params(1.0, 0.0, 0.5, 1.0, 1.0)
a = indicator_threshold(p)
sigma_t = p.sigma * p.T
n = 1_000_000

print("=" * 72)
print("  Skorokhod translation sampler: the dead zone")
print("=" * 72)
print(f"  params: M={p.M} rho={p.rho} mu={p.mu} sigma={p.sigma} T={p.T}")
print(f"  bet threshold a = {a}, dead zone = ({a}, {a + sigma_t}]")
print()

print("  sample values across the zone (b_T sweeping through):")
edges = np.array(
    [a - 0.5, a - 1e-9, a, a + 1e-9, a + 0.5, a + sigma_t, a + sigma_t + 1e-9, a + 1.5]
)
for b, value in zip(edges.tolist(), skorokhod_unbiased_values(p, edges).tolist()):
    side = "bond" if b <= a else ("DEAD" if b <= a + sigma_t else "stock")
    print(f"    b_T = {b:+.9f}   ->   S(T) = {value:<12.6g} [{side}]")

est = estimate_mean(Trader.SKOROKHOD_UNBIASED, p, n, seed=123)
q = normal_cdf((a + sigma_t) / math.sqrt(p.T)) - normal_cdf(a / math.sqrt(p.T))
se = math.sqrt(q * (1 - q) / n)
z = (est.zero_fraction - q) / se

print()
print(f"  empirical zero fraction over {n:,} draws : {est.zero_fraction:.6f}")
print(f"  Gaussian mass Phi((a+sT)/rtT)-Phi(a/rtT) : {q:.6f}")
print(f"  binomial z-score                          : {z:+.2f}  "
      f"({'OK' if abs(z) <= 3 else 'OUT OF BAND'})")
print()
print("  The zone carries ~34% of paths here, yet the estimator stays unbiased")
print("  for the Skorokhod expectation: the shifted stock indicator compensates")
print("  by overweighting large-b paths.  Financially the model asserts that a")
print("  fully informed trader ends up with nothing every third path - the")
print("  forward-integral model has no such zone.")
print("done.")
