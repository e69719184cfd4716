#!/usr/bin/env python3
"""Weak convergence of the forward-Euler scheme to the forward closed form.

The forward (Russo-Vallois) wealth equation keeps classical Ito calculus, so
its anticipating initial condition 1{B_T > a} can simply be plugged into an
explicit Euler iteration

    S1(0) = M 1{B_T > a},     S1 <- S1 (1 + mu dt + sigma dB_k),

with B_T computed from the very increments the scheme consumes.  The scheme's
mean then converges to the closed form at weak order one, which this script
demonstrates by halving the bias roughly 4x per 16x step refinement.  The
clamp count (paths pinned at zero after a coarse-grid negative factor) is a
discretization artifact that dies out as dt -> 0.

Run: python demos/euler_convergence.py            (~15 s: 3 x 10^6 paths)
     python demos/euler_convergence.py --quick    (2 x 10^5 paths)
"""

import sys
import time

from insidermc import Trader, expected_wealth, run_convergence, validate_params

quick = "--quick" in sys.argv[1:]
n = 200_000 if quick else 1_000_000

p = validate_params(1.0, 0.0, 0.5, 1.0, 1.0)
reference = expected_wealth(Trader.FORWARD_INSIDER, p)

print("=" * 72)
print(f"  Euler weak convergence, {n:,} paths per level")
print("=" * 72)
print(f"  closed form E[S^rs(T)] = {reference:.10f}")
print()
print(f"  {'n_steps':>8s} {'mc mean':>14s} {'stderr':>10s} {'|bias|':>12s}"
      f" {'clamped paths':>14s} {'seconds':>8s}")

rows = []
for n_steps in (16, 64, 256):
    t0 = time.perf_counter()
    (row,) = run_convergence(p, [n_steps], n, seed=42)
    elapsed = time.perf_counter() - t0
    rows.append(row)
    print(f"  {row.n_steps:>8d} {row.mc_mean:>14.8f} {row.mc_se:>10.2e}"
          f" {row.abs_bias:>12.4e} {row.clamp_count:>14d} {elapsed:>8.1f}")

ratio = rows[0].abs_bias / rows[-1].abs_bias if rows[-1].abs_bias else float("inf")
print()
print(f"  bias ratio 16 -> 256 steps: {ratio:.1f}  "
      f"(weak order one predicts ~16, noise-floored at fine steps)")
print(f"  clamp counts: {[r.clamp_count for r in rows]}  (vanishing with dt)")
print("done.")
