#!/usr/bin/env python3
"""Tour of the closed-form expectations.

Walks the three trader models across the bull, bear and marginal regimes and
prints the expected terminal wealth in each interpretation of the insider's
anticipating wealth equation:

  honest     buy-and-hold, all-in on the better rate:  M e^{max(rho, mu) T}
  Skorokhod  Wick-product solution: the bet probability decouples from the
             stock growth, so information earns nothing
  forward    Russo-Vallois solution: classical Ito form, the bet-growth
             covariance survives and the insider genuinely wins

Run: python demos/closed_form_tour.py
"""

from insidermc import compare_closed_form, validate_params

CASES = [
    ("bull   (mu > rho)", (1.0, 0.00, 0.50, 1.00, 1.0)),
    ("bull   (gentle)", (1.0, 0.05, 0.10, 0.20, 1.0)),
    ("bear   (rho > mu)", (1.0, 0.10, 0.05, 0.20, 2.0)),
    ("bear   (high vol)", (3.0, 0.20, 0.05, 0.80, 1.5)),
    ("marginal (mu = rho)", (1.0, 0.07, 0.07, 0.20, 1.0)),
    ("marginal (wild)", (2.0, 0.04, 0.04, 0.50, 3.0)),
]

print("=" * 78)
print("  Expected terminal wealth: honest vs Skorokhod insider vs forward insider")
print("=" * 78)
print(f"  {'case':<22s} {'E[S^i]':>12s} {'E[S^sk]':>12s} {'E[S^rs]':>12s}"
      f" {'ordering':>18s}")
print("  " + "-" * 74)

for label, raw in CASES:
    r = compare_closed_form(validate_params(*raw))
    if r.regime.value == "marginal":
        ordering = "sk = i < rs" if r.ordering_pass else "VIOLATED"
    else:
        ordering = "sk < i < rs" if r.ordering_pass else "VIOLATED"
    print(f"  {label:<22s} {r.honest_optimal:>12.6f} {r.skorokhod:>12.6f}"
          f" {r.forward:>12.6f} {ordering:>18s}")

print()
print("  Reading the table:")
print("   - the forward insider always beats the honest trader (information pays),")
print("   - the Skorokhod insider always loses to the honest trader, and in the")
print("     marginal regime its full-information expectation exactly equals the")
print("     no-information one: the Wick factorization wipes out the advantage.")
print()

# The gap rs - i grows with volatility: more randomness, more exploitable
# information.  At mu = rho the ratio has the clean form 1 + erf(sigma sqrt T / (2 sqrt 2)).
print("  Information premium rs/i at mu = rho = 0.05, T = 1:")
for sigma in (0.1, 0.2, 0.4, 0.8, 1.6):
    r = compare_closed_form(validate_params(1.0, 0.05, 0.05, sigma, 1.0))
    print(f"    sigma = {sigma:<4} ->  rs/i = {r.forward / r.honest_optimal:.6f}")
print()
print("done.")
