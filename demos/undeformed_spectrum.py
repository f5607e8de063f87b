#!/usr/bin/env python3
"""Recover the undeformed Coulomb spectrum E = 1/(2 n'^2) semiclassically.

At beta = 0 the loop quantization condition is exact for the Coulomb
problem: solving Phi(E) = 2 pi n for every (n', l) must land on the
familiar levels, degenerate in l.  Both solver routes are shown: the
closed-form levels and a secant method in u = E^(-1/2) on a blind
trapezoid rule (in log variables) over the raw integrand.  At beta = 0 the
phase integral is exactly linear in u, so the root search ends after its
first step from E0.
"""

from snyder_coulomb import PhysicalParams, QuantumNumbers, energy_closed, energy_numeric

params = PhysicalParams(m=1, e2=1, beta=0)

print("undeformed spectrum, m = e2 = 1, beta = 0")
print(f"{'n_prime':>7} {'l':>3} {'exact':>12} {'closed-form':>22} {'quadrature':>22}")
for n_prime in range(1, 7):
    exact = 1.0 / (2.0 * n_prime**2)
    for l in range(n_prime):
        qn = QuantumNumbers(n=n_prime - l, l=l)
        e_closed = energy_closed(params, qn)
        e_numeric = energy_numeric(params, qn)
        print(
            f"{n_prime:>7} {l:>3} {exact:>12.8f} {e_closed:>22.16f} "
            f"{e_numeric:>22.16f}"
        )

print()
print("worst relative error across n' <= 10:")
worst_closed = worst_numeric = 0.0
for n_prime in range(1, 11):
    exact = 1.0 / (2.0 * n_prime**2)
    for l in range(n_prime):
        qn = QuantumNumbers(n=n_prime - l, l=l)
        worst_closed = max(worst_closed, abs(energy_closed(params, qn) / exact - 1.0))
        worst_numeric = max(worst_numeric, abs(energy_numeric(params, qn) / exact - 1.0))
print(f"  closed-form route: {worst_closed:.3e}")
print(f"  quadrature route:  {worst_numeric:.3e}")
