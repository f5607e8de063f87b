#!/usr/bin/env python3
"""Cross-validate every closed-form phase integral against raw quadrature.

The closed forms and the trapezoid rule in log variables share nothing but
the physics: one is elementary algebra, the other integrates the bare
integrands (a deformed Lorentzian over the real line for l = 0, a
square-root band integrand in z = p_rho^2 for l >= 1), each evaluated as
one numpy array per phase integral.  Their agreement, a worst relative
deviation of about 2.3e-15 on the 128 tuples below, is the package's
central correctness check.
"""

import numpy as np

from snyder_coulomb import (
    PhysicalParams,
    phase_integral_1d_closed,
    phase_integral_numeric,
    radial_phase_integral_closed,
)

print("closed form vs trapezoid quadrature, m = e2 = 1")
print(f"{'beta':>6} {'l':>3} {'E':>10} {'phi_closed':>20} {'rel dev':>12}")

worst = 0.0
count = 0
fracs = np.linspace(0.06, 0.94, 8)
for beta in (0.0, 0.01, 0.05, 0.1):
    params = PhysicalParams(1, 1, beta)
    for l in (0, 1, 2, 3):
        cap = 1.0 if l == 0 else 0.5 / l**2
        for k, frac in enumerate(fracs):
            energy = float(frac * cap)
            closed = (
                phase_integral_1d_closed(params, energy).value
                if l == 0
                else radial_phase_integral_closed(params, energy, l).value
            )
            numeric = phase_integral_numeric(params, energy, l)
            dev = abs(numeric.value - closed) / abs(closed)
            worst = max(worst, dev)
            count += 1
            if k in (0, len(fracs) - 1):
                print(
                    f"{beta:>6.2f} {l:>3} {energy:>10.5f} {closed:>20.14f} "
                    f"{dev:>12.2e}"
                )

print()
print(f"checked {count} (E, l, beta) tuples; worst relative deviation {worst:.3e}")
