#!/usr/bin/env python3
"""How the radial phase integral behaves as l -> 0.

The 1D problem integrates over the whole momentum line; the radial problem
integrates over a finite band in z = p_rho^2 whose upper edge runs away as
l -> 0.  Despite the different geometry, the exact closed forms connect
smoothly: the l -> 0 limit of the radial loop integral reproduces the 1D
loop integral identically, for every deformation.  At finite small l the
raw difference is dominated by the -pi*l band-offset term (at beta = 0 it
is exactly -2*pi*l), which the table below makes visible.

The spectra still split: solving Phi = 2 pi n at fixed integer l >= 1
gives corrections of order beta^2 with an l-dependent coefficient that
blows up as 1/l, so no l -> 0 limit of the l >= 1 spectrum reaches the
first-order-in-beta 1D spectrum.
"""

import math

from snyder_coulomb import (
    PhysicalParams,
    l_limit_study,
    phase_integral_1d_closed,
)

energy = 0.125
l_grid = [1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9]

for beta in (0.0, 0.01, 0.1):
    params = PhysicalParams(1, 1, beta)
    phi_1d = phase_integral_1d_closed(params, energy).value
    print(f"beta = {beta}, E = {energy}: phi_1D = {phi_1d:.15f}")
    print(f"{'l':>8} {'phi_radial':>20} {'gap':>14} {'gap + 2*pi*l':>14}")
    for row in l_limit_study(params, energy, l_grid):
        two_pi_l = 2.0 * math.pi * row.l
        print(
            f"{row.l:>8.0e} {row.phi_radial:>20.15f} {row.gap:>14.6e} "
            f"{row.gap + two_pi_l:>14.6e}"
        )
    print()

print("the gap column tracks -pi*l to -2*pi*l and vanishes with l at every")
print("beta: the two closed forms agree in the limit to machine precision.")
