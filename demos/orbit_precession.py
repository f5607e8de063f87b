#!/usr/bin/env python3
"""Classical signature of the deformation: perihelion precession.

The deformed brackets change the flow at order beta^2 while still
conserving H and J exactly, so a Kepler ellipse stops closing: its
perihelion advances by a fixed angle per radial period.  The integrator
steps in the Sundman time s, dt/ds = r, so its steps are short near
perihelion, where the orbit turns fastest, and long near aphelion.  It
locates each perihelion as an event (x.p rising through zero) on its
dense output, so at beta = 0 the measured advance collapses to the
integrator's own error (about 1e-12 rad here), and the advance grows as
beta^2 across a deformation sweep.  The drift printed is the largest
relative deviation of H and J from the start over the integrator's
accepted steps.
"""

import math

from snyder_coulomb import (
    OrbitState,
    PhysicalParams,
    integrate_orbit,
    invariants,
    precession_per_orbit,
)

state0 = OrbitState(2.0, 0.0, 0.0, 0.5)
period = 2.0 * math.pi * (4.0 / 3.0) ** 1.5  # undeformed radial period

h0, j0 = invariants(state0, PhysicalParams(1, 1, 0))
print(f"eccentric initial state: H = {h0}, J = {j0}, eccentricity 0.5")
print()

print("conservation and closure at beta = 0 (30 radial periods):")
traj = integrate_orbit(state0, PhysicalParams(1, 1, 0), 30 * period, local_tol=1e-12)
result = precession_per_orbit(traj)
print(f"  max relative drift: H {traj.h_drift:.2e}, J {traj.j_drift:.2e}")
print(f"  perihelion advance per orbit: {result.angle_per_orbit:+.2e} rad")
print()

print("deformation sweep (16 radial periods each):")
print(f"{'beta':>6} {'h_drift':>10} {'precession/orbit':>18} {'per beta^2':>12}")
rows = []
for beta in (0.02, 0.04, 0.08):
    params = PhysicalParams(1, 1, beta)
    traj = integrate_orbit(state0, params, 16 * period, local_tol=1e-12)
    result = precession_per_orbit(traj)
    rows.append((beta, abs(result.angle_per_orbit)))
    print(
        f"{beta:>6.2f} {traj.h_drift:>10.2e} {result.angle_per_orbit:>+18.8f} "
        f"{result.angle_per_orbit / beta**2:>12.5f}"
    )

slope = (math.log(rows[-1][1]) - math.log(rows[0][1])) / (
    math.log(rows[-1][0]) - math.log(rows[0][0])
)
print()
print(f"log-log slope of |precession| vs beta: {slope:.4f} (quadratic onset)")
