"""Classical planar orbits under the Snyder bracket structure.

The fundamental brackets are

    {x_i, p_j} = delta_ij + beta^2 p_i p_j,
    {x_i, x_j} = beta^2 (x_i p_j - x_j p_i),
    {p_i, p_j} = 0,

with the usual Coulomb Hamiltonian H = p^2/2m - e2/r.  The flow they
generate is

    dx_i/dt = p_i (1 + beta^2 p^2)/m + beta^2 e2 (x_i (p.x) - r^2 p_i)/r^3,
    dp_i/dt = -e2 (x_i + beta^2 p_i (p.x))/r^3,

reducing exactly to Kepler at beta = 0.  Both H and the angular momentum
J = x1 p2 - x2 p1 are conserved by the deformed flow (rotational
invariance), so conservation drift is a pure integrator diagnostic.
Motion stays in the plane; the orbit is no longer a closed ellipse for
beta > 0 and the perihelion advance per radial period measures the
deformation (it grows as beta^2).  Since x.dx/dt = (x.p)(1 + beta^2 p^2)/m
exactly, r has a minimum where x.p rises through zero, and the
integrator locates the perihelia there as events.

Integration uses an adaptive embedded explicit Runge-Kutta pair (DOP853
via scipy), which does not preserve the bracket, so drift is monitored
instead, at the integrator's own accepted steps; only the event location
(perihelia, collision, end) evaluates the dense output.  The steps are
taken in the Sundman time s, dt/ds = r (Hairer, Lubich & Wanner,
Geometric Numerical Integration, ch. VIII), with the clock t as a fifth
state component: the steps are short in t near perihelion and long near
aphelion, so a tolerance costs about a third fewer steps than stepping in
t.  Since r > 0, every event keeps its sign under the transform.  A
structure-preserving scheme does exist: the canonical realization
x = X + beta^2 (X.P) P, p = P carries canonical pairs (X, P) onto this
bracket.  ``solve_ivp`` is imported from scipy on first use, so no other
part of the package loads scipy.  Inputs pass ``model.finite_float``.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CollisionSingularity,
    InsufficientPeriods,
    StepUnderflow,
)
from .model import PhysicalParams, finite_float

__all__ = [
    "OrbitState",
    "Trajectory",
    "PrecessionResult",
    "equations_of_motion",
    "invariants",
    "integrate_orbit",
    "precession_per_orbit",
]

_COLLISION_FLOOR = 1e-8

_module = sys.modules[__name__]


def __getattr__(name: str):
    """Import ``solve_ivp`` from scipy on first access (PEP 562)."""
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module("scipy.integrate").solve_ivp
    globals()[name] = value
    return value


@dataclass(frozen=True)
class OrbitState:
    """Planar cartesian phase-space point (x1, x2, p1, p2), stored as floats."""

    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        for name, value in (("x1", self.x1), ("x2", self.x2), ("p1", self.p1), ("p2", self.p2)):
            if finite_float(name, value) is not value:  # a float comes back as itself
                object.__setattr__(self, name, float(value))
        if self.x1 == 0.0 and self.x2 == 0.0:
            raise ValueError("collision state r = 0 rejected")

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)


@dataclass(frozen=True)
class Trajectory:
    """Integrated orbit, its perihelia and worst-case relative drift of H and J.

    ``samples`` is a read-only ``np.recarray`` with one record per accepted
    integrator step, t = 0 and the end event (within 4 ulp of t_end)
    included, and the fields
    ``t, x1, x2, p1, p2``: ``samples[k].x1`` reads one sample and
    ``samples.x1`` the whole column.  ``h_drift`` and ``j_drift`` are the
    largest relative deviations from the start over those samples.
    ``perihelia`` holds the states at the located perihelia (x.p rising
    through 0), with the same fields, also read-only.
    """

    samples: np.recarray
    perihelia: np.recarray
    h_drift: float
    j_drift: float


@dataclass(frozen=True)
class PrecessionResult:
    """Mean perihelion advance per radial period, minus 2 pi.

    ``circular`` flags orbits with no measurable radial oscillation, for
    which the advance is 0 by convention.
    """

    angle_per_orbit: float
    n_orbits: int
    circular: bool = False


def equations_of_motion(
    y: Sequence[float], params: PhysicalParams
) -> tuple[float, float, float, float]:
    """Time derivatives (dx1, dx2, dp1, dp2) of the deformed flow.

    ``y`` is the phase-space point (x1, x2, p1, p2), any sequence of four
    numbers.
    """
    x1, x2, p1, p2 = y
    r2 = x1 * x1 + x2 * x2
    r3 = r2 * math.sqrt(r2)
    p_sq = p1 * p1 + p2 * p2
    p_dot_x = p1 * x1 + p2 * x2
    e2 = params.e2
    b2 = params.beta * params.beta
    kin = (1.0 + b2 * p_sq) / params.m
    dx1 = p1 * kin + b2 * e2 * (x1 * p_dot_x - r2 * p1) / r3
    dx2 = p2 * kin + b2 * e2 * (x2 * p_dot_x - r2 * p2) / r3
    dp1 = -e2 * (x1 + b2 * p1 * p_dot_x) / r3
    dp2 = -e2 * (x2 + b2 * p2 * p_dot_x) / r3
    return dx1, dx2, dp1, dp2


def invariants(
    state: OrbitState | np.recarray, params: PhysicalParams
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Conserved pair (H, J) at ``state``.

    ``state`` is an OrbitState, or ``Trajectory.samples`` (anything with
    the attributes x1, x2, p1, p2), for which H and J hold one entry per
    sample.  Squares are products, as float ``**2`` and numpy's may differ.
    """
    r = np.hypot(state.x1, state.x2)
    h = (state.p1 * state.p1 + state.p2 * state.p2) / (2.0 * params.m) - params.e2 / r
    j = state.x1 * state.p2 - state.x2 * state.p1
    return h, j


def integrate_orbit(
    state0: OrbitState,
    params: PhysicalParams,
    t_end: float,
    local_tol: float = 1e-10,
) -> Trajectory:
    """Integrate the deformed flow from ``state0`` at t = 0 to t = ``t_end``.

    Adaptive DOP853 with rtol = atol = ``local_tol`` on (x1, x2, p1, p2, t)
    in the Sundman time s, dt/ds = r: the right-hand side is r times the
    flow, and a terminal event ends the run where the clock t reaches
    ``t_end``.  The samples are the solver's accepted steps, each with its
    own clock value, from t = 0 to the located end event; that event is
    root-found in s, so its clock lies within 4 ulp of ``t_end`` rather
    than on it.  The H and J drift and the circular-orbit check read those
    states; the perihelia are root-found on the dense output of the steps
    where x.p changes sign, a perihelion at the start included.

    The s span (0, t_end / 1e-8) suffices: until the collision event fires,
    r > 1e-8 and so t > 1e-8 s.  Only the clock's rounding on an orbit that
    hugs the floor could leave it short of ``t_end`` at the end of the span.

    Raises CollisionSingularity if the orbit starts inside or reaches
    r = 1e-8, ValueError if the flow is not finite at ``state0`` (momenta
    so large that p^2 overflows) or unless ``t_end`` and ``local_tol`` are
    finite numbers > 0, checked in that order, and StepUnderflow if the
    controller's step collapses, or the s span runs out, before ``t_end``.
    """
    def collision(s: float, y: np.ndarray) -> float:
        return y[0] * y[0] + y[1] * y[1] - _COLLISION_FLOOR * _COLLISION_FLOOR

    collision.terminal = True
    collision.direction = -1.0

    y0 = (state0.x1, state0.x2, state0.p1, state0.p2, 0.0)
    if collision(0.0, y0) <= 0.0:  # no crossing to detect, and r^2 may underflow to 0
        raise CollisionSingularity(f"orbit starts at r = {state0.r!r}, inside the collision "
                                   f"floor r = {_COLLISION_FLOOR!r}", t_last=0.0)
    # solve_ivp does not return when the flow at the start is not finite
    if not all(math.isfinite(v) for v in equations_of_motion(y0[:4], params)):
        raise ValueError(f"the flow is not finite at the initial state {state0!r}")
    # solve_ivp does not return for an infinite span or tolerance
    for name, value in (("t_end", t_end), ("local_tol", local_tol)):
        if not finite_float(name, value, "finite and > 0") > 0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    # d(r^2)/dt = 2 (x.p)(1 + beta^2 p^2)/m: x.p rises through 0 at each minimum of r
    def perihelion(s: float, y: np.ndarray) -> float:
        return y[0] * y[2] + y[1] * y[3]

    perihelion.direction = 1.0

    def end(s: float, y: np.ndarray) -> float:
        return y[4] - t_end

    end.terminal = True
    end.direction = 1.0

    def sundman(s: float, y: np.ndarray) -> tuple[float, ...]:
        # Python floats give the IEEE results of np.float64 at less cost
        x1, x2, p1, p2, _ = y.tolist()
        r = math.hypot(x1, x2)
        dx1, dx2, dp1, dp2 = equations_of_motion((x1, x2, p1, p2), params)
        return r * dx1, r * dx2, r * dp1, r * dp2, r

    sol = _module.solve_ivp(
        sundman,
        (0.0, t_end / _COLLISION_FLOOR),
        np.array(y0, dtype=float),
        method="DOP853",
        rtol=local_tol,
        atol=local_tol,
        events=(collision, perihelion, end),
    )
    if sol.status == -1:  # the step size collapsed
        raise StepUnderflow(sol.message)
    if sol.t_events[0].size:  # the last step ends on the collision floor
        t_hit = float(sol.y[4, -1])
        raise CollisionSingularity(
            f"orbit reached the collision floor r = {_COLLISION_FLOOR!r} at t = {t_hit!r}",
            t_last=t_hit,
        )
    if not sol.t_events[2].size:  # status 0: the s span ran out (see the docstring)
        raise StepUnderflow(f"the clock reached only t = {float(sol.y[4, -1])!r} of "
                            f"t_end = {t_end!r} by the end of the s span")

    if not np.isfinite(sol.y).all():
        raise ValueError("orbit state components must be finite")
    samples = _records(sol.y)
    perihelia = _records(sol.y_events[1].reshape(-1, 5).T)

    h, j = invariants(samples, params)
    h_drift = float(np.max(np.abs(h - h[0])) / max(abs(h[0]), 1e-300))
    j_drift = float(np.max(np.abs(j - j[0])) / max(abs(j[0]), 1e-300))
    return Trajectory(samples=samples, perihelia=perihelia, h_drift=h_drift, j_drift=j_drift)


def _records(y: np.ndarray) -> np.recarray:
    """Read-only records ``t, x1, x2, p1, p2`` from 5-row states (x1, x2, p1, p2, t)."""
    records = np.rec.fromarrays([y[4], *y[:4]], names="t,x1,x2,p1,p2")
    records.flags.writeable = False
    return records


def precession_per_orbit(traj: Trajectory) -> PrecessionResult:
    """Mean azimuthal advance between successive perihelia, minus 2 pi.

    Reads ``traj.perihelia``.  The advance per radial period lies in
    (pi, 2 pi], so the azimuth unwrapped over the perihelia alone steps by
    the advance minus 2 pi, taken in the sense of J: a mirrored
    (retrograde) orbit gives the same value.  Requires at least three
    perihelia (about three radial periods), else raises
    InsufficientPeriods.  If the samples show no radial oscillation, x.p is
    roundoff noise: the orbit is flagged circular and reports 0.
    """
    s = traj.samples
    r = np.hypot(s.x1, s.x2)
    if float(r.max() - r.min()) < 1e-8 * float(r.mean()):
        return PrecessionResult(angle_per_orbit=0.0, n_orbits=0, circular=True)

    peri = traj.perihelia
    if peri.size < 3:
        raise InsufficientPeriods(f"found {peri.size} perihelia; need >= 3 (about 3 periods)")
    phi = np.unwrap(np.arctan2(peri.x2, peri.x1))
    n_orbits = peri.size - 1
    sign_j = math.copysign(1.0, s.x1[0] * s.p2[0] - s.x2[0] * s.p1[0])
    return PrecessionResult(
        angle_per_orbit=sign_j * float(phi[-1] - phi[0]) / n_orbits, n_orbits=n_orbits
    )
