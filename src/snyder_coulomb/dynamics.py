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
instead.  A structure-preserving scheme does exist: the canonical
realization x = X + beta^2 (X.P) P, p = P carries canonical pairs (X, P)
onto this bracket.  ``solve_ivp`` is imported from scipy on first use, so
no other part of the package loads scipy.
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
from .model import PhysicalParams

__all__ = [
    "OrbitState",
    "Trajectory",
    "PrecessionResult",
    "equations_of_motion",
    "invariants",
    "poisson_bracket",
    "hamiltonian_gradients",
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
    """Planar cartesian phase-space point (x1, x2, p1, p2) at time t."""

    x1: float
    x2: float
    p1: float
    p2: float
    t: float = 0.0

    def __post_init__(self):
        if not all(
            math.isfinite(v) for v in (self.x1, self.x2, self.p1, self.p2, self.t)
        ):
            raise ValueError("orbit state components must be finite")
        if self.x1 == 0.0 and self.x2 == 0.0:
            raise ValueError("collision state r = 0 rejected")

    @property
    def r(self) -> float:
        return math.hypot(self.x1, self.x2)


@dataclass(frozen=True)
class Trajectory:
    """Sampled orbit, its perihelia and worst-case relative drift of H and J.

    ``samples`` is a read-only ``np.recarray`` with one record per sample
    and the fields ``t, x1, x2, p1, p2``: ``samples[k].x1`` reads one
    sample and ``samples.x1`` the whole column.  ``perihelia`` holds the
    states at the located perihelia (x.p rising through 0), with the same
    fields, also read-only.
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
    sample.
    """
    r = np.hypot(state.x1, state.x2)
    h = (state.p1**2 + state.p2**2) / (2.0 * params.m) - params.e2 / r
    j = state.x1 * state.p2 - state.x2 * state.p1
    return h, j


def poisson_bracket(
    df_dx: np.ndarray,
    df_dp: np.ndarray,
    dg_dx: np.ndarray,
    dg_dp: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
) -> float:
    """Deformed bracket {f, g} from the gradients of f and g at (x, p).

    Evaluates
    beta^2 sum_ij J_ij (df/dx_i)(dg/dx_j)
    + sum_ij (delta_ij + beta^2 p_i p_j)
             ((df/dx_i)(dg/dp_j) - (dg/dx_i)(df/dp_j)).
    """
    b2 = beta * beta
    a, b = np.asarray(df_dx, float), np.asarray(dg_dx, float)
    ap, bp = np.asarray(df_dp, float), np.asarray(dg_dp, float)
    xx_term = b2 * (np.dot(a, x) * np.dot(b, p) - np.dot(b, x) * np.dot(a, p))
    xp_term = (
        np.dot(a, bp)
        - np.dot(b, ap)
        + b2 * (np.dot(p, a) * np.dot(p, bp) - np.dot(p, b) * np.dot(p, ap))
    )
    return float(xx_term + xp_term)


def hamiltonian_gradients(
    state: OrbitState, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """(dH/dx, dH/dp) of the Coulomb Hamiltonian at ``state``."""
    r3 = state.r**3
    dh_dx = np.array([params.e2 * state.x1 / r3, params.e2 * state.x2 / r3])
    dh_dp = np.array([state.p1 / params.m, state.p2 / params.m])
    return dh_dx, dh_dp


def integrate_orbit(
    state0: OrbitState,
    params: PhysicalParams,
    t_end: float,
    local_tol: float = 1e-10,
    n_samples: int | None = None,
) -> Trajectory:
    """Integrate the deformed flow from ``state0`` for ``t_end`` time units.

    Adaptive DOP853 with rtol = atol = ``local_tol``.  The trajectory is
    sampled on a uniform grid (default about 60 samples per unit time), on
    which the H and J drift and the circular-orbit check are read; the
    perihelia are root-found on the solver's dense output, independent of
    that grid, a perihelion at the start included.

    Raises ValueError unless 0 < ``t_end`` < inf and 0 < ``local_tol`` <
    inf, or if the flow is not finite at ``state0`` (momenta so large that
    p^2 overflows), CollisionSingularity if the orbit reaches
    r = 1e-8 and StepUnderflow if the controller's step collapses before
    ``t_end``.
    """
    # solve_ivp does not return for an infinite span or tolerance
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
    if not 0 < local_tol < math.inf:
        raise ValueError(f"local_tol must be finite and > 0, got {local_tol!r}")
    if n_samples is None:
        n_samples = int(min(400_000, max(2000, 60.0 * t_end)))
    elif n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")

    y0 = (state0.x1, state0.x2, state0.p1, state0.p2)
    # solve_ivp does not return when the flow at the start is not finite
    if not all(math.isfinite(v) for v in equations_of_motion(y0, params)):
        raise ValueError(f"the flow is not finite at the initial state {state0!r}")

    def collision(t: float, y: np.ndarray) -> float:
        return y[0] * y[0] + y[1] * y[1] - _COLLISION_FLOOR * _COLLISION_FLOOR

    collision.terminal = True
    collision.direction = -1.0

    # d(r^2)/dt = 2 (x.p)(1 + beta^2 p^2)/m: x.p rises through 0 at each minimum of r
    def perihelion(t: float, y: np.ndarray) -> float:
        return y[0] * y[2] + y[1] * y[3]

    perihelion.direction = 1.0

    sol = _module.solve_ivp(
        # Python floats give the IEEE results of np.float64 at less cost
        lambda t, y: equations_of_motion(y.tolist(), params),
        (0.0, t_end),
        np.array(y0, dtype=float),
        method="DOP853",
        t_eval=np.linspace(0.0, t_end, n_samples),
        rtol=local_tol,
        atol=local_tol,
        events=(collision, perihelion),
    )
    if sol.status == 1:
        t_hit = float(sol.t_events[0][0]) if len(sol.t_events[0]) else float(sol.t[-1])
        t_last = float(sol.t[-1]) if len(sol.t) else 0.0
        raise CollisionSingularity(
            f"orbit reached the collision floor r = {_COLLISION_FLOOR!r} at t = {t_hit!r}",
            t_last=t_last,
        )
    if sol.status != 0:  # -1: the step size collapsed
        raise StepUnderflow(sol.message)

    if not np.isfinite(sol.y).all():
        raise ValueError("orbit state components must be finite")
    samples = _records(state0.t + sol.t, sol.y)
    perihelia = _records(state0.t + sol.t_events[1], sol.y_events[1].reshape(-1, 4).T)

    h, j = invariants(samples, params)
    h_drift = float(np.max(np.abs(h - h[0])) / max(abs(h[0]), 1e-300))
    j_drift = float(np.max(np.abs(j - j[0])) / max(abs(j[0]), 1e-300))
    return Trajectory(samples=samples, perihelia=perihelia, h_drift=h_drift, j_drift=j_drift)


def _records(t: np.ndarray, y: np.ndarray) -> np.recarray:
    """Read-only records ``t, x1, x2, p1, p2`` from times and 4-row states."""
    records = np.rec.fromarrays([t, *y], names="t,x1,x2,p1,p2")
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
