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

Integration uses the Dormand-Prince 8(5,3) pair (DOP853; Hairer, Norsett
& Wanner, Solving ODEs I, sec. II.10), run by this module's own step loop
on Python floats with the tableau and step control of scipy's ``DOP853``;
no scipy is imported.  It does not preserve the bracket, so drift is
monitored instead, at the accepted steps; only a step on which an event
function (perihelion, collision, end) changes sign builds the dense output
and root-finds the event on it, by a port of scipy's ``brentq``.  The
steps are taken in the Sundman time s, dt/ds = r (Hairer, Lubich & Wanner,
Geometric Numerical Integration, ch. VIII), with the clock t as a fifth,
quadrature component: it is stepped and weighted in the error norm, but
the stages run on the four phase-space components alone, as scalars.  The
steps are short in t near perihelion and long near aphelion, so a
tolerance costs about a third fewer steps than stepping in t.  Since
r > 0, every event keeps its sign under the transform.  A
structure-preserving scheme does exist: the canonical realization
x = X + beta^2 (X.P) P, p = P carries canonical pairs (X, P) onto this
bracket.  Inputs pass ``model.finite_float``.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

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
_EPS = sys.float_info.epsilon
_MAX_STEPS = 10**6


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
    return _flow(params)(x1, x2, p1, p2)


def _flow(params: PhysicalParams) -> Callable[[float, float, float, float], tuple[float, ...]]:
    """The deformed flow at ``params``: (x1, x2, p1, p2) -> (dx1, dx2, dp1, dp2).

    The one formula of the flow: :func:`equations_of_motion` and the
    integrator's Sundman field both call the function it returns.
    """
    m, neg_e2 = params.m, -params.e2
    b2 = params.beta * params.beta
    b2_e2 = b2 * params.e2

    def flow(x1: float, x2: float, p1: float, p2: float) -> tuple[float, float, float, float]:
        r2 = x1 * x1 + x2 * x2
        r3 = r2 * math.sqrt(r2)
        p_sq = p1 * p1 + p2 * p2
        p_dot_x = p1 * x1 + p2 * x2
        kin = (1.0 + b2 * p_sq) / m
        dx1 = p1 * kin + b2_e2 * (x1 * p_dot_x - r2 * p1) / r3
        dx2 = p2 * kin + b2_e2 * (x2 * p_dot_x - r2 * p2) / r3
        dp1 = neg_e2 * (x1 + b2 * p1 * p_dot_x) / r3
        dp2 = neg_e2 * (x2 + b2 * p2 * p_dot_x) / r3
        return dx1, dx2, dp1, dp2

    return flow


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

    Adaptive DOP853 (:func:`_dop853`) with rtol = atol = ``local_tol`` on
    (x1, x2, p1, p2, t) in the Sundman time s, dt/ds = r: the right-hand
    side is r times the flow, and a terminal event ends the run where the
    clock t reaches ``t_end``.  The samples are the accepted steps, each
    with its own clock value, from t = 0 to the located end event; that
    event is root-found in s, so its clock lies within 4 ulp of ``t_end``
    rather than on it.  The H and J drift and the circular-orbit check read
    those states; the perihelia are root-found on the dense output of the
    steps where x.p rises through 0, a perihelion at the start included.
    A perihelion located after the end event in the same step is dropped.

    The collision event, like every event, is seen only at step ends, so a
    step can carry r below the floor and out again.  r is least at a
    perihelion, so a kept perihelion at r <= 1e-8 counts as reaching the
    floor: ``t_last`` is then the clock of the last accepted state outside
    the floor at or before that perihelion.

    Raises CollisionSingularity if the orbit starts inside or reaches
    r = 1e-8, ValueError if the flow is not finite at ``state0`` (momenta
    so large that p^2 overflows) or unless ``t_end`` and ``local_tol`` are
    finite numbers > 0, checked in that order, and StepUnderflow if the
    controller's step collapses, the state overflows (the message names
    the clock of the last finite state) or the run takes more than 10**6
    steps, before ``t_end``.
    """
    floor_sq = _COLLISION_FLOOR * _COLLISION_FLOOR

    def collision(y: list[float]) -> float:  # rises through 0 where r falls through the floor
        return floor_sq - (y[0] * y[0] + y[1] * y[1])

    y0 = (state0.x1, state0.x2, state0.p1, state0.p2, 0.0)
    if collision(y0) >= 0.0:  # no crossing to detect, and r^2 may underflow to 0
        raise CollisionSingularity(f"orbit starts at r = {state0.r!r}, inside the collision "
                                   f"floor r = {_COLLISION_FLOOR!r}", t_last=0.0)
    flow = _flow(params)
    # the loop would not return: a NaN first step never falls below the smallest step
    if not all(math.isfinite(v) for v in flow(*y0[:4])):
        raise ValueError(f"the flow is not finite at the initial state {state0!r}")
    t_end = finite_float("t_end", t_end, "finite and > 0")  # a numpy float comes back a float
    local_tol = finite_float("local_tol", local_tol, "finite and > 0")
    for name, value in (("t_end", t_end), ("local_tol", local_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    # d(r^2)/dt = 2 (x.p)(1 + beta^2 p^2)/m: x.p rises through 0 at each minimum of r
    def perihelion(y: list[float]) -> float:
        return y[0] * y[2] + y[1] * y[3]

    def end(y: list[float]) -> float:
        return y[4] - t_end

    def sundman(x1: float, x2: float, p1: float, p2: float) -> tuple[float, ...]:
        r = math.hypot(x1, x2)
        dx1, dx2, dp1, dp2 = flow(x1, x2, p1, p2)
        return r * dx1, r * dx2, r * dp1, r * dp2, r

    states, found, stop = _dop853(sundman, y0, local_tol,
                                  ((collision, True), (perihelion, False), (end, True)))
    dips = [y for y in found[1] if collision(y) >= 0.0]
    if dips:  # a step passed over the floor: r is least at a perihelion
        t_peri = dips[0][4]
        t_last = max(y[4] for y in states if y[4] <= t_peri and collision(y) < 0.0)
        raise CollisionSingularity(
            f"orbit passed inside the collision floor r = {_COLLISION_FLOOR!r} at its "
            f"perihelion at t = {t_peri!r}", t_last=t_last,
        )
    if stop == 0:  # the last state is on the collision floor
        t_hit = states[-1][4]
        raise CollisionSingularity(
            f"orbit reached the collision floor r = {_COLLISION_FLOOR!r} at t = {t_hit!r}",
            t_last=t_hit,
        )
    if stop is None:  # the step bound ran out
        raise StepUnderflow(f"the clock reached only t = {states[-1][4]!r} of "
                            f"t_end = {t_end!r} within {_MAX_STEPS} steps")

    y = np.array(states).T
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():  # the state at y0, which is finite, is the first
        t_last = states[int(np.argmin(finite)) - 1][4]
        raise StepUnderflow(f"the orbit stopped short of t_end = {t_end!r}: its state "
                            f"overflowed after t = {t_last!r}")
    samples = _records(y)
    perihelia = _records(np.array(found[1]).reshape(-1, 5).T)

    h, j = invariants(samples, params)
    h_drift = float(np.max(np.abs(h - h[0])) / max(abs(h[0]), 1e-300))
    j_drift = float(np.max(np.abs(j - j[0])) / max(abs(j[0]), 1e-300))
    return Trajectory(samples=samples, perihelia=perihelia, h_drift=h_drift, j_drift=j_drift)


# The DOP853 coefficients of Hairer, Norsett & Wanner (Solving ODEs I, sec. II.10), as in
# scipy's dop853_coefficients: each stage row is cut to the stages it combines.  The flow
# is autonomous, so the nodes C are not needed.
_TABLEAU = (
    (  # A rows of stages 1-11
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
         20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
         -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
         27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
         0.6433927460157636),
    ),
    # B
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    # E5
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294, 0.0),
    # E3
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082, 0.0),
    (  # D
        (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
         2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
         0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
         -4.436036387594894),
        (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
         -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
         -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
         35.81684148639408),
        (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
         527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
         0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
         11.99229113618279),
        (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
         357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
         29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
         -149.72683625798564),
    ),
    (  # A rows of the dense-output stages 12-14
        (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
         -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
         -0.008298),
        (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325),
        (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987),
    ),
)

# One name per nonzero entry of A (row j, column i: _Aj_i), B, E5 and E3, for _stages and
# _errors; each zero entry goes to _ and is left out there, where it would add 0.
(
    (
        (_A1_0,),
        (_A2_0, _A2_1),
        (_A3_0, _, _A3_2),
        (_A4_0, _, _A4_2, _A4_3),
        (_A5_0, _, _, _A5_3, _A5_4),
        (_A6_0, _, _, _A6_3, _A6_4, _A6_5),
        (_A7_0, _, _, _A7_3, _A7_4, _A7_5, _A7_6),
        (_A8_0, _, _, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7),
        (_A9_0, _, _, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8),
        (_A10_0, _, _, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9),
        (_A11_0, _, _, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10),
    ),
    (_B0, _, _, _, _, _B5, _B6, _B7, _B8, _B9, _B10, _B11),
    (_E5_0, _, _, _, _, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _),
    (_E3_0, _, _, _, _, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _),
) = _TABLEAU[:4]
del _


def _dop853(
    rhs: Callable[[float, float, float, float], tuple[float, ...]],
    y0: Sequence[float],
    tol: float,
    events: Sequence[tuple[Callable[[list[float]], float], bool]],
) -> tuple[list[list[float]], list[list[list[float]]], int | None]:
    """Integrate dy/ds = ``rhs(y[0], y[1], y[2], y[3])`` from s = 0 to a terminal event.

    ``y`` has five components: the four of phase space, which ``rhs``
    takes, and a quadrature component (the clock t), which it does not
    read.  ``rhs`` returns all five derivatives; the quadrature component
    is stepped, weighted in the error norm and read by the events, but no
    stage takes it.

    The Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving ODEs
    I, sec. II.10) on Python floats, with the tableau ``_TABLEAU`` and
    scipy's ``DOP853`` step control as ``solve_ivp`` runs it at rtol = atol =
    ``tol`` (an rtol below 100 eps is raised to it, with a warning): the
    same first step, error norm (E5 weighted by E3), safety factor 0.9,
    step factors 0.2 to 10 with exponent -1/8 and no growth right after a
    rejection.  Squares are products, so an error norm that overflows reads
    inf and rejects the step; a zero E5 sum is a zero norm (scipy's numpy
    norm reads NaN where 0.01 times the E3 sum underflows too, and rejects
    the step).  :func:`_stages` and :func:`_errors` are the tableau unrolled
    on scalars: one expression per stage and component, summing one named
    coefficient times a stage per nonzero entry, left to right.  That gives
    the floats of a left fold over the full rows from 0.0 bit for bit, as a
    0.0 entry times a finite stage adds exactly 0 (up to the sign of a zero
    sum); no combination calls ``sum``, whose float rounding is
    compensated from Python 3.12 on, so the bits do not depend on the
    Python version.

    ``events`` are (g, terminal) pairs; g(y) has an event where it rises
    through 0, on a step with g_old <= 0 <= g_new.  Only such a step builds
    the dense output (three more stages), on which ``_brent`` finds each
    root with xtol = rtol = 4 eps in s; where g reads one sign at both ends
    of it (it can miss y_new in the last bit), the root is the step end.
    The roots are taken in order; the first terminal one ends the run, its
    state replaces the step's end, and later roots of that step are dropped.

    Returns the accepted states (y0 first), the states at each event's
    roots, and the index of the event that ended the run, or None once
    more than ``_MAX_STEPS`` states are kept.  Raises StepUnderflow if the
    step falls below 10 times the spacing of floats at s.
    """
    rtol = max(tol, 100.0 * _EPS)
    if rtol > tol:  # as scipy's validate_tol, which warns too
        warnings.warn(f"local_tol = {tol!r} is below 100 eps; the relative tolerance "
                      f"is raised to {rtol!r}", stacklevel=3)
    y = list(y0)
    f = rhs(*y[:4])

    # the first step (ibid., sec. II.4), as scipy's select_initial_step, with RMS norms
    scale, root_n = [tol + abs(v) * rtol for v in y], math.sqrt(len(y))
    d0 = math.hypot(*[v / w for v, w in zip(y, scale)]) / root_n
    d1 = math.hypot(*[u / w for u, w in zip(f, scale)]) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = rhs(*[v + h0 * u for v, u in zip(y[:4], f)])
    d2 = math.hypot(*[(u1 - u) / w for u1, u, w in zip(f1, f, scale)]) / root_n
    d2 = d2 / h0 if h0 > 0.0 else math.inf  # h0 can underflow to 0; numpy's x / 0 is inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1)

    s, g_old = 0.0, [g(y) for g, _ in events]
    states, found = [y], [[] for _ in events]
    while True:
        min_step = 10.0 * (math.nextafter(s, math.inf) - s)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepUnderflow("Required step size is less than spacing between numbers "
                                    f"at s = {s!r}")
            s_new = s + h_abs
            h = s_new - s
            y_new, k = _stages(rhs, y, f, h)
            f_new = rhs(*y_new[:4])
            err5 = err3 = 0.0
            for v, v_new, u5, u3 in zip(y, y_new, *_errors(k)):
                w = tol + max(abs(v), abs(v_new)) * rtol
                u5, u3 = u5 / w, u3 / w
                err5 += u5 * u5
                err3 += u3 * u3
            if err5 == 0.0:
                norm = 0.0
            else:
                norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * len(y))
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm**-0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs, rejected = h * max(0.2, 0.9 * norm**-0.125), True

        g_new = [g(y_new) for g, _ in events]
        stop = None
        hits = [i for i, (lo, hi) in enumerate(zip(g_old, g_new)) if lo <= 0.0 <= hi]
        if hits:
            at = _dense_output(rhs, y, y_new, k, f_new, h)
            roots = []
            for i in hits:
                try:
                    roots.append((_brent(lambda sx, g=events[i][0]: g(at((sx - s) / h)), s, s_new,
                                         4.0 * _EPS, 4.0 * _EPS), i))
                except ValueError:  # g(at(x)) has one sign at both ends: the step end
                    roots.append((s_new, i))
            for root, i in sorted(roots):
                found[i].append(at((root - s) / h))
                if events[i][1]:
                    y_new, stop = found[i][-1], i
                    break
        states.append(y_new)
        if stop is not None or len(states) > _MAX_STEPS:
            return states, found, stop
        s, y, f, g_old = s_new, y_new, f_new, g_new


def _stages(
    rhs: Callable[[float, float, float, float], tuple[float, ...]],
    y: list[float],
    f: tuple[float, ...],
    h: float,
) -> tuple[list[float], tuple[tuple[float, ...], ...]]:
    """The DOP853 step of size ``h`` from ``y``, where f = rhs(*y[:4]): y_new and the 12 stages.

    Stage 0 is ``f``.  Each later stage's input sums its row of A times the
    stages in the four phase-space components, and y_new sums B in all
    five, left to right over the row's nonzero entries.
    """
    y0, y1, y2, y3, y4 = y
    k0 = f
    k1 = rhs(y0 + _A1_0 * k0[0] * h,
             y1 + _A1_0 * k0[1] * h,
             y2 + _A1_0 * k0[2] * h,
             y3 + _A1_0 * k0[3] * h)
    k2 = rhs(y0 + (_A2_0 * k0[0] + _A2_1 * k1[0]) * h,
             y1 + (_A2_0 * k0[1] + _A2_1 * k1[1]) * h,
             y2 + (_A2_0 * k0[2] + _A2_1 * k1[2]) * h,
             y3 + (_A2_0 * k0[3] + _A2_1 * k1[3]) * h)
    k3 = rhs(y0 + (_A3_0 * k0[0] + _A3_2 * k2[0]) * h,
             y1 + (_A3_0 * k0[1] + _A3_2 * k2[1]) * h,
             y2 + (_A3_0 * k0[2] + _A3_2 * k2[2]) * h,
             y3 + (_A3_0 * k0[3] + _A3_2 * k2[3]) * h)
    k4 = rhs(y0 + (_A4_0 * k0[0] + _A4_2 * k2[0] + _A4_3 * k3[0]) * h,
             y1 + (_A4_0 * k0[1] + _A4_2 * k2[1] + _A4_3 * k3[1]) * h,
             y2 + (_A4_0 * k0[2] + _A4_2 * k2[2] + _A4_3 * k3[2]) * h,
             y3 + (_A4_0 * k0[3] + _A4_2 * k2[3] + _A4_3 * k3[3]) * h)
    k5 = rhs(y0 + (_A5_0 * k0[0] + _A5_3 * k3[0] + _A5_4 * k4[0]) * h,
             y1 + (_A5_0 * k0[1] + _A5_3 * k3[1] + _A5_4 * k4[1]) * h,
             y2 + (_A5_0 * k0[2] + _A5_3 * k3[2] + _A5_4 * k4[2]) * h,
             y3 + (_A5_0 * k0[3] + _A5_3 * k3[3] + _A5_4 * k4[3]) * h)
    k6 = rhs(y0 + (_A6_0 * k0[0] + _A6_3 * k3[0] + _A6_4 * k4[0] + _A6_5 * k5[0]) * h,
             y1 + (_A6_0 * k0[1] + _A6_3 * k3[1] + _A6_4 * k4[1] + _A6_5 * k5[1]) * h,
             y2 + (_A6_0 * k0[2] + _A6_3 * k3[2] + _A6_4 * k4[2] + _A6_5 * k5[2]) * h,
             y3 + (_A6_0 * k0[3] + _A6_3 * k3[3] + _A6_4 * k4[3] + _A6_5 * k5[3]) * h)
    k7 = rhs(y0 + (_A7_0 * k0[0] + _A7_3 * k3[0] + _A7_4 * k4[0] + _A7_5 * k5[0]
                   + _A7_6 * k6[0]) * h,
             y1 + (_A7_0 * k0[1] + _A7_3 * k3[1] + _A7_4 * k4[1] + _A7_5 * k5[1]
                   + _A7_6 * k6[1]) * h,
             y2 + (_A7_0 * k0[2] + _A7_3 * k3[2] + _A7_4 * k4[2] + _A7_5 * k5[2]
                   + _A7_6 * k6[2]) * h,
             y3 + (_A7_0 * k0[3] + _A7_3 * k3[3] + _A7_4 * k4[3] + _A7_5 * k5[3]
                   + _A7_6 * k6[3]) * h)
    k8 = rhs(y0 + (_A8_0 * k0[0] + _A8_3 * k3[0] + _A8_4 * k4[0] + _A8_5 * k5[0] + _A8_6 * k6[0]
                   + _A8_7 * k7[0]) * h,
             y1 + (_A8_0 * k0[1] + _A8_3 * k3[1] + _A8_4 * k4[1] + _A8_5 * k5[1] + _A8_6 * k6[1]
                   + _A8_7 * k7[1]) * h,
             y2 + (_A8_0 * k0[2] + _A8_3 * k3[2] + _A8_4 * k4[2] + _A8_5 * k5[2] + _A8_6 * k6[2]
                   + _A8_7 * k7[2]) * h,
             y3 + (_A8_0 * k0[3] + _A8_3 * k3[3] + _A8_4 * k4[3] + _A8_5 * k5[3] + _A8_6 * k6[3]
                   + _A8_7 * k7[3]) * h)
    k9 = rhs(y0 + (_A9_0 * k0[0] + _A9_3 * k3[0] + _A9_4 * k4[0] + _A9_5 * k5[0] + _A9_6 * k6[0]
                   + _A9_7 * k7[0] + _A9_8 * k8[0]) * h,
             y1 + (_A9_0 * k0[1] + _A9_3 * k3[1] + _A9_4 * k4[1] + _A9_5 * k5[1] + _A9_6 * k6[1]
                   + _A9_7 * k7[1] + _A9_8 * k8[1]) * h,
             y2 + (_A9_0 * k0[2] + _A9_3 * k3[2] + _A9_4 * k4[2] + _A9_5 * k5[2] + _A9_6 * k6[2]
                   + _A9_7 * k7[2] + _A9_8 * k8[2]) * h,
             y3 + (_A9_0 * k0[3] + _A9_3 * k3[3] + _A9_4 * k4[3] + _A9_5 * k5[3] + _A9_6 * k6[3]
                   + _A9_7 * k7[3] + _A9_8 * k8[3]) * h)
    k10 = rhs(y0 + (_A10_0 * k0[0] + _A10_3 * k3[0] + _A10_4 * k4[0] + _A10_5 * k5[0]
                    + _A10_6 * k6[0] + _A10_7 * k7[0] + _A10_8 * k8[0] + _A10_9 * k9[0]) * h,
              y1 + (_A10_0 * k0[1] + _A10_3 * k3[1] + _A10_4 * k4[1] + _A10_5 * k5[1]
                    + _A10_6 * k6[1] + _A10_7 * k7[1] + _A10_8 * k8[1] + _A10_9 * k9[1]) * h,
              y2 + (_A10_0 * k0[2] + _A10_3 * k3[2] + _A10_4 * k4[2] + _A10_5 * k5[2]
                    + _A10_6 * k6[2] + _A10_7 * k7[2] + _A10_8 * k8[2] + _A10_9 * k9[2]) * h,
              y3 + (_A10_0 * k0[3] + _A10_3 * k3[3] + _A10_4 * k4[3] + _A10_5 * k5[3]
                    + _A10_6 * k6[3] + _A10_7 * k7[3] + _A10_8 * k8[3] + _A10_9 * k9[3]) * h)
    k11 = rhs(y0 + (_A11_0 * k0[0] + _A11_3 * k3[0] + _A11_4 * k4[0] + _A11_5 * k5[0]
                    + _A11_6 * k6[0] + _A11_7 * k7[0] + _A11_8 * k8[0] + _A11_9 * k9[0]
                    + _A11_10 * k10[0]) * h,
              y1 + (_A11_0 * k0[1] + _A11_3 * k3[1] + _A11_4 * k4[1] + _A11_5 * k5[1]
                    + _A11_6 * k6[1] + _A11_7 * k7[1] + _A11_8 * k8[1] + _A11_9 * k9[1]
                    + _A11_10 * k10[1]) * h,
              y2 + (_A11_0 * k0[2] + _A11_3 * k3[2] + _A11_4 * k4[2] + _A11_5 * k5[2]
                    + _A11_6 * k6[2] + _A11_7 * k7[2] + _A11_8 * k8[2] + _A11_9 * k9[2]
                    + _A11_10 * k10[2]) * h,
              y3 + (_A11_0 * k0[3] + _A11_3 * k3[3] + _A11_4 * k4[3] + _A11_5 * k5[3]
                    + _A11_6 * k6[3] + _A11_7 * k7[3] + _A11_8 * k8[3] + _A11_9 * k9[3]
                    + _A11_10 * k10[3]) * h)
    y_new = [y0 + h * (_B0 * k0[0] + _B5 * k5[0] + _B6 * k6[0] + _B7 * k7[0] + _B8 * k8[0]
                       + _B9 * k9[0] + _B10 * k10[0] + _B11 * k11[0]),
             y1 + h * (_B0 * k0[1] + _B5 * k5[1] + _B6 * k6[1] + _B7 * k7[1] + _B8 * k8[1]
                       + _B9 * k9[1] + _B10 * k10[1] + _B11 * k11[1]),
             y2 + h * (_B0 * k0[2] + _B5 * k5[2] + _B6 * k6[2] + _B7 * k7[2] + _B8 * k8[2]
                       + _B9 * k9[2] + _B10 * k10[2] + _B11 * k11[2]),
             y3 + h * (_B0 * k0[3] + _B5 * k5[3] + _B6 * k6[3] + _B7 * k7[3] + _B8 * k8[3]
                       + _B9 * k9[3] + _B10 * k10[3] + _B11 * k11[3]),
             y4 + h * (_B0 * k0[4] + _B5 * k5[4] + _B6 * k6[4] + _B7 * k7[4] + _B8 * k8[4]
                       + _B9 * k9[4] + _B10 * k10[4] + _B11 * k11[4])]
    return y_new, (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11)


def _errors(k: tuple[tuple[float, ...], ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The E5 and E3 error estimates of a step from its 12 stages ``k``, one float per component.

    Each sums its row's nonzero entries times the stages, left to right.
    """
    k0, _, _, _, _, k5, k6, k7, k8, k9, k10, k11 = k
    return (
        (
            _E5_0 * k0[0] + _E5_5 * k5[0] + _E5_6 * k6[0] + _E5_7 * k7[0] + _E5_8 * k8[0]
            + _E5_9 * k9[0] + _E5_10 * k10[0] + _E5_11 * k11[0],
            _E5_0 * k0[1] + _E5_5 * k5[1] + _E5_6 * k6[1] + _E5_7 * k7[1] + _E5_8 * k8[1]
            + _E5_9 * k9[1] + _E5_10 * k10[1] + _E5_11 * k11[1],
            _E5_0 * k0[2] + _E5_5 * k5[2] + _E5_6 * k6[2] + _E5_7 * k7[2] + _E5_8 * k8[2]
            + _E5_9 * k9[2] + _E5_10 * k10[2] + _E5_11 * k11[2],
            _E5_0 * k0[3] + _E5_5 * k5[3] + _E5_6 * k6[3] + _E5_7 * k7[3] + _E5_8 * k8[3]
            + _E5_9 * k9[3] + _E5_10 * k10[3] + _E5_11 * k11[3],
            _E5_0 * k0[4] + _E5_5 * k5[4] + _E5_6 * k6[4] + _E5_7 * k7[4] + _E5_8 * k8[4]
            + _E5_9 * k9[4] + _E5_10 * k10[4] + _E5_11 * k11[4],
        ),
        (
            _E3_0 * k0[0] + _E3_5 * k5[0] + _E3_6 * k6[0] + _E3_7 * k7[0] + _E3_8 * k8[0]
            + _E3_9 * k9[0] + _E3_10 * k10[0] + _E3_11 * k11[0],
            _E3_0 * k0[1] + _E3_5 * k5[1] + _E3_6 * k6[1] + _E3_7 * k7[1] + _E3_8 * k8[1]
            + _E3_9 * k9[1] + _E3_10 * k10[1] + _E3_11 * k11[1],
            _E3_0 * k0[2] + _E3_5 * k5[2] + _E3_6 * k6[2] + _E3_7 * k7[2] + _E3_8 * k8[2]
            + _E3_9 * k9[2] + _E3_10 * k10[2] + _E3_11 * k11[2],
            _E3_0 * k0[3] + _E3_5 * k5[3] + _E3_6 * k6[3] + _E3_7 * k7[3] + _E3_8 * k8[3]
            + _E3_9 * k9[3] + _E3_10 * k10[3] + _E3_11 * k11[3],
            _E3_0 * k0[4] + _E3_5 * k5[4] + _E3_6 * k6[4] + _E3_7 * k7[4] + _E3_8 * k8[4]
            + _E3_9 * k9[4] + _E3_10 * k10[4] + _E3_11 * k11[4],
        ),
    )


def _dense_output(rhs, y, y_new, stages, f_new, h) -> Callable[[float], list[float]]:
    """DOP853's 7th-degree interpolant of the step from ``y`` to ``y_new``.

    Takes the 12 ``stages`` of :func:`_stages`, adds ``f_new`` and the three
    extra stages, and returns the function of the step fraction x in
    [0, 1] that gives the state, as scipy's ``Dop853DenseOutput`` (x = 0
    gives ``y`` exactly).  This runs only on event steps, so its stage
    combinations stay left folds over the full rows, one list per component.
    """
    d, a_extra = _TABLEAU[4:]

    def dot(row: Sequence[float], kv: list[float]) -> float:  # as sum of floats up to 3.11
        return functools.reduce(operator.add, map(operator.mul, row, kv), 0.0)

    f = stages[0]
    k = [list(kv) for kv in zip(*stages, f_new)]
    for a in a_extra:
        stage = rhs(*[v + dot(a, kv) * h for v, kv in zip(y[:4], k)])
        for kv, u in zip(k, stage):
            kv.append(u)
    coeffs = []
    for v, v_new, u, u_new, kv in zip(y, y_new, f, f_new, k):
        dv = v_new - v
        coeffs.append((v, dv, h * u - dv, 2.0 * dv - h * (u_new + u),
                       *[h * dot(row, kv) for row in d]))

    def at(x: float) -> list[float]:
        z = 1.0 - x
        return [v + x * (c0 + z * (c1 + x * (c2 + z * (c3 + x * (c4 + z * (c5 + x * c6))))))
                for v, c0, c1, c2, c3, c4, c5, c6 in coeffs]

    return at


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in [a, b] by Brent's method, as scipy's ``brentq`` finds it.

    A line-for-line port of scipy's ``brentq.c``: the same states (xpre,
    xcur, xblk, spre, scur), tolerance delta = (xtol + rtol |xcur|)/2,
    bisection test and cap of 100 iterations, so it evaluates ``f`` at the
    same points and returns the same float.  If f(a) or f(b) is 0, that end
    is the root.  As ``brentq``, it raises ValueError if f(a) and f(b) have
    the same sign, and RuntimeError if 100 iterations do not converge.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)  # C's x/0 is inf or nan: it bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


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
