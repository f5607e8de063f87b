"""Closed-form machinery of the Snyder-deformed Coulomb problem.

The deformation enters only through the symplectic weight: the loop action
picked up along a bound orbit acquires a factor 1/(1 + beta^2 p^2) on the
radial-momentum one-form, while the Hamiltonian p^2/2m - e2/r is untouched.
Consequently the turning points are beta-independent and every phase
integral below has an elementary closed form.

Conventions (hbar = 1):

* ``phase_integral_1d_closed``  -- full loop integral of the 1D problem,
  pi*sqrt(2 m e2^2 / E) / (1 + beta*sqrt(2 m E)); equating it to 2 pi n
  gives the exact 1D spectrum.
* ``radial_phase_integral_closed`` -- full radial loop of the planar
  problem in polar momentum coordinates, expressed in z = p_rho^2 between
  the turning points z- <= z <= z+.
* ``energy_closed`` -- the level of any (n, l) itself: Phi(E) = 2 pi n
  solved algebraically (a quadratic for l = 0, the 1D problem, and a
  quartic for l >= 1), with no root search; an infeasible level raises.
* ``energy_series`` -- its leading-order expansion in the deformation
  (first order for l = 0, second order for l >= 1).

The radial closed form implemented here is the exact value of

    l * Integral_{z-}^{z+} sqrt((z - z-)(z+ - z)) / (z (z + 2mE) (1 + beta^2 z)) dz

obtained by partial fractions; it vanishes at the circular-orbit endpoint
and matches a trapezoid rule on the raw integrand to machine precision
(see the numerics module and the test suite for the cross-checks).

All functions are pure and all result types immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoRootInWindow, OutOfWindow, RequiresNonzeroL
from .model import PhysicalParams, QuantumNumbers, energy_window

__all__ = [
    "TurningPoints",
    "PhaseIntegralResult",
    "turning_points",
    "phase_integral_1d_closed",
    "radial_phase_integral_closed",
    "energy_closed",
    "energy_series",
    "energy_3d_perturbative_ref",
]

PI = math.pi

# Relative slack for the turning-point discriminant: energies computed as
# exactly the circular-orbit bound may land a few ulp past it.
_DISC_SLACK = 4e-15

# Newton on the level quartic stops once a step is below this fraction of
# the root: at most eight evaluations of the quartic on n' <= 50,
# beta m e2 <= 30.
_NEWTON_RTOL = 2.3e-16


@dataclass(frozen=True)
class TurningPoints:
    """Roots z-+ of the radial band in the squared-momentum variable z.

    Satisfy z_minus * z_plus = (2mE)^2 and
    z_minus + z_plus = 4m(m e2^2/l^2 - E).
    """

    z_minus: float
    z_plus: float
    degenerate: bool


@dataclass(frozen=True)
class PhaseIntegralResult:
    """Value of a loop phase integral, tagged with its provenance.

    ``kind`` is ``"closed_form"`` or ``"numeric"``; ``err_estimate`` is an
    absolute error bound for numeric results, ``None`` for closed forms.
    """

    value: float
    kind: str
    err_estimate: float | None = None


def _check_pole(params: PhysicalParams, energy: float) -> float:
    """Return W = 1 - 2 beta^2 m E, raising when at or past the pole."""
    w = 1.0 - 2.0 * params.beta**2 * params.m * energy
    if w <= 0.0:
        raise OutOfWindow(
            f"E={energy!r} at or beyond the deformation pole 1/(2 beta^2 m)"
            f" = {1.0 / (2.0 * params.beta**2 * params.m)!r}"
        )
    return w


def turning_points(params: PhysicalParams, energy: float, l: float) -> TurningPoints:
    """Turning points of the radial-momentum band for angular momentum l.

    ``l`` may be any positive real; quantized callers pass integers >= 1.
    z_plus is evaluated directly, z_minus through the exact product
    z_minus z_plus = (2mE)^2 to avoid cancellation at small E.
    """
    if not l > 0:
        raise ValueError(f"l must be > 0, got {l!r}")
    if not energy > 0:
        raise OutOfWindow(f"binding energy must be > 0, got {energy!r}")
    m, e2 = params.m, params.e2
    q = m * e2**2 / (l * l)
    disc = m * (q - 2.0 * energy)
    if disc < 0.0:
        if disc >= -_DISC_SLACK * m * q:
            disc = 0.0
        else:
            raise OutOfWindow(
                f"E={energy!r} exceeds the circular-orbit bound {q / 2.0!r} at l={l!r}"
            )
    s = math.sqrt(disc)
    z_plus = 2.0 * m * (q - energy + (e2 / l) * s)
    z_minus = (2.0 * m * energy) ** 2 / z_plus
    return TurningPoints(z_minus=z_minus, z_plus=z_plus, degenerate=(s == 0.0))


def phase_integral_1d_closed(params: PhysicalParams, energy: float) -> PhaseIntegralResult:
    """Closed form of the 1D loop integral over the deformed one-form.

    Equals pi*sqrt(2 m e2^2/E) at beta = 0 and is strictly decreasing in E
    on the energy window.
    """
    window = energy_window(params, 0)
    if not window.contains(energy):
        raise OutOfWindow(f"E={energy!r} outside 1D window {window}")
    m, e2, beta = params.m, params.e2, params.beta
    value = PI * math.sqrt(2.0 * m * e2**2 / energy) / (1.0 + beta * math.sqrt(2.0 * m * energy))
    return PhaseIntegralResult(value=value, kind="closed_form")


def radial_phase_integral_closed(
    params: PhysicalParams, energy: float, l: float
) -> PhaseIntegralResult:
    """Closed form of the radial loop integral for angular momentum l >= 1.

    With W = 1 - 2 beta^2 m E the exact value is

        pi * [ sqrt(2 m e2^2 / E) / W
               - l * (1 + sqrt(1 + 4 beta^2 m^2 e2^2 / (l^2 W^2))) ].

    At beta = 0 this reduces to pi*(sqrt(2 m e2^2/E) - 2 l) along the same
    code path.  At the circular-orbit endpoint (degenerate turning points)
    the band has zero width and the integral is exactly zero; 0 is returned
    rather than raised.  ``l`` may be fractional, which is used by the
    small-l limit study.
    """
    tp = turning_points(params, energy, l)
    w = _check_pole(params, energy)
    if tp.degenerate:
        return PhaseIntegralResult(value=0.0, kind="closed_form")
    m, e2, beta = params.m, params.e2, params.beta
    value = PI * (
        math.sqrt(2.0 * m * e2**2 / energy) / w
        - l * (1.0 + math.sqrt(1.0 + 4.0 * beta**2 * m**2 * e2**2 / (l * l * w * w)))
    )
    return PhaseIntegralResult(value=value, kind="closed_form")


def energy_closed(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Exact binding energy of the level ``qn``: Phi(E) = 2 pi n solved algebraically.

    For l = 0 (the 1D problem) the condition is beta n u^2 + n u - m e2 = 0
    in u = sqrt(2mE) > 0, solved in the cancellation-free form
    u = 2 m e2 / (n + sqrt(n^2 + 4 beta n m e2)); the level is feasible when
    E lies below the pole, that is when beta m e2 < 2n.  At beta = 0 this is
    m e2^2 / (2 n^2).

    For l >= 1, with A = 2 m e2, N = 2n + l and K = N^2 - l^2 = 4n(n + l),
    squaring the condition gives the quartic

        g(u) = ((N - l) u - A)((N + l) u - A) - K beta^2 u^4 = 0,

    evaluated in this factored form, which is free of cancellation.  g falls
    strictly on (0, u0], from A^2 to -K beta^2 u0^4 at the Newtonian root
    u0 = A/(N + l) = m e2/n', so it has exactly one root u* there; Newton's
    method from u0, kept inside the bracket [0, u0] by bisection, finds it
    to about one ulp.  u* lies below the circular-orbit bound A/(2l), and
    A/(u* W) > N + l (W = 1 - beta^2 u*^2) gives it the sign of the
    unsquared condition.  As g(1/beta) = A (A - 2N/beta), u* lies below the
    pole, and the level is feasible, exactly when beta m e2 < 2n + l; a
    root on the pole is infeasible.  No other root is admissible: for
    u >= A/(N - l) the unsquared residual Phi/pi - 2n is at most
    A/(u (1 + beta u)) - N <= -l.

    Raises NoRootInWindow for an infeasible level.
    """
    n, l, m, e2, beta = qn.n, qn.l, params.m, params.e2, params.beta
    a = 2.0 * m * e2
    if l == 0:
        u = a / (n + math.sqrt(n * n + 4.0 * beta * n * m * e2))
        energy = u * u / (2.0 * m)
        if not energy_window(params, 0).contains(energy):
            raise _infeasible(params, qn)
        return energy
    big_n, k = 2 * n + l, 4 * n * (n + l)
    if not beta * a < 2 * big_n:
        raise _infeasible(params, qn)
    kb2 = k * beta * beta
    lo, hi = 0.0, a / (big_n + l)
    u = hi
    for _ in range(100):
        g = ((big_n - l) * u - a) * ((big_n + l) * u - a) - kb2 * u**4
        if g == 0.0:
            break
        if g > 0.0:
            lo = u
        else:
            hi = u
        new = u - g / (2.0 * k * u - 2.0 * big_n * a - 4.0 * kb2 * u**3)
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        step, u = abs(new - u), new
        if step <= _NEWTON_RTOL * u:
            break
    return u * u / (2.0 * m)


def _window_top(params: PhysicalParams, l: int) -> float:
    """The highest energy a level's root search evaluates: just below e_max."""
    return energy_window(params, l).e_max * (1.0 - 1e-9)


def _infeasible(
    params: PhysicalParams, qn: QuantumNumbers, residual: float | None = None
) -> NoRootInWindow:
    """The error for a level with no root, quoting Phi - 2 pi n at the window top.

    ``residual`` is that value from the caller's own Phi; by default the
    closed forms give it.
    """
    if residual is None:
        top = _window_top(params, qn.l)
        phi = (
            phase_integral_1d_closed(params, top)
            if qn.l == 0
            else radial_phase_integral_closed(params, top, qn.l)
        )
        residual = phi.value - 2.0 * PI * qn.n
    return NoRootInWindow(
        f"Phi(E) - 2 pi n = {residual!r} does not change sign inside "
        f"(0, {energy_window(params, qn.l).e_max!r}) for {qn}: level infeasible at "
        f"beta={params.beta!r}"
    )


def energy_series(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Leading-order expansion of the level ``qn`` in the deformation.

    For l = 0, first order in beta: E_n = (m e2^2 / 2n^2) (1 - 2 beta m e2 / n).
    For l >= 1, second order:
    E_{n'l} = (m e2^2 / 2 n'^2) [1 + (2 beta^2 m^2 e2^2 / n') (1/n' - 1/l)],
    whose correction is negative for l < n' and singular at l = 0, which is
    why that channel has its own series.  Accurate when beta*m*e2/n' is
    small; the precondition is documented, not enforced.
    """
    m, e2, beta = params.m, params.e2, params.beta
    np_ = qn.n_prime
    newton = m * e2**2 / (2.0 * np_ * np_)
    if qn.l == 0:
        return newton * (1.0 - 2.0 * beta * m * e2 / np_)
    return newton * (1.0 + 2.0 * beta**2 * m**2 * e2**2 / np_ * (1.0 / np_ - 1.0 / qn.l))


def energy_3d_perturbative_ref(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """External perturbative comparator for the l >= 1 spectrum.

    Same prefactor as the l >= 1 :func:`energy_series` with bracket
    1/n' - 1/(l + 1/2) + 1/(2 l (l + 1/2)(l + 1)); the bracket vanishes
    identically at (n', l) = (2, 1).  Breaks down at l = 0.
    """
    if qn.l == 0:
        raise RequiresNonzeroL("the perturbative comparator breaks down at l = 0")
    m, e2, beta = params.m, params.e2, params.beta
    np_, l = qn.n_prime, qn.l
    bracket = 1.0 / np_ - 1.0 / (l + 0.5) + 1.0 / (2.0 * l * (l + 0.5) * (l + 1.0))
    return m * e2**2 / (2.0 * np_ * np_) * (1.0 + 2.0 * beta**2 * m**2 * e2**2 / np_ * bracket)
