"""Closed-form machinery of the Snyder-deformed Coulomb problem.

The deformation enters only through the symplectic weight: the loop action
picked up along a bound orbit acquires a factor 1/(1 + beta^2 p^2) on the
radial-momentum one-form, while the Hamiltonian p^2/2m - e2/r is untouched.
Consequently the turning points are beta-independent and every phase
integral below has an elementary closed form.

Conventions (hbar = 1): the public functions take and return physical
energies, and every formula computes in reduced units, Ẽ = E/(m e2^2) and
b = beta m e2 (``PhysicalParams.unit`` and ``b``), in which m and e2 leave
the formulas: each is its physical form at m = e2 = 1.

* ``phase_integral_1d_closed``  -- full loop integral of the 1D problem,
  pi*sqrt(2 / Ẽ) / (1 + b*sqrt(2 Ẽ)); equating it to 2 pi n gives the
  exact 1D spectrum.
* ``radial_phase_integral_closed`` -- full radial loop of the planar
  problem in polar momentum coordinates, expressed in z = p_rho^2 between
  the turning points z- <= z <= z+.
* ``level_closed`` -- the reduced level of any (n, l) at b itself:
  Phi(E) = 2 pi n solved algebraically (a quadratic for l = 0, the 1D
  problem, and a quartic for l >= 1), with no root search; a level raises
  unless b < 2n + l and its float energy lies strictly inside the window.
  ``energy_closed`` is that level in physical units.
* ``energy_series`` -- its leading-order expansion in the deformation
  (first order for l = 0, second order for l >= 1).

The radial closed form implemented here is the exact value of

    l * Integral_{z-}^{z+} sqrt((z - z-)(z+ - z)) / (z (z + 2Ẽ) (1 + b^2 z)) dz

obtained by partial fractions; it vanishes at the circular-orbit endpoint
and matches a trapezoid rule on the raw integrand to machine precision
(see the numerics module and the test suite for the cross-checks).  No
closed form evaluates the band edges z-, z+: only the quadrature does.

All functions are pure and all result types immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoRootInWindow, RequiresNonzeroL
from .model import PhysicalParams, QuantumNumbers, window_top

__all__ = [
    "PhaseIntegralResult",
    "phase_integral_1d_closed",
    "radial_phase_integral_closed",
    "level_closed",
    "energy_closed",
    "energy_series",
    "energy_3d_perturbative_ref",
]

PI = math.pi

# Newton on the level quartic stops once a step is below this fraction of
# the root: at most eight evaluations of the quartic on n' <= 50,
# beta m e2 <= 30.
_NEWTON_RTOL = 2.3e-16


@dataclass(frozen=True)
class PhaseIntegralResult:
    """Value of a loop phase integral, tagged with its provenance.

    ``kind`` is ``"closed_form"`` or ``"numeric"``; ``err_estimate`` is an
    absolute error bound for numeric results, ``None`` for closed forms.
    """

    value: float
    kind: str
    err_estimate: float | None = None


def phase_integral_1d_closed(params: PhysicalParams, energy: float) -> PhaseIntegralResult:
    """Closed form of the 1D loop integral over the deformed one-form.

    In reduced units pi*sqrt(2/Ẽ) / (1 + b*sqrt(2 Ẽ)): pi*sqrt(2/Ẽ) at b = 0,
    and strictly decreasing in E on the energy window.  Raises OutOfWindow
    outside it (``PhysicalParams.admit``).
    """
    energy, _ = params.admit(energy, 0)
    value = PI * math.sqrt(2.0 / energy) / (1.0 + params.b * math.sqrt(2.0 * energy))
    return PhaseIntegralResult(value=value, kind="closed_form")


def radial_phase_integral_closed(
    params: PhysicalParams, energy: float, l: float
) -> PhaseIntegralResult:
    """Closed form of the radial loop integral for angular momentum l >= 1.

    In reduced units, with W = 1 - 2 b^2 Ẽ, the exact value is

        pi * [ sqrt(2 / Ẽ) / W - l * (1 + sqrt(1 + 4 b^2 / (l^2 W^2))) ].

    At b = 0 this reduces to pi*(sqrt(2/Ẽ) - 2 l) along the same code path.
    At the circular-orbit endpoint, which ``PhysicalParams.admit`` flags,
    the band has zero width and the integral is exactly zero; 0 is returned
    rather than raised.  Raises ValueError unless l > 0 and OutOfWindow outside the
    window.  ``l`` may be fractional, which is used by the small-l limit study.
    """
    if not l > 0:
        raise ValueError(f"l must be > 0, got {l!r}")
    energy, endpoint = params.admit(energy, l)
    if endpoint:
        return PhaseIntegralResult(value=0.0, kind="closed_form")
    b = params.b
    w = 1.0 - 2.0 * b * b * energy
    square = l * l * w * w  # 0 where l^2 underflows: the ratio is then inf, or 0 at b = 0
    ratio = 4.0 * b * b / square if square > 0.0 else (math.inf if b else 0.0)
    # once ratio overflows, l (1 + sqrt(1 + ratio)) = l + 2 b / W far below an ulp
    tail = l * (1.0 + math.sqrt(1.0 + ratio)) if ratio < math.inf else l + 2.0 * b / w
    value = PI * (math.sqrt(2.0 / energy) / w - tail)
    return PhaseIntegralResult(value=value, kind="closed_form")


def level_closed(b: float, qn: QuantumNumbers) -> float:
    """Reduced level Ẽ = E/(m e2^2) of ``qn`` at b = beta m e2: Phi = 2 pi n solved exactly.

    Algebraically, in u = sqrt(2 Ẽ).  For l = 0 (the 1D problem) the condition is
    b n u^2 + n u - 1 = 0 in u > 0, solved in the cancellation-free form
    u = 2 / (n + sqrt(n^2 + 4 b n)); Ẽ lies below the pole exactly when
    b < 2n.  At b = 0 this is 1/(2 n^2).

    For l >= 1, with A = 2, N = 2n + l and K = N^2 - l^2 = 4n(n + l),
    squaring the condition gives the quartic

        g(u) = ((N - l) u - A)((N + l) u - A) - K b^2 u^4 = 0,

    evaluated in this factored form, which is free of cancellation.  g falls
    strictly on (0, u0], from A^2 to -K b^2 u0^4 at the Newtonian root
    u0 = A/(N + l) = 1/n', so it has exactly one root u* there; Newton's
    method from u0, kept inside the bracket [0, u0] by bisection, finds it
    to about one ulp.  u* lies below the circular-orbit bound A/(2l), and
    A/(u* W) > N + l (W = 1 - b^2 u*^2) gives it the sign of the unsquared
    condition.  As g(1/b) = A (A - 2N/b), u* lies below the pole exactly
    when b < 2n + l; a root on the pole is infeasible.  No other root is
    admissible: for u >= A/(N - l) the unsquared residual Phi/pi - 2n is at
    most A/(u (1 + b u)) - N <= -l.

    Both channels are thus feasible exactly when b < 2n + l, tested first
    as b A < 2N; an infeasible level raises NoRootInWindow quoting that
    rule, and no Phi is evaluated.  So does a float Ẽ = u^2/2 not strictly
    inside the window (:func:`~snyder_coulomb.model.window_top`): rounded
    onto the pole.  Each message starts with ``qn``.
    """
    n, l = qn.n, qn.l
    a, big_n = 2.0, 2 * n + l
    if not b * a < 2 * big_n:
        raise NoRootInWindow(f"{qn}: beta m e2 = {b!r} is not below 2n + l = {big_n}")
    if l == 0:
        u = a / (n + math.sqrt(n * n + 4.0 * b * n))
    else:
        k = 4 * n * (n + l)
        kb2 = k * b * b
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
    energy, top = u * u / 2.0, window_top(b, l)
    if not energy < top:
        raise NoRootInWindow(f"{qn}: E/(m e2^2) = {energy!r} is not inside the open "
                             f"window (0, {top!r})")
    return energy


def energy_closed(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Exact binding energy of the level ``qn``: m e2^2 times :func:`level_closed`.

    Raises NoRootInWindow, naming ``params.beta``, where the level is
    infeasible, and where the float E's own reduction E/(m e2^2), which
    ``PhysicalParams.admit`` reads, is not strictly inside the window; and
    ScaleOutOfRange where m e2^2 Ẽ leaves the float range.
    """
    try:
        level = level_closed(params.b, qn)
    except NoRootInWindow as exc:
        raise NoRootInWindow(f"level infeasible at beta={params.beta!r} for {exc}") from None
    energy = params.physical(level)
    reduced, top = params.reduced(energy), window_top(params.b, qn.l)
    if reduced < top:  # strictly inside, as admit decides on E itself
        return energy
    raise NoRootInWindow(f"level infeasible at beta={params.beta!r} for {qn}: E/(m e2^2) = "
                         f"{reduced!r} is not inside the open window (0, {top!r})")


def energy_series(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Leading-order expansion of the level ``qn`` in the deformation.

    In reduced units, with b = beta m e2, and returned as m e2^2 Ẽ.  For
    l = 0, first order in b: Ẽ_n = (1 / 2n^2) (1 - 2 b / n).
    For l >= 1, second order:
    Ẽ_{n'l} = (1 / 2 n'^2) [1 + (2 b^2 / n') (1/n' - 1/l)],
    whose correction is negative for l < n' and singular at l = 0, which is
    why that channel has its own series.  Accurate when b/n' is small; the
    precondition is documented, not enforced (a huge b gives -inf).
    """
    b, np_ = params.b, qn.n_prime
    newton = 1.0 / (2.0 * np_ * np_)
    if qn.l == 0:
        return params.physical(newton * (1.0 - 2.0 * b / np_))
    return params.physical(newton * (1.0 + 2.0 * b * b / np_ * (1.0 / np_ - 1.0 / qn.l)))


def energy_3d_perturbative_ref(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """External perturbative comparator for the l >= 1 spectrum.

    Same prefactor as the l >= 1 :func:`energy_series` with bracket
    1/n' - 1/(l + 1/2) + 1/(2 l (l + 1/2)(l + 1)); the bracket vanishes
    identically at (n', l) = (2, 1).  Breaks down at l = 0.
    """
    if qn.l == 0:
        raise RequiresNonzeroL("the perturbative comparator breaks down at l = 0")
    b, np_, l = params.b, qn.n_prime, qn.l
    bracket = 1.0 / np_ - 1.0 / (l + 0.5) + 1.0 / (2.0 * l * (l + 0.5) * (l + 1.0))
    return params.physical(1.0 / (2.0 * np_ * np_) * (1.0 + 2.0 * b * b / np_ * bracket))
