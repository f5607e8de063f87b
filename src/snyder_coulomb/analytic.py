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
* ``level_closed`` -- the reduced level of any real n > 0, l >= 0 at b
  itself: Phi(E) = 2 pi n solved algebraically, a quadratic in closed form
  for l = 0, the 1D problem, and for l > 0 a quartic, whose one root in the
  window a bracketed Newton iteration finds; neither evaluates Phi.  A level
  raises unless b < 2n + l and its float energy lies strictly inside the window.
  ``energy_closed`` is the level of a ``QuantumNumbers`` in physical units.
* ``energy_series`` -- its leading-order expansion in the deformation
  (first order for l = 0, second order for l >= 1).
* ``l_limit_study`` -- the radial closed form along a grid of small l next
  to the 1D closed form: its l -> 0 limit is the 1D value.

The radial closed form implemented here is the exact value of

    l * Integral_{z-}^{z+} sqrt((z - z-)(z+ - z)) / (z (z + 2Ẽ) (1 + b^2 z)) dz

obtained by partial fractions and evaluated in a conjugate form that does
not divide by W = 1 - 2 b^2 Ẽ; it tends to 0 at the circular-orbit bound,
which lies outside the open window, and matches a trapezoid rule on the raw
integrand to machine precision (see the numerics module and the tests).
No closed form evaluates the band edges z-, z+: only the quadrature does.

All functions are pure and all result types immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Sequence

from .errors import NoRootInWindow, OutOfWindow, RequiresNonzeroL, ScaleOutOfRange
from .model import (PhysicalParams, QuantumNumbers, as_float, check_deformation, check_level,
                    quote, window_top)

__all__ = [
    "PhaseIntegralResult",
    "phase_integral_1d_closed",
    "radial_phase_integral_closed",
    "level_closed",
    "energy_closed",
    "energy_series",
    "energy_3d_perturbative_ref",
    "LLimitRow",
    "l_limit_study",
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


@dataclass(frozen=True)
class LLimitRow:
    """Radial closed form at small l next to the 1D closed form.

    ``error`` carries an out-of-window failure; the failed values are NaN
    in that case, and phi_one_dim stays populated when only the radial
    form failed.
    """

    l: float
    phi_radial: float
    phi_one_dim: float
    gap: float
    error: str | None = None


def phase_integral_1d_closed(params: PhysicalParams, energy: float) -> PhaseIntegralResult:
    """Closed form of the 1D loop integral over the deformed one-form.

    In reduced units pi*sqrt(2/Ẽ) / (1 + b*sqrt(2 Ẽ)): pi*sqrt(2/Ẽ) at b = 0,
    and strictly decreasing in E on the energy window.  Raises OutOfWindow
    outside it (``PhysicalParams.admit``).
    """
    energy = params.admit(energy, 0)
    value = PI * math.sqrt(2.0 / energy) / (1.0 + params.b * math.sqrt(2.0 * energy))
    return PhaseIntegralResult(value=value, kind="closed_form")


def radial_phase_integral_closed(
    params: PhysicalParams, energy: float, l: float
) -> PhaseIntegralResult:
    """Closed form of the radial loop integral for angular momentum l >= 1.

    In reduced units, with s = sqrt(2/Ẽ) and W = 1 - 2 b^2 Ẽ, the exact value is

        pi * (s - 2 l) * s / (s + 4 b^2 / (l W + sqrt(l^2 W^2 + 4 b^2))),

    which is pi [s/W - l (1 + sqrt(1 + 4b^2/(l^2 W^2)))] as s^2 - 4b^2 = s^2 W,
    but with no division by W, which vanishes at the pole, and no cancellation
    but in s - 2 l, next to the circular bound.  At b = 0 the quotient is
    exactly 1: the value is pi*(s - 2 l) bit for bit, along the same code path.
    Raises ValueError unless l > 0 and OutOfWindow outside the open window
    (``PhysicalParams.admit``), at the circular-orbit bound too, where the
    band has zero width.  ``l`` may be fractional, which is used by the
    small-l limit study.
    """
    if not l > 0:
        raise ValueError(f"l must be > 0{quote(l)}")
    energy = params.admit(energy, l)
    b, s = params.b, math.sqrt(2.0 / energy)
    lw = l * (1.0 - 2.0 * b * b * energy)
    value = PI * (s - 2.0 * l) * (s / (s + 4.0 * b * b / (lw + math.hypot(lw, 2.0 * b))))
    return PhaseIntegralResult(value=value, kind="closed_form")


def level_closed(b: float, n: float, l: float) -> float:
    """Reduced level Ẽ = E/(m e2^2) of (n, l) at b = beta m e2: Phi = 2 pi n solved exactly.

    Real n and l, 0 < n < inf and 0 <= l < inf, else ValueError, an int past
    the float range too, as :func:`~snyder_coulomb.model.check_level` decides
    for both level cores; n' = n + l.  A b not >= 0, nan included, raises
    ValueError too (:func:`~snyder_coulomb.model.check_deformation`).
    Algebraically, in u = sqrt(2 Ẽ).  For l = 0 (the 1D problem) the condition is
    b n u^2 + n u - 1 = 0 in u > 0, solved in the cancellation-free form
    u = 2 / (n + sqrt(n^2 + 4 b n)); Ẽ lies below the pole exactly when
    b < 2n.  At b = 0 this is 1/(2 n^2).

    For l > 0, with A = 2, N = 2n + l and K = N^2 - l^2 = 4n(n + l),
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
    as b < N (b A < 2N with A = 2), which compares an int b past the float
    range without converting it; an infeasible level raises NoRootInWindow
    quoting that rule, and no Phi is evaluated.  So does a float Ẽ = u^2/2
    not strictly inside the window (:func:`~snyder_coulomb.model.window_top`):
    rounded onto the pole or underflowing to 0.  Where u0^4 overflows (n' below
    about 1e-77), or an int n is so large (past about 1e154) that n^2 or K
    leaves the float range, it raises ScaleOutOfRange on either channel; a
    float n that large rounds to a Ẽ of 0 instead.  The messages name no level.
    """
    check_level(n, l)
    check_deformation(b)
    a, big_n = 2.0, 2 * n + l
    if not b < big_n:  # b A < 2N, compared without converting an int b
        raise NoRootInWindow(f"beta m e2{quote(b, ' = ')} is not below 2n + l = {big_n}")
    try:  # an int n whose square leaves the float range, or u0^4 past it: n' below about 1e-77
        if l == 0:
            u = a / (n + math.sqrt(n * n + 4.0 * b * n))
        else:
            # the invariants of g and g', each rounded as in the products: 2.0 * k * u
            # is (2.0 * k) * u
            k = 4 * n * (n + l)
            kb2 = k * b * b
            n_minus, n_plus, two_k, two_na, four_kb2 = (
                big_n - l, big_n + l, 2.0 * k, 2.0 * big_n * a, 4.0 * kb2)
            lo, hi = 0.0, a / n_plus
            u = hi
            for _ in range(100):
                g = (n_minus * u - a) * (n_plus * u - a) - kb2 * u**4
                if g == 0.0:
                    break
                if g > 0.0:
                    lo = u
                else:
                    hi = u
                slope = two_k * u - two_na - four_kb2 * u**3
                # g'(u0) = -2 A l at b = 0 can round to 0 where l << n: bisect instead
                new = u - g / slope if slope < 0.0 else 0.5 * (lo + hi)
                if not lo <= new <= hi:
                    new = 0.5 * (lo + hi)
                step, u = abs(new - u), new
                if step <= _NEWTON_RTOL * u:
                    break
    except OverflowError:
        raise ScaleOutOfRange(f"the level {'quadratic' if l == 0 else 'quartic'} overflows"
                              f"{quote(n + l, ' at n + l = ')}") from None
    energy, top = u * u / 2.0, window_top(b, l)
    if not 0.0 < energy < top:
        raise NoRootInWindow(f"E/(m e2^2) = {energy!r} is not inside the open window (0, {top!r})")
    return energy


def energy_closed(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Exact binding energy of the level ``qn``: m e2^2 times :func:`level_closed`.

    Raises NoRootInWindow, naming ``params.beta``, where the level is
    infeasible and where ``PhysicalParams.admit`` refuses the physical E,
    which can round onto the top that Ẽ lies below; and ScaleOutOfRange
    where m e2^2 Ẽ leaves the float range.
    """
    try:
        energy = params.physical(level_closed(params.b, qn.n, qn.l))
        params.admit(energy, qn.l)
    except (NoRootInWindow, OutOfWindow) as exc:
        raise NoRootInWindow(f"level infeasible at beta={params.beta!r} for {qn}: {exc}") from None
    return energy


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
    bracket = min(1.0 / np_ - 1.0 / qn.l, -math.ulp(0.0))  # l < n': below 0 even if it rounds to 0
    return params.physical(newton * (1.0 + 2.0 * b * b / np_ * bracket))


def energy_3d_perturbative_ref(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """External perturbative comparator for the l >= 1 spectrum.

    Same prefactor as the l >= 1 :func:`energy_series` with bracket
    1/n' - 1/(l + 1/2) + 1/(2 l (l + 1/2)(l + 1)); the bracket vanishes
    identically at (n', l) = (2, 1).  Breaks down at l = 0.  Raises
    ScaleOutOfRange where b^2 is so large that the reduced value is not finite.
    """
    if qn.l == 0:
        raise RequiresNonzeroL("the perturbative comparator breaks down at l = 0")
    b, np_, l = params.b, qn.n_prime, qn.l
    bracket = 1.0 / np_ - 1.0 / (l + 0.5) + 1.0 / (2.0 * l * (l + 0.5) * (l + 1.0))
    reduced = 1.0 / (2.0 * np_ * np_) * (1.0 + 2.0 * b * b / np_ * bracket)
    if not math.isfinite(reduced):
        raise ScaleOutOfRange(f"the perturbative comparator leaves the float range at "
                              f"b = beta m e2 = {b!r} for {qn}: E/(m e2^2) = {reduced!r}")
    return params.physical(reduced)


def l_limit_study(
    params: PhysicalParams, energy: float, l_grid: Sequence[float]
) -> list[LLimitRow]:
    """Radial closed form along a grid of small l > 0 next to the 1D value.

    The gap column is the raw difference phi_radial(l) - phi_one_dim; it is
    dominated by the -pi*l band-offset term at small l, and the l -> 0
    limit of the radial closed form reproduces the 1D closed form exactly
    (for every beta), as the rows make visible.  Each row evaluates the 1D
    form, then the radial form; the first OutOfWindow failure is recorded
    in-row, as in :func:`~snyder_coulomb.numerics.spectrum_table`, and does
    not abort the study.  Each l is read by
    :func:`~snyder_coulomb.model.as_float`, so an int past the float range
    fails as the inf of its sign.
    """
    rows: list[LLimitRow] = []
    for l in map(as_float, l_grid):
        phi_1d = math.nan
        try:
            phi_1d = phase_integral_1d_closed(params, energy).value
            phi_r = radial_phase_integral_closed(params, energy, l).value
            rows.append(LLimitRow(l, phi_r, phi_1d, phi_r - phi_1d))
        except OutOfWindow as exc:
            error = f"{type(exc).__name__}: {exc}"
            rows.append(LLimitRow(l, math.nan, phi_1d, math.nan, error))
    return rows
