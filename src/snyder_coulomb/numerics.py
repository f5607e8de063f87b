"""Quadrature of the raw phase-integral integrands and spectrum solving.

This module deliberately never reuses the closed forms to produce a number:
the integrands are integrated as written, so closed form and quadrature are
two independent routes to every phase integral.  Agreement between them is
the core cross-check of the package (see ``verify-integrals`` in the CLI
and the acceptance tests).

Quadrature strategy: a trapezoid rule in log variables, evaluated as one
numpy array per Phi.  The integrands are analytic, so the rule converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014):

* the real-line integrand is even; p = e^s maps (0, inf) to the line, and
  s spans ln sqrt(2mE) +- 45 starting at 450 panels (h = 0.2);
* band integrands use z = e^s, s = ln z- + ln(z+/z-) sin^2(phi): the log
  sends the 1/z pole to s -> -inf, and sin^2 absorbs the square-root
  vanishing at both band edges, so the integrand in phi is smooth and
  vanishes at both ends.  The rule starts at 16 (2 + floor(L/8)) panels,
  L = ln(z+/z-).

The error estimate is |T_n - T_{n/2}|: the half-order sum is taken over
every other node of the same array, so it costs no evaluations.  While it
exceeds ``quad_rtol`` (default 1e-10, never below the roundoff floor
``RTOL_FLOOR``) relative, the panel count doubles, up to ``MAX_PANELS``.

The energy solver has two routes.  The closed-form route is algebraic
(``energy_1d_closed`` and ``energy_3d_closed``): no root search.  The
quadrature route brackets the root of Phi(E) = 2 pi n starting from the
undeformed level m e2^2 / (2 n'^2), expanding geometrically inside the
energy window, then polishes with Brent's method.

scipy is imported on first use: ``brentq`` (and ``dynamics.solve_ivp``)
are module attributes resolved by a module ``__getattr__`` (PEP 562) and
called through the module, so a replacement assigned to them is the one
called.  Only the quadrature route's root solve loads scipy.

All operations are pure; tables are evaluated sequentially and ordered by
(n', l) regardless of how callers might parallelize.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import (
    _infeasible,
    energy_1d_closed,
    energy_1d_series,
    energy_3d_closed,
    energy_3d_series,
    phase_integral_1d_closed,
    PhaseIntegralResult,
    radial_phase_integral_closed,
    turning_points,
)
from .errors import (
    DegenerateFit,
    NoRootInWindow,
    OutOfWindow,
    SnyderCoulombError,
    ToleranceNotReached,
)
from .model import PhysicalParams, QuantumNumbers, energy_window

__all__ = [
    "SpectrumEntry",
    "CorrectionFit",
    "LLimitRow",
    "phase_integral_numeric",
    "solve_bs_energy",
    "spectrum_table",
    "correction_order",
    "l_limit_study",
]

TWO_PI = 2.0 * math.pi
MAX_PANELS = 1 << 14  # panel cap of the trapezoid rule
RTOL_FLOOR = 1e-14  # the trapezoid rule's smallest relative tolerance

_SCIPY = {"brentq": "scipy.optimize"}
_module = sys.modules[__name__]


def __getattr__(name: str):
    """Import ``brentq`` from scipy on first access (PEP 562)."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY[name]), name)
    globals()[name] = value
    return value


@dataclass(frozen=True)
class SpectrumEntry:
    """One (n', l) level with all four energy determinations.

    ``error`` carries a per-entry solver failure; the solved energies are
    NaN in that case while e_newton and e_series stay populated.
    """

    qn: QuantumNumbers
    e_newton: float
    e_closed: float
    e_numeric: float
    e_series: float
    error: str | None = None


@dataclass(frozen=True)
class CorrectionFit:
    """Least-squares fit of log|E(beta)/E(0) - 1| against log beta."""

    slope: float
    intercept: float
    rms_residual: float
    n_used: int


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


def _trapezoid(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int, rtol: float
) -> tuple[float, float]:
    """n-panel trapezoid sum of the array function ``f`` over [a, b].

    The error estimate |T_n - T_{n/2}| reuses every other node of the same
    evaluation.  While it exceeds ``rtol * |T_n|``, n doubles; a doubling
    past ``MAX_PANELS`` raises ToleranceNotReached instead.  ``rtol`` is
    clamped to ``RTOL_FLOOR``, the roundoff of the two sums.  Returns
    (value, error estimate) as Python floats.
    """
    if not rtol > 0:
        raise ValueError("quadrature tolerances must be > 0")
    rtol = max(rtol, RTOL_FLOOR)
    while True:
        h = (b - a) / n
        y = f(a + h * np.arange(n + 1))
        ends = 0.5 * (y[0] + y[-1])
        value = h * (y.sum() - ends)
        err = abs(value - 2.0 * h * (y[::2].sum() - ends))
        if err <= rtol * abs(value):
            return float(value), float(err)
        if 2 * n > MAX_PANELS:
            raise ToleranceNotReached(
                f"trapezoid rule did not reach rtol={rtol!r} within "
                f"{MAX_PANELS} panels (estimate {err:.3g})"
            )
        n *= 2


def phase_integral_numeric(
    params: PhysicalParams,
    energy: float,
    l: int,
    quad_rtol: float = 1e-10,
) -> PhaseIntegralResult:
    """Loop phase integral evaluated from the raw integrand.

    l = 0: integrates 2 m e2 / ((p^2 + 2mE)(1 + beta^2 p^2)) over the real
    line, as twice the integral over p = e^s, s in ln sqrt(2mE) +- 45.
    l >= 1: integrates
    l sqrt((z - z-)(z+ - z)) / (z (z + 2mE)(1 + beta^2 z)) over the band,
    with z = e^s and s = ln z- + ln(z+/z-) sin^2(phi), phi in [0, pi/2].
    Must agree with the closed-form counterpart within quadrature tolerance.
    """
    m, e2, beta = params.m, params.e2, params.beta
    window = energy_window(params, l if l >= 1 else 0)
    if not window.contains(energy) and not (l >= 1 and energy == window.e_max):
        raise OutOfWindow(f"E={energy!r} outside window {window} at l={l}")
    two_m_e = 2.0 * m * energy
    b2 = beta * beta

    if l == 0:

        def line_integrand(s: np.ndarray) -> np.ndarray:
            p = np.exp(s)
            p2 = p * p
            raw = 2.0 * m * e2 / ((p2 + two_m_e) * (1.0 + b2 * p2))
            return 2.0 * raw * p  # even: twice the half line; dp = p ds

        centre = 0.5 * math.log(two_m_e)
        value, err = _trapezoid(line_integrand, centre - 45.0, centre + 45.0, 450, quad_rtol)
        return PhaseIntegralResult(value=value, kind="numeric", err_estimate=err)

    tp = turning_points(params, energy, l)
    if tp.degenerate:
        return PhaseIntegralResult(value=0.0, kind="numeric", err_estimate=0.0)
    z_minus, z_plus = tp.z_minus, tp.z_plus
    log_z_minus, width = math.log(z_minus), math.log(z_plus / z_minus)

    def band_integrand(phi: np.ndarray) -> np.ndarray:
        z = np.exp(log_z_minus + width * np.sin(phi) ** 2)
        radicand = np.maximum((z - z_minus) * (z_plus - z), 0.0)
        raw = l * np.sqrt(radicand) / (z * (z + two_m_e) * (1.0 + b2 * z))
        return raw * z * width * np.sin(2.0 * phi)  # dz = z ds

    panels = 16 * (2 + int(width // 8.0))
    value, err = _trapezoid(band_integrand, 0.0, math.pi / 2.0, panels, quad_rtol)
    return PhaseIntegralResult(value=value, kind="numeric", err_estimate=err)


def solve_bs_energy(
    params: PhysicalParams,
    qn: QuantumNumbers,
    method: str = "closed_form",
    quad_rtol: float = 1e-10,
    root_rtol: float = 1e-12,
) -> float:
    """Solve the quantization condition Phi(E) = 2 pi n for the level ``qn``.

    ``method="closed_form"`` solves it algebraically: ``energy_1d_closed``
    (checked against the window) for l = 0, ``energy_3d_closed`` for
    l >= 1; ``quad_rtol`` and ``root_rtol`` do not enter.  ``method="numeric"``
    finds the root of the quadrature Phi: the bracket starts at
    [E0/4, min(4 E0, window top)] around the undeformed level
    E0 = m e2^2/(2 n'^2) and expands geometrically until the residual
    changes sign; Brent's method then refines to relative width
    ``root_rtol`` (at least 9e-16).  Raises NoRootInWindow when the level
    is infeasible at this deformation (no root inside the window).
    """
    if method not in ("closed_form", "numeric"):
        raise ValueError(f"method must be 'closed_form' or 'numeric', got {method!r}")
    if not root_rtol > 0:
        raise ValueError(f"root_rtol must be > 0, got {root_rtol!r}")
    if not quad_rtol > 0:
        raise ValueError("quadrature tolerances must be > 0")
    n, l = qn.n, qn.l
    window = energy_window(params, l)
    if method == "closed_form":
        if l >= 1:
            return energy_3d_closed(params, qn)
        energy = energy_1d_closed(params, n)
        if not window.contains(energy):
            raise _infeasible(params, qn)
        return energy

    target = TWO_PI * n
    e0 = params.m * params.e2**2 / (2.0 * qn.n_prime**2)

    def residual(energy: float) -> float:
        return phase_integral_numeric(params, energy, l, quad_rtol).value - target

    top = window.e_max * (1.0 - 1e-9)
    lo = min(e0, top) / 4.0
    hi = min(4.0 * e0, top)

    f_lo = residual(lo)
    for _ in range(100):
        if f_lo > 0.0:
            break
        lo /= 4.0
        f_lo = residual(lo)
    else:
        raise NoRootInWindow(f"Phi never exceeds 2 pi n near E -> 0 for {qn}")

    f_hi = residual(hi)
    for _ in range(100):
        if f_hi < 0.0:
            break
        if hi >= top:
            raise NoRootInWindow(
                f"Phi(E) - 2 pi n = {f_hi!r} does not change sign inside "
                f"(0, {window.e_max!r}) for {qn}: level infeasible at beta={params.beta!r}"
            )
        hi = min(4.0 * hi, top)
        f_hi = residual(hi)
    else:
        raise NoRootInWindow(f"no sign change found up to E={hi!r} for {qn}")

    return float(
        _module.brentq(residual, lo, hi, xtol=e0 * 1e-15, rtol=max(root_rtol, 9e-16))
    )


def spectrum_table(
    params: PhysicalParams,
    n_prime_max: int,
    quad_rtol: float = 1e-10,
    root_rtol: float = 1e-12,
) -> list[SpectrumEntry]:
    """All levels with 1 <= n' <= n_prime_max, 0 <= l <= n' - 1.

    Entries are ordered by (n', l).  Solver failures are recorded in-row
    and do not abort the table.
    """
    if n_prime_max < 1:
        raise ValueError(f"n_prime_max must be >= 1, got {n_prime_max!r}")
    entries: list[SpectrumEntry] = []
    for n_prime in range(1, n_prime_max + 1):
        e_newton = params.m * params.e2**2 / (2.0 * n_prime**2)
        for l in range(0, n_prime):
            qn = QuantumNumbers(n=n_prime - l, l=l)
            e_series = (
                energy_1d_series(params, n_prime)
                if l == 0
                else energy_3d_series(params, qn)
            )
            try:
                e_closed = solve_bs_energy(params, qn, "closed_form", quad_rtol, root_rtol)
                e_numeric = solve_bs_energy(params, qn, "numeric", quad_rtol, root_rtol)
                entries.append(
                    SpectrumEntry(qn, e_newton, e_closed, e_numeric, e_series)
                )
            except SnyderCoulombError as exc:  # per-entry isolation
                entries.append(
                    SpectrumEntry(
                        qn,
                        e_newton,
                        math.nan,
                        math.nan,
                        e_series,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return entries


def correction_order(
    params_base: PhysicalParams,
    qn: QuantumNumbers,
    beta_grid: Sequence[float],
    noise_floor: float = 1e-13,
) -> CorrectionFit:
    """Fitted power of beta of the relative energy correction for ``qn``.

    Solves the closed-form quantization at each beta in ``beta_grid`` and
    fits log|E(beta)/E(0) - 1| against log beta by least squares.  The 1D
    channel has slope 1, the l >= 1 channels slope 2.  Grid points with a
    correction below ``noise_floor`` are excluded; fewer than two usable
    points raise DegenerateFit.
    """
    betas = [float(b) for b in beta_grid]
    if len(betas) < 4:
        raise ValueError("beta_grid needs at least 4 points")
    if any(b <= 0 for b in betas):
        raise ValueError("beta_grid entries must be > 0")
    if math.log10(max(betas) / min(betas)) < 1.5 - 1e-12:
        raise ValueError("beta_grid must span at least 1.5 decades")

    e_ref = params_base.m * params_base.e2**2 / (2.0 * qn.n_prime**2)
    log_b, log_c = [], []
    for beta in betas:
        deformed = PhysicalParams(params_base.m, params_base.e2, beta)
        energy = solve_bs_energy(deformed, qn, "closed_form")
        corr = abs(energy / e_ref - 1.0)
        if corr < noise_floor:
            continue
        log_b.append(math.log(beta))
        log_c.append(math.log(corr))
    if len(log_b) < 2:
        raise DegenerateFit(
            f"only {len(log_b)} correction(s) above the {noise_floor!r} noise floor for {qn}"
        )
    slope, intercept = np.polyfit(log_b, log_c, 1)
    fitted = slope * np.asarray(log_b) + intercept
    rms = float(np.sqrt(np.mean((np.asarray(log_c) - fitted) ** 2)))
    return CorrectionFit(
        slope=float(slope),
        intercept=float(intercept),
        rms_residual=rms,
        n_used=len(log_b),
    )


def l_limit_study(
    params: PhysicalParams, energy: float, l_grid: Sequence[float]
) -> list[LLimitRow]:
    """Radial closed form along a grid of small l > 0 next to the 1D value.

    The gap column is the raw difference phi_radial(l) - phi_one_dim; it is
    dominated by the -pi*l band-offset term at small l, and the l -> 0
    limit of the radial closed form reproduces the 1D closed form exactly
    (for every beta), as the rows make visible.  OutOfWindow failures are
    recorded in-row, as in :func:`spectrum_table`, and do not abort the
    study; when the 1D form fails, the radial form is not evaluated.
    """
    try:
        phi_1d = phase_integral_1d_closed(params, energy).value
    except OutOfWindow as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [LLimitRow(float(l), math.nan, math.nan, math.nan, error) for l in l_grid]
    rows: list[LLimitRow] = []
    for l in l_grid:
        try:
            phi_r = radial_phase_integral_closed(params, energy, float(l)).value
            rows.append(LLimitRow(float(l), phi_r, phi_1d, phi_r - phi_1d))
        except OutOfWindow as exc:
            error = f"{type(exc).__name__}: {exc}"
            rows.append(LLimitRow(float(l), math.nan, phi_1d, math.nan, error))
    return rows
