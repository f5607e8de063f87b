"""Quadrature of the raw phase-integral integrands and spectrum solving.

This module deliberately never reuses the closed forms to produce a number:
the integrands are integrated as written, so closed form and quadrature are
two independent routes to every phase integral.  Agreement between them is
the core cross-check of the package (see ``verify-integrals`` in the CLI
and the acceptance tests).

Units: the public functions take and return physical energies, and
everything between computes in the reduced units of ``model.PhysicalParams``:
Ẽ = E/(m e2^2) and b = beta m e2, so no formula here carries m or e2.

Quadrature strategy: a trapezoid rule in log variables.  One array core,
``_phase_rows``, evaluates the raw integrands for many float (E, l) rows at
once, as a rows x nodes array per order, and refuses the rows its floats
cannot represent.  The integrands are analytic, so the rule converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014):

* the real-line integrand is even; p = e^s maps (0, inf) to the line, and
  s spans ln sqrt(2Ẽ) +- 45 starting at 450 panels (h = 0.2), shared by
  all l = 0 rows;
* band integrands use z = e^s, s = ln z- + ln(z+/z-) sin^2(phi): the log
  sends the 1/z pole to s -> -inf, and sin^2 absorbs the square-root
  vanishing at both band edges, so the integrand in phi is smooth and
  vanishes at both ends.  The l >= 1 rows share one phi grid, starting at
  16 (2 + floor(L/8)) panels for the widest row's L = ln(z+/z-).

The error estimate is |T_n - T_{n/2}|: the half-order sum is taken over
every other node of the same array, so it costs no evaluations.  While any
row's estimate exceeds ``QUAD_RTOL`` relative, the panel count of the whole
array doubles, up to ``MAX_PANELS``; each row keeps its first sum that met
the tolerance, and a row that never meets it fails alone.  The tolerance is
fixed: the rule converges so fast that once the estimate meets any
tolerance, the sum itself is at roundoff, so a tighter one would change no
output, only the number of nodes.

Every level has two routes, and neither gates the other.  The closed-form
route is algebraic (``analytic.energy_closed``): no root search.  The
quadrature route solves Phi(E) = 2 pi n for a whole table at once,
infeasible levels included: each level's bracket starts just below its
undeformed level E0 = 1 / (2 n'^2), which the deformation lowers, and
widens geometrically inside the energy window, then Anderson-Bjorck regula
falsi runs in u = Ẽ^(-1/2), where Phi is exactly linear at b = 0, with one
array evaluation per round over the levels still open, until each bracket
is ``ROOT_RTOL`` wide relative; the level is the secant root through the
converged bracket's ends, else the last iterate.  A level that fails
records its error in its own row.
``phase_integral_numeric`` and ``energy_numeric`` are one-row calls of the
same code, so this module loads no scipy.

All operations are pure; tables are evaluated sequentially and ordered by
(n', l) regardless of how callers might parallelize.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import (
    energy_closed,
    energy_series,
    level_closed,
    phase_integral_1d_closed,
    PhaseIntegralResult,
    radial_phase_integral_closed,
)
from .errors import (
    DegenerateFit,
    NoRootInWindow,
    OutOfWindow,
    SnyderCoulombError,
    ToleranceNotReached,
)
from .model import PhysicalParams, QuantumNumbers, finite_float, window_top

__all__ = [
    "SpectrumEntry",
    "CorrectionFit",
    "LLimitRow",
    "phase_integral_numeric",
    "energy_numeric",
    "spectrum_table",
    "correction_order",
    "l_limit_study",
]

TWO_PI = 2.0 * math.pi
MAX_PANELS = 1 << 14  # panel cap of the trapezoid rule
QUAD_RTOL = 1e-10  # relative error estimate the trapezoid rule must meet
ROOT_RTOL = 1e-12  # relative bracket width of a quadrature-route level
NOISE_FLOOR = 1e-13  # smallest relative correction correction_order fits
# Smallest reduced energy of a band (l >= 1) row: the band integrand divides
# by about 2 l^2 E^3 at its lower edge z- ~ l^2 E^2, which leaves the normal
# floats near E = 2e-103 (l = 1).
BAND_FLOOR = 1e-100
# Largest reduced energy of a line (l = 0) row: the line integrand divides by
# (p^2 + 2E)(1 + b^2 p^2), p^2 up to 2E e^90, which can overflow above E = 6e229.
LINE_CEILING = 1e200


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
    f: Callable[[np.ndarray], np.ndarray], a, b, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n-panel trapezoid sums over [a, b] of the rows of the array function ``f``.

    ``f`` maps the nodes a + h k, k = 0..n (one row of nodes per row of
    ``a`` and ``b`` when they are arrays), to a rows x nodes array.  The
    error estimate |T_n - T_{n/2}| reuses every other node of the same
    evaluation.  While any row's estimate exceeds ``QUAD_RTOL * |T_n|``, n
    doubles for the whole array; each row keeps the sum of its own first
    order that met ``QUAD_RTOL``, but the starting order ``n`` is the
    batch's, so a row's value can depend on the rows beside it.  A row still
    missing after a doubling past ``MAX_PANELS`` comes back NaN, with its
    last estimate.  Returns (values, error estimates).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    value, err, missing = np.nan, np.nan, True
    while True:
        h = (b - a) / n
        y = f(a[..., None] + h[..., None] * _indices(n))
        ends = 0.5 * (y[..., 0] + y[..., -1])
        total = h * (y.sum(axis=-1) - ends)
        estimate = np.abs(total - 2.0 * h * (y[..., ::2].sum(axis=-1) - ends))
        met = missing & (estimate <= QUAD_RTOL * np.abs(total))
        if met.all():  # every row meets it at this order: the usual case, at the first
            return total, estimate
        err = np.where(missing, estimate, err)
        value = np.where(met, total, value)
        missing = missing & ~met
        if not np.any(missing) or 2 * n > MAX_PANELS:
            return value, err
        n *= 2


@functools.lru_cache(maxsize=64)
def _indices(n: int) -> np.ndarray:
    """The node indices k = 0..n of an n-panel rule, cached per n and read-only."""
    k = np.arange(n + 1)
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=64)
def _phi_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(phi) and sin(2 phi) on the n-panel grid phi = (pi/2) k/n, cached and read-only."""
    phi = (math.pi / 2.0 / n) * _indices(n)
    factors = np.sin(phi) ** 2, np.sin(2.0 * phi)
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _missed(energy: float, l: float, estimate: float) -> ToleranceNotReached:
    """The error of a row that :func:`_phase_rows` left NaN: refused (estimate inf) or missed."""
    if estimate == math.inf:
        return ToleranceNotReached(f"trapezoid rule takes band rows down to E/(m e2^2) = "
                                   f"{BAND_FLOOR!r} and l = 0 rows up to {LINE_CEILING!r}, "
                                   f"got {energy!r} at l={l!r}")
    return ToleranceNotReached(
        f"trapezoid rule did not reach rtol={QUAD_RTOL!r} within "
        f"{MAX_PANELS} panels (estimate {estimate:.3g})"
    )


def _infeasible(params: PhysicalParams, qn: QuantumNumbers, residual: float) -> NoRootInWindow:
    """The error for a level with no root, quoting Phi - 2 pi n at the window top."""
    return NoRootInWindow(
        f"Phi(E) - 2 pi n = {residual!r} does not change sign inside the reduced window "
        f"(0, {window_top(params.b, qn.l)!r}) for {qn}: level infeasible at beta={params.beta!r}"
    )


def _band_edges(energy: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band edges (z_minus, z_plus) in z = p_rho^2 at the rows (energy[i], l[i]), reduced.

    The roots of z^2 - 4(q - Ẽ) z + (2Ẽ)^2, q = 1/l^2.  No validation:
    every row must lie strictly inside its window (l > 0, 0 < Ẽ < top), so
    that q - 2Ẽ > 0 and z_minus < z_plus.  z_plus is evaluated directly,
    z_minus through the product z_minus z_plus = (2Ẽ)^2, free of
    cancellation at small Ẽ.
    """
    q = 1.0 / (l * l)
    z_plus = 2.0 * (q - energy + (1.0 / l) * np.sqrt(q - 2.0 * energy))
    two_e = 2.0 * energy
    return two_e * two_e / z_plus, z_plus


def _phase_rows(b: float, energy: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loop phase integrals at the float rows (energy[i], l[i]), from the raw integrands, reduced.

    The rows must lie strictly inside their windows, where every band has
    positive width; a band row below ``BAND_FLOOR`` or a line row above
    ``LINE_CEILING`` is refused: NaN, with estimate inf.  The l = 0 rows integrate
    2 / ((p^2 + 2Ẽ)(1 + b^2 p^2)) over the real line, as twice the
    integral over p = e^s, s in ln sqrt(2Ẽ) +- 45, on one array starting
    at 450 panels.  The l >= 1 rows integrate
    l sqrt((z - z-)(z+ - z)) / (z (z + 2Ẽ)(1 + b^2 z)) over the band
    between the edges z- < z+ (:func:`_band_edges`, one call for all rows),
    with z = e^s and s = ln z- + L sin^2(phi), L = ln(z+/z-), on one shared
    grid of phi in [0, pi/2] starting at 16 (2 + floor(L/8)) panels for the
    widest row's L.  Returns (values, error estimates) as arrays; a row
    that missed ``QUAD_RTOL`` is NaN with its last estimate (:func:`_missed`).
    """
    b2 = b * b
    two_e = 2.0 * energy
    value, err = np.full(energy.shape, np.nan), np.full(energy.shape, np.inf)

    line = np.flatnonzero((l == 0) & (energy <= LINE_CEILING))
    if line.size:
        line_two_e = two_e[line, None]

        def line_integrand(s: np.ndarray) -> np.ndarray:
            p = np.exp(s)
            p2 = p * p
            raw = 2.0 / ((p2 + line_two_e) * (1.0 + b2 * p2))
            return 2.0 * raw * p  # even: twice the half line; dp = p ds

        centre = 0.5 * np.log(two_e[line])
        value[line], err[line] = _trapezoid(line_integrand, centre - 45.0, centre + 45.0, 450)

    band = np.flatnonzero((l != 0) & (energy >= BAND_FLOOR))
    if band.size:
        band_l, band_two_e = l[band, None], two_e[band, None]
        z_minus, z_plus = _band_edges(energy[band, None], band_l)
        log_z_minus, width = np.log(z_minus), np.log(z_plus / z_minus)

        def band_integrand(phi: np.ndarray) -> np.ndarray:
            # phi is the grid of [0, pi/2] with phi.size nodes: its factors are cached
            sin2, sin_double = _phi_factors(phi.size - 1)
            z = np.exp(log_z_minus + width * sin2)
            radicand = np.maximum((z - z_minus) * (z_plus - z), 0.0)
            raw = band_l * np.sqrt(radicand) / (z * (z + band_two_e) * (1.0 + b2 * z))
            return raw * z * width * sin_double  # dz = z ds

        panels = 16 * (2 + int(width.max() // 8.0))
        value[band], err[band] = _trapezoid(band_integrand, 0.0, math.pi / 2.0, panels)
    return value, err


def phase_integral_numeric(params: PhysicalParams, energy: float, l: int) -> PhaseIntegralResult:
    """Loop phase integral at one (E, l), evaluated from the raw integrand.

    A one-row call of :func:`_phase_rows`, which describes both rules and
    the rows it refuses.  Must agree with the closed-form counterpart
    within quadrature tolerance.  Raises OutOfWindow at the points where
    the closed forms do (``PhysicalParams.admit``) and ToleranceNotReached
    when the rule misses ``QUAD_RTOL`` or refuses the row (a band row below
    ``BAND_FLOOR`` or a line row above ``LINE_CEILING``).  At the
    circular-orbit endpoint, which ``PhysicalParams.admit`` flags, the band
    has zero width: the value is 0 with error 0, and no rule runs.
    """
    energy, endpoint = params.admit(energy, l)
    if endpoint:
        return PhaseIntegralResult(value=0.0, kind="numeric", err_estimate=0.0)
    value, err = _phase_rows(params.b, np.array([energy]), np.array([l], dtype=float))
    if math.isnan(value[0]):
        raise _missed(energy, l, err[0])
    return PhaseIntegralResult(value=float(value[0]), kind="numeric", err_estimate=float(err[0]))


def _solve_levels(params: PhysicalParams, levels: Sequence[QuantumNumbers]) -> list:
    """Roots of the quadrature Phi(E) = 2 pi n for all ``levels`` together, reduced.

    Each bracket starts at [E0/4, min(E0, top)] below the undeformed level
    E0 = 1/(2 n'^2), which the deformation lowers, top = ``window_top(b, l)``
    (1 - 1e-9), and either end widens by factors of 4 until the residual
    changes sign.  An upper end that reaches top without a sign change
    makes the level infeasible (``_infeasible``, quoting this route's
    residual), and so does an empty window (top = 0: 2 b^2 overflows), at
    once.  Regula falsi then shrinks the bracket in u = E^(-1/2), where Phi
    is exactly linear at beta = 0, until its relative width in E is at most
    ``ROOT_RTOL``.  When the new iterate c lands on the side of the last
    one b, the other end stays, its residual scaled by Anderson-Bjorck's
    m = 1 - f_c/f_b, or by Illinois' 1/2 where m <= 0 (Anderson & Bjorck,
    BIT 13, 1973).  The root is the secant root through the unscaled
    residuals at the converged bracket's two ends, where they differ in
    sign and it lies inside the bracket, else the last iterate.  Every
    round evaluates all levels still open in one :func:`_phase_rows` call.
    Returns, per level, its reduced energy Ẽ or the SnyderCoulombError that
    stopped it; a failure stays in its own row.
    """
    result: list = [None] * len(levels)
    active = np.ones(len(levels), dtype=bool)
    l = np.array([qn.l for qn in levels], dtype=float)
    target = TWO_PI * np.array([qn.n for qn in levels], dtype=float)
    e0 = 1.0 / (2.0 * np.array([qn.n_prime for qn in levels], dtype=float) ** 2)
    top = np.array([window_top(params.b, qn.l) * (1.0 - 1e-9) for qn in levels])

    def fail(i: int, exc: SnyderCoulombError) -> None:
        result[i], active[i] = exc, False

    def residual(rows: np.ndarray, energy: np.ndarray) -> np.ndarray:
        phi, err = _phase_rows(params.b, energy, l[rows])
        for k in np.flatnonzero(np.isnan(phi)):
            fail(rows[k], _missed(float(energy[k]), levels[rows[k]].l, err[k]))
        return phi - target[rows]

    for i in np.flatnonzero(top == 0.0):  # 2 b^2 overflows: no bracket fits
        fail(i, NoRootInWindow(f"empty reduced window (0, 0.0) for {levels[i]}"))
    hi = np.where(active, np.minimum(e0, top), e0)  # below E0, which the deformation lowers
    lo = hi / 4.0
    f_lo, f_hi = np.zeros(len(levels)), np.zeros(len(levels))
    widen_lo, widen_hi = active.copy(), active.copy()
    for _ in range(100):
        at_lo, at_hi = np.flatnonzero(widen_lo & active), np.flatnonzero(widen_hi & active)
        if not at_lo.size + at_hi.size:
            break
        f = residual(np.concatenate([at_lo, at_hi]), np.concatenate([lo[at_lo], hi[at_hi]]))
        f_lo[at_lo], f_hi[at_hi] = f[: at_lo.size], f[at_lo.size :]
        widen_lo, widen_hi = f_lo <= 0.0, f_hi >= 0.0
        for i in np.flatnonzero(widen_hi & active & (hi >= top)):
            fail(i, _infeasible(params, levels[i], float(f_hi[i])))
        lo = np.where(widen_lo, lo / 4.0, lo)
        hi = np.where(widen_hi, np.minimum(4.0 * hi, top), hi)
    else:
        for i in np.flatnonzero(active & (widen_lo | widen_hi)):
            fail(i, NoRootInWindow(f"no sign change of Phi(E) - 2 pi n found for {levels[i]}"))

    # u = E^(-1/2) rises as E falls, and so does Phi: f_a > 0 > f_b.
    u_a, u_b, f_a, f_b = lo**-0.5, hi**-0.5, f_lo, f_hi
    r_a = f_a.copy()  # the unscaled residual at a; b is the last iterate, never scaled
    tol = ROOT_RTOL / 2.0  # relative width in u; E = u^-2 doubles it
    for _ in range(100):
        active &= ~(np.abs(u_b - u_a) <= tol * u_b)
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        a, b, fa, fb = u_a[rows], u_b[rows], f_a[rows], f_b[rows]
        c = b - fb * (b - a) / (fb - fa)
        least = 0.5 * tol * b  # a step below tolerance moves no bracket end
        c = np.where(np.abs(c - b) < least, b + np.copysign(least, a - b), c)
        c = np.where((np.minimum(a, b) < c) & (c < np.maximum(a, b)), c, 0.5 * (a + b))
        fc = residual(rows, 1.0 / (c * c))
        kept = fc * fb > 0.0  # same side as b: a stays, its residual scaled by m
        m = 1.0 - fc / fb  # Anderson-Bjorck's m, or Illinois' 1/2 where m <= 0
        u_a[rows] = np.where(fc == 0.0, c, np.where(kept, a, b))
        f_a[rows] = np.where(kept, np.where(m > 0.0, m, 0.5) * fa, fb)
        r_a[rows] = np.where(kept, r_a[rows], fb)
        u_b[rows], f_b[rows] = c, fc
    else:
        for i in np.flatnonzero(active):
            fail(i, ToleranceNotReached(
                f"regula falsi did not reach rtol={ROOT_RTOL!r} "
                f"in 100 steps for {levels[i]}"
            ))
    # the root of the secant through the unscaled residuals at the converged ends,
    # where they differ in sign and it falls inside the bracket, else the last iterate
    ends = np.flatnonzero(r_a * f_b < 0.0)
    a, b, fa, fb = u_a[ends], u_b[ends], r_a[ends], f_b[ends]
    c = b - fb * (b - a) / (fb - fa)
    inside = (np.minimum(a, b) <= c) & (c <= np.maximum(a, b))
    u_b[ends[inside]] = c[inside]
    return [
        float(1.0 / (u * u)) if found is None else found
        for u, found in zip(u_b.tolist(), result)
    ]


def energy_numeric(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Root of the quadrature Phi(E) = 2 pi n for the level ``qn``.

    A one-level call of the table solver :func:`_solve_levels`, which
    describes the search.  Raises NoRootInWindow when the level is
    infeasible at this deformation (no root inside the window) and
    ToleranceNotReached when the quadrature or the root search misses its
    tolerance.
    """
    (energy,) = _solve_levels(params, [qn])
    if isinstance(energy, SnyderCoulombError):
        raise energy
    return params.physical(energy)


def spectrum_table(params: PhysicalParams, n_prime_max: int) -> list[SpectrumEntry]:
    """All levels with 1 <= n' <= n_prime_max, 0 <= l <= n' - 1.

    Entries are ordered by (n', l).  Both routes solve every level: the
    closed route one at a time, the quadrature route all in one table-wide
    search (see :func:`_solve_levels`: brackets starting below each
    undeformed level, Anderson-Bjorck regula falsi, a final secant), one
    array evaluation of Phi per round.  A row's error is the closed route's
    failure, else the quadrature route's; it does not abort the table or
    move the other rows.
    """
    if n_prime_max < 1:
        raise ValueError(f"n_prime_max must be >= 1, got {n_prime_max!r}")
    levels = [
        QuantumNumbers(n=n_prime - l, l=l)
        for n_prime in range(1, n_prime_max + 1)
        for l in range(n_prime)
    ]
    entries: list[SpectrumEntry] = []
    for qn, e_numeric in zip(levels, _solve_levels(params, levels)):
        try:
            e_closed = energy_closed(params, qn)
        except SnyderCoulombError as exc:  # per-entry isolation
            e_numeric = exc
        e_newton = params.physical(1.0 / (2.0 * qn.n_prime**2))
        e_series = energy_series(params, qn)
        if isinstance(e_numeric, SnyderCoulombError):  # the closed failure, else the numeric one
            entries.append(SpectrumEntry(
                qn, e_newton, math.nan, math.nan, e_series,
                error=f"{type(e_numeric).__name__}: {e_numeric}",
            ))
        else:
            entries.append(SpectrumEntry(qn, e_newton, e_closed, params.physical(e_numeric),
                                         e_series))
    return entries


def correction_order(
    params_base: PhysicalParams,
    qn: QuantumNumbers,
    beta_grid: Sequence[float],
) -> CorrectionFit:
    """Fitted power of beta of the relative energy correction for ``qn``.

    Solves the closed-form quantization at each beta in ``beta_grid``, in
    reduced units (the ratio E(beta)/E(0) is free of m e2^2), and fits
    log|E(beta)/E(0) - 1| against log beta by least squares.  The 1D
    channel has slope 1, the l >= 1 channels slope 2.  Grid points with a
    correction below ``NOISE_FLOOR`` are excluded; fewer than two usable
    points raise DegenerateFit.  ``params_base.beta`` must be 0.
    """
    if params_base.beta != 0.0:
        raise ValueError(f"params_base.beta must be 0, got {params_base.beta!r}")
    betas = [finite_float("beta", b) for b in beta_grid]
    if len(betas) < 4:
        raise ValueError("beta_grid needs at least 4 points")
    if any(b <= 0 for b in betas):
        raise ValueError("beta_grid entries must be > 0")
    if math.log10(max(betas) / min(betas)) < 1.5 - 1e-12:
        raise ValueError("beta_grid must span at least 1.5 decades")

    e_ref = 1.0 / (2.0 * qn.n_prime**2)
    log_b, log_c = [], []
    for beta in betas:
        energy = level_closed(params_base.deformation(beta), qn)
        corr = abs(energy / e_ref - 1.0)
        if corr < NOISE_FLOOR:
            continue
        log_b.append(math.log(beta))
        log_c.append(math.log(corr))
    if len(log_b) < 2:
        raise DegenerateFit(
            f"only {len(log_b)} correction(s) above the {NOISE_FLOOR!r} noise floor for {qn}"
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
    (for every beta), as the rows make visible.  Each row evaluates the 1D
    form, then the radial form; the first OutOfWindow failure is recorded
    in-row, as in :func:`spectrum_table`, and does not abort the study.
    """
    rows: list[LLimitRow] = []
    for l in l_grid:
        phi_1d = math.nan
        try:
            phi_1d = phase_integral_1d_closed(params, energy).value
            phi_r = radial_phase_integral_closed(params, energy, float(l)).value
            rows.append(LLimitRow(float(l), phi_r, phi_1d, phi_r - phi_1d))
        except OutOfWindow as exc:
            error = f"{type(exc).__name__}: {exc}"
            rows.append(LLimitRow(float(l), math.nan, phi_1d, math.nan, error))
    return rows
