"""Quadrature of the raw phase-integral integrands and spectrum solving.

The quadrature route deliberately never reuses the closed forms to produce
a number: the integrands are integrated as written, so closed form and
quadrature are two independent routes to every phase integral.  Agreement
between them is the core cross-check of the package (see
``verify-integrals`` in the CLI and the acceptance tests).
``spectrum_table`` puts the two routes side by side, and
``correction_order`` fits the closed-form levels, with numpy's ``polyfit``.
The closed-form-only ``l_limit_study`` lives in ``analytic``, which needs
no numpy; this module binds it too.

Units: the public functions take and return physical energies, and
everything between computes in the reduced units of ``model.PhysicalParams``:
Ẽ = E/(m e2^2) and b = beta m e2, so no formula here carries m or e2.

Quadrature strategy: a trapezoid rule in log variables.  One array core,
``_phase_rows``, evaluates the raw integrands for many float (E, l) rows at
once, as a rows x nodes array per order, and refuses the rows its floats
cannot represent.  Each integrand is a function of the panel count, read
from factors cached per count, so the rule (``_trapezoid``) forms no nodes.
The integrands are analytic, so the rule converges exponentially
(Trefethen & Weideman, SIAM Review 56, 2014):

* the real-line integrand is even; in t = p / sqrt(2Ẽ) = e^x it reads
  4t / ((1 + t^2)(1 + 2Ẽ b^2 t^2)) dx / sqrt(2Ẽ), and x spans -45..45
  starting at 450 panels (h = 0.2).  Every l = 0 row shares the factors
  t^2 and 4t / (1 + t^2), so a line row takes no exp: one multiply, add
  and divide per node, and one division by sqrt(2Ẽ) of the sum;
* band integrands use z = e^s, s = ln z- + L sin^2(phi), L = ln(z+/z-):
  the log sends the 1/z pole to s -> -inf, and sin^2 absorbs the
  square-root vanishing at both band edges, so the integrand in phi is
  smooth and vanishes at both ends.  The raw integrand's 1/z cancels
  dz = z ds, and l L is one factor per row.  The l > 0 rows share one phi
  grid, starting at 64 panels, whose sin^2(phi) and sin(2 phi) are cached.

The error estimate is |T_n - T_{n/2}|: the half-order sum is taken over
every other node of the same array, so it costs no evaluations.  While any
row's estimate exceeds ``QUAD_RTOL`` relative, the panel count of the whole
array doubles, up to ``MAX_PANELS``; each row keeps its first sum that met
the tolerance, and a row that never meets it fails alone.  Both rules start
at a fixed order, so a row reads as its one-row call, and a table's level
equals its one-level solve.  The tolerance is fixed: the rule converges so
fast that once the estimate meets any tolerance, the sum itself is at
roundoff, so a tighter one would change no output, only the number of nodes.

Every level has two routes, and neither gates the other; both cores take
(b, n, l), b = beta m e2 and real n > 0, l >= 0 (``analytic.level_closed``,
``_solve_levels``), and the public entries pass ``PhysicalParams.b`` and
unwrap ``QuantumNumbers``; ``model.check_level`` alone decides which
(n, l) is a level.  The closed-form route is algebraic
(``analytic.energy_closed``): a quadratic in closed form, or a bracketed
Newton iteration on the level quartic, which evaluates no Phi.  The quadrature
route solves Phi(E) = 2 pi n for a whole table at once, infeasible levels
included, by a safeguarded secant method in u = Ẽ^(-1/2), where Phi is
exactly linear at b = 0: each level starts at its undeformed level
E0 = 1 / (2 n'^2), which the deformation lowers, or just below the window
top, and its residuals' signs keep a bracket on it.  Each round is one
array evaluation over the levels still open; a level ends at its first
step under ``ROOT_RTOL`` relative in Ẽ, at b = 0 its very first.  A level
that fails records its error in its own row.
``phase_integral_numeric`` and ``energy_numeric`` are one-row calls of the
same code, so this module loads no scipy.

All operations are pure; tables are evaluated sequentially and ordered by
(n', l) regardless of how callers might parallelize.  A beta sweep of tables
of one shape builds their b-free structure once: ``spectrum_table`` keeps
the levels of its latest shape (``_table_levels``), with their float l rows,
targets 2 pi n and starts E0 (``_level_set``), read-only.  That cache holds
no energy, no Phi and nothing that depends on b, and changes no result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analytic import (  # l_limit_study stays readable from here
    energy_closed,
    energy_series,
    l_limit_study,
    level_closed,
    PhaseIntegralResult,
)
from .errors import (
    DegenerateFit,
    NoRootInWindow,
    ScaleOutOfRange,
    SnyderCoulombError,
    ToleranceNotReached,
)
from .model import (PhysicalParams, QuantumNumbers, check_level, finite_float, quantum_number,
                    window_top)

__all__ = [
    "SpectrumEntry",
    "CorrectionFit",
    "phase_integral_numeric",
    "energy_numeric",
    "spectrum_table",
    "correction_order",
]

TWO_PI = 2.0 * math.pi
MAX_PANELS = 1 << 14  # panel cap of the trapezoid rule
QUAD_RTOL = 1e-10  # relative error estimate the trapezoid rule must meet
ROOT_RTOL = 1e-12  # a quadrature-route level ends at a step under this, relative in E
SLOPE_B0 = math.pi * math.sqrt(2.0)  # dPhi/du at b = 0 on both channels, u = E^(-1/2)
NOISE_FLOOR = 1e-13  # smallest relative correction correction_order fits
# Smallest reduced energy of a band (l > 0) row: not a float limit, but the domain
# the band rule has been checked on.
BAND_FLOOR = 1e-100
# Bound on z+^2 and on the edge ratio z+/z- of a band row, with z+ z- = (2E)^2: below
# it every factor of the band integrand is finite (z+ ~ 4/l^2 at small l, so z+/z-
# leaves the floats once l^2 E is below about 1.5e-154, and z+^2 first when E > 1/2).
_EDGE_LIMIT = 2.0**1022


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


def _trapezoid(
    f: Callable[[int], np.ndarray], width: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n-panel trapezoid sums over an interval ``width`` wide of the rows of ``f``.

    ``f`` is a function of the panel count: ``f(n)`` is the rows x (n + 1)
    array of the integrand at the nodes k = 0..n, h = width / n apart, built
    from factors cached per count, so the rule forms no node array.  Each
    sum is ``np.add.reduce`` along a row, as ``.sum`` takes it, never a BLAS
    product, whose order of summation can depend on the number of rows.
    The error estimate |T_n - T_{n/2}| reuses every other node of the same
    evaluation.  While any row's estimate exceeds ``QUAD_RTOL * |T_n|``, n
    doubles for the whole array; each row keeps the sum of its own first
    order that met ``QUAD_RTOL``, so a row's value does not depend on the
    rows beside it.  A row still missing after a doubling past
    ``MAX_PANELS`` comes back NaN, with its last estimate.  Returns
    (values, error estimates).
    """
    value, err, missing = np.nan, np.nan, True
    while True:
        h = width / n
        y = f(n)
        ends = 0.5 * (y[..., 0] + y[..., -1])
        total = h * (np.add.reduce(y, axis=-1) - ends)
        estimate = np.abs(total - 2.0 * h * (np.add.reduce(y[..., ::2], axis=-1) - ends))
        met = missing & (estimate <= QUAD_RTOL * np.abs(total))
        if np.logical_and.reduce(met, axis=None):  # every row meets it: the usual case, at once
            return total, estimate
        err = np.where(missing, estimate, err)
        value = np.where(met, total, value)
        missing = missing & ~met
        if not missing.any() or 2 * n > MAX_PANELS:
            return value, err
        n *= 2


@functools.lru_cache(maxsize=64)
def _phi_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(phi) and sin(2 phi) on the n-panel grid phi = (pi/2) k/n, cached and read-only."""
    phi = (math.pi / 2.0 / n) * np.arange(n + 1)
    factors = np.sin(phi) ** 2, np.sin(2.0 * phi)
    for factor in factors:
        factor.flags.writeable = False
    return factors


@functools.lru_cache(maxsize=64)
def _line_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """t^2 and 4t/(1 + t^2) at t = e^x, x = -45 + (90/n) k, k = 0..n, cached and read-only."""
    t = np.exp(-45.0 + (90.0 / n) * np.arange(n + 1))
    factors = t * t, 4.0 * t / (1.0 + t * t)
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _missed(energy: float, l: float, estimate: float) -> ToleranceNotReached:
    """The error of a row that :func:`_phase_rows` left NaN: refused (estimate inf) or missed."""
    if estimate == math.inf:
        return ToleranceNotReached(f"trapezoid rule takes band rows down to E/(m e2^2) = "
                                   f"{BAND_FLOOR!r}, with z+^2 and z+/z- below 2^1022; "
                                   f"got {energy!r} at l={l!r}")
    return ToleranceNotReached(
        f"trapezoid rule did not reach rtol={QUAD_RTOL!r} within "
        f"{MAX_PANELS} panels (estimate {estimate:.3g})"
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
    positive width, and below 2^1023, where 2Ẽ is finite.  A band row is
    refused, NaN with estimate inf and no trapezoid round, below
    ``BAND_FLOOR`` or where its z+^2 or z+/z- reaches 2^1022, past which a
    factor of its integrand overflows.  The l = 0 rows integrate
    2 / ((p^2 + 2Ẽ)(1 + b^2 p^2)) over the real line, as twice the
    integral over p = sqrt(2Ẽ) t, t = e^x, x in [-45, 45]: the sum of
    4t / ((1 + t^2)(1 + 2Ẽ b^2 t^2)) on the shared nodes, with t^2 and
    4t / (1 + t^2) cached (:func:`_line_factors`), divided by sqrt(2Ẽ),
    on one array starting at 450 panels.  The l > 0 rows integrate
    l sqrt((z - z-)(z+ - z)) / (z (z + 2Ẽ)(1 + b^2 z)) over the band
    between the edges z- < z+ (:func:`_band_edges`, one call for all rows),
    with z = e^s and s = ln z- + L sin^2(phi), L = ln(z+/z-), on one shared
    grid of phi in [0, pi/2] starting at 64 panels; the 1/z cancels
    dz = z ds, and l L is one factor per row.  Every operation acts on a
    row alone, so a row reads as its one-row call, bit for bit.  Returns
    (values, error estimates) as arrays; a row that missed ``QUAD_RTOL`` is
    NaN with its last estimate (:func:`_missed`).
    """
    b2 = b * b
    two_e = 2.0 * energy
    value, err = np.full(energy.shape, np.nan), np.full(energy.shape, np.inf)

    line = (l == 0).nonzero()[0]
    if line.size:
        line_c = (two_e[line] * b2)[:, None]  # 2Ẽ b^2 < 1 inside the window

        def line_integrand(n: int) -> np.ndarray:  # on x in [-45, 45]
            t2, weight = _line_factors(n)
            return weight / (1.0 + line_c * t2)

        total, estimate = _trapezoid(line_integrand, 90.0, 450)
        scale = np.sqrt(two_e[line])  # p = sqrt(2Ẽ) t
        value[line], err[line] = total / scale, estimate / scale

    band = ((l != 0) & (energy >= BAND_FLOOR)).nonzero()[0]
    if band.size:
        with np.errstate(all="ignore"):  # edges past the float range: refused just below
            z_minus, z_plus = _band_edges(energy[band, None], l[band, None])
            ratio = z_plus / z_minus
            held = (np.maximum(z_plus * z_plus, ratio) < _EDGE_LIMIT)[:, 0]
        if not held.all():
            band, z_minus, z_plus, ratio = band[held], z_minus[held], z_plus[held], ratio[held]
    if band.size:
        band_two_e = two_e[band, None]
        log_z_minus, width = np.log(z_minus), np.log(ratio)
        factor = l[band, None] * width  # l times L, of ds = L sin(2 phi) dphi

        def band_integrand(n: int) -> np.ndarray:  # on phi in [0, pi/2]
            sin2, sin_double = _phi_factors(n)
            z = np.exp(log_z_minus + width * sin2)
            radicand = np.maximum((z - z_minus) * (z_plus - z), 0.0)
            # the raw integrand's 1/z cancels dz = z ds
            return factor * np.sqrt(radicand) * sin_double / ((z + band_two_e) * (1.0 + b2 * z))

        value[band], err[band] = _trapezoid(band_integrand, math.pi / 2.0, 64)
    return value, err


def phase_integral_numeric(params: PhysicalParams, energy: float, l: float) -> PhaseIntegralResult:
    """Loop phase integral at one (E, l), evaluated from the raw integrand.

    A one-row call of :func:`_phase_rows`, which describes both rules and
    the rows it refuses.  Must agree with the closed-form counterpart
    within quadrature tolerance.  Raises OutOfWindow at the points where
    the closed forms do (``PhysicalParams.admit``), at the circular-orbit
    bound too, before any rule runs, and ToleranceNotReached when the rule
    misses ``QUAD_RTOL`` or refuses the row (a band row below ``BAND_FLOOR``
    or with band edges past the float range).
    """
    energy = params.admit(energy, l)
    value, err = _phase_rows(params.b, np.array([energy]), np.array([l], dtype=float))
    if math.isnan(value[0]):
        raise _missed(energy, l, err[0])
    return PhaseIntegralResult(value=float(value[0]), kind="numeric", err_estimate=float(err[0]))


def _level_set(n: Sequence[float], l: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The b-free arrays of the levels (n[i], l[i]), read-only, reduced.

    The float l rows, the targets 2 pi n and the undeformed levels
    E0 = 1/(2 n'^2), n' = n + l (inf past the float range).  Raises
    ValueError unless ``model.check_level`` takes every (n[i], l[i]):
    0 < n < inf and 0 <= l < inf, an int past the float range too.
    """
    for pair in zip(n, l):
        check_level(*pair)
    n_rows, l_rows = np.array(n, dtype=float), np.array(l, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):  # an E0 past the float range fails per call
        arrays = (l_rows, TWO_PI * n_rows, 1.0 / (2.0 * (n_rows + l_rows) ** 2))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _solve_levels(b: float, n: Sequence[float], l: Sequence[float],
                  level_set: tuple[np.ndarray, ...] | None = None) -> list:
    """Roots of the quadrature Phi(E) = 2 pi n at the levels (n[i], l[i]) together, reduced.

    The core takes what ``analytic.level_closed`` takes: b = beta m e2, and
    real n and l, 0 < n < inf and 0 <= l < inf (else ValueError, an int past
    the float range too), with n' = n + l; the messages name a level by its
    n and l, and quote b as ``beta m e2``.  A safeguarded secant method runs
    in u = E^(-1/2), where Phi rises with u and is exactly linear at b = 0,
    with slope pi sqrt(2) on both channels.  Each level starts at min(E0,
    top): its undeformed level E0 = 1/(2 n'^2), which the deformation
    lowers, or top = ``window_top(b, l)`` (1 - 1e-9).  All that does not
    depend on b is ``level_set``, :func:`_level_set` of (n, l), built here
    unless the caller passes it (a table passes its cached one); b enters
    only the tops, the secant and the quadrature.  A level's first step
    takes the b = 0 slope, and each later one the secant through its last
    two iterates.  Each residual's sign moves one end of the level's bracket; a
    step that leaves the bracket bisects it, or doubles u while no residual
    above 0 is known, and no step goes above top.  A residual >= 0 at top
    makes the level infeasible, quoting that residual, and so does an empty
    window (top = 0: 2 b^2 overflows), at once; a start outside 0 < E <
    2^1023, the energies :func:`_phase_rows` takes, raises ScaleOutOfRange,
    at once.  A level is done at the end of its first step shorter than
    ``ROOT_RTOL``/2 relative in u (``ROOT_RTOL`` in E), which is not
    evaluated.  A level still open after 100 rounds fails: NoRootInWindow
    while no residual above 0 is known, else ToleranceNotReached.  Every
    round evaluates all levels still open in one :func:`_phase_rows` call.
    Returns, per level, its reduced energy Ẽ or the SnyderCoulombError that
    stopped it; a failure stays in its own row.
    """
    result: list = [None] * len(n)
    active = np.ones(len(n), dtype=bool)
    l_rows, target, e0 = _level_set(n, l) if level_set is None else level_set
    top = np.array([window_top(b, x) * (1.0 - 1e-9) for x in l])
    start = np.minimum(e0, top)

    def fail(i: int, exc: SnyderCoulombError) -> None:
        result[i], active[i] = exc, False

    def residual(rows: np.ndarray, energy: np.ndarray) -> np.ndarray:
        phi, err = _phase_rows(b, energy, l_rows[rows])
        for k in np.isnan(phi).nonzero()[0]:
            fail(rows[k], _missed(float(energy[k]), l[rows[k]], err[k]))
        return phi - target[rows]

    for i in (top == 0.0).nonzero()[0]:  # 2 b^2 overflows: no level fits below the top
        fail(i, NoRootInWindow(f"empty reduced window (0, 0.0) for n={n[i]}, l={l[i]}"))
    for i in (active & ~((0.0 < start) & (start < 2.0**1023))).nonzero()[0]:
        fail(i, ScaleOutOfRange(f"the start E/(m e2^2) = {float(start[i])!r} leaves the float "
                                f"range for n={n[i]}, l={l[i]}"))

    # u = E^(-1/2) rises as E falls, and so does Phi; lo starts at the top, untried
    u, lo = np.where(active, start, 1.0) ** -0.5, np.where(active, top, 1.0) ** -0.5
    u_top, hi = lo.copy(), np.full(len(n), math.inf)
    below = np.zeros(len(n), dtype=bool)  # a residual below 0 is known at lo
    u_last, f_last = np.zeros(len(n)), np.zeros(len(n))
    tol = ROOT_RTOL / 2.0  # relative step in u; E = u^-2 doubles it
    for step in range(100):
        rows = active.nonzero()[0]
        if not rows.size:
            break
        x = u[rows]
        f = residual(rows, start[rows] if step == 0 else 1.0 / (x * x))
        for k in ((f >= 0.0) & (x == u_top[rows])).nonzero()[0]:
            i = rows[k]
            fail(i, NoRootInWindow(  # quoting Phi - 2 pi n at the window top
                f"Phi(E) - 2 pi n = {float(f[k])!r} does not change sign inside the reduced "
                f"window (0, {window_top(b, l[i])!r}) for n={n[i]}, l={l[i]}: level "
                f"infeasible at beta m e2 = {b!r}"))
        neg = f < 0.0
        lo[rows], hi[rows] = np.where(neg, x, lo[rows]), np.where(neg, hi[rows], x)
        below[rows] |= neg
        low, high, down = lo[rows], hi[rows], below[rows]
        with np.errstate(all="ignore"):  # a flat or repeated secant reads inf or nan
            c = x - f / (SLOPE_B0 if step == 0 else (f - f_last[rows]) / (x - u_last[rows]))
        bound = np.where(high < math.inf, high, 2.0 * low)  # no residual above 0 yet: double u
        escape = np.where(high < math.inf, 0.5 * (low + high), bound)
        c = np.where(~down & (c <= low), low, np.where((low <= c) & (c <= bound), c, escape))
        u_last[rows], f_last[rows], u[rows] = x, f, c
        active[rows[np.abs(c - x) < tol * c]] = False
    for i in active.nonzero()[0]:  # still open after 100 rounds
        if hi[i] == math.inf:
            fail(i, NoRootInWindow(f"no sign change of Phi(E) - 2 pi n found for n={n[i]}, "
                                   f"l={l[i]}"))
        else:
            fail(i, ToleranceNotReached(f"secant method did not reach rtol={ROOT_RTOL!r} "
                                        f"in 100 steps for n={n[i]}, l={l[i]}"))
    return [
        float(1.0 / (x * x)) if found is None else found
        for x, found in zip(u.tolist(), result)
    ]


def energy_numeric(params: PhysicalParams, qn: QuantumNumbers) -> float:
    """Root of the quadrature Phi(E) = 2 pi n for the level ``qn``.

    A one-level call of the table solver :func:`_solve_levels`, which
    describes the search.  Raises NoRootInWindow when the level is
    infeasible at this deformation (no root inside the window) and
    ToleranceNotReached when the quadrature or the root search misses its
    tolerance.
    """
    (energy,) = _solve_levels(params.b, [qn.n], [qn.l])
    if isinstance(energy, SnyderCoulombError):
        raise energy
    return params.physical(energy)


@functools.lru_cache(maxsize=1)
def _table_levels(n_prime_max: int) -> tuple[tuple[QuantumNumbers, ...], tuple, tuple, tuple]:
    """An ``n_prime_max``-shell table's levels, ordered by (n', l), with their n, l and level set.

    The level set is :func:`_level_set` of the n and l.  Cached for the
    latest shape only: its n'(n' + 1)/2 ``QuantumNumbers``, the n and l
    tuples and three read-only float arrays stay alive until a table of
    another shape, about 2M levels at 2,000 shells.
    """
    levels = tuple(
        QuantumNumbers(n=n_prime - l, l=l)
        for n_prime in range(1, n_prime_max + 1)
        for l in range(n_prime)
    )
    n, l = tuple(qn.n for qn in levels), tuple(qn.l for qn in levels)
    return levels, n, l, _level_set(n, l)


def spectrum_table(params: PhysicalParams, n_prime_max: int) -> list[SpectrumEntry]:
    """All levels with 1 <= n' <= n_prime_max, 0 <= l <= n' - 1.

    Entries are ordered by (n', l).  Both routes solve every level: the
    closed route one at a time, the quadrature route all in one table-wide
    search (see :func:`_solve_levels`: a safeguarded secant method from
    each undeformed level), one array evaluation of Phi per round.  A row's
    error is the closed route's failure, else the quadrature route's; it
    does not abort the table or move the other rows.  Raises ValueError
    unless ``n_prime_max`` is an integer from 1 to 2**53 (numpy's too), not a
    bool, before any level is built (``model.quantum_number``).
    A beta sweep of one shape builds its levels once (:func:`_table_levels`).
    """
    levels, n, l, level_set = _table_levels(quantum_number("n_prime_max", n_prime_max, 1))
    entries: list[SpectrumEntry] = []
    solved = _solve_levels(params.b, n, l, level_set)
    for qn, e_numeric in zip(levels, solved):
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
    points raise DegenerateFit.  ``params_base.beta`` must be 0, and each
    beta passes model's rule ``beta must be finite and > 0``
    (:func:`~snyder_coulomb.model.finite_float` with ``positive``).
    """
    if params_base.beta != 0.0:
        raise ValueError(f"params_base.beta must be 0, got {params_base.beta!r}")
    betas = [finite_float("beta", b, positive=True) for b in beta_grid]
    if len(betas) < 4:
        raise ValueError("beta_grid needs at least 4 points")
    if math.log10(max(betas) / min(betas)) < 1.5 - 1e-12:
        raise ValueError("beta_grid must span at least 1.5 decades")

    n, l = qn.n, qn.l
    e_ref = 1.0 / (2.0 * qn.n_prime**2)
    log_b, log_c = [], []
    for beta in betas:
        try:
            energy = level_closed(params_base.deformation(beta), n, l)
        except NoRootInWindow as exc:
            raise NoRootInWindow(f"{qn}: {exc}") from None
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
