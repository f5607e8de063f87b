"""Closed-form phase integrals, the quadrature's band edges, and spectra.

The radial closed form is cross-checked here against an independent
partial-fraction evaluation (band integrals of sqrt((z-a)(b-z))/(z+g) have
the elementary value pi*((a+b)/2 + g - sqrt((a+g)(b+g)))); the quadrature
cross-check lives in test_numerics.
"""

import inspect
import math
import random

import numpy as np
import pytest

from snyder_coulomb import (
    NoRootInWindow,
    OutOfWindow,
    PhysicalParams,
    QuantumNumbers,
    RequiresNonzeroL,
    ScaleOutOfRange,
    analytic,
    energy_closed,
    energy_3d_perturbative_ref,
    level_closed,
    energy_series,
    phase_integral_1d_closed,
    radial_phase_integral_closed,
    window_top,
)
from snyder_coulomb.numerics import _band_edges

PI = math.pi
INFEASIBLE = r"beta m e2 = .* is not below 2n \+ l"

# Independently derived reference values (frozen):
# root of beta n u^2 + n u - m e2 = 0 at m = e2 = 1, beta = 0.1, n = 1
E_1D_BETA01_N1 = 0.4196010845019197
# radial loop integral at m = e2 = 1, E = 0.125, l = 1, beta = 0.1,
# confirmed by partial fractions and adaptive quadrature of the raw integrand
PHI_RADIAL_BETA01 = 1.9901227376726076 * PI


def band_integral_reference(params, energy, l):
    """Partial-fraction evaluation of the radial loop integral.

    Independent of the production formula and of the quadrature: finds the
    band edges a < b as the roots of z^2 - 4m(q - E) z + (2mE)^2 = 0
    (q = m e2^2/l^2), decomposes the integrand over simple poles and sums
    three elementary band integrals.
    """
    m, c = params.m, 2.0 * params.m * energy
    half_sum = 2.0 * m * (m * params.e2**2 / (l * l) - energy)
    b = half_sum + math.sqrt(half_sum * half_sum - c * c)
    a = c * c / b

    def elementary(g):
        return PI * (half_sum + g - math.sqrt((a + g) * (b + g)))

    if params.beta == 0.0:
        # 1/(z(z+c)) = (1/c)(1/z - 1/(z+c))
        return l * (elementary(0.0) - elementary(c)) / c
    d = 1.0 / params.beta**2
    w = 1.0 - params.beta**2 * c
    return l * (
        elementary(0.0) / c
        - elementary(c) / (c * w)
        + params.beta**2 * elementary(d) / w
    )


def forbidden(*args):
    raise AssertionError("the closed route called a function it must not use")


def forbid_closed_phi(monkeypatch):
    """Make both closed Phi functions raise: energy_closed must be algebraic."""
    monkeypatch.setattr(analytic, "phase_integral_1d_closed", forbidden)
    monkeypatch.setattr(analytic, "radial_phase_integral_closed", forbidden)


class TestTurningPoints:
    """The band edges z- <= z+ in reduced z = p_rho^2, which only the quadrature reads."""

    def test_degenerate_circular_orbit(self):
        # at the circular bound E = q/2 = 1/(2 l^2) both edges are 2E
        l = np.array([1, 2, 3, 4])
        energy = 1.0 / (2.0 * l * l)
        z_minus, z_plus = _band_edges(energy, l)
        assert np.array_equal(z_plus, 2 * energy)
        assert z_minus == pytest.approx(z_plus, rel=1e-15)
        assert z_minus[0] == z_plus[0] == 1.0  # l = 1: E = 1/2

    def test_generic_band(self):
        edges = _band_edges(np.array([0.125]), np.array([1]))
        (z_minus,), (z_plus,) = edges
        assert z_minus == pytest.approx(0.0179491924311227, rel=1e-12)
        assert z_plus == pytest.approx(3.4820508075688772, rel=1e-12)
        assert z_minus * z_plus == pytest.approx(0.0625, rel=1e-12)
        assert z_minus + z_plus == pytest.approx(3.5, rel=1e-12)
        assert z_minus < z_plus

    def test_product_and_sum_identities_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            l = rng.integers(1, 5, 50)
            q = 1.0 / l**2
            energy = rng.uniform(0.01, 0.999, 50) * q / 2  # below the circular bound
            z_minus, z_plus = _band_edges(energy, l)
            assert z_minus * z_plus == pytest.approx((2 * energy) ** 2, rel=1e-12)
            assert z_minus + z_plus == pytest.approx(4 * (q - energy), rel=1e-12)
            assert np.all((0 < z_minus) & (z_minus < z_plus))

    def test_turning_points_are_beta_independent(self):
        # the edges are a function of (E, l) alone: no deformation reaches them
        assert list(inspect.signature(_band_edges).parameters) == ["energy", "l"]
        energy, l = np.array([0.125, 0.05, 0.02]), np.array([1, 1, 2])
        assert _band_edges(energy, l)[1][0] == pytest.approx(3.4820508075688772, rel=1e-14)


class TestPhaseIntegral1D:
    def test_ground_state_newtonian(self):
        res = phase_integral_1d_closed(PhysicalParams(1, 1, 0), 0.5)
        assert res.value == pytest.approx(2 * PI, rel=1e-14)
        assert res.kind == "closed_form"
        assert res.err_estimate is None

    def test_deformed_root_gives_full_loop(self):
        res = phase_integral_1d_closed(PhysicalParams(1, 1, 0.1), E_1D_BETA01_N1)
        assert res.value == pytest.approx(2 * PI, rel=1e-13)

    def test_second_level_newtonian(self):
        res = phase_integral_1d_closed(PhysicalParams(1, 1, 0), 0.125)
        assert res.value == pytest.approx(4 * PI, rel=1e-14)

    def test_rejects_energy_at_pole(self):
        with pytest.raises(OutOfWindow):
            phase_integral_1d_closed(PhysicalParams(1, 1, 2.0), 0.125)

    def test_strictly_decreasing_in_energy(self):
        for beta in (0.0, 0.01, 0.1):
            params = PhysicalParams(1, 1, beta)
            values = [
                phase_integral_1d_closed(params, e).value
                for e in np.linspace(0.01, 2.0, 400)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestRadialPhaseIntegral:
    def test_newtonian_level(self):
        res = radial_phase_integral_closed(PhysicalParams(1, 1, 0), 0.125, 1)
        assert res.value == pytest.approx(2 * PI, rel=1e-14)

    def test_deformed_frozen_value(self):
        res = radial_phase_integral_closed(PhysicalParams(1, 1, 0.1), 0.125, 1)
        assert res.value == pytest.approx(PHI_RADIAL_BETA01, rel=1e-13)

    def test_degenerate_endpoint_is_zero(self):
        # the closed form uses no band code: the endpoint is admit's
        newtonian = radial_phase_integral_closed(PhysicalParams(1, 1, 0), 0.125, 1).value
        assert newtonian == pytest.approx(2 * PI, rel=1e-14)
        assert radial_phase_integral_closed(PhysicalParams(1, 1, 0), 0.5, 1).value == 0.0
        # the circular-orbit band has zero width for beta > 0 as well
        assert radial_phase_integral_closed(PhysicalParams(1, 1, 0.1), 0.5, 1).value == 0.0

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(PhysicalParams(1, 1, 0), 0.6, 1)
        # deformation pole bound: E = 0.2 > 1/(2 beta^2 m) = 0.125 at l = 1, beta = 2
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(PhysicalParams(1, 1, 2.0), 0.2, 1)

    def test_rejects_nan_l(self):
        with pytest.raises(ValueError, match="l must be > 0"):
            radial_phase_integral_closed(PhysicalParams(1, 1, 0), 0.1, math.nan)

    def test_beta_zero_reduces_to_newtonian_bitwise(self):
        params = PhysicalParams(1, 1, 0)
        for energy, l in [(0.125, 1), (0.05, 1), (0.04, 2), (0.3, 1)]:
            value = radial_phase_integral_closed(params, energy, l).value
            newtonian = PI * (math.sqrt(2 * 1 * 1**2 / energy) - 2 * l)
            assert value == newtonian

    def test_newtonian_levels_give_integer_loops(self):
        params = PhysicalParams(1, 1, 0)
        for n_prime in range(1, 8):
            energy = 1.0 / (2.0 * n_prime**2)
            for l in range(1, n_prime):
                value = radial_phase_integral_closed(params, energy, l).value
                assert value == pytest.approx(2 * PI * (n_prime - l), rel=1e-12)

    def test_matches_partial_fraction_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(300):
            m = rng.uniform(0.3, 3.0)
            e2 = rng.uniform(0.3, 3.0)
            beta = rng.choice([0.0, 0.01, 0.05, 0.1, 0.3])
            l = int(rng.integers(1, 5))
            params = PhysicalParams(m, e2, beta)
            cap = min(
                m * e2**2 / (2 * l * l),
                math.inf if beta == 0 else 1 / (2 * beta**2 * m),
            )
            energy = rng.uniform(0.02, 0.98) * cap
            got = radial_phase_integral_closed(params, energy, l).value
            want = band_integral_reference(params, energy, l)
            worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-10

    def test_strictly_decreasing_in_energy(self):
        for beta, l in [(0.0, 1), (0.1, 1), (0.05, 2)]:
            params = PhysicalParams(1, 1, beta)
            cap = 0.5 / l**2
            values = [
                radial_phase_integral_closed(params, e, l).value
                for e in np.linspace(0.001, cap * 0.9999, 400)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_positive_on_open_window(self):
        params = PhysicalParams(1, 1, 0.1)
        for energy in np.linspace(0.001, 0.499, 200):
            assert radial_phase_integral_closed(params, energy, 1).value > 0

    @pytest.mark.parametrize("m,beta,l", [(1e304, 1e-152, 0.001), (1.0, 8e151, 0.01),
                                          (1.0, 0.1, 1e-200), (1.0, 0.0, 1e-200)])
    def test_overflowing_ratio_keeps_its_limit(self, m, beta, l):
        # 4 b^2/(l^2 W^2) overflows to inf, or l^2 underflows to 0; the tail
        # l (1 + sqrt(1 + ratio)) is then l + 2b/W, or 2l at b = 0, and Phi
        # stays finite and exact
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        energy = 0.125 if m > 1 else 1e-305
        e, b = mp.mpf(energy) / mp.mpf(m), mp.mpf(beta) * mp.mpf(m)
        w = 1 - 2 * b * b * e
        lm = mp.mpf(l)  # a float l * l underflows
        want = mp.pi * (mp.sqrt(2 / e) / w - lm * (1 + mp.sqrt(1 + 4 * b * b / (lm * lm * w * w))))
        got = radial_phase_integral_closed(PhysicalParams(m, 1, beta), energy, l).value
        assert abs(got - want) <= 1e-15 * abs(want)


class TestEnergy1D:
    def test_newtonian_ground_state(self):
        assert energy_closed(PhysicalParams(1, 1, 0), QuantumNumbers(1)) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_deformed_ground_state(self):
        got = energy_closed(PhysicalParams(1, 1, 0.1), QuantumNumbers(1))
        assert got == pytest.approx(E_1D_BETA01_N1, rel=1e-14)
        # quadratic-root oracle, same equation solved by numpy
        roots = np.roots([0.1 * 1, 1, -1.0])
        u = roots[roots > 0][0]
        assert got == pytest.approx(float(u * u / 2.0), rel=1e-12)

    def test_newtonian_n3(self):
        assert energy_closed(PhysicalParams(1, 1, 0), QuantumNumbers(3)) == pytest.approx(
            1 / 18, rel=1e-15
        )

    def test_self_consistency_with_phase_integral(self):
        for beta in (0.0, 0.01, 0.1):
            params = PhysicalParams(1, 1, beta)
            for n in range(1, 21):
                energy = energy_closed(params, QuantumNumbers(n))
                value = phase_integral_1d_closed(params, energy).value
                assert abs(value - 2 * PI * n) <= 1e-12 * 2 * PI * n

    def test_closed_and_series_are_the_1d_formulas_bitwise(self):
        # the quadratic root and the first-order series in reduced units,
        # written out, times m e2^2; the level is feasible exactly when b < 2n
        for m, e2 in ((1.0, 1.0), (2.0, 0.7)):
            for beta in (0.0, 1e-300, 1e-3, 0.05, 0.15, 0.9, 1.9):
                params = PhysicalParams(m, e2, beta)
                unit, b = params.unit, params.b
                for n in range(1, 21):
                    if b < 2 * n:
                        u = 2.0 / (n + math.sqrt(n * n + 4.0 * b * n))
                        assert energy_closed(params, QuantumNumbers(n)) == unit * (u * u / 2.0)
                    else:
                        with pytest.raises(NoRootInWindow):
                            energy_closed(params, QuantumNumbers(n))
                    series = 1.0 / (2.0 * n * n) * (1.0 - 2.0 * b / n)
                    assert energy_series(params, QuantumNumbers(n)) == unit * series

    @pytest.mark.parametrize("beta", [2.0, 5.0])
    def test_level_at_or_past_the_pole_is_infeasible(self, monkeypatch, beta):
        # beta m e2 >= 2n: the quadratic root lies at or past the pole
        params = PhysicalParams(1, 1, beta)
        u = 2.0 / (1 + math.sqrt(1 + 4.0 * beta))
        assert u * u / 2.0 >= window_top(params.b, 0)
        forbid_closed_phi(monkeypatch)
        with pytest.raises(NoRootInWindow, match=INFEASIBLE):
            energy_closed(params, QuantumNumbers(1))


def level_reference(beta, qn):
    """Level of ``qn`` at m = e2 = 1 from the unsquared condition, to 50 digits.

    Solves Phi(E) = 2 pi n in u = sqrt(2E) with mpmath, from the phase
    integrals written out (1D: 2/(u(1 + beta u)); l >= 1:
    2/(u W) - l - sqrt(l^2 + 4 beta^2/W^2) with W = 1 - beta^2 u^2).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        b, n, l = mp.mpf(beta), qn.n, qn.l

        def residual(u):
            if l == 0:
                return 2 / (u * (1 + b * u)) - 2 * n
            w = 1 - b * b * u * u
            return 2 / (u * w) - l - mp.sqrt(l * l + 4 * b * b / (w * w)) - 2 * n

        u = mp.findroot(residual, (mp.mpf(0.99) / qn.n_prime, mp.mpf(1) / qn.n_prime))
        return u * u / 2


def admissible_quartic_roots(beta, qn):
    """Roots u of the squared condition that solve the unsquared one (m = e2 = 1).

    All four roots of K beta^2 u^4 - K u^2 + 2 A N u - A^2 from numpy's
    companion matrix, kept when real, positive, below the pole and the
    circular-orbit bound, and of the sign A >= N u W before squaring.
    """
    n, l = qn.n, qn.l
    a, big_n, k = 2.0, 2 * n + l, 4 * n * (n + l)
    kept = []
    for root in np.roots([k * beta * beta, 0.0, -k, 2.0 * a * big_n, -a * a]):
        u = root.real
        if abs(root.imag) > 1e-9 * abs(root) or u <= 0:
            continue
        w = 1.0 - beta * beta * u * u
        if w > 1e-12 and u <= a / (2 * l) * (1 + 1e-12) and a >= big_n * u * w * (1 - 1e-9):
            kept.append(u)
    return kept


class TestEnergy3D:
    def test_newtonian_levels(self):
        params = PhysicalParams(1, 1, 0)
        for n_prime in range(2, 12):
            for l in range(1, n_prime):
                energy = energy_closed(params, QuantumNumbers(n_prime - l, l))
                assert energy == pytest.approx(0.5 / n_prime**2, rel=4.5e-16)

    def test_closed_levels_match_50_digit_references(self):
        # <= 4 ulp over the grid, both channels
        worst = 0.0
        for beta in (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.9):
            params = PhysicalParams(1, 1, beta)
            for n_prime in (1, 2, 3, 5, 8, 13, 21, 34, 50):
                for l in sorted({0, 1, 2, n_prime // 2, n_prime - 1} & set(range(n_prime))):
                    qn = QuantumNumbers(n_prime - l, l)
                    energy = energy_closed(params, qn)
                    ref = level_reference(beta, qn)
                    worst = max(worst, float(abs(energy - ref) / ref))
        assert worst <= 9e-16

    @pytest.mark.parametrize("beta", [0.0, 1e-12])
    def test_newton_step_outside_the_bracket_is_bisected(self, beta):
        # at n' = 49, l = 48 the factored g(u0) rounds to +4e-16 where it is
        # 0 or just below: the bracket closes on [u0, u0], Newton's step
        # leaves it upwards, and the bisection fallback keeps u = u0 (Newton
        # alone would return a level 2 ulp above the Newtonian bound)
        u0 = 2.0 / (2 * 1 + 2 * 48)
        assert energy_closed(PhysicalParams(1, 1, beta), QuantumNumbers(1, 48)) == u0 * u0 / 2.0

    @pytest.mark.parametrize("beta,n,l", [(3.0, 1, 1), (5.0, 1, 3), (5.0, 2, 1)])
    def test_root_on_the_pole_is_infeasible(self, monkeypatch, beta, n, l):
        # beta m e2 = 2n + l puts the root of the quartic exactly at u = 1/beta
        qn = QuantumNumbers(n, l)
        assert np.polyval([4 * n * (n + l) * beta**2, 0, -4 * n * (n + l),
                           4 * (2 * n + l), -4], 1 / beta) == pytest.approx(0, abs=1e-12)
        forbid_closed_phi(monkeypatch)
        with pytest.raises(NoRootInWindow, match=INFEASIBLE):
            energy_closed(PhysicalParams(1, 1, beta), qn)

    def test_one_admissible_quartic_root_exactly_when_feasible(self):
        for beta in [*np.linspace(0.01, 5, 120), 0.9, 3.0]:
            params = PhysicalParams(1, 1, beta)
            for n_prime in range(2, 11):
                for l in range(1, n_prime):
                    qn = QuantumNumbers(n_prime - l, l)
                    roots = admissible_quartic_roots(beta, qn)
                    try:
                        energy = energy_closed(params, qn)
                    except NoRootInWindow:
                        assert roots == [], (beta, qn)
                        continue
                    assert len(roots) == 1, (beta, qn, roots)
                    assert math.sqrt(2 * energy) == pytest.approx(roots[0], rel=1e-9)
                    assert 0 < energy < window_top(params.b, l)


class TestReducedLevel:
    """level_closed: the level in reduced units, which energy_closed scales."""

    def test_is_energy_closed_at_unit_scale(self):
        for beta in (0.0, 1e-3, 0.1, 0.9, 2.9):
            for n_prime in range(1, 6):
                for l in range(n_prime):
                    qn = QuantumNumbers(n_prime - l, l)
                    try:
                        energy = energy_closed(PhysicalParams(1, 1, beta), qn)
                    except NoRootInWindow as exc:
                        with pytest.raises(NoRootInWindow) as reduced:
                            level_closed(beta, qn)
                        # energy_closed names the beta it was given before the reason
                        assert str(exc) == f"level infeasible at beta={beta!r} for {reduced.value}"
                        continue
                    assert level_closed(beta, qn) == energy, (beta, qn)

    def test_depends_on_m_e2_and_beta_only_through_b(self):
        params = PhysicalParams(2.0, 0.7, 0.05)
        qn = QuantumNumbers(2, 1)
        assert energy_closed(params, qn) == params.unit * level_closed(params.b, qn)
        assert params.deformation(0.05) == params.b == 0.05 * (2.0 * 0.7)


class TestLevelInsideTheWindow:
    """A level energy_closed returns lies strictly inside its window."""

    def test_levels_next_to_the_feasibility_rule(self):
        # beta within a few ulps of (2n + l)/(m e2): the rule beta m e2 < 2n + l
        # can pass while E = u^2/(2m) rounds onto or past the pole
        rng = random.Random(1)
        feasible = 0
        for _ in range(20_000):
            m, e2 = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)
            n, l, k = rng.randint(1, 10), rng.randint(0, 10), rng.randint(-4, 4)
            params = PhysicalParams(m, e2, (2 * n + l) / (m * e2) * (1 + k * 2.2e-16))
            try:
                energy = energy_closed(params, QuantumNumbers(n, l))
            except NoRootInWindow:
                continue
            feasible += 1
            assert params.admit(energy, l)[1] is False, (m, e2, n, l, k)
        assert feasible > 8000

    @pytest.mark.parametrize("l", [0, 1])
    def test_tiny_scale_level_is_m_e2_squared_times_the_reduced_level(self, l):
        # at m = 1e-163 the level is about 5e-164: solved in reduced units,
        # where u^2/(2m) no longer underflows, and scaled once
        params = PhysicalParams(1e-163, 1, 0.1)
        unit, b = params.unit, params.b
        energy = energy_closed(params, QuantumNumbers(1, l))
        assert 0 < energy == unit * energy_closed(PhysicalParams(1, 1, b), QuantumNumbers(1, l))

    def test_underflowing_scale_is_a_scale_error(self):
        # m e2^2 = 1e-340 is 0 as a float: no level has a unit to be told in
        with pytest.raises(ScaleOutOfRange, match=r"m e2\^2 leaves the float range"):
            energy_closed(PhysicalParams(1e-300, 1e-20, 0.1), QuantumNumbers(1, 1))


class TestEnergySeries:
    def test_1d_series_values(self):
        for beta, n, expected in ((0.1, 1, 0.4), (0, 2, 0.125), (0.01, 1, 0.49)):
            got = energy_series(PhysicalParams(1, 1, beta), QuantumNumbers(n))
            assert got == pytest.approx(expected, rel=1e-15)

    def test_3d_series_values(self):
        assert energy_series(
            PhysicalParams(1, 1, 0.1), QuantumNumbers(n=1, l=1)
        ) == pytest.approx(0.1243750, rel=1e-15)
        assert energy_series(
            PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=2)
        ) == pytest.approx(1 / 18, rel=1e-15)

    def test_3d_series_correction_shrinks_as_l_approaches_n_prime(self):
        # the corrective coefficient is proportional to 1/n' - 1/l, so it
        # weakens monotonically as l grows toward n' at fixed n'
        params = PhysicalParams(1, 1, 0.1)
        n_prime = 5
        deficits = [
            abs(energy_series(params, QuantumNumbers(n=n_prime - l, l=l)) - 0.02)
            for l in range(1, n_prime)
        ]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))

    def test_3d_degeneracy_breaking(self):
        params = PhysicalParams(1, 1, 0.1)
        e31 = energy_series(params, QuantumNumbers(n=2, l=1))
        e32 = energy_series(params, QuantumNumbers(n=1, l=2))
        assert e31 != pytest.approx(e32, rel=1e-12)
        # both are lowered relative to the undeformed level
        assert e31 < 1 / 18 and e32 < 1 / 18

    def test_perturbative_comparator_values(self):
        params = PhysicalParams(1, 1, 0.1)
        # bracket 1/2 - 2/3 + 1/6 vanishes identically at (n', l) = (2, 1)
        assert energy_3d_perturbative_ref(params, QuantumNumbers(n=1, l=1)) == pytest.approx(
            0.125, rel=1e-15
        )
        assert energy_3d_perturbative_ref(
            PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=1)
        ) == pytest.approx(0.125, rel=1e-15)
        assert energy_3d_perturbative_ref(params, QuantumNumbers(n=2, l=1)) == pytest.approx(
            (1 / 18) * (1 - 0.02 / 18), rel=1e-14
        )

    def test_perturbative_comparator_requires_nonzero_l(self):
        with pytest.raises(RequiresNonzeroL):
            energy_3d_perturbative_ref(PhysicalParams(1, 1, 0.1), QuantumNumbers(n=1, l=0))
