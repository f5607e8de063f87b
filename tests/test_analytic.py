"""Closed-form phase integrals, turning points, and spectra.

The radial closed form is cross-checked here against an independent
partial-fraction evaluation (band integrals of sqrt((z-a)(b-z))/(z+g) have
the elementary value pi*((a+b)/2 + g - sqrt((a+g)(b+g)))); the quadrature
cross-check lives in test_numerics.
"""

import math

import numpy as np
import pytest

from snyder_coulomb import (
    NoRootInWindow,
    OutOfWindow,
    QuantumNumbers,
    RequiresNonzeroL,
    energy_closed,
    energy_3d_perturbative_ref,
    energy_series,
    phase_integral_1d_closed,
    radial_phase_integral_closed,
    energy_window,
    turning_points,
    validate_params,
)

PI = math.pi

# Independently derived reference values (frozen):
# root of beta n u^2 + n u - m e2 = 0 at m = e2 = 1, beta = 0.1, n = 1
E_1D_BETA01_N1 = 0.4196010845019197
# radial loop integral at m = e2 = 1, E = 0.125, l = 1, beta = 0.1,
# confirmed by partial fractions and adaptive quadrature of the raw integrand
PHI_RADIAL_BETA01 = 1.9901227376726076 * PI


def band_integral_reference(params, energy, l):
    """Partial-fraction evaluation of the radial loop integral.

    Independent of the production formula: decomposes the integrand over
    simple poles and sums three elementary band integrals.
    """
    tp = turning_points(params, energy, l)
    a, b = tp.z_minus, tp.z_plus
    s = a + b
    c = 2.0 * params.m * energy

    def elementary(g):
        return PI * (s / 2.0 + g - math.sqrt((a + g) * (b + g)))

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


class TestTurningPoints:
    def test_degenerate_circular_orbit(self):
        tp = turning_points(validate_params(1, 1, 0), 0.5, 1)
        assert tp.degenerate
        assert tp.z_minus == pytest.approx(1.0, rel=1e-12)
        assert tp.z_plus == pytest.approx(1.0, rel=1e-12)

    def test_generic_band(self):
        tp = turning_points(validate_params(1, 1, 0), 0.125, 1)
        assert tp.z_minus == pytest.approx(0.0179491924311227, rel=1e-12)
        assert tp.z_plus == pytest.approx(3.4820508075688772, rel=1e-12)
        assert tp.z_minus * tp.z_plus == pytest.approx(0.0625, rel=1e-12)
        assert tp.z_minus + tp.z_plus == pytest.approx(3.5, rel=1e-12)
        assert not tp.degenerate

    def test_above_circular_bound(self):
        with pytest.raises(OutOfWindow):
            turning_points(validate_params(1, 1, 0), 0.6, 1)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda p: turning_points(p, math.nan, 1), OutOfWindow),
            (lambda p: radial_phase_integral_closed(p, 0.1, math.nan), ValueError),
        ],
        ids=["nan-energy", "nan-l"],
    )
    def test_nan_is_rejected(self, call, error):
        with pytest.raises(error):
            call(validate_params(1, 1, 0))

    def test_product_and_sum_identities_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = rng.uniform(0.3, 3.0)
            e2 = rng.uniform(0.3, 3.0)
            l = int(rng.integers(1, 5))
            cap = m * e2**2 / (2 * l * l)
            energy = rng.uniform(0.01, 0.999) * cap
            tp = turning_points(validate_params(m, e2, 0), energy, l)
            assert tp.z_minus * tp.z_plus == pytest.approx(
                (2 * m * energy) ** 2, rel=1e-12
            )
            assert tp.z_minus + tp.z_plus == pytest.approx(
                4 * m * (m * e2**2 / l**2 - energy), rel=1e-12
            )
            assert 0 < tp.z_minus < tp.z_plus

    def test_turning_points_are_beta_independent(self):
        for beta in (0.0, 0.05, 0.2):
            tp = turning_points(validate_params(1, 1, beta), 0.125, 1)
            assert tp.z_plus == pytest.approx(3.4820508075688772, rel=1e-14)


class TestPhaseIntegral1D:
    def test_ground_state_newtonian(self):
        res = phase_integral_1d_closed(validate_params(1, 1, 0), 0.5)
        assert res.value == pytest.approx(2 * PI, rel=1e-14)
        assert res.kind == "closed_form"
        assert res.err_estimate is None

    def test_deformed_root_gives_full_loop(self):
        res = phase_integral_1d_closed(validate_params(1, 1, 0.1), E_1D_BETA01_N1)
        assert res.value == pytest.approx(2 * PI, rel=1e-13)

    def test_second_level_newtonian(self):
        res = phase_integral_1d_closed(validate_params(1, 1, 0), 0.125)
        assert res.value == pytest.approx(4 * PI, rel=1e-14)

    def test_rejects_energy_at_pole(self):
        with pytest.raises(OutOfWindow):
            phase_integral_1d_closed(validate_params(1, 1, 2.0), 0.125)

    def test_strictly_decreasing_in_energy(self):
        for beta in (0.0, 0.01, 0.1):
            params = validate_params(1, 1, beta)
            values = [
                phase_integral_1d_closed(params, e).value
                for e in np.linspace(0.01, 2.0, 400)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestRadialPhaseIntegral:
    def test_newtonian_level(self):
        res = radial_phase_integral_closed(validate_params(1, 1, 0), 0.125, 1)
        assert res.value == pytest.approx(2 * PI, rel=1e-14)

    def test_deformed_frozen_value(self):
        res = radial_phase_integral_closed(validate_params(1, 1, 0.1), 0.125, 1)
        assert res.value == pytest.approx(PHI_RADIAL_BETA01, rel=1e-13)

    def test_degenerate_endpoint_is_zero(self):
        assert radial_phase_integral_closed(validate_params(1, 1, 0), 0.5, 1).value == 0.0
        # the circular-orbit band has zero width for beta > 0 as well
        assert radial_phase_integral_closed(validate_params(1, 1, 0.1), 0.5, 1).value == 0.0

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(validate_params(1, 1, 0), 0.6, 1)
        # deformation pole bound: E = 0.2 > 1/(2 beta^2 m) = 0.125 at l = 1, beta = 2
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(validate_params(1, 1, 2.0), 0.2, 1)

    def test_beta_zero_reduces_to_newtonian_bitwise(self):
        params = validate_params(1, 1, 0)
        for energy, l in [(0.125, 1), (0.05, 1), (0.04, 2), (0.3, 1)]:
            value = radial_phase_integral_closed(params, energy, l).value
            newtonian = PI * (math.sqrt(2 * 1 * 1**2 / energy) - 2 * l)
            assert value == newtonian

    def test_newtonian_levels_give_integer_loops(self):
        params = validate_params(1, 1, 0)
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
            params = validate_params(m, e2, beta)
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
            params = validate_params(1, 1, beta)
            cap = 0.5 / l**2
            values = [
                radial_phase_integral_closed(params, e, l).value
                for e in np.linspace(0.001, cap * 0.9999, 400)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_positive_on_open_window(self):
        params = validate_params(1, 1, 0.1)
        for energy in np.linspace(0.001, 0.499, 200):
            assert radial_phase_integral_closed(params, energy, 1).value > 0


class TestEnergy1D:
    def test_newtonian_ground_state(self):
        assert energy_closed(validate_params(1, 1, 0), QuantumNumbers(1)) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_deformed_ground_state(self):
        got = energy_closed(validate_params(1, 1, 0.1), QuantumNumbers(1))
        assert got == pytest.approx(E_1D_BETA01_N1, rel=1e-14)
        # quadratic-root oracle, same equation solved by numpy
        roots = np.roots([0.1 * 1, 1, -1.0])
        u = roots[roots > 0][0]
        assert got == pytest.approx(float(u * u / 2.0), rel=1e-12)

    def test_newtonian_n3(self):
        assert energy_closed(validate_params(1, 1, 0), QuantumNumbers(3)) == pytest.approx(
            1 / 18, rel=1e-15
        )

    def test_self_consistency_with_phase_integral(self):
        for beta in (0.0, 0.01, 0.1):
            params = validate_params(1, 1, beta)
            for n in range(1, 21):
                energy = energy_closed(params, QuantumNumbers(n))
                value = phase_integral_1d_closed(params, energy).value
                assert abs(value - 2 * PI * n) <= 1e-12 * 2 * PI * n

    def test_closed_and_series_are_the_1d_formulas_bitwise(self):
        # the quadratic root and the first-order series, written out; the
        # level is feasible exactly when beta m e2 < 2n
        for m, e2 in ((1.0, 1.0), (2.0, 0.7)):
            for beta in (0.0, 1e-300, 1e-3, 0.05, 0.15, 0.9, 1.9):
                params = validate_params(m, e2, beta)
                for n in range(1, 21):
                    if beta * m * e2 < 2 * n:
                        u = 2.0 * m * e2 / (n + math.sqrt(n * n + 4.0 * beta * n * m * e2))
                        assert energy_closed(params, QuantumNumbers(n)) == u * u / (2.0 * m)
                    else:
                        with pytest.raises(NoRootInWindow):
                            energy_closed(params, QuantumNumbers(n))
                    series = m * e2**2 / (2.0 * n * n) * (1.0 - 2.0 * beta * m * e2 / n)
                    assert energy_series(params, QuantumNumbers(n)) == series

    @pytest.mark.parametrize("beta", [2.0, 5.0])
    def test_level_at_or_past_the_pole_is_infeasible(self, beta):
        # beta m e2 >= 2n: the quadratic root lies at or past the pole
        params = validate_params(1, 1, beta)
        u = 2.0 / (1 + math.sqrt(1 + 4.0 * beta))
        assert u * u / 2.0 >= energy_window(params, 0).e_max
        with pytest.raises(NoRootInWindow, match="level infeasible"):
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
        params = validate_params(1, 1, 0)
        for n_prime in range(2, 12):
            for l in range(1, n_prime):
                energy = energy_closed(params, QuantumNumbers(n_prime - l, l))
                assert energy == pytest.approx(0.5 / n_prime**2, rel=4.5e-16)

    def test_closed_levels_match_50_digit_references(self):
        # <= 4 ulp over the grid, both channels
        worst = 0.0
        for beta in (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.9):
            params = validate_params(1, 1, beta)
            for n_prime in (1, 2, 3, 5, 8, 13, 21, 34, 50):
                for l in sorted({0, 1, 2, n_prime // 2, n_prime - 1} & set(range(n_prime))):
                    qn = QuantumNumbers(n_prime - l, l)
                    energy = energy_closed(params, qn)
                    ref = level_reference(beta, qn)
                    worst = max(worst, float(abs(energy - ref) / ref))
        assert worst <= 9e-16

    @pytest.mark.parametrize("beta,n,l", [(3.0, 1, 1), (5.0, 1, 3), (5.0, 2, 1)])
    def test_root_on_the_pole_is_infeasible(self, beta, n, l):
        # beta m e2 = 2n + l puts the root of the quartic exactly at u = 1/beta
        qn = QuantumNumbers(n, l)
        assert np.polyval([4 * n * (n + l) * beta**2, 0, -4 * n * (n + l),
                           4 * (2 * n + l), -4], 1 / beta) == pytest.approx(0, abs=1e-12)
        with pytest.raises(NoRootInWindow, match="level infeasible"):
            energy_closed(validate_params(1, 1, beta), qn)

    def test_one_admissible_quartic_root_exactly_when_feasible(self):
        for beta in [*np.linspace(0.01, 5, 120), 0.9, 3.0]:
            params = validate_params(1, 1, beta)
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
                    assert 0 < energy < energy_window(params, l).e_max


class TestEnergySeries:
    def test_1d_series_values(self):
        for beta, n, expected in ((0.1, 1, 0.4), (0, 2, 0.125), (0.01, 1, 0.49)):
            got = energy_series(validate_params(1, 1, beta), QuantumNumbers(n))
            assert got == pytest.approx(expected, rel=1e-15)

    def test_3d_series_values(self):
        assert energy_series(
            validate_params(1, 1, 0.1), QuantumNumbers(n=1, l=1)
        ) == pytest.approx(0.1243750, rel=1e-15)
        assert energy_series(
            validate_params(1, 1, 0), QuantumNumbers(n=1, l=2)
        ) == pytest.approx(1 / 18, rel=1e-15)

    def test_3d_series_correction_shrinks_as_l_approaches_n_prime(self):
        # the corrective coefficient is proportional to 1/n' - 1/l, so it
        # weakens monotonically as l grows toward n' at fixed n'
        params = validate_params(1, 1, 0.1)
        n_prime = 5
        deficits = [
            abs(energy_series(params, QuantumNumbers(n=n_prime - l, l=l)) - 0.02)
            for l in range(1, n_prime)
        ]
        assert all(a > b for a, b in zip(deficits, deficits[1:]))

    def test_3d_degeneracy_breaking(self):
        params = validate_params(1, 1, 0.1)
        e31 = energy_series(params, QuantumNumbers(n=2, l=1))
        e32 = energy_series(params, QuantumNumbers(n=1, l=2))
        assert e31 != pytest.approx(e32, rel=1e-12)
        # both are lowered relative to the undeformed level
        assert e31 < 1 / 18 and e32 < 1 / 18

    def test_perturbative_comparator_values(self):
        params = validate_params(1, 1, 0.1)
        # bracket 1/2 - 2/3 + 1/6 vanishes identically at (n', l) = (2, 1)
        assert energy_3d_perturbative_ref(params, QuantumNumbers(n=1, l=1)) == pytest.approx(
            0.125, rel=1e-15
        )
        assert energy_3d_perturbative_ref(
            validate_params(1, 1, 0), QuantumNumbers(n=1, l=1)
        ) == pytest.approx(0.125, rel=1e-15)
        assert energy_3d_perturbative_ref(params, QuantumNumbers(n=2, l=1)) == pytest.approx(
            (1 / 18) * (1 - 0.02 / 18), rel=1e-14
        )

    def test_perturbative_comparator_requires_nonzero_l(self):
        with pytest.raises(RequiresNonzeroL):
            energy_3d_perturbative_ref(validate_params(1, 1, 0.1), QuantumNumbers(n=1, l=0))
