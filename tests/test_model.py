"""Parameter validation, quantum numbers, and energy windows."""

import math

import pytest

from snyder_coulomb import (
    EnergyWindow,
    NegativeBeta,
    NonFinite,
    NonPositiveCoupling,
    NonPositiveMass,
    PhysicalParams,
    QuantumNumbers,
    energy_window,
    validate_params,
)


class TestValidateParams:
    def test_newtonian_limit_is_valid(self):
        params = validate_params(1, 1, 0)
        assert params == PhysicalParams(1.0, 1.0, 0.0)

    def test_generic_positive_inputs(self):
        params = validate_params(1, 1, 0.1)
        assert (params.m, params.e2, params.beta) == (1.0, 1.0, 0.1)

    def test_negative_mass_names_field(self):
        with pytest.raises(NonPositiveMass, match="m"):
            validate_params(-1, 1, 0.1)

    def test_zero_coupling(self):
        with pytest.raises(NonPositiveCoupling, match="e2"):
            validate_params(1, 0, 0.1)

    def test_negative_beta(self):
        with pytest.raises(NegativeBeta, match="beta"):
            validate_params(1, 1, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFinite):
            validate_params(1, bad, 0)

    def test_direct_construction_is_guarded_too(self):
        with pytest.raises(NonPositiveMass):
            PhysicalParams(m=0.0, e2=1.0, beta=0.0)


class TestQuantumNumbers:
    def test_principal_number(self):
        assert QuantumNumbers(n=2, l=3).n_prime == 5

    @pytest.mark.parametrize("n,l", [(0, 0), (-1, 2), (1, -1)])
    def test_range_guards(self, n, l):
        with pytest.raises(ValueError):
            QuantumNumbers(n=n, l=l)

    def test_integrality_guard(self):
        with pytest.raises(ValueError):
            QuantumNumbers(n=1.5, l=0)


class TestEnergyWindow:
    def test_circular_orbit_bound(self):
        window = energy_window(validate_params(1, 1, 0), 1)
        assert window == EnergyWindow(0.0, 0.5)

    def test_angular_cap_wins_over_weak_deformation(self):
        # 1/(2 beta^2 m) = 50 is far above the circular bound 0.5.
        window = energy_window(validate_params(1, 1, 0.1), 1)
        assert window.e_max == pytest.approx(0.5, rel=1e-15)

    def test_deformation_pole_caps_the_s_channel(self):
        window = energy_window(validate_params(1, 1, 2.0), 0)
        assert window.e_max == pytest.approx(0.125, rel=1e-15)

    def test_unbounded_newtonian_s_channel(self):
        window = energy_window(validate_params(1, 1, 0), 0)
        assert math.isinf(window.e_max)

    def test_underflowed_pole_is_no_cap(self):
        # 2 beta^2 m underflows to 0 at beta = 1e-200: the pole is at infinity
        params = validate_params(1, 1, 1e-200)
        assert energy_window(params, 0).e_max == math.inf
        assert energy_window(params, 2).e_max == energy_window(validate_params(1, 1, 0), 2).e_max

    def test_contains_is_open(self):
        window = energy_window(validate_params(1, 1, 0), 1)
        assert window.contains(0.3)
        assert not window.contains(0.0)
        assert not window.contains(0.5)

    def test_monotone_in_l_and_beta(self):
        for m, e2 in [(1.0, 1.0), (2.0, 0.7)]:
            for beta in [0.0, 0.05, 0.3, 1.0]:
                params = validate_params(m, e2, beta)
                caps = [energy_window(params, l).e_max for l in range(0, 6)]
                assert all(a >= b for a, b in zip(caps, caps[1:]))
        for l in range(0, 4):
            caps = [
                energy_window(validate_params(1, 1, beta), l).e_max
                for beta in [0.0, 0.01, 0.1, 1.0, 3.0]
            ]
            assert all(a >= b for a, b in zip(caps, caps[1:]))
