"""Parameter validation, quantum numbers, and energy windows."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from snyder_coulomb import (
    NegativeBeta,
    NonFinite,
    NonPositiveCoupling,
    NonPositiveMass,
    OutOfWindow,
    PhysicalParams,
    QuantumNumbers,
    check_energy,
    energy_window,
)


class TestValidateParams:
    """The checks PhysicalParams makes on construction."""

    def test_newtonian_limit_is_valid(self):
        params = PhysicalParams(1, 1, 0)
        assert params == PhysicalParams(1.0, 1.0, 0.0)
        assert [type(v) for v in astuple(params)] == [float, float, float]

    def test_generic_positive_inputs(self):
        params = PhysicalParams(np.float64(1.0), 1, 0.1)
        assert astuple(params) == (1.0, 1.0, 0.1)
        assert [type(v) for v in astuple(params)] == [float, float, float]

    def test_negative_mass_names_field(self):
        with pytest.raises(NonPositiveMass, match="m"):
            PhysicalParams(-1, 1, 0.1)

    def test_zero_coupling(self):
        with pytest.raises(NonPositiveCoupling, match="e2"):
            PhysicalParams(1, 0, 0.1)

    def test_negative_beta(self):
        with pytest.raises(NegativeBeta, match="beta"):
            PhysicalParams(1, 1, -0.5)

    @pytest.mark.parametrize(
        "args",
        [
            pytest.param((1, math.nan, 0), id="nan"),
            pytest.param((1, math.inf, 0), id="inf"),
            pytest.param((1, -math.inf, 0), id="-inf"),
            # float() would take these, or overflow on the int
            pytest.param((True, 1, 0), id="bool"),
            pytest.param(("2", 1, 0), id="str"),
            pytest.param((10**400, 1, 0), id="huge-int"),
        ],
    )
    def test_non_finite(self, args):
        with pytest.raises(NonFinite):
            PhysicalParams(*args)

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
        # m e2^2 / (2 l^2) caps every l > 0 channel, a fractional l included
        assert energy_window(PhysicalParams(1, 1, 0), 1) == 0.5
        assert energy_window(PhysicalParams(1, 1, 0), 0.5) == 2.0

    def test_angular_cap_wins_over_weak_deformation(self):
        # 1/(2 beta^2 m) = 50 is far above the circular bound 0.5.
        e_max = energy_window(PhysicalParams(1, 1, 0.1), 1)
        assert e_max == pytest.approx(0.5, rel=1e-15)

    def test_deformation_pole_caps_the_s_channel(self):
        e_max = energy_window(PhysicalParams(1, 1, 2.0), 0)
        assert e_max == pytest.approx(0.125, rel=1e-15)

    def test_unbounded_newtonian_s_channel(self):
        assert math.isinf(energy_window(PhysicalParams(1, 1, 0), 0))

    def test_underflowed_pole_is_no_cap(self):
        # 2 beta^2 m underflows to 0 at beta = 1e-200: the pole is at infinity
        params = PhysicalParams(1, 1, 1e-200)
        assert energy_window(params, 0) == math.inf
        assert energy_window(params, 2) == energy_window(PhysicalParams(1, 1, 0), 2)

    def test_check_is_open_but_for_the_circular_endpoint(self):
        params = PhysicalParams(1, 1, 0)
        assert check_energy(params, 0.3, 1) is False
        assert check_energy(params, 0.5, 1) is True  # the circular orbit: a band of zero width
        assert check_energy(params, 0.5, 0) is False
        for energy in (0.0, -1.0, math.nan, math.nextafter(0.5, 1.0)):
            with pytest.raises(OutOfWindow):
                check_energy(params, energy, 1)
        # the pole is never admitted: not where it equals the circular bound,
        # not at l = 0, and not where 49 * fl(1/49) rounds below 1
        for params, energy, l in [
            (PhysicalParams(1, 1, 1.0), 0.5, 1),
            (PhysicalParams(1, 1, 2.0), 0.125, 0),
            (PhysicalParams(24.5, 1, 1.0), 1.0 / 49.0, 1),
        ]:
            assert energy == energy_window(params, l)
            with pytest.raises(OutOfWindow):
                check_energy(params, energy, l)

    def test_monotone_in_l_and_beta(self):
        for m, e2 in [(1.0, 1.0), (2.0, 0.7)]:
            for beta in [0.0, 0.05, 0.3, 1.0]:
                params = PhysicalParams(m, e2, beta)
                caps = [energy_window(params, l) for l in range(0, 6)]
                assert all(a >= b for a, b in zip(caps, caps[1:]))
        for l in range(0, 4):
            caps = [
                energy_window(PhysicalParams(1, 1, beta), l)
                for beta in [0.0, 0.01, 0.1, 1.0, 3.0]
            ]
            assert all(a >= b for a, b in zip(caps, caps[1:]))
