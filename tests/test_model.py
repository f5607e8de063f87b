"""Parameter validation, quantum numbers, and energy windows."""

import contextlib
import io
import math
import re
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from snyder_coulomb import (
    NegativeBeta,
    NoRootInWindow,
    NonFinite,
    NonPositiveCoupling,
    NonPositiveMass,
    OrbitState,
    OutOfWindow,
    PhysicalParams,
    QuantumNumbers,
    ScaleOutOfRange,
    correction_order,
    equations_of_motion,
    integrate_orbit,
    l_limit_study,
    level_closed,
    phase_integral_1d_closed,
    phase_integral_numeric,
    radial_phase_integral_closed,
    spectrum_table,
    window_top,
)
from snyder_coulomb.cli import main
from snyder_coulomb.model import quote


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

    @pytest.mark.parametrize("beta,error,message", [
        (-1.0, NegativeBeta, "beta must be >= 0, got -1.0"),
        (-math.inf, NegativeBeta, "beta must be >= 0, got -inf"),
        (-10**5000, NegativeBeta, "beta must be >= 0"),
        (math.nan, NonFinite, "beta must be finite, got nan"),
    ], ids=["-1.0", "-inf", "-10**5000", "nan"])
    def test_deformation_refuses_what_the_constructor_refuses(self, beta, error, message):
        # deformation(-1.0) returned -1.0 and deformation(nan) nan
        with pytest.raises(error) as info:
            PhysicalParams(1, 1).deformation(beta)
        assert (type(info.value), str(info.value)) == (error, message)

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

    @pytest.mark.parametrize("n,l,name", [(2**53 + 1, 0, "n"), (10**154, 1, "n"),
                                          (1, 10**200, "l"), (1, 10**5000, "l")],
                             ids=["n-2**53+1", "n-1e154", "l-1e200", "l-1e5000"])
    def test_numbers_past_2_to_the_53_are_rejected(self, n, l, name):
        with pytest.raises(ValueError, match=f"^{name} must be <= 2\\*\\*53"):
            QuantumNumbers(n=n, l=l)

    @pytest.mark.parametrize("n,l,message", [
        (-2**53, 0, f"n must be >= 1, got {-2**53}"), (-2**53 - 1, 0, "n must be >= 1"),
        (-10**5000, 0, "n must be >= 1"), (1, -10**5000, "l must be >= 0"),
    ], ids=["n-minus-2**53", "n-minus-2**53-1", "n-minus-1e5000", "l-minus-1e5000"])
    def test_negative_numbers_are_quoted_only_within_2_to_the_53(self, n, l, message):
        # str() of an int past 4,300 digits raises its own ValueError
        with pytest.raises(ValueError) as info:
            QuantumNumbers(n=n, l=l)
        assert str(info.value) == message

    def test_largest_numbers_are_kept(self):
        assert QuantumNumbers(n=2**53, l=2**53).n_prime == 2**54

    def test_numpy_integers_are_kept_as_ints(self):
        # one integer rule with the shell count of spectrum_table, which takes numpy's
        qn = QuantumNumbers(n=np.int64(2), l=np.uint8(1))
        assert (qn, type(qn.n), type(qn.l)) == (QuantumNumbers(2, 1), int, int)


class TestEnergyWindow:
    def test_circular_orbit_bound(self):
        # m e2^2 / (2 l^2) caps every l > 0 channel, a fractional l included
        assert window_top(0.0, 1) == 0.5
        assert window_top(0.0, 0.5) == 2.0

    def test_angular_cap_wins_over_weak_deformation(self):
        # 1/(2 beta^2 m) = 50 is far above the circular bound 0.5.
        e_max = window_top(0.1, 1)
        assert e_max == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_deformation_pole_caps_the_s_channel(self):
        e_max = window_top(2.0, 0)
        assert e_max == pytest.approx(0.125, rel=1e-15, abs=0)

    def test_unbounded_newtonian_s_channel(self):
        assert math.isinf(window_top(0.0, 0))

    def test_underflowed_pole_is_no_cap(self):
        # 2 beta^2 m underflows to 0 at beta = 1e-200: the pole is at infinity
        b = PhysicalParams(1, 1, 1e-200).b
        assert window_top(b, 0) == math.inf
        assert window_top(b, 2) == window_top(0.0, 2)

    def test_underflowed_circular_bound_is_no_cap(self):
        # 2 l^2 underflows to 0 below l ~ 1e-162: the circular bound is at infinity
        assert window_top(0.0, 1e-200) == window_top(0.0, 5e-324) == math.inf
        assert window_top(0.5, 1e-170) == window_top(0.5, 0) == 2.0

    def test_nan_b_is_refused(self):
        # 2 b^2 is nan, which neither cap's comparison catches: the top read as nan
        for l in (0, 1, 0.5, math.inf):
            with pytest.raises(NonFinite, match="^beta m e2 must not be nan$"):
                window_top(math.nan, l)

    def test_check_is_open_at_both_ends(self):
        params = PhysicalParams(1, 1, 0)
        assert params.admit(0.3, 1) == 0.3
        assert params.admit(0.5, 0) == 0.5
        assert params.admit(math.nextafter(0.5, 0.0), 1) == math.nextafter(0.5, 0.0)
        # the circular orbit, a band of zero width, is no level: Phi = 0 there
        for energy in (0.0, -1.0, math.nan, 0.5, math.nextafter(0.5, 1.0)):
            with pytest.raises(OutOfWindow):
                params.admit(energy, 1)
        # nor is the pole: not where it equals the circular bound, not at l = 0,
        # and not where 2 b^2 fl(1/(2 b^2)) = 24.5 fl(1/24.5) rounds below 1
        for params, energy, l in [
            (PhysicalParams(1, 1, 1.0), 0.5, 1),
            (PhysicalParams(1, 1, 2.0), 0.125, 0),
            (PhysicalParams(1, 1, 3.5), 1.0 / 24.5, 1),
        ]:
            assert energy == window_top(params.beta, l)
            with pytest.raises(OutOfWindow):
                params.admit(energy, l)

    def test_monotone_in_l_and_beta(self):
        for m, e2 in [(1.0, 1.0), (2.0, 0.7)]:
            for beta in [0.0, 0.05, 0.3, 1.0]:
                params = PhysicalParams(m, e2, beta)
                caps = [params.physical(window_top(params.b, l)) for l in range(0, 6)]
                assert all(a >= b for a, b in zip(caps, caps[1:]))
        for l in range(0, 4):
            caps = [
                window_top(beta, l)
                for beta in [0.0, 0.01, 0.1, 1.0, 3.0]
            ]
            assert all(a >= b for a, b in zip(caps, caps[1:]))


class TestScale:
    """The one reduction of (m, e2, beta), against 50-digit mpmath in raw units.

    Both spectral routes compute through this primitive, so their agreement
    cannot catch a fault in it: this is its own check.  m e2^2 and beta m e2
    are each rounded twice, so each must lie within two ulps of the exact
    value (a subnormal result within two subnormal steps), and a converted
    energy within two ulps plus the rounding of m e2^2 itself, which
    carries few bits when it is subnormal.
    """

    PAIRS = [
        (1.0, 1.0), (2.0, 0.5), (1.5, 1.0), (0.7, 1.9), (1e-3, 40.0),
        (5e-324, 1.1e10 + 0.3),  # m subnormal, m e2 subnormal, m e2^2 normal
        (3e-310, 1.7),  # m e2^2 subnormal
        (1e-300, 1e-5),  # m e2^2 subnormal, about 1e-310
        (1.7e308, 1.0000001),  # m e2^2 just below the largest float
        (1e300, 1e-150), (1e-300, 1e150), (1e200, 1e-100),  # partial products out of range
    ]

    @staticmethod
    def within(value, exact, ulps):
        mp = pytest.importorskip("mpmath")
        return abs(mp.mpf(value) - exact) <= ulps * mp.mpf(math.ulp(float(exact)))

    @pytest.mark.parametrize("m,e2", PAIRS)
    def test_unit_and_b_are_the_raw_products(self, m, e2):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for beta in (0.0, 0.1, 3.0, 1e-200, 1e300):
            params = PhysicalParams(m, e2, beta)
            unit, b = params.unit, params.b
            assert self.within(unit, mp.mpf(m) * mp.mpf(e2) ** 2, 2), (m, e2)
            exact_b = mp.mpf(beta) * mp.mpf(m) * mp.mpf(e2)
            if exact_b > mp.mpf(sys.float_info.max):
                assert b == math.inf
            else:
                assert self.within(b, exact_b, 2), (m, e2, beta)

    @pytest.mark.parametrize("m,e2", PAIRS)
    def test_conversions_are_the_raw_quotient_and_product(self, m, e2):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        params = PhysicalParams(m, e2)
        exact_unit = mp.mpf(m) * mp.mpf(e2) ** 2
        slack = abs(mp.mpf(params.unit) - exact_unit) / exact_unit  # the unit's own rounding
        for reduced in (0.5, 1.0 / 18.0, 0.4196010845019197, 1e-3):
            energy = params.physical(reduced)
            exact = exact_unit * mp.mpf(reduced)
            assert abs(mp.mpf(energy) - exact) <= (
                2 * mp.mpf(math.ulp(float(exact))) + slack * exact), (m, e2, reduced)
            back = params.reduced(energy)
            exact_back = mp.mpf(energy) / exact_unit
            assert abs(mp.mpf(back) - exact_back) <= (
                2 * mp.mpf(math.ulp(float(exact_back))) + slack * exact_back), (m, e2, reduced)

    def test_m_e2_squared_out_of_range_is_a_scale_error(self):
        # inf above, 0 below; PhysicalParams itself still takes both
        for m, e2 in [(1.0, 1e200), (1e300, 1e10), (1e-300, 1e-20), (5e-324, 0.5)]:
            params = PhysicalParams(m, e2)
            for convert in (params.physical, params.reduced):
                with pytest.raises(ScaleOutOfRange, match=r"m e2\^2 leaves the float range"):
                    convert(0.125)

    def test_conversion_out_of_range_is_a_scale_error(self):
        tiny, huge = PhysicalParams(1e-300, 1e-5), PhysicalParams(1e300, 1.0)
        assert tiny.physical(0.5) == 0.5 * tiny.unit > 0  # a subnormal energy is kept
        with pytest.raises(ScaleOutOfRange, match="leaves the float range"):
            tiny.physical(1e-20)  # 0 from nonzero
        with pytest.raises(ScaleOutOfRange):
            huge.reduced(1e-20)  # a subnormal reduced energy: the formulas divide by it
        with pytest.raises(ScaleOutOfRange):
            tiny.reduced(1.0)  # inf
        assert tiny.physical(0.0) == 0.0 and huge.physical(math.inf) == math.inf
        assert math.isnan(huge.reduced(math.nan))  # left to the window check
        # a reduced energy of 2^1023 or more: the formulas' 2 Ẽ overflows
        unit = PhysicalParams(1.0, 1.0)
        assert unit.reduced(math.nextafter(2.0**1023, 0.0)) < 2.0**1023
        for energy in (2.0**1023, -2.0**1023, sys.float_info.max):
            with pytest.raises(ScaleOutOfRange, match="leaves the float range"):
                unit.reduced(energy)

    def test_infinite_b_closes_every_window(self):
        # b = beta m e2 = 1e350 is inf while m e2^2 = 1e100 is not: no energy is
        # admissible, which is the window's verdict, not a scale error
        for params in (PhysicalParams(1.0, 1.0, 1e300), PhysicalParams(1e200, 1e-50, 1e200)):
            assert [window_top(params.b, l) for l in (0, 1, 0.5)] == [0.0] * 3
            assert params.physical(window_top(params.b, 0)) == 0.0
            with pytest.raises(OutOfWindow):
                params.admit(0.1 * params.unit, 0)
        params = PhysicalParams(1e200, 1e-50, 1e200)
        assert (params.unit, params.b) == (1e100, math.inf)


PARAMS = PhysicalParams(1, 1, 0.01)
STATE = OrbitState(1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("call,sign,error,message", [
    (lambda x: PhysicalParams(1, 1, x), 1, NonFinite, "beta must be finite"),
    (lambda x: OrbitState(x, 0, 0, 1), 1, NonFinite, "x1 must be finite"),
    (lambda x: integrate_orbit(STATE, PARAMS, x), 1, NonFinite, "t_end must be finite and > 0"),
    (lambda x: integrate_orbit(STATE, PARAMS, 1.0, local_tol=x), -1, NonFinite,
     "local_tol must be finite and > 0"),
    (lambda x: correction_order(PhysicalParams(1, 1), QuantumNumbers(1), [x, 1, 2, 3]), 1,
     NonFinite, "beta must be finite and > 0"),
    (lambda x: level_closed(0.0, x, 0), 1, ValueError,
     "n, l=0 need 0 < n < inf and 0 <= l < inf"),
    (lambda x: radial_phase_integral_closed(PARAMS, 0.1, x), -1, ValueError, "l must be > 0"),
    (lambda x: phase_integral_numeric(PARAMS, 0.1, x), -1, ValueError, "l must be >= 0"),
    (lambda x: window_top(0.0, x), -1, ValueError, "l must be >= 0"),
    (lambda x: spectrum_table(PARAMS, x), -1, ValueError, "n_prime_max must be >= 1"),
    (lambda x: phase_integral_1d_closed(PARAMS, x), 1, OutOfWindow,
     r"E outside the window \(0, 5000\.0\) at l=0"),
    (lambda x: PARAMS.admit(x, 1), -1, OutOfWindow, r"E outside the window \(0, 0\.5\) at l=1"),
    (lambda x: l_limit_study(PARAMS, 0.1, [x]), -1, ValueError, "l must be > 0, got -inf"),
    (lambda x: level_closed(x, 1, 1), 1, NoRootInWindow, r"beta m e2 is not below 2n \+ l = 3"),
    (lambda x: equations_of_motion([x, 0, 0, 1], PARAMS), 1, ValueError,
     "the flow is not finite at y"),
    (lambda x: equations_of_motion([1, 0, 0, x], PARAMS), -1, ValueError,
     "the flow is not finite at y"),
], ids=["PhysicalParams", "OrbitState", "t_end", "local_tol", "correction_order",
        "level_closed", "radial_phase_integral_closed", "phase_integral_numeric", "window_top",
        "spectrum_table", "phase_integral_1d_closed", "admit", "l_limit_study",
        "level_closed_b", "equations_of_motion_x1", "equations_of_motion_p2"])
def test_an_int_past_the_float_range_fails_typed(call, sign, error, message):
    # str() of the int raised Python's own ValueError past 4,300 digits, and float() of it
    # OverflowError: each entry raises what it raises at the float inf of the same sign
    for value in (sign * math.inf, sign * 10**5000):
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error
    assert re.fullmatch(message, str(info.value))


@pytest.mark.parametrize("call,sign,expected", [
    (PARAMS.physical, 1, math.inf),
    (PARAMS.physical, -1, -math.inf),
    (PARAMS.deformation, 1, math.inf),
    (lambda x: window_top(x, 1), 1, 0.0),
    (lambda x: window_top(x, 1), -1, 0.0),
], ids=["physical", "physical_negative", "deformation", "window_top_b", "window_top_negative_b"])
def test_an_int_past_the_float_range_reads_as_the_inf_of_its_sign(call, sign, expected):
    # float() of the int raised OverflowError: each entry returns what it does at that inf
    assert call(sign * math.inf) == expected
    assert call(sign * 10**5000) == expected


@pytest.mark.parametrize("y", [[10**400, 0, 0, 1], [1, 0, 0, 10**200]])
def test_a_flow_past_the_float_range_quotes_its_point(y):
    with pytest.raises(ValueError, match=re.escape(f"the flow is not finite at y = {y!r}")):
        equations_of_motion(y, PARAMS)


def test_a_value_whose_repr_fails_is_refused_unquoted():
    # repr() of the Fraction raises Python's own ValueError past 4,300 digits
    with pytest.raises(NonFinite) as info:
        PhysicalParams(Fraction(10**5000), 1)
    assert (type(info.value), str(info.value)) == (NonFinite, "m must be a real number")
    assert quote(Fraction(10**5000)) == "" and quote(Fraction(1, 3)) == ", got Fraction(1, 3)"
    for call, name in [(lambda: QuantumNumbers(Fraction(10**5000), 1), "n"),
                       (lambda: spectrum_table(PhysicalParams(1, 1), Fraction(10**5000)),
                        "n_prime_max")]:
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (ValueError, f"{name} must be an integer")


def _raised(call):
    def entry(value):
        with pytest.raises(ValueError) as info:
            call(value)
        return type(info.value).__name__, str(info.value)
    return entry


def _l_limit_energy(value):
    """``l-limit --energy=value`` as the CLI reports it: exit 2, the error's type and message."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["l-limit", f"--energy={value!r}"]) == 2
    kind, message = err.getvalue().removeprefix("snyder-coulomb: error: ").split(": ", 1)
    return kind, message.rstrip("\n")


NOT_POSITIVE = [0, -1, math.nan, math.inf, -math.inf]
POSITIVE_RULE = {
    "t_end": _raised(lambda x: integrate_orbit(STATE, PARAMS, x)),
    "local_tol": _raised(lambda x: integrate_orbit(STATE, PARAMS, 1.0, local_tol=x)),
    "beta": _raised(lambda x: correction_order(PhysicalParams(1, 1), QuantumNumbers(1),
                                               [0.01, 0.1, 1.0, x])),
}


@pytest.mark.parametrize("name,entry,value", [
    *[pytest.param(name, entry, value, id=f"{name}-{value!r}")
      for name, entry in POSITIVE_RULE.items() for value in NOT_POSITIVE],
    *[pytest.param(name, entry, sign * 10**5000, id=f"{name}-{sign}e5000")
      for name, entry in POSITIVE_RULE.items() for sign in (1, -1)],
    *[pytest.param("energy", _l_limit_energy, value, id=f"l-limit-energy-{value!r}")
      for value in NOT_POSITIVE],
])
def test_inputs_that_must_be_positive_share_one_rule(name, entry, value):
    # model's one rule: NonFinite where the value is not finite, else ValueError
    kind, message = entry(value)
    assert kind == ("ValueError" if abs(value) <= sys.float_info.max else "NonFinite")
    assert message.startswith(f"{name} must be finite and > 0"), message
