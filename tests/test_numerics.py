"""Quadrature oracles, spectrum solving, and scaling fits."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snyder_coulomb import numerics
from snyder_coulomb import (
    DegenerateFit,
    NoRootInWindow,
    OutOfWindow,
    PhysicalParams,
    QuantumNumbers,
    ScaleOutOfRange,
    SnyderCoulombError,
    ToleranceNotReached,
    correction_order,
    energy_closed,
    energy_numeric,
    energy_series,
    l_limit_study,
    level_closed,
    phase_integral_1d_closed,
    phase_integral_numeric,
    radial_phase_integral_closed,
    spectrum_table,
    window_top,
)

PI = math.pi
E_1D_BETA01_N1 = 0.4196010845019197


class TestRealLineRule:
    """The l = 0 route: the raw integrand over the real line, in t = p / sqrt(2E) = e^x."""

    def test_arctangent_integral(self):
        # at beta = 0, 2mE = 1 the integrand is 2 / (p^2 + 1)
        res = phase_integral_numeric(PhysicalParams(1, 1, 0), 0.5, 0)
        assert res.value == pytest.approx(2 * PI, rel=1e-13, abs=0)
        assert res.err_estimate <= 1e-10 * res.value

    def test_deformed_lorentzian_against_partial_fractions(self):
        # 2 m e2 / ((p^2 + 2mE)(1 + beta^2 p^2)) integrates to
        # 2 m e2 pi / (A (1 + beta A)) with A = sqrt(2mE)
        m = e2 = 1.0
        energy, beta = 0.5, 0.1
        a = math.sqrt(2 * m * energy)
        value = phase_integral_numeric(PhysicalParams(m, e2, beta), energy, 0).value
        assert value == pytest.approx(2 * m * e2 * PI / (a * (1 + beta * a)), rel=1e-13, abs=0)
        assert value == pytest.approx(2 * PI / 1.1, rel=1e-13, abs=0)

    def test_exhausted_panels_fail_only_their_row(self):
        # the spike of height 2e14 at p = 0 needs h << 1e-7 to resolve; the
        # periodic row beside it keeps the sum of its own first passing order
        nodes = lambda n: -1.0 + (2.0 / n) * np.arange(n + 1)  # the n-panel grid of [-1, 1]
        periodic = lambda n: np.exp(np.cos(PI * nodes(n)))
        rows = lambda n: np.stack([2.0 / (nodes(n) ** 2 + 1e-14), periodic(n)])
        value, err = numerics._trapezoid(rows, 2.0, 16)
        assert math.isnan(value[0]) and err[0] > numerics.QUAD_RTOL
        alone = numerics._trapezoid(periodic, 2.0, 16)
        assert (value[1], err[1]) == alone
        assert value[1] == pytest.approx(2 * 1.2660658777520084, rel=1e-14, abs=0)  # 2 I0(1)


class TestBandRule:
    """The l >= 1 route: the raw integrand over the band, in z = e^s."""

    def test_newtonian_radial_integrand(self):
        # at beta = 0 the radial loop integral is 2 pi (n' - l) with
        # n' = sqrt(m e2^2 / (2E)) = 5 here
        res = phase_integral_numeric(PhysicalParams(1, 1, 0), 0.02, 3)
        assert res.value == pytest.approx(4 * PI, rel=1e-13, abs=0)

    def test_degenerate_band_is_refused_before_any_rule(self, monkeypatch):
        # admit refuses the circular bound, a band of zero width, before any rule runs
        monkeypatch.setattr(numerics, "_phase_rows", None)
        params = PhysicalParams(1, 1, 0.1)
        top = window_top(params.b, 2)
        with pytest.raises(OutOfWindow):
            phase_integral_numeric(params, top, 2)


class TestTrapezoidRule:
    BETAS = (0.0, 1e-3, 0.1, 0.5)

    @pytest.mark.parametrize("beta", BETAS)
    def test_real_line_matches_closed_form(self, beta):
        params = PhysicalParams(1, 1, beta)
        for energy in np.geomspace(1e-8, 0.49, 25):
            numeric = phase_integral_numeric(params, float(energy), 0).value
            closed = phase_integral_1d_closed(params, float(energy)).value
            assert numeric == pytest.approx(closed, rel=1e-13, abs=0)

    # and the b = l corners, where the pole meets the circular bound, which BETAS leaves
    # out: it also feeds the line test, whose window would close at the pole
    @pytest.mark.parametrize("beta,l", [(beta, l) for beta in BETAS for l in (1, 3, 20, 50)]
                             + [(1.0, 1), (3.0, 3)])
    def test_band_matches_closed_form(self, beta, l):
        params = PhysicalParams(1, 1, beta)
        e_max = window_top(params.b, l)
        for frac in np.geomspace(1e-8, 0.9, 25):
            energy = float(frac * e_max)
            numeric = phase_integral_numeric(params, energy, l).value
            closed = radial_phase_integral_closed(params, energy, l).value
            assert abs(numeric - closed) <= 5e-15 * closed

    @pytest.mark.parametrize("quad_rtol", [1e-6, numerics.QUAD_RTOL, 1e-13])
    @pytest.mark.parametrize("l,energy", [(0, 1e-6), (0, 0.3), (1, 1e-6), (1, 0.1), (3, 0.05)])
    def test_error_estimate_within_tolerance(self, l, energy, quad_rtol, monkeypatch):
        # the doubling meets the module tolerance, whatever it is set to
        monkeypatch.setattr(numerics, "QUAD_RTOL", quad_rtol)
        res = phase_integral_numeric(PhysicalParams(1, 1, 0.1), energy, l)
        assert type(res.value) is float and type(res.err_estimate) is float
        assert 0.0 <= res.err_estimate <= quad_rtol * abs(res.value)

    @pytest.mark.parametrize("pole_share", [0.0, 1e-200, 0.5, 0.999])
    def test_line_rows_hold_up_to_the_float_limit(self, pole_share):
        # the l = 0 rule forms only 2E, its square root and 2E b^2 < 1, all finite
        # below 2^1023, where PhysicalParams.reduced stops: E log-uniform in
        # [1e200, 2^1023) and one ulp below 2^1023, at b = pole_share sqrt(1/(2E)),
        # against the partial fractions 2 pi / (A (1 + b A)), A = sqrt(2E), to 40 digits
        mp = pytest.importorskip("mpmath")
        last = math.nextafter(2.0**1023, 0.0)
        rng = np.random.default_rng(34)
        energies = [*(10.0 ** rng.uniform(200.0, math.log10(last), 24)).tolist(), last]
        with mp.workdps(40):
            for energy in energies:
                b = pole_share * math.sqrt(0.5 / energy)
                value = phase_integral_numeric(PhysicalParams(1, 1, b), energy, 0).value
                a = mp.sqrt(2 * mp.mpf(energy))
                exact = 2 * mp.pi / (a * (1 + mp.mpf(b) * a))
                assert abs(value / exact - 1) <= 1e-15, (energy, b, value)

    def test_refused_rows_come_back_nan_with_estimate_inf(self):
        # a band row below BAND_FLOOR is not evaluated; the rows beside it, a line
        # row at 1e201 among them, read as they do alone
        energy, l = np.array([1e-101, 0.1, 1e201]), np.array([1.0, 1.0, 0.0])
        value, err = numerics._phase_rows(0.0, energy, l)
        assert np.isnan(value[0]) and err[0] == math.inf
        assert (value[1], err[1]) == tuple(numerics._phase_rows(0.0, energy[1:2], l[1:2]))
        assert (value[2], err[2]) == tuple(numerics._phase_rows(0.0, energy[2:3], l[2:3]))

    @pytest.mark.parametrize("energy,l", [(0.1, 1e-78), (1e-50, 1e-60), (1e-50, 2e-70),
                                          (1e-90, 1e-60), (1e10, 1e-80), (1e100, 1e-100)])
    def test_rows_whose_edges_leave_the_floats_are_refused(self, monkeypatch, energy, l):
        # z+/z- overflows once l^2 E is below about 1.5e-154, and z+^2 first at large E:
        # such a row is refused before any trapezoid round, with no numpy warning
        monkeypatch.setattr(numerics, "_trapezoid", None)
        with pytest.raises(ToleranceNotReached,
                           match=r"with z\+\^2 and z\+/z- below 2\^1022; got .* at l="):
            phase_integral_numeric(PhysicalParams(1, 1, 0), energy, l)

    def test_rows_beside_the_edge_limit_are_finite_or_refused(self):
        # rows around both limits, up to the pole, in one call: each one is refused or
        # finite, and a kept row reads as its one-row call
        rng = np.random.default_rng(38)
        small = 10.0 ** rng.uniform(-100.0, 0.0, 20)
        large = 10.0 ** rng.uniform(0.0, 150.0, 20)
        energy = np.concatenate([small, large])
        l = np.concatenate([np.sqrt(1.5e-154 / small), np.full(20, math.sqrt(2.0**-509))])
        l *= 10.0 ** rng.uniform(-0.3, 0.3, 40)
        energy = np.minimum(energy, np.nextafter(0.5 / (l * l), 0.0))
        b = math.sqrt(0.5 / energy.max()) * 0.999999
        value, err = numerics._phase_rows(b, energy, l)
        refused = err == math.inf
        assert 0 < refused.sum() < 40
        assert np.isnan(value[refused]).all() and np.isfinite(value[~refused]).all()
        for i in (~refused).nonzero()[0]:
            alone = numerics._phase_rows(b, energy[i : i + 1], l[i : i + 1])
            assert (value[i], err[i]) == (alone[0][0], alone[1][0])

    def test_ratio_limit_falls_between_l_1e_76_and_1e_78_at_e_01(self):
        assert phase_integral_numeric(PhysicalParams(1, 1, 0), 0.1, 1e-76).value == (
            14.049629462081448)
        # the table solver's start E0 = 1/2 at l = 1e-78 is such a row
        (level,) = numerics._solve_levels(0.0, [1.0], [1e-78])
        assert isinstance(level, ToleranceNotReached)

    def test_lowered_panel_cap_raises(self, monkeypatch):
        # this band row misses QUAD_RTOL at the 64-panel start and meets it at 128
        params = PhysicalParams(1, 1, 0.0)
        value = phase_integral_numeric(params, 1e-4, 1).value
        assert value == pytest.approx(2 * PI * (1 / math.sqrt(2e-4) - 1), rel=1e-13, abs=0)
        monkeypatch.setattr(numerics, "MAX_PANELS", 64)
        with pytest.raises(ToleranceNotReached, match="within 64 panels"):
            phase_integral_numeric(params, 1e-4, 1)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.one_of(st.just(0.0), st.floats(-4.0, 0.5).map(lambda x: 10.0**x)),
           st.lists(st.tuples(st.integers(0, 1000), st.floats(0.0, 1.0)), min_size=2,
                    max_size=30))
    def test_a_row_reads_as_its_one_row_call(self, b, draws):
        # each row's value and estimate depend on its own (b, E, l) alone; energies
        # log-uniform from BAND_FLOOR up to one ulp below the window top (at most 1)
        l = np.array([float(row_l) for row_l, _ in draws])
        top = np.array([min(window_top(b, row_l), 1.0) for row_l in l])
        energy = np.minimum(top * (numerics.BAND_FLOOR / top) ** np.array([x for _, x in draws]),
                            np.nextafter(top, 0.0))
        value, err = numerics._phase_rows(b, energy, l)
        for i in range(len(l)):
            alone = numerics._phase_rows(b, energy[i : i + 1], l[i : i + 1])
            assert (value[i : i + 1].tobytes(), err[i : i + 1].tobytes()) == (
                alone[0].tobytes(), alone[1].tobytes()), (b, energy[i], l[i])

    def test_interior_rows_match_40_digit_quadrature(self):
        # 40 line and band rows against mpmath's tanh-sinh quadrature of the raw
        # integrands: b = 0 or log-uniform in [1e-4, 3], E log-uniform in
        # [1e-8, 0.9] of the window top (at most 1); the corners are left out
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        rows = []
        for i in range(40):
            b = 0.0 if i % 4 < 2 else float(10.0 ** rng.uniform(-4.0, math.log10(3.0)))
            l = 0 if i % 2 == 0 else int(rng.integers(1, 31))
            top = min(window_top(b, l), 1.0)
            rows.append((b, float(top * 10.0 ** rng.uniform(-8.0, math.log10(0.9))), l))
        with mp.workdps(40):
            for b, energy, l in rows:
                value = numerics._phase_rows(b, np.array([energy]), np.array([float(l)]))[0][0]
                mb, two_e = mp.mpf(b), 2 * mp.mpf(energy)
                if l == 0:  # even: twice the half line
                    exact = 2 * mp.quad(lambda p: 2 / ((p * p + two_e) * (1 + mb * mb * p * p)),
                                        [0, mp.inf])
                else:  # between the roots of z^2 - 4(1/l^2 - E) z + (2E)^2
                    half = 2 / mp.mpf(l) ** 2 - two_e
                    z_plus = half + mp.sqrt(half * half - two_e * two_e)
                    z_minus = two_e * two_e / z_plus
                    exact = l * mp.quad(lambda z: mp.sqrt((z - z_minus) * (z_plus - z)) / (
                        z * (z + two_e) * (1 + mb * mb * z)), [z_minus, z_plus])
                assert abs(value / exact - 1) <= 1e-15, (b, energy, l, value)


def pinned_grid(b):
    """(reduced energies, l) of the pinned rows at b: line and band rows across the window."""
    rows = []
    for l in (0, 1, 2, 7, 30):
        top = min(window_top(b, l), 1.0)
        fracs = (1e-8, 0.01, 0.3, 0.9) if l == 0 else (1e-40, 1e-6, 0.01, 0.3, 0.9, 1 - 1e-9)
        rows += [(frac * top, l) for frac in fracs]
    if b == 0.0:  # one ulp below the circular bound at l = 1000 the rule misses QUAD_RTOL
        rows.append((math.nextafter(window_top(b, 1000), 0.0), 1000))
    energy, l = zip(*rows)
    return np.array(energy), np.array(l)


PINNED_B = (0.0, 1e-3, 0.1, 0.9, 3.0)
PINNED_QUADRATURE = "e5fb5afdfc8035f3270d5892749a4432703f968060cf34e25fdb6f8d2bd1c773"


class TestPinnedQuadratureBits:
    """``_phase_rows``' values and error estimates, pinned bit for bit: a change to
    any floating-point operation of the two rules or of the doubling shows here."""

    def test_phase_rows_bits(self, monkeypatch):
        orders, trapezoid = [], numerics._trapezoid

        def counting(f, width, n):  # counts the orders a call evaluates
            orders.append(0)

            def counted(x):
                orders[-1] += 1
                return f(x)

            return trapezoid(counted, width, n)

        monkeypatch.setattr(numerics, "_trapezoid", counting)
        digest, missed, doubled = hashlib.sha256(), 0, 0
        for b in PINNED_B:
            energy, l = pinned_grid(b)
            # each b's rows in one call, where they share their grids, then row by row
            for rows in [slice(None), *(slice(i, i + 1) for i in range(len(l)))]:
                orders.clear()
                value, err = numerics._phase_rows(b, energy[rows], l[rows])
                digest.update(value.tobytes() + err.tobytes())
                missed += int(np.isnan(value).sum())
                doubled += len(value) == 1 and orders[0] > 1 and not np.isnan(value[0])
        # the l = 1000 row misses in its batch as well as alone; 45 rows double
        assert (missed, doubled) == (2, 45)
        assert digest.hexdigest() == PINNED_QUADRATURE


class TestPhaseIntegralNumeric:
    def test_newtonian_radial(self):
        res = phase_integral_numeric(PhysicalParams(1, 1, 0), 0.125, 1)
        assert res.value == pytest.approx(2 * PI, abs=1e-10)
        assert res.kind == "numeric"
        assert res.err_estimate is not None and res.err_estimate < 1e-8

    def test_deformed_radial_matches_closed_form(self):
        params = PhysicalParams(1, 1, 0.1)
        numeric = phase_integral_numeric(params, 0.125, 1).value
        closed = radial_phase_integral_closed(params, 0.125, 1).value
        assert numeric == pytest.approx(closed, rel=1e-8, abs=0)
        assert numeric == pytest.approx(1.9901227376726 * PI, rel=1e-10, abs=0)

    def test_deformed_s_channel_at_exact_root(self):
        params = PhysicalParams(1, 1, 0.1)
        res = phase_integral_numeric(params, E_1D_BETA01_N1, 0)
        assert res.value == pytest.approx(2 * PI, abs=1e-10)

    def test_out_of_window(self):
        with pytest.raises(OutOfWindow):
            phase_integral_numeric(PhysicalParams(1, 1, 0), 0.6, 1)

    @pytest.mark.parametrize("beta,l", [(2.0, 1), (2.0, 2), (1.0, 1), (3.0, 3)])
    def test_both_routes_reject_the_pole(self, beta, l):
        # e_max is the pole 1/(2 beta^2 m) here, not the circular-orbit bound
        # (at beta = 1, l = 1 the two coincide)
        params = PhysicalParams(1, 1, beta)
        pole = window_top(params.b, l)
        assert pole == 1.0 / (2.0 * beta**2)
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(params, pole, l)
        with pytest.raises(OutOfWindow):
            phase_integral_numeric(params, pole, l)

    @pytest.mark.parametrize("beta,l", [(0.0, 1), (0.1, 2), (0.9, 1), (2.0, 5)])
    def test_both_routes_vanish_at_the_circular_endpoint(self, beta, l):
        # Phi tends to 0 at the circular bound, which is no level: both routes refuse it
        params = PhysicalParams(1, 1, beta)
        top = window_top(params.b, l)
        assert top == 1.0 / (2.0 * l * l)
        with pytest.raises(OutOfWindow):
            radial_phase_integral_closed(params, top, l)
        with pytest.raises(OutOfWindow):
            phase_integral_numeric(params, top, l)
        inside = math.nextafter(top, 0.0)  # one ulp below: the closed form rounds to about 0
        assert 0.0 <= radial_phase_integral_closed(params, inside, l).value <= 1e-14
        assert 0.0 < phase_integral_numeric(params, inside, l).value <= 1e-14

    @pytest.mark.parametrize("point", ["negative", "zero", "nan", "below-top", "top", "past-top"])
    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 2.0])
    def test_both_routes_raise_at_the_same_points(self, beta, l, point):
        # the 1D closed form is the l = 0 closed route
        params = PhysicalParams(1, 1, beta)
        e_max = window_top(params.b, l)
        energy = {
            "negative": -1.0,
            "zero": 0.0,
            "nan": math.nan,
            "below-top": e_max * (1 - 1e-9),
            "top": e_max,
            "past-top": math.nextafter(e_max, math.inf),
        }[point]

        def outcome(route):
            try:
                return route().value
            except OutOfWindow:
                return OutOfWindow

        closed = outcome(
            lambda: phase_integral_1d_closed(params, energy)
            if l == 0
            else radial_phase_integral_closed(params, energy, l)
        )
        numeric = outcome(lambda: phase_integral_numeric(params, energy, l))
        assert (closed is OutOfWindow) == (numeric is OutOfWindow)
        if point == "below-top" and not math.isinf(e_max):
            assert closed > 0.0 and numeric > 0.0
        else:  # the window is open at either bound: the circular bound and the pole
            assert closed is OutOfWindow

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.one_of(st.just(0.0), st.integers(1, 50).map(float),
                     st.floats(-3.0, math.log10(50.0)).map(lambda x: 10.0**x)),
           st.booleans(), st.floats(0.0, 1.0))
    def test_both_routes_raise_at_and_past_every_top(self, l, pole, x):
        # l = 0, integer l or fractional l in [1e-3, 50]; the top is the pole 1/(2 b^2)
        # at b in [l, 100 l] (l = 0: [1e-3, 10]), else the circular bound 1/(2 l^2) at b < l
        if l == 0.0:
            b, pole = 10.0 ** (4.0 * x - 3.0), True
        else:
            b = l * 10.0 ** (2.0 * x) if pole else 0.999 * x * l
        params = PhysicalParams(1, 1, b)  # b = beta, and E = Ẽ
        top = window_top(b, l)
        assert top == (1.0 / (2.0 * b * b) if pole else 1.0 / (2.0 * l * l))

        def closed(energy):
            if l == 0.0:
                return phase_integral_1d_closed(params, energy).value
            return radial_phase_integral_closed(params, energy, l).value

        def numeric(energy):
            return phase_integral_numeric(params, energy, l).value

        for energy in (top, math.nextafter(top, math.inf)):
            for route in (closed, numeric):
                with pytest.raises(OutOfWindow):
                    route(energy)
        # one ulp below the top is inside: admitted by both routes.  The closed form
        # can round to 0 or below there (ROADMAP item 6), so only its finiteness is held
        inside = math.nextafter(top, 0.0)
        assert math.isfinite(closed(inside)), (b, l)
        try:
            assert 0.0 <= numeric(inside) < math.inf, (b, l)
        except ToleranceNotReached:  # the band rule can miss QUAD_RTOL one ulp below the top
            assert l > 0.0, b

    def test_l_past_the_int64_square(self):
        # l * l = 1.6e19 wraps as an int64; the rows are floats
        params = PhysicalParams(1, 1, 0)
        numeric = phase_integral_numeric(params, 1e-20, 4_000_000_000).value
        closed = radial_phase_integral_closed(params, 1e-20, 4_000_000_000).value
        assert numeric == pytest.approx(closed, rel=1e-12, abs=0)

    @pytest.mark.parametrize("phase", [phase_integral_numeric, radial_phase_integral_closed])
    def test_l_past_the_float_range_fails_the_window_check(self, phase):
        # 2.0 * l * l overflowed in window_top; the message quotes no l
        with pytest.raises(ValueError, match=r"^l must be < inf, an int within the float range$"):
            phase(PhysicalParams(1, 1, 0.01), 0.1, 10**400)
        with pytest.raises(OutOfWindow):  # a float inf closes the window
            phase(PhysicalParams(1, 1, 0.01), 0.1, math.inf)

    def test_negative_l_fails_the_window_check(self):
        with pytest.raises(ValueError, match="l must be >= 0"):
            phase_integral_numeric(PhysicalParams(1, 1, 0), 0.1, -1)

    def test_oracle_equivalence_grid(self):
        # matches the closed form over >= 100 tuples spanning l in 0..3 and
        # beta in {0, 0.01, 0.05, 0.1}
        worst = 0.0
        count = 0
        for beta in (0.0, 0.01, 0.05, 0.1):
            params = PhysicalParams(1, 1, beta)
            for l in (0, 1, 2, 3):
                cap = 1.0 if l == 0 else 0.5 / l**2
                for frac in np.linspace(0.06, 0.94, 8):
                    energy = float(frac * cap)
                    numeric = phase_integral_numeric(params, energy, l).value
                    closed = (
                        phase_integral_1d_closed(params, energy).value
                        if l == 0
                        else radial_phase_integral_closed(params, energy, l).value
                    )
                    worst = max(worst, abs(numeric - closed) / abs(closed))
                    count += 1
        assert count >= 100
        assert worst <= 1e-8


class TestLevelRoutes:
    """The two routes to a level: energy_closed and energy_numeric."""

    def test_newtonian_p_level(self):
        energy = energy_closed(PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=1))
        assert energy == pytest.approx(0.125, rel=1e-10, abs=0)

    def test_deformed_p_level_against_series(self):
        energy = energy_closed(PhysicalParams(1, 1, 0.1), QuantumNumbers(n=1, l=1))
        assert energy == pytest.approx(0.1243834369668, rel=1e-10, abs=0)
        # the first-order series 0.1243750 is off only at order beta^4
        assert energy == pytest.approx(0.1243750, abs=2e-5)

    def test_series_residual_scales_as_beta_fourth(self):
        qn = QuantumNumbers(n=1, l=1)
        betas = (0.02, 0.04, 0.08)
        residuals = []
        for beta in betas:
            params = PhysicalParams(1, 1, beta)
            energy = energy_closed(params, qn)
            residuals.append(abs(energy / energy_series(params, qn) - 1.0))
        slope = np.polyfit(np.log(betas), np.log(residuals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.15)

    def test_deformed_s_channel_numeric_matches_exact(self):
        params = PhysicalParams(1, 1, 0.1)
        energy = energy_numeric(params, QuantumNumbers(n=1, l=0))
        assert energy == pytest.approx(energy_closed(params, QuantumNumbers(1)), rel=1e-8, abs=0)
        assert energy == pytest.approx(0.4196011, abs=1e-6)

    def test_methods_agree(self):
        params = PhysicalParams(1, 1, 0.05)
        for qn in (QuantumNumbers(2, 0), QuantumNumbers(1, 1), QuantumNumbers(2, 1)):
            closed = energy_closed(params, qn)
            numeric = energy_numeric(params, qn)
            assert numeric == pytest.approx(closed, rel=1e-8, abs=0)

    def test_residual_of_quantization_condition(self):
        for beta in (0.0, 0.01, 0.1):
            params = PhysicalParams(1, 1, beta)
            for qn in (QuantumNumbers(1, 0), QuantumNumbers(1, 1), QuantumNumbers(3, 2)):
                energy = energy_closed(params, qn)
                phi = (
                    phase_integral_1d_closed(params, energy).value
                    if qn.l == 0
                    else radial_phase_integral_closed(params, energy, qn.l).value
                )
                assert abs(phi - 2 * PI * qn.n) <= 1e-10 * 2 * PI * qn.n

    def test_no_root_at_strong_deformation(self):
        # the 1D loop at the window top is pi*beta*m*e2 = 3 pi > 2 pi n
        with pytest.raises(NoRootInWindow):
            energy_closed(PhysicalParams(1, 1, 3.0), QuantumNumbers(n=1, l=0))

    def test_infeasible_levels_are_those_without_a_sign_change(self):
        # The closed route decides feasibility algebraically.  The oracle is
        # the sign of Phi - 2 pi n just below the window top, from the phase
        # integrals, which is what the bracketing solver decided; on this
        # grid it found 172 infeasible levels.
        infeasible, expected = set(), set()
        for beta in [*np.linspace(0.01, 5, 120), 0.9, 3.0]:
            params = PhysicalParams(1, 1, beta)
            for n_prime in range(1, 11):
                for l in range(n_prime):
                    qn = QuantumNumbers(n_prime - l, l)
                    top = window_top(params.b, l) * (1 - 1e-9)
                    phi = (
                        phase_integral_1d_closed(params, top)
                        if l == 0
                        else radial_phase_integral_closed(params, top, l)
                    )
                    if phi.value >= 2 * PI * qn.n:
                        expected.add((beta, qn))
                    try:
                        energy_closed(params, qn)
                    except NoRootInWindow:
                        infeasible.add((beta, qn))
        assert infeasible == expected
        assert len(infeasible) == 172
        # beta m e2 = 2n + l: the root sits on the pole
        assert {(3.0, QuantumNumbers(1, 1)), (5.0, QuantumNumbers(1, 3))} <= infeasible

    def test_quadrature_route_finds_the_same_infeasible_levels(self):
        # The quadrature route's own verdict: no sign change of its Phi - 2 pi n
        # below the window top.  Every level of a beta goes through one table
        # solve (energy_numeric is its one-level call), and energy_numeric
        # itself runs on every infeasible level.
        closed, numeric = set(), set()
        for beta in [*np.linspace(0.01, 5, 60), 0.9, 3.0]:
            params = PhysicalParams(1, 1, beta)
            levels = [QuantumNumbers(n_prime - l, l) for n_prime in range(1, 7)
                      for l in range(n_prime)]
            solved = numerics._solve_levels(params.b, [qn.n for qn in levels],
                                            [qn.l for qn in levels])
            for qn, energy in zip(levels, solved):
                if isinstance(energy, NoRootInWindow):
                    numeric.add((beta, qn))
                try:
                    energy_closed(params, qn)
                except NoRootInWindow:
                    closed.add((beta, qn))
        assert numeric == closed
        assert len(closed) == 88
        # beta m e2 = 2n + l: the root sits on the pole
        assert {(3.0, QuantumNumbers(1, 1)), (5.0, QuantumNumbers(1, 3)),
                (5.0, QuantumNumbers(2, 1))} <= closed
        no_sign_change = r"Phi\(E\) - 2 pi n = .* does not change sign"
        for beta, qn in closed:
            with pytest.raises(NoRootInWindow, match=no_sign_change):
                energy_numeric(PhysicalParams(1, 1, beta), qn)


class TestSpectrumTable:
    def test_newtonian_degeneracy(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0), 3)
        assert len(entries) == 6
        assert [(e.qn.n_prime, e.qn.l) for e in entries] == [
            (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
        ]
        for entry in entries:
            assert entry.error is None
            expected = 1.0 / (2.0 * entry.qn.n_prime**2)
            assert entry.e_closed == pytest.approx(expected, rel=1e-10, abs=0)
            assert entry.e_numeric == pytest.approx(expected, rel=1e-8, abs=0)
        # equal n' implies equal energy at beta = 0
        by_np = {}
        for entry in entries:
            by_np.setdefault(entry.qn.n_prime, []).append(entry.e_closed)
        for values in by_np.values():
            for v in values:
                assert v == pytest.approx(values[0], rel=1e-10, abs=0)

    def test_deformed_table(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0.1), 2)
        index = {(e.qn.n_prime, e.qn.l): e for e in entries}
        assert index[(1, 0)].e_closed == pytest.approx(0.4196011, abs=1e-6)
        assert index[(2, 1)].e_closed < 0.125
        assert index[(2, 1)].e_series == pytest.approx(0.1243750, rel=1e-12, abs=0)

    def test_single_entry(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0), 1)
        assert len(entries) == 1
        entry = entries[0]
        for value in (entry.e_newton, entry.e_closed, entry.e_numeric, entry.e_series):
            assert value == pytest.approx(0.5, rel=1e-8, abs=0)

    def test_corrections_lower_energies(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0.1), 4)
        for entry in entries:
            assert entry.error is None
            assert entry.e_closed < entry.e_newton

    def test_solver_errors_recorded_per_entry(self):
        # beta m e2 = 3 makes every 1D level with 2n < 3 infeasible
        entries = spectrum_table(PhysicalParams(1, 1, 3.0), 1)
        assert len(entries) == 1
        assert entries[0].error is not None
        assert "NoRootInWindow" in entries[0].error
        assert math.isnan(entries[0].e_closed)
        assert entries[0].e_newton == pytest.approx(0.5)

    @pytest.mark.parametrize("n_prime_max", [3.0, "3", True, 0, -1, np.float64(3)])
    def test_shell_count_must_be_an_integer_from_1(self, n_prime_max):
        # 3.0 and "3" raised TypeError, and True gave a 1-shell table
        with pytest.raises(ValueError, match="n_prime_max must be"):
            spectrum_table(PhysicalParams(1, 1, 0.1), n_prime_max)

    def test_shell_count_takes_a_numpy_integer(self):
        # range() takes an __index__ integer, so a loop over np.arange can build tables
        params = PhysicalParams(1, 1, 0.1)
        assert table_fields(spectrum_table(params, np.int64(3))) == table_fields(
            spectrum_table(params, 3))

    @pytest.mark.parametrize("n_prime_max", [2**53 + 1, 2**70], ids=["2**53+1", "2**70"])
    def test_shell_count_past_2_to_the_53_builds_no_levels(self, monkeypatch, n_prime_max):
        # 2**70 shells ran until memory ran out: QuantumNumbers bounds n and l by 2**53
        def no_levels(count):
            raise AssertionError(f"the levels of {count} shells were built")

        monkeypatch.setattr(numerics, "_table_levels", no_levels)
        with pytest.raises(ValueError, match=r"^n_prime_max must be <= 2\*\*53"):
            spectrum_table(PhysicalParams(1, 1, 0.1), n_prime_max)


def table_fields(table):
    """Every field of every entry, floats as hex: equal exactly when bit for bit, NaN too."""
    return [(e.qn, e.error, *(float.hex(x) for x in (e.e_newton, e.e_closed, e.e_numeric,
                                                       e.e_series))) for e in table]


class TestLevelSet:
    """A table's b-free structure is built once per shape and changes no result."""

    def test_tables_read_as_their_cold_calls(self):
        # beta = 3.0 gives the error rows
        betas = (0.01, 0.14, 3.0)
        cold = []
        for beta in betas:
            numerics._table_levels.cache_clear()
            cold.append(table_fields(spectrum_table(PhysicalParams(1, 1, beta), 8)))
        for beta in (0.0, 0.05, 0.9):
            spectrum_table(PhysicalParams(1, 1, beta), 8)
            spectrum_table(PhysicalParams(1, 1, beta), 5)
        warm = [table_fields(spectrum_table(PhysicalParams(1, 1, beta), 8)) for beta in betas]
        assert warm == cold
        assert any(row[1] is not None for row in cold[2])

    def test_cached_structure_is_read_only(self):
        levels, n, l, level_set = numerics._table_levels(4)
        assert all(type(x) is tuple for x in (levels, n, l, level_set))
        for array in level_set:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_a_repeated_shape_builds_no_levels(self, monkeypatch):
        spectrum_table(PhysicalParams(1, 1, 0.02), 8)
        built, sets = [], []
        post_init, level_set = QuantumNumbers.__post_init__, numerics._level_set

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        def counting_level_set(*args):
            sets.append(args)
            return level_set(*args)

        monkeypatch.setattr(QuantumNumbers, "__post_init__", counting_post_init)
        monkeypatch.setattr(numerics, "_level_set", counting_level_set)
        table = spectrum_table(PhysicalParams(1, 1, 0.05), 8)
        assert len(table) == 36 and all(entry.error is None for entry in table)
        assert (built, sets) == ([], [])

    @pytest.mark.parametrize("n,l", [(0, 1), (1, -1), (math.nan, 1), (1, math.nan),
                                     (math.inf, 1), (1, math.inf), (10**400, 1), (1, 10**400)])
    def test_invalid_levels_raise_and_leave_the_next_call(self, n, l):
        valid = numerics._solve_levels(0.1, [2, 1], [1, 1])
        with pytest.raises(ValueError, match=r"need 0 < n < inf and 0 <= l < inf"):
            numerics._solve_levels(0.1, [2, n], [1, l])
        assert numerics._solve_levels(0.1, [2, 1], [1, 1]) == valid


class TestTableSolver:
    """The quadrature route solves a table's levels together, row by row."""

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1, 0.9, 3.0])
    def test_table_matches_one_level_solves_and_closed_levels(self, beta):
        params = PhysicalParams(1, 1, beta)
        for entry in spectrum_table(params, 8):
            if entry.error is not None:
                with pytest.raises(NoRootInWindow):
                    energy_closed(params, entry.qn)
                continue
            assert entry.e_numeric == energy_numeric(params, entry.qn)
            assert abs(entry.e_numeric / entry.e_closed - 1.0) <= 1e-11

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.01, 0.15, 0.9, 3.0])
    def test_levels_agree_with_the_closed_route_to_roundoff(self, beta):
        # the secant's last step, not evaluated: a few ulps
        gaps = [abs(entry.e_numeric / entry.e_closed - 1.0)
                for entry in spectrum_table(PhysicalParams(1, 1, beta), 20)
                if entry.error is None]
        assert gaps and max(gaps) <= 1e-14

    @pytest.mark.parametrize("beta,rows", [
        (0.0, [36]),
        (2e-3, [36, 36, 9]),
        (0.02, [36, 36, 36, 2]),
        (0.14, [36, 36, 36, 17, 1]),
    ])
    def test_table_work_is_pinned(self, monkeypatch, beta, rows):
        # the rows of each _phase_rows call of an 8-shell table: the starts of all
        # 36 levels, then one call per secant round over the levels still open
        calls, core = [], numerics._phase_rows

        def counting_core(*args):
            calls.append(len(args[1]))
            return core(*args)

        monkeypatch.setattr(numerics, "_phase_rows", counting_core)
        spectrum_table(PhysicalParams(1, 1, beta), 8)
        assert calls == rows

    @pytest.mark.parametrize("beta", [3.0, 10.0])
    def test_both_routes_solve_every_level(self, monkeypatch, beta):
        # the quadrature route brackets the closed route's infeasible levels too,
        # and each row's error is the closed route's failure, word for word
        params = PhysicalParams(1, 1, beta)
        calls, core = [], numerics._phase_rows

        def counting_core(*args):
            calls.append(len(args[1]))
            return core(*args)

        monkeypatch.setattr(numerics, "_phase_rows", counting_core)
        table = spectrum_table(params, 8)
        assert calls[0] == 36  # the starts of all 36 levels
        failed = [entry for entry in table if entry.error is not None]
        assert failed
        for entry in failed:
            with pytest.raises(SnyderCoulombError) as closed:
                energy_closed(params, entry.qn)
            assert entry.error == f"{type(closed.value).__name__}: {closed.value}"

    def test_missed_quadrature_fails_only_its_row(self, monkeypatch):
        # A row of the first array call misses its tolerance: the l = 0
        # level (n', l) = (3, 0), whose rows share the fixed 450-panel line.
        params = PhysicalParams(1, 1, 0.1)
        unforced = spectrum_table(params, 8)
        index = [(e.qn.n_prime, e.qn.l) for e in unforced].index((3, 0))
        calls, core = [], numerics._phase_rows

        def forced(*args):
            value, err = core(*args)
            calls.append(len(value))
            if len(calls) == 1:
                value[index] = math.nan
            return value, err

        monkeypatch.setattr(numerics, "_phase_rows", forced)
        table = spectrum_table(params, 8)
        assert table[index].error.startswith(
            "ToleranceNotReached: trapezoid rule did not reach rtol=1e-10 within 16384 panels"
        )
        assert math.isnan(table[index].e_numeric) and math.isnan(table[index].e_closed)
        assert table[:index] + table[index + 1 :] == unforced[:index] + unforced[index + 1 :]

    def test_bracket_without_a_sign_change_gives_up_after_100_widenings(self, monkeypatch):
        # a Phi below 2 pi n at every energy: u doubles forever
        calls = []

        def flat(params, energy, l):
            calls.append(len(energy))
            return np.zeros(len(energy)), np.zeros(len(energy))

        monkeypatch.setattr(numerics, "_phase_rows", flat)
        with pytest.raises(NoRootInWindow, match="no sign change of Phi"):
            energy_numeric(PhysicalParams(1, 1, 0.1), QuantumNumbers(1, 1))
        assert calls == [1] * 100

    def test_unreachable_root_tolerance_gives_up_after_100_rounds(self, monkeypatch):
        # no step is shorter than 0, not even one from a residual of exactly 0.0
        calls, core = [], numerics._phase_rows

        def counting_core(*args):
            calls.append(len(args[1]))
            return core(*args)

        monkeypatch.setattr(numerics, "_phase_rows", counting_core)
        monkeypatch.setattr(numerics, "ROOT_RTOL", 0.0)
        with pytest.raises(ToleranceNotReached,
                           match="secant method did not reach rtol=0.0 in 100 steps"):
            energy_numeric(PhysicalParams(1, 1, 0.1), QuantumNumbers(1, 1))
        assert calls == [1] * 100

    def test_bracket_below_the_band_floor_is_refused(self):
        # b = 1e60 puts the l = 1 window top at 5e-121, below BAND_FLOOR
        with pytest.raises(ToleranceNotReached, match="takes band rows down to"):
            energy_numeric(PhysicalParams(1, 1, 1e60), QuantumNumbers(1, 1))

    def test_empty_window_fails_before_any_evaluation(self, monkeypatch):
        # 2 b^2 overflows: the window top is 0 and no bracket fits below it
        params = PhysicalParams(2.58e24, 3.53e42, 1.59e109)
        assert window_top(params.b, 1) == 0.0
        monkeypatch.setattr(numerics, "_phase_rows", None)
        with pytest.raises(NoRootInWindow, match=r"empty reduced window \(0, 0.0\)"):
            energy_numeric(params, QuantumNumbers(2**40, 1))

    def test_start_past_the_float_range_fails_before_any_evaluation(self, monkeypatch):
        # E0 = 1/(2 n^2) at l = 0 reaches 2^1023 below n = 7.5e-155, and overflows
        monkeypatch.setattr(numerics, "_phase_rows", None)
        for n in (5e-155, 1e-300):
            (energy,) = numerics._solve_levels(0.0, [n], [0])
            assert isinstance(energy, ScaleOutOfRange)
            assert str(energy) == (f"the start E/(m e2^2) = inf leaves the float range "
                                   f"for n={n}, l=0")

    @pytest.mark.parametrize("n,l,b", [
        (1.235920473197018e-151, 0, 4.936075711728386e-153),
        (1e-150, 0, 0.0),
        (1e-154, 0, 0.0),
    ])
    def test_tiny_n_levels_keep_their_last_step(self, n, l, b):
        # residuals of order 2 pi n 1e-12 and below: the secant step stays exact
        (energy,) = numerics._solve_levels(b, [n], [l])
        assert abs(energy / level_closed(b, n, l) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n_prime_max", [8, 20, 50])
    def test_undeformed_table_takes_one_call(self, monkeypatch, n_prime_max):
        # Phi is exactly linear in u at b = 0: one step from E0 ends every level
        calls, core = [], numerics._phase_rows

        def counting_core(*args):
            calls.append(len(args[1]))
            return core(*args)

        monkeypatch.setattr(numerics, "_phase_rows", counting_core)
        spectrum_table(PhysicalParams(1, 1, 0), n_prime_max)
        assert calls == [n_prime_max * (n_prime_max + 1) // 2]

    def test_underflowing_beta_raises_no_zero_division(self):
        params = PhysicalParams(1, 1, 1e-200)
        undeformed = PhysicalParams(1, 1, 0)
        assert phase_integral_1d_closed(params, 0.1) == phase_integral_1d_closed(undeformed, 0.1)
        with pytest.raises(DegenerateFit):
            correction_order(undeformed, QuantumNumbers(1, 0), [1e-200, 1e-199, 1e-198, 1e-197])


# n log-uniform in [1e-3, 50]; l = 0, or log-uniform in [1e-8, 50]
real_n = st.floats(-3.0, math.log10(50.0)).map(lambda x: 10.0**x)
real_l = st.one_of(st.just(0.0), st.floats(-8.0, math.log10(50.0)).map(lambda x: 10.0**x))


class TestRealQuantumNumbers:
    """Both routes take a level at real n > 0 and l >= 0: level_closed and _solve_levels."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.one_of(st.tuples(real_n, real_l), st.tuples(st.integers(1, 50), st.integers(0, 50))),
           st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    def test_routes_agree_at_real_quantum_numbers(self, quantum, share):
        # b up to 0.99 of the feasibility bound 2n + l; an integer (n, l), given as
        # floats, reads as its QuantumNumbers call bit for bit on both routes
        n, l = quantum
        b = share * (2 * n + l)
        params = PhysicalParams(1, 1, b)  # b = beta, and E = Ẽ
        closed = level_closed(b, float(n), float(l))
        (numeric,) = numerics._solve_levels(b, [float(n)], [float(l)])
        assert isinstance(numeric, float), (n, l, b, numeric)
        assert abs(numeric / closed - 1.0) <= 1e-14, (n, l, b, closed, numeric)
        if isinstance(n, int):
            qn = QuantumNumbers(n, l)
            assert (closed, numeric) == (energy_closed(params, qn), energy_numeric(params, qn))

    @pytest.mark.parametrize("n,l", [(0.0, 0.0), (-1.0, 1.0), (1.0, -1.0), (math.nan, 0.0),
                                     (1.0, math.nan), (math.inf, 0.0), (1.0, math.inf),
                                     (10**400, 0), (1, 10**400)])
    def test_quantum_numbers_outside_the_real_domain_raise(self, n, l):
        # an int past the float range too, which numpy's float conversion overflows on
        with pytest.raises(ValueError, match=r"need 0 < n < inf and 0 <= l < inf"):
            numerics._solve_levels(0.1, [2.0, n], [1.0, l])

    @pytest.mark.parametrize("core", [
        lambda b, l: level_closed(b, 1, l),
        lambda b, l: numerics._solve_levels(b, [1], [l]),
    ], ids=["level_closed", "_solve_levels"])
    @pytest.mark.parametrize("b", [-0.1, -1.0, math.nan, -10**5000],
                             ids=["-0.1", "-1.0", "nan", "-10**5000"])
    def test_a_b_not_at_least_zero_raises(self, core, b):
        # the level at |b|, a math domain error, an OverflowError or a row error before
        quoted = "" if isinstance(b, int) else f", got {b!r}"
        for l in (0, 1):
            with pytest.raises(ValueError) as info:
                core(b, l)
            assert (type(info.value), str(info.value)) == (
                ValueError, f"beta m e2 must be >= 0{quoted}")

    def test_messages_name_n_and_l_as_given(self):
        # b = 3 makes (1, 0) infeasible: the quadrature route names the level itself
        (energy,) = numerics._solve_levels(3.0, [1], [0])
        assert isinstance(energy, NoRootInWindow)
        assert "for n=1, l=0: level infeasible at beta m e2 = 3.0" in str(energy)


class TestCorrectionOrder:
    BETAS = tuple(np.logspace(-4, -2, 7))

    def test_s_channel_slope_one(self):
        fit = correction_order(
            PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=0), self.BETAS
        )
        assert fit.slope == pytest.approx(1.0, abs=0.02)
        assert fit.n_used == 7

    def test_p_channel_slope_two(self):
        fit = correction_order(
            PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=1), self.BETAS
        )
        assert fit.slope == pytest.approx(2.0, abs=0.02)

    def test_d_channel_slope_two(self):
        fit = correction_order(
            PhysicalParams(1, 1, 0), QuantumNumbers(n=1, l=2), self.BETAS
        )
        assert fit.slope == pytest.approx(2.0, abs=0.02)

    def test_grid_guards(self):
        params = PhysicalParams(1, 1, 0)
        qn = QuantumNumbers(n=1, l=0)
        with pytest.raises(ValueError):
            correction_order(params, qn, [1e-3])
        with pytest.raises(ValueError):
            correction_order(params, qn, [1e-3, 2e-3, 3e-3, 4e-3])  # < 1.5 decades
        with pytest.raises(ValueError):
            correction_order(params, qn, [0.0, 1e-3, 1e-2, 1e-1])

    def test_nonzero_base_beta_is_rejected(self):
        # the grid sets the deformation; a base beta would be silently ignored
        with pytest.raises(ValueError, match="params_base.beta must be 0"):
            correction_order(PhysicalParams(1, 1, 0.7), QuantumNumbers(n=1, l=1), self.BETAS)

    def test_degenerate_fit_below_noise_floor(self):
        # corrections ~ beta^2 ~ 1e-16 vanish beneath the 1e-13 noise floor
        with pytest.raises(DegenerateFit):
            correction_order(
                PhysicalParams(1, 1, 0),
                QuantumNumbers(n=1, l=1),
                [1e-8, 3e-8, 1e-7, 1e-6],
            )


class TestLLimitStudy:
    def test_newtonian_limit_recovers_1d(self):
        params = PhysicalParams(1, 1, 0)
        rows = l_limit_study(params, 0.125, [1e-2, 1e-4, 1e-6])
        # gap is exactly -2 pi l at beta = 0
        for row in rows:
            assert row.gap == pytest.approx(-2 * PI * row.l, rel=1e-9, abs=0)
        assert abs(rows[-1].gap) < 1e-4

    def test_deformed_limit_recovers_1d(self):
        # the l -> 0 limit of the radial closed form equals the 1D closed
        # form for every beta; at finite l the gap is dominated by -pi*l
        params = PhysicalParams(1, 1, 0.1)
        rows = l_limit_study(params, 0.125, [1e-3, 1e-5, 1e-7, 1e-9])
        gaps = [abs(row.gap) for row in rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-7
        phi_1d = phase_integral_1d_closed(params, 0.125).value
        assert rows[-1].phi_radial == pytest.approx(phi_1d, rel=1e-9, abs=0)

    def test_gap_at_small_l_is_band_offset_dominated(self):
        # for g = 2 beta m e2 / W >> l the raw gap approaches
        # -pi*(l + l^2/(2 g))
        params = PhysicalParams(1, 1, 0.1)
        (row,) = l_limit_study(params, 0.125, [1e-3])
        w = 1 - 2 * 0.1**2 * 0.125
        g = 2 * 0.1 / w
        expected = -PI * (1e-3 + 1e-6 / (2 * g))
        assert row.gap == pytest.approx(expected, rel=1e-3, abs=0)

    def test_out_of_window_recorded_in_row(self):
        # E = 0.6 lies above the l = 1 circular-orbit bound but inside the
        # 1D window, so only the radial value fails
        (row,) = l_limit_study(PhysicalParams(1, 1, 0), 0.6, [1.0])
        assert row.error.startswith("OutOfWindow")
        assert math.isnan(row.phi_radial) and math.isnan(row.gap)
        assert math.isfinite(row.phi_one_dim)
        # past the 1D pole at beta = 1.5 every value of every row fails
        rows = l_limit_study(PhysicalParams(1, 1, 1.5), 0.6, [1.0, 1e-3])
        assert all(r.error.startswith("OutOfWindow") for r in rows)
        assert all(math.isnan(r.phi_one_dim) for r in rows)
