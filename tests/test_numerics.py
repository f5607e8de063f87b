"""Quadrature oracles, spectrum solving, and scaling fits."""

import hashlib
import math

import numpy as np
import pytest

from snyder_coulomb import numerics
from snyder_coulomb import (
    DegenerateFit,
    NoRootInWindow,
    OutOfWindow,
    PhysicalParams,
    QuantumNumbers,
    SnyderCoulombError,
    ToleranceNotReached,
    correction_order,
    energy_closed,
    energy_numeric,
    energy_series,
    l_limit_study,
    phase_integral_1d_closed,
    phase_integral_numeric,
    radial_phase_integral_closed,
    spectrum_table,
    window_top,
)

PI = math.pi
E_1D_BETA01_N1 = 0.4196010845019197


class TestRealLineRule:
    """The l = 0 route: the raw integrand over the real line, in p = e^s."""

    def test_arctangent_integral(self):
        # at beta = 0, 2mE = 1 the integrand is 2 / (p^2 + 1)
        res = phase_integral_numeric(PhysicalParams(1, 1, 0), 0.5, 0)
        assert res.value == pytest.approx(2 * PI, rel=1e-13)
        assert res.err_estimate <= 1e-10 * res.value

    def test_deformed_lorentzian_against_partial_fractions(self):
        # 2 m e2 / ((p^2 + 2mE)(1 + beta^2 p^2)) integrates to
        # 2 m e2 pi / (A (1 + beta A)) with A = sqrt(2mE)
        m = e2 = 1.0
        energy, beta = 0.5, 0.1
        a = math.sqrt(2 * m * energy)
        value = phase_integral_numeric(PhysicalParams(m, e2, beta), energy, 0).value
        assert value == pytest.approx(2 * m * e2 * PI / (a * (1 + beta * a)), rel=1e-13)
        assert value == pytest.approx(2 * PI / 1.1, rel=1e-13)

    def test_exhausted_panels_fail_only_their_row(self):
        # the spike of height 2e14 at p = 0 needs h << 1e-7 to resolve; the
        # periodic row beside it keeps the sum of its own first passing order
        periodic = lambda p: np.exp(np.cos(PI * p))
        rows = lambda p: np.stack([2.0 / (p * p + 1e-14), periodic(p)])
        value, err = numerics._trapezoid(rows, -1.0, 1.0, 16)
        assert math.isnan(value[0]) and err[0] > numerics.QUAD_RTOL
        alone = numerics._trapezoid(periodic, -1.0, 1.0, 16)
        assert (value[1], err[1]) == alone
        assert value[1] == pytest.approx(2 * 1.2660658777520084, rel=1e-14)  # 2 I0(1)


class TestBandRule:
    """The l >= 1 route: the raw integrand over the band, in z = e^s."""

    def test_newtonian_radial_integrand(self):
        # at beta = 0 the radial loop integral is 2 pi (n' - l) with
        # n' = sqrt(m e2^2 / (2E)) = 5 here
        res = phase_integral_numeric(PhysicalParams(1, 1, 0), 0.02, 3)
        assert res.value == pytest.approx(4 * PI, rel=1e-13)

    def test_degenerate_band_is_zero(self, monkeypatch):
        # admit flags the circular endpoint before any rule runs
        monkeypatch.setattr(numerics, "_phase_rows", None)
        params = PhysicalParams(1, 1, 0.1)
        top = window_top(params.b, 2)
        res = phase_integral_numeric(params, top, 2)
        assert (res.value, res.err_estimate) == (0.0, 0.0)


class TestTrapezoidRule:
    BETAS = (0.0, 1e-3, 0.1, 0.5)

    @pytest.mark.parametrize("beta", BETAS)
    def test_real_line_matches_closed_form(self, beta):
        params = PhysicalParams(1, 1, beta)
        for energy in np.geomspace(1e-8, 0.49, 25):
            numeric = phase_integral_numeric(params, float(energy), 0).value
            closed = phase_integral_1d_closed(params, float(energy)).value
            assert numeric == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("l", [1, 3, 20, 50])
    @pytest.mark.parametrize("beta", BETAS)
    def test_band_matches_closed_form(self, beta, l):
        params = PhysicalParams(1, 1, beta)
        e_max = window_top(params.b, l)
        for frac in np.geomspace(1e-8, 0.9, 25):
            energy = float(frac * e_max)
            numeric = phase_integral_numeric(params, energy, l).value
            closed = radial_phase_integral_closed(params, energy, l).value
            assert numeric == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("quad_rtol", [1e-6, numerics.QUAD_RTOL, 1e-13])
    @pytest.mark.parametrize("l,energy", [(0, 1e-6), (0, 0.3), (1, 1e-6), (1, 0.1), (3, 0.05)])
    def test_error_estimate_within_tolerance(self, l, energy, quad_rtol, monkeypatch):
        # the doubling meets the module tolerance, whatever it is set to
        monkeypatch.setattr(numerics, "QUAD_RTOL", quad_rtol)
        res = phase_integral_numeric(PhysicalParams(1, 1, 0.1), energy, l)
        assert type(res.value) is float and type(res.err_estimate) is float
        assert 0.0 <= res.err_estimate <= quad_rtol * abs(res.value)

    @pytest.mark.parametrize("near_pole", [False, True])
    def test_line_rows_stop_at_the_ceiling(self, near_pole):
        # up to LINE_CEILING the l = 0 grid stays finite, b^2 E near 1/2 included
        top = numerics.LINE_CEILING
        params = PhysicalParams(1, 1, 0.999 * math.sqrt(0.5 / top) if near_pole else 0.0)
        numeric = phase_integral_numeric(params, top, 0).value
        assert numeric == pytest.approx(phase_integral_1d_closed(params, top).value, rel=1e-13)
        with pytest.raises(ToleranceNotReached, match="and l = 0 rows up to"):
            phase_integral_numeric(params, math.nextafter(top, math.inf), 0)

    def test_refused_rows_come_back_nan_with_estimate_inf(self):
        # a band row below BAND_FLOOR and a line row above LINE_CEILING are not
        # evaluated; the row between them reads as it does alone
        energy, l = np.array([1e-101, 0.1, 1e201]), np.array([1.0, 1.0, 0.0])
        value, err = numerics._phase_rows(0.0, energy, l)
        assert np.isnan(value[[0, 2]]).all() and (err[[0, 2]] == math.inf).all()
        assert (value[1], err[1]) == tuple(numerics._phase_rows(0.0, energy[1:2], l[1:2]))

    def test_lowered_panel_cap_raises(self, monkeypatch):
        # this band row starts at 48 panels, whose estimate misses QUAD_RTOL
        params = PhysicalParams(1, 1, 0.0)
        assert phase_integral_numeric(params, 0.005, 1).err_estimate > 0.0
        monkeypatch.setattr(numerics, "MAX_PANELS", 48)
        with pytest.raises(ToleranceNotReached, match="within 48 panels"):
            phase_integral_numeric(params, 0.005, 1)


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
PINNED_QUADRATURE = "33886b3c96614c9aafa227d06a52983401c27e083bd03cb6c3cd82b3889a12e3"


class TestPinnedQuadratureBits:
    """``_phase_rows``' values and error estimates, pinned bit for bit: a change to
    any floating-point operation of the two rules or of the doubling shows here."""

    def test_phase_rows_bits(self, monkeypatch):
        orders, trapezoid = [], numerics._trapezoid

        def counting(f, a, b, n):  # counts the orders a call evaluates
            orders.append(0)

            def counted(x):
                orders[-1] += 1
                return f(x)

            return trapezoid(counted, a, b, n)

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
        # the l = 1000 row misses alone (its batch's wider grid resolves it); 65 rows double
        assert (missed, doubled) == (1, 65)
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
        assert numeric == pytest.approx(closed, rel=1e-8)
        assert numeric == pytest.approx(1.9901227376726 * PI, rel=1e-10)

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
        params = PhysicalParams(1, 1, beta)
        top = window_top(params.b, l)
        assert top == 1.0 / (2.0 * l * l)
        assert radial_phase_integral_closed(params, top, l).value == 0.0
        assert phase_integral_numeric(params, top, l).value == 0.0

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
        if point in ("negative", "zero", "nan", "past-top") or math.isinf(e_max):
            assert closed is OutOfWindow
        elif point == "below-top":
            assert closed > 0.0 and numeric > 0.0
        elif l > beta:  # top is the circular bound 1/(2 l^2), below the pole 1/(2 beta^2)
            assert closed == numeric == 0.0
        else:  # top is the pole
            assert closed is OutOfWindow

    def test_l_past_the_int64_square(self):
        # l * l = 1.6e19 wraps as an int64; the rows are floats
        params = PhysicalParams(1, 1, 0)
        numeric = phase_integral_numeric(params, 1e-20, 4_000_000_000).value
        closed = radial_phase_integral_closed(params, 1e-20, 4_000_000_000).value
        assert numeric == pytest.approx(closed, rel=1e-12)

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
        assert energy == pytest.approx(0.125, rel=1e-10)

    def test_deformed_p_level_against_series(self):
        energy = energy_closed(PhysicalParams(1, 1, 0.1), QuantumNumbers(n=1, l=1))
        assert energy == pytest.approx(0.1243834369668, rel=1e-10)
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
        assert energy == pytest.approx(energy_closed(params, QuantumNumbers(1)), rel=1e-8)
        assert energy == pytest.approx(0.4196011, abs=1e-6)

    def test_methods_agree(self):
        params = PhysicalParams(1, 1, 0.05)
        for qn in (QuantumNumbers(2, 0), QuantumNumbers(1, 1), QuantumNumbers(2, 1)):
            closed = energy_closed(params, qn)
            numeric = energy_numeric(params, qn)
            assert numeric == pytest.approx(closed, rel=1e-8)

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
            for qn, energy in zip(levels, numerics._solve_levels(params, levels)):
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
            assert entry.e_closed == pytest.approx(expected, rel=1e-10)
            assert entry.e_numeric == pytest.approx(expected, rel=1e-8)
        # equal n' implies equal energy at beta = 0
        by_np = {}
        for entry in entries:
            by_np.setdefault(entry.qn.n_prime, []).append(entry.e_closed)
        for values in by_np.values():
            for v in values:
                assert v == pytest.approx(values[0], rel=1e-10)

    def test_deformed_table(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0.1), 2)
        index = {(e.qn.n_prime, e.qn.l): e for e in entries}
        assert index[(1, 0)].e_closed == pytest.approx(0.4196011, abs=1e-6)
        assert index[(2, 1)].e_closed < 0.125
        assert index[(2, 1)].e_series == pytest.approx(0.1243750, rel=1e-12)

    def test_single_entry(self):
        entries = spectrum_table(PhysicalParams(1, 1, 0), 1)
        assert len(entries) == 1
        entry = entries[0]
        for value in (entry.e_newton, entry.e_closed, entry.e_numeric, entry.e_series):
            assert value == pytest.approx(0.5, rel=1e-8)

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
            alone = energy_numeric(params, entry.qn)
            assert abs(entry.e_numeric / alone - 1.0) <= 2 * 1e-12
            assert abs(entry.e_numeric / entry.e_closed - 1.0) <= 1e-11

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.01, 0.15, 0.9, 3.0])
    def test_levels_agree_with_the_closed_route_to_roundoff(self, beta):
        # the secant through the converged bracket's unscaled residuals: a few ulps
        gaps = [abs(entry.e_numeric / entry.e_closed - 1.0)
                for entry in spectrum_table(PhysicalParams(1, 1, beta), 20)
                if entry.error is None]
        assert gaps and max(gaps) <= 1e-14

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
        assert calls[0] == 2 * 36  # both bracket ends of all 36 levels
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
        # a Phi below 2 pi n at every energy: the lower end widens forever
        monkeypatch.setattr(numerics, "_phase_rows", lambda params, energy, l, *rest: (
            np.zeros(len(energy)), np.zeros(len(energy))))
        with pytest.raises(NoRootInWindow, match="no sign change of Phi"):
            energy_numeric(PhysicalParams(1, 1, 0.1), QuantumNumbers(1, 1))

    def test_unreachable_root_tolerance_gives_up_after_100_rounds(self, monkeypatch):
        # no bracket of two distinct floats has relative width 0
        monkeypatch.setattr(numerics, "ROOT_RTOL", 0.0)
        with pytest.raises(ToleranceNotReached, match="did not reach rtol=0.0 in 100 steps"):
            energy_numeric(PhysicalParams(1, 1, 0.1), QuantumNumbers(1, 1))

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

    def test_underflowing_beta_raises_no_zero_division(self):
        params = PhysicalParams(1, 1, 1e-200)
        undeformed = PhysicalParams(1, 1, 0)
        assert phase_integral_1d_closed(params, 0.1) == phase_integral_1d_closed(undeformed, 0.1)
        with pytest.raises(DegenerateFit):
            correction_order(undeformed, QuantumNumbers(1, 0), [1e-200, 1e-199, 1e-198, 1e-197])


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
            assert row.gap == pytest.approx(-2 * PI * row.l, rel=1e-9)
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
        assert rows[-1].phi_radial == pytest.approx(phi_1d, rel=1e-9)

    def test_gap_at_small_l_is_band_offset_dominated(self):
        # for g = 2 beta m e2 / W >> l the raw gap approaches
        # -pi*(l + l^2/(2 g))
        params = PhysicalParams(1, 1, 0.1)
        (row,) = l_limit_study(params, 0.125, [1e-3])
        w = 1 - 2 * 0.1**2 * 0.125
        g = 2 * 0.1 / w
        expected = -PI * (1e-3 + 1e-6 / (2 * g))
        assert row.gap == pytest.approx(expected, rel=1e-3)

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
