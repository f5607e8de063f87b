"""Deformed-flow dynamics: bracket oracles, conservation, precession.

The equations of motion are validated against the bracket table two ways:
with analytic Hamiltonian gradients and with finite-difference gradients,
so the explicit flow never has to be trusted on its own.  The Jacobi
identity of the bracket table itself is spot-checked on coordinate
triples with exact gradient algebra.
"""

import hashlib
import inspect
import math
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snyder_coulomb import (
    CollisionSingularity,
    InsufficientPeriods,
    NonFinite,
    OrbitState,
    PhysicalParams,
    StepUnderflow,
    equations_of_motion,
    integrate_orbit,
    invariants,
    precession_per_orbit,
)
from snyder_coulomb import dynamics

from bracket_oracles import hamiltonian_gradients, poisson_bracket

TWO_PI = 2.0 * math.pi
ECCENTRIC = OrbitState(2.0, 0.0, 0.0, 0.5)
# undeformed radial period of ECCENTRIC at m = e2 = 1 (a = 4/3)
T_ECC = TWO_PI * (4.0 / 3.0) ** 1.5
EPS = 2.0**-52
BRENT = dynamics._brent  # the port, kept from tests that wrap it


def coordinate_gradients(kind: str, idx: int):
    gx, gp = np.zeros(2), np.zeros(2)
    if kind == "x":
        gx[idx] = 1.0
    else:
        gp[idx] = 1.0
    return gx, gp


def bracket_xp(j, k, x, p, beta):
    """Value and gradients of {x_j, p_k} = delta_jk + beta^2 p_j p_k."""
    b2 = beta * beta
    value = (1.0 if j == k else 0.0) + b2 * p[j] * p[k]
    gx = np.zeros(2)
    gp = np.zeros(2)
    for m in range(2):
        gp[m] = b2 * ((1.0 if j == m else 0.0) * p[k] + p[j] * (1.0 if k == m else 0.0))
    return value, gx, gp


def bracket_xx(i, j, x, p, beta):
    """Value and gradients of {x_i, x_j} = beta^2 (x_i p_j - x_j p_i)."""
    b2 = beta * beta
    value = b2 * (x[i] * p[j] - x[j] * p[i])
    gx = np.zeros(2)
    gp = np.zeros(2)
    for m in range(2):
        gx[m] = b2 * ((1.0 if i == m else 0.0) * p[j] - (1.0 if j == m else 0.0) * p[i])
        gp[m] = b2 * (x[i] * (1.0 if j == m else 0.0) - x[j] * (1.0 if i == m else 0.0))
    return value, gx, gp


NOT_FINITE = [
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    # float() would take these, or overflow on the int
    pytest.param(True, id="bool"),
    pytest.param("2", id="str"),
    pytest.param(10**400, id="huge-int"),
]


class TestOrbitState:
    def test_components_are_stored_as_floats(self):
        state = OrbitState(2, 0, np.float64(0.0), 0.5)
        assert astuple(state) == (2.0, 0.0, 0.0, 0.5)
        assert [type(v) for v in astuple(state)] == [float] * 4

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_non_finite(self, value):
        with pytest.raises(NonFinite, match="x1"):
            OrbitState(value, 0, 0, 1)


class TestEquationsOfMotion:
    def test_kepler_circular(self):
        derivs = equations_of_motion((1.0, 0.0, 0.0, 1.0), PhysicalParams(1, 1, 0))
        assert derivs == pytest.approx((0.0, 1.0, -1.0, 0.0), abs=1e-15)

    def test_deformed_terms_cancel_on_circular_state(self):
        # p.x = 0 and beta^2 p^2 balances the rotation-generator term
        derivs = equations_of_motion((1.0, 0.0, 0.0, 1.0), PhysicalParams(1, 1, 0.1))
        assert derivs == pytest.approx((0.0, 1.0, -1.0, 0.0), abs=1e-15)

    def test_matches_bracket_with_analytic_gradients(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-1.5, 1.5, size=2)
            if np.hypot(*x) < 0.3:
                continue
            beta = rng.choice([0.0, 0.05, 0.1, 0.4])
            m, e2 = rng.uniform(0.5, 2.0, size=2)
            params = PhysicalParams(m, e2, beta)
            state = OrbitState(*x, *p)
            derivs = equations_of_motion((*x, *p), params)
            dh_dx, dh_dp = hamiltonian_gradients(state, params)
            expected = [
                poisson_bracket(*coordinate_gradients("x", 0), dh_dx, dh_dp, x, p, beta),
                poisson_bracket(*coordinate_gradients("x", 1), dh_dx, dh_dp, x, p, beta),
                poisson_bracket(*coordinate_gradients("p", 0), dh_dx, dh_dp, x, p, beta),
                poisson_bracket(*coordinate_gradients("p", 1), dh_dx, dh_dp, x, p, beta),
            ]
            assert derivs == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_matches_bracket_with_finite_difference_gradients(self):
        # fully independent route: Hamiltonian gradients by central
        # differences, bracket assembled from the table
        params = PhysicalParams(1, 1, 0.1)
        state = OrbitState(2.0, 0.0, 0.3, 0.4)
        x = np.array([state.x1, state.x2])
        p = np.array([state.p1, state.p2])

        def hamiltonian(xv, pv):
            return (pv @ pv) / 2.0 - 1.0 / math.hypot(*xv)

        h = 1e-6
        dh_dx, dh_dp = np.zeros(2), np.zeros(2)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = h
            dh_dx[i] = (hamiltonian(x + dx, p) - hamiltonian(x - dx, p)) / (2 * h)
            dh_dp[i] = (hamiltonian(x, p + dx) - hamiltonian(x, p - dx)) / (2 * h)

        derivs = equations_of_motion((*x, *p), params)
        expected = [
            poisson_bracket(*coordinate_gradients("x", 0), dh_dx, dh_dp, x, p, 0.1),
            poisson_bracket(*coordinate_gradients("x", 1), dh_dx, dh_dp, x, p, 0.1),
            poisson_bracket(*coordinate_gradients("p", 0), dh_dx, dh_dp, x, p, 0.1),
            poisson_bracket(*coordinate_gradients("p", 1), dh_dx, dh_dp, x, p, 0.1),
        ]
        assert derivs == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("y,beta", [
        ((1e-110, 0.0, 0.0, 1.0), 0.0),  # r^3 underflows to 0: was a ZeroDivisionError
        ((1.0, 0.0, 1e200, 0.0), 0.1),  # p^2 overflows: was (inf, nan, -inf, -0.0)
    ])
    def test_non_finite_flow_is_a_value_error(self, y, beta):
        with pytest.raises(ValueError, match=re.escape(f"the flow is not finite at y = {y!r}")):
            equations_of_motion(y, PhysicalParams(1, 1, beta))

    def test_kepler_reduction_is_exact(self):
        state = OrbitState(1.7, -0.4, 0.2, 0.6)
        dx1, dx2, dp1, dp2 = equations_of_motion(
            (state.x1, state.x2, state.p1, state.p2), PhysicalParams(1, 1, 0)
        )
        r3 = state.r**3
        assert (dx1, dx2) == (state.p1, state.p2)
        assert dp1 == -state.x1 / r3
        assert dp2 == -state.x2 / r3


class TestInvariants:
    def test_circular_values(self):
        h, j = invariants(OrbitState(1.0, 0.0, 0.0, 1.0), PhysicalParams(1, 1, 0))
        assert h == pytest.approx(-0.5, rel=1e-15)
        assert j == pytest.approx(1.0, rel=1e-15)

    def test_eccentric_values(self):
        h, j = invariants(ECCENTRIC, PhysicalParams(1, 1, 0))
        assert h == pytest.approx(-0.375, rel=1e-15)
        assert j == pytest.approx(1.0, rel=1e-15)

    def test_radial_motion_has_zero_j(self):
        _, j = invariants(OrbitState(1.0, 1.0, 1.0, 1.0), PhysicalParams(1, 1, 0))
        assert j == 0.0

    @pytest.mark.parametrize("state", [
        OrbitState(1e-320, 0.0, 0.0, 1.0),  # e2/r overflows: was numpy's RuntimeWarning
        OrbitState(1.0, 0.0, 1e200, 0.0),  # p1^2 overflows: was H = inf
        OrbitState(1e200, 1e200, 1e200, 1e200),  # inf - inf: was J = nan
    ])
    def test_non_finite_invariants_are_a_value_error(self, state):
        with pytest.raises(ValueError, match=re.escape(f"not both finite at {state!r}")):
            invariants(state, PhysicalParams(1, 1, 0))

    def test_non_finite_sample_is_named(self):
        params = PhysicalParams(1, 1, 0)
        samples = integrate_orbit(ECCENTRIC, params, T_ECC).samples.copy()
        samples.p1[[3, 5]] = 1e200
        point = (float(samples.x1[3]), float(samples.x2[3]), 1e200, float(samples.p2[3]))
        with pytest.raises(ValueError, match=re.escape(f"at sample 3, (x1, x2, p1, p2) = {point!r}")):
            invariants(samples, params)


class TestBracketAlgebra:
    def test_angular_momentum_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            if np.hypot(*x) < 0.2:
                continue
            beta = rng.choice([0.0, 0.1, 0.5])
            params = PhysicalParams(1, 1, beta)
            state = OrbitState(*x, *p)
            dh_dx, dh_dp = hamiltonian_gradients(state, params)
            dj_dx = np.array([p[1], -p[0]])
            dj_dp = np.array([-x[1], x[0]])
            assert abs(poisson_bracket(dj_dx, dj_dp, dh_dx, dh_dp, x, p, beta)) <= 1e-12

    @pytest.mark.parametrize("i,j,k", [(0, 1, 0), (0, 1, 1)])
    def test_jacobi_identity_xxp(self, i, j, k):
        # cyclic sum {x_i,{x_j,p_k}} + {x_j,{p_k,x_i}} + {p_k,{x_i,x_j}} = 0
        rng = np.random.default_rng(500 + k)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            beta = rng.choice([0.1, 0.5, 1.0])
            _, g1x, g1p = bracket_xp(j, k, x, p, beta)
            term1 = poisson_bracket(*coordinate_gradients("x", i), g1x, g1p, x, p, beta)
            _, g2x, g2p = bracket_xp(i, k, x, p, beta)
            term2 = poisson_bracket(*coordinate_gradients("x", j), -g2x, -g2p, x, p, beta)
            _, g3x, g3p = bracket_xx(i, j, x, p, beta)
            term3 = poisson_bracket(*coordinate_gradients("p", k), g3x, g3p, x, p, beta)
            assert abs(term1 + term2 + term3) <= 1e-12

    @pytest.mark.parametrize("i,j,k", [(0, 0, 1), (1, 0, 1)])
    def test_jacobi_identity_xpp(self, i, j, k):
        # cyclic sum {x_i,{p_j,p_k}} + {p_j,{p_k,x_i}} + {p_k,{x_i,p_j}} = 0
        rng = np.random.default_rng(700 + i)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            beta = rng.choice([0.1, 0.5, 1.0])
            _, g1x, g1p = bracket_xp(i, k, x, p, beta)
            term2 = poisson_bracket(*coordinate_gradients("p", j), -g1x, -g1p, x, p, beta)
            _, g2x, g2p = bracket_xp(i, j, x, p, beta)
            term3 = poisson_bracket(*coordinate_gradients("p", k), g2x, g2p, x, p, beta)
            assert abs(term2 + term3) <= 1e-12


def patch_flow(monkeypatch, wrap):
    """Make ``dynamics._flow``, the one flow kernel, return ``wrap(flow)`` for its flow."""
    kernel = dynamics._flow
    monkeypatch.setattr(dynamics, "_flow", lambda params: wrap(kernel(params)))


@pytest.fixture
def flow_calls(monkeypatch):
    """The states (x1, x2, p1, p2) at which the flow kernel ``_flow`` is evaluated."""
    calls = []

    def wrap(flow):
        def counted(*y):
            calls.append(y)
            return flow(*y)

        return counted

    patch_flow(monkeypatch, wrap)
    return calls


def sundman_field(params):
    """The right-hand side that ``integrate_orbit`` hands its step loop at ``params``."""
    class Captured(Exception):
        pass

    def capture(rhs, *args):
        raise Captured(rhs)

    with mock.patch.object(dynamics, "_dop853", capture), pytest.raises(Captured) as excinfo:
        integrate_orbit(ECCENTRIC, params, 1.0)
    return excinfo.value.args[0]


class TestIntegrateOrbit:
    def test_circular_period_closure(self):
        # r = 1 circular Kepler orbit has period 2 pi in these units
        state = OrbitState(1.0, 0.0, 0.0, 1.0)
        traj = integrate_orbit(state, PhysicalParams(1, 1, 0), TWO_PI, local_tol=1e-12)
        last = traj.samples[-1]
        assert abs(last.x1 - 1.0) <= 1e-8
        assert abs(last.x2) <= 1e-8

    def test_kepler_conservation(self):
        traj = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, 0), 20 * T_ECC, local_tol=1e-12
        )
        assert traj.h_drift <= 1e-9
        assert traj.j_drift <= 1e-9

    def test_deformed_flow_conserves_h_and_j(self):
        traj = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, 0.05), 20 * T_ECC, local_tol=1e-12
        )
        assert traj.h_drift <= 1e-9
        assert traj.j_drift <= 1e-9

    def test_beta_zero_path_matches_plain_kepler_integrator(self):
        from scipy.integrate import solve_ivp

        t_end = 3 * T_ECC
        traj = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, 0), t_end, local_tol=1e-12
        )
        s = traj.samples

        def kepler_rhs(t, y):
            r3 = (y[0] ** 2 + y[1] ** 2) ** 1.5
            return [y[2], y[3], -y[0] / r3, -y[1] / r3]

        # the last sample is the located end event, which may pass t_end by an ulp
        sol = solve_ivp(
            kepler_rhs, (0.0, s.t[-1]), [2.0, 0.0, 0.0, 0.5], method="DOP853",
            t_eval=s.t, rtol=1e-12, atol=1e-12,
        )
        assert np.allclose(sol.y[0], s.x1, atol=1e-9)
        assert np.allclose(sol.y[1], s.x2, atol=1e-9)
        assert np.allclose(sol.y[2], s.p1, atol=1e-9)
        assert np.allclose(sol.y[3], s.p2, atol=1e-9)

    def test_time_reversal(self):
        params = PhysicalParams(1, 1, 0.05)
        t_end = 2 * T_ECC
        forward = integrate_orbit(ECCENTRIC, params, t_end, local_tol=1e-12)
        turn = forward.samples[-1]
        back = integrate_orbit(
            OrbitState(turn.x1, turn.x2, -turn.p1, -turn.p2),
            params,
            t_end,
            local_tol=1e-12,
        )
        final = back.samples[-1]
        recovered = (final.x1, final.x2, -final.p1, -final.p2)
        start = (ECCENTRIC.x1, ECCENTRIC.x2, ECCENTRIC.p1, ECCENTRIC.p2)
        # global error over the ~19 time-unit round trip stays about two
        # orders above the per-step tolerance
        assert recovered == pytest.approx(start, abs=1e-9)

    def test_collision_raises_with_last_good_time(self):
        # radial free fall straight into the center, which it reaches at
        # t = pi (0.3/2)^1.5 = 0.1825
        state = OrbitState(0.3, 0.0, 0.0, 0.0)
        with pytest.raises(CollisionSingularity) as excinfo:
            integrate_orbit(state, PhysicalParams(1, 1, 0), 1.0, local_tol=1e-10)
        assert excinfo.value.t_last is not None
        assert 0.0 <= excinfo.value.t_last <= 0.1826

    @pytest.mark.parametrize("x1", [1e-200, 1e-9], ids=["r2-underflows", "inside-floor"])
    def test_start_inside_collision_floor_raises_at_t0(self, x1):
        # the first used to divide by r^2 = 0, the second to end in StepUnderflow
        with pytest.raises(CollisionSingularity, match="inside the collision floor") as excinfo:
            integrate_orbit(OrbitState(x1, 0, 0, 1), PhysicalParams(1, 1, 0.1), 1.0)
        assert excinfo.value.t_last == 0.0

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValueError):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 0.0)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("name", ["t_end", "local_tol"])
    def test_rejects_non_finite_span_and_tolerance(self, name, value):
        kwargs = {"t_end": 1.0, "local_tol": 1e-10, name: value}
        with pytest.raises(NonFinite, match=name):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), **kwargs)

    def test_sample_invariants_match_per_state_formula(self):
        params = PhysicalParams(1, 1, 0.05)
        t_end = 2 * T_ECC
        traj = integrate_orbit(ECCENTRIC, params, t_end)
        h, j = invariants(traj.samples, params)
        per_state = [
            invariants(OrbitState(s.x1, s.x2, s.p1, s.p2), params)
            for s in traj.samples
        ]
        # the samples are the accepted steps, from exactly 0 to the end
        # event, which is located in the Sundman time and so lands within a
        # few ulp of t_end
        t = traj.samples.t
        assert t[0] == 0.0
        assert abs(t[-1] - t_end) <= 4 * math.ulp(t_end)
        assert np.all(np.diff(t) > 0.0)
        for name in traj.samples.dtype.names:
            assert np.isfinite(traj.samples[name]).all(), name
        np.testing.assert_array_equal(h, [hs for hs, _ in per_state])
        np.testing.assert_array_equal(j, [js for _, js in per_state])

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_drift_is_max_relative_deviation_over_samples(self, beta):
        params = PhysicalParams(1, 1, beta)
        traj = integrate_orbit(ECCENTRIC, params, 5 * T_ECC, local_tol=1e-10)
        h, j = invariants(traj.samples, params)
        assert traj.h_drift == float(np.max(np.abs(h - h[0])) / abs(h[0]))
        assert traj.j_drift == float(np.max(np.abs(j - j[0])) / abs(j[0]))
        assert 0.0 < traj.h_drift <= 1e-7 and 0.0 < traj.j_drift <= 1e-7

    def test_integrates_the_tested_flow(self, flow_calls):
        # the bracket oracles above check equations_of_motion; the
        # integrator must evaluate the same kernel, start state included
        params = PhysicalParams(1, 1, 0.05)
        integrate_orbit(ECCENTRIC, params, 1.0)
        assert flow_calls[0] == (ECCENTRIC.x1, ECCENTRIC.x2, ECCENTRIC.p1, ECCENTRIC.p2)
        assert len(flow_calls) > 10
        n = len(flow_calls)
        equations_of_motion((1.0, 0.0, 0.0, 1.0), params)
        assert flow_calls[n:] == [(1.0, 0.0, 0.0, 1.0)]

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 2.0),
           st.tuples(*[st.floats(-10.0, 10.0)] * 4).filter(lambda y: math.hypot(*y[:2]) > 0.1))
    def test_sundman_field_is_r_times_the_tested_flow(self, m, e2, beta, y):
        # dy/ds = r dy/dt, and dt/ds = r, bit for bit
        params = PhysicalParams(m, e2, beta)
        r = math.hypot(y[0], y[1])
        expected = (*[r * v for v in equations_of_motion(y, params)], r)
        assert repr(sundman_field(params)(*y)) == repr(expected)

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("tol,most", [(1e-10, 4500), (1e-12, 7000)])
    def test_sundman_stepping_saves_evaluations(self, flow_calls, beta, tol, most):
        # stepping in t took 5,757 (1e-10) and 8,241 (1e-12) evaluations
        # at beta = 0; dt/ds = r takes about a third fewer
        integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, beta), 10 * T_ECC, local_tol=tol)
        assert len(flow_calls) <= most

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("p0", [0.3, 0.45, 0.6])
    def test_drift_stays_inside_the_tolerance_bound(self, p0, beta, tol):
        # the bound the orbit benchmark checks: 1e3 * local_tol over 10 periods
        state = OrbitState(2.0, 0.0, 0.0, p0)
        traj = integrate_orbit(state, PhysicalParams(1, 1, beta), 10 * kepler_period(state),
                               local_tol=tol)
        assert traj.h_drift <= 1e3 * tol
        assert traj.j_drift <= 1e3 * tol

    def test_non_finite_solution_is_rejected(self, monkeypatch):
        # an overflowing state stops the run short of t_end, as a collapsed step
        # does, at the clock of the last finite state
        loop = dynamics._dop853
        t_last = float(integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 1.0).samples.t[-2])

        def poisoned(*args, **kwargs):
            states, found, stop = loop(*args, **kwargs)
            states[-1][2] = math.nan
            return states, found, stop

        monkeypatch.setattr(dynamics, "_dop853", poisoned)
        message = f"stopped short of t_end = 1.0: its state overflowed after t = {t_last!r}"
        with pytest.raises(StepUnderflow, match=re.escape(message) + "$"):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 1.0)

    def test_collapsed_step_raises_step_underflow(self, monkeypatch):
        # a flow that turns NaN mid-run fails every error test, and each
        # rejection cuts the step by 5 until it is below 10 ulp of s
        calls = []

        def wrap(flow):
            def failing(*y):
                calls.append(y)
                return flow(*y) if len(calls) <= 100 else (math.nan,) * 4

            return failing

        patch_flow(monkeypatch, wrap)
        with pytest.raises(StepUnderflow, match="Required step size"):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 10 * T_ECC)

    def test_run_past_the_step_bound_raises_step_underflow(self, monkeypatch):
        # this span takes 54 steps at the default tolerance
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        with pytest.raises(StepUnderflow, match=r"of t_end = 20\.0 within 20 steps"):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 20.0)

    def test_numpy_t_end_runs_as_its_float(self, monkeypatch):
        # the end event and the messages see the Python float, not np.float64
        as_float = integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 20.0)
        as_numpy = integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), np.float64(20.0),
                                   local_tol=np.float64(1e-10))
        assert as_numpy.samples.tobytes() == as_float.samples.tobytes()
        assert as_numpy.perihelia.tobytes() == as_float.perihelia.tobytes()
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        with pytest.raises(StepUnderflow, match=r"of t_end = 20\.0 within 20 steps"):
            integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), np.float64(20.0))

    @pytest.mark.filterwarnings("ignore:local_tol")
    @pytest.mark.parametrize("m,e2,local_tol", [
        (1, 1, 1e-200), (1, 1, 1e-250), (1, 1, 1e-300), (1, 1, 5e-324),
        (1e-300, 1, 1e-12), (1, 1e300, 1e-12),
    ])
    def test_unreachable_tolerance_raises_step_underflow(self, m, e2, local_tol):
        # an error norm that overflows, or a first step that underflows to 0,
        # rejects every step until it is below 10 ulp of s = 0
        with pytest.raises(StepUnderflow, match="at s = 0.0$"):
            integrate_orbit(ECCENTRIC, PhysicalParams(m, e2, 0), 20.0, local_tol=local_tol)

    @pytest.mark.parametrize("beta,p2", [(0.0, 1e200), (1.0, 1e155)])
    def test_non_finite_flow_at_start_is_rejected(self, beta, p2):
        # p^2 overflows: the flow at the start is NaN or inf, on which
        # the step loop would never return
        with pytest.raises(ValueError, match="not finite at the initial state"):
            integrate_orbit(OrbitState(1.0, 0.0, 0.0, p2), PhysicalParams(1, 1, beta), 1.0)

    def test_samples_are_read_only(self):
        traj = integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0), 2 * T_ECC)
        for records in (traj.samples, traj.perihelia):
            assert records.size >= 2
            with pytest.raises(ValueError, match="read-only"):
                records.x1[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                records.t[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                records[1] = (0.0, 1.0, 1.0, 1.0, 1.0)


class TestStepLoop:
    """The DOP853 loop against scipy's ``solve_ivp``, its event roots against ``brentq``,
    and the order of events in one step."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("p0", [0.3, 0.6])
    def test_matches_solve_ivp(self, p0, beta, tol):
        from scipy.integrate import solve_ivp

        state, params = OrbitState(2.0, 0.0, 0.0, p0), PhysicalParams(1, 1, beta)
        t_end = 3 * kepler_period(state)
        traj = integrate_orbit(state, params, t_end, local_tol=tol)

        def sundman(s, y):
            r = math.hypot(y[0], y[1])
            return [r * v for v in equations_of_motion(y[:4].tolist(), params)] + [r]

        def collision(s, y):
            return y[0] * y[0] + y[1] * y[1] - 1e-8 * 1e-8

        def perihelion(s, y):
            return y[0] * y[2] + y[1] * y[3]

        def end(s, y):
            return y[4] - t_end

        collision.terminal, collision.direction = True, -1.0
        perihelion.direction = 1.0
        end.terminal, end.direction = True, 1.0
        sol = solve_ivp(sundman, (0.0, t_end / 1e-8), [2.0, 0.0, 0.0, p0, 0.0],
                        method="DOP853", rtol=tol, atol=tol,
                        events=(collision, perihelion, end))
        assert sol.status == 1 and sol.t_events[2].size == 1
        # the same accepted steps: their sizes differ at roundoff, so the clocks agree
        # to about 1e-7 relative, where one step more or less would shift them by percent
        assert traj.samples.size == sol.t.size
        np.testing.assert_allclose(traj.samples.t, sol.y[4], rtol=1e-6)
        assert traj.perihelia.size == sol.t_events[1].size == 3
        peri = np.array([traj.perihelia[name] for name in ("x1", "x2", "p1", "p2", "t")]).T
        np.testing.assert_allclose(peri, sol.y_events[1], rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("shift,kept", [(1e-9, 2), (-1e-9, 1)], ids=["before", "after"])
    def test_perihelion_in_the_end_step_is_kept_up_to_t_end(self, shift, kept):
        params = PhysicalParams(1, 1, 0.05)
        full = integrate_orbit(ECCENTRIC, params, 3 * T_ECC)
        t_peri = full.perihelia.t[1]
        k = np.searchsorted(full.samples.t, t_peri)  # the step (t[k-1], t[k]) holds it
        t_end = t_peri * (1.0 + shift)
        traj = integrate_orbit(ECCENTRIC, params, t_end)
        t = traj.samples.t
        # the end event lies in that same step, on the same steps before it
        np.testing.assert_array_equal(t[:-1], full.samples.t[:k])
        assert t_end < full.samples.t[k]
        assert abs(t[-1] - t_end) <= 4 * math.ulp(t_end)
        assert traj.perihelia.size == kept
        assert (traj.perihelia.t <= t_end).all()
        np.testing.assert_array_equal(traj.perihelia, full.perihelia[:kept])

    def test_perihelion_at_the_start_counts(self):
        # x.p = 0 and r rising at t = 0: the first step has g_old = 0 <= g_new
        state = OrbitState(0.5, 0.0, 0.0, 1.6)  # faster than circular at r = 0.5
        traj = integrate_orbit(state, PhysicalParams(1, 1, 0.05), 1.5 * kepler_period(state))
        assert traj.perihelia.size == 2
        assert traj.perihelia[0].tolist() == (0.0, 0.5, 0.0, 0.0, 1.6)

    def test_tolerance_below_100_eps_warns_and_is_raised(self):
        with pytest.warns(UserWarning, match="below 100 eps; the relative tolerance") as record:
            traj = integrate_orbit(ECCENTRIC, PhysicalParams(1, 1, 0.05), T_ECC, local_tol=1e-15)
        assert len(record) == 1 and record[0].filename == __file__  # points at the caller
        assert traj.h_drift < 1e-12

    def test_collision_before_a_perihelion_in_the_same_step_ends_the_run(self, monkeypatch):
        # events are seen only at step ends: on this orbit the step over the
        # first perihelion ends nearer the centre than any state before it,
        # so a floor put between is crossed inside that step, before the
        # perihelion, which the terminal collision then drops
        state, params = OrbitState(2.0, 0.0, 0.0, 0.31), PhysicalParams(1, 1, 0)
        t_end = 3 * kepler_period(state)
        grazing = integrate_orbit(state, params, t_end)
        t, r = grazing.samples.t, np.hypot(grazing.samples.x1, grazing.samples.x2)
        t_peri = grazing.perihelia.t[0]
        k = np.searchsorted(t, t_peri)
        assert r[k] < r[:k].min()
        monkeypatch.setattr(dynamics, "_COLLISION_FLOOR", float(r[k] + r[:k].min()) / 2.0)
        with pytest.raises(CollisionSingularity, match="reached the collision floor") as excinfo:
            integrate_orbit(state, params, t_end)
        assert t[k - 1] < excinfo.value.t_last < t_peri < t[k]

    def test_floor_passed_within_one_step_is_caught_at_the_perihelion(self, monkeypatch):
        # the floor sits 1e-6 above the perihelion r = 2/3 of ECCENTRIC, so
        # r dips below it and rises again between two step ends
        params, t_end = PhysicalParams(1, 1, 0), 3 * T_ECC
        free = integrate_orbit(ECCENTRIC, params, t_end)
        floor = (2.0 / 3.0) * (1.0 + 1e-6)
        assert np.hypot(free.samples.x1, free.samples.x2).min() > floor
        t, t_peri = free.samples.t, free.perihelia.t[0]
        monkeypatch.setattr(dynamics, "_COLLISION_FLOOR", floor)
        with pytest.raises(CollisionSingularity, match="passed inside the collision") as excinfo:
            integrate_orbit(ECCENTRIC, params, t_end)
        # the steps are those of the free run: t_last is the step start before the perihelion
        assert excinfo.value.t_last == t[t <= t_peri][-1]

    @pytest.mark.parametrize("p0,beta,tol", [(0.3, 0.0, 1e-10), (0.45, 0.05, 1e-12),
                                             (0.6, 0.2, 1e-8)])
    def test_event_roots_are_brentqs(self, monkeypatch, p0, beta, tol):
        roots = []

        def checked(f, a, b, xtol, rtol):
            assert xtol == rtol == 4 * EPS
            ours, theirs = brent_and_brentq(f, a, b)
            assert repr(ours) == repr(theirs)
            roots.append(ours[0])
            return ours[0]

        monkeypatch.setattr(dynamics, "_brent", checked)
        state = OrbitState(2.0, 0.0, 0.0, p0)
        traj = integrate_orbit(state, PhysicalParams(1, 1, beta), 3 * kepler_period(state),
                               local_tol=tol)
        assert len(roots) == traj.perihelia.size + 1  # and the end event

    def test_zero_flow_takes_the_first_step_floor_and_grows_tenfold(self, monkeypatch):
        # f = 0 gives d1 = d2 = 0, so the first step is max(1e-6, h0 * 1e-3), and a zero
        # error estimate, so every step is accepted and the next is 10 times as long;
        # s shows only in the step floor, 10 times the spacing of floats at s
        heads, nextafter = [], math.nextafter

        def spy(s, towards):
            heads.append(s)
            return nextafter(s, towards)

        monkeypatch.setattr(dynamics, "_MAX_STEPS", 5)
        monkeypatch.setattr(dynamics.math, "nextafter", spy)
        y0 = [1.0, 0.0, 0.0, 0.0, 0.0]
        states, found, stop = dynamics._dop853(lambda *x: (0.0,) * 5, y0, 1e-10,
                                               [(lambda y: -1.0, True)])
        assert (states, found, stop) == ([y0] * 6, [[]], None)
        assert heads[:2] == [0.0, 1e-6]
        np.testing.assert_allclose(np.diff(heads)[1:] / np.diff(heads)[:-1], 10.0, rtol=1e-12)

    def test_zero_e5_sum_is_a_zero_error_norm(self):
        # E5 sums to 0 while 0.01 times the E3 sum underflows: the norm was 0/0
        params = PhysicalParams(6.117852236989985e+195, 2.7309156990466124e-144,
                                2.2211888116442033e-80)
        traj = integrate_orbit(OrbitState(1, 0, 0, 0.5), params, 7.542995868137057e+161,
                               local_tol=1e-12)
        assert traj.samples.size == 329

    def test_event_without_a_sign_change_on_the_interpolant_is_at_the_step_end(
            self, monkeypatch):
        # the interpolant can miss y_new in the last bit, so that g reads one sign
        # at both ends of a step where g(y) <= 0 <= g(y_new): brentq would raise
        monkeypatch.setattr(dynamics, "_dense_output", lambda *args: lambda x: [x - 2.0] * 5)
        states, found, stop = dynamics._dop853(lambda *x: (1.0,) * 5, [-0.5, 0.0, 0.0, 0.0, 0.0],
                                               1e-10, [(lambda y: y[0], True)])
        assert (found, stop, states[-1]) == ([[[-1.0] * 5]], 0, [-1.0] * 5)


def trajectory_digest(traj) -> str:
    """sha256 over the sample and perihelion bytes and the drift reprs."""
    return hashlib.sha256(traj.samples.tobytes() + traj.perihelia.tobytes()
                          + repr((traj.h_drift, traj.j_drift)).encode()).hexdigest()


def compensated_sum(values, start=0):
    """Neumaier's sum, as Python 3.12's ``sum`` adds floats."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


PINNED_ORBITS = [
    pytest.param(ECCENTRIC, 0.0, 1e-10, 3 * T_ECC,
                 "9a3f28ac76a3111d811c78179529ba155c293b7902cf15b879257cff3eacad1c",
                 id="b0-1e-10"),
    pytest.param(ECCENTRIC, 0.0, 1e-12, 3 * T_ECC,
                 "fa6c88994d14a4cb2bc57970f21d954b21018393ad36906393bac912e7f28a16",
                 id="b0-1e-12"),
    pytest.param(ECCENTRIC, 0.05, 1e-10, 3 * T_ECC,
                 "7ca6b42c882ac3a3a1ef9c07afb4a2b242872de971bef921ee5838ccd528948a",
                 id="b0.05-1e-10"),
    pytest.param(ECCENTRIC, 0.05, 1e-12, 3 * T_ECC,
                 "b01132efaffb2600af8e1ee56cc8e5cef74d015e821908a199df4385899d98e4",
                 id="b0.05-1e-12"),
    pytest.param(ECCENTRIC, 0.5, 1e-10, 3 * T_ECC,
                 "f39889742b5b1adc79063d55e8736f3114afe4279456099364019e4025212705",
                 id="b0.5-1e-10"),
    pytest.param(ECCENTRIC, 0.5, 1e-12, 3 * T_ECC,
                 "e2a7555ef3d39877b8caec211035bcf2763c693d590688c57779ba878f6792ef",
                 id="b0.5-1e-12"),
    pytest.param(OrbitState(2.0, 0.0, 0.0, -0.45), 0.05, 1e-10, 3 * T_ECC,
                 "97df026acc0894115ba4f0b8855ced34bad4c5b8c2f144cb0868a54085f4438b",
                 id="retrograde"),
    pytest.param(OrbitState(2.0, 0.0, 0.0, 1.2), 0.05, 1e-10, 20.0,  # H > 0
                 "3334aefa25327c05413cf39204ee2d9d879936e65856804004f74129868c6b13",
                 id="unbound"),
]


class TestPinnedBits:
    """The step loop's floats, pinned: any change to a stage sum, the error norm,
    the step control or the event roots shows here, on orbits no golden runs."""

    @pytest.mark.parametrize("state,beta,tol,t_end,digest", PINNED_ORBITS)
    def test_orbit_bits(self, state, beta, tol, t_end, digest):
        traj = integrate_orbit(state, PhysicalParams(1, 1, beta), t_end, local_tol=tol)
        assert trajectory_digest(traj) == digest

    @pytest.mark.parametrize("state,beta,tol,t_end,digest", PINNED_ORBITS)
    def test_bits_do_not_depend_on_the_version_of_sum(self, monkeypatch, state, beta, tol,
                                                     t_end, digest):
        # from Python 3.12 on, sum compensates the rounding of floats: the
        # loop's combinations are left folds, so the bits stay those of 3.11
        monkeypatch.setattr(dynamics, "sum", compensated_sum, raising=False)
        traj = integrate_orbit(state, PhysicalParams(1, 1, beta), t_end, local_tol=tol)
        assert trajectory_digest(traj) == digest


class TestUnrolledTableau:
    """``_stages``, ``_errors`` and ``_dense`` read back ``_TABLEAU`` entry for entry, zeros
    included.

    At y = 0 and h = 1 with stage i set to ``IMPULSE`` and every other stage
    to 0, each sum in component c is its row's entry i times 2^c exactly,
    so a left-out nonzero entry, a wrong literal, a wrong stage index or a
    wrong component index shows as a wrong value.
    """

    A, B, E5, E3 = dynamics._TABLEAU[:4]
    D, A_EXTRA = dynamics._TABLEAU[4:]
    IMPULSE = (1.0, 2.0, 4.0, 8.0, 16.0)
    ZERO = (0.0,) * 5

    @classmethod
    def impulse(cls, i):
        """(inputs of stages 1-11, y_new, stages) of one step where stage i is IMPULSE."""
        inputs = []

        def rhs(*x):  # the c-th call gives stage c
            inputs.append(x)
            return cls.IMPULSE if len(inputs) == i else cls.ZERO

        y_new, k = dynamics._stages(rhs, [0.0] * 5, cls.IMPULSE if i == 0 else cls.ZERO, 1.0)
        return inputs, y_new, k

    @classmethod
    def scaled(cls, row, components=5):
        """Each entry of ``row`` times the impulse, one tuple per entry."""
        return [tuple(a * u for u in cls.IMPULSE[:components]) for a in row]

    def test_stage_inputs_read_back_the_rows_of_a(self):
        read = [[] for _ in self.A]
        for i in range(12):
            inputs, _, k = self.impulse(i)
            assert list(k) == [self.IMPULSE if c == i else self.ZERO for c in range(12)]
            for j, x in enumerate(inputs, 1):  # stage j combines stages 0 to j - 1
                if i < j:
                    read[j - 1].append(x)
                else:
                    assert x == self.ZERO[:4], (i, j)
        assert read == [self.scaled(row, 4) for row in self.A]

    def test_new_state_reads_back_b(self):
        assert [tuple(self.impulse(i)[1]) for i in range(12)] == self.scaled(self.B)

    def test_error_estimates_read_back_e5_and_e3(self):
        estimates = [dynamics._errors(self.impulse(i)[2]) for i in range(12)]
        assert [e5 for e5, _ in estimates] == self.scaled(self.E5[:12])
        assert [e3 for _, e3 in estimates] == self.scaled(self.E3[:12])
        assert self.E5[12] == self.E3[12] == 0.0  # the entry of f_new, left out

    def test_dense_output_reads_back_the_extra_rows_of_a_and_d(self):
        # stages 0-11 and f_new (12) are given, the extra stages 13-15 come from rhs
        read, sums = [[] for _ in self.A_EXTRA], []
        for i in range(16):
            inputs = []

            def rhs(*x):  # the c-th call gives stage 12 + c
                inputs.append(x)
                return self.IMPULSE if 12 + len(inputs) == i else self.ZERO

            k = [self.IMPULSE if c == i else self.ZERO for c in range(13)]
            sums.append(dynamics._dense(rhs, [0.0] * 5, k, 1.0))
            for j, x in enumerate(inputs, 13):  # stage j combines stages 0 to j - 1
                if i < j:
                    read[j - 13].append(x)
                else:
                    assert x == self.ZERO[:4], (i, j)
        assert read == [self.scaled(row, 4) for row in self.A_EXTRA]
        # sums[i][c][r]: D row r in component c, with stage i set
        assert [[tuple(d[c][r] for c in range(5)) for d in sums]
                for r in range(len(self.D))] == [self.scaled(row) for row in self.D]

    def test_generated_source_is_registered(self):
        # inspect reads the generated text back through linecache
        for function in (dynamics._stages, dynamics._errors, dynamics._dense):
            source = inspect.getsource(function)
            assert source.startswith(f"def {function.__name__}(")
            assert source in dynamics._STAGE_SOURCE


def brent_and_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS):
    """(outcome, points of f) of the port and of scipy's ``brentq``, as Python floats.

    An error reads as its type.  ``brentq`` passes f only C doubles, while the
    port keeps a numpy float that f returns, so both are read as floats.
    """
    from scipy.optimize import brentq

    runs = []
    for solve in (BRENT, lambda g, a, b, xtol, rtol: brentq(g, a, b, xtol=xtol, rtol=rtol)):
        points = []

        def g(x):
            points.append(float(x))
            return f(x)

        try:
            outcome = float(solve(g, a, b, xtol, rtol))
        except (ValueError, RuntimeError) as exc:
            outcome = type(exc)
        runs.append((outcome, points))
    return runs


class TestBrent:
    """``dynamics._brent`` returns ``brentq``'s root after the same evaluations, bit for bit."""

    @pytest.mark.parametrize("f,a,b,root", [
        (lambda x: x - 0.25, 0.25, 1.0, 0.25),
        (lambda x: x - 1.0, 0.25, 1.0, 1.0),
        (lambda x: -0.0 if x == 0.5 else 1.0, 0.5, 1.0, 0.5),
    ], ids=["at-a", "at-b", "minus-zero-at-a"])
    def test_root_at_an_end_is_that_end(self, f, a, b, root):
        ours, theirs = brent_and_brentq(f, a, b)
        assert ours == theirs == (root, [a, b])

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: x - 0.3, 0.0, 1.0),  # interpolates once, onto the root
        (lambda x: (x * x - 2.0) * x - 5.0, 2.0, 3.0),  # extrapolates
        (lambda x: math.exp(x) - 10.0, -50.0, 50.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),  # f(a) f(b) underflows
        (lambda x: math.tanh(100.0 * (x - 1e-3)), -1.0, 1.0),
        # the extrapolation's denominator underflows to 0: C's x/0 bisects
        (lambda x: 1e-300 * (x - 0.3) ** 3, 0.0, 1.0),
        (lambda x: 1e-200 * (math.exp(x) - 1.5), 0.0, 1.0),
    ], ids=["linear", "cubic", "exp", "cos", "tiny", "tanh", "tiny-cubic", "tiny-exp"])
    def test_same_root_after_the_same_points(self, f, a, b):
        ours, theirs = brent_and_brentq(f, a, b)
        assert ours[0] == theirs[0] and f(ours[0]) == pytest.approx(0.0, abs=1e-12)
        assert ours[1] == theirs[1]  # every point, bit for bit

    def test_bisection_test_keeps_its_delta_margin(self):
        # the step to 0.8286 meets 2 |stry| < 3 |sbis| only without the margin
        # delta = xtol/2, so the bisection test takes 0.7 instead
        ours, theirs = brent_and_brentq(lambda x: x * x - 0.4, 0.0, 1.0, xtol=0.1)
        assert ours == theirs == (0.6181818181818182, [0.0, 1.0, 0.4, 0.7, 0.6181818181818182])

    def test_ends_of_one_sign_raise_value_error(self):
        ours, theirs = brent_and_brentq(lambda x: x * x + 1.0, 0.0, 1.0)
        assert ours == theirs == (ValueError, [0.0, 1.0])

    def test_exhausted_iteration_cap_raises_runtime_error(self):
        # a step has no slope to follow: each secant is a bisection, and 100
        # halvings of [-1e300, 1e300] stop far above the tolerance
        ours, theirs = brent_and_brentq(lambda x: math.copysign(1.0, x - 0.3), -1e300, 1e300)
        assert ours == theirs and ours[0] is RuntimeError and len(ours[1]) == 102


def kepler_period(state: OrbitState) -> float:
    """Undeformed radial period of ``state`` at m = e2 = 1."""
    h, _ = invariants(state, PhysicalParams(1, 1, 0))
    return TWO_PI * (1.0 / (2.0 * abs(h))) ** 1.5


def closed_precession(state: OrbitState, params) -> float:
    """Advance per radial period minus 2 pi, from the deformed action-angle form.

    -pi [1 - 1/sqrt(1 + 4 beta^2 m^2 e2^2 / (J^2 W^2))], W = 1 - 2 beta^2 m E,
    E = -H.  Kept in the tests as an oracle independent of the integrator.
    """
    h, j = invariants(state, params)
    b2 = params.beta**2
    w = 1.0 + 2.0 * b2 * params.m * h
    k = 4.0 * b2 * params.m**2 * params.e2**2 / (j * j * w * w)
    return -math.pi * (1.0 - 1.0 / math.sqrt(1.0 + k))


class TestPrecession:
    def test_kepler_orbit_closes(self):
        traj = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, 0), 12 * T_ECC, local_tol=1e-12
        )
        result = precession_per_orbit(traj)
        assert not result.circular
        assert result.n_orbits >= 10
        assert abs(result.angle_per_orbit) <= 1e-6

    def test_deformation_precesses_quadratically(self):
        precessions = []
        betas = (0.04, 0.08)
        for beta in betas:
            traj = integrate_orbit(
                ECCENTRIC, PhysicalParams(1, 1, beta), 8 * T_ECC, local_tol=1e-11
            )
            result = precession_per_orbit(traj)
            assert abs(result.angle_per_orbit) > 1e-4
            precessions.append(abs(result.angle_per_orbit))
        ratio = precessions[1] / precessions[0]
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_circular_orbit_flagged(self):
        traj = integrate_orbit(
            OrbitState(1.0, 0.0, 0.0, 1.0), PhysicalParams(1, 1, 0), 30.0,
            local_tol=1e-12,
        )
        result = precession_per_orbit(traj)
        assert result.circular
        assert result.angle_per_orbit == 0.0

    def test_insufficient_periods(self):
        traj = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, 0), 1.5 * T_ECC, local_tol=1e-10
        )
        with pytest.raises(InsufficientPeriods):
            precession_per_orbit(traj)

    @pytest.mark.parametrize(
        "beta,p0,periods,n_orbits",
        [(beta, p0, 10, 9) for beta in (0.0, 0.05, 0.2) for p0 in (0.2, 0.45, 0.6)]
        # starts at perihelion: the t = 0 perihelion counts
        + [(0.05, 0.9, 3.5, 3)],
    )
    def test_matches_closed_form(self, beta, p0, periods, n_orbits):
        state = OrbitState(2.0, 0.0, 0.0, p0)
        params = PhysicalParams(1, 1, beta)
        traj = integrate_orbit(state, params, periods * kepler_period(state), local_tol=1e-12)
        result = precession_per_orbit(traj)
        assert result.n_orbits == n_orbits
        assert abs(result.angle_per_orbit - closed_precession(state, params)) <= 1e-10

    def test_retrograde_orbit_matches_its_mirror_image(self):
        # (x2, p2) -> (-x2, -p2) maps the flow onto itself exactly, so the
        # mirrored orbit's precession is the same number
        params = PhysicalParams(1, 1, 0.05)
        mirror = OrbitState(1.5, -0.7, 0.1, -0.55)
        prograde = OrbitState(mirror.x1, -mirror.x2, mirror.p1, -mirror.p2)
        results = [
            precession_per_orbit(integrate_orbit(s, params, 5 * T_ECC, local_tol=1e-12))
            for s in (prograde, mirror)
        ]
        assert invariants(mirror, params)[1] < 0
        assert results[0].n_orbits >= 3
        assert results[1] == results[0]
