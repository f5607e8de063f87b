"""Deformed-flow dynamics: bracket oracles, conservation, precession.

The equations of motion are validated against the bracket table two ways:
with analytic Hamiltonian gradients and with finite-difference gradients,
so the explicit flow never has to be trusted on its own.  The Jacobi
identity of the bracket table itself is spot-checked on coordinate
triples with exact gradient algebra.
"""

import math

import numpy as np
import pytest

from snyder_coulomb import (
    CollisionSingularity,
    InsufficientPeriods,
    OrbitState,
    StepUnderflow,
    equations_of_motion,
    hamiltonian_gradients,
    integrate_orbit,
    invariants,
    poisson_bracket,
    precession_per_orbit,
    validate_params,
)
from snyder_coulomb import dynamics

TWO_PI = 2.0 * math.pi
ECCENTRIC = OrbitState(2.0, 0.0, 0.0, 0.5)
# undeformed radial period of ECCENTRIC at m = e2 = 1 (a = 4/3)
T_ECC = TWO_PI * (4.0 / 3.0) ** 1.5


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


class TestEquationsOfMotion:
    def test_kepler_circular(self):
        derivs = equations_of_motion((1.0, 0.0, 0.0, 1.0), validate_params(1, 1, 0))
        assert derivs == pytest.approx((0.0, 1.0, -1.0, 0.0), abs=1e-15)

    def test_deformed_terms_cancel_on_circular_state(self):
        # p.x = 0 and beta^2 p^2 balances the rotation-generator term
        derivs = equations_of_motion((1.0, 0.0, 0.0, 1.0), validate_params(1, 1, 0.1))
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
            params = validate_params(m, e2, beta)
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
        params = validate_params(1, 1, 0.1)
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

    def test_kepler_reduction_is_exact(self):
        state = OrbitState(1.7, -0.4, 0.2, 0.6)
        dx1, dx2, dp1, dp2 = equations_of_motion(
            (state.x1, state.x2, state.p1, state.p2), validate_params(1, 1, 0)
        )
        r3 = state.r**3
        assert (dx1, dx2) == (state.p1, state.p2)
        assert dp1 == -state.x1 / r3
        assert dp2 == -state.x2 / r3


class TestInvariants:
    def test_circular_values(self):
        h, j = invariants(OrbitState(1.0, 0.0, 0.0, 1.0), validate_params(1, 1, 0))
        assert h == pytest.approx(-0.5, rel=1e-15)
        assert j == pytest.approx(1.0, rel=1e-15)

    def test_eccentric_values(self):
        h, j = invariants(ECCENTRIC, validate_params(1, 1, 0))
        assert h == pytest.approx(-0.375, rel=1e-15)
        assert j == pytest.approx(1.0, rel=1e-15)

    def test_radial_motion_has_zero_j(self):
        _, j = invariants(OrbitState(1.0, 1.0, 1.0, 1.0), validate_params(1, 1, 0))
        assert j == 0.0


class TestBracketAlgebra:
    def test_angular_momentum_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = rng.uniform(-2, 2, size=2)
            if np.hypot(*x) < 0.2:
                continue
            beta = rng.choice([0.0, 0.1, 0.5])
            params = validate_params(1, 1, beta)
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


class TestIntegrateOrbit:
    def test_circular_period_closure(self):
        # r = 1 circular Kepler orbit has period 2 pi in these units
        state = OrbitState(1.0, 0.0, 0.0, 1.0)
        traj = integrate_orbit(state, validate_params(1, 1, 0), TWO_PI, local_tol=1e-12)
        last = traj.samples[-1]
        assert abs(last.x1 - 1.0) <= 1e-8
        assert abs(last.x2) <= 1e-8

    def test_kepler_conservation(self):
        traj = integrate_orbit(
            ECCENTRIC, validate_params(1, 1, 0), 20 * T_ECC, local_tol=1e-12
        )
        assert traj.h_drift <= 1e-9
        assert traj.j_drift <= 1e-9

    def test_deformed_flow_conserves_h_and_j(self):
        traj = integrate_orbit(
            ECCENTRIC, validate_params(1, 1, 0.05), 20 * T_ECC, local_tol=1e-12
        )
        assert traj.h_drift <= 1e-9
        assert traj.j_drift <= 1e-9

    def test_beta_zero_path_matches_plain_kepler_integrator(self):
        from scipy.integrate import solve_ivp

        t_end = 3 * T_ECC
        traj = integrate_orbit(
            ECCENTRIC, validate_params(1, 1, 0), t_end, local_tol=1e-12, n_samples=500
        )
        s = traj.samples

        def kepler_rhs(t, y):
            r3 = (y[0] ** 2 + y[1] ** 2) ** 1.5
            return [y[2], y[3], -y[0] / r3, -y[1] / r3]

        sol = solve_ivp(
            kepler_rhs, (0.0, t_end), [2.0, 0.0, 0.0, 0.5], method="DOP853",
            t_eval=s.t, rtol=1e-12, atol=1e-12,
        )
        assert np.allclose(sol.y[0], s.x1, atol=1e-9)
        assert np.allclose(sol.y[1], s.x2, atol=1e-9)
        assert np.allclose(sol.y[2], s.p1, atol=1e-9)
        assert np.allclose(sol.y[3], s.p2, atol=1e-9)

    def test_time_reversal(self):
        params = validate_params(1, 1, 0.05)
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
            integrate_orbit(state, validate_params(1, 1, 0), 1.0, local_tol=1e-10)
        assert excinfo.value.t_last is not None
        assert 0.0 <= excinfo.value.t_last <= 0.1826

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ValueError):
            integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 0.0)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_nonpositive_n_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 1.0, n_samples=n_samples)

    def test_single_sample_is_the_start_state(self):
        traj = integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 1.0, n_samples=1)
        assert traj.samples.tolist() == [(0.0, 2.0, 0.0, 0.0, 0.5)]
        assert (traj.h_drift, traj.j_drift) == (0.0, 0.0)

    def test_start_time_shifts_sample_times(self):
        start = OrbitState(2.0, 0.0, 0.0, 0.5, t=5.0)
        traj = integrate_orbit(start, validate_params(1, 1, 0.05), 3.0, n_samples=7)
        assert traj.samples.t[0] == 5.0
        assert traj.samples.t[-1] == 5.0 + 3.0

    def test_sample_invariants_match_per_state_formula(self):
        params = validate_params(1, 1, 0.05)
        traj = integrate_orbit(ECCENTRIC, params, 2 * T_ECC, n_samples=200)
        h, j = invariants(traj.samples, params)
        per_state = [
            invariants(OrbitState(s.x1, s.x2, s.p1, s.p2, s.t), params)
            for s in traj.samples
        ]
        assert h.shape == j.shape == (200,)
        np.testing.assert_array_equal(h, [hs for hs, _ in per_state])
        np.testing.assert_array_equal(j, [js for _, js in per_state])

    def test_integrates_the_tested_flow(self, monkeypatch):
        # the bracket oracles above check equations_of_motion; the
        # integrator must evaluate that same function, start state included
        flow = dynamics.equations_of_motion
        calls = []

        def counted(y, params):
            calls.append(tuple(y))
            return flow(y, params)

        monkeypatch.setattr(dynamics, "equations_of_motion", counted)
        integrate_orbit(ECCENTRIC, validate_params(1, 1, 0.05), 1.0, n_samples=5)
        assert calls[0] == (ECCENTRIC.x1, ECCENTRIC.x2, ECCENTRIC.p1, ECCENTRIC.p2)
        assert len(calls) > 10

    def test_non_finite_solution_is_rejected(self, monkeypatch):
        solve = dynamics.solve_ivp

        def poisoned(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.y[2, -1] = math.nan
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", poisoned)
        with pytest.raises(ValueError, match="must be finite"):
            integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 1.0, n_samples=5)

    def test_collapsed_step_raises_step_underflow(self, monkeypatch):
        solve = dynamics.solve_ivp
        message = "Required step size is less than spacing between numbers."

        def collapsed(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.status, sol.message = -1, message
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", collapsed)
        with pytest.raises(StepUnderflow, match="Required step size"):
            integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 1.0, n_samples=5)

    @pytest.mark.parametrize("beta,p2", [(0.0, 1e200), (1.0, 1e155)])
    def test_non_finite_flow_at_start_is_rejected(self, beta, p2):
        # p^2 overflows: the flow at the start is NaN or inf, on which
        # solve_ivp would never return
        with pytest.raises(ValueError, match="not finite at the initial state"):
            integrate_orbit(OrbitState(1.0, 0.0, 0.0, p2), validate_params(1, 1, beta), 1.0,
                            n_samples=3)

    def test_samples_are_read_only(self):
        traj = integrate_orbit(ECCENTRIC, validate_params(1, 1, 0), 2 * T_ECC, n_samples=5)
        for records in (traj.samples, traj.perihelia):
            assert records.size >= 2
            with pytest.raises(ValueError, match="read-only"):
                records.x1[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                records.t[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                records[1] = (0.0, 1.0, 1.0, 1.0, 1.0)


def kepler_period(state: OrbitState) -> float:
    """Undeformed radial period of ``state`` at m = e2 = 1."""
    h, _ = invariants(state, validate_params(1, 1, 0))
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
            ECCENTRIC, validate_params(1, 1, 0), 12 * T_ECC, local_tol=1e-12
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
                ECCENTRIC, validate_params(1, 1, beta), 8 * T_ECC, local_tol=1e-11
            )
            result = precession_per_orbit(traj)
            assert abs(result.angle_per_orbit) > 1e-4
            precessions.append(abs(result.angle_per_orbit))
        ratio = precessions[1] / precessions[0]
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_circular_orbit_flagged(self):
        traj = integrate_orbit(
            OrbitState(1.0, 0.0, 0.0, 1.0), validate_params(1, 1, 0), 30.0,
            local_tol=1e-12,
        )
        result = precession_per_orbit(traj)
        assert result.circular
        assert result.angle_per_orbit == 0.0

    def test_insufficient_periods(self):
        traj = integrate_orbit(
            ECCENTRIC, validate_params(1, 1, 0), 1.5 * T_ECC, local_tol=1e-10
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
        params = validate_params(1, 1, beta)
        traj = integrate_orbit(state, params, periods * kepler_period(state), local_tol=1e-12)
        result = precession_per_orbit(traj)
        assert result.n_orbits == n_orbits
        assert abs(result.angle_per_orbit - closed_precession(state, params)) <= 1e-10

    def test_retrograde_orbit_matches_its_mirror_image(self):
        # (x2, p2) -> (-x2, -p2) maps the flow onto itself exactly, so the
        # mirrored orbit's precession is the same number
        params = validate_params(1, 1, 0.05)
        mirror = OrbitState(1.5, -0.7, 0.1, -0.55)
        prograde = OrbitState(mirror.x1, -mirror.x2, mirror.p1, -mirror.p2)
        results = [
            precession_per_orbit(integrate_orbit(s, params, 5 * T_ECC, local_tol=1e-12))
            for s in (prograde, mirror)
        ]
        assert invariants(mirror, params)[1] < 0
        assert results[0].n_orbits >= 3
        assert results[1] == results[0]
