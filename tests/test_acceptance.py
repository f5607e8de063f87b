"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 asserts a beta^2 scaling of the small-l gap between the
radial and 1D closed forms; the exact closed forms do not have that scaling
(the finite-l gap is dominated by the pi*l band offset and the true l -> 0
limit gap is identically zero), so that single check fails and reports the
measured slope.
"""

import math

import numpy as np
import pytest

from snyder_coulomb import (
    OrbitState,
    PhysicalParams,
    QuantumNumbers,
    correction_order,
    energy_closed,
    energy_3d_perturbative_ref,
    energy_numeric,
    energy_series,
    integrate_orbit,
    phase_integral_1d_closed,
    phase_integral_numeric,
    precession_per_orbit,
    radial_phase_integral_closed,
    spectrum_table,
)

from bracket_oracles import poisson_bracket

PI = math.pi
TWO_PI = 2.0 * math.pi

ECCENTRIC = OrbitState(2.0, 0.0, 0.0, 0.5)
T_ECC = TWO_PI * (4.0 / 3.0) ** 1.5


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_criterion_1_undeformed_spectrum():
    params = PhysicalParams(1, 1, 0)
    worst_closed = 0.0
    worst_numeric = 0.0
    for n_prime in range(1, 11):
        expected = 1.0 / (2.0 * n_prime**2)
        for l in range(0, n_prime):
            qn = QuantumNumbers(n=n_prime - l, l=l)
            closed = energy_closed(params, qn)
            numeric = energy_numeric(params, qn)
            worst_closed = max(worst_closed, abs(closed / expected - 1.0))
            worst_numeric = max(worst_numeric, abs(numeric / expected - 1.0))
    report(
        1,
        "undeformed spectrum",
        worst_closed <= 1e-10 and worst_numeric <= 1e-8,
        f"max rel err closed {worst_closed:.3e} (<=1e-10), "
        f"numeric {worst_numeric:.3e} (<=1e-8), 55 levels",
    )


def test_criterion_2_integral_oracle():
    worst = 0.0
    count = 0
    for beta in (0.0, 0.01, 0.05, 0.1):
        params = PhysicalParams(1, 1, beta)
        for l in (0, 1, 2, 3):
            cap = 1.0 if l == 0 else 0.5 / l**2
            for frac in np.linspace(0.06, 0.94, 8):
                energy = float(frac * cap)
                closed = (
                    phase_integral_1d_closed(params, energy).value
                    if l == 0
                    else radial_phase_integral_closed(params, energy, l).value
                )
                numeric = phase_integral_numeric(params, energy, l).value
                worst = max(worst, abs(numeric - closed) / abs(closed))
                count += 1
    report(
        2,
        "integral oracle",
        count >= 100 and worst <= 1e-8,
        f"{count} tuples, max rel deviation {worst:.3e} (<=1e-8)",
    )


def test_criterion_3_1d_exact_channel():
    worst = 0.0
    for beta in (0.0, 0.01, 0.1):
        params = PhysicalParams(1, 1, beta)
        for n in range(1, 21):
            energy = energy_closed(params, QuantumNumbers(n))
            value = phase_integral_1d_closed(params, energy).value
            worst = max(worst, abs(value - TWO_PI * n) / (TWO_PI * n))
    # independent recomputation of the beta = 0.1, n = 1 root from the
    # quadratic in u = sqrt(2mE)
    roots = np.roots([0.1, 1.0, -1.0])
    u = float(roots[roots > 0][0])
    reference = u * u / 2.0
    got = energy_closed(PhysicalParams(1, 1, 0.1), QuantumNumbers(1))
    root_ok = abs(got - 0.4196011) <= 1e-6 and abs(got - reference) <= 1e-12
    report(
        3,
        "1D exact channel",
        worst <= 1e-10 and root_ok,
        f"max loop residual {worst:.3e} (<=1e-10 rel), "
        f"beta=0.1 root {got:.9f} vs 0.4196011 +- 1e-6",
    )


def test_criterion_4_series_validation():
    betas = np.logspace(-4, -3, 5)
    cases = [
        (QuantumNumbers(1, 0), 1, -2.0),          # -2 m e2 / n at n = 1
        (QuantumNumbers(2, 0), 1, -1.0),          # -2 m e2 / n at n = 2
        (QuantumNumbers(1, 1), 2, 1.0 * (1 / 2 - 1 / 1)),      # n' = 2, l = 1
        (QuantumNumbers(2, 1), 2, (2 / 3) * (1 / 3 - 1 / 1)),  # n' = 3, l = 1
        (QuantumNumbers(1, 2), 2, (2 / 3) * (1 / 3 - 1 / 2)),  # n' = 3, l = 2
    ]
    worst_coeff = 0.0
    worst_match = 0.0
    for qn, order, coeff_expected in cases:
        e_ref = 1.0 / (2.0 * qn.n_prime**2)
        ratios = []
        for beta in betas:
            params = PhysicalParams(1, 1, float(beta))
            energy = energy_closed(params, qn)
            corr = energy / e_ref - 1.0
            ratios.append(corr / beta**order)
        coeff_fitted = float(np.exp(np.mean(np.log(np.abs(ratios))))) * math.copysign(
            1.0, ratios[0]
        )
        worst_coeff = max(
            worst_coeff, abs(coeff_fitted / coeff_expected - 1.0)
        )
        # solved level against the truncated series at beta = 1e-3
        params = PhysicalParams(1, 1, 1e-3)
        solved = energy_closed(params, qn)
        series = energy_series(params, qn)
        gap = abs(solved / series - 1.0)
        budget = 1e-5 if qn.l == 0 else 1e-8
        worst_match = max(worst_match, gap / budget)
    report(
        4,
        "series validation",
        worst_coeff <= 0.01 and worst_match <= 1.0,
        f"max coefficient error {worst_coeff * 100:.3f}% (<=1%), "
        f"series match within budget (worst {worst_match:.3f} of budget)",
    )


def test_criterion_5_order_of_correction():
    betas = np.logspace(-4, -2, 7)
    params = PhysicalParams(1, 1, 0)
    slopes = {}
    for l in (0, 1, 2):
        fit = correction_order(params, QuantumNumbers(n=1, l=l), betas)
        slopes[l] = fit.slope
    ok = (
        0.98 <= slopes[0] <= 1.02
        and 1.98 <= slopes[1] <= 2.02
        and 1.98 <= slopes[2] <= 2.02
    )
    report(
        5,
        "order of correction",
        ok,
        f"slopes l=0: {slopes[0]:.4f} (in [0.98,1.02]), "
        f"l=1: {slopes[1]:.4f}, l=2: {slopes[2]:.4f} (in [1.98,2.02])",
    )


def test_criterion_6_sign_claim():
    params = PhysicalParams(1, 1, 0.1)
    entries = spectrum_table(params, 4)
    all_lowered = all(
        entry.error is None and entry.e_closed < entry.e_newton for entry in entries
    )
    # comparator gap against the external perturbative formula, including
    # the exact-zero bracket at (n', l) = (2, 1)
    pert_21 = energy_3d_perturbative_ref(params, QuantumNumbers(1, 1))
    zero_case_ok = pert_21 == 0.125
    gaps = [
        (e.qn.n_prime, e.qn.l,
         e.e_closed - energy_3d_perturbative_ref(params, e.qn))
        for e in entries
        if e.qn.l >= 1
    ]
    report(
        6,
        "sign claim",
        all_lowered and zero_case_ok,
        f"all 10 corrections negative for n'<=4: {all_lowered}; "
        f"comparator bracket zero at (2,1): {zero_case_ok}; "
        f"max |comparator gap| {max(abs(g[2]) for g in gaps):.3e}",
    )


def test_criterion_7_degeneracy_breaking():
    params = PhysicalParams(1, 1, 0.1)
    e31 = energy_closed(params, QuantumNumbers(2, 1))
    e32 = energy_closed(params, QuantumNumbers(1, 2))
    solver_tol = 1e-12 * abs(e31)
    split = abs(e31 - e32)
    report(
        7,
        "degeneracy breaking",
        split > 10.0 * solver_tol,
        f"n'=3 split |E(l=1)-E(l=2)| = {split:.3e} > 10x solver tol "
        f"{10 * solver_tol:.3e}",
    )


def test_criterion_8_small_l_gap_scaling():
    betas = (1e-3, 1e-2, 1e-1)
    energy = 0.125
    gaps = []
    for beta in betas:
        params = PhysicalParams(1, 1, beta)
        phi_radial = radial_phase_integral_closed(params, energy, 1e-3).value
        phi_1d = phase_integral_1d_closed(params, energy).value
        gaps.append(abs(phi_radial - phi_1d))
    slope = loglog_slope(betas, gaps)
    report(
        8,
        "small-l gap scaling",
        1.95 <= slope <= 2.05,
        f"measured log-log slope {slope:.4f} (required 2 +- 0.05); "
        f"gaps {[f'{g:.3e}' for g in gaps]} are dominated by the pi*l band "
        f"offset and the exact l->0 limit gap is zero",
    )


def test_criterion_9_dynamics():
    # closed Kepler ellipse: conservation and closure over 100 periods
    params0 = PhysicalParams(1, 1, 0)
    traj = integrate_orbit(ECCENTRIC, params0, 100 * T_ECC, local_tol=1e-12)
    prec0 = precession_per_orbit(traj)
    kepler_ok = (
        traj.h_drift <= 1e-9
        and traj.j_drift <= 1e-9
        and abs(prec0.angle_per_orbit) <= 1e-6
    )

    # deformed sweep: nonzero precession scaling as beta^2
    betas = (0.02, 0.04, 0.08)
    magnitudes = []
    for beta in betas:
        traj_b = integrate_orbit(
            ECCENTRIC, PhysicalParams(1, 1, beta), 16 * T_ECC, local_tol=1e-12
        )
        result = precession_per_orbit(traj_b)
        magnitudes.append(abs(result.angle_per_orbit))
    nonzero = all(m > 1e-6 for m in magnitudes)
    slope = loglog_slope(betas, magnitudes)

    # Jacobi identity spot checks on coordinate triples
    rng = np.random.default_rng(2718)
    worst_jacobi = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        p = rng.uniform(-2, 2, size=2)
        beta = float(rng.choice([0.1, 0.5, 1.0]))
        b2 = beta * beta
        for i, j, k in ((0, 1, 0), (0, 1, 1)):
            gx1 = np.zeros(2)
            gp1 = np.array(
                [
                    b2 * ((1.0 if j == m else 0.0) * p[k] + p[j] * (1.0 if k == m else 0.0))
                    for m in range(2)
                ]
            )
            e_xi, e_xj, e_pk = np.zeros(2), np.zeros(2), np.zeros(2)
            e_xi[i] = 1.0
            e_xj[j] = 1.0
            e_pk[k] = 1.0
            term1 = poisson_bracket(e_xi, np.zeros(2), gx1, gp1, x, p, beta)
            gp2 = np.array(
                [
                    b2 * ((1.0 if i == m else 0.0) * p[k] + p[i] * (1.0 if k == m else 0.0))
                    for m in range(2)
                ]
            )
            term2 = poisson_bracket(e_xj, np.zeros(2), np.zeros(2), -gp2, x, p, beta)
            gx3 = np.array(
                [
                    b2 * ((1.0 if i == m else 0.0) * p[j] - (1.0 if j == m else 0.0) * p[i])
                    for m in range(2)
                ]
            )
            gp3 = np.array(
                [
                    b2 * (x[i] * (1.0 if j == m else 0.0) - x[j] * (1.0 if i == m else 0.0))
                    for m in range(2)
                ]
            )
            term3 = poisson_bracket(np.zeros(2), e_pk, gx3, gp3, x, p, beta)
            worst_jacobi = max(worst_jacobi, abs(term1 + term2 + term3))
    jacobi_ok = worst_jacobi <= 1e-12

    report(
        9,
        "dynamics",
        kepler_ok and nonzero and 1.95 <= slope <= 2.05 and jacobi_ok,
        f"beta=0: h_drift {traj.h_drift:.2e}, j_drift {traj.j_drift:.2e} "
        f"(<=1e-9), precession {prec0.angle_per_orbit:.2e} (<=1e-6); "
        f"sweep slope {slope:.4f} (2 +- 0.05), all nonzero: {nonzero}; "
        f"worst Jacobi residual {worst_jacobi:.2e} (<=1e-12)",
    )
