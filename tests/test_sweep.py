"""The five commands and the two quadrature entries over the whole float range of their inputs.

Each example runs one command in-process through ``main(argv)`` with JSON
output.  m, e2 and every beta are drawn log-uniform from the subnormals to
the largest float, l-limit's l from the subnormals to 0.1 and scan-order's
n from 1 to 10**200, together with small grids; verify-integrals sometimes
takes energies one ulp either side of a window top m e2^2
``window_top(b, l)``.  orbit draws its start
state and span over the float range too.  Every run must exit 0, 1 or 2
without a traceback, and pytest's ``filterwarnings = error`` fails it on
any numpy warning.  Exit 2 is invalid input, named on stderr.  Exit 1 comes
with a typed error, in a row of the output or as the one message of a
package error, or with a check that failed on finite numbers.  A row
without an error holds no NaN.

``phase_integral_numeric`` and ``energy_numeric`` are called directly, with
m, e2 and beta drawn as above, energies log-uniform up to the energy unit,
n up to 2**40 and l up to 2**53, past where an int64 l*l wraps.  Each call
returns a finite float or raises a SnyderCoulombError, and emits no warning.
The other public functions of the spectra and the dynamics are called the
same way, with energies log-uniform over the float range, n and l up to
2**53 and signed state components: each returns finite values, raises a
SnyderCoulombError or raises the ValueError its docstring names.  The only
non-finite values allowed are the ones the docstrings promise.

The examples are derandomized, so the suite draws the same inputs on every
run.
"""

import contextlib
import io
import json
import math
import sys
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from snyder_coulomb import (OrbitState, PhysicalParams, QuantumNumbers, correction_order,
                            dynamics, energy_3d_perturbative_ref, energy_closed, energy_numeric,
                            energy_series, equations_of_motion, errors, invariants,
                            l_limit_study, level_closed, phase_integral_1d_closed,
                            phase_integral_numeric, radial_phase_integral_closed, window_top)
from snyder_coulomb.cli import main

TYPED = tuple(name for name in errors.__all__ if name != "SnyderCoulombError")

# 10**x for x uniform over the exponents of the positive floats
magnitude = st.floats(-323.3, 308.25).map(lambda x: 10.0**x)
beta = st.one_of(st.just(0.0), magnitude)
signed = st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda pair: pair[0] * pair[1])
# l-limit's fractional l, log-uniform from the smallest subnormal up to 0.1
small_l = st.floats(-323.3, -1.0).map(lambda x: 10.0**x)
# scan-order's n: 1 or 2, or 10**x for x uniform in [0, 200], past the 2**53 bound
quantum_n = st.one_of(st.integers(1, 2), st.floats(0.0, 200.0).map(lambda x: int(10.0**x)))
# an energy's share of the energy unit m e2^2, log-uniform from the subnormals up to 1
unit_share = st.floats(-323.3, 0.0).map(lambda x: 10.0**x)


def grid(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size).map(joined)


def joined(items):
    return ",".join(repr(item) for item in items)


def subset(choices):
    return grid(st.sampled_from(choices), len(choices))


@st.composite
def spectral_argv(draw):
    command = draw(st.sampled_from(["spectrum", "verify-integrals", "scan-order", "l-limit"]))
    m, e2 = draw(magnitude), draw(magnitude)
    argv = [command, "--m", repr(m), "--e2", repr(e2)]
    if command == "spectrum":
        argv += ["--beta", repr(draw(beta)), "--n-prime-max", str(draw(st.integers(1, 3)))]
    elif command == "verify-integrals":
        betas = draw(st.lists(beta, min_size=1, max_size=2))
        ls = draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=4))
        argv += ["--beta-grid", joined(betas), "--l-grid", joined(ls),
                 "--energies-per-cell", str(draw(st.integers(1, 2)))]
        params = PhysicalParams(m, e2, betas[0])
        top = params.unit * window_top(params.b, ls[0])  # nan where m e2^2 is inf, top 0
        edges = [e for e in (math.nextafter(top, 0.0), top, math.nextafter(top, math.inf))
                 if math.isfinite(e)]
        if edges and draw(st.booleans()):  # the window top and its neighbours, one ulp away
            argv.append("--e-grid=" + joined(edges))
    elif command == "scan-order":
        top = draw(magnitude)  # seven betas over two decades below it, as the default
        argv += ["--beta-grid", ",".join(repr(top * 10.0 ** (k / 3.0 - 2.0)) for k in range(7)),
                 "--l-list", draw(subset([0, 1, 2])), "--n", str(draw(quantum_n))]
    else:
        argv += ["--beta-grid", draw(grid(beta, 2)),
                 "--l-grid", draw(grid(small_l, 3))]
    return argv + ["--format", "json"]


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spectral_argv())
def test_spectral_commands_end_in_a_typed_outcome(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "" and err.startswith("snyder-coulomb: error: "), (argv, err)
        return
    if not out:  # a package error stopped the command before any output
        assert code == 1 and err.startswith("snyder-coulomb: "), (argv, err)
        assert err.split(": ")[1] in TYPED, (argv, err)
        return
    payload = json.loads(out)
    failed = []
    for row in payload["rows"]:
        if row.get("error"):
            assert row["error"].split(":")[0] in TYPED, (argv, row)
            failed.append(row["error"])
        else:
            assert None not in row.values(), (argv, row)  # a NaN (null) without an error
            if row.get("pass") is False:
                failed.append(f"slope {row['slope']!r} outside its band")
    summary = payload.get("summary")
    if summary is not None:
        assert summary["max_rel_dev"] is not None, (argv, summary)
        if not summary["pass"]:
            failed.append(f"max_rel_dev {summary['max_rel_dev']!r}")
    assert (code == 1) == bool(failed), (argv, code, failed)


def orbit(m, e2, beta, x1, p2, t_end):
    # --flag=value: in "--x1 -1e-5", argparse takes "-1e-5" for an option
    return ["orbit", f"--m={m!r}", f"--e2={e2!r}", f"--beta={beta!r}", f"--x1={x1!r}",
            f"--p2={p2!r}", f"--t-end={t_end!r}", "--format", "json"]


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.builds(orbit, magnitude, magnitude, beta, signed, signed, magnitude))
# err5 = 0 while 0.01 err3 underflows: the error norm divided 0 by 0
@example(orbit(6.117852236989985e+195, 2.7309156990466124e-144, 2.2211888116442033e-80,
               1.0, 0.5, 7.542995868137057e+161))
# Brent's extrapolation divided by a product that underflows to 0
@example(orbit(5.548549874371901e-63, 1.8711751364571588e-161, 0.0, 2.8118666852484708e+16,
               1.2803347799492666e-122, 1.256007749910953e+152))
# the interpolant reads no sign change of the end event over its step
@example(orbit(9.863599816861002e+245, 1.464070251804427e-181, 5.6496636691367725e-81,
               1.0, 0.5, 5.355572785845128e+241))
def test_orbit_ends_in_a_typed_outcome(argv):
    with mock.patch.object(dynamics, "_MAX_STEPS", 2000):
        code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "f(a) and f(b)" not in err, (argv, err)
    if code == 2:
        assert out == "" and err.startswith("snyder-coulomb: error: "), (argv, err)
    elif code == 1:
        assert out == "", (argv, err)
        if not err.startswith("orbit: collision singularity, last good t = "):
            assert err.startswith("snyder-coulomb: ") and err.split(": ")[1] in TYPED, (argv, err)
    else:
        (row,) = json.loads(out)["rows"]
        # a null precession is a run of fewer than three perihelia
        assert row["h_drift"] is not None and row["j_drift"] is not None, (argv, row)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(magnitude, magnitude, beta, unit_share,
       st.one_of(st.integers(1, 3), st.floats(0.0, 40.0).map(lambda x: int(2.0**x))),
       st.sampled_from([0, 1, 2, 3, 7, 4_000_000_000, 2**40, 2**53]))
def test_quadrature_entries_end_in_a_finite_float_or_a_typed_error(m, e2, beta, share, n, l):
    params = PhysicalParams(m, e2, beta)
    energy = params.unit * share  # inf or 0 where the unit leaves the float range
    for call in (lambda: phase_integral_numeric(params, energy, l),
                 lambda: energy_numeric(params, QuantumNumbers(n, l))):
        try:
            result = call()
        except errors.SnyderCoulombError:
            continue
        values = (result,) if isinstance(result, float) else (result.value, result.err_estimate)
        assert all(math.isfinite(value) for value in values), (params, energy, n, l, result)


def settled(call, *named):
    """``call()``, or None where it raised a SnyderCoulombError or one of the ``named`` errors."""
    try:
        return call()
    except (errors.SnyderCoulombError, *named):
        return None


def finite(*values):
    return all(math.isfinite(value) for value in values)


# n or l: small, or 2**x for x uniform in [0, 53], up to the QuantumNumbers bound
quantum = st.one_of(st.integers(0, 3), st.floats(0.0, 53.0).map(lambda x: int(2.0**x)))
# a fractional or an integer l > 0, as the radial closed form takes it
float_l = st.one_of(small_l, st.floats(0.0, 53.0).map(lambda x: float(int(2.0**x))))
# the top of correction_order's beta grid, whose two decades below it stay positive
grid_top = st.floats(-300.0, 308.25).map(lambda x: 10.0**x)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(magnitude, magnitude, beta, magnitude, quantum, quantum, float_l, grid_top,
       st.tuples(signed, signed, signed, signed))
def test_public_functions_end_in_finite_values_or_a_typed_error(m, e2, beta, energy, n, l,
                                                                 radial_l, top_beta, y):
    params = PhysicalParams(m, e2, beta)
    qn = QuantumNumbers(max(n, 1), l)
    context = (params, energy, qn, radial_l, top_beta, y)

    for call in (lambda: energy_closed(params, qn), lambda: level_closed(params.b, qn),
                 lambda: energy_3d_perturbative_ref(params, qn)):
        value = settled(call)
        assert value is None or finite(value), (context, value)
    series = settled(lambda: energy_series(params, qn))  # -inf at a huge b, as documented
    assert series is None or finite(series) or series == -math.inf, (context, series)

    b, top = params.b, window_top(params.b, radial_l)
    least = 1.0 / sys.float_info.max  # inf where 1/(2 l^2) and 1/(2 b^2) overflow, as documented
    assert finite(top) or 2.0 * radial_l * radial_l < least and 2.0 * b * b < least, (
        context, top)
    for call in (lambda: phase_integral_1d_closed(params, energy),
                 lambda: radial_phase_integral_closed(params, energy, radial_l)):
        result = settled(call)
        assert result is None or finite(result.value), (context, result)

    for row in settled(lambda: l_limit_study(params, energy, [radial_l, 1e-3])) or []:
        assert row.error is not None or finite(row.phi_radial, row.phi_one_dim, row.gap), (
            context, row)
        if row.error is not None:
            assert row.error.split(":")[0] in TYPED, (context, row)

    grid = [top_beta * 10.0 ** (k / 3.0 - 2.0) for k in range(7)]
    fit = settled(lambda: correction_order(PhysicalParams(m, e2), qn, grid))
    assert fit is None or finite(fit.slope, fit.intercept, fit.rms_residual), (context, fit)

    state = OrbitState(*y)
    for call in (lambda: invariants(state, params), lambda: equations_of_motion(y, params)):
        values = settled(call, ValueError)  # where the values are not finite, as documented
        assert values is None or finite(*values), (context, values)
