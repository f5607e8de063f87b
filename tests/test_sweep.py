"""The four spectral commands over the whole float range of m, e2 and beta.

Each example runs one command in-process through ``main(argv)`` with JSON
output.  m, e2 and every beta are drawn log-uniform from the subnormals to
the largest float, and l-limit's l from the subnormals to 0.1, together
with small grids.  Every run must exit 0, 1 or 2 without a traceback, and
pytest's ``filterwarnings = error`` fails it on any numpy warning.  Exit 2
is invalid input, named on stderr.  Exit 1 comes with a typed error, in a
row of the output or as the one message of a package error, or with a
check that failed on finite numbers.  A row without an error holds no NaN.

The examples are derandomized, so the suite draws the same inputs on every
run.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snyder_coulomb import errors
from snyder_coulomb.cli import main

TYPED = tuple(name for name in errors.__all__ if name != "SnyderCoulombError")

# 10**x for x uniform over the exponents of the positive floats
magnitude = st.floats(-323.3, 308.25).map(lambda x: 10.0**x)
beta = st.one_of(st.just(0.0), magnitude)
# l-limit's fractional l, log-uniform from the smallest subnormal up to 0.1
small_l = st.floats(-323.3, -1.0).map(lambda x: 10.0**x)


def grid(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size).map(
        lambda items: ",".join(repr(item) for item in items))


def subset(choices):
    return grid(st.sampled_from(choices), len(choices))


@st.composite
def spectral_argv(draw):
    command = draw(st.sampled_from(["spectrum", "verify-integrals", "scan-order", "l-limit"]))
    argv = [command, "--m", repr(draw(magnitude)), "--e2", repr(draw(magnitude))]
    if command == "spectrum":
        argv += ["--beta", repr(draw(beta)), "--n-prime-max", str(draw(st.integers(1, 3)))]
    elif command == "verify-integrals":
        argv += ["--beta-grid", draw(grid(beta, 2)), "--l-grid", draw(subset([0, 1, 2, 3])),
                 "--energies-per-cell", str(draw(st.integers(1, 2)))]
    elif command == "scan-order":
        top = draw(magnitude)  # seven betas over two decades below it, as the default
        argv += ["--beta-grid", ",".join(repr(top * 10.0 ** (k / 3.0 - 2.0)) for k in range(7)),
                 "--l-list", draw(subset([0, 1, 2])), "--n", str(draw(st.integers(1, 2)))]
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
