"""scipy is imported on first use, through module attributes that stay patchable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from snyder_coulomb import QuantumNumbers, dynamics, numerics, validate_params

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, sys
import snyder_coulomb
from snyder_coulomb import cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules))
"""


@pytest.mark.parametrize("argv", [[], ["l-limit"], ["scan-order"]])
def test_closed_form_paths_do_not_load_scipy(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lazy_names_are_scipy_functions():
    for function in (numerics.quad, numerics.brentq, dynamics.solve_ivp):
        assert function.__module__.startswith("scipy")


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        numerics.no_such_name  # noqa: B018


def test_patched_quad_is_the_one_called(monkeypatch):
    calls, original = [], numerics.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(numerics, "quad", counting_quad)
    params = validate_params(1, 1, 0.1)
    numerics.phase_integral_numeric(params, 0.1, 1)
    assert len(calls) == 1
    numerics.solve_bs_energy(params, QuantumNumbers(1, 0), "numeric")
    assert len(calls) > 2
