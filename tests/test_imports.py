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


def _scipy_loaded_by(argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("argv", [
    [], ["l-limit"], ["scan-order"],
    ["verify-integrals", "--beta-grid", "0,0.1", "--l-grid", "0,1",
     "--energies-per-cell", "2"],
])
def test_closed_form_paths_do_not_load_scipy(argv):
    assert _scipy_loaded_by(argv) == "[]"


def test_spectrum_loads_only_the_root_solver():
    argv = ["spectrum", "--n-prime-max", "2"]
    assert _scipy_loaded_by(argv) == "['scipy.optimize']"


def test_lazy_names_are_scipy_functions():
    for function in (numerics.brentq, dynamics.solve_ivp):
        assert function.__module__.startswith("scipy")
    with pytest.raises(AttributeError, match="quad"):
        numerics.quad  # noqa: B018


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        numerics.no_such_name  # noqa: B018


def test_patched_brentq_is_the_one_called(monkeypatch):
    calls, original = [], numerics.brentq

    def counting_brentq(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(numerics, "brentq", counting_brentq)
    params = validate_params(1, 1, 0.1)
    numerics.solve_bs_energy(params, QuantumNumbers(1, 0), "closed_form")
    assert calls == []
    numerics.solve_bs_energy(params, QuantumNumbers(1, 0), "numeric")
    assert len(calls) == 1
