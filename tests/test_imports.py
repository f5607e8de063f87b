"""Only the orbit route loads scipy, on first use, by imports inside its functions.

Package modules also import no private (``_``-prefixed) name from each other,
and the quadrature route calls no closed-form function.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snyder_coulomb import PhysicalParams, analytic, dynamics, numerics

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


def test_spectrum_loads_no_scipy():
    assert _scipy_loaded_by(["spectrum", "--n-prime-max", "2"]) == "[]"


def test_step_loop_tableau_is_scipys():
    from scipy.integrate import DOP853

    a_rows, b, e5, e3, d, a_extra = dynamics._tableau()  # the loop's tableau is scipy's
    assert len(a_rows) == 11 and len(a_extra) == 3
    assert a_rows[-1] == tuple(DOP853.A[11, :11]) and a_extra[-1] == tuple(DOP853.A_EXTRA[2, :15])
    assert (b, e5, e3) == (tuple(DOP853.B), tuple(DOP853.E5), tuple(DOP853.E3))
    assert d == tuple(map(tuple, DOP853.D))
    for name in ("brentq", "quad"):
        with pytest.raises(AttributeError, match=name):
            getattr(numerics, name)


MODULES = sorted((SRC / "snyder_coulomb").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_names_cross_module_boundaries(path):
    # dunder names such as __version__ are public
    crossings = [
        f"{'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("snyder_coulomb"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert crossings == []


QUADRATURE_CORE = ("_trapezoid", "_band_edges", "_phase_rows", "_solve_levels",
                   "phase_integral_numeric", "energy_numeric")


def test_quadrature_route_names_no_closed_form():
    # the two routes never share a formula: their agreement is the cross-check;
    # the core and every numerics function it names may share only result types
    tree = ast.parse((SRC / "snyder_coulomb" / "numerics.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    closed = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "analytic"
        for alias in node.names
        if inspect.isfunction(getattr(analytic, alias.name))
    }
    assert "energy_closed" in closed
    shared, seen, todo = [], set(), [name for name in QUADRATURE_CORE if name in defs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            used = {node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
            shared += [f"{name} -> {other}" for other in sorted(used & closed)]
            todo += sorted(used & defs.keys())
    assert (sorted(shared), sorted(set(QUADRATURE_CORE) - defs.keys())) == ([], [])


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        numerics.no_such_name  # noqa: B018


@pytest.mark.parametrize("beta", [0.0, 1e-3, 0.15])
def test_spectrum_table_makes_few_array_calls(monkeypatch, beta):
    # one array evaluation of Phi per round, over all 36 levels together
    calls, core = [], numerics._phase_rows

    def counting_core(*args):
        calls.append(len(args[1]))
        return core(*args)

    monkeypatch.setattr(numerics, "_phase_rows", counting_core)
    entries = numerics.spectrum_table(PhysicalParams(1, 1, beta), 8)
    assert all(entry.error is None for entry in entries)
    assert 1 <= len(calls) <= 12
    assert calls[0] == 2 * len(entries)  # both bracket ends of every level
