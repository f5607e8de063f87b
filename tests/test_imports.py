"""Which modules each CLI command loads, and the lazy package root.

No module of the package imports scipy, so no CLI command loads any
``scipy`` module.  Importing the package and the CLI loads no numpy; each
command loads only the numpy layer it runs, ``numerics`` or ``dynamics``,
and ``l-limit`` loads neither.  Package modules also import no private
(``_``-prefixed) name from each other, and the quadrature route calls no
closed-form function.  The reduced level cores take b = beta m e2 and leave
the physical scale, and the rule of which (n, l) is a level, to ``model``,
and no test leaves a relative bound with approx's default absolute one.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snyder_coulomb
from snyder_coulomb import (NoRootInWindow, PhysicalParams, QuantumNumbers, analytic, dynamics,
                            errors, model, numerics, window_top)

SRC = Path(__file__).resolve().parent.parent / "src"

WATCHED = ("numpy", "scipy", "snyder_coulomb.numerics", "snyder_coulomb.dynamics")
NUMERICS = {"numpy", "snyder_coulomb.numerics"}
DYNAMICS = {"numpy", "snyder_coulomb.dynamics"}
# The watched modules each command loads; "" is the import of the package and the CLI.
LOADS = {"": set(), "l-limit": set(), "spectrum": NUMERICS, "verify-integrals": NUMERICS,
         "scan-order": NUMERICS, "orbit": DYNAMICS}

PROBE = f"""
import contextlib, io, sys
import snyder_coulomb
from snyder_coulomb import cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(*(name for name in {WATCHED!r} if name in sys.modules))
"""


def _run(code, *argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded_by(argv):
    return set(_run(PROBE, *argv).split())


@pytest.mark.parametrize("argv", [
    [], ["l-limit"], ["scan-order"],
    ["verify-integrals", "--beta-grid", "0,0.1", "--l-grid", "0,1",
     "--energies-per-cell", "2"],
])
def test_closed_form_paths_do_not_load_scipy(argv):
    assert _loaded_by(argv) == LOADS[argv[0] if argv else ""]


def test_spectrum_loads_no_scipy():
    assert _loaded_by(["spectrum", "--n-prime-max", "2"]) == LOADS["spectrum"]


def test_orbit_loads_no_scipy():
    assert _loaded_by(["orbit", "--t-end", "30"]) == LOADS["orbit"]


SUBMODULES = (errors, model, analytic, numerics, dynamics)


def test_root_names_are_the_submodules_names():
    names = ["__version__", *(name for module in SUBMODULES for name in module.__all__)]
    assert snyder_coulomb.__all__ == names
    assert len(set(names)) == len(names) == 42
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(snyder_coulomb, name) is getattr(module, name), name


def test_star_import_binds_every_root_name():
    code = ("from snyder_coulomb import *\nimport snyder_coulomb\n"
            "print(len(snyder_coulomb.__all__), sorted(set(snyder_coulomb.__all__) - set(dir())))")
    assert _run(code) == "42 []"


def test_step_loop_tableau_is_scipys():
    from scipy.integrate import DOP853

    def rows(matrix, first):  # stage s combines the s stages before it; the rest are zeros
        assert not any(row[s:].any() for s, row in enumerate(matrix, first))
        return [row[:s].tolist() for s, row in enumerate(matrix, first)]

    a_rows, b, e5, e3, d, a_extra = dynamics._TABLEAU  # the loop's literals are scipy's
    assert [list(row) for row in a_rows] == rows(DOP853.A[1:], 1)
    assert [list(row) for row in a_extra] == rows(DOP853.A_EXTRA, DOP853.n_stages + 1)
    assert [list(b), list(e5), list(e3)] == [DOP853.B.tolist(), DOP853.E5.tolist(),
                                             DOP853.E3.tolist()]
    assert [list(row) for row in d] == DOP853.D.tolist()
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


def test_only_admit_raises_out_of_window():
    # one owner of the energy window: every route that refuses an energy asks admit
    def raisers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from raisers(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "OutOfWindow":
                    yield scope
            yield from raisers(child, scope)

    found = [scope for path in MODULES for scope in raisers(ast.parse(path.read_text()), path.stem)]
    assert found == ["model.PhysicalParams.admit"]


def _defs(module):
    tree = ast.parse((SRC / "snyder_coulomb" / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


B_CORES = {"analytic": ("level_closed",), "numerics": ("_solve_levels", "_phase_rows")}


def test_level_cores_take_b_and_name_no_physical_params():
    # the physical scale is model's: a reduced core reads b = beta m e2 alone
    firsts, named = {}, []
    for module, names in B_CORES.items():
        defs = _defs(module)
        for name in names:
            firsts[name] = defs[name].args.args[0].arg
            named += [name for node in ast.walk(defs[name])
                      if isinstance(node, ast.Name) and node.id == "PhysicalParams"]
    assert (firsts, named) == (dict.fromkeys(firsts, "b"), [])


def test_energy_closed_asks_admit_alone():
    # admit is the one window test of a physical level; energy_closed words its failure once
    body = list(ast.walk(_defs("analytic")["energy_closed"]))
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in body if isinstance(node, ast.Call)}
    raises = sum(isinstance(node, ast.Raise) for node in body)
    assert ("admit" in called, called & {"window_top", "reduced"}, raises) == (True, set(), 1)


def test_physical_level_rounded_onto_the_top_quotes_admit():
    # the reduced level lies below the window top, but m e2^2 times it reads back onto the top
    params = PhysicalParams(1.7235702277312939, 15.443361036904205, 0.18784480816951726)
    qn = QuantumNumbers(2, 1)
    assert analytic.level_closed(params.b, 2, 1) < window_top(params.b, 1)
    with pytest.raises(NoRootInWindow) as exc:
        analytic.energy_closed(params, qn)
    top = "8.221340364631008"  # m e2^2 times the reduced top, and the physical level itself
    assert str(exc.value) == (f"level infeasible at beta={params.beta!r} for {qn}: "
                              f"E={top} outside the window (0, {top}) at l=1")


def test_relative_bounds_say_abs():
    # approx adds abs=1e-12 to a bare rel=r, which loosens the bound wherever |x| < 1e-12/r
    loose = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "approx"
        and "rel" in (keywords := {keyword.arg for keyword in node.keywords})
        and "abs" not in keywords
    ]
    assert loose == []


NUMBER_CORES = {"analytic": ("level_closed",),
                "numerics": ("_solve_levels", "_phase_rows", "_trapezoid")}


def test_level_and_quadrature_cores_name_no_quantum_numbers():
    # the cores take plain numbers; QuantumNumbers is the label of the public entries
    named, missing = [], []
    for module, names in NUMBER_CORES.items():
        defs = _defs(module)
        missing += [name for name in names if name not in defs]
        named += [name for name in names if name in defs and any(
            isinstance(node, ast.Name) and node.id == "QuantumNumbers"
            for node in ast.walk(defs[name]))]
    assert (named, missing) == ([], [])


LEVEL_RULE_CALLERS = {"analytic": "level_closed", "numerics": "_level_set"}


def test_only_model_decides_a_levels_numbers():
    # one owner of the (n, l) rule: both level cores ask model.check_level, and no
    # function of analytic or numerics that takes n and l bounds them or reads the float range
    bounds, asks = [], {}
    for module, caller in LEVEL_RULE_CALLERS.items():
        if "float_info" in (SRC / "snyder_coulomb" / f"{module}.py").read_text():
            bounds.append(f"{module}: float_info")
        defs = _defs(module)
        for name, node in defs.items():
            if {"n", "l"} <= {arg.arg for arg in node.args.args}:
                bounds += [
                    f"{module}.{name}: {ast.unparse(compare)}" for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                            for op in compare.ops)
                    and any(isinstance(side, ast.Name) and side.id in ("n", "l")
                            for side in (compare.left, *compare.comparators))
                ]
        asks[caller] = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                           and node.func.id == "check_level" for node in ast.walk(defs[caller]))
    assert (bounds, asks) == ([], dict.fromkeys(asks, True))
    assert "check_level" not in model.__all__


# the inputs that must be finite and > 0, by the function of each module that reads them
POSITIVE_INPUTS = {"dynamics": ("integrate_orbit", {"t_end", "local_tol", "value"}),
                   "numerics": ("correction_order", {"b", "betas", "beta"}),
                   "cli": ("_cmd_l_limit", {"cfg", "energy"})}


def _names(node):
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


def test_model_owns_the_rules_of_reading_a_number():
    # one owner for an outside number: no other module tests those inputs against 0,
    # an int past the float range is read through model.as_float, and dynamics sets
    # no frozen field
    against_zero = []
    for module, (name, inputs) in POSITIVE_INPUTS.items():
        for node in ast.walk(_defs(module)[name]):
            if not (isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)):
                continue
            sides = [node.left, *node.comparators]
            if _names(node) & inputs and any(isinstance(side, ast.Constant) and side.value == 0
                                             for side in sides):
                against_zero.append(f"{module}.{name}: {ast.unparse(node)}")
    l_limit = _names(_defs("analytic")["l_limit_study"])
    reduced = next(node for node in ast.walk(ast.parse((SRC / "snyder_coulomb" / "model.py")
                                                       .read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "reduced")
    dynamics_ = ast.walk(ast.parse((SRC / "snyder_coulomb" / "dynamics.py").read_text()))
    setattr_ = [node for node in dynamics_
                if isinstance(node, ast.Attribute) and node.attr == "__setattr__"]
    assert (against_zero, "OverflowError" in l_limit, setattr_) == ([], False, [])
    assert "as_float" in l_limit and "as_float" in _names(reduced)
    assert list(inspect.signature(model.finite_float).parameters) == ["name", "value", "positive"]
    assert {"as_float", "store_floats"}.isdisjoint(model.__all__)


def test_unknown_attribute_still_raises():
    for module in (numerics, snyder_coulomb):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018


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
    assert 1 <= len(calls) <= 6
    assert calls[0] == len(entries)  # every level's start
