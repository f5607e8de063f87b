"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces module attributes of ``snyder_coulomb`` with
timing wrappers and returns the list of names it could not find; a name
missing in some commit leaves its layer absent instead of failing.  Spans
(name, start, end, parent) are kept in memory in flat arrays and written out
once at the end.  A span's self time is its duration minus the time covered
by the nearest descendants of chosen kinds.

Hot functions called thousands of times per operation (``invariants``, the
quadrature integrand) are counted, not spanned.

Run as a script, this file is the traced stand-in for
``python -m snyder_coulomb``: ``python tracing.py SPANS_OUT ARGV...`` runs
``cli.main(ARGV)`` with the wrappers installed and writes the spans to
SPANS_OUT as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name) of the plain spans.  One span name may
# cover several bound names of the same function.
SPANNED = [
    ("numerics", "phase_integral_1d_closed", "analytic.phase_closed"),
    ("numerics", "radial_phase_integral_closed", "analytic.phase_closed"),
    ("numerics", "turning_points", "analytic.turning_points"),
    ("analytic", "turning_points", "analytic.turning_points"),
    ("numerics", "brentq", "numerics.brentq"),
    ("numerics", "correction_order", "numerics.correction_order"),
    ("cli", "correction_order", "numerics.correction_order"),
    ("dynamics", "precession_per_orbit", "dynamics.precession_per_orbit"),
    ("cli", "precession_per_orbit", "dynamics.precession_per_orbit"),
    ("cli", "main", "cli.main"),
]

OP = "op"
PHASE_WORK = ("analytic.phase_closed", "analytic.turning_points", "numerics.quad")


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.attrs: dict[int, dict] = {}
        self.counters = {"dynamics.invariants": 0, "numerics.quad.integrand_s": 0.0}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, fn, name, on_result=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of (args, kwargs)."""
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                self.attrs[idx] = on_result(result)
            return result

        return wrapper

    def _quad(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(func, *args, **kwargs):
            def timed(x):
                t0 = time.perf_counter()
                try:
                    return func(x)
                finally:
                    counters["numerics.quad.integrand_s"] += time.perf_counter() - t0

            idx = self.open("numerics.quad")
            try:
                result = fn(timed, *args, **kwargs)
            finally:
                self.close(idx)
            info = result[2] if len(result) > 2 and isinstance(result[2], dict) else {}
            self.attrs[idx] = {"neval": info.get("neval", 0)}
            return result

        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> list[str]:
        """Wrap the boundary names of ``package``; return the names not found."""

        def solve_name(args, kwargs):
            method = args[2] if len(args) > 2 else kwargs.get("method", "closed_form")
            return "numerics.solve_closed" if method == "closed_form" else "numerics.solve_numeric"

        wraps = [(mod, attr, functools.partial(self._span, name=name))
                 for mod, attr, name in SPANNED]
        wraps += [
            ("numerics", "quad", self._quad),
            ("numerics", "solve_bs_energy", functools.partial(self._span, name=solve_name)),
            ("dynamics", "solve_ivp", functools.partial(
                self._span, name="dynamics.solve_ivp", on_result=lambda r: {"nfev": int(r.nfev)})),
            ("dynamics", "invariants", functools.partial(self._count, "dynamics.invariants")),
        ]
        wraps += [(mod, "integrate_orbit", functools.partial(
            self._span, name="dynamics.integrate_orbit",
            on_result=lambda r: {"samples": len(r.samples)})) for mod in ("dynamics", "cli")]

        missing = []
        for mod, attr, make in wraps:
            try:
                module = importlib.import_module(f"{package.__name__}.{mod}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{mod}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, make(original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counters": self.counters,
        }

    def merge(self, data: dict) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.names)
        self.names.extend(data["names"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(parent if p < 0 else p + offset for p in data["parent"])
        self.attrs.update({int(k) + offset: v for k, v in data["attrs"].items()})
        for key, value in data["counters"].items():
            self.counters[key] += value


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation layer metrics from the spans of a traced phase.

    Metrics of layers that never ran read exactly 0; the caller lists them
    as absent.
    """
    names, start, end, parent = tracer.names, tracer.start, tracer.end, tracer.parent
    n = len(names)
    dur = [end[i] - start[i] for i in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)

    def covered(i: int, kinds) -> float:
        """Time of the nearest descendants of ``i`` whose name is in ``kinds``."""
        total, todo = 0.0, list(children[i])
        while todo:
            j = todo.pop()
            if names[j] in kinds:
                total += dur[j]
            else:
                todo.extend(children[j])
        return total

    def count_below(i: int, kind: str) -> int:
        total, todo = 0, list(children[i])
        while todo:
            j = todo.pop()
            total += names[j] == kind
            todo.extend(children[j])
        return total

    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
    spans = lambda name: by_name.get(name, [])  # noqa: E731
    ops = max(len(spans(OP)), 1)
    total = lambda name: sum(dur[i] for i in spans(name))  # noqa: E731
    attr_sum = lambda name, key: sum(tracer.attrs.get(i, {}).get(key, 0) for i in spans(name))  # noqa: E731
    per = lambda num, den: num / den if den else 0.0  # noqa: E731

    closed, numeric = spans("numerics.solve_closed"), spans("numerics.solve_numeric")
    phase, quads = spans("analytic.phase_closed"), spans("numerics.quad")
    fits, orbits = spans("numerics.correction_order"), spans("dynamics.integrate_orbit")
    nfev = attr_sum("dynamics.solve_ivp", "nfev")
    mains = spans("cli.main")
    return {
        "analytic.phase_closed.calls": len(phase) / ops,
        "analytic.phase_closed.self_us": 1e6 * per(
            sum(dur[i] - covered(i, PHASE_WORK) for i in phase), len(phase)),
        "analytic.turning_points.calls": len(spans("analytic.turning_points")) / ops,
        "numerics.solve_closed.phi_per_solve": per(
            sum(count_below(i, "analytic.phase_closed") for i in closed), len(closed)),
        "numerics.solve_closed.self_ms": 1e3 * sum(dur[i] - covered(i, PHASE_WORK) for i in closed) / ops,
        "numerics.solve_numeric.phi_per_solve": per(
            sum(count_below(i, "numerics.quad") for i in numeric), len(numeric)),
        "numerics.solve_numeric.self_ms": 1e3 * sum(dur[i] - covered(i, PHASE_WORK) for i in numeric) / ops,
        "numerics.quad.calls": len(quads) / ops,
        "numerics.quad.neval_per_call": per(attr_sum("numerics.quad", "neval"), len(quads)),
        "numerics.quad.ms_per_op": 1e3 * total("numerics.quad") / ops,
        "numerics.quad.integrand_share": per(
            tracer.counters["numerics.quad.integrand_s"], total("numerics.quad")),
        "numerics.fit.self_us": 1e6 * per(
            sum(dur[i] - covered(i, ("numerics.solve_closed", "numerics.solve_numeric"))
                for i in fits), len(fits)),
        "dynamics.solve_ivp.ms_per_op": 1e3 * total("dynamics.solve_ivp") / ops,
        "dynamics.solve_ivp.nfev_per_op": nfev / ops,
        "dynamics.rhs.us_per_eval": 1e6 * per(total("dynamics.solve_ivp"), nfev),
        "dynamics.integrate_orbit.self_ms": 1e3 * sum(
            dur[i] - covered(i, ("dynamics.solve_ivp",)) for i in orbits) / ops,
        "dynamics.invariants.calls": tracer.counters["dynamics.invariants"] / ops,
        "dynamics.samples_per_op": attr_sum("dynamics.integrate_orbit", "samples") / ops,
        "dynamics.precession.ms_per_op": 1e3 * total("dynamics.precession_per_orbit") / ops,
        "cli.main_ms": 1e3 * total("cli.main") / ops,
        "cli.process_overhead_ms": 1e3 * per(
            sum(dur[i] - covered(i, ("cli.main",)) for i in spans(OP)), len(spans(OP))) if mains else 0.0,
    }


def _cli_child(spans_out: str, argv: list[str]) -> int:
    import snyder_coulomb
    from snyder_coulomb import cli

    tracer = Tracer()
    tracer.install(snyder_coulomb)
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)
    return status


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1], sys.argv[2:]))
