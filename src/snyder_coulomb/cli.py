"""Command-line front end: deterministic CSV/JSON sweeps and checks.

Commands
--------
spectrum          solved energy levels (closed, numeric, series, undeformed)
verify-integrals  closed form vs quadrature over an (E, l, beta) grid
scan-order        fitted power of beta of the spectrum corrections
orbit             deformed-orbit drift and perihelion-precession diagnostics
l-limit           radial closed form at small l next to the 1D closed form

Output is byte-deterministic: row order is fixed, floats are printed as
their shortest round-trip ``repr`` (NaN as ``nan`` in CSV and ``null`` in
JSON), CSV uses '.' decimals and ',' separators, JSON is a single object
with ``meta`` (full config echo plus tool version) and ``rows``.  Exit
status is 0 only when every requested check passed its stated tolerance;
invalid input (any ValueError, including the library's parameter errors)
exits 2, failed checks or per-row errors exit 1.

Option precedence: command-line flags override ``--config`` file entries,
which override built-in defaults; the config entries become argparse
defaults of the subcommand.  Config files are flat ``key = value`` lines
mirroring the long flag names (for example ``n-prime-max = 4``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Callable, Sequence

from . import __version__
from .analytic import l_limit_study, phase_integral_1d_closed, radial_phase_integral_closed
from .errors import CollisionSingularity, InsufficientPeriods, OutOfWindow, SnyderCoulombError
from .model import PhysicalParams, QuantumNumbers, finite_float, window_top

__all__ = ["main", "run"]

VERIFY_THRESHOLD = 1e-8
SLOPE_BAND_1D = (0.98, 1.02)
SLOPE_BAND_3D = (1.98, 2.02)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


# --------------------------------------------------------------------------
# option plumbing
# --------------------------------------------------------------------------


def _list_of(convert: Callable[[str], Any]) -> Callable[[str], list]:
    """Converter of a comma list of ``convert`` values; an empty list is an error."""

    def parse_list(text: str) -> list:
        items = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not items:
            raise ValueError("empty list")
        return [convert(piece) for piece in items]

    return parse_list


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _apply_config(path: str, command: argparse.ArgumentParser, actions: dict) -> None:
    """Make the ``key = value`` lines of a config file the defaults of ``command``.

    Values are converted and checked as argparse converts and checks the
    flag of the same name.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in actions:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        action = actions[key]
        try:
            value = _parse_bool(text) if action.nargs == 0 else (action.type or str)(text)
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: config key {key}: {exc}") from exc
        command.set_defaults(**{action.dest: value})


# --------------------------------------------------------------------------
# deterministic serialization
# --------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    # No cell is None: the rows hold numbers, bools and `error or ""`
    # strings, and the summaries counts, floats and a bool.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # repr(np.float64(x)) would spell out the type
        return float.__repr__(value)
    return str(value)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buffer.getvalue()


def _finite_or_none(value: Any) -> Any:
    """``value`` with each non-finite float, at any depth, replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(item) for item in value]
    return value


def _render_json(payload: dict[str, Any]) -> str:
    return json.dumps(_finite_or_none(payload), indent=2, allow_nan=False) + "\n"


def _emit(
    cfg: dict[str, Any],
    command: str,
    header: Sequence[str],
    rows: Sequence[Sequence[Any]],
    summary: dict[str, Any] | None = None,
    extra: dict[str, Any] | None = None,
) -> None:
    meta: dict[str, Any] = {"tool": "snyder-coulomb", "version": __version__,
                            "command": command}
    for key, value in cfg.items():
        if key in ("config", "out", "format"):
            continue
        meta[key.replace("_", "-")] = value
    if cfg["format"] == "json":
        payload: dict[str, Any] = {"meta": meta}
        if summary is not None:
            payload["summary"] = summary
        payload["rows"] = [dict(zip(header, row)) for row in rows]
        if extra:
            payload.update(extra)
        text = _render_json(payload)
    else:
        text = _render_csv(header, rows)
        if summary is not None:
            print(
                " ".join(f"{k}={_fmt(v)}" for k, v in summary.items()),
                file=sys.stderr,
            )
    if cfg["out"] == "-":
        sys.stdout.write(text)
    else:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


# A command imports the numpy layer it runs, numerics or dynamics, when it
# runs: no command loads the other layer, and l-limit loads neither.


def _cmd_spectrum(cfg: dict[str, Any]) -> int:
    from .numerics import spectrum_table

    params = PhysicalParams(cfg["m"], cfg["e2"], cfg["beta"])
    entries = spectrum_table(params, cfg["n_prime_max"])
    header = ["n_prime", "l", "beta", "E_newton", "E_closed", "E_numeric",
              "E_series", "rel_gap_closed_numeric", "error"]
    rows = []
    for entry in entries:
        gap = math.nan if entry.error else (
            abs(entry.e_closed - entry.e_numeric) / abs(entry.e_closed))
        rows.append([
            entry.qn.n_prime, entry.qn.l, params.beta, entry.e_newton,
            entry.e_closed, entry.e_numeric, entry.e_series, gap,
            entry.error or "",
        ])
    _emit(cfg, "spectrum", header, rows)
    return EXIT_CHECK_FAILED if any(entry.error for entry in entries) else EXIT_OK


def _linspace(a: float, b: float, count: int) -> list[float]:
    """``count`` floats evenly spaced from a to b, bit for bit ``np.linspace(a, b, count)``."""
    if count == 1:
        return [a]
    step = (b - a) / (count - 1)
    return [a + k * step for k in range(count - 1)] + [b]


def _cell_energies(params, l: int, count: int) -> list[float]:
    # Cap the reduced window top at 1, the energy unit m e2^2, so the l = 0
    # cells stay in the physically interesting range even when the window
    # itself only closes at the (much higher) deformation pole.
    scale = params.physical(min(window_top(params.b, l), 1.0))
    return [f * scale for f in _linspace(0.05, 0.95, count)]


def _cmd_verify_integrals(cfg: dict[str, Any]) -> int:
    from .numerics import phase_integral_numeric

    if cfg["energies_per_cell"] < 1:
        raise ValueError("energies-per-cell must be >= 1")
    for energy in cfg["e_grid"] or ():  # a finite energy outside a window is skipped
        finite_float("e-grid entry", energy)
    header = ["beta", "l", "E", "phi_closed", "phi_numeric", "rel_dev"]
    rows = []
    skipped = 0
    max_dev = 0.0
    for beta in cfg["beta_grid"]:
        params = PhysicalParams(cfg["m"], cfg["e2"], beta)
        for l in cfg["l_grid"]:
            energies = cfg["e_grid"] or _cell_energies(params, l, cfg["energies_per_cell"])
            for energy in energies:
                try:  # both closed forms decide the window by PhysicalParams.admit
                    if l == 0:
                        phi_c = phase_integral_1d_closed(params, energy).value
                    else:
                        phi_c = radial_phase_integral_closed(params, energy, l).value
                except OutOfWindow:
                    phi_c = 0.0
                if phi_c == 0.0:  # outside, or rounded to 0 next to the circular bound
                    skipped += 1
                    continue
                phi_n = phase_integral_numeric(params, energy, l).value
                dev = abs(phi_c - phi_n) / abs(phi_c)
                max_dev = max(max_dev, dev)
                rows.append([beta, l, energy, phi_c, phi_n, dev])
    passed = bool(rows) and max_dev <= VERIFY_THRESHOLD
    summary = {
        "checked": len(rows),
        "skipped": skipped,
        "max_rel_dev": max_dev,
        "threshold": VERIFY_THRESHOLD,
        "pass": passed,
    }
    _emit(cfg, "verify-integrals", header, rows, summary=summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_scan_order(cfg: dict[str, Any]) -> int:
    from .numerics import correction_order

    params_base = PhysicalParams(cfg["m"], cfg["e2"], 0.0)
    header = ["l", "slope", "rms_residual", "n_used", "pass"]
    rows = []
    all_pass = True
    for l in cfg["l_list"]:
        qn = QuantumNumbers(n=cfg["n"], l=l)
        fit = correction_order(params_base, qn, cfg["beta_grid"])
        lo, hi = SLOPE_BAND_1D if l == 0 else SLOPE_BAND_3D
        ok = lo <= fit.slope <= hi
        all_pass = all_pass and ok
        rows.append([l, fit.slope, fit.rms_residual, fit.n_used, ok])
    _emit(cfg, "scan-order", header, rows)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _undeformed_period(params: PhysicalParams, state) -> float:
    from .dynamics import invariants

    energy_total, _ = invariants(state, params)
    if energy_total >= 0:
        raise ValueError("initial state is unbound at beta = 0; give --t-end explicitly")
    semi_major = params.e2 / (2.0 * abs(energy_total))
    return 2.0 * math.pi * math.sqrt(params.m * semi_major**3 / params.e2)


def _cmd_orbit(cfg: dict[str, Any]) -> int:
    from .dynamics import OrbitState, integrate_orbit, precession_per_orbit

    params = PhysicalParams(cfg["m"], cfg["e2"], cfg["beta"])
    state0 = OrbitState(cfg["x1"], cfg["x2"], cfg["p1"], cfg["p2"])
    t_end = cfg["t_end"]
    if t_end is None:
        t_end = 100.0 * _undeformed_period(params, state0)

    try:
        traj = integrate_orbit(state0, params, t_end, local_tol=cfg["local_tol"])
    except CollisionSingularity as exc:
        print(f"orbit: collision singularity, last good t = {exc.t_last!r}: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED

    try:
        prec = precession_per_orbit(traj)
        precession, n_orbits, circular = prec.angle_per_orbit, prec.n_orbits, prec.circular
    except InsufficientPeriods:
        precession, n_orbits, circular = math.nan, 0, False

    header = ["beta", "t_end", "local_tol", "h_drift", "j_drift",
              "precession_per_orbit", "n_orbits", "circular"]
    rows = [[params.beta, t_end, cfg["local_tol"], traj.h_drift, traj.j_drift,
             precession, n_orbits, circular]]
    summary = extra = None
    if cfg["dump_samples"]:
        names = list(traj.samples.dtype.names)
        records = traj.samples.tolist()
        if cfg["format"] == "json":
            extra = {"samples": [dict(zip(names, rec)) for rec in records]}
        else:
            summary = {"h_drift": traj.h_drift, "j_drift": traj.j_drift,
                       "precession_per_orbit": precession}
            header, rows = names, records
    _emit(cfg, "orbit", header, rows, summary=summary, extra=extra)
    return EXIT_OK


def _cmd_l_limit(cfg: dict[str, Any]) -> int:
    finite_float("energy", cfg["energy"], positive=True)
    header = ["beta", "l", "phi_radial", "phi_one_dim", "gap", "error"]
    rows = []
    for beta in cfg["beta_grid"]:
        params = PhysicalParams(cfg["m"], cfg["e2"], beta)
        for row in l_limit_study(params, cfg["energy"], cfg["l_grid"]):
            rows.append([beta, row.l, row.phi_radial, row.phi_one_dim, row.gap,
                         row.error or ""])
    _emit(cfg, "l-limit", header, rows)
    return EXIT_CHECK_FAILED if any(row[-1] for row in rows) else EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify-integrals": _cmd_verify_integrals,
    "scan-order": _cmd_scan_order,
    "orbit": _cmd_orbit,
    "l-limit": _cmd_l_limit,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The parser, and per command its subparser and its actions by flag name."""
    parser = argparse.ArgumentParser(
        prog="snyder-coulomb",
        description="Semiclassical spectra and orbits of the Coulomb problem "
                    "in Snyder space.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name: str) -> Callable[..., None]:
        sub = subparsers.add_parser(name)
        actions: dict[str, argparse.Action] = {}
        commands[name] = (sub, actions)

        def add(flag: str, **kwargs: Any) -> None:
            actions[flag] = sub.add_argument(f"--{flag}", **kwargs)

        add("m", type=float, default=1.0, help="particle mass (natural units)")
        add("e2", type=float, default=1.0, help="Coulomb coupling e^2")
        add("format", default="csv", choices=("csv", "json"), metavar="FORMAT",
            help="output format: csv or json")
        add("out", default="-", help="output path, '-' for standard output")
        add("config", help="flat key = value config file")
        return add

    floats, ints = _list_of(float), _list_of(int)

    add = add_command("spectrum")
    add("beta", type=float, default=0.0, help="deformation parameter")
    add("n-prime-max", type=int, default=3, help="largest principal number n'")

    add = add_command("verify-integrals")
    add("beta-grid", type=floats, default=[0.0, 0.05, 0.1], metavar="LIST",
        help="comma list of betas")
    add("l-grid", type=ints, default=[0, 1, 2, 3], metavar="LIST",
        help="comma list of angular momenta")
    add("energies-per-cell", type=int, default=9,
        help="energies generated per (l, beta) cell")
    add("e-grid", type=floats, metavar="LIST",
        help="explicit energies (overrides generation)")

    add = add_command("scan-order")
    add("l-list", type=ints, default=[0, 1, 2], metavar="LIST",
        help="comma list of angular momenta")
    add("n", type=int, default=1, help="radial quantum number of the scanned level")
    add("beta-grid", type=floats, default=[10.0**e for e in _linspace(-4.0, -2.0, 7)],
        metavar="LIST", help="comma list of betas (>= 4 points over >= 1.5 decades)")

    add = add_command("orbit")
    add("beta", type=float, default=0.0, help="deformation parameter")
    add("x1", type=float, default=2.0, help="initial position x1")
    add("x2", type=float, default=0.0, help="initial position x2")
    add("p1", type=float, default=0.0, help="initial momentum p1")
    add("p2", type=float, default=0.5, help="initial momentum p2")
    add("t-end", type=float,
        help="integration time (default: 100 undeformed periods)")
    add("local-tol", type=float, default=1e-12,
        help="local error tolerance of the integrator")
    add("dump-samples", action="store_true",
        help="emit the orbit at the accepted integrator steps")

    add = add_command("l-limit")
    add("beta-grid", type=floats, default=[0.001, 0.01, 0.1], metavar="LIST",
        help="comma list of betas")
    add("energy", type=float, default=0.125, help="binding energy of the comparison")
    add("l-grid", type=floats, default=[0.1, 0.03, 0.01, 0.003, 0.001], metavar="LIST",
        help="comma list of small angular momenta")
    return parser, commands


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status.

    Invalid input (including a bad ``--config`` file) returns 2 and a
    failed check or per-row error returns 1.  Argparse usage errors, such
    as an unknown flag or a flag value it cannot convert, still raise
    ``SystemExit(2)``; ``--help`` and ``--version`` raise ``SystemExit(0)``.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args.config, *commands[args.command])
            args = parser.parse_args(argv)
        cfg = vars(args)
        return _COMMANDS[cfg.pop("command")](cfg)
    except ValueError as exc:
        print(f"{parser.prog}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SnyderCoulombError as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
