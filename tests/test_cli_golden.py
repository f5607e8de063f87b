"""Golden CLI runs: exact stdout (or ``--out`` file) bytes and exit status.

Each run calls ``main(argv)`` in-process and compares against
``tests/golden/cli.json``.  The two ``--dump-samples`` outputs (a few
hundred kB each) are stored as sha256 digests; everything else verbatim.
Argparse usage errors and ``--help`` exit through ``SystemExit``, whose
code is recorded as the exit status.  Stderr is not compared.

The goldens pin floats to their shortest round-trip ``repr``, so they
hold for the numpy/scipy build they were recorded with (Python 3.11,
numpy 2.4, scipy 1.17).  To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py

That first prints, for every run whose record moved, what
:func:`column_diff` finds: the change of exit status, each changed
non-numeric value (error strings, help lines), each value added or
removed, and the largest relative change per numeric column, over every
JSON value by key path and every CSV cell by position, or that only the
text moved; then it rewrites ``tests/golden/cli.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest

from snyder_coulomb.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
COLUMNS = "80"  # help text wraps at the terminal width

# Written into a scratch directory; ``{tmp}`` in argv names that directory.
CONFIGS = {
    "spectrum.conf": "# deformed spectrum\nbeta = 0.1\nn-prime-max = 2\n",
    "verify.conf": "beta-grid = 0.02, 0.2\nl-grid = 0,3\nenergies-per-cell = 3\n"
                   "format = json\n",
    "scan.conf": "n = 2\nl-list = 1\nbeta-grid = 1e-4,1e-3,1e-2,3e-2\n",
    "scan-tol.conf": "l-list = 1\ntol-quad = 1e-8\n",
    "spectrum-tol.conf": "beta = 0.05\ntol-root = 1e-10\n",
    "orbit.conf": "beta = 0.05\nt-end = 12\nlocal-tol = 1e-10\ndump-samples = false\n",
    "l-limit.conf": "\nbeta-grid = 0,0.2\nenergy = 0.1\nl-grid = 0.02\n",
    "unknown.conf": "betta = 0.1\n",
    "bad-int.conf": "n-prime-max = two\n",
    "no-equals.conf": "beta 0.1\n",
}

DUMP = ["orbit", "--t-end", "30", "--local-tol", "1e-10", "--dump-samples"]

RUNS = {
    # spectrum
    "spectrum-default-csv": ["spectrum"],
    "spectrum-default-json": ["spectrum", "--format", "json"],
    "spectrum-deformed-csv": ["spectrum", "--beta", "0.1", "--n-prime-max", "4",
                              "--m", "2", "--e2", "0.5"],
    "spectrum-deformed-json": ["spectrum", "--beta", "0.1", "--n-prime-max", "4",
                               "--m", "2", "--e2", "0.5", "--format", "json"],
    "spectrum-strong-csv": ["spectrum", "--beta", "0.9"],
    "spectrum-strong-json": ["spectrum", "--beta", "0.9", "--format", "json"],
    "spectrum-infeasible-csv": ["spectrum", "--beta", "3", "--n-prime-max", "2"],
    "spectrum-infeasible-json": ["spectrum", "--beta", "3", "--n-prime-max", "2",
                                 "--format", "json"],
    "spectrum-tolerances": ["spectrum", "--beta", "0.05", "--tol-quad", "1e-8",
                            "--tol-root", "1e-10"],
    "spectrum-n-prime-max-zero": ["spectrum", "--n-prime-max", "0"],
    "spectrum-tol-quad-zero": ["spectrum", "--tol-quad", "0"],
    "spectrum-negative-beta": ["spectrum", "--beta", "-1"],
    "spectrum-nan-beta": ["spectrum", "--beta", "nan"],
    "spectrum-bad-int-flag": ["spectrum", "--n-prime-max", "x"],
    "spectrum-out-file": ["spectrum", "--beta", "0.1", "--out", "{tmp}/table.csv"],
    # verify-integrals
    "verify-default-csv": ["verify-integrals"],
    "verify-default-json": ["verify-integrals", "--format", "json"],
    "verify-deformed-csv": ["verify-integrals", "--beta-grid", "0.02,0.3",
                            "--l-grid", "0,2,5", "--energies-per-cell", "5"],
    "verify-deformed-json": ["verify-integrals", "--beta-grid", "0.02,0.3",
                             "--l-grid", "0,2,5", "--energies-per-cell", "5",
                             "--format", "json"],
    "verify-e-grid": ["verify-integrals", "--beta-grid", "0,0.1", "--l-grid", "1,2",
                      "--e-grid", "0.01,0.05,0.125,0.9"],
    "verify-energies-per-cell-zero": ["verify-integrals", "--energies-per-cell", "0"],
    "verify-negative-l": ["verify-integrals", "--l-grid", "1,-1"],
    # scan-order
    "scan-default-csv": ["scan-order"],
    "scan-default-json": ["scan-order", "--format", "json"],
    "scan-deformed-csv": ["scan-order", "--n", "2", "--l-list", "0,3",
                          "--beta-grid", "1e-4,1e-3,1e-2,3e-2", "--m", "1.5"],
    "scan-deformed-json": ["scan-order", "--n", "2", "--l-list", "0,3",
                           "--beta-grid", "1e-4,1e-3,1e-2,3e-2", "--m", "1.5",
                           "--format", "json"],
    "scan-degenerate-fit": ["scan-order", "--l-list", "1",
                            "--beta-grid", "1e-8,3e-8,1e-7,1e-6"],
    "scan-n-zero": ["scan-order", "--n", "0"],
    "scan-single-beta": ["scan-order", "--beta-grid", "0.001"],
    "scan-zero-beta": ["scan-order", "--beta-grid", "0,1e-3,1e-2,1e-1"],
    "scan-narrow-grid": ["scan-order", "--beta-grid", "1e-3,2e-3,3e-3,4e-3"],
    "scan-negative-l": ["scan-order", "--l-list", "-1"],
    "scan-tol-root": ["scan-order", "--tol-root", "1e-10"],
    # orbit
    "orbit-short-csv": ["orbit", "--t-end", "20"],
    "orbit-short-json": ["orbit", "--t-end", "20", "--format", "json"],
    "orbit-deformed-csv": ["orbit", "--beta", "0.05", "--x1", "1.5", "--p2", "0.6",
                           "--t-end", "20", "--local-tol", "1e-11"],
    "orbit-deformed-json": ["orbit", "--beta", "0.05", "--x1", "1.5", "--p2", "0.6",
                            "--t-end", "20", "--local-tol", "1e-11", "--format", "json"],
    "orbit-dump-csv": DUMP,
    "orbit-dump-json": DUMP + ["--format", "json"],
    "orbit-retrograde": ["orbit", "--beta", "0.05", "--p2", "-0.5", "--t-end", "60"],
    "orbit-too-short": ["orbit", "--t-end", "3"],
    "orbit-collision": ["orbit", "--x1", "0.3", "--p2", "0", "--t-end", "1",
                        "--local-tol", "1e-10"],
    "orbit-unbound-default-t-end": ["orbit", "--p2", "1.5"],
    "orbit-t-end-zero": ["orbit", "--t-end", "0"],
    "orbit-local-tol-zero": ["orbit", "--t-end", "5", "--local-tol", "0"],
    "orbit-tiny-tol": ["orbit", "--t-end", "20", "--local-tol", "1e-300"],
    "orbit-origin": ["orbit", "--x1", "0", "--x2", "0", "--t-end", "5"],
    "orbit-nan-state": ["orbit", "--x1", "nan", "--t-end", "5"],
    "orbit-flag-value": ["orbit", "--dump-samples", "yes"],
    # l-limit
    "l-limit-default-csv": ["l-limit"],
    "l-limit-default-json": ["l-limit", "--format", "json"],
    "l-limit-deformed-csv": ["l-limit", "--beta-grid", "0.05,0.3", "--energy", "0.05",
                             "--l-grid", "0.5,0.05", "--m", "1.5"],
    "l-limit-deformed-json": ["l-limit", "--beta-grid", "0.05,0.3", "--energy", "0.05",
                              "--l-grid", "0.5,0.05", "--m", "1.5", "--format", "json"],
    "l-limit-in-row-errors-csv": ["l-limit", "--beta-grid", "0,1.5", "--energy", "0.6",
                                  "--l-grid", "1.0,0.001"],
    "l-limit-in-row-errors-json": ["l-limit", "--beta-grid", "0,1.5", "--energy", "0.6",
                                   "--l-grid", "1.0,0.001", "--format", "json"],
    "l-limit-energy-zero": ["l-limit", "--energy", "0"],
    "l-limit-zero-l": ["l-limit", "--l-grid", "0.1,0"],
    # config files
    "config-spectrum": ["spectrum", "--config", "{tmp}/spectrum.conf"],
    "config-spectrum-json": ["spectrum", "--config", "{tmp}/spectrum.conf",
                             "--format", "json"],
    "config-spectrum-flag-wins": ["spectrum", "--config", "{tmp}/spectrum.conf",
                                  "--n-prime-max", "1", "--beta", "0.2"],
    "config-verify": ["verify-integrals", "--config", "{tmp}/verify.conf"],
    "config-verify-flag-wins": ["verify-integrals", "--config", "{tmp}/verify.conf",
                                "--l-grid", "1", "--format", "csv"],
    "config-scan": ["scan-order", "--config", "{tmp}/scan.conf", "--format", "json"],
    "config-scan-tol-key": ["scan-order", "--config", "{tmp}/scan-tol.conf"],
    "config-spectrum-tol-key": ["spectrum", "--config", "{tmp}/spectrum-tol.conf"],
    "config-orbit": ["orbit", "--config", "{tmp}/orbit.conf", "--format", "json"],
    "config-orbit-flag-wins": ["orbit", "--config", "{tmp}/orbit.conf", "--beta", "0"],
    "config-l-limit": ["l-limit", "--config", "{tmp}/l-limit.conf"],
    "config-unknown-key": ["spectrum", "--config", "{tmp}/unknown.conf"],
    "config-bad-value": ["spectrum", "--config", "{tmp}/bad-int.conf"],
    "config-no-equals": ["spectrum", "--config", "{tmp}/no-equals.conf"],
    "config-missing-file": ["spectrum", "--config", "{tmp}/absent.conf"],
    # help
    "help-top": ["--help"],
    "help-spectrum": ["spectrum", "--help"],
    "help-verify": ["verify-integrals", "--help"],
    "help-scan": ["scan-order", "--help"],
    "help-orbit": ["orbit", "--help"],
    "help-l-limit": ["l-limit", "--help"],
}

HASHED = {"orbit-dump-csv", "orbit-dump-json"}


def _run(name: str, tmp: Path) -> dict:
    """Run one golden argv; return its exit status and output record."""
    for filename, text in CONFIGS.items():
        (tmp / filename).write_text(text, encoding="utf-8")
    argv = [arg.replace("{tmp}", str(tmp)) for arg in RUNS[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record: dict = {"exit": code}
    text = stdout.getvalue()
    if name in HASHED:
        record["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        record["stdout"] = text
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        record["out"] = out.read_text(encoding="utf-8") if out.exists() else None
    return record


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _leaves(value, path: str = ""):
    """(key path, value) of each leaf of parsed JSON, e.g. ``rows[3].E_closed``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _values(record: dict) -> dict[str, tuple[str, object]]:
    """Every value a run printed, as place -> (column, value).

    JSON output is read by key path (place ``rows[3].E_closed``, column
    ``rows.E_closed``), any other text by CSV cell position (place
    ``line 5 E_closed``, the column named by the header cell, else
    ``col 2``).  Numbers become floats; other values stay as printed.
    """
    values = {}
    for source in ("stdout", "out"):
        text = record.get(source) or ""
        prefix = "" if source == "stdout" else "out "
        if text.startswith("{"):
            for path, value in _leaves(json.loads(text)):
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                column = re.sub(r"\[\d+\]", "", path)
                values[prefix + path] = (prefix + column, float(value) if number else value)
            continue
        lines = list(csv.reader(text.splitlines()))
        header = lines[0] if lines and len(lines[0]) > 1 else []
        for index, cells in enumerate(lines, 1):
            for col, cell in enumerate(cells):
                column = header[col] if col < len(header) else f"col {col + 1}"
                number = _number(cell)
                values[f"{prefix}line {index} {column}"] = (
                    prefix + column, cell if number is None else number)
    return values


def column_diff(old: dict, new: dict) -> list[str]:
    """Lines describing how the record of one run moved from ``old`` to ``new``.

    The exit status, each changed non-numeric value, each value added or
    removed, and the largest relative change per numeric column; a record
    whose text moved but whose values did not gets one line saying so.
    """
    if old == new:
        return []
    lines = [f"exit {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    if old.get("sha256") != new.get("sha256"):
        return lines + ["hashed output changed (its values are not stored)"]
    before, after = _values(old), _values(new)
    moved, worst = [], {}
    for place in [*before, *(place for place in after if place not in before)]:
        if place not in after:
            moved.append(f"{place}: removed {before[place][1]!r}")
            continue
        if place not in before:
            moved.append(f"{place}: added {after[place][1]!r}")
            continue
        (column, a), (_, b) = before[place], after[place]
        if isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b):
            if a != b:
                change = abs(b - a) / abs(a) if a else math.inf
                worst[column] = max(worst.get(column, 0.0), change)
        elif a != b and not (a != a and b != b):  # NaN stays NaN
            moved.append(f"{place}: {a!r} -> {b!r}")
    moved += [f"{column}: max relative change {worst[column]:.3g}" for column in sorted(worst)]
    if not moved and any(old.get(key) != new.get(key) for key in ("stdout", "out")):
        moved = ["text changed, every value equal"]
    return lines + moved


def test_column_diff_names_what_moved():
    old = {"exit": 1, "stdout": "E,error\n0.5,\n0.25,bad\n"}
    new = {"exit": 0, "stdout": "E,error\n0.5000000001,\n0.25,worse\n"}
    assert column_diff(old, old) == []
    assert column_diff(old, new) == [
        "exit 1 -> 0", "line 3 error: 'bad' -> 'worse'", "E: max relative change 2e-10",
    ]
    rows = '{"meta": {"beta": 0.10000000000000001}, "rows": [{"E": 0.5, "ok": true}]}'
    moved = rows.replace("0.5", "0.75").replace("true", "false")
    assert column_diff({"exit": 0, "stdout": rows}, {"exit": 0, "stdout": moved}) == [
        "rows[0].ok: True -> False", "rows.E: max relative change 0.5",
    ]
    meta_only = rows.replace('"beta": 0.10000000000000001', '"beta": 0.2, "n": 3')
    assert column_diff({"exit": 0, "stdout": rows}, {"exit": 0, "stdout": meta_only}) == [
        "meta.n: added 3.0", "meta.beta: max relative change 1",
    ]
    spelling = rows.replace("0.10000000000000001", "0.1").replace("0.5", "0.50")
    assert column_diff({"exit": 0, "stdout": rows}, {"exit": 0, "stdout": spelling}) == [
        "text changed, every value equal",
    ]
    table = {"exit": 1, "stdout": "", "out": "E,gap\n0.10000000000000001,nan\n"}
    respelled = dict(table, out="E,gap\n0.1,nan\n")
    assert column_diff(table, respelled) == ["text changed, every value equal"]
    assert column_diff(table, dict(table, out="E,gap\n0.1,\n")) == ["out line 2 gap: nan -> ''"]
    assert column_diff({"exit": 0, "sha256": "a"}, {"exit": 0, "sha256": "b"}) == [
        "hashed output changed (its values are not stored)",
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


# the CLI prints this warning on stderr, which the goldens do not compare
@pytest.mark.filterwarnings("ignore:local_tol = .* is below 100 eps:UserWarning")
@pytest.mark.parametrize("name", list(RUNS))
def test_golden_run(name, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _run(name, tmp_path) == golden[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    records = {}
    for run_name in RUNS:
        with tempfile.TemporaryDirectory() as scratch:
            records[run_name] = _run(run_name, Path(scratch))
        old_record = recorded.get(run_name)
        changes = ["new run"] if old_record is None else column_diff(old_record, records[run_name])
        for change in changes:
            print(f"{run_name}: {change}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
