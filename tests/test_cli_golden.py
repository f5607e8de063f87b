"""Golden CLI runs: exact stdout (or ``--out`` file) bytes and exit status.

Each run calls ``main(argv)`` in-process and compares against
``tests/golden/cli.json``.  The two ``--dump-samples`` outputs (a few
hundred kB each) are stored as sha256 digests; everything else verbatim.
Argparse usage errors and ``--help`` exit through ``SystemExit``, whose
code is recorded as the exit status.  Stderr is not compared.

The goldens pin floats to 17 significant digits, so they hold for the
numpy/scipy build they were recorded with (Python 3.11, numpy 2.4,
scipy 1.17).  To re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py

That first prints, for every run whose record moved, the change of exit
status, each changed non-numeric cell (error strings) and the largest
relative change per numeric column, then rewrites ``tests/golden/cli.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
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


def _rows(record: dict) -> list[dict] | None:
    """The table a run printed (``--out`` file first), or None if it printed none."""
    text = record.get("out") or record.get("stdout") or ""
    if text.startswith("{"):
        return json.loads(text).get("rows")
    lines = text.splitlines()
    return list(csv.DictReader(lines)) if lines and "," in lines[0] else None


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def column_diff(old: dict, new: dict) -> list[str]:
    """Lines describing how the record of one run moved from ``old`` to ``new``."""
    if old == new:
        return []
    lines = [f"exit {old['exit']} -> {new['exit']}"] if old["exit"] != new["exit"] else []
    old_rows, new_rows = _rows(old), _rows(new)
    if old_rows is None or new_rows is None or len(old_rows) != len(new_rows):
        return lines + ["output changed (not a table of the same length)"]
    worst: dict[str, float] = {}
    for index, (before, after) in enumerate(zip(old_rows, new_rows)):
        for column in sorted(set(before) | set(after)):
            a, b = before.get(column), after.get(column)
            x, y = _number(a), _number(b)
            if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
                if a != b:
                    lines.append(f"row {index} {column}: {a!r} -> {b!r}")
            elif x != y and not (math.isnan(x) and math.isnan(y)):
                change = abs(y - x) / abs(x) if x else math.inf
                worst[column] = max(worst.get(column, 0.0), change)
    lines += [f"{column}: max relative change {worst[column]:.3g}" for column in sorted(worst)]
    return lines or ["output changed outside the table"]


def test_column_diff_names_what_moved():
    old = {"exit": 1, "stdout": "E,error\n0.5,\n0.25,bad\n"}
    new = {"exit": 0, "stdout": "E,error\n0.5000000001,\n0.25,worse\n"}
    assert column_diff(old, old) == []
    assert column_diff(old, new) == [
        "exit 1 -> 0", "row 1 error: 'bad' -> 'worse'", "E: max relative change 2e-10",
    ]
    rows = '{"meta": {}, "rows": [{"E": 0.5, "ok": true}]}'
    moved = rows.replace("0.5", "0.75").replace("true", "false")
    assert column_diff({"exit": 0, "stdout": rows}, {"exit": 0, "stdout": moved}) == [
        "row 0 ok: True -> False", "E: max relative change 0.5",
    ]
    assert column_diff({"exit": 0, "sha256": "a"}, {"exit": 0, "sha256": "b"}) == [
        "output changed (not a table of the same length)",
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


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
