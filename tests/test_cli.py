"""Command-line interface: outputs, exit codes, determinism, config files."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snyder_coulomb import (
    OrbitState,
    PhysicalParams,
    QuantumNumbers,
    dynamics,
    energy_closed,
    integrate_orbit,
)
from snyder_coulomb import cli
from snyder_coulomb.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def dump_reference():
    """Library samples of the dump tests' orbit (the CLI defaults at beta = 0)."""
    traj = integrate_orbit(OrbitState(2.0, 0.0, 0.0, 0.5), PhysicalParams(1, 1, 0), 30.0,
                           local_tol=1e-10)
    return traj.samples.tolist()


class TestSpectrum:
    def test_newtonian_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--m", "1", "--e2", "1", "--beta", "0",
            "--n-prime-max", "2", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["n_prime", "l", "beta"]
        assert len(rows) == 3
        energies = [float(r["E_closed"]) for r in rows]
        assert energies == pytest.approx([0.5, 0.125, 0.125], rel=1e-10, abs=0)

    def test_deformed_level(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--beta", "0.1", "--n-prime-max", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = next(r for r in rows if r["n_prime"] == "2" and r["l"] == "1")
        assert float(row["E_closed"]) == pytest.approx(0.12438, abs=1e-5)
        assert float(row["E_series"]) == pytest.approx(0.1243750, rel=1e-12, abs=0)
        row10 = next(r for r in rows if r["n_prime"] == "1")
        assert float(row10["E_closed"]) == pytest.approx(0.4196011, abs=1e-6)

    def test_negative_beta_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--beta", "-1")
        assert code == 2
        assert "NegativeBeta" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--beta", "0", "--n-prime-max", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["tool"] == "snyder-coulomb"
        assert payload["meta"]["command"] == "spectrum"
        assert payload["meta"]["n-prime-max"] == 1
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["E_closed"] == pytest.approx(0.5, rel=1e-10, abs=0)

    def test_infeasible_levels_flagged_in_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--beta", "3", "--n-prime-max", "1",
        )
        assert code == 1
        _, rows = parse_csv(out)
        assert "NoRootInWindow" in rows[0]["error"]


    def test_underflowing_beta_matches_the_undeformed_table(self, capsys):
        # 2 beta^2 m underflows to 0: every column but beta is the beta = 0 one
        code, out, _ = run_cli(capsys, "spectrum", "--beta", "1e-200")
        assert code == 0
        _, rows = parse_csv(out)
        _, undeformed = run_cli(capsys, "spectrum", "--beta", "0")[:2]
        _, reference = parse_csv(undeformed)
        assert {float(r["beta"]) for r in rows} == {1e-200}
        for row in rows + reference:
            del row["beta"]
        assert rows == reference

    @pytest.mark.parametrize("command", [
        ["verify-integrals", "--beta-grid", "1e-200"],
        ["l-limit", "--beta-grid", "1e-200"],
    ])
    def test_underflowing_beta_exits_zero(self, capsys, command):
        assert run_cli(capsys, *command)[0] == 0


class TestScale:
    """Inputs whose m e2^2, beta m e2 or products of them leave the float range."""

    @pytest.mark.parametrize("argv,code,error", [
        (["spectrum", "--beta", "1e308"], 1, "NoRootInWindow: level infeasible"),
        (["spectrum", "--e2", "1e200"], 2, "ScaleOutOfRange: the energy unit m e2^2"),
        (["spectrum", "--m", "1e300", "--n-prime-max", "2"], 0, None),
        (["l-limit", "--beta-grid", "1e300"], 1,
         "OutOfWindow: E=0.125 outside the window (0, 0.0)"),
        # the fit reads E(beta)/E(0), free of m e2^2: b = 1e156 is what fails
        (["scan-order", "--e2", "1e160"], 1, "NoRootInWindow: QuantumNumbers(n=1, l=0): beta m e2"),
        (["verify-integrals", "--m", "1e150"], 1, "ToleranceNotReached: trapezoid rule takes"),
        (["verify-integrals", "--e2", "1e200"], 2, "ScaleOutOfRange: the energy unit m e2^2"),
        (["verify-integrals", "--m", "1e-300"], 0, None),
        (["l-limit", "--m", "1e304", "--beta-grid", "1e-152", "--l-grid", "0.001"], 0, None),
        # 2 l^2 underflows to 0: the circular bound is inf and the tail l + 2b/W
        (["l-limit", "--l-grid", "1e-200"], 0, None),
        (["l-limit", "--l-grid", "1e-170"], 0, None),
        # m e2^2 window_top(b, 0) overflows, but the generated energies stop at m e2^2
        (["verify-integrals", "--m=1e300", "--beta-grid=1e-310", "--l-grid=0"], 0, None),
        # an e-grid entry is reduced: a subnormal reduced energy, and a 2E that overflows
        (["verify-integrals", "--e-grid=-1e-320,0.1", "--l-grid=0"], 2,
         "ScaleOutOfRange: -1e-320 converted"),
        (["verify-integrals", "--beta-grid=0", "--l-grid=0", "--e-grid=1.7976931348623157e+308"],
         2, "ScaleOutOfRange: 1.7976931348623157e+308 converted"),
        (["l-limit", "--energy=1.7e308", "--beta-grid=0", "--l-grid=1e-170"], 2,
         "ScaleOutOfRange: 1.7e+308 converted"),
        # a line row far up the float range: the rule holds while 2E is finite
        (["verify-integrals", "--beta-grid=0", "--l-grid=0", "--e-grid=1e230"], 0, None),
    ])
    def test_each_run_ends_in_a_typed_outcome(self, capsys, argv, code, error):
        # each of these ended in a traceback or a NaN while m, e2 and beta
        # entered the formulas; now no cell is NaN outside an error row
        got, out, err = run_cli(capsys, *argv)
        assert got == code, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all("nan" not in row.values() for row in rows if not row.get("error"))
        if error:
            assert error in err or any(error in row.get("error", "") for row in rows), err

    def test_subnormal_levels_are_solved(self, capsys):
        # m e2^2 = 1e-310: each level is a subnormal, solved in reduced units
        code, out, _ = run_cli(capsys, "spectrum", "--m", "1e-300", "--e2", "1e-5",
                               "--n-prime-max", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["E_closed"]) for r in rows] == [5e-311, 1.25e-311, 1.25e-311]
        assert all(0 < float(r["E_numeric"]) < sys.float_info.min for r in rows)


class TestVerifyIntegrals:
    def test_default_grid_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-integrals", "--beta-grid", "0,0.05,0.1",
            "--l-grid", "0,1,2", "--energies-per-cell", "4",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert max(float(r["rel_dev"]) for r in rows) <= 1e-8
        assert "pass=true" in err

    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-integrals", "--beta-grid", "0", "--l-grid", "1",
            "--e-grid", "0.125",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["phi_closed"]) == pytest.approx(2 * math.pi, rel=1e-12, abs=0)
        assert float(rows[0]["rel_dev"]) <= 1e-10

    def test_cell_energies_are_numpys_linspace(self, capsys):
        # bit for bit, and one energy per cell is the start point, as in numpy
        for count in range(1, 65):
            assert ([x.hex() for x in cli._linspace(0.05, 0.95, count)]
                    == [x.hex() for x in np.linspace(0.05, 0.95, count).tolist()])
        code, out, _ = run_cli(capsys, "verify-integrals", "--beta-grid", "0",
                               "--l-grid", "0", "--energies-per-cell", "1")
        assert code == 0
        assert [float(r["E"]) for r in parse_csv(out)[1]] == [0.05]

    def test_out_of_window_points_skipped(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-integrals", "--beta-grid", "0", "--l-grid", "1",
            "--e-grid", "0.125,0.9",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert "skipped=1" in err

    def test_l_past_the_int64_square(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-integrals", "--l-grid", "4000000000", "--beta-grid", "0",
            "--energies-per-cell", "2",
        )
        assert code == 0 and "checked=2 skipped=0 " in err, err
        assert all(float(r["rel_dev"]) <= 1e-13 for r in parse_csv(out)[1])

    @pytest.mark.parametrize("argv", [
        # one ulp below m e2^2 window_top(b, l), which admit reads as the top:
        # the circular bound, outside the open window
        ["--m=2.8954790309179606", "--e2=0.001199131965262454", "--beta-grid=0.0",
         "--l-grid=3", "--e-grid=2.3130332682812525e-07"],
        # ... and past the top, which the product m e2^2 top had put above it
        ["--m=30.82682849818549", "--e2=315.99942130080893", "--beta-grid=0.03562555579013346",
         "--l-grid=3", "--e-grid=12.779617670299997"],
        # inside the window, where the closed form rounds to 0, which rel_dev divides by
        ["--beta-grid=0", "--l-grid=1", "--e-grid=0.49999999999999994"],
        # ... and one ulp below the circular bound at b = 2, l = 5: it rounds to 0, not below
        ["--beta-grid=2", "--l-grid=5", "--e-grid=0.019999999999999997"],
    ])
    def test_admit_decides_the_window_edge(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify-integrals", *argv)
        assert code == 1 and "checked=0 skipped=1 " in err, err
        assert parse_csv(out)[1] == []

    @pytest.mark.parametrize("entries", ["nan,0.05", "inf", "-inf"])
    def test_non_finite_e_grid_entry_is_config_error(self, capsys, entries):
        code, out, err = run_cli(
            capsys, "verify-integrals", "--beta-grid", "0", "--l-grid", "1",
            f"--e-grid={entries}",
        )
        assert (code, out) == (2, "")
        assert "NonFinite: e-grid entry must be finite" in err

    def test_l_past_the_float_range_is_config_error(self, capsys):
        # 2.0 * l * l overflowed in window_top, in a traceback
        code, out, err = run_cli(
            capsys, "verify-integrals", "--beta-grid", "0.01", "--l-grid", str(10**400),
            "--e-grid", "0.1",
        )
        assert (code, out) == (2, "")
        assert err == ("snyder-coulomb: error: ValueError: l must be < inf, an int within "
                       "the float range\n")


class TestScanOrder:
    def test_slopes_and_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan-order", "--l-list", "0,1,2",
            "--beta-grid", "0.0001,0.000316,0.001,0.00316,0.01",
        )
        assert code == 0
        _, rows = parse_csv(out)
        slopes = {r["l"]: float(r["slope"]) for r in rows}
        assert slopes["0"] == pytest.approx(1.0, abs=0.02)
        assert slopes["1"] == pytest.approx(2.0, abs=0.02)
        assert slopes["2"] == pytest.approx(2.0, abs=0.02)

    def test_default_beta_grid_is_numpys_logspace(self):
        _, commands = cli._build_parser()
        default = commands["scan-order"][1]["beta-grid"].default
        assert [x.hex() for x in default] == [x.hex() for x in np.logspace(-4, -2, 7).tolist()]

    def test_single_beta_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "scan-order", "--beta-grid", "0.001")
        assert code == 2
        assert "at least 4" in err

    def test_repeated_betas_are_config_error(self, capsys):
        code, out, err = run_cli(capsys, "scan-order", "--beta-grid", "1e-4,1e-4,1e-4,1e-2")
        assert (code, out, err) == (
            2, "", "snyder-coulomb: error: ValueError: beta_grid needs at least 4 distinct betas\n")

    def test_empty_l_list_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scan-order", "--l-list", ","])
        assert exc.value.code == 2
        config = tmp_path / "run.conf"
        config.write_text("l-list = ,\n")
        code, out, err = run_cli(capsys, "scan-order", "--config", str(config))
        assert (code, out) == (2, "")
        assert "empty list" in err

    @pytest.mark.parametrize("n", [2**53 + 1, 10**154])
    def test_huge_n_is_config_error(self, capsys, n):
        # 10**154 overflowed the float conversion of 4 n (n + l) b^2 in a traceback
        code, out, err = run_cli(capsys, "scan-order", "--n", str(n), "--l-list", "1")
        assert (code, out) == (2, "")
        assert err == ("snyder-coulomb: error: ValueError: n must be <= 2**53, up to which "
                       "every integer is a float\n")

    def test_l_zero_only_reports_residual(self, capsys):
        code, out, _ = run_cli(capsys, "scan-order", "--l-list", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["slope"]) == pytest.approx(1.0, abs=0.02)
        assert float(rows[0]["rms_residual"]) >= 0.0


class TestOrbit:
    def test_short_kepler_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--beta", "0", "--t-end", "60", "--local-tol", "1e-12",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["h_drift"]) <= 1e-9
        assert float(row["j_drift"]) <= 1e-9
        assert abs(float(row["precession_per_orbit"])) <= 1e-6

    def test_deformed_precession_nonzero(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--beta", "0.05", "--t-end", "60",
            "--local-tol", "1e-11",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["precession_per_orbit"])) > 1e-4

    def test_unbound_state_without_t_end_is_config_error(self, capsys):
        # the default span is in undeformed periods, which an unbound state lacks
        code, out, err = run_cli(capsys, "orbit", "--p2", "1.5")
        assert (code, out) == (2, "")
        assert "unbound" in err

    def test_default_span_is_100_undeformed_periods(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--x1", "0.5", "--p2", "1.2",
                               "--local-tol", "1e-8")
        assert code == 0
        _, rows = parse_csv(out)
        # H = 1.2^2/2 - 1/0.5 = -1.28, so a = 1/2.56 and T = 2 pi a^1.5 at m = e2 = 1
        period = 2.0 * math.pi * (1.0 / 2.56) ** 1.5
        assert float(rows[0]["t_end"]) == pytest.approx(100.0 * period, rel=1e-14, abs=0)

    def test_zero_t_end_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "--t-end", "0")
        assert code == 2
        assert "t_end" in err

    @staticmethod
    def run_child(*argv):
        # in a child process under a timeout, so that a hang fails the test
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        return subprocess.run([sys.executable, "-m", "snyder_coulomb", "orbit", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("argv", [["--t-end", "inf"], ["--local-tol", "inf", "--t-end", "20"]])
    def test_infinite_span_or_tolerance_is_config_error(self, argv):
        proc = self.run_child(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "must be finite and > 0" in proc.stderr

    def test_start_inside_collision_floor_is_check_failure(self):
        # r^2 underflows to 0 here, which the flow divides by
        proc = self.run_child("--x1", "1e-200", "--p2", "1", "--t-end", "1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("orbit: collision singularity, last good t = 0.0: ")
        assert "Traceback" not in proc.stderr

    def test_default_span_underflow_reports_the_collision(self):
        # 100 undeformed periods underflow to t_end = 0 at r = 1e-200: the
        # start state, not the span the user never gave, is at fault
        proc = self.run_child("--x1", "1e-200", "--p2", "1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("orbit: collision singularity, last good t = 0.0: ")
        assert "Traceback" not in proc.stderr

    def test_collision_reports_last_good_time(self, capsys):
        code, _, err = run_cli(
            capsys, "orbit", "--x1", "0.3", "--x2", "0", "--p1", "0", "--p2", "0",
            "--t-end", "1", "--local-tol", "1e-10",
        )
        assert code == 1
        assert "collision" in err
        assert "last good t" in err

    def test_run_past_the_step_bound_is_check_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        code, out, err = run_cli(capsys, "orbit", "--t-end", "20")
        assert (code, out) == (1, "")
        assert err.startswith("snyder-coulomb: StepUnderflow: the clock reached only t = ")
        assert err.endswith(" of t_end = 20.0 within 20 steps\n")

    def test_overflowing_orbit_is_check_failure(self, capsys):
        # the end event's dense output overflows to NaN: the run stops short
        # of t_end, at the last finite state, rather than blaming the input
        code, out, err = run_cli(
            capsys, "orbit", "--m=9.863599816861002e+245", "--e2=1.464070251804427e-181",
            "--beta=5.6496636691367725e-81", "--x1=1", "--p2=0.5",
            "--t-end=5.355572785845128e+241",
        )
        assert (code, out) == (1, "")
        assert err == ("snyder-coulomb: StepUnderflow: the orbit stopped short of t_end = "
                       "5.355572785845128e+241: its state overflowed after "
                       "t = 5.325835556129641e+232\n")

    def test_dump_samples_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "orbit", "--beta", "0", "--t-end", "30",
            "--local-tol", "1e-10", "--dump-samples", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "samples" in payload
        dumped = [tuple(sample.values()) for sample in payload["samples"]]
        assert dumped == dump_reference()

    def test_dump_samples_csv_moves_summary_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "orbit", "--beta", "0", "--t-end", "30",
            "--local-tol", "1e-10", "--dump-samples",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "x1", "x2", "p1", "p2"]
        assert [tuple(float(v) for v in row.values()) for row in rows] == dump_reference()
        assert "h_drift=" in err


class TestLLimit:
    def test_gap_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "l-limit", "--beta-grid", "0,0.1", "--l-grid", "0.01,0.001",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        # at beta = 0 the raw gap is exactly -2 pi l
        newtonian = [r for r in rows if float(r["beta"]) == 0.0]
        for row in newtonian:
            assert float(row["gap"]) == pytest.approx(
                -2 * math.pi * float(row["l"]), rel=1e-9, abs=0
            )

    def test_nan_l_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "l-limit", "--l-grid", "nan")
        assert (code, out) == (2, "")
        assert "l must be > 0" in err

    def test_nan_energy_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "l-limit", "--energy", "nan")
        assert (code, out) == (2, "")
        assert "energy must be finite and > 0" in err

    @pytest.mark.parametrize("energy", ["inf", "-inf", "0"])
    def test_infinite_or_zero_energy_is_config_error(self, capsys, energy):
        code, out, err = run_cli(capsys, "l-limit", f"--energy={energy}")
        assert (code, out) == (2, "")
        assert "energy must be finite and > 0" in err

    def test_out_of_window_rows_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "l-limit", "--beta-grid", "0", "--energy", "0.6",
            "--l-grid", "1.0,0.001",
        )
        assert code == 1
        _, rows = parse_csv(out)
        flagged = [r for r in rows if r["error"]]
        assert len(flagged) == 1  # l = 0.001 keeps E = 0.6 inside its window

    def test_circular_bound_row_is_out_of_window(self, capsys):
        # E = 1/(2 l^2) at l = 2: the circular orbit, Phi = 0, is no level
        code, out, _ = run_cli(
            capsys, "l-limit", "--energy", "0.125", "--l-grid", "2", "--beta-grid", "0",
        )
        assert code == 1
        (row,) = csv.DictReader(io.StringIO(out))  # the quoted error holds a comma
        assert row["phi_radial"] == row["gap"] == "nan"
        assert row["error"] == "OutOfWindow: E=0.125 outside the window (0, 0.125) at l=2.0"


class TestInfrastructure:
    def test_byte_identical_reruns(self, capsys):
        argv = ["spectrum", "--beta", "0.1", "--n-prime-max", "2", "--format", "json"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--beta", "0", "--n-prime-max", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        content = out_path.read_text()
        assert content.startswith("n_prime,")

    @pytest.mark.parametrize("where", ["", "missing/table.csv"], ids=["directory", "missing-dir"])
    def test_unwritable_output_file_is_config_error(self, capsys, tmp_path, where):
        # IsADirectoryError and FileNotFoundError: one error line, no traceback, no file
        out_path = tmp_path / where
        code, out, err = run_cli(capsys, "spectrum", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("snyder-coulomb: error: ") and err.count("\n") == 1
        assert str(out_path) in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_is_config_error(self, capsys, monkeypatch):
        # a reader that closed its pipe: the write raises BrokenPipeError, an OSError
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["l-limit"])
        assert (code, capsys.readouterr().err) == (
            2, "snyder-coulomb: error: BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_config_that_is_a_directory_is_config_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "spectrum", "--config", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("snyder-coulomb: error: IsADirectoryError: ")
        assert str(tmp_path) in err and err.count("\n") == 1

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# comment\nbeta = 0.1\nn-prime-max = 2\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert float(rows[0]["beta"]) == pytest.approx(0.1)
        # explicit flag beats the config file
        code, out, _ = run_cli(
            capsys, "spectrum", "--config", str(config), "--n-prime-max", "1",
        )
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("betta = 0.1\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert code == 2
        assert "betta" in err

    def test_boolean_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("t-end = 30\nlocal-tol = 1e-10\ndump-samples = yes\n")
        code, out, _ = run_cli(capsys, "orbit", "--beta", "0", "--config", str(config))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "x1", "x2", "p1", "p2"]
        assert [tuple(float(v) for v in row.values()) for row in rows] == dump_reference()

    def test_non_boolean_config_value(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# orbit\ndump-samples = maybe\n")
        code, out, err = run_cli(capsys, "orbit", "--config", str(config))
        assert (code, out) == (2, "")
        assert f"{config}:2: config key dump-samples: not a boolean: 'maybe'" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--tol-quad", "1e-8"],
        ["spectrum", "--tol-root", "1e-10"],
        ["verify-integrals", "--tol-quad", "1e-8"],
    ])
    def test_tolerance_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-" in capsys.readouterr().err

    def test_unknown_format_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--format", "xml"])
        assert exc.value.code == 2
        config = tmp_path / "run.conf"
        config.write_text("format = xml\n")
        code, out, err = run_cli(capsys, "spectrum", "--config", str(config))
        assert (code, out) == (2, "")
        assert "format" in err

    def test_printed_floats_round_trip_exactly(self, capsys):
        params = PhysicalParams(1.0, 1.0, 0.1)
        argv = ["spectrum", "--beta", "0.1"]
        _, rows = parse_csv(run_cli(capsys, *argv)[1])
        payload = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        assert len(rows) == len(payload["rows"]) == 6
        for row, record in zip(rows, payload["rows"]):
            n_prime, l = record["n_prime"], record["l"]
            exact = energy_closed(params, QuantumNumbers(n_prime - l, l))
            assert row["E_closed"] == repr(exact)  # shortest round-trip spelling
            assert float(row["E_closed"]) == record["E_closed"] == exact

    def test_non_finite_cells_print_as_nan_and_null(self, capsys):
        argv = ["spectrum", "--beta", "3", "--n-prime-max", "2"]
        _, rows = parse_csv(run_cli(capsys, *argv)[1])
        text = run_cli(capsys, *argv, "--format", "json")[1]
        records = json.loads(text)["rows"]
        failed = [k for k, record in enumerate(records) if record["error"]]
        assert failed == [0, 2]  # n' = 1 and n' = 2, l = 1 are infeasible at beta = 3
        columns = ["E_closed", "E_numeric", "rel_gap_closed_numeric"]
        for k in failed:
            assert [rows[k][c] for c in columns] == ["nan"] * 3
            assert [records[k][c] for c in columns] == [None] * 3
        assert "NaN" not in text
