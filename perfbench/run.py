"""Benchmark of the snyder_coulomb package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout.  Workloads (see workloads.py for why each exists):
``spectrum``, ``order-scan``, ``orbit`` and ``cli``.

Each run starts ``SETUP_PROBES`` fresh interpreters that only set up, then
one that sets up and measures; ``setup_s`` is the median of their times
from process start to ready.  Times are scaled to a reference machine
speed (see the calibrations in workloads.py); the report also prints them
unscaled, as ``wall_*``.  BLAS/OpenMP threads are pinned to 1 and no
worker pools are used.  With ``--trace 0`` the result carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of BENCHMARK.json.
A human-readable report goes first, with ``failed_frac`` (failed over
attempted operations; it is 0 on a good run, so it carries no relative bound
and stays out of the result line, which has ``failed`` and ``attempted``).
The last line of standard output is the result as one JSON object.  The
exit status is 1 when any operation failed its check, 2 when the run could
not be made.  A record of the run is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (OUT, PROCESS_CALIBRATION_S, ROOT, SRC, WORKLOADS, child_env,
                       process_calibration)

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile of ``times`` and the samples beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(result: dict, setup_s: float, tail_pct: float) -> tuple[dict, dict]:
    """End-to-end metrics (times at reference speed) and the notes beside them."""
    times, wall = result["times"], result["wall_times"]
    tail_s, beyond = tail(times, tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {"op_tail_percentile": tail_pct, "op_samples": len(times),
             "op_tail_samples_beyond": beyond,
             "wall_ops_per_s": len(wall) / sum(wall),
             "wall_op_p50_ms": 1e3 * statistics.median(wall),
             "wall_op_tail_ms": 1e3 * tail(wall, tail_pct)[0]}
    return metrics, notes


PER_LAYER_UNITS = {
    "import.total_ms": "ms",
    "import.scipy_loaded": "count",
    "analytic.phase_closed.calls": "count",
    "analytic.phase_closed.self_us": "us",
    "analytic.turning_points.calls": "count",
    "numerics.solve_closed.phi_per_solve": "count",
    "numerics.solve_closed.self_ms": "ms",
    "numerics.solve_numeric.phi_per_solve": "count",
    "numerics.solve_numeric.self_ms": "ms",
    "numerics.quad.calls": "count",
    "numerics.quad.neval_per_call": "count",
    "numerics.quad.ms_per_op": "ms",
    "numerics.quad.integrand_share": "ratio",
    "numerics.fit.self_us": "us",
    "dynamics.solve_ivp.ms_per_op": "ms",
    "dynamics.solve_ivp.nfev_per_op": "count",
    "dynamics.rhs.us_per_eval": "us",
    "dynamics.integrate_orbit.self_ms": "ms",
    "dynamics.invariants.calls": "count",
    "dynamics.samples_per_op": "count",
    "dynamics.precession.ms_per_op": "ms",
    "cli.main_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def per_layer(result: dict, probes: list[dict]) -> dict:
    layers = dict(result["layers"])
    layers["import.total_ms"] = 1e3 * statistics.median(p["import_s"] for p in probes)
    layers["import.scipy_loaded"] = float(max(p["scipy_loaded"] for p in probes))
    return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _run_child(args: list[str]) -> tuple[float, dict, dict | None]:
    """Start a worker; return (seconds to ready, ready payload, result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = result = None
        for line in proc.stdout:
            if line.startswith("READY "):
                setup_s = time.perf_counter() - t0
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if status != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(args)} exited with status {status}")
    return setup_s, ready, result


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "snyder_coulomb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"seed": seed, "commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "snyder_coulomb" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = _provenance(args.seed)
    env["load1_before"] = os.getloadavg()[0]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        walls, setups, probes = [], [], []
        for k in range(SETUP_PROBES + 1):
            measure = k == SETUP_PROBES
            before = process_calibration()
            wall_s, ready, result = _run_child(
                common + (["--seconds", str(args.seconds), "--trace", str(args.trace)]
                          if measure else ["--setup-only"]))
            # A probe is bracketed by two calibrations; the measuring worker,
            # which keeps running, only by the one before it.
            after = before if measure else process_calibration()
            walls.append(wall_s)
            setups.append(wall_s * PROCESS_CALIBRATION_S / ((before + after) / 2))
            probes.append(ready)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    env["load1_after"] = os.getloadavg()[0]
    env["load_exceeded_nproc"] = max(env["load1_before"], env["load1_after"]) > env["nproc"]
    env.update({k: ready[k] for k in ("python", "numpy", "scipy")})

    attempted = result["attempted"]
    ok = len(result["times"]) + result.get("traced_ok", 0)
    failed = attempted - ok
    if not result["times"]:
        print("run.py: no operation passed its check:", *result["failures"], sep="\n  ",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(result, probes)
        notes = {"absent": result["absent"], "missing_names": result["missing"],
                 "spans": result["spans"]}
    else:
        metrics, notes = end_to_end(result, statistics.median(setups),
                                    WORKLOADS[args.workload].tail_pct)
        if notes["op_tail_samples_beyond"] < TAIL_BEYOND:
            print(f"  WARNING: fewer than {TAIL_BEYOND} samples beyond the tail percentile",
                  file=sys.stderr)
    notes["setup_samples_s"] = setups
    notes["wall_setup_samples_s"] = walls

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    report_only = {"failed_frac": (failed / attempted, "ratio")}
    for name, (value, unit) in {**metrics, **report_only}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for key, value in notes.items():
        print(f"  note {key}: {value}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    if env["load_exceeded_nproc"]:
        print("  WARNING: 1-minute load exceeded nproc during this run", file=sys.stderr)

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    record = dict(line, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env, notes=notes, failures=result["failures"])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
