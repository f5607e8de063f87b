"""One fresh interpreter: set up, signal ready, run the timed closed loop.

Started by ``run.py``.  Set-up is importing the package from the checkout,
generating the seeded inputs and the untimed warm-up; the worker then
prints ``READY <json>``.  With ``--setup-only`` it stops there.  Otherwise
it runs the closed loop for ``--seconds`` and prints one result line
``RESULT <json>``.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced, so both rates come from one process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import OUT, SRC, WORKLOADS

# A traced phase stops early once it holds this many spans (memory bound).
MAX_SPANS = 300_000
FAILURES_KEPT = 5
CALIBRATION_INTERVAL_S = 0.1


def run_loop(workload, inputs, seconds, tracer=None, op=None):
    """Closed loop over ``inputs`` until ``seconds`` of loop time have passed.

    Returns, for the operations that completed and passed their check, the
    times scaled to the reference speed and the wall times, then the
    attempted count and the first failure reasons.  The workload's
    calibration runs between operations, at most every
    CALIBRATION_INTERVAL_S, and once more at the end; an operation is scaled
    by the mean of the two readings around it.
    """
    op = op or workload.op
    wall, marks, readings, failures, attempted = [], [], [], [], 0
    t_start = time.perf_counter()
    calibrated_at = -CALIBRATION_INTERVAL_S
    while True:
        if time.perf_counter() - calibrated_at >= CALIBRATION_INTERVAL_S:
            readings.append(workload.calibrate())
            calibrated_at = time.perf_counter()
        inp = inputs[attempted % len(inputs)]
        attempted += 1
        root = tracer.open("op") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = op(inp)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(root)
        if error is None:
            try:
                error = workload.check(inp, out)
            except Exception as exc:  # so does a result the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            wall.append(t1 - t0)
            marks.append(len(readings) - 1)
        elif len(failures) < FAILURES_KEPT:
            failures.append(f"op {attempted - 1} {inp}: {error}")
        if t1 - t_start >= seconds or (tracer is not None and len(tracer) >= MAX_SPANS):
            break
    readings.append(workload.calibrate())
    scaled = [t * 2.0 * workload.calibration_s / (readings[k] + readings[k + 1])
              for t, k in zip(wall, marks)]
    return scaled, wall, attempted, failures


def _cli_traced_op(workload, tracer):
    """Traced cli operation: the same process, started through tracing.py."""
    shim = str(SRC.parent / "perfbench" / "tracing.py")
    spans = OUT / "cli-spans.json"

    def op(inp):
        spans.unlink(missing_ok=True)
        out = workload.op(inp, [sys.executable, shim, str(spans)])
        tracer.merge(json.loads(spans.read_text()))
        return out

    return op


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    t_import = time.perf_counter()
    import snyder_coulomb

    import_s = time.perf_counter() - t_import
    scipy_loaded = "scipy" in sys.modules
    if SRC not in Path(snyder_coulomb.__file__).resolve().parents:
        print(f"snyder_coulomb imported from {snyder_coulomb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    workload = WORKLOADS[args.workload]()
    inputs = workload.generate(args.seed)
    warm = workload.prepare(inputs)
    if warm is not None:
        print(f"warm-up operation failed its check: {warm}", file=sys.stderr)
        return 1
    ready = {"import_s": import_s, "scipy_loaded": scipy_loaded,
             "python": sys.version.split()[0], "numpy": numpy.__version__,
             "scipy": scipy.__version__}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    times, wall, attempted, failures = run_loop(workload, inputs, seconds)
    result = {"times": times, "wall_times": wall, "attempted": attempted, "failures": failures}
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        missing = tracer.install(snyder_coulomb)
        traced_op = _cli_traced_op(workload, tracer) if workload.name == "cli" else None
        try:
            t_times, _, t_attempted, t_failures = run_loop(
                workload, inputs, seconds, tracer, traced_op)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        rate = len(times) / sum(times) if times else 0.0
        t_rate = len(t_times) / sum(t_times) if t_times else 0.0
        layers["trace.overhead_frac"] = rate / t_rate - 1.0 if t_rate else 0.0
        with open(OUT / f"spans-{workload.name}-seed{args.seed}.json", "w") as handle:
            json.dump(tracer.to_json(), handle)
        result.update(attempted=attempted + t_attempted, failures=failures + t_failures,
                      traced_ok=len(t_times), layers=layers, missing=missing,
                      absent=[name for name, value in layers.items() if value == 0],
                      spans=len(tracer))
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
