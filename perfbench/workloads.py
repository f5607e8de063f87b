"""Seeded inputs, the operation and the correctness check of each workload.

Every workload is a closed loop run by one single-threaded client: the next
operation starts only after the previous one has completed.  Inputs are a
pool made from the seed before any timing and cycled in order.  Continuous
parameters are drawn stratified (one draw per equal slice of the range) and
then shuffled, so every seed gives different inputs but nearly the same mix
of cheap and expensive operations; that keeps medians comparable across
seeds.

Operations look the package functions up through their module at call
time, so wrappers installed by the traced run are seen.

``tail_pct`` is fixed per workload: the highest of p99, p95, p90, p75 and
p50 with at least 20 samples beyond it at this commit's rate, so a run half
as fast still keeps 10 beyond (cli reaches only p50).  It is fixed so that
runs a little faster or slower report the same percentile.  p99.9 is left
out: on a shared machine it reads scheduler and collector pauses, which
varied by a third between seeds.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Correctness bounds, stated once here.
SPECTRUM_REL_GAP = 1e-8  # |E_closed - E_numeric| / E_closed, as the CLI checks
SLOPE_BANDS = {0: (0.98, 1.02), 1: (1.98, 2.02)}  # l = 0 / l >= 1, as the CLI
DRIFT_PER_TOL = 1e3  # H and J drift over 10 periods: measured <= ~110 x local_tol
PRECESSION_BETA0 = 1e-6  # |precession| at beta = 0, orbits with e <= 1/2
# The sampled-minimum perihelion estimator (three samples around each
# minimum of r(t)) reaches 1e-6 only on moderate orbits; at e ~ 0.8 it is
# off by up to ~2e-4 rad per orbit at this sampling density.  More eccentric
# beta = 0 orbits are held to this looser bound instead of being left out.
PRECESSION_BETA0_ECCENTRIC = 1e-3
CLI_REL_TOL = 1e-9  # CLI numbers against in-process library references
CLI_ABS_TOL = 1e-15


def _stratified(rng: random.Random, count: int, lo: float, hi: float, log: bool = False):
    """``count`` draws, one per equal slice of [lo, hi], in shuffled order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return [math.exp(v) if log else v for v in values]


def _beta_grid(top: float) -> list[float]:
    """Seven betas log-spaced over two decades ending at ``top``."""
    return [top * 10.0 ** (-2.0 + k / 3.0) for k in range(7)]


def kepler_period(p0: float) -> float:
    """Undeformed radial period of the orbit started at (2, 0, 0, p0), m = e2 = 1."""
    energy = 0.5 * p0 * p0 - 0.5
    semi_major = 1.0 / (2.0 * abs(energy))
    return 2.0 * math.pi * math.sqrt(semi_major**3)


def eccentricity(p0: float) -> float:
    """Eccentricity of the orbit started at (2, 0, 0, p0), m = e2 = 1."""
    return abs(1.0 - 2.0 * p0 * p0)


# The CPU speed of a shared machine drifts, by up to 2x over tens of seconds
# on the 2-vCPU machine the bounds were set on.  Every timing is therefore
# scaled to a reference speed: the wall time times a fixed nominal duration
# over the mean of two calibration readings taken around it.  Operations in
# the benchmark's own process are calibrated by calibration_loop(), process
# start-ups (cli operations, set-up) by process_calibration(), whichever
# tracked that kind of work best: across windows of 5 s or 10 operations
# they left 2-6% of variation where raw times varied by 11-15%.  The nominal durations are
# near the usual readings on that machine; the loop read from 3.7 to 11 ms
# within a second or two, median 6.7 ms.
CALIBRATION_S = 0.005
PROCESS_CALIBRATION_S = 0.15


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    Small objects, attribute reads, a math call and float arithmetic, like
    the package's own Python-level code; of the loops tried (integer sums,
    sorting and dict building, this one) it tracked all three in-process
    workloads best.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        p = _Point(0.5 * i, 1.0 + i)
        acc += math.sqrt(p.a * p.a + p.b) / (1.0 + p.b)
    return time.perf_counter() - t0


def process_calibration() -> float:
    """Seconds for a fresh interpreter to import numpy: the speed of start-up work.

    Of the readings tried next to cli operations (calibration_loop, a bare
    interpreter start, this import) it tracked them best; numpy is a dependency,
    not part of the package, so no change to the package moves it.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def child_env() -> dict[str, str]:
    """Environment of every child process: the checkout's package, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Workload:
    """Seeded pool of inputs, one operation and its correctness check."""

    name: str
    tail_pct: float
    calibrate = staticmethod(calibration_loop)
    calibration_s = CALIBRATION_S

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def op(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> str | None:
        """None when ``out`` is correct for ``inp``, else the reason it is not."""
        raise NotImplementedError

    def prepare(self, inputs: list) -> str | None:
        """Untimed warm-up: one operation on the first input, checked."""
        return self.check(inputs[0], self.op(inputs[0]))


class Spectrum(Workload):
    """``spectrum_table(params, 8)``: 36 levels, each solved by both routes.

    Why: quadrature-heavy.  About 95% of an operation is the ``numerics``
    quadrature route, so a change to the closed route should barely move it.
    """

    name = "spectrum"
    tail_pct = 90.0  # ~210 operations in 20 s
    pool_size = 16
    n_prime_max = 8

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        return [{"beta": b} for b in _stratified(rng, self.pool_size, 1e-3, 0.15, log=True)]

    def op(self, inp: dict):
        import snyder_coulomb as sc

        params = sc.model.PhysicalParams(1.0, 1.0, inp["beta"])
        return sc.numerics.spectrum_table(params, self.n_prime_max)

    def check(self, inp: dict, entries) -> str | None:
        expected = self.n_prime_max * (self.n_prime_max + 1) // 2
        if len(entries) != expected:
            return f"{len(entries)} levels, expected {expected}"
        for e in entries:
            if e.error:
                return f"{e.qn}: {e.error}"
            gap = abs(e.e_closed - e.e_numeric) / e.e_closed
            if not gap <= SPECTRUM_REL_GAP:
                return f"{e.qn}: closed/numeric gap {gap:.3g} > {SPECTRUM_REL_GAP}"
            if not e.e_closed < e.e_newton:
                return f"{e.qn}: E_closed {e.e_closed!r} not below E_newton {e.e_newton!r}"
        return None


class OrderScan(Workload):
    """``correction_order`` on a 7-point beta grid spanning two decades.

    Why: closed-form-only use of the same solver, no quadrature.  A change to
    the closed-form phase integrals, the bracketing or Brent shows here.  The
    grid top is drawn in [0.005, 0.02]: at this commit every (n, l) fit then
    sits inside the CLI slope bands, while tops near 0.06 push l = 0 slopes
    below 0.98 because the series itself breaks down.
    """

    name = "order-scan"
    tail_pct = 99.0  # ~30000 operations in 20 s
    top_range = (0.005, 0.02)

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        levels = [(n, l) for n in range(1, 6) for l in range(0, 6)]
        tops = _stratified(rng, len(levels), *self.top_range, log=True)
        pool = [{"n": n, "l": l, "betas": _beta_grid(top)} for (n, l), top in zip(levels, tops)]
        rng.shuffle(pool)
        return pool

    def op(self, inp: dict):
        import snyder_coulomb as sc

        base = sc.model.PhysicalParams(1.0, 1.0, 0.0)
        qn = sc.model.QuantumNumbers(inp["n"], inp["l"])
        return sc.numerics.correction_order(base, qn, inp["betas"])

    def check(self, inp: dict, fit) -> str | None:
        lo, hi = SLOPE_BANDS[min(inp["l"], 1)]
        if not lo <= fit.slope <= hi:
            return f"(n, l) = ({inp['n']}, {inp['l']}): slope {fit.slope!r} outside [{lo}, {hi}]"
        return None


class Orbit(Workload):
    """``integrate_orbit`` then ``precession_per_orbit`` over 10 radial periods.

    Why: ``dynamics`` only.  The split between ``solve_ivp`` and building the
    samples plus the drift loop moves with eccentricity (p0) and tolerance,
    so step-loop and trajectory-storage changes each show.
    """

    name = "orbit"
    tail_pct = 75.0  # ~110 operations in 20 s
    pool_size = 24
    periods = 10

    def generate(self, seed: int) -> list:
        """One orbit per p0 stratum; tolerance and beta follow the stratum.

        Every seed then has the same mix: tolerances alternate, beta = 0 on
        a quarter of the strata spread over the p0 range, and the nonzero
        betas visit their own strata in a fixed interleaved order.  The seed
        moves each value within its stratum and shuffles the order.
        """
        rng = random.Random(seed)
        n = self.pool_size
        nonzero = [k for k in range(n) if k % 8 not in (0, 5)]
        pool = []
        for k in range(n):
            p0 = 0.3 + 0.3 * (k + rng.random()) / n
            if k in nonzero:
                stratum = (7 * nonzero.index(k)) % len(nonzero)
                beta = 0.01 + 0.07 * (stratum + rng.random()) / len(nonzero)
            else:
                beta = 0.0
            tol = 1e-10 if k % 2 == 0 else 1e-12
            pool.append({"p0": p0, "beta": beta, "local_tol": tol,
                         "t_end": self.periods * kepler_period(p0)})
        rng.shuffle(pool)
        return pool

    def op(self, inp: dict):
        import snyder_coulomb as sc

        params = sc.model.PhysicalParams(1.0, 1.0, inp["beta"])
        state = sc.dynamics.OrbitState(2.0, 0.0, 0.0, inp["p0"])
        traj = sc.dynamics.integrate_orbit(state, params, inp["t_end"], local_tol=inp["local_tol"])
        return traj, sc.dynamics.precession_per_orbit(traj)

    def check(self, inp: dict, out) -> str | None:
        traj, prec = out
        bound = DRIFT_PER_TOL * inp["local_tol"]
        if not (traj.h_drift <= bound and traj.j_drift <= bound):
            return f"drift H {traj.h_drift:.3g}, J {traj.j_drift:.3g} > {bound:.3g}"
        if prec.n_orbits + 1 < 3:
            return f"{prec.n_orbits + 1} perihelia, need >= 3"
        if inp["beta"] == 0.0:
            limit = PRECESSION_BETA0 if eccentricity(inp["p0"]) <= 0.5 else PRECESSION_BETA0_ECCENTRIC
            if not abs(prec.angle_per_orbit) <= limit:
                return f"precession {prec.angle_per_orbit:.3g} at beta = 0 exceeds {limit:g}"
        return None


class Cli(Workload):
    """One cold ``python -m snyder_coulomb ...`` process per operation.

    Why: the only workload that pays package import and the CLI layer; the
    five commands are cycled with small arguments, so a lazy-import or CLI
    change shows here and nowhere else.  Each output is checked against
    references computed in-process through the library API, with a stated
    tolerance, and repeated argv must give identical bytes.
    """

    name = "cli"
    tail_pct = 50.0  # ~27 operations in 20 s
    calibrate = staticmethod(process_calibration)
    calibration_s = PROCESS_CALIBRATION_S

    def generate(self, seed: int) -> list:
        rng = random.Random(seed)
        fmt = lambda xs: ",".join(format(x, ".17g") for x in xs)  # noqa: E731
        b_spec = math.exp(rng.uniform(math.log(1e-3), math.log(0.15)))
        b_ver = [0.0, rng.uniform(0.01, 0.05), rng.uniform(0.05, 0.12)]
        e_ver = sorted(rng.uniform(0.02, 0.12) for _ in range(3))
        n_scan = rng.randint(1, 3)
        top = math.exp(rng.uniform(*map(math.log, OrderScan.top_range)))
        b_orbit = rng.choice([0.0, rng.uniform(0.01, 0.08)])
        p0 = rng.uniform(0.3, 0.6)
        b_lim = sorted(math.exp(rng.uniform(math.log(1e-3), math.log(0.1))) for _ in range(3))
        energy = rng.uniform(0.05, 0.2)
        argvs = [
            ["spectrum", "--beta", fmt([b_spec]), "--n-prime-max", "3"],
            ["verify-integrals", "--beta-grid", fmt(b_ver), "--l-grid", "0,1,2",
             "--e-grid", fmt(e_ver)],
            ["scan-order", "--l-list", "0,1,2", "--n", str(n_scan), "--beta-grid",
             fmt(_beta_grid(top))],
            ["orbit", "--beta", fmt([b_orbit]), "--p2", fmt([p0]), "--t-end",
             fmt([5 * kepler_period(p0)]), "--local-tol", "1e-10"],
            ["l-limit", "--beta-grid", fmt(b_lim), "--energy", fmt([energy])],
        ]
        return [{"slot": k, "argv": argv + ["--format", "json"]} for k, argv in enumerate(argvs)]

    def prepare(self, inputs: list) -> None:
        """Compute the in-process references; this is the warm-up.

        No process is started: the operations are cold processes anyway,
        and the file cache they use is warm from the set-up probes.
        """
        self.references = {inp["slot"]: self._reference(inp["argv"]) for inp in inputs}
        self.first_bytes: dict[int, bytes] = {}

    @staticmethod
    def _opt(argv: list, flag: str) -> str:
        return argv[argv.index(flag) + 1]

    def _reference(self, argv: list) -> list[dict]:
        """Rows the CLI must print, from library calls on the same inputs."""
        import snyder_coulomb as sc

        floats = lambda flag: [float(x) for x in self._opt(argv, flag).split(",")]  # noqa: E731
        P = sc.model.PhysicalParams
        command = argv[0]
        if command == "spectrum":
            params = P(1.0, 1.0, floats("--beta")[0])
            return [
                {"n_prime": e.qn.n_prime, "l": e.qn.l, "E_newton": e.e_newton,
                 "E_closed": e.e_closed, "E_numeric": e.e_numeric, "E_series": e.e_series}
                for e in sc.numerics.spectrum_table(params, int(self._opt(argv, "--n-prime-max")))
            ]
        if command == "verify-integrals":
            rows = []
            for beta in floats("--beta-grid"):
                params = P(1.0, 1.0, beta)
                for l in (int(x) for x in self._opt(argv, "--l-grid").split(",")):
                    for energy in floats("--e-grid"):
                        closed = (sc.analytic.phase_integral_1d_closed(params, energy) if l == 0
                                  else sc.analytic.radial_phase_integral_closed(params, energy, l))
                        numeric = sc.numerics.phase_integral_numeric(params, energy, l)
                        rows.append({"beta": beta, "l": l, "E": energy,
                                     "phi_closed": closed.value, "phi_numeric": numeric.value})
            return rows
        if command == "scan-order":
            n = int(self._opt(argv, "--n"))
            rows = []
            for l in (int(x) for x in self._opt(argv, "--l-list").split(",")):
                fit = sc.numerics.correction_order(
                    P(1.0, 1.0, 0.0), sc.model.QuantumNumbers(n, l), floats("--beta-grid"))
                rows.append({"l": l, "slope": fit.slope, "rms_residual": fit.rms_residual,
                             "n_used": fit.n_used})
            return rows
        if command == "orbit":
            params = P(1.0, 1.0, floats("--beta")[0])
            state = sc.dynamics.OrbitState(2.0, 0.0, 0.0, floats("--p2")[0])
            traj = sc.dynamics.integrate_orbit(state, params, floats("--t-end")[0],
                                               local_tol=floats("--local-tol")[0])
            prec = sc.dynamics.precession_per_orbit(traj)
            return [{"h_drift": traj.h_drift, "j_drift": traj.j_drift,
                     "precession_per_orbit": prec.angle_per_orbit, "n_orbits": prec.n_orbits}]
        if command == "l-limit":
            rows = []
            for beta in floats("--beta-grid"):
                for row in sc.numerics.l_limit_study(P(1.0, 1.0, beta), floats("--energy")[0],
                                                     [0.1, 0.03, 0.01, 0.003, 0.001]):
                    rows.append({"beta": beta, "l": row.l, "phi_radial": row.phi_radial,
                                 "phi_one_dim": row.phi_one_dim, "gap": row.gap})
            return rows
        raise ValueError(f"no reference for command {command!r}")

    def out_path(self, inp: dict) -> Path:
        return OUT / f"cli-{inp['slot']}.json"

    def op(self, inp: dict, command: list[str] | None = None):
        """Run one process to completion; returns (exit status, output, stderr).

        ``command`` replaces ``python -m snyder_coulomb`` (the traced run).
        """
        path = self.out_path(inp)
        path.unlink(missing_ok=True)
        command = command or [sys.executable, "-m", "snyder_coulomb"]
        proc = subprocess.run([*command, *inp["argv"], "--out", str(path)], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, (path.read_bytes() if path.exists() else b""), proc.stderr

    def check(self, inp: dict, out) -> str | None:
        status, data, stderr = out
        if status != 0 or not data:
            return f"{inp['argv'][0]}: exit status {status}: {stderr.decode(errors='replace')[-300:]}"
        first = self.first_bytes.setdefault(inp["slot"], data)
        if data != first:
            return f"{inp['argv'][0]}: output bytes differ between two runs of the same argv"
        rows = json.loads(data)["rows"]
        reference = self.references[inp["slot"]]
        if len(rows) != len(reference):
            return f"{inp['argv'][0]}: {len(rows)} rows, expected {len(reference)}"
        for row, ref in zip(rows, reference):
            for key, value in ref.items():
                if not math.isclose(row[key], value, rel_tol=CLI_REL_TOL, abs_tol=CLI_ABS_TOL):
                    return f"{inp['argv'][0]}: {key} = {row.get(key)!r}, reference {value!r}"
        return None


WORKLOADS = {w.name: w for w in (Spectrum, OrderScan, Orbit, Cli)}
