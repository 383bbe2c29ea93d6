#!/usr/bin/env python3
"""spheretop benchmark: one seeded, closed-loop workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload ec_sweep --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run exits with status 2 and prints no result.  Work files go to a private
directory under ``.perfbench_work/`` that is removed at exit; traced runs keep
their spans under ``.perfbench_traces/``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed amount of work (``trace_passes`` passes) once untraced and once
traced, reports per-layer counts and self times from the spans, the tracing
overhead and the share of operation time no layer span covers, and repeats the
first pass to assert that its counts repeat exactly.

Every time a timed run reports is scaled to a machine of fixed speed, which
the run gauges with fixed work of its own (``gauge``); see ``GAUGE_S``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable report that also carries each workload's own metrics.
"""

import os

# one thread everywhere: the 8x8 eigvals must not start a BLAS thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("ec_sweep", "re_queries", "flow_levels")
# Set-up is timed in this many fresh interpreters per run, spread over it.
SETUP_PROBES = 9
# Rounds of a timed run: the first runs new passes, the others repeat them.
REPEATS = 4
# On a shared machine the same code runs up to 45% slower for minutes at a
# time, so that runs a minute apart disagree whatever a run does inside.  A
# timed run therefore also times ``gauge``, fixed work that is not spheretop's,
# after every pass, and scales each time it reports, set-up included, to a
# machine on which ``gauge`` takes GAUGE_S.  A change to spheretop leaves the
# gauge as it is, so the scaling keeps the change and drops the machine's
# speed.
GAUGE_S = 2.0e-3
GAUGE = "gauge"   # the class of the gauge's samples
_GAUGE_MATRIX = np.random.default_rng(0).normal(size=(8, 8))


def _import_package() -> None:
    """Import spheretop from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import spheretop

    if Path(spheretop.__file__).resolve().parent != SRC / "spheretop":
        raise SystemExit(f"error: spheretop imported from {spheretop.__file__}")


def _make_workload(name: str, seed: int, size: str, workdir: Path):
    import workloads

    return workloads.WORKLOADS[name](seed, workdir, workloads.SIZES[name][size])


def gauge() -> None:
    """Fixed work like the package's: scalar quaternion products in Python,
    then 8x8 eigenvalues."""
    a, b, c, d = 1.0, 0.1, 0.2, 0.3
    for _ in range(2000):
        a, b, c, d = (0.5 * a - 0.1 * b - 0.2 * c - 0.3 * d, 0.5 * b + 0.1 * a + 0.2 * d - 0.3 * c,
                      0.5 * c + 0.2 * a + 0.3 * b - 0.1 * d, 0.5 * d + 0.3 * a + 0.1 * c - 0.2 * b)
        n = (a * a + b * b + c * c + d * d) ** 0.5
        a, b, c, d = a / n, b / n, c / n, d / n
    for _ in range(20):
        np.linalg.eigvals(_GAUGE_MATRIX)


def _time_gauge() -> float:
    t0 = perf_counter()
    gauge()
    return perf_counter() - t0


def _probe_setup(args) -> float:
    """Wall time of a fresh interpreter that imports and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Samples:
    """Per operation class, the fastest time of each operation over the
    repeats of its pass.  It keeps 16 bytes per operation, so that a faster
    program that completes more operations does not read as a larger memory
    peak."""

    def __init__(self, passes=()):
        self.times = defaultdict(lambda: array("d"))
        self.work = defaultdict(float)
        self.slots: list[array] = []   # per pass: each operation's place in its class
        self.passes = self.attempted = self.failed = 0
        for i, p in enumerate(passes):
            self.add(i, p)

    def add(self, index: int, p: dict) -> None:
        """Add pass ``index``: a new one, or a repeat of one added before."""
        self.attempted += p["attempted"]
        self.failed += p["failed"]
        if index < self.passes:
            for k, (cls, dt, _) in zip(self.slots[index], p["ops"], strict=True):
                self.times[cls][k] = min(self.times[cls][k], dt)
            return
        self.passes += 1
        slots = array("q")
        for cls, dt, w in p["ops"]:
            slots.append(len(self.times[cls]))
            self.times[cls].append(dt)
            self.work[cls] += w
        self.slots.append(slots)


def _run_timed(wl, seconds: float, probe) -> tuple[Samples, list[float]]:
    """``REPEATS`` rounds over the same passes, plus the set-up probes.

    The first round runs new passes for ``seconds / REPEATS``; each later
    round repeats them in order.  An operation's repeats thus lie seconds
    apart, so that the fastest of them sees the machine at its usual speed,
    which drops for seconds at a time.  The probes run between passes, spread
    evenly over the run, so that they span the run rather than one moment.
    The gauge runs after every pass, as one more operation of the pass."""
    from workloads import Recorder

    rec = Recorder()
    samples, setup = Samples(), []
    start = perf_counter()
    probing = 0.0

    def measured() -> float:
        return perf_counter() - start - probing

    for repeat in range(REPEATS):
        index = 0
        while (index < samples.passes if repeat
               else not index or measured() < seconds / REPEATS):
            if len(setup) < SETUP_PROBES and measured() >= seconds * len(setup) / SETUP_PROBES:
                setup.append(probe())
                probing += setup[-1]
            p = wl.run_pass(index, rec, repeat)
            p["ops"].append((GAUGE, _time_gauge(), 0.0))
            samples.add(index, p)
            index += 1
    setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
    return samples, setup


class Estimate(NamedTuple):
    time: float       # mean over the class's operations of their fastest time
    work: float       # mean main work per operation
    per_pass: float   # operations of the class per pass
    times: np.ndarray  # every operation's fastest time, ascending


def estimate(samples: Samples) -> dict[str, Estimate]:
    """Per operation class: the mean time, mean work and share per pass.

    The mean runs over every operation, so every input counts by its cost."""
    out = {}
    for c, arr in samples.times.items():
        t = np.sort(np.frombuffer(arr))
        out[c] = Estimate(float(t.mean()), samples.work[c] / len(t),
                          len(t) / samples.passes, t)
    return out


def _pass_s(est: dict[str, Estimate], main_only: bool = False) -> float:
    """Time of one pass: operations per pass times their mean time."""
    return sum(e.per_pass * e.time for e in est.values() if e.work > 0 or not main_only)


def _end_to_end(wl, setup_samples: list[float], samples: Samples):
    """(the end-to-end metrics, the workload's own metrics for the report).

    Every time is scaled to a machine on which the gauge takes GAUGE_S."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    est = estimate(samples)
    gauge_s = est.pop(GAUGE).time
    scale = GAUGE_S / gauge_s
    est = {c: e._replace(time=e.time * scale, times=e.times * scale) for c, e in est.items()}
    metrics = {
        "setup_s": _metric(statistics.median(setup_samples) * scale, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "work_per_s": _metric(sum(e.per_pass * e.work for e in est.values())
                              / _pass_s(est, main_only=True), "1/s"),
        "request_ms": _metric(1e3 * _pass_s(est) / wl.requests_per_pass, "ms"),
    }
    extra = {name: _metric(v, u) for name, (v, u) in wl.summary(est).items()}
    extra["passes"] = _metric(samples.passes, "count")
    extra["gauge.measured_ms"] = _metric(1e3 * gauge_s, "ms")
    extra["gauge.scale"] = _metric(scale, "ratio")
    for cls, e in sorted(est.items()):
        extra[f"op.{cls}.mean_ms"] = _metric(1e3 * e.time, "ms")
    return metrics, extra


def _per_layer(wl, trace_passes: int, trace_path: Path):
    """Fixed work untraced, then traced; returns (metrics, samples, mismatch)."""
    from spans import LEVELS, Tracer
    from workloads import Recorder

    plain = [wl.run_pass(i, Recorder()) for i in range(trace_passes)]
    tracer = Tracer()
    tracer.install()
    try:
        rec = Recorder(tracer)
        traced = [wl.run_pass(0, rec)]
        first = tracer.snapshot_counts()
        traced += [wl.run_pass(i, rec) for i in range(1, trace_passes)]
        counts = tracer.snapshot_counts()
        stat = tracer.stats()
        root_s = tracer.root_s
        again = wl.run_pass(0, rec)
        repeat = tracer.snapshot_counts()
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    mismatch = sorted(k for k in set(first) | set(repeat)
                      if repeat.get(k, 0) - counts.get(k, 0) != first.get(k, 0))

    traced_s = sum(dt for p in traced for _, dt, _ in p["ops"])
    overhead = _pass_s(estimate(Samples(traced))) / _pass_s(estimate(Samples(plain))) - 1.0
    m = {}

    def put(name, field, unit):
        m[f"{name}.{field}"] = _metric(stat.get(name, {}).get(field, 0), unit)

    for fn in ("solve_re", "zeta_of", "phi_branches", "reconstruct_re", "re_from_tau"):
        put(f"relequil.{fn}", "calls", "count")
    for fn in ("solve_re", "phi_branches", "reconstruct_re"):
        put(f"relequil.{fn}", "self_s", "s")
    for fn in ("linearize", "charpoly_2body"):
        put(f"stability.{fn}", "calls", "count")
    for fn in ("linearize", "jacobian_full_reduced", "fold_locus"):
        put(f"stability.{fn}", "self_s", "s")
    put("energy_casimir.ec_sample", "calls", "count")
    put("energy_casimir.ec_sample", "failed", "count")
    for fn in ("ec_sample", "ec_surface", "ec_csv"):
        put(f"energy_casimir.{fn}", "self_s", "s")
    put("energy_casimir.ec_csv", "bytes", "B")
    for fn in ("hamiltonian_2body", "momentum_left", "momentum_right"):
        put(f"phase_space.{fn}", "self_s", "s")
    for level in LEVELS.values():
        rhs, integ = f"dynamics.rhs.{level}", f"dynamics.integrate.{level}"
        put(rhs, "calls", "count")
        put(rhs, "self_s", "s")
        calls = stat.get(rhs, {}).get("calls", 0)
        m[f"{rhs}.us_per_call"] = _metric(
            1e6 * stat[rhs]["total_s"] / calls if calls else 0.0, "us")
        put(integ, "self_s", "s")
        acc = counts.get(f"{integ}.accepted", 0)
        rej = counts.get(f"{integ}.rejected", 0)
        m[f"{integ}.accepted"] = _metric(acc, "count")
        m[f"{integ}.rejected"] = _metric(rej, "count")
        m[f"{integ}.accept_ratio"] = _metric(acc / (acc + rej) if acc + rej else 0.0, "ratio")
    for fn in ("trajectory_csv", "drift_summary"):
        put(f"dynamics.{fn}", "self_s", "s")
    put("dynamics.trajectory_csv", "bytes", "B")
    put("quaternion.quat_mul", "calls", "count")
    put("quaternion.quat_mul", "self_s", "s")
    for fn in ("left_reduce", "hilbert_map", "all_casimirs", "stratum_classify"):
        put(f"reduction.{fn}", "calls", "count")
        put(f"reduction.{fn}", "self_s", "s")
    for cmd in ("simulate", "reduce", "ec-surface"):
        put(f"cli.main.{cmd}", "self_s", "s")
    m["trace.wall_s"] = _metric(traced_s, "s")
    m["trace.overhead_frac"] = _metric(overhead, "frac")
    m["trace.uncovered_frac"] = _metric(1.0 - root_s / traced_s, "frac")
    m["trace.spans"] = _metric(len(tracer.s_start), "count")
    return m, Samples(plain + traced + [again]), mismatch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test's size")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "spheretop" / "__init__.py").is_file():
        print(f"error: no spheretop sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        _import_package()
        wl = _make_workload(args.workload, args.seed, args.size, workdir)
        if args.setup_probe:
            return 0
        if args.trace:
            import workloads

            n = workloads.SIZES[args.workload][args.size]["trace_passes"]
            trace_path = ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.npz"
            metrics, samples, mismatch = _per_layer(wl, n, trace_path)
            extra = {}
            if mismatch:
                print(f"counts of pass 0 did not repeat: {mismatch}", file=sys.stderr)
        else:
            samples, setup = _run_timed(wl, args.seconds, lambda: _probe_setup(args))
            metrics, extra = _end_to_end(wl, setup, samples)
            mismatch = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = samples.attempted
    failed = samples.failed + len(mismatch)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.3g}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:42s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
