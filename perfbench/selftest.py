#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names
(end-to-end untraced, per-layer traced), that two traced runs on one seed give
identical counts, that deliberately corrupted outputs are counted as failures,
and that the benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
COUNT_UNITS = {"count", "B"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0, (workload, trace, res)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    return res


def check_metrics(spec: dict) -> None:
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            runs = [result(wl, trace) for _ in range(1 + trace)]
            expect = {m["name"]: m["unit"] for m in spec[group]}
            for res in runs:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == expect, (wl, group, set(got) ^ set(expect))
            if trace:
                a, b = (r["metrics"] for r in runs)
                differ = [k for k in a if a[k]["unit"] in COUNT_UNITS
                          and a[k]["value"] != b[k]["value"]]
                assert not differ, (wl, differ)
        print(f"ok   {wl}: every metric emitted; traced counts repeat exactly")


def check_corruption() -> None:
    """Corrupt one output per workload in-process; the pass must count it."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import spheretop
    from spheretop import cli, energy_casimir
    import workloads

    def failed(name: str, patch_mod, attr: str, make) -> int:
        orig = getattr(patch_mod, attr)
        setattr(patch_mod, attr, make(orig))
        try:
            wl = workloads.WORKLOADS[name](7, SCRATCH, workloads.SIZES[name]["tiny"])
            return wl.run_pass(0, workloads.Recorder())["failed"]
        finally:
            setattr(patch_mod, attr, orig)

    def perturb_h(orig):
        def ec_csv(samples):
            bad = dataclasses.replace(samples[0], H=samples[0].H * (1 + 1e-7))
            return orig((bad, *samples[1:]))
        return ec_csv

    def perturb_eigs(orig):
        def linearize(re, *a, **k):
            rep = orig(re, *a, **k)
            return dataclasses.replace(rep, eigenvalues=rep.eigenvalues * (1 + 1e-6))
        return linearize

    def perturb_flow(orig):
        def make_invariant_rhs(m, pot):
            rhs = orig(m, pot)
            return lambda t, y: tuple((1 + 1e-4) * c for c in rhs(t, y))
        return make_invariant_rhs

    SCRATCH.mkdir(parents=True, exist_ok=True)
    cases = (("ec_sweep", energy_casimir, "ec_csv", perturb_h, "H of one sweep sample"),
             ("re_queries", spheretop, "linearize", perturb_eigs, "eigenvalues of each query"),
             ("flow_levels", cli, "make_invariant_rhs", perturb_flow, "the invariant-level field"))
    for name, mod, attr, make, what in cases:
        n = failed(name, mod, attr, make)
        assert n >= 1, (name, what)
        print(f"ok   {name}: perturbing {what} counts {n} failure(s)")


def check_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "ec_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   without src/: exit status {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_metrics(spec)
        check_corruption()
        check_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        parent = SCRATCH.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
