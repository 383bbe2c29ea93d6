#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10

Each run measures for BENCHMARK.json's ``run_seconds``.  For every workload
and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median next
to the metric's bound, flagged WIDE at a third of the bound or more.  The
report lines of the runs carry each workload's own metrics as well, and are
summarised the same way.  Each workload is then traced twice on the first
seed; the counts must agree exactly, and the per-layer values are kept
together with each layer's self time as a share of the traced operation time.
All of it is written to ``perfbench/baseline.json``.  The exit status is 1
when a run reported a failure or the traced counts differ.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = {"count", "B"}


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(the result line, the report's metrics) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines[1:-1]:
        name, value, unit = line.split()
        report[name] = (float(value), unit)
    return json.loads(lines[-1]), report


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        results, reports = [], []
        for seed in seeds:
            res, rep = run_once(wl, seed, seconds, 0)
            ok &= res["correct"] and res["failed"] == 0
            results.append(res)
            reports.append(rep)
            print(f"{wl} seed {seed}: failed={res['failed']}/{res['attempted']}  " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "failed_by_seed": [r["failed"] for r in results],
                 "end_to_end": {}, "report": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
        for name in reports[0]:
            if name in bounds:
                continue
            s = summarise([r[name][0] for r in reports])
            s["unit"] = reports[0][name][1]
            entry["report"][name] = s
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.3f}", flush=True)
        first, _ = run_once(wl, seeds[0], seconds, 1)
        second, _ = run_once(wl, seeds[0], seconds, 1)
        ok &= first["correct"] and second["correct"]
        differ = [k for k, v in first["metrics"].items()
                  if v["unit"] in COUNT_UNITS and v["value"] != second["metrics"][k]["value"]]
        ok &= not differ
        print(f"  traced twice on seed {seeds[0]}: counts "
              f"{'differ: ' + ', '.join(differ) if differ else 'repeat exactly'}", flush=True)
        layers = first["metrics"]
        entry["per_layer"] = layers
        wall = layers["trace.wall_s"]["value"]
        shares = {k[:-len(".self_s")]: v["value"] / wall for k, v in layers.items()
                  if k.endswith(".self_s") and v["value"] > 0}
        entry["self_share_of_trace_wall"] = sorted(shares.items(), key=lambda kv: -kv[1])
        out["workloads"][wl] = entry
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
