#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against this checkout.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --workload ec_sweep --seeds 101 102 103 \\
        --seconds 25 --base HEAD~1 --out BENCH.json

The parent (``--base``) is exported with ``git archive`` into a temporary
directory; the change is the checkout this script sits in, as it stands.  Each
seed makes one pair: ``perfbench/run.py --trace 0`` runs once on each side,
the parent first in the first pair and the two alternating after it.  The
script refuses to run unless ``perfbench/`` and ``BENCHMARK.json`` are the
same files on both sides, and when the checkout's tracked files are the
parent's, which would pit a tree against itself.

The output JSON holds every run's result line and, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the pairs the change
won, ties counting for neither.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> None:
    """The files of revision ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12, 3.11.4 and later
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def benchmark_files(root: Path) -> dict[str, bytes]:
    """The bytes of ``BENCHMARK.json`` and of every file under ``perfbench/``
    but compiled bytecode, by path relative to ``root``."""
    paths = [root / "BENCHMARK.json",
             *(p for p in sorted((root / "perfbench").rglob("*"))
               if p.is_file() and "__pycache__" not in p.parts)]
    return {str(p.relative_to(root)): p.read_bytes() for p in paths}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run under ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s end-to-end entries),
    each side's median and quartiles over ``pairs`` and the pairs the change
    won; each pair maps "parent" and "change" to a run's result line."""
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     **{side: spread(values[side]) for side in SIDES},
                     "won": won, "pairs": len(pairs)}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["attempted"] = {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--out", type=Path, required=True,
                    help="JSON file; its workload entry is replaced, others are kept")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if subprocess.run(["git", "diff", "--quiet", args.base, "--"], cwd=ROOT).returncode == 0:
        raise SystemExit(f"this checkout's tracked files are those of {args.base}: "
                         "there is no change to measure")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        export(args.base, roots["parent"])
        if benchmark_files(roots["parent"]) != benchmark_files(ROOT):
            raise SystemExit(f"perfbench/ or BENCHMARK.json differ between {args.base} and "
                             "this checkout: the two sides would run different benchmarks")
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], args.workload, seed, args.seconds)
                value = pair[side]["metrics"]["work_per_s"]["value"]
                print(f"seed {seed} {side:6s} work_per_s {value:.6g}", flush=True)
            pairs.append(pair)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    record[args.workload] = {"base": base, "seconds": args.seconds, "pairs": pairs,
                             "summary": summarize(pairs, spec["end_to_end"])}
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
