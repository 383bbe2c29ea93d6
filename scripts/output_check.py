#!/usr/bin/env python3
"""Byte comparison of every command output between a parent revision and this
checkout.

Run from the repository root, for example:

    python3 scripts/output_check.py --base HEAD~1

The parent (``--base``) is exported with ``bench_pairs.export`` into a
temporary directory.  One fixed list of ``spheretop`` command lines
(``ARGVS``) runs on each tree, in order, in a fresh working directory of its
own: ``simulate`` on every space and scenario and a few more runs,
``reduce`` of the ``full`` trajectories, ``re`` and ``stability`` on every
kind of relative equilibrium, and ``ec-surface`` sheets.  Every file a
command leaves is compared byte for byte, and so are each command's exit
code, stdout and stderr; a manifest is compared without its ``wall_s``
entries, the one part that is meant to differ.  Each file that differs, or
that one side lacks, is printed; the exit code is 1 if any does, else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export  # noqa: E402

SPACES = ("full", "left", "right", "invariants")
SCENARIOS = ("re-acute-demo", "antipodal-rest", "collision-course", "random")
# a state off every scenario, on the unit sphere with tangent momenta
STATE = {"g1": [1.0, 0.0, 0.0, 0.0], "p1": [0.0, 0.3, -0.2, 0.1],
         "g2": [math.cos(1.0), 0.0, math.sin(1.0), 0.0], "p2": [0.0, 0.4, 0.0, -0.25]}
STATE_FILE = "state.json"


def _sheet(name: str, flags: list[str], axis: str, lo: float, hi: float) -> list[str]:
    """A sheet of the benchmark's shape: 3 x 24 nodes, tau in [-3, 3]."""
    return ["ec-surface", *flags, f"--{axis}-min", repr(lo), f"--{axis}-max", repr(hi),
            "--tau-min=-3.0", "--tau-max", "3.0", "--grid", "3", "24", "--workers", "1",
            "--out", f"{name}.csv"]


def _argvs() -> list[list[str]]:
    grav11 = ["--m1", "1", "--m2", "1", "--potential", "grav"]
    argvs = [["simulate", "--scenario", scenario, "--space", space, "--T", "2",
              "--out", f"{scenario}_{space}.csv"]
             for scenario in SCENARIOS for space in SPACES]
    argvs += [
        ["simulate", "--state", STATE_FILE, "--potential", "linear:0.8", "--space", "full",
         "--T", "3", "--out", "state_full.csv"],
        # 1201 rows: two blocks of the sampler
        ["simulate", "--scenario", "random", "--seed", "4", "--space", "full", "--T", "12",
         "--sample-dt", "0.01", "--out", "long_full.csv"],
        # a collision over an earlier trajectory, which it removes
        ["simulate", "--scenario", "random", "--space", "left", "--T", "1", "--out", "over.csv"],
        ["simulate", "--scenario", "collision-course", "--space", "left", "--T", "1",
         "--out", "over.csv"],
    ]
    argvs += [["reduce", "--trajectory", f"{name}_full.csv", "--out", f"{name}_reduced.csv"]
              for name in ("re-acute-demo", "antipodal-rest", "random", "state", "long")]
    kinds = {"acute": ["--theta", "1.0"], "obtuse": ["--theta", "2.2"],
             "right_angled": ["--theta", repr(math.pi / 2), "--phi1", "0.4"],
             "singular0": ["--theta", "0.0", "--xi", "0.5", "--potential", "linear:1.0"],
             "singular_pi": ["--theta", repr(math.pi), "--xi", "0.5",
                             "--potential", "linear:1.0"],
             "top": ["--theta", "1.0", "--potential", "lagrange", "--alpha", "1.5",
                     "--gamma", "1.0"]}
    argvs += [[command, *flags, "--out", f"{command}_{kind}.json"]
              for command in ("re", "stability") for kind, flags in kinds.items()]
    argvs += [
        ["ec-surface", "--out", "default_sheet.csv"],
        _sheet("equal_isosceles", ["--family", "isosceles", *grav11], "theta", 0.1,
               math.pi - 0.1),
        _sheet("mass32_obtuse", ["--family", "obtuse", "--m1", "3", "--m2", "2",
                                 "--potential", "grav"], "theta", math.pi / 2 + 0.1,
               math.pi - 0.1),
        _sheet("top_polar", ["--family", "isosceles", "--potential", "lagrange", "--alpha",
                             "2", "--gamma", "1"], "theta", 0.1, math.pi - 0.1),
        _sheet("equal_right_angled", ["--family", "rightAngled", *grav11], "phi1", 0.08,
               math.pi / 2 - 0.08),
        ["ec-surface", "--tau-min=-800", "--tau-max", "800", "--grid", "7", "9",
         "--out", "wide_tau.csv"],
    ]
    return argvs


ARGVS = _argvs()


def run_all(tree: Path, side: Path) -> None:
    """Run ``ARGVS`` on the package under ``tree``, in ``side``/run; each
    command's exit code, stdout and stderr go to ``side``/streams."""
    work, streams = side / "run", side / "streams"
    work.mkdir(parents=True)
    streams.mkdir()
    (work / STATE_FILE).write_text(json.dumps(STATE))
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for i, argv in enumerate(ARGVS):
        proc = subprocess.run([sys.executable, "-m", "spheretop.cli", *argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        (streams / f"{i:02d}.txt").write_bytes(
            b"%d %s\n--- stdout\n%s--- stderr\n%s" % (
                proc.returncode, " ".join(argv).encode(), proc.stdout, proc.stderr))


def _without_wall_s(value):
    if isinstance(value, dict):
        return {k: _without_wall_s(v) for k, v in value.items() if k != "wall_s"}
    if isinstance(value, list):
        return [_without_wall_s(v) for v in value]
    return value


def _content(path: Path):
    """The bytes of a file, a manifest's parsed without ``wall_s``, or None
    when there is no such file."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        try:
            return _without_wall_s(json.loads(data))
        except ValueError:  # not JSON: compared as bytes
            pass
    return data


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """The number of files under either of ``a`` and ``b``, and the paths,
    relative to each, of those that differ or that one side lacks."""
    names = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    return len(names), [n for n in names if _content(a / n) != _content(b / n)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output_check_") as tmp:
        tmp = Path(tmp)
        export(args.base, tmp / "tree")
        for side, tree in (("parent", tmp / "tree"), ("change", ROOT)):
            run_all(tree, tmp / side)
        n, differ = compare(tmp / "parent", tmp / "change")
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(ARGVS)} commands, {n} files, {len(differ)} differ "
              f"(manifests without wall_s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
