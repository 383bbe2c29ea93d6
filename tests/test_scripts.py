"""The study scripts under ``scripts/`` import only names the package has, and
both run end to end.

Each script runs its work under a ``__main__`` guard, so loading it as a
module runs nothing but its imports.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [
    "conservation_study", "bifurcation_surfaces", "bench_pairs", "output_check"])
def test_script_loads(name):
    assert callable(_load(name).main)


def test_bifurcation_surfaces_runs_end_to_end(tmp_path):
    # the figure data: six 60 x 60 sheets, two 120-point singular threads and
    # the fold curve of the obtuse (3, 2) sheet, each with its header row
    assert _load("bifurcation_surfaces").main(str(tmp_path)) == 0
    rows = {p.name: len(p.read_text().splitlines()) - 1 for p in tmp_path.glob("*.csv")}
    sheets = ("equal_mass_isosceles", "equal_mass_right_angled", "mass32_acute",
              "mass32_obtuse", "top_polar_sheet", "top_horizontal_sheet")
    assert {f"{name}.csv": rows.get(f"{name}.csv") for name in sheets} == {
        f"{name}.csv": 60 * 60 for name in sheets}
    assert rows["top_upright_thread.csv"] == rows["top_hanging_thread.csv"] == 120
    assert rows["mass32_fold_curve.csv"] >= 1
    assert len(rows) == 9


def test_conservation_study_runs_end_to_end(capsys):
    # three levels at four tolerances; at 1e-12 each drift is within criterion
    # 01's bound of 1e-7
    assert _load("conservation_study").main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 12
    assert sorted((float(r[0]), r[1]) for r in rows) == sorted(
        (tol, level) for tol in (1e-12, 1e-10, 1e-8, 1e-6)
        for level in ("full", "reduced", "invariant"))
    drifts = [float(cell.partition("=")[2]) for r in rows if float(r[0]) == 1e-12
              for cell in r[4:]]
    assert len(drifts) == 13 and max(drifts) < 1e-7


def test_bench_pairs_summary_arithmetic():
    # synthetic result lines, not runs: each side's median and inclusive
    # quartiles, and the pairs the change won in the metric's direction, a
    # tie counting for neither side
    def line(work, rss, failed=0):
        return {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {"work_per_s": {"value": work, "unit": "1/s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    pairs = [{"parent": line(100, 40.0), "change": line(110, 40.0)},
             {"parent": line(102, 41.0), "change": line(101, 40.5)},
             {"parent": line(98, 40.0), "change": line(98, 40.2, failed=1)},
             {"parent": line(104, 42.0), "change": line(120, 39.0)}]
    metrics = [{"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    got = _load("bench_pairs").summarize(pairs, metrics)
    assert got["work_per_s"] == {
        "unit": "1/s", "better": "higher", "won": 2, "pairs": 4,
        "parent": {"q1": 99.5, "median": 101.0, "q3": 102.5},
        "change": {"q1": 100.25, "median": 105.5, "q3": 112.5}}
    assert got["peak_rss_mb"]["won"] == 2
    assert got["peak_rss_mb"]["parent"] == {"q1": 40.0, "median": 40.5, "q3": 41.25}
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["attempted"] == {"parent": 40, "change": 40}
    one = _load("bench_pairs").summarize(pairs[:1], metrics)["work_per_s"]
    assert one["change"] == {"q1": 110, "median": 110, "q3": 110} and one["won"] == 1


def test_output_check_compares_bytes_and_manifests_without_wall_s(tmp_path):
    # synthetic trees, not runs: equal files, a byte that differs, a file one
    # side lacks, and manifests that differ in wall_s alone or elsewhere too
    compare = _load("output_check").compare
    a, b = tmp_path / "parent", tmp_path / "change"
    manifest = {"command": "simulate", "run": {"steps_accepted": 12,
                                               "wall_s": {"integrate": 0.5, "write": 0.1}}}
    files = {
        "run/same.csv": (b"t,x\n0.0,1.0\n", b"t,x\n0.0,1.0\n"),
        "run/byte.csv": (b"t,x\n0.0,1.0\n", b"t,x\n0.0,1.5\n"),
        "run/only_parent.json": (b"{}\n", None),
        "streams/00.txt": (b"0 simulate\n", b"0 simulate\n"),
        "run/timed.csv.manifest.json": (
            json.dumps(manifest, indent=2).encode(),
            json.dumps({**manifest, "run": {**manifest["run"],
                                            "wall_s": {"integrate": 0.7}}}).encode()),
        "run/counted.csv.manifest.json": (
            json.dumps(manifest).encode(),
            json.dumps({**manifest, "run": {**manifest["run"], "steps_accepted": 13}}).encode()),
        "run/cut.csv.manifest.json": (b'{"run": {"wall_s"', b'{"run": {"wall_s" '),
    }
    for name, sides in files.items():
        for root, data in zip((a, b), sides):
            if data is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_bytes(data)
    assert compare(a, b) == (7, ["run/byte.csv", "run/counted.csv.manifest.json",
                                 "run/cut.csv.manifest.json", "run/only_parent.json"])
    assert compare(a, a) == (7, [])
