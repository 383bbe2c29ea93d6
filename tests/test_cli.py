import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spheretop import cli
from spheretop.cli import main
from spheretop.dynamics import drift_summary, sample_columns, trajectory_csv
from spheretop.poisson import GENERATORS
from spheretop.reduction import INVARIANT_CSV_COLUMNS, InvariantPoint


def run(args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_re_demo_conserves_everything(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = run(["simulate", "--scenario", "re-acute-demo", "--T", "10",
                    "--out", out])
        assert code == 0
        drift = json.loads((tmp_path / "demo.csv.drift.json").read_text())
        assert all(v < 1e-8 for v in drift.values()), drift
        assert (tmp_path / "demo.csv.manifest.json").exists()
        manifest = json.loads((tmp_path / "demo.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"

    def test_antipodal_rest_is_constant(self, tmp_path):
        out = tmp_path / "rest.csv"
        code = run(["simulate", "--scenario", "antipodal-rest", "--T", "5",
                    "--space", "full", "--out", out])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        first = rows[1].split(",")[1:17]
        for row in rows[2:]:
            assert row.split(",")[1:17] == first

    def test_collision_reports_time(self, tmp_path, capsys):
        out = tmp_path / "crash.csv"
        code = run(["simulate", "--scenario", "collision-course", "--T", "50",
                    "--out", out])
        assert code == 3
        assert "singularity encountered at t" in capsys.readouterr().err
        # no trajectory, but the manifest records where and when the run stopped
        assert not out.exists()
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]["collision"]
        assert record["level"] == "left"
        assert 0.0 < record["time"] < 50.0
        assert record["message"].startswith("collision")

    def test_negative_horizon_rejected(self, tmp_path, capsys):
        out = tmp_path / "back.csv"
        code = run(["simulate", "--scenario", "re-acute-demo", "--T", "-5", "--out", out])
        assert code == 4
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_projection_on_the_invariants_level_exits_4(self, tmp_path, capsys):
        # the 8-d level has no projector; the flag used to be ignored and
        # recorded as on in the manifest
        out = tmp_path / "inv.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"projection": True}))
        for extra in (["--projection"], ["--config", cfg]):
            assert run(["simulate", "--scenario", "random", "--space", "invariants",
                        "--T", "1", "--out", out, *extra]) == 4
            err = capsys.readouterr().err
            assert "--projection" in err and "invariants level" in err
            assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_non_finite_horizon_or_sample_step_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for flag, val, message in (("--T", "inf", "must be positive and finite"),
                                   ("--sample-dt", "nan", "must be positive and finite"),
                                   ("--sample-dt", "-1", "must be positive and finite"),
                                   ("--rel-tol", "nan", "must be finite"),
                                   ("--abs-tol", "inf", "must be finite")):
            flags = {"--T": 1, flag: val}
            assert run(["simulate", "--scenario", "re-acute-demo",
                        *(a for kv in flags.items() for a in kv), "--out", out]) == 4
            assert message in capsys.readouterr().err, flag
            assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "--scenario", "random", "--seed", "7",
                        "--T", "2", "--potential", "linear:1.0", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "random", "seed": 3, "T": 1.0,
                                   "potential": "linear:0.5", "out": "ignored.csv"}))
        out = tmp_path / "run.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["out"] == str(out)
        assert manifest["config"]["potential"] == "linear:0.5"

    def test_flag_overrides_scenario_parameters(self, tmp_path):
        runs = {}
        for i, pot in enumerate(("linear:1.0", "linear:5")):
            out = tmp_path / f"run{i}.csv"
            assert run(["simulate", "--scenario", "random", "--seed", "3", "--T", "1",
                        "--potential", pot, "--out", out]) == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest["config"]["potential"] == pot
            runs[pot] = out.read_text()
        assert runs["linear:1.0"] != runs["linear:5"]

    def test_contradicting_the_re_scenario_fails(self, tmp_path, capsys):
        for flag, val in (("--m1", 3), ("--potential", "linear:1.0")):
            out = tmp_path / "demo.csv"
            assert run(["simulate", "--scenario", "re-acute-demo", "--T", "1",
                        flag, val, "--out", out]) == 4
            assert flag in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenari": "random"}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "x.csv"]) == 4

    LABELS = {"full": cli._STATE_LABELS, "left": cli._REDUCED_LABELS,
              "right": cli._REDUCED_LABELS, "invariants": cli._POINT_LABELS}

    @staticmethod
    def _record_run(monkeypatch):
        """Spy on the next simulate run: its trajectory, its vector-field
        calls, its invariant functions and the calls of each."""
        seen = {"rhs_calls": 0, "calls": {}}
        real_integrate = cli.integrate

        def integrate(rhs, *args, **kwargs):
            def counted(t, y):
                seen["rhs_calls"] += 1
                return rhs(t, y)

            seen["traj"] = real_integrate(counted, *args, **kwargs)
            return seen["traj"]

        def counting(factory):
            def make(m, pot):
                seen["funcs"] = factory(m, pot)
                seen["calls"] = dict.fromkeys(seen["funcs"], 0)

                def wrap(name, fn):
                    def counted(y):
                        seen["calls"][name] += 1
                        return fn(y)
                    return counted

                return {name: wrap(name, fn) for name, fn in seen["funcs"].items()}
            return make

        monkeypatch.setattr(cli, "integrate", integrate)
        for name in ("invariants_state", "invariants_reduced", "invariants_point"):
            monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
        return seen

    @pytest.mark.parametrize("space", ["full", "left", "right", "invariants"])
    def test_each_invariant_is_evaluated_once_per_row(self, tmp_path, monkeypatch, space):
        seen = self._record_run(monkeypatch)
        out = tmp_path / "run.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "5", "--space", space,
                    "--T", "2", "--out", out]) == 0
        traj, funcs = seen["traj"], seen["funcs"]
        assert len(traj.ys) == 21
        assert seen["calls"] == {name: len(traj.ys) for name in funcs}
        # the one-pass output is what evaluating twice used to give
        assert out.read_text() == trajectory_csv(traj, self.LABELS[space],
                                                 sample_columns(traj, funcs))
        drift = json.loads(Path(str(out) + ".drift.json").read_text())
        assert drift == {f"drift_{k}": v
                         for k, v in drift_summary(sample_columns(traj, funcs)).items()}

    @pytest.mark.parametrize("space, projection", [
        ("full", False), ("full", True), ("left", True), ("invariants", False)])
    def test_manifest_counts_the_run(self, tmp_path, monkeypatch, space, projection):
        seen = self._record_run(monkeypatch)
        out = tmp_path / "run.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "5", "--space", space,
                    "--T", "2", "--out", out, *(["--projection"] if projection else [])]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        traj = seen["traj"]
        assert (record["steps_accepted"], record["steps_rejected"]) == \
            (traj.n_accepted, traj.n_rejected)
        assert traj.n_accepted > 0
        assert record["rhs_evals"] == seen["rhs_calls"]
        # every accepted step lies inside one sample interval, and together
        # the steps cover [0, T]
        gaps = [b - a for a, b in zip(traj.ts, traj.ts[1:])]
        assert (record["step_min"], record["step_max"]) == (traj.step_min, traj.step_max)
        assert 0.0 < record["step_min"] <= min(gaps) * (1 + 1e-12)
        assert record["step_min"] <= record["step_max"] <= max(gaps) * (1 + 1e-12)
        assert record["step_min"] * traj.n_accepted <= 2.0 * (1 + 1e-12)
        assert record["step_max"] * traj.n_accepted >= 2.0 * (1 - 1e-12)
        assert set(record["wall_s"]) == {"integrate", "write"}
        assert all(v >= 0.0 for v in record["wall_s"].values())


class TestReduce:
    def test_cocircular_trajectory_is_so2(self, tmp_path):
        state = tmp_path / "state.json"
        th = 0.9
        state.write_text(json.dumps({
            "g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0],
            "g2": [math.cos(th), math.sin(th), 0, 0],
            "p2": [-math.sin(th), math.cos(th), 0, 0],
        }))
        full = tmp_path / "full.csv"
        assert run(["simulate", "--state", state, "--space", "full", "--T", "3",
                    "--potential", "linear:1.0", "--out", full]) == 0
        inv = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", full, "--potential", "linear:1.0",
                    "--out", inv]) == 0
        rows = inv.read_text().strip().splitlines()
        assert rows[0].split(",")[-1] == "stratum"
        assert all(r.split(",")[-1] == "so2_isotropy" for r in rows[1:])

    def test_generic_state_is_free(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({
            "g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0],
            "g2": [0, 0, 1, 0], "p2": [0, 0, 0, 1],
        }))
        out = tmp_path / "one.csv"
        assert run(["reduce", "--state", state, "--potential", "linear:1.0",
                    "--out", out]) == 0
        assert out.read_text().strip().splitlines()[1].split(",")[-1] == "free"

    def test_masses_and_potential_do_not_matter(self, tmp_path):
        # reduce used to resolve the potential it never uses, so 'lagrange'
        # without --alpha/--gamma exited 4
        full = tmp_path / "full.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "2", "--space", "full",
                    "--T", "1", "--out", full]) == 0
        lag, grav = tmp_path / "lag.csv", tmp_path / "grav.csv"
        assert run(["reduce", "--trajectory", full, "--potential", "lagrange",
                    "--out", lag]) == 0
        assert run(["reduce", "--trajectory", full, "--potential", "grav",
                    "--out", grav]) == 0
        assert lag.read_bytes() == grav.read_bytes()

    def test_trajectory_without_the_state_columns_exits_4(self, tmp_path, capsys):
        # a reduced-level trajectory used to fail with a bare KeyError
        left = tmp_path / "left.csv"
        assert run(["simulate", "--scenario", "random", "--space", "left", "--T", "1",
                    "--out", left]) == 0
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", left, "--out", out]) == 4
        err = capsys.readouterr().err
        assert "'g1w'" in err and "'p2z'" in err and "'t'" not in err
        assert "reduce needs a --space full trajectory" in err
        assert not out.exists()

    def test_round_trip_matches_invariant_integration(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({
            "g1": [1, 0, 0, 0], "p1": [0, 0.4, 0.1, 0],
            "g2": [0, 0, 1, 0], "p2": [0, 0.2, 0, -0.3],
        }))
        full = tmp_path / "full.csv"
        inv_direct = tmp_path / "inv_direct.csv"
        for space, out in (("full", full), ("invariants", inv_direct)):
            assert run(["simulate", "--state", state, "--space", space,
                        "--T", "10", "--sample-dt", "1.0",
                        "--potential", "linear:1.0", "--out", out]) == 0
        reduced = tmp_path / "reduced.csv"
        assert run(["reduce", "--trajectory", full, "--potential", "linear:1.0",
                    "--out", reduced]) == 0
        a = np.genfromtxt(reduced, delimiter=",", names=True)
        b = np.genfromtxt(inv_direct, delimiter=",", names=True)
        for col in ("k11", "k12", "k13", "k22", "k23", "k33", "delta", "r"):
            assert np.allclose(a[col], b[col], atol=1e-6), col


def test_one_invariant_order(tmp_path):
    order = tuple(f.name for f in dataclasses.fields(InvariantPoint))
    assert order == ("k11", "k12", "k13", "k22", "k23", "k33", "r", "delta")
    assert GENERATORS == cli._POINT_LABELS == INVARIANT_CSV_COLUMNS == order
    with pytest.raises(TypeError):
        InvariantPoint(0, 0, 0, 0, 0, 0, 0, 1.0)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "g1": [1, 0, 0, 0], "p1": [0, 0.4, 0.1, 0],
        "g2": [0, 0, 1, 0], "p2": [0, 0.2, 0, -0.3],
    }))
    full, inv, red = tmp_path / "full.csv", tmp_path / "inv.csv", tmp_path / "red.csv"
    for space, out in (("full", full), ("invariants", inv)):
        assert run(["simulate", "--state", state, "--space", space, "--T", "1",
                    "--potential", "linear:1.0", "--out", out]) == 0
    assert run(["reduce", "--trajectory", full, "--potential", "linear:1.0",
                "--out", red]) == 0
    for path in (inv, red):
        header = path.read_text().splitlines()[0].split(",")
        assert tuple(c for c in header if c in order) == order, path.name


class TestClassify:
    def test_re_record(self, capsys):
        assert run(["re", "--theta", 1.0, "--eta", 1, "--m1", 1, "--m2", 1,
                    "--potential", "grav"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "acute"
        assert abs(record["lever_residual"]) < 1e-10
        assert record["fixed_point_residual"] < 1e-10

    def test_right_angle_needs_equal_masses(self, capsys):
        assert run(["re", "--theta", math.pi / 2, "--eta", 1, "--m1", 3,
                    "--m2", 2, "--potential", "grav"]) == 4

    def test_stability_upright_top(self, capsys):
        assert run(["stability", "--potential", "lagrange", "--alpha", 2,
                    "--gamma", 1, "--theta", 0.3]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["classification"] == "linearly_unstable"
        assert record["zero_count"] == 4

    def test_lagrange_alpha_outside_its_range_is_rejected(self, capsys):
        for alpha in (0, 3):
            assert run(["stability", "--potential", "lagrange", "--alpha", alpha,
                        "--gamma", 1, "--theta", 0.3]) == 4
            captured = capsys.readouterr()
            assert "alpha" in captured.err and captured.out == ""

    def test_non_finite_numbers_exit_4(self, capsys):
        for cmd, *extra in (("re", "--theta", "nan"), ("re", "--eta", "nan"),
                            ("re", "--eta", "inf"), ("stability", "--theta", "nan"),
                            ("re", "--m1", "inf"),
                            ("re", "--m2", "inf", "--potential", "linear:1"),
                            ("re", "--potential", "linear:nan"),
                            ("re", "--potential", "lagrange", "--alpha", "2",
                             "--gamma", "nan")):
            flags = {"--theta": 1.0, "--eta": 1.0, **dict(zip(extra[::2], extra[1::2]))}
            assert run([cmd, *(a for kv in flags.items() for a in kv)]) == 4, (cmd, extra)
            captured = capsys.readouterr()
            assert "must be finite" in captured.err and captured.out == ""

    def test_stability_acute_two_body(self, capsys):
        assert run(["stability", "--theta", 0.9, "--eta", 1.2, "--m1", 3,
                    "--m2", 2, "--potential", "grav"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["classification"] == "linearly_stable"
        eigs = [complex(a, b) for a, b in record["eigenvalues"]]
        assert sum(1 for e in eigs if abs(e) < 1e-8) == 4


class TestSurfaceCommand:
    def test_non_finite_range_exits_4(self, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--tau-min", "nan", "--grid", 3, 3, "--out", out]) == 4
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".failures.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--family", "obtuse", "--theta-max", 1.0], "obtuse surfaces need theta"),
        (["--family", "acute", "--theta-min", 1.7], "acute surfaces need theta"),
        (["--grid", 0, 5], "grid dimensions must be at least 1"),
        (["--grid", -3, 5], "grid dimensions must be at least 1"),
        (["--workers", 0], "workers must be at least 1"),
        (["--workers", -3], "workers must be at least 1"),
    ])
    def test_bad_range_or_grid_exits_4(self, tmp_path, capsys, flags, message):
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--m1", 3, "--m2", 2, *flags, "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_non_integer_workers_in_config_exits_4(self, tmp_path, capsys, workers):
        # the flag is typed int; only a config file can carry another type
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": workers}))
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--config", cfg, "--grid", 3, 3, "--out", out]) == 4
        assert "workers must be an integer" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_manifest_counts_samples_and_failures(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert run(["ec-surface", "--theta-min", 0.4, "--theta-max", 2.6, "--grid", 4, 3,
                    "--no-classify", "--out", out]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert (record["samples"], record["failures"]) == (12, {})
        assert (record["batch_nodes"], record["scalar_nodes"]) == (12, 0)
        assert set(record["wall_s"]) == {"sample", "write"}
        assert all(v >= 0.0 for v in record["wall_s"].values())

        # right-angled REs need equal masses, so every node fails
        out = tmp_path / "unequal.csv"
        assert run(["ec-surface", "--family", "rightAngled", "--m1", 1, "--m2", 2,
                    "--phi1-min", 0.3, "--phi1-max", 1.2, "--grid", 3, 2,
                    "--out", out]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert (record["samples"], record["failures"]) == (0, {"NoSolutionError": 6})
        assert (record["batch_nodes"], record["scalar_nodes"]) == (0, 6)
        failures = json.loads(Path(str(out) + ".failures.json").read_text())
        assert len(failures) == 6
        assert all(msg.startswith("NoSolutionError: ") for _, _, msg in failures)

    def test_grid_rows_and_plot_script(self, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--family", "isosceles", "--m1", 1, "--m2", 1,
                    "--potential", "grav", "--grid", 10, 10,
                    "--theta-min", 0.4, "--theta-max", 2.6,
                    "--no-classify", "--plot-script", "--out", out]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "family,theta,tau,H,lam2,rho2,stability"
        assert len(rows) == 101
        assert (tmp_path / "surf.csv.plot.py").exists()
        assert (tmp_path / "surf.csv.manifest.json").exists()

    def test_isosceles_sheet_takes_the_isosceles_re_at_a_right_angle(self, tmp_path, capsys):
        # the middle row of this grid is theta = pi/2
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--grid", 3, 4, "--no-classify", "--out", out]) == 0
        assert "wrote 12 samples, 0 failures" in capsys.readouterr().out
        rows = out.read_text().strip().splitlines()[1:]
        assert sum(float(r.split(",")[1]) == math.pi / 2 for r in rows) == 4
        assert not Path(str(out) + ".failures.json").exists()


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported cannot hide a
    # dependency that the package itself pulls in at start-up
    import os
    import subprocess
    import sys

    code = ("import sys\n"
            "import spheretop, spheretop.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_parser_is_built_on_first_use_and_reused():
    # a fresh interpreter, so that no earlier test has built the parser
    import os
    import subprocess
    import sys

    code = ("import contextlib, io\n"
            "from spheretop import cli\n"
            "built = cli._parser.cache_info().currsize\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['re', '--theta', '1.0']) for _ in range(3)]\n"
            "print(built, codes, cli._parser.cache_info().misses)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 [0, 0, 0] 1"
