import contextlib
import io
import json
import math
import operator
import os
import re
import shlex
import signal
import stat
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    TimeLimitExceeded,
    bits,
    random_flat_state,
    typed_casimirs,
    typed_hilbert,
    typed_left_reduce,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretop import cli, dynamics
from spheretop.cli import main
from spheretop.dynamics import Trajectory, drift_summary, trajectory_csv
from spheretop.phase_space import (
    MODEL_RANGE,
    MassParams,
    Potential,
    from_body_coords,
    random_phase_state,
    to_body_coords,
)
from spheretop.poisson import GENERATORS
from spheretop.reduction import INVARIANT_CSV_COLUMNS, InvariantPoint, stratum_classify


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
        run_record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        record = run_record["collision"]
        assert record["level"] == "left"
        assert 0.0 < record["time"] < 50.0
        assert record["message"].startswith("collision")
        # and what ran up to there
        assert run_record["steps_accepted"] > 0 and run_record["steps_rejected"] >= 0
        assert run_record["rhs_evals"] > 12 * run_record["steps_accepted"]
        assert 0.0 < run_record["step_min"] <= run_record["step_max"]
        assert run_record["wall_s"]["integrate"] > 0.0
        # the generic step's time and count, which the inlined 10-d field
        # keeps: a stage that raises counts as the call it replaced
        assert (record["time"], run_record["rhs_evals"]) == (0.44658125601034065, 176_441)
        # the crawl toward the guard is chaotic, so its count is only a pin;
        # the time must stop short of the exact guard crossing t*, the
        # quadrature of the head-on motion, and close to it
        t_star = 0.446581256013471
        assert 0.0 < t_star - record["time"] < 5e-12

    @pytest.mark.parametrize("space", ["full", "left", "invariants"])
    def test_a_collision_at_the_start_takes_no_step(self, tmp_path, capsys, space):
        # g1 = g2 under grav: the first slope of integrate raises
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0],
                                     "g2": [1, 0, 0, 0], "p2": [0, 0, 1, 0]}))
        out = tmp_path / "crash.csv"
        assert run(["simulate", "--state", state, "--space", space, "--out", out]) == 3
        assert "singularity encountered at t = 0.0" in capsys.readouterr().err
        assert not out.exists()
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert (record["collision"]["time"], record["collision"]["level"]) == (0.0, space)
        assert (record["steps_accepted"], record["steps_rejected"], record["rhs_evals"]) == (
            0, 0, 1)
        assert record["step_min"] is None and record["step_max"] is None

    def test_an_unknown_scenario_exits_2_naming_flag_and_choices(self, tmp_path, capsys):
        # it exited 4 with "unknown scenario 'bogus'"
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", "bogus", "--out", out])
        assert exc.value.code == 2
        assert ("argument --scenario: invalid choice: 'bogus' (choose from 're-acute-demo', "
                "'antipodal-rest', 'collision-course', 'random')") in capsys.readouterr().err
        assert not out.exists()

    def test_a_run_without_steps_records_no_step_size(self):
        record = cli._steps_record(Trajectory(ts=[0.0], ys=[(1.0,)]))
        assert record == {"steps_accepted": 0, "steps_rejected": 0, "steps_clipped": 0,
                          "step_min": None, "step_max": None, "rhs_evals": 1}

    def test_negative_horizon_rejected(self, tmp_path, capsys):
        out = tmp_path / "back.csv"
        code = run(["simulate", "--scenario", "re-acute-demo", "--T", "-5", "--out", out])
        assert code == 4
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_horizon_below_the_smallest_step_exits_4(self, tmp_path, capsys):
        # it used to exit 3, its manifest recording a collision at t = 0.0
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--T", "1e-14", "--out", out]) == 4
        err = capsys.readouterr().err
        assert "t_end = 1e-14 is shorter than the smallest step" in err
        assert "singularity" not in err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_projection_is_no_longer_an_option(self, tmp_path, capsys):
        # the unreduced level keeps <g_i, p_i> by construction, so a config
        # that still asks for the projection fails instead of running without it
        out = tmp_path / "x.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"projection": True}))
        assert run(["simulate", "--scenario", "random", "--space", "full", "--T", "1",
                    "--config", cfg, "--out", out]) == 4
        assert "unknown config keys: ['projection']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:  # argparse: an unrecognised argument
            run(["simulate", "--scenario", "random", "--projection", "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_full_level_drifts_little(self, tmp_path):
        # integrating (g, p) drifted 3.9e-10 in H here; (g, B) keeps <g_i, p_i>
        out = tmp_path / "full.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "1", "--space", "full",
                    "--T", "100", "--out", out]) == 0
        drift = json.loads(Path(str(out) + ".drift.json").read_text())
        assert drift["drift_H"] < 1e-10, drift

    @pytest.mark.parametrize("argv", [
        ["--scenario", "random", "--T", 1, "--space", "invariants", "--abs-tol", "1e-300",
         "--rel-tol", "1e-300"],
        ["--potential", "linear:-2.1362455609637445", "--scenario", "collision-course",
         "--space", "full", "--T", 0.1, "--rel-tol", "1e-9", "--abs-tol", "1e-300"],
    ])
    def test_tolerances_whose_error_norm_overflows_exit_4(self, tmp_path, capsys, argv):
        # the first step's norm squared a weighted component past the float
        # range, and both ended in an OverflowError traceback
        out = tmp_path / "x.csv"
        assert run(["simulate", *argv, "--out", out]) == 4
        assert "error: abs_tol = 1e-300 with rel_tol = " in capsys.readouterr().err
        assert not out.exists()

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

    def test_too_many_sample_rows_exit_4(self, tmp_path, capsys):
        # every row is held in memory; 1e12 rows used to grow until the host
        # ran out
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--T", "1", "--sample-dt", "1e-12",
                    "--out", out]) == 4
        err = capsys.readouterr().err
        assert "sample_dt = 1e-12" in err and "cap of 1000000" in err
        assert not out.exists()

    def test_sample_step_below_the_landing_tolerance_exits_4(self, tmp_path, capsys):
        # it used to exit 3, reported as a singularity at t = 0.0
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--T", "1", "--sample-dt", "1e-14",
                    "--out", out]) == 4
        err = capsys.readouterr().err
        assert "sample_dt = 1e-14" in err and "landing tolerance" in err
        assert "singularity" not in err
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

    @pytest.mark.parametrize("entries, message", [
        ({"T": "10"}, "config T must be a number"),
        ({"T": None}, "config T must be a number"),
        ({"seed": 1.5}, "config seed must be an integer"),
        ({"sample_dt": True}, "config sample_dt must be a number"),
        ({"scenario": 3}, "config scenario must be one of"),
        ({"space": "top"}, "config space must be one of"),
        ({"potential": 1.0}, "config potential must be a string"),
        ({"scenario": "bogus"}, "config scenario must be one of ['re-acute-demo', "
                                "'antipodal-rest', 'collision-course', 'random'], as for "
                                "--scenario, got 'bogus'"),
    ])
    def test_config_value_of_the_wrong_type_exits_4(self, tmp_path, capsys, entries, message):
        # a string T used to end in a TypeError traceback and exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--config", cfg, "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_of_the_flag_types_run(self, tmp_path):
        # an integer where a float flag is, and null where the default is unset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 1, "m1": 2, "alpha": None, "space": "full",
                                   "seed": 4}))
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--config", cfg, "--out", out]) == 0
        assert json.loads(Path(str(out) + ".manifest.json").read_text())["config"]["T"] == 1

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["simulate", "--scenario", "random", "--config", cfg,
                    "--out", tmp_path / "x.csv"]) == 4
        assert "must hold a JSON object" in capsys.readouterr().err

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
                seen["calls"] = {name: [] for name in seen["funcs"]}

                def wrap(name, fn):
                    def counted(y):  # a block of rows: record how many
                        seen["calls"][name].append(len(y[0]))
                        return fn(y)
                    return counted

                return {name: wrap(name, fn) for name, fn in seen["funcs"].items()}
            return make

        monkeypatch.setattr(cli, "integrate", integrate)
        for space, (enter, make_rhs, make_funcs, *rest) in list(cli._SPACES.items()):
            monkeypatch.setitem(cli._SPACES, space, (enter, make_rhs, counting(make_funcs), *rest))
        return seen

    @pytest.mark.parametrize("space", ["full", "left", "right", "invariants"])
    def test_each_invariant_is_evaluated_once_per_row(self, tmp_path, monkeypatch, space):
        # once per block of rows, each row in one block: 21 rows in blocks of
        # 8 are three calls
        monkeypatch.setattr(dynamics, "SAMPLE_BLOCK_ROWS", 8)
        seen = self._record_run(monkeypatch)
        out = tmp_path / "run.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "5", "--space", space,
                    "--T", "2", "--out", out]) == 0
        traj, funcs = seen["traj"], seen["funcs"]
        assert len(traj.ys) == 21
        assert seen["calls"] == {name: [8, 8, 5] for name in funcs}
        # the one-pass output is what mapping and evaluating row by row gives
        leave = cli._SPACES[space][4]
        assert out.read_text() == _csv_row_by_row(traj, self.LABELS[space], funcs, leave)
        rows = [leave(y) for y in traj.ys] if leave else traj.ys
        drift = json.loads(Path(str(out) + ".drift.json").read_text())
        assert drift == {f"drift_{k}": v for k, v in drift_summary(
            {name: [fn(y) for y in rows] for name, fn in funcs.items()}).items()}

    def test_a_full_run_of_two_blocks_is_its_rows_csv(self, tmp_path, monkeypatch):
        # more rows than SAMPLE_BLOCK_ROWS: the second block's images and
        # invariants follow the first's in every column
        seen = self._record_run(monkeypatch)
        out = tmp_path / "run.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "2", "--space", "full",
                    "--T", "1.1", "--sample-dt", "0.001", "--out", out]) == 0
        traj = seen["traj"]
        assert dynamics.SAMPLE_BLOCK_ROWS < len(traj.ys) <= 2 * dynamics.SAMPLE_BLOCK_ROWS
        assert out.read_text() == _csv_row_by_row(traj, cli._STATE_LABELS, seen["funcs"],
                                                  from_body_coords)

    @pytest.mark.parametrize("space, name", [
        ("full", "make_body_rhs"), ("left", "make_reduced_rhs"),
        ("right", "make_reduced_rhs"), ("invariants", "make_invariant_rhs")])
    def test_each_level_runs_the_modules_vector_field(self, tmp_path, monkeypatch, space, name):
        # a vector field patched on the module is the one that runs, as a
        # check that perturbs the flow relies on
        real, built = getattr(cli, name), []

        def recording(*args):
            built.append(args[2:])
            return real(*args)

        monkeypatch.setattr(cli, name, recording)
        assert run(["simulate", "--scenario", "random", "--space", space, "--T", 0.5,
                    "--out", tmp_path / "t.csv"]) == 0
        assert built == [(cli.SIDE_RIGHT,) if space == "right" else
                         (cli.SIDE_LEFT,) if space == "left" else ()]

    @pytest.mark.parametrize("space, state_file", [
        ("full", False), ("full", True), ("left", False), ("invariants", False)])
    def test_manifest_counts_the_run(self, tmp_path, monkeypatch, space, state_file):
        # state_file: the scenario's state read from a --state file, as the
        # benchmark gives it
        source = ["--scenario", "random", "--seed", "5"]
        if state_file:
            state = tmp_path / "state.json"
            state.write_text(json.dumps(cli._builtin_scenario("random", 5)[0].to_json_dict()))
            source = ["--state", state, "--potential", "linear:1.0"]
        seen = self._record_run(monkeypatch)
        out = tmp_path / "run.csv"
        assert run(["simulate", *source, "--space", space, "--T", "2", "--out", out]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        traj = seen["traj"]
        assert (record["steps_accepted"], record["steps_rejected"], record["steps_clipped"]) == \
            (traj.n_accepted, traj.n_rejected, traj.n_clipped)
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
        full = tmp_path / "full.csv"
        assert run(["simulate", "--scenario", "random", "--seed", "2", "--space", "full",
                    "--T", "1", "--out", full]) == 0
        lag, grav = tmp_path / "lag.csv", tmp_path / "grav.csv"
        assert run(["reduce", "--trajectory", full, "--potential", "lagrange",
                    "--alpha", "1.5", "--gamma", "0.5", "--out", lag]) == 0
        assert run(["reduce", "--trajectory", full, "--potential", "grav",
                    "--m1", "2.0", "--out", grav]) == 0
        assert lag.read_bytes() == grav.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--potential", "bogus"], ["--m1", "-1"], ["--m1", "nan"], ["--m2", "inf"],
        ["--potential", "lagrange"], ["--potential", "lagrange", "--alpha", "1.0"],
    ], ids=["potential", "negative-mass", "nan-mass", "inf-mass", "lagrange", "no-gamma"])
    def test_bad_shared_flags_exit_4(self, tmp_path, capsys, flags):
        # reduce used to echo these into its manifest and exit 0
        full = tmp_path / "full.csv"
        assert run(["simulate", "--scenario", "random", "--space", "full", "--T", "0.5",
                    "--out", full]) == 0
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", full, *flags, "--out", out]) == 4
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

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


def _csv_row_by_row(traj, labels, funcs, leave):
    """The CSV of a run built one row at a time: each recorded state mapped
    by ``leave`` (when given), each function evaluated on that row, and the
    row joined from the ``repr`` of its floats."""
    lines = [",".join(["t", *labels, *funcs])]
    for t, y in zip(traj.ts, traj.ys):
        row = leave(y) if leave else y
        lines.append(",".join(map(repr, (t, *row, *(fn(row) for fn in funcs.values())))))
    return "\n".join(lines) + "\n"


def _python_drift(columns):
    """``drift_summary`` as it was written row by row, with Python's ``max``."""
    return {name: max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0]))
            for name, vals in columns.items()}


class TestSampleBlocks:
    """``simulate``'s block path gives, bit for bit, the states, columns, CSV
    and drift of mapping and evaluating each row alone, and leaves the
    trajectory as the integrator recorded it."""

    STATES = {"grav": lambda rng: cli._builtin_scenario("re-acute-demo", 0)[0],
              "linear:-0.7": random_phase_state, "lagrange": random_phase_state}

    @pytest.mark.parametrize("block_rows", [7, 10])  # 31 rows: a last block of 3, or of 1
    @pytest.mark.parametrize("potential", list(STATES))
    @pytest.mark.parametrize("space", ["full", "left", "right", "invariants"])
    def test_blocks_give_the_rows_bits(self, monkeypatch, space, potential, block_rows):
        monkeypatch.setattr(dynamics, "SAMPLE_BLOCK_ROWS", block_rows)
        cfg = {"m1": 0.8, "m2": 1.9, "potential": potential, "alpha": 1.5, "gamma": 1.0}
        given = {"alpha", "gamma"} if potential == "lagrange" else {"m1", "m2"}
        if potential == "grav":
            cfg.update(m1=1.0, m2=1.0)
        m, pot, _, _ = cli._masses_potential(cfg, given)
        enter, make_rhs, make_funcs, labels, leave = cli._SPACES[space]
        state = self.STATES[potential](np.random.default_rng(8))
        traj = dynamics.integrate(make_rhs(m, pot), enter(state), 3.0, dynamics.FlowConfig(),
                                  sample_dt=0.1)
        assert len(traj.ys) == 31
        funcs = make_funcs(m, pot)
        record = [bits(y) for y in traj.ys]
        rows = [leave(y) for y in traj.ys] if leave else traj.ys
        want = {name: [fn(y) for y in rows] for name, fn in funcs.items()}
        states, got = dynamics.sample_blocks(traj, funcs, leave)
        assert [bits(y) for y in traj.ys] == record  # the integrator's record is kept
        assert [bits(c) for c in states] == [bits(c) for c in zip(*rows)]
        assert all(type(c) is float for col in states for c in col)
        assert {k: bits(v) for k, v in got.items()} == {k: bits(v) for k, v in want.items()}
        assert all(type(c) is float for col in got.values() for c in col)
        assert (trajectory_csv(traj.ts, labels, states, got)
                == _csv_row_by_row(traj, labels, funcs, leave))
        assert ({k: v.hex() for k, v in drift_summary(got).items()}
                == {k: v.hex() for k, v in _python_drift(want).items()})

    def test_a_full_trajectory_keeps_its_body_coordinates(self):
        # sampling maps each row to (g, p) for the CSV, but the trajectory
        # stays in the integrator's (g, B): its rows, and the very tuples
        m, pot = MassParams(1.0, 1.3), Potential.linear(0.9)
        y0 = to_body_coords(random_phase_state(np.random.default_rng(3), momentum_scale=0.5))
        traj = dynamics.integrate(dynamics.make_body_rhs(m, pot), y0, 2.0, sample_dt=0.25)
        ys, record = list(traj.ys), [bits(y) for y in traj.ys]
        states, _ = dynamics.sample_blocks(traj, dynamics.invariants_state(m, pot),
                                           from_body_coords)
        assert [bits(y) for y in traj.ys] == record and all(map(operator.is_, traj.ys, ys))
        assert bits(traj.ys[0]) == bits(y0)
        assert traj.ys[0][4:8] != tuple(c[0] for c in states[4:8])  # B1 is not p1
        assert [bits(c) for c in states] == [bits(c) for c in zip(*map(from_body_coords, ys))]

    @pytest.mark.parametrize("vals", [
        [1.0, 2.0, math.nan, 0.5], [math.nan, 1.0, 2.0], [math.inf, 1.0, math.inf],
        [1.0, math.inf, math.nan, -math.inf], [-0.0, 0.0, -0.0], [1e308, -1e308, 0.0],
        [-3.0, -3.0 + 1e-15, -2.5], [0.25]])
    def test_drift_passes_over_nan_as_max_does(self, vals):
        got, want = drift_summary({"Q": vals})["Q"], _python_drift({"Q": vals})["Q"]
        assert got.hex() == want.hex()


class TestReduceRows:
    """``reduce`` rows against the typed values, and the inputs it rejects."""

    UNIT = {"g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0], "g2": [0, 0, 1, 0], "p2": [0, 0, 0, 1]}

    def _state(self, tmp_path, **changes):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**self.UNIT, **changes}))  # NaN is written as NaN
        return path

    def _trajectory(self, tmp_path, rows):
        path = tmp_path / "full.csv"
        lines = [",".join(("t", *cli._STATE_LABELS))]
        lines += [",".join(map(repr, (t, *v))) for t, v in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rows_are_the_typed_values(self, tmp_path):
        rng = np.random.default_rng(17)
        rows = [(0.1 * i, random_flat_state(rng)) for i in range(200)]
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", self._trajectory(tmp_path, rows),
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == len(rows) + 1
        for line, (t, v) in zip(lines[1:], rows):
            pt = typed_hilbert(typed_left_reduce(v))
            stratum = stratum_classify(InvariantPoint.from_tuple(pt))
            assert line == ",".join((*map(repr, (t, *pt, *typed_casimirs(pt))), stratum))

    def test_manifest_records_the_run(self, tmp_path):
        unit = tuple(float(c) for part in self.UNIT.values() for c in part)
        rows = [(0.5 * i, unit) for i in range(3)]
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", self._trajectory(tmp_path, rows),
                    "--out", out]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert record["rows"] == 3
        assert set(record["wall_s"]) == {"read", "reduce", "write"}
        assert all(v >= 0.0 for v in record["wall_s"].values())

    def test_nan_state_is_bad_input_not_a_collision(self, tmp_path, capsys):
        # simulate used to exit 3, "singularity encountered at t = 0.0"
        state = self._state(tmp_path, g1=[math.nan, 0, 0, 0])
        out = tmp_path / "run.csv"
        assert run(["simulate", "--state", state, "--out", out]) == 4
        assert "state components must be finite" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("g1, message", [
        ([math.nan, 0, 0, 0], "must be finite"),  # wrote a NaN row, exit 0
        ([0, 0, 0, 0], "unit sphere"),  # a ZeroDivisionError traceback, exit 1
        ([2, 0, 0, 0], "unit sphere"),  # exit 0, where simulate rejects it
    ], ids=["nan", "zero", "off-sphere"])
    def test_reduce_validates_its_state_as_simulate_does(self, tmp_path, capsys, g1, message):
        state = self._state(tmp_path, g1=g1)
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--state", state, "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", "--state", state, "--out", tmp_path / "run.csv"]) == 4

    @pytest.mark.parametrize("text", [
        '{"g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0], "g2": [0, 0, 1, 0]}',
        '{"g1": [1, 0, 0, 0], "p1": [0, 1, 0, 0], "g2": [0, 0, 1, 0], "p2": 5}',
        '{"g1": [1, 0, 0], "p1": [0, 1, 0, 0], "g2": [0, 0, 1, 0], "p2": [0, 0, 0, 1]}',
        '{"g1": [1, 0, 0, null], "p1": [0, 1, 0, 0], "g2": [0, 0, 1, 0], "p2": [0, 0, 0, 1]}',
        '[1, 2]',
    ], ids=["missing", "number", "short", "null", "list"])
    def test_a_malformed_state_file_exits_4(self, tmp_path, capsys, text):
        # each used to exit 1 with a KeyError or TypeError traceback
        state = tmp_path / "state.json"
        state.write_text(text)
        for cmd in ("simulate", "reduce"):
            assert run([cmd, "--state", state, "--out", tmp_path / "out.csv"]) == 4, cmd
            assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("cells, message", [
        ({"p1y": "nan"}, "non-finite"), ({"t": "nan"}, "non-finite"),
        ({"g2z": "inf"}, "non-finite"), ({"p2w": "x"}, "not a number"),
        ({"g1w": "0.0", "g1x": "-0.0", "g1y": "0.0", "g1z": "0.0"}, "g1 or g2 zero"),
        ({"g2w": "0.0", "g2x": "0.0", "g2y": "0.0", "g2z": "0.0"}, "g1 or g2 zero"),
    ], ids=["nan", "nan-t", "inf", "text", "zero-g1", "zero-g2"])
    def test_reduce_trajectory_rejects_a_bad_row_by_its_t(self, tmp_path, capsys, cells,
                                                          message):
        full = tmp_path / "full.csv"
        assert run(["simulate", "--scenario", "random", "--space", "full", "--T", "1",
                    "--out", full]) == 0
        lines = full.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[4].split(",")
        for name, cell in cells.items():
            row[header.index(name)] = cell
        lines[4] = ",".join(row)
        full.write_text("\n".join(lines) + "\n")
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", full, "--out", out]) == 4
        err = capsys.readouterr().err
        assert f"trajectory row t = {row[0]} has" in err and message in err
        assert not out.exists()

    # |p1|^2 overflows: k11 is inf and C1, C2 NaN
    OVERFLOW = {"g1": [1, 0, 0, 0], "p1": [0, 1e308, 0, 1e308], "g2": [0, 1, 0, 0],
                "p2": [0, 0, 1, 0]}

    @pytest.mark.parametrize("source", ["state", "trajectory"])
    def test_invariants_that_overflow_exit_4_and_keep_the_previous_run(self, tmp_path, capsys,
                                                                        source):
        # the row was written, full_isotropy, with exit 0
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--state", self._state(tmp_path), "--out", out]) == 0
        outputs = (out, Path(str(out) + ".manifest.json"))
        before = [p.read_bytes() for p in outputs]
        if source == "state":
            argv, where = ["--state", self._state(tmp_path, **self.OVERFLOW)], "--state"
        else:
            flat = [tuple(float(c) for part in s.values() for c in part)
                    for s in (self.UNIT, self.OVERFLOW)]
            traj = self._trajectory(tmp_path, [(0.0, flat[0]), (0.5, flat[1])])
            argv, where = ["--trajectory", traj], "trajectory row t = 0.5"
        assert run(["reduce", *argv, "--out", out]) == 4
        assert (f"error: {where}: the invariants or Casimirs are not finite"
                in capsys.readouterr().err)
        assert [p.read_bytes() for p in outputs] == before

    def test_a_state_whose_scale_overflows_the_stratum_bound_gets_a_label(self, tmp_path):
        # k11 = 1e250 and every Casimir finite: the stratum's delta bound
        # raised OverflowError, a traceback with exit 1
        state = self._state(tmp_path, p1=[0, 1e125, 0, 0], g2=[1, 0, 0, 0], p2=[0, 0, 0, 0])
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--state", state, "--out", out]) == 0
        assert out.read_text().splitlines()[1] == (
            "0.0,1e+250,0.0,0.0,0.0,0.0,0.0,1.0,0.0,1.0,1e+250,1e+250,so2_isotropy")

    def test_trajectory_rows_need_not_be_on_the_sphere(self, tmp_path):
        # an unprojected run drifts off |g| = 1; only simulate's input is held to it
        g = (2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        rows = [(0.0, g + (0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0))]
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", self._trajectory(tmp_path, rows),
                    "--out", out]) == 0

    # the reader's contract, which csv.DictReader set: blank lines skipped, a
    # bad row named by its t cell, the first bad row of the file first
    GOOD = "0.5," + ",".join(["1.0", "0.0", "0.0", "0.0"] * 4)

    @pytest.mark.parametrize("bad, message", [
        ("0.7,1.0,0.0", "trajectory row t = 0.7 has a cell that is not a number"),
        (",", "trajectory row t =  has a cell that is not a number"),
        ("0.7," + ",".join(["1.0", "0.0", "x", "0.0"] * 4),
         "trajectory row t = 0.7 has a cell that is not a number"),
        ("0.7," + ",".join(["1.0", "0.0", "nan", "0.0"] * 4),
         "trajectory row t = 0.7 has a non-finite cell"),
        ("inf," + ",".join(["1.0", "0.0", "0.0", "0.0"] * 4),
         "trajectory row t = inf has a non-finite cell"),
        ("0.7," + ",".join(["0.0", "-0.0", "0.0", "1e-200"] + ["1.0", "0.0", "0.0", "0.0"] * 3),
         "trajectory row t = 0.7 has g1 or g2 zero"),
        ("0.7," + ",".join(["1.0", "0.0", "0.0", "0.0"] * 2 + ["0"] * 4 + ["1", "0", "0", "0"]),
         "trajectory row t = 0.7 has g1 or g2 zero"),
    ], ids=["short", "short-no-t", "word", "nan", "inf-t", "g1", "g2"])
    @pytest.mark.parametrize("at", [0, 2, 3, 7])
    def test_a_bad_row_is_named_in_any_block(self, tmp_path, capsys, bad, message, at):
        # the bad row first, or after two, three or seven good rows
        lines = [",".join(("t", *cli._STATE_LABELS)), *[self.GOOD] * 9]
        lines[1 + at] = bad
        path = tmp_path / "full.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", path, "--out", out]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_the_first_bad_row_is_named_whatever_its_fault(self, tmp_path, capsys):
        # a non-finite row before a short one, and a short row after one whose
        # invariants overflow: every row is read and checked before any is reduced
        nan = "0.2," + ",".join(["1.0", "0.0", "nan", "0.0"] * 4)
        big = "0.1," + ",".join(["1.0", "0.0", "0.0", "0.0", "0", "1e308", "0", "1e308"] * 2)
        path, out = tmp_path / "full.csv", tmp_path / "inv.csv"
        for rows, message in (([self.GOOD, nan, "0.3,1"], "t = 0.2 has a non-finite cell"),
                              ([big, self.GOOD, "0.3,1"], "t = 0.3 has a cell that is not"),
                              ([big, nan], "t = 0.2 has a non-finite cell"),
                              ([self.GOOD] * 5 + [big], "t = 0.1: the invariants or")):
            path.write_text("\n".join([",".join(("t", *cli._STATE_LABELS)), *rows]) + "\n")
            assert run(["reduce", "--trajectory", path, "--out", out]) == 4
            assert f"error: trajectory row {message}" in capsys.readouterr().err

    def test_blank_lines_are_skipped_and_blocks_join_up(self, tmp_path):
        rng = np.random.default_rng(29)
        rows = [(0.1 * i, random_flat_state(rng)) for i in range(11)]
        path, out = self._trajectory(tmp_path, rows), tmp_path / "inv.csv"
        assert run(["reduce", "--trajectory", path, "--out", out]) == 0
        whole = out.read_bytes()
        lines = path.read_text().splitlines()
        path.write_text("\n\n".join(lines[:4]) + "\n\n" + "\n".join(lines[4:]) + "\n\n")
        assert run(["reduce", "--trajectory", path, "--out", out]) == 0
        assert out.read_bytes() == whole
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["run"]["rows"] == 11



@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "random", "--T", "1"],
    ["reduce", "--state", "STATE"],
    ["re", "--theta", "1"],
    ["stability", "--theta", "1"],
    ["ec-surface", "--grid", "2", "2"],
], ids=["simulate", "reduce", "re", "stability", "ec-surface"])
def test_out_in_a_missing_directory_or_a_directory_fails_before_any_work(tmp_path, capsys,
                                                                         monkeypatch, argv):
    # stability used to exit 1 with a FileNotFoundError traceback; simulate and
    # ec-surface failed that way only after all of their work
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((cli, "integrate"), (cli, "invariant_map"), (cli, "solve_re"),
                         (cli.ec, "ec_surface")):
        monkeypatch.setattr(module, name, no_work)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(TestReduceRows.UNIT))
    out = tmp_path / "missing" / "x.out"
    argv = [str(state) if a == "STATE" else a for a in argv]
    assert run([*argv, "--out", out]) == 4
    err = capsys.readouterr().err
    assert f"--out {out}" in err and "does not exist" in err
    assert not out.parent.exists()
    # a directory as --out failed with IsADirectoryError after the work
    assert run([*argv, "--out", tmp_path]) == 4
    assert f"--out {tmp_path} is a directory" in capsys.readouterr().err


_COMMANDS = ("simulate", "reduce", "re", "stability", "ec-surface")


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--state"], "--state"),
    (["reduce", "--state"], "--state"),
    (["reduce", "--trajectory"], "--trajectory"),
    *(([cmd, "--config"], "--config") for cmd in _COMMANDS),
], ids=["simulate-state", "reduce-state", "reduce-trajectory",
        *(f"{cmd}-config" for cmd in _COMMANDS)])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_input_file_that_cannot_be_read_exits_4_naming_its_flag(tmp_path, capsys, argv,
                                                                   flag, kind):
    # these exited 1 with a FileNotFoundError or IsADirectoryError traceback
    path = tmp_path / "nope.json" if kind == "missing" else tmp_path
    assert run([*argv, path, "--out", tmp_path / "x.out"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {path}: ")
    assert ("No such file or directory" if kind == "missing" else "Is a directory") in err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--state"], "--state"),
    (["reduce", "--state"], "--state"),
    (["re", "--theta", "1", "--config"], "--config"),
], ids=["simulate-state", "reduce-state", "re-config"])
@pytest.mark.parametrize("text", [b"{bad", b"\xff\xfe{}", b"[" * 10**5 + b"]" * 10**5],
                         ids=["not-json", "not-utf8", "too-deep"])
def test_an_input_file_that_is_not_json_exits_4_naming_its_flag(tmp_path, capsys, argv,
                                                                flag, text):
    # the parse error was printed without the file it came from
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert run([*argv, path, "--out", tmp_path / "x.out"]) == 4
    assert capsys.readouterr().err.startswith(f"error: {flag} {path}: ")
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv, config, a, b", [
    (["simulate", "--scenario", "random", "--state", "STATE"], None, "--state", "--scenario"),
    (["simulate", "--scenario", "random"], {"state": "STATE"}, "--state", "--scenario"),
    (["simulate", "--state", "STATE"], {"scenario": "random"}, "--state", "--scenario"),
    (["reduce", "--state", "STATE", "--trajectory", "TRAJ"], None, "--state", "--trajectory"),
], ids=["simulate-flags", "simulate-config-state", "simulate-config-scenario", "reduce"])
def test_two_input_sources_exit_4_naming_both(tmp_path, capsys, monkeypatch, argv, config,
                                              a, b):
    # simulate ran the scenario and ignored the state; reduce read only the state
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "integrate", no_work)
    monkeypatch.setattr(cli, "invariant_map", no_work)
    paths = {"STATE": tmp_path / "state.json", "TRAJ": tmp_path / "full.csv"}
    paths["STATE"].write_text(json.dumps(TestReduceRows.UNIT))
    paths["TRAJ"].write_text("t\n")
    argv = [str(paths.get(x, x)) for x in argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: str(paths.get(v, v)) for k, v in config.items()}))
        argv += ["--config", str(cfg)]
    assert run([*argv, "--out", tmp_path / "x.out"]) == 4
    err = capsys.readouterr().err
    assert "not both" in err
    assert f"{a} " in err and f"{b} " in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate"], "simulate needs --state or --scenario"),
    (["reduce"], "reduce needs --state or --trajectory"),
    (["re"], "re needs --theta"),
    (["stability"], "stability needs --theta"),
], ids=["simulate", "reduce", "re", "stability"])
def test_a_missing_input_exits_4_naming_its_flags(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", tmp_path / "x.out"]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.out").exists()


# a short run of each command, which the option-table tests vary by one option
_QUICK = {"simulate": ["--state", "STATE", "--T", "0.5"], "reduce": ["--state", "STATE"],
          "re": ["--theta", "1.0"], "stability": ["--theta", "1.0"],
          "ec-surface": ["--grid", "2", "2"]}


def _quick_run(tmp_path, cmd, *extra):
    """The exit code of the quick run of ``cmd`` with ``extra`` flags, and its --out."""
    state, out = tmp_path / "state.json", tmp_path / "x.out"
    state.write_text(json.dumps(TestReduceRows.UNIT))
    argv = [str(state) if a == "STATE" else a for a in _QUICK[cmd]]
    return run([cmd, *argv, *extra, "--out", out]), out


def _config(tmp_path, entries: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return path


@pytest.mark.parametrize("cmd", _COMMANDS)
def test_a_config_holding_a_default_resolves_as_none(tmp_path, cmd):
    assert _quick_run(tmp_path, cmd)[0] == 0
    manifest = Path(str(tmp_path / "x.out") + ".manifest.json")
    plain = json.loads(manifest.read_text())["config"]
    for opt in cli._COMMANDS[cmd][2]:
        default = list(opt.default) if isinstance(opt.default, tuple) else opt.default
        assert _quick_run(tmp_path, cmd, "--config",
                          _config(tmp_path, {opt.dest: default}))[0] == 0, opt.dest
        assert json.loads(manifest.read_text())["config"] == plain, opt.dest


def _wrong_value(kind):
    """A JSON value that no option of this kind takes."""
    if isinstance(kind, bool):
        return 1
    if isinstance(kind, tuple):
        return [0.5] * len(kind) if isinstance(kind[0], type) else "none-such"
    return {float: "1.0", int: 1.5, str: 1}[kind]


@pytest.mark.parametrize("cmd", _COMMANDS)
def test_a_config_value_of_the_wrong_kind_exits_4_naming_key_and_flag(tmp_path, capsys, cmd):
    for opt in cli._COMMANDS[cmd][2]:
        code, out = _quick_run(tmp_path, cmd, "--config",
                               _config(tmp_path, {opt.dest: _wrong_value(opt.kind)}))
        assert code == 4, opt.dest
        err = capsys.readouterr().err
        assert f"config {opt.dest} must be " in err and f", as for {opt.flag}, " in err, err
        assert not out.exists()


@pytest.mark.parametrize("cmd", _COMMANDS)
def test_help_lists_exactly_the_declared_flags(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        run([cmd, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *(opt.flag for opt in cli._COMMANDS[cmd][2])}


@pytest.mark.parametrize("cmd", _COMMANDS)
@pytest.mark.parametrize("flags, named", [
    (["--alpha", "0.5", "--gamma", "2"], "--alpha"),
    (["--potential", "linear:1", "--gamma", "2"], "--gamma"),
    (["--m1", "3", "--potential", "lagrange", "--alpha", "0.5", "--gamma", "1"], "--m1"),
    (["--m2", "3", "--potential", "lagrange", "--alpha", "0.5", "--gamma", "1"], "--m2"),
], ids=["alpha-grav", "gamma-linear", "m1-lagrange", "m2-lagrange"])
def test_a_flag_that_contradicts_the_potential_exits_4_naming_both(tmp_path, capsys, cmd,
                                                                   flags, named):
    # re ran under grav without alpha and gamma, and under lagrange with
    # m1 = 1/alpha in place of the m1 given
    code, out = _quick_run(tmp_path, cmd, *flags)
    assert code == 4
    err = capsys.readouterr().err
    assert f"{named} contradicts --potential " in err
    assert not out.exists()


def test_a_config_entry_contradicts_the_potential_as_a_flag_does(tmp_path, capsys):
    code, out = _quick_run(tmp_path, "re", "--potential", "lagrange", "--alpha", "0.5",
                           "--gamma", "1", "--config", _config(tmp_path, {"m1": 2.0}))
    assert code == 4
    assert "--m1 contradicts --potential lagrange" in capsys.readouterr().err
    # a scenario's masses are defaults, which the top replaces
    out = tmp_path / "top.csv"
    assert run(["simulate", "--scenario", "random", "--potential", "lagrange", "--alpha", 1,
                "--gamma", 1, "--T", 0.5, "--out", out]) == 0


_POTENTIALS = "use grav, linear:<gamma> with gamma a number, or lagrange"


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("argv, dest, value, message", [
    (["simulate", "--scenario", "random", "--T", 0.5], "seed", -1,
     "--seed -1: the seed must be a non-negative integer"),
    (["re", "--theta", 1.0], "potential", "linear:abc", f"--potential 'linear:abc': {_POTENTIALS}"),
    (["re", "--theta", 1.0], "potential", "linear:", f"--potential 'linear:': {_POTENTIALS}"),
    (["re", "--theta", 1.0], "potential", "bogus", f"--potential 'bogus': {_POTENTIALS}"),
], ids=["seed", "linear-abc", "linear-empty", "bogus"])
def test_a_bad_seed_or_potential_exits_4_naming_flag_and_value(tmp_path, capsys, via, argv,
                                                              dest, value, message):
    # numpy's "expected non-negative integer", float's "could not convert
    # string to float: 'abc'", and a list of potentials without lagrange
    given = ([f"--{dest}", value] if via == "flag"
             else ["--config", _config(tmp_path, {dest: value})])
    out = tmp_path / "x.out"
    assert run([*argv, *given, "--out", out]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_SCENARIOS = next(opt.kind for opt in cli._SIMULATE if opt.dest == "scenario")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("start", [*_SCENARIOS, "state"])
def test_a_negative_seed_is_refused_for_every_start_and_keeps_the_last_run(tmp_path, capsys,
                                                                          via, start):
    # only --scenario random drew from the seed, and only it refused -1
    state = tmp_path / "state.json"
    state.write_text(json.dumps(TestReduceRows.UNIT))
    out = tmp_path / "x.csv"
    argv = ["simulate", *(["--state", state] if start == "state" else ["--scenario", start]),
            "--T", 0.2, "--out", out]
    assert run(argv) == 0
    files = [out, Path(f"{out}.drift.json"), Path(f"{out}.manifest.json")]
    before = [f.read_bytes() for f in files]
    capsys.readouterr()
    given = ["--seed", -1] if via == "flag" else ["--config", _config(tmp_path, {"seed": -1})]
    assert run([*argv, *given]) == 4
    assert capsys.readouterr().err == "error: --seed -1: the seed must be a non-negative integer\n"
    assert [f.read_bytes() for f in files] == before


@pytest.mark.parametrize("cmd", ["re", "simulate", "ec-surface"])
@pytest.mark.parametrize("gamma", ["nan", "inf", "1e400"])
def test_a_non_finite_linear_gamma_exits_4_naming_flag_and_value(tmp_path, capsys, cmd, gamma):
    # Potential.linear's own message named neither the flag nor the value
    code, out = _quick_run(tmp_path, cmd, "--potential", f"linear:{gamma}")
    assert code == 4
    assert capsys.readouterr().err == (f"error: --potential 'linear:{gamma}': "
                                       "gamma must be finite\n")
    assert not out.exists()


def _readme_commands() -> list[list[str]]:
    """The argv of each ``spheretop`` line in the README's shell blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [line.strip() for b in blocks for line in b.replace("\\\n", " ").splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("spheretop ")]


def test_readme_command_lines_parse():
    # a flag renamed or dropped in an option table fails here, not in the docs
    commands = _readme_commands()
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown flag or a bad value


class TestDispatch:
    """``main`` reads a plain argv from the command's option table and hands
    any other to that command's own parser; the top-level parser serves only
    an argv whose first word is not a command."""

    @pytest.mark.parametrize("argv", [[cmd] for cmd in _COMMANDS] + _readme_commands(),
                             ids=lambda argv: " ".join(argv))
    def test_a_commands_parser_resolves_the_config_of_the_top_level_one(self, argv):
        parser = cli.build_parser()
        top = vars(parser.parse_args(argv))
        assert top.pop("cmd") == argv[0]
        own = parser.commands[argv[0]].parse_args(argv[1:])
        assert vars(own) == top
        options = cli._COMMANDS[argv[0]][2]
        assert cli._resolve(own, options) == cli._resolve(parser.parse_args(argv), options)

    def test_a_command_never_reaches_the_top_level_parser(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(cli._parser(), "parse_args", refuse)
        for cmd in _COMMANDS:
            assert _quick_run(tmp_path, cmd)[0] == 0, cmd
        with pytest.raises(AssertionError, match="top-level"):
            run(["nosuch"])

    @pytest.mark.parametrize("argv, code", [
        ([], 2), (["-h"], 0), (["--version"], 0), (["nosuch"], 2), (["ec-surface", "--help"], 0),
    ], ids=["bare", "help", "version", "nosuch", "ec-surface-help"])
    def test_help_version_and_bad_commands_keep_their_text(self, capsys, argv, code):
        # each as the top-level parser alone prints it
        texts = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == code
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        if argv == ["--version"]:
            assert texts[0].out == f"{cli.__version__}\n"

    def test_main_without_argv_reads_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "re.json"
        monkeypatch.setattr("sys.argv", ["spheretop", "re", "--theta", "1.0", "--out", str(out)])
        assert main() == 0
        assert json.loads(out.read_text())["kind"] == "acute"

    def test_an_unknown_flag_is_reported_under_the_commands_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["re", "--theta", "1.0", "--bogus", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spheretop re [-h] [--config CONFIG]")
        assert err.endswith("\nspheretop re: error: unrecognized arguments: --bogus 1\n")


# value tokens: edge numbers, spellings that float and int take, and tokens
# that argparse reads as a flag or as a value
_EDGE_TOKENS = ("0", "-0.0", "5e-324", "1e308", "nan", "inf", "-inf", "-1", "-2.5", "-1e-3",
                "1_0", " 2", "", "-", "bogus", "-1e+16", "-1e3", "-x", "-nan", "-Infinity",
                "-1_0", "-1 ")


def _flag_tokens(opt: cli.Opt):
    """Strategy: ``opt``'s flag and values of its kind, or edge tokens."""
    kind, choices, n = opt.shape()
    if kind is bool:
        return st.just([opt.flag])
    typed = (st.sampled_from(choices) if choices else
             (st.floats() | st.floats(-100.0, 100.0)).map(repr) if kind is float else
             st.integers(-3, 300).map(str) if kind is int else
             st.sampled_from(["grav", "lagrange", "linear:-1.5", "x.csv"]) | st.text(max_size=3))
    values = st.lists(typed | st.sampled_from(_EDGE_TOKENS), min_size=n or 1, max_size=n or 1)
    return values.map(lambda vals: [opt.flag, *vals])


# each command's options, --config first as build_parser adds it, and the
# strategy of one of them with its values
_OPTIONS = {name: (cli.Opt("config", str), *options)
            for name, (_, _, options) in cli._COMMANDS.items()}
_FLAG_ITEMS = {name: st.one_of(*map(_flag_tokens, options)) for name, options in _OPTIONS.items()}


@st.composite
def _command_argvs(draw):
    """A command and an argv drawn from its option table, flags repeated; half
    of them hold one token that argparse alone reads (an abbreviation,
    ``--flag=value``, ``--``, help or a stray word), and a quarter lose their
    last token."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    items = draw(st.lists(_FLAG_ITEMS[name], max_size=6))
    argv = [token for item in items for token in item]
    if draw(st.booleans()):
        flag = draw(st.sampled_from(_OPTIONS[name])).flag
        odd = draw(st.sampled_from([flag[:-1], flag[:4], f"{flag}=3", "--grid=3", "--",
                                    "--help", "-h", "bogus"]))
        argv.insert(draw(st.integers(0, len(argv))), odd)
    if argv and draw(st.integers(0, 3)) == 0:
        argv.pop()
    return name, argv


class TestTableArgs:
    """``cli._table_args`` gives the namespace of the command's own parser or
    declines; argparse reads every argv it declines."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_command_argvs())
    @example(("ec-surface", ["--tau-min", "-2.9", "--grid", "3", "-1"]))
    @example(("ec-surface", ["--tau-min", "-inf"]))
    @example(("re", ["--theta", "-1e-3"]))
    @example(("simulate", ["--out", "-"]))
    @example(("re", ["--potential", "-1", "--theta", "1", "--theta", "2"]))
    @example(("ec-surface", ["--grid", "2", "-1e3", "--m1", "-1e+16"]))
    @example(("ec-surface", ["--out", "--tau-min", "-1e-3"]))
    @example(("re", ["--theta", "-x", "--eta", "-"]))
    @example(("re", ["--theta", "-1e-3", "--", "--eta", "-1e-3"]))
    def test_the_table_gives_argparses_namespace_or_declines(self, drawn):
        name, argv = drawn
        table = cli._table_args(name, argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = cli._parser().commands[name].parse_args(cli._attach_numbers(name, argv))
            except SystemExit:  # help, or a usage error
                parsed = None
        if table is not None:
            # repr tells NaN from NaN as equal and -0.0 from 0.0 as different
            assert parsed is not None
            assert repr(sorted(vars(table).items())) == repr(sorted(vars(parsed).items()))

    @pytest.mark.parametrize("argv", _readme_commands() + [
        ["ec-surface", "--tau-min", "-2.9", "--tau-max", "-.5", "--grid", "3", "24",
         "--workers", "1", "--plot-script", "--out", "x.csv"]], ids=" ".join)
    def test_a_plain_argv_is_read_from_the_table(self, argv):
        table = cli._table_args(argv[0], argv[1:])
        assert table is not None
        assert table == cli._parser().commands[argv[0]].parse_args(argv[1:])

    @pytest.mark.parametrize("flag, value", [("--tau-min", "-1e-3"), ("--m1", "-1e+16"),
                                             ("--theta-min", "-inf")])
    def test_a_negative_value_argparse_takes_for_a_flag_reads_as_its_equals_form(
            self, tmp_path, monkeypatch, capsys, flag, value):
        # argparse read each value as a flag and exited 2, where the = form
        # ran (exit 0) or was refused by name (exit 4)
        seen = []
        for i, spelled in enumerate(([flag, value], [f"{flag}={value}"])):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            code = main(["ec-surface", "--grid", "2", "2", *spelled, "--out", "s.csv"])
            files = {}
            for path in sorted(Path().iterdir()):
                files[path.name] = path.read_text()
                if path.name.endswith(".manifest.json"):
                    record = json.loads(files[path.name])
                    del record["run"]["wall_s"]
                    files[path.name] = record
            seen.append((code, capsys.readouterr(), files))
        assert seen[0] == seen[1]
        assert seen[0][0] == (0 if flag == "--tau-min" else 4)

    @pytest.mark.parametrize("argv", [["re", "--thet", "1.0"], ["re", "--theta=1.0"],
                                      ["re", "--theta", "-x"], ["re", "--"], ["re", "-h"],
                                      ["ec-surface", "--grid", "3"], ["ec-surface", "--family"]])
    def test_an_argv_the_table_declines_goes_to_argparse(self, argv):
        assert cli._table_args(argv[0], argv[1:]) is None


def test_one_invariant_order(tmp_path):
    order = InvariantPoint._fields
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

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_phi1_at_a_singular_theta_exits_4(self, capsys, theta):
        # phi1 was ignored here: the record said phi1 = 0 and the run exited 0
        assert run(["re", "--theta", theta, "--phi1", 0.4, "--potential", "linear:1"]) == 4
        captured = capsys.readouterr()
        assert "phi1 is determined away from theta = pi/2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_a_negative_xi_at_a_singular_theta_exits_4(self, tmp_path, capsys, theta):
        # the record said "xi_mag": -1.0 and the run exited 0
        out = tmp_path / "record.json"
        for cmd, extra in (("re", []), ("stability", []), ("re", ["--out", out])):
            assert run([cmd, "--theta", theta, "--eta", 0.5, "--xi", -1,
                        "--potential", "linear:1", *extra]) == 4
            captured = capsys.readouterr()
            assert "xi_mag = -1.0 must be nonnegative" in captured.err and captured.out == ""
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

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

    @pytest.mark.parametrize("cmd", ["re", "stability"])
    def test_subnormal_rate_exits_4(self, tmp_path, capsys, cmd):
        # y = f sin(theta) / (2 eta) overflowed, and re wrote Infinity and NaN,
        # which are not JSON, and exited 0
        out = tmp_path / "record.json"
        for extra in ([], ["--out", out]):
            assert run([cmd, "--theta", 1.0, "--eta", 1e-310, *extra]) == 4
            captured = capsys.readouterr()
            assert "eta_mag = 1e-310" in captured.err and captured.out == ""
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("cmd", ["re", "stability"])
    def test_an_image_that_overflows_exits_4(self, tmp_path, capsys, cmd):
        # the rates are finite but k11 = x1^2 + y^2 is not: re exited 0 with
        # fixed_point_residual 0.0, and stability exited 4 naming no flag
        out = tmp_path / "record.json"
        assert run([cmd, "--theta", 1.0, "--eta", 1e-300, "--out", out]) == 4
        assert "eta_mag = 1e-300" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_a_record_that_is_not_json_is_not_written(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "record.json"
        monkeypatch.setattr(cli, "lever_residual", lambda re: math.inf)
        assert run(["re", "--theta", 1.0, "--out", out]) == 4
        assert "JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["re", "stability"])
    def test_manifest_times_the_solve_and_the_check(self, tmp_path, capsys, cmd):
        out = tmp_path / "record.json"
        assert run([cmd, "--theta", 1.0, "--out", out]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == cmd
        wall = manifest["run"]["wall_s"]
        assert set(wall) == {"solve", "check", "write"} and all(v >= 0.0 for v in wall.values())
        assert "wall_s" not in json.loads(out.read_text())

    def test_stability_acute_two_body(self, capsys):
        assert run(["stability", "--theta", 0.9, "--eta", 1.2, "--m1", 3,
                    "--m2", 2, "--potential", "grav"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["classification"] == "linearly_stable"
        eigs = [complex(a, b) for a, b in record["eigenvalues"]]
        assert sum(1 for e in eigs if abs(e) < 1e-8) == 4

    @pytest.mark.parametrize("argv", [
        ["--theta", 2.2, "--m1", 3, "--m2", 2, "--potential", "grav"],
        ["--theta", 0.3, "--potential", "lagrange", "--alpha", 2, "--gamma", 1],
        ["--theta", math.pi / 2, "--phi1", 0.5, "--potential", "grav"],
    ], ids=["grav", "lagrange", "right-angled"])
    def test_stability_records_the_spectrum_gap(self, capsys, argv):
        # linearize's eigvals against the structured spectrum the sheets use
        assert run(["stability", *argv]) == 0
        record = json.loads(capsys.readouterr().out)
        assert 0.0 <= record["spectrum_gap"] < 1e-12


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
        (["--workers", 0], "samples its sheets serially"),
        (["--workers", -3], "samples its sheets serially"),
        (["--workers", 2], "samples its sheets serially"),
        (["--family", "isosceles", "--phi1-min", 0.1, "--phi1-max", 0.5],
         "--phi1-min/--phi1-max are for --family rightAngled only, not isosceles"),
        (["--family", "rightAngled", "--phi1-min", 0.1], "set both or neither"),
        (["--family", "rightAngled", "--phi1-max", 0.5], "set both or neither"),
        (["--family", "rightAngled"], "--family rightAngled needs --phi1-min/--phi1-max"),
    ])
    def test_bad_range_or_grid_exits_4(self, tmp_path, capsys, flags, message):
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--m1", 3, "--m2", 2, *flags, "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_a_grid_over_the_sample_cap_exits_4_before_sampling(self, tmp_path, capsys,
                                                                  monkeypatch, via):
        # every node is held in memory, about 0.6 KB each: a 10000 x 10000
        # grid grew until the host ran out
        def no_work(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli.ec, "_sample_block", no_work)
        grid = (["--grid", 1001, 1000] if via == "flag"
                else ["--config", _config(tmp_path, {"grid": [1001, 1000]})])
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", *grid, "--out", out]) == 4
        assert capsys.readouterr().err == ("error: grid 1001 x 1000 asks for 1001000 nodes, "
                                           "more than the cap of 1000000\n")
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_a_grid_of_the_cap_is_sampled_and_one_node_more_is_refused(self, tmp_path, capsys,
                                                                      monkeypatch):
        monkeypatch.setattr(cli.ec, "MAX_SAMPLE_ROWS", 6)
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--grid", 3, 2, "--out", out]) == 0
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert record["samples"] + sum(record["failures"].values()) == 6
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli.ec, "_sample_block", no_work)
        assert run(["ec-surface", "--grid", 7, 1, "--out", out]) == 4
        assert capsys.readouterr().err == ("error: grid 7 x 1 asks for 7 nodes, "
                                           "more than the cap of 6\n")

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_non_integer_workers_in_config_exits_4(self, tmp_path, capsys, workers):
        # the flag is typed int; only a config file can carry another type
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": workers}))
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--config", cfg, "--grid", 3, 3, "--out", out]) == 4
        assert "workers must be an integer" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("entries, message", [
        ({"grid": [2.5, 3]}, "config grid must be a list of 2 values, each an integer"),
        ({"grid": [3, 3, 3]}, "config grid must be a list of 2 values"),
        ({"grid": 3}, "config grid must be a list of 2 values"),
        ({"theta_min": "0.1"}, "config theta_min must be a number"),
        ({"family": "cone"}, "config family must be one of"),
        ({"plot_script": "no"}, "config plot_script must be true or false"),
        ({"out": None}, "config out must be a string"),
    ])
    def test_config_value_of_the_wrong_type_exits_4(self, tmp_path, capsys, entries, message):
        # a float in grid used to end in a TypeError traceback and exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--config", cfg, "--out", out]) == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_set_acute_endpoint_runs_as_given(self, tmp_path, capsys):
        # --theta-max was narrowed to pi/2 - 0.05 without a word, and the
        # manifest recorded the range that did not run
        out = tmp_path / "surf.csv"
        argv = ["ec-surface", "--family", "acute", "--theta-min", 0.5, "--grid", 3, 2, "--out", out]
        assert run([*argv, "--theta-max", 2.5]) == 4
        assert "acute surfaces need theta" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()
        assert run([*argv, "--theta-max", 1.55]) == 0
        thetas = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        assert (min(thetas), max(thetas)) == (0.5, 1.55)
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert (config["theta_min"], config["theta_max"]) == (0.5, 1.55)

    @pytest.mark.parametrize("family, key, edge", [
        ("acute", "theta_max", math.pi / 2 - 0.05), ("obtuse", "theta_min", math.pi / 2 + 0.05)])
    def test_an_unset_endpoint_stops_short_of_a_right_angle(self, tmp_path, family, key, edge):
        # the manifest records the endpoint that ran, not the default
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--family", family, "--grid", 3, 2, "--out", out]) == 0
        thetas = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
        assert (max if key == "theta_max" else min)(thetas) == edge
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert config[key] == edge

    def test_classify_is_no_longer_an_option(self, tmp_path, capsys):
        # every node is labelled, so a config that still sets the switch fails
        # instead of running labelled
        out = tmp_path / "surf.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classify": True}))
        assert run(["ec-surface", "--grid", 2, 2, "--config", cfg, "--out", out]) == 4
        assert "unknown config keys: ['classify']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:  # argparse: an unrecognised argument
            run(["ec-surface", "--grid", 2, 2, "--no-classify", "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_workers_1_runs_the_sheet(self, tmp_path):
        for workers in (["--workers", 1], []):
            out = tmp_path / f"surf{len(workers)}.csv"
            assert run(["ec-surface", "--grid", 3, 3, *workers, "--out", out]) == 0
        assert (tmp_path / "surf0.csv").read_bytes() == (tmp_path / "surf2.csv").read_bytes()

    def test_a_tau_past_the_float_range_is_a_failure_that_names_it(self, tmp_path):
        # each node at tau = -800 or 800 was recorded as the bare
        # "ZeroDivisionError: float division by zero" or "OverflowError: math
        # range error", and counted under those names
        out = tmp_path / "wide.csv"
        assert run(["ec-surface", "--tau-min=-800", "--tau-max", 800, "--grid", 7, 9,
                    "--out", out]) == 0
        failures = json.loads(Path(str(out) + ".failures.json").read_text())
        assert sorted(tau for _, tau, _ in failures) == [-800.0] * 7 + [800.0] * 7
        assert [text for *_, text in failures] == [
            f"ValueError: tau = {tau!r} at theta = {theta!r} leaves the float range: 2 e^tau "
            "or the eta it gives is zero, infinite or NaN" for theta, tau, _ in failures]
        record = json.loads(Path(str(out) + ".manifest.json").read_text())["run"]
        assert (record["samples"], record["failures"]) == (49, {"ValueError": 14})

    def test_manifest_counts_samples_and_failures(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert run(["ec-surface", "--theta-min", 0.4, "--theta-max", 2.6, "--grid", 4, 3,
                    "--out", out]) == 0
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
                    "--plot-script", "--out", out]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "family,theta,tau,H,lam2,rho2,stability"
        assert len(rows) == 101
        assert (tmp_path / "surf.csv.plot.py").exists()
        assert (tmp_path / "surf.csv.manifest.json").exists()

    def test_isosceles_sheet_takes_the_isosceles_re_at_a_right_angle(self, tmp_path, capsys):
        # the middle row of this grid is theta = pi/2
        out = tmp_path / "surf.csv"
        assert run(["ec-surface", "--grid", 3, 4, "--out", out]) == 0
        assert "wrote 12 samples, 0 failures" in capsys.readouterr().out
        rows = out.read_text().strip().splitlines()[1:]
        assert sum(float(r.split(",")[1]) == math.pi / 2 for r in rows) == 4
        assert not Path(str(out) + ".failures.json").exists()


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules other tests imported cannot hide a
    # dependency that the package itself pulls in at start-up: it depends on
    # numpy alone, and a scipy import once made every start about five times
    # slower
    import os
    import subprocess
    import sys

    code = ("import sys\n"
            "import spheretop, spheretop.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'mpmath', 'sympy')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_parser_is_built_on_first_use_and_reused():
    # a fresh interpreter, so that no earlier test has built the parser: a
    # plain argv is read from the option table and builds none; the first
    # argv that argparse must read (an abbreviation) builds it, and later
    # ones reuse it
    import os
    import subprocess
    import sys

    code = ("import contextlib, io\n"
            "from spheretop import cli\n"
            "def built(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes = [cli.main(argv) for _ in range(3)]\n"
            "    info = cli._parser.cache_info()\n"
            "    return codes, info.currsize, info.misses\n"
            "print(built(['re', '--theta', '1.0']), built(['re', '--thet', '1.0']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "([0, 0, 0], 0, 0) ([0, 0, 0], 1, 1)"


class TestOutputFiles:
    """Every file a command leaves is rewritten in place by ``cli._write_output``,
    through ``cli._leave``: its manifest removed before the first output and
    written after the last; a clean sheet removes an earlier ``.failures.json``,
    and a ``simulate`` that exits 3 an earlier trajectory and drift."""

    # a run of each command, and the code it exits with
    _RUNS = {"simulate": (["simulate", "--scenario", "random", "--T", 0.5], 0),
             "collision": (["simulate", "--scenario", "collision-course", "--space", "left",
                            "--T", 1], 3),
             "reduce": (["reduce", "--trajectory", "TRAJ"], 0),
             "re": (["re", "--theta", 1.0], 0),
             "stability": (["stability", "--theta", 1.0], 0),
             "ec-surface": (["ec-surface", "--grid", 3, 3], 0)}

    def _argv(self, tmp_path, command):
        """The argv of ``command``'s run into ``tmp_path / "o"``, and its exit code."""
        argv, code = self._RUNS[command]
        if command == "reduce":
            traj = tmp_path / "t.csv"
            assert run(["simulate", "--scenario", "random", "--space", "full", "--T", 0.5,
                        "--out", traj]) == 0
            argv = [traj if a == "TRAJ" else a for a in argv]
        return [*argv, "--out", tmp_path / "o"], code

    def test_a_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f.txt"
        cli._write_output(str(path), "an older and longer text\n")
        inode = path.stat().st_ino
        cli._write_output(str(path), "new\n")
        assert path.read_bytes() == b"new\n" and path.stat().st_ino == inode
        # and through a command: a smaller sheet over a larger one
        out, fresh = tmp_path / "s.csv", tmp_path / "fresh.csv"
        for grid, path in (((6, 7), out), ((3, 3), out), ((3, 3), fresh)):
            assert run(["ec-surface", "--grid", *grid, "--out", path]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_a_symlinked_out_updates_its_target_and_stays_a_link(self, tmp_path):
        target, link, fresh = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "x.csv"
        target.write_text("an older run's row\n" * 1000)
        link.symlink_to(target)
        for path in (link, fresh):
            assert run(["ec-surface", "--grid", 3, 3, "--out", path]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == fresh.read_bytes()

    def test_an_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("{}\n")
        out.chmod(0o640)
        assert run(["re", "--theta", 1.0, "--out", out]) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        assert "lever_residual" in json.loads(out.read_text())

    def test_dev_null_is_written_without_a_cut(self):
        # ftruncate on a character device fails; the writer does not try
        cli._write_output("/dev/null", "x" * 100_000)

    def test_a_write_that_fails_partway_leaves_no_old_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("o" * 100)
        real_write = cli.os.write

        def short_then_full(fd, data):  # 10 bytes land, then the disk is full
            if short_then_full.calls:
                raise OSError(28, "No space left on device")
            short_then_full.calls += 1
            return real_write(fd, data[:10])

        short_then_full.calls = 0
        monkeypatch.setattr(cli.os, "write", short_then_full)
        with pytest.raises(OSError, match="No space left"):
            cli._write_output(str(path), "n" * 40)
        monkeypatch.undo()
        assert path.read_text() == "n" * 10

    def test_a_clean_rerun_removes_the_earlier_failures(self, tmp_path, capsys):
        # the earlier run's 81 failure records used to stay beside a manifest
        # that counts none; the plot script is a template to edit, so a run
        # without --plot-script leaves it
        out = tmp_path / "s.csv"
        failures, plot = Path(f"{out}.failures.json"), Path(f"{out}.plot.py")
        assert run(["ec-surface", "--family", "obtuse", "--m1", 3, "--m2", 2,
                    "--theta-min", 1.7, "--theta-max", 3.0, "--tau-min", 690, "--tau-max", 712,
                    "--grid", 5, 45, "--plot-script", "--out", out]) == 0
        assert len(json.loads(failures.read_text())) == 81 and plot.exists()
        plot.write_text("# edited\n")
        assert run(["ec-surface", "--grid", 4, 4, "--out", out]) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["run"]["failures"] == {}
        assert not failures.exists() and plot.read_text() == "# edited\n"
        assert len(out.read_text().splitlines()) == 17

    def test_a_simulate_that_exits_3_removes_an_earlier_trajectory(self, tmp_path, capsys):
        # the random run's rows and drift used to stay beside the collision manifest
        out = tmp_path / "t.csv"
        assert run(["simulate", "--scenario", "random", "--T", 1, "--out", out]) == 0
        assert run(["simulate", "--scenario", "collision-course", "--space", "left", "--T", 1,
                    "--out", out]) == 3
        assert not out.exists() and not Path(f"{out}.drift.json").exists()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["scenario"] == "collision-course"
        assert "collision" in manifest["run"]

    def test_a_simulate_that_exits_3_empties_a_symlinked_out(self, tmp_path, capsys):
        # the link stays a link, and its target holds no earlier row
        target, link = tmp_path / "target.csv", tmp_path / "t.csv"
        link.symlink_to(target)
        assert run(["simulate", "--scenario", "random", "--T", 1, "--out", link]) == 0
        assert target.stat().st_size > 0
        assert run(["simulate", "--scenario", "collision-course", "--space", "left", "--T", 1,
                    "--out", link]) == 3
        assert link.is_symlink() and target.read_bytes() == b""
        assert not Path(f"{link}.drift.json").exists()

    def test_only_regular_files_are_removed(self, tmp_path):
        fifo, dangling, plain = tmp_path / "fifo", tmp_path / "dangling", tmp_path / "plain"
        os.mkfifo(fifo)
        dangling.symlink_to(tmp_path / "missing")
        plain.write_text("x\n")
        for path in (fifo, dangling, plain, tmp_path / "absent"):
            cli._remove_output(str(path))
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and dangling.is_symlink()
        assert not (tmp_path / "missing").exists() and not plain.exists()

    @pytest.mark.parametrize("command", _RUNS)
    def test_a_run_cut_while_writing_leaves_no_manifest(self, tmp_path, monkeypatch, command):
        # the manifest is removed before the first output is rewritten and
        # written after the last, so outputs beside none may be mixed; a
        # simulate that exits 3 writes no output, so its manifest is the first
        argv, code = self._argv(tmp_path, command)
        manifest = Path(f"{tmp_path / 'o'}.manifest.json")
        assert run(argv) == code and manifest.exists()
        lands, written = (0 if code == 3 else 1), []

        def full(path, text):  # ``lands`` outputs land, then the disk is full
            if len(written) == lands:
                raise OSError(28, "No space left on device")
            written.append(path)

        monkeypatch.setattr(cli, "_write_output", full)
        with pytest.raises(OSError, match="No space left"):
            run(argv)
        assert written == [str(tmp_path / "o")][:lands] and not manifest.exists()

    @pytest.mark.parametrize("command", _RUNS)
    def test_every_manifest_times_its_write(self, tmp_path, capsys, command):
        argv, code = self._argv(tmp_path, command)
        assert run(argv) == code
        wall = json.loads(Path(f"{tmp_path / 'o'}.manifest.json").read_text())["run"]["wall_s"]
        assert wall["write"] >= 0.0

    def test_a_run_that_fails_while_formatting_leaves_the_previous_run_whole(
            self, tmp_path, monkeypatch, capsys):
        # every text is built before the manifest is removed
        out = tmp_path / "s.csv"
        assert run(["ec-surface", "--grid", 3, 3, "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fails(samples):
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli.ec, "ec_csv", fails)
        with pytest.raises(RuntimeError, match="formatting failed"):
            run(["ec-surface", "--grid", 4, 4, "--out", out])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_every_file_is_written_through_write_output(self):
        # Path.write_text or open(..., "w") truncates on open, which is the
        # slow rewrite.  Only _leave calls the writer and the remover (the
        # remover's cut of a symlink aside), so no output skips the order of
        # the manifest.  Only the package is held to this; scripts/ are
        # studies that write their own files.
        import ast

        callers = {"_write_output": {"_leave", "_remove_output"}, "_remove_output": {"_leave"},
                   "os.open": {"_write_output"}}
        seen, bad = set(), []
        for path in sorted(Path(cli.__file__).resolve().parent.glob("*.py")):
            for top in ast.parse(path.read_text(), str(path)).body:
                owner = top.name if isinstance(top, ast.FunctionDef) else None
                for node in ast.walk(top):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                    owner_id = getattr(getattr(func, "value", None), "id", None)
                    key = "os.open" if (name, owner_id) == ("open", "os") else name
                    where = f"{path.name}:{node.lineno} {key}"
                    if key in callers:
                        seen.add(key)
                        if owner not in callers[key]:
                            bad.append(f"{where} outside {sorted(callers[key])}")
                    elif name in ("write_text", "write_bytes"):
                        bad.append(where)
                    elif name == "open":
                        # open(file, mode) or a path's .open(mode)
                        at = 0 if isinstance(func, ast.Attribute) else 1
                        mode = (node.args[at] if len(node.args) > at else
                                next((k.value for k in node.keywords if k.arg == "mode"), None))
                        if mode is not None and not (isinstance(mode, ast.Constant)
                                                     and not set(mode.value) & set("wax+")):
                            bad.append(where)
        assert seen == set(callers) and not bad, bad


class TestExtremeValues:
    """Extreme and invalid numbers end in a named exit, never a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["stability", "--m2", "5e-324", "--potential", "grav", "--theta", "0.5"],
         "--m1/--m2: mass m2 = 5e-324"),
        (["re", "--m1", "5e-324", "--potential", "grav", "--theta", "2",
          "--eta", "4.796148485423895"], "--m1/--m2: mass m1 = 5e-324"),
        (["stability", "--m2", "3.141592653589793", "--potential", "linear:5e-324",
          "--theta", "1"], "--potential 'linear:5e-324': the force gamma = 5e-324"),
        (["re", "--potential", "lagrange", "--alpha", "1.5", "--gamma", "5e-324",
          "--theta", "1.0"], "the force gamma = 5e-324"),
        (["re", "--m2", "1e-300", "--theta", "1.0"], "--m1/--m2: mass m2 = 1e-300"),
        (["re", "--potential", "lagrange", "--alpha", "1e-300", "--gamma", "1",
          "--theta", "1.0"], "alpha = 1e-300"),
    ])
    def test_tiny_masses_and_forces_exit_4_naming_them(self, capsys, argv, named):
        # a ZeroDivisionError, or the RuntimeError "the position angles do
        # not balance the relative equilibrium", and exit 1
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named} must ") and captured.out == ""

    @pytest.mark.parametrize("m1, m2, theta, eta", [("1e-100", "1e-50", "0.5", "1e100"),
                                                    ("1e100", "3.7", "2.5", "1"),
                                                    ("3.7", "1", "0.5", "1e-100")])
    def test_a_charpoly_that_overflows_exits_4_naming_the_rate(self, capsys, m1, m2, theta,
                                                                eta):
        # masses in range with an extreme rate: charpoly_2body's float **
        # raised an OverflowError
        assert run(["stability", "--m1", m1, "--m2", m2, "--theta", theta, "--eta", eta]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: eta_mag = {float(eta)!r} with masses ")
        assert "characteristic polynomial overflows" in captured.err and captured.out == ""

    def test_a_huge_mass_on_a_sheet_exits_4_naming_it(self, tmp_path, capsys):
        # quartet_roots' Python-float m1 ** 2 overflowed in _block_nodes
        out = tmp_path / "sheet.csv"
        assert run(["ec-surface", "--m1", "1e308", "--potential", "linear:0.5",
                    "--family", "generic", "--grid", "3", "2", "--theta-min", "1e-300",
                    "--tau-max", "-3.4924801448901768", "--out", out]) == 4
        assert capsys.readouterr().err.startswith("error: --m1/--m2: mass m1 = 1e+308 must be")
        assert not out.exists()

    @pytest.mark.parametrize("rel_tol", ["1e-100", "1e-150", "2.220446049250313e-15"])
    def test_a_relative_tolerance_a_double_cannot_resolve_exits_4(self, tmp_path, capsys,
                                                                 rel_tol):
        # it exited 3, "singularity encountered at t = 0.0", after 16
        # rejected steps
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--T", 1, "--space", "invariants",
                    "--abs-tol", rel_tol, "--rel-tol", rel_tol, "--out", out]) == 4
        err = capsys.readouterr().err
        assert f"rel_tol = {rel_tol}: rel_tol must exceed 2.220446049250313e-15" in err
        assert not out.exists()

    def test_the_smallest_relative_tolerance_taken_runs(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--scenario", "random", "--T", 0.1, "--space", "invariants",
                    "--rel-tol", "2.2204460492503136e-15", "--out", out]) == 0

    VALUES = ("0", "-0.0", "5e-324", "1e-300", "1e308", "nan", "inf", "-inf", "-1", "700",
              "710")

    def test_extreme_values_of_re_and_stability_never_raise(self, capsys):
        # each of the masses (or alpha, gamma), theta and eta at each extreme
        # value, one at a time, under each potential at three thetas
        potentials = (["--potential", "grav"], ["--potential", "linear:1.0"],
                      ["--potential", "lagrange", "--alpha", "1.5", "--gamma", "1.0"])
        codes, raised = Counter(), []
        for cmd in ("re", "stability"):
            for pot in potentials:
                model = ["--alpha", "--gamma"] if "lagrange" in pot else ["--m1", "--m2"]
                for theta in ("1.0", "2.0", repr(math.pi / 2)):
                    for flag in (*model, "--theta", "--eta"):
                        for value in self.VALUES:
                            flags = dict(zip(pot[::2], pot[1::2])) | {"--theta": theta}
                            argv = [cmd, *(a for kv in (flags | {flag: value}).items()
                                           for a in kv)]
                            try:
                                codes[run(argv)] += 1
                            except SystemExit as exc:  # argparse refuses the value
                                codes[exc.code] += 1
                            except Exception as exc:  # noqa: BLE001 - the fault to find
                                raised.append((argv, repr(exc)))
                            capsys.readouterr()
        assert raised == []
        assert sum(codes.values()) == 792 and set(codes) <= {0, 2, 4}, codes

    # zeros, the smallest and largest doubles, nan and the infinities, and
    # each family's ends: theta, the acute and obtuse halves, tau near the
    # overflow of exp, and the ends of MODEL_RANGE
    SHEET_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e308, math.nan, math.inf, -math.inf, -1.0,
                    1e-100, 1e100, 0.05, math.pi / 2 - 0.05, math.pi / 2, math.pi / 2 + 0.05,
                    math.pi - 0.05, math.pi, -3.0, 3.0, 700.0, 709.78, 710.0)
    RUN_LIMIT_S = 10.0

    @staticmethod
    @st.composite
    def _sheet_flags(draw):
        """``ec-surface`` flags: the model flags that the drawn potential
        takes, the ranges, the phi1 bounds on the right-angled family, and at
        most one flag that contradicts them; each number from SHEET_VALUES,
        [-4, 4] or (0, 4]."""
        number = (st.sampled_from(TestExtremeValues.SHEET_VALUES) | st.floats(-4.0, 4.0)
                  | st.floats(0.0, 4.0, exclude_min=True))
        family = draw(st.sampled_from(next(o.kind for o in cli._EC if o.dest == "family")))
        potential = draw(st.sampled_from(["grav", "lagrange", "linear"])
                         | number.map(lambda g: f"linear:{g!r}"))
        flags = {"family": family, "potential": potential}
        wanted = [*(("alpha", "gamma") if potential == "lagrange" else ("m1", "m2")),
                  "theta_min", "theta_max", "tau_min", "tau_max",
                  *(("phi1_min", "phi1_max") if family == "rightAngled" else ())]
        floats = [o.dest for o in cli._EC if o.kind is float]
        odd = draw(st.sets(st.sampled_from([*floats, "workers"]), max_size=1))
        for dest in draw(st.sets(st.sampled_from(wanted))) | odd:
            flags[dest] = draw(st.sampled_from([1, 2]) if dest == "workers" else number)
        if draw(st.booleans()):
            flags["grid"] = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        if draw(st.booleans()):
            flags["plot_script"] = True
        return flags

    @contextlib.contextmanager
    def _run_limit(self, argv):
        """Fail the run of ``argv`` by name past ``RUN_LIMIT_S``; the test's
        own limit then resumes with the time it had left."""
        def expire(signum, frame):
            raise TimeLimitExceeded(f"{argv} ran past {self.RUN_LIMIT_S:g} s")

        previous = signal.signal(signal.SIGALRM, expire)
        left, interval = signal.setitimer(signal.ITIMER_REAL, self.RUN_LIMIT_S, 1.0)
        start = time.monotonic()
        try:
            yield
        finally:
            left = max(left - (time.monotonic() - start), 1e-3) if left else 0.0
            signal.setitimer(signal.ITIMER_REAL, left, interval)
            signal.signal(signal.SIGALRM, previous)

    def test_sheets_at_extreme_values_exit_0_2_or_4_and_a_refusal_keeps_the_last_run(
            self, tmp_path):
        out = tmp_path / "sheet.csv"
        kept = (out, Path(str(out) + ".manifest.json"))
        codes = Counter()

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(self._sheet_flags())
        def check(flags):
            argv = ["ec-surface"]
            for dest, value in flags.items():
                argv.append("--" + dest.replace("_", "-"))
                if dest == "grid":
                    argv += map(str, value)
                elif dest != "plot_script":
                    argv.append(value if isinstance(value, str) else repr(value))
            argv += ["--out", str(out)]
            before = [p.read_bytes() if p.exists() else None for p in kept]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), self._run_limit(argv):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses a value
                    code = exc.code
            codes[code] += 1
            assert code in (0, 2, 4), argv
            if code:
                assert [p.read_bytes() if p.exists() else None for p in kept] == before, argv
                return
            cells = [c for line in out.read_text().splitlines()[1:] for c in line.split(",")]
            assert not {"nan", "inf", "-inf"} & set(cells), argv
            constants = []  # NaN, Infinity or -Infinity, which JSON has not
            json.loads(kept[1].read_text(), parse_constant=constants.append)
            assert constants == [], argv

        check()
        assert codes[0] and codes[4], codes

    # T's values and the ends of MODEL_RANGE, for every float flag of simulate
    SIMULATE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e308, math.nan, math.inf, -math.inf, -1.0,
                       *MODEL_RANGE, 700.0, 710.0)
    # a run's horizon and its most sample rows, so that every run stays short;
    # collision-course meets its collision at t = 0.4466 within the horizon
    SIMULATE_T_MAX = 1.0
    SIMULATE_ROWS_MAX = 1000

    @staticmethod
    @st.composite
    def _simulate_flags(draw):
        """``simulate`` flags from its ``Opt`` rows: the model flags that the
        drawn potential takes and any of the others, each float from (0, 4]
        or the positive values of SIMULATE_VALUES, each choice from its
        choices, plus at most one flag given any of SIMULATE_VALUES, [-4, 4]
        or a bad choice; and the start from ``--scenario``, ``--state`` (a
        drawn state, ``_state_json``), or now and then both or neither.  T
        and ``--sample-dt`` are capped where they would run: T at
        SIMULATE_T_MAX, the rows at SIMULATE_ROWS_MAX."""
        cls = TestExtremeValues
        rows = {o.dest: o for o in cli._COMMANDS["simulate"][2]}
        positive = (st.floats(0.0, 4.0, exclude_min=True)
                    | st.sampled_from([v for v in cls.SIMULATE_VALUES if v > 0.0]))
        number = st.sampled_from(cls.SIMULATE_VALUES) | st.floats(-4.0, 4.0)
        potential = draw(st.sampled_from(["grav", "lagrange", "linear"])
                         | number.map(lambda g: f"linear:{g!r}"))
        flags = {"potential": potential} if draw(st.booleans()) else {}
        model = ("alpha", "gamma") if potential == "lagrange" else ("m1", "m2")
        wanted = [*model, "space", "T", "rel_tol", "abs_tol", "sample_dt", "seed"]
        odd = draw(st.sets(st.sampled_from(wanted), max_size=1))
        for dest in draw(st.sets(st.sampled_from(wanted))) | odd:
            kind, choices, _ = rows[dest].shape()
            if choices is not None:
                flags[dest] = "bogus" if dest in odd else draw(st.sampled_from(choices))
            elif kind is int:
                flags[dest] = -1 if dest in odd else draw(st.integers(0, 9))
            else:
                flags[dest] = draw(number if dest in odd else positive)
        source = draw(st.sampled_from(["scenario"] * 9 + ["state"] * 9 + ["both", "neither"]))
        if source in ("scenario", "both"):
            flags["scenario"] = draw(st.sampled_from(rows["scenario"].kind))
        if source in ("state", "both"):
            flags["state"] = draw(cls._state_json())
        t = flags.get("T", rows["T"].default)
        if 0.0 < t < math.inf:
            t = flags["T"] = min(t, cls.SIMULATE_T_MAX)
            dt = flags.get("sample_dt", rows["sample_dt"].default)
            if 0.0 < dt and cls.SIMULATE_ROWS_MAX < t / dt <= dynamics.MAX_SAMPLE_ROWS:
                flags["sample_dt"] = t / cls.SIMULATE_ROWS_MAX
        return flags

    @staticmethod
    @st.composite
    def _state_json(draw):
        """The JSON text of a drawn state: unit positions and tangent momenta
        of a drawn scale, or one position off the sphere or one momentum not
        tangent to it."""
        scale = draw(st.sampled_from([0.0, 1e-300, 1e-100, 1e100, 1e308])
                     | st.floats(0.0, 4.0))
        state = dict(random_phase_state(np.random.default_rng(draw(st.integers(0, 99))),
                                        momentum_scale=scale).to_json_dict())
        fault = draw(st.sampled_from([None, "off_sphere", "not_tangent"]))
        if fault == "off_sphere":
            state["g2"] = [1.001 * c for c in state["g2"]]
        elif fault == "not_tangent":
            state["p1"] = [c + 0.5 * g for c, g in zip(state["p1"], state["g1"])]
        return json.dumps(state)

    def test_simulate_at_extreme_values_exits_0_2_3_or_4_and_a_refusal_keeps_the_last_run(
            self, tmp_path):
        out = tmp_path / "run.csv"
        drift, manifest = Path(f"{out}.drift.json"), Path(f"{out}.manifest.json")
        kept = (out, drift, manifest)
        state_file = tmp_path / "state.json"
        codes = Counter()

        def no_constants(path):  # NaN, Infinity or -Infinity, which JSON has not
            constants = []
            json.loads(path.read_text(), parse_constant=constants.append)
            return constants == []

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(self._simulate_flags())
        def check(flags):
            argv = ["simulate"]
            for dest, value in flags.items():
                if dest == "state":
                    state_file.write_text(value)
                    value = str(state_file)
                argv += ["--" + dest.replace("_", "-"),
                         value if isinstance(value, str) else repr(value)]
            argv += ["--out", str(out)]
            before = [p.read_bytes() if p.exists() else None for p in kept]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), self._run_limit(argv):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses a value
                    code = exc.code
            codes[code] += 1
            assert code in (0, 2, 3, 4), argv
            if code in (2, 4):
                assert [p.read_bytes() if p.exists() else None for p in kept] == before, argv
            elif code == 3:
                assert not out.exists() and not drift.exists() and no_constants(manifest), argv
            else:
                cells = [c for line in out.read_text().splitlines()[1:] for c in line.split(",")]
                assert not {"nan", "inf", "-inf"} & set(cells), argv
                assert no_constants(drift) and no_constants(manifest), argv

        check()
        assert codes[0] and codes[3] and codes[4], codes

