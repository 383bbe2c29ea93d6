"""Command-line front end: reproducible simulation, reduction, classification,
stability and surface-sampling runs.

Every command takes an optional JSON config file whose entries serve as
defaults for the flags, and writes a manifest (config echo plus version) next
to its outputs so a run can be reproduced from the artifacts alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import operator
import os
import re
import stat
import sys
import time
from array import array
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import __version__
from . import energy_casimir as ec
from . import stability as stab
from .dynamics import (
    FlowConfig,
    HamiltonianKind,
    SingularityError,
    drift_summary,
    integrate,
    invariants_point,
    invariants_reduced,
    invariants_state,
    make_body_rhs,
    make_invariant_rhs,
    make_reduced_rhs,
    sample_blocks,
    trajectory_csv,
)
from .phase_space import (
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    body_frame_vec,
    from_body_coords,
    random_phase_state,
    space_frame_vec,
    tangent_project,
    to_body_coords,
)
from .quaternion import Quaternion, quat_dot_vec
from .reduction import (
    INVARIANT_CSV_COLUMNS,
    SIDE_LEFT,
    SIDE_RIGHT,
    all_casimirs,
    invariant_map,
    stratum_classify,
)
from .relequil import NoSolutionError, lever_residual, re_image, solve_re, verify_re_fixed_point

_STATE_LABELS = ("g1w", "g1x", "g1y", "g1z", "p1w", "p1x", "p1y", "p1z",
                 "g2w", "g2x", "g2y", "g2z", "p2w", "p2x", "p2y", "p2z")
_REDUCED_LABELS = ("A1x", "A1y", "A1z", "A2x", "A2y", "A2z", "gw", "gx", "gy", "gz")
_POINT_LABELS = INVARIANT_CSV_COLUMNS


def _parse_potential(spec: str, masses: MassParams) -> Potential:
    if spec in ("grav", "gravitational"):
        return Potential.gravitational(masses)
    if spec == "linear":
        return Potential.linear(1.0)
    if spec.startswith("linear:"):
        try:
            gamma = float(spec.removeprefix("linear:"))
        except ValueError:  # not a number
            pass
        else:
            try:
                return Potential.linear(gamma)
            except ValueError as exc:  # whose message names no flag
                raise ValueError(f"--potential {spec!r}: {exc}") from None
    raise ValueError(f"--potential {spec!r}: use grav, linear:<gamma> with gamma a number, "
                     "or lagrange")


class Opt(NamedTuple):
    """One option of a command: its config key, its kind and its default.

    The kind is a type (float, int or str), a tuple of the allowed strings, a
    tuple of types for a flag taking one value of each (``--grid``), or True
    for a switch (``--plot-script``)."""

    dest: str
    kind: object
    default: object = None
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.dest.replace("_", "-")

    def shape(self) -> tuple[type, tuple | None, int | None]:
        """(type of each value, allowed values, number of values or None for one)."""
        kind = self.kind
        if isinstance(kind, tuple):
            return (kind[0], None, len(kind)) if isinstance(kind[0], type) else (str, kind, None)
        return (bool if isinstance(kind, bool) else kind), None, None

    def check(self, val) -> None:
        """Reject a config-file value that the flag could not have parsed to.

        A float option takes any JSON number, only a switch takes a bool, and
        null is accepted where the default is unset."""
        if val is None and self.default is None:
            return
        kind, choices, n = self.shape()
        items = [val] if n is None else val if isinstance(val, list) and len(val) == n else [None]
        if not all((kind is bool) == isinstance(v, bool)
                   and isinstance(v, (int, float) if kind is float else kind)
                   and (choices is None or v in choices) for v in items):
            want = _KIND_NAMES[kind] if choices is None else f"one of {list(choices)}"
            if n is not None:
                want = f"a list of {n} values, each {want}"
            raise ValueError(f"config {self.dest} must be {want}, as for {self.flag}, "
                             f"got {val!r}")


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false"}
# the masses and the potential, which every command takes
_MODEL = (Opt("m1", float, 1.0), Opt("m2", float, 1.0),
          Opt("potential", str, "grav", "grav | linear:<gamma> | lagrange"),
          Opt("alpha", float), Opt("gamma", float))


def _open_input(flag: str, path: str, **kw):
    """``open(path, **kw)``, raising ``ValueError`` that names ``flag`` where it fails."""
    try:
        return open(path, **kw)
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror}") from None


def _load_json(flag: str, path: str):
    """The JSON value in ``path``; ``ValueError`` names ``flag`` where it cannot be read."""
    with _open_input(flag, path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ValueError(f"{flag} {path}: {exc}") from None


def _source(cfg: dict, command: str, a: str, b: str) -> str:
    """The one of the flags --a, --b that gives ``command`` its input."""
    if cfg[a] and cfg[b]:
        raise ValueError(f"{command} takes its input from --{a} or --{b}, not both: "
                         f"got --{a} {cfg[a]} and --{b} {cfg[b]}")
    if not (cfg[a] or cfg[b]):
        raise ValueError(f"{command} needs --{a} or --{b}")
    return a if cfg[a] else b


def _resolve(args: argparse.Namespace, options: tuple[Opt, ...]) -> tuple[dict, set]:
    """A run's config, each option's default overridden by its config-file
    entry and then by its flag, and the keys so set (a null entry sets none)."""
    cfg = {o.dest: o.default for o in options}
    given = {o.dest: getattr(args, o.dest) for o in options if getattr(args, o.dest) is not None}
    if args.config:
        file_cfg = _load_json("--config", args.config)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for o in options:
            if o.dest in file_cfg:
                o.check(file_cfg[o.dest])
        cfg.update(file_cfg)
        given = {k: v for k, v in file_cfg.items() if v is not None} | given
    cfg.update(given)
    return cfg, set(given)


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in place: open without truncating, write,
    then cut a regular file to the bytes written.

    A file truncated to zero on open is written back when it is closed on
    some file systems (ext4's ``auto_da_alloc``), which makes each rewrite
    several times slower; writing first also keeps the inode, its links and
    its mode.  The cut runs even when a write fails, so the file then holds
    the new text's head and never an older run's tail; ``/dev/null`` and
    pipes are left uncut.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    done = 0
    try:
        while done < len(data):
            done += os.write(fd, data[done:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
        finally:
            os.close(fd)


def _remove_output(path: str) -> None:
    """Leave no earlier run's text at ``path``: remove a regular file, and cut
    a symlink's regular-file target to zero bytes, so the link stays.  Anything
    else (a device such as ``/dev/null``, a pipe, a directory) is left alone."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    if stat.S_ISREG(mode):
        os.unlink(path)
    elif stat.S_ISLNK(mode) and os.path.isfile(path):
        _write_output(path, "")


def _leave(out: str, command: str, cfg: dict, run: dict, files: dict[str, str | None],
           since: float) -> None:
    """Leave a run's files, then its manifest; every command writes through here.

    Removes ``<out>.manifest.json``, rewrites each of ``files`` in order
    (``<out>`` first) or removes it where its text is None (a sibling an
    earlier run may have left), sets ``run["wall_s"]["write"]`` to the time
    since ``since`` and writes the manifest last.  A run cut on the way
    (killed, or on a full disk) leaves no manifest, or an empty one where it
    is a symlink: the outputs beside none may hold parts of two runs."""
    manifest = out + ".manifest.json"
    _remove_output(manifest)
    for path, text in files.items():
        if text is None:
            _remove_output(path)
        else:
            _write_output(path, text)
    run["wall_s"]["write"] = time.perf_counter() - since
    text = json.dumps({"command": command, "version": __version__, "config": cfg, "run": run},
                      indent=2, sort_keys=True)
    _write_output(manifest, text + "\n")


def _steps_record(traj) -> dict:
    """The step and evaluation counts of a run, for its manifest; the step
    sizes are null when no step was accepted.  ``steps_clipped`` counts the
    accepted steps cut below the controller's step to land on a stop."""
    steps = traj.n_accepted > 0
    return {"steps_accepted": traj.n_accepted, "steps_rejected": traj.n_rejected,
            "steps_clipped": traj.n_clipped, "step_min": traj.step_min if steps else None,
            "step_max": traj.step_max if steps else None, "rhs_evals": traj.rhs_evals}


def _check_out(cfg: dict) -> None:
    """Fail before any work when ``--out`` names a directory or a file in a
    missing directory."""
    out = cfg["out"]
    if out is None:
        return
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {out}: the directory {parent!r} does not exist")
    if os.path.isdir(out or "."):  # an empty --out names the working directory
        raise ValueError(f"--out {out} is a directory, not a file")


def _masses_potential(cfg: dict, given: set) -> tuple[MassParams, Potential,
                                                      float | None, float | None]:
    """Resolve masses and potential; 'lagrange' maps to the top's equivalent
    two-body problem, returning (alpha, gamma) as well.  Its masses are
    1/alpha, so a set --m1 or --m2 contradicts it, as a set --alpha or
    --gamma contradicts any other potential."""
    lagrange = cfg["potential"] == "lagrange"
    for key in ("m1", "m2") if lagrange else ("alpha", "gamma"):
        if key in given:
            raise ValueError(f"--{key} contradicts --potential {cfg['potential']}")
    if lagrange:
        alpha, gamma = cfg["alpha"], cfg["gamma"]
        if alpha is None or gamma is None:
            raise ValueError("potential 'lagrange' requires --alpha and --gamma")
        m, pot = HamiltonianKind.lagrange(alpha, gamma).equivalent_two_body()
        return m, pot, alpha, gamma
    try:
        m = MassParams(cfg["m1"], cfg["m2"])
    except ValueError as exc:  # whose message names no flag
        raise ValueError(f"--m1/--m2: {exc}") from None
    return m, _parse_potential(cfg["potential"], m), None, None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _builtin_scenario(name: str, seed: int) -> tuple[PhaseState, str]:
    """A scenario's start state and potential; its masses are the defaults, 1 and 1."""
    if name == "re-acute-demo":
        m = MassParams(1.0, 1.0)
        s = solve_re(1.0, 1.0, m, Potential.gravitational(m)).state
        p1 = tangent_project(s.p1 + 1e-3 * Quaternion(0.0, 0.0, 0.0, 1.0), s.g1)
        return PhaseState(s.g1, p1, s.g2, s.p2), "grav"
    if name == "antipodal-rest":
        s = PhaseState(Quaternion(1.0), Quaternion(), Quaternion(-1.0), Quaternion())
        return s, "linear:1.0"
    if name == "collision-course":
        g2 = Quaternion(math.cos(1.0), math.sin(1.0), 0.0, 0.0)
        return PhaseState(Quaternion(1.0), Quaternion(0.0, 1.0), g2, Quaternion()), "grav"
    # "random", the last of the choices of --scenario
    return random_phase_state(np.random.default_rng(seed)), "linear:1.0"


# --space: a level's map of the start state, its vector field and invariants
# (each of the masses and potential), CSV labels and map of a sample to (g, p);
# each vector field is looked up when a run starts, so the module's binding
# (patched, say, by a check that perturbs the flow) is the one that runs
_SPACES = {
    "full": (to_body_coords, lambda m, pot: make_body_rhs(m, pot), invariants_state,
             _STATE_LABELS, from_body_coords),
    "left": (body_frame_vec, lambda m, pot: make_reduced_rhs(m, pot, SIDE_LEFT),
             invariants_reduced, _REDUCED_LABELS, None),
    "right": (space_frame_vec, lambda m, pot: make_reduced_rhs(m, pot, SIDE_RIGHT),
              invariants_reduced, _REDUCED_LABELS, None),
    "invariants": (invariant_map, lambda m, pot: make_invariant_rhs(m, pot), invariants_point,
                   _POINT_LABELS, None),
}

_SIMULATE = (
    *_MODEL, Opt("out", str, "trajectory.csv"),
    Opt("state", str, help="JSON file with g1, p1, g2, p2"),
    Opt("scenario", ("re-acute-demo", "antipodal-rest", "collision-course", "random")),
    Opt("space", tuple(_SPACES), "left"), Opt("T", float, 10.0),
    Opt("rel_tol", float, FlowConfig.rel_tol), Opt("abs_tol", float, FlowConfig.abs_tol),
    Opt("sample_dt", float, 0.1), Opt("seed", int, 0),
)


def cmd_simulate(cfg: dict, given: set) -> int:
    if cfg["seed"] < 0:
        raise ValueError(f"--seed {cfg['seed']}: the seed must be a non-negative integer")
    if _source(cfg, "simulate", "state", "scenario") == "scenario":
        # the scenario's potential is a default: the config file and the flag
        # override it, and the manifest records what ran
        state, potential = _builtin_scenario(cfg["scenario"], cfg["seed"])
        if "potential" not in given:
            cfg["potential"] = potential
    else:
        state = PhaseState.from_json_dict(_load_json("--state", cfg["state"]))
    state.validate()
    m, pot, _, _ = _masses_potential(cfg, given)
    if cfg["scenario"] == "re-acute-demo":
        for key, agrees in (("m1", m.m1 == 1.0), ("m2", m.m2 == 1.0),
                            ("potential", pot.kind == "gravitational")):
            if not agrees:
                raise ValueError(f"--{key} contradicts scenario 're-acute-demo', "
                                 "a relative equilibrium of m1 = m2 = 1 under grav")

    enter, make_rhs, make_funcs, labels, leave = _SPACES[cfg["space"]]
    y0, rhs, funcs = enter(state), make_rhs(m, pot), make_funcs(m, pot)
    flow_cfg = FlowConfig(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"])
    out = cfg["out"]
    start = time.perf_counter()
    try:
        traj = integrate(rhs, y0, cfg["T"], flow_cfg, sample_dt=cfg["sample_dt"])
    except SingularityError as exc:
        failed = time.perf_counter()
        run = {**_steps_record(exc.trajectory), "wall_s": {"integrate": failed - start},
               "collision": {"time": exc.time, "level": cfg["space"], "message": str(exc)}}
        # no trajectory, and none an earlier run left
        _leave(out, "simulate", cfg, run, {out: None, out + ".drift.json": None}, failed)
        print(f"singularity encountered at t = {exc.time}", file=sys.stderr)
        return 3
    integrated = time.perf_counter()

    # the map to (g, p) and each invariant run once per block of rows; the
    # CSV and the drift read the columns
    states, columns = sample_blocks(traj, funcs, leave)
    drift = {f"drift_{k}": v for k, v in drift_summary(columns).items()}
    files = {out: trajectory_csv(traj.ts, labels, states, columns),
             out + ".drift.json": json.dumps(drift, indent=2, sort_keys=True) + "\n"}
    run = {**_steps_record(traj), "wall_s": {"integrate": integrated - start}}
    _leave(out, "simulate", cfg, run, files, integrated)
    print(json.dumps(drift, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_REDUCE = (*_MODEL, Opt("out", str, "invariants.csv"), Opt("state", str), Opt("trajectory", str))


def _trajectory_rows(path: str) -> array:
    """The rows of a ``--space full`` trajectory CSV, 17 doubles each: t and
    then the state.

    Blank lines are skipped, a column is found by the last header cell of its
    name, and cells past the header's are ignored.  A row is rejected, by its
    t cell, when a cell is missing or not a finite number or g1 or g2 is
    zero, the first bad row in the file first; rows are not held to the
    unit-norm tolerance, since an unprojected run drifts off it.
    """
    labels = ("t", *_STATE_LABELS)
    with _open_input("--trajectory", path, newline="") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in labels if c not in index]
        if missing:
            raise ValueError(f"trajectory {path} lacks the columns {missing}; "
                             "reduce needs a --space full trajectory")
        it, pick = index["t"], operator.itemgetter(*map(index.get, labels))
        rows = array("d")
        for row in reader:
            if not row:
                continue
            try:
                vals = list(map(float, pick(row)))
            except (IndexError, ValueError):  # a short row, or a cell that is no number
                what = "a cell that is not a number"
            else:
                if not all(map(math.isfinite, vals)):
                    what = "a non-finite cell"
                elif quat_dot_vec(vals[1:5], vals[1:5]) == 0.0 or (
                        quat_dot_vec(vals[9:13], vals[9:13]) == 0.0):
                    what = "g1 or g2 zero"
                else:
                    rows.extend(vals)
                    continue
            raise ValueError(f"trajectory row t = {row[it] if it < len(row) else None} "
                             f"has {what}")
    return rows


def cmd_reduce(cfg: dict, given: set) -> int:
    # the invariants, Casimirs and strata do not depend on the masses or the
    # potential; those flags are resolved only so that bad values fail
    _masses_potential(cfg, given)
    start = time.perf_counter()
    source = _source(cfg, "reduce", "state", "trajectory")
    if source == "state":
        state = PhaseState.from_json_dict(_load_json("--state", cfg["state"]))
        state.validate()
        rows = array("d", (0.0, *state))
    else:
        rows = _trajectory_rows(cfg["trajectory"])
    read = time.perf_counter()

    lines = [",".join(("t", *INVARIANT_CSV_COLUMNS, "C1", "C2", "C3", "stratum"))]
    for i in range(0, len(rows), 17):
        t = rows[i]
        pt = invariant_map(rows[i + 1:i + 17])
        values = (t, *pt, *all_casimirs(pt))
        if not all(map(math.isfinite, values)):  # a finite state can overflow here
            where = "--state" if source == "state" else f"trajectory row t = {t!r}"
            raise ValueError(f"{where}: the invariants or Casimirs are not finite")
        lines.append(",".join((*map(repr, values), stratum_classify(pt))))
    reduced = time.perf_counter()
    run = {"rows": len(lines) - 1, "wall_s": {"read": read - start, "reduce": reduced - read}}
    _leave(cfg["out"], "reduce", cfg, run, {cfg["out"]: "\n".join(lines) + "\n"}, reduced)
    return 0


# ---------------------------------------------------------------------------
# re / stability / ec-surface
# ---------------------------------------------------------------------------

_RE = (*_MODEL, Opt("out", str), Opt("theta", float), Opt("eta", float, 1.0),
       Opt("phi1", float), Opt("xi", float))


def _solve_from(cfg: dict, given: set, command: str):
    """The RE the config names, with the top's (alpha, gamma) or Nones, and
    the time the solve took."""
    if cfg["theta"] is None:
        raise ValueError(f"{command} needs --theta")
    m, pot, alpha, gamma = _masses_potential(cfg, given)
    start = time.perf_counter()
    re = solve_re(cfg["theta"], cfg["eta"], m, pot,
                  phi1=cfg["phi1"], xi_mag=cfg["xi"])
    return re, alpha, gamma, time.perf_counter() - start


def _write_record(cfg: dict, command: str, record: dict, wall_s: dict) -> None:
    """The JSON record to ``out``, with a manifest whose run record holds
    ``wall_s`` and the write that follows, or the record to stdout."""
    since = time.perf_counter()
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cfg["out"]:
        _leave(cfg["out"], command, cfg, {"wall_s": wall_s}, {cfg["out"]: text}, since)
    else:
        sys.stdout.write(text)


def cmd_re(cfg: dict, given: set) -> int:
    re, _, _, solve_s = _solve_from(cfg, given, "re")
    start = time.perf_counter()
    record = re.to_json_dict()
    record["lever_residual"] = lever_residual(re)
    record["fixed_point_residual"] = verify_re_fixed_point(re)
    _write_record(cfg, "re", record, {"solve": solve_s, "check": time.perf_counter() - start})
    return 0


def cmd_stability(cfg: dict, given: set) -> int:
    re, alpha, gamma, solve_s = _solve_from(cfg, given, "stability")
    start = time.perf_counter()
    report = stab.linearize(re)
    pt, pot = re_image(re), re.potential
    quartet = stab.quartet_spectrum(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))
    record = {
        "kind": re.kind,
        "theta": re.theta,
        "eigenvalues": [[float(e.real), float(e.imag)] for e in report.eigenvalues],
        "zero_count": report.zero_count,
        "classification": report.classification,
        "spectrum_gap": stab.spectrum_gap(report.eigenvalues, quartet),
    }
    if re.potential.kind == "gravitational" or alpha is not None:
        c0, c2 = (stab.charpoly_2body(re) if alpha is None
                  else stab.charpoly_lagrange(re, alpha, gamma))
        record["charpoly"] = {"c0": c0, "c2": c2}
    _write_record(cfg, "stability", record,
                  {"solve": solve_s, "check": time.perf_counter() - start})
    return 0


_EC = (
    *_MODEL, Opt("out", str, "ec_surface.csv"),
    Opt("family", (ec.FAMILY_GENERIC, ec.FAMILY_ISOSCELES, ec.FAMILY_ACUTE, ec.FAMILY_OBTUSE,
                   ec.FAMILY_RIGHT_ANGLED), ec.FAMILY_ISOSCELES),
    Opt("theta_min", float, 0.05), Opt("theta_max", float, math.pi - 0.05),
    Opt("tau_min", float, -3.0), Opt("tau_max", float, 3.0), Opt("grid", (int, int), (100, 100)),
    Opt("phi1_min", float), Opt("phi1_max", float), Opt("workers", int),
    Opt("plot_script", True, False),
)


def cmd_ec_surface(cfg: dict, given: set) -> int:
    # --workers stays only because the benchmark passes --workers 1
    if cfg["workers"] not in (None, 1):
        raise ValueError(f"workers = {cfg['workers']!r}: ec-surface samples its sheets "
                         "serially, so workers must be 1 or unset")
    m, pot, _, _ = _masses_potential(cfg, given)
    family = cfg["family"]
    # an unset endpoint of an acute or obtuse range stops 0.05 short of pi/2
    margin = {ec.FAMILY_ACUTE: {"theta_max": math.pi / 2 - 0.05},
              ec.FAMILY_OBTUSE: {"theta_min": math.pi / 2 + 0.05}}.get(family, {})
    cfg.update((k, v) for k, v in margin.items() if k not in given)
    phi1 = (cfg["phi1_min"], cfg["phi1_max"])
    if phi1.count(None) == 1:
        raise ValueError("--phi1-min and --phi1-max go together: set both or neither")
    # ec_surface's messages name its phi1_range, not these flags
    if family == ec.FAMILY_RIGHT_ANGLED and None in phi1:
        raise ValueError(f"--family {family} needs --phi1-min/--phi1-max")
    if family != ec.FAMILY_RIGHT_ANGLED and None not in phi1:
        raise ValueError(f"--phi1-min/--phi1-max are for --family {ec.FAMILY_RIGHT_ANGLED} "
                         f"only, not {family}")
    start = time.perf_counter()
    result = ec.ec_surface(
        family, (cfg["theta_min"], cfg["theta_max"]), (cfg["tau_min"], cfg["tau_max"]),
        tuple(cfg["grid"]), m, pot, phi1_range=None if None in phi1 else phi1)
    sampled = time.perf_counter()
    out = cfg["out"]
    # a clean sheet removes an earlier sheet's failures; the plot script, a
    # template to edit, is written only under --plot-script and never removed
    failures = [list(f) for f in result.failures]
    files = {out: ec.ec_csv(result.samples),
             out + ".failures.json": json.dumps(failures, indent=2) + "\n" if failures else None}
    if cfg["plot_script"]:
        files[out + ".plot.py"] = ec.PLOT_SCRIPT
    # each failure record's message starts with its exception type
    n_nodes = len(result.samples) + len(result.failures)
    run = {"samples": len(result.samples),
           "batch_nodes": n_nodes - result.scalar_nodes, "scalar_nodes": result.scalar_nodes,
           "failures": dict(Counter(msg.partition(":")[0] for _, _, msg in result.failures)),
           "wall_s": {"sample": sampled - start}}
    _leave(out, "ec-surface", cfg, run, files, sampled)
    print(f"wrote {len(result.samples)} samples, {len(result.failures)} failures")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, "integrate a flow and write a trajectory CSV", _SIMULATE),
    "reduce": (cmd_reduce, "map states or a full trajectory to the invariants", _REDUCE),
    "re": (cmd_re, "classify a relative equilibrium", _RE),
    "stability": (cmd_stability, "linearise at an RE and classify", _RE),
    "ec-surface": (cmd_ec_surface, "sample an energy-Casimir bifurcation surface", _EC),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; ``commands`` maps each command to its own parser."""
    ap = argparse.ArgumentParser(prog="spheretop",
                                 description="two bodies on the 3-sphere / 4-d spinning top")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap.commands = {}
    for name, (_, help_, options) in _COMMANDS.items():
        p = ap.commands[name] = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for opt in options:
            kind, choices, n = opt.shape()
            kw = ({"action": "store_const", "const": opt.kind} if kind is bool
                  else {"type": kind, "choices": choices, "nargs": n})
            p.add_argument(opt.flag, dest=opt.dest, help=opt.help, **kw)
    return ap


# built by the first argv that the option table declines, not at import, and
# reused by every later one
_parser = functools.cache(build_parser)

# argparse's test for a token that is a negative number rather than a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@functools.cache
def _flags(name: str) -> dict[str, tuple]:
    """Each flag of command ``name``, as ``build_parser`` declares it, to
    (dest, type, choices, number of values or None for one, const)."""
    flags = {"--config": ("config", str, None, None, None)}
    for opt in _COMMANDS[name][2]:
        kind, choices, n = opt.shape()
        flags[opt.flag] = (opt.dest, kind, choices, n, opt.kind if kind is bool else None)
    return flags


def _one_number(row: tuple) -> bool:
    """Whether a ``_flags`` row takes one int or float."""
    return row[1] in (int, float) and row[3] is None


def _attach_numbers(name: str, argv: list[str]) -> list[str]:
    """``argv`` with each ``--flag -1e-3`` of command ``name`` spelled
    ``--flag=-1e-3``, where the flag takes one int or float and its type
    converts the value: argparse reads a token that starts with ``-`` as a
    flag unless it matches ``_NEGATIVE_NUMBER``, which -1e-3, -1e+16 and -inf
    do not.  Tokens from ``--`` on are left as they are."""
    flags, out, i = _flags(name), [], 0
    while i < len(argv):
        token = argv[i]
        if token == "--":
            return out + argv[i:]
        row = flags.get(token)
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if row is not None and _one_number(row) and value[:1] == "-":
            try:
                row[1](value)
            except ValueError:
                pass
            else:
                token, i = f"{token}={value}", i + 1
        out.append(token)
        i += 1
    return out


def _table_args(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace that command ``name``'s parser returns for
    ``_attach_numbers(name, argv)``, read in one pass over the command's
    option table, or None where argparse must read it.

    Only exact flags, each followed by its values, are taken.  An abbreviation,
    ``--flag=value``, ``--``, help, an unknown flag, a missing value, a value
    that fails its type or choices, and a value that starts with ``-`` but is
    no negative number to argparse, unless its flag takes one int or float,
    are declined, so argparse gives every usage error and help text.
    """
    flags = _flags(name)
    args = dict.fromkeys(row[0] for row in flags.values())
    tokens = iter(argv)
    for token in tokens:
        row = flags.get(token)
        if row is None:
            return None
        dest, kind, choices, n, const = row
        if kind is bool:
            args[dest] = const
            continue
        attached = _one_number(row)
        values = []
        for text in itertools.islice(tokens, n or 1):
            if text[:1] == "-" and not attached and not _NEGATIVE_NUMBER.match(text):
                return None
            try:
                value = kind(text)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
            values.append(value)
        if len(values) < (n or 1):
            return None
        args[dest] = values if n else values[0]
    return argparse.Namespace(**args)


def main(argv: list[str] | None = None) -> int:
    # a plain argv is read from the command's option table; any other goes to
    # the command's own parser, skipping the top-level pass, which serves
    # help, --version and an unknown command
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    args = _table_args(name, argv[1:]) if name in _COMMANDS else None
    if args is None:
        parser = _parser()
        if name in parser.commands:
            args = parser.commands[name].parse_args(_attach_numbers(name, argv[1:]))
        else:
            args = parser.parse_args(argv)
            name = args.cmd
    fn, _, options = _COMMANDS[name]
    try:
        cfg, given = _resolve(args, options)
        _check_out(cfg)  # before any work
        return fn(cfg, given)
    except (NoSolutionError, CollisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
