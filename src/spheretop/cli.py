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
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

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
    sample_columns,
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
    if spec.startswith("linear:"):
        return Potential.linear(float(spec.split(":", 1)[1]))
    if spec == "linear":
        return Potential.linear(1.0)
    raise ValueError(f"unknown potential {spec!r} (use grav or linear:<gamma>)")


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false"}


def _check_config(parser: argparse.ArgumentParser, file_cfg: dict, defaults: dict) -> None:
    """Reject a config-file value that its own flag could not have parsed to.

    The kind, arity and choices of each key come from its flag's definition.
    A float flag takes any JSON number, only a true/false flag takes a bool,
    and null is accepted where the default is unset.
    """
    for action in parser._actions:
        key, val = action.dest, file_cfg.get(action.dest)
        if key not in file_cfg or (val is None and defaults[key] is None):
            continue
        kind = action.type or (str if action.const is None else type(action.const))
        n = action.nargs if isinstance(action.nargs, int) and action.nargs else None
        items = [val] if n is None else val if isinstance(val, list) and len(val) == n else [None]
        if not all((kind is bool) == isinstance(v, bool)
                   and isinstance(v, (int, float) if kind is float else kind)
                   and (action.choices is None or v in action.choices) for v in items):
            want = _KIND_NAMES[kind] if action.choices is None else f"one of {list(action.choices)}"
            if n is not None:
                want = f"a list of {n} values, each {want}"
            raise ValueError(f"config {key} must be {want}, as for "
                             f"{action.option_strings[0]}, got {val!r}")


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


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_json("--config", args.config)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        _check_config(args.parser, file_cfg, defaults)
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_manifest(out_path: str, command: str, cfg: dict, run: dict | None = None) -> None:
    manifest = {"command": command, "version": __version__, "config": cfg}
    if run is not None:
        manifest["run"] = run
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _steps_record(traj) -> dict:
    """The step and evaluation counts of a run, for its manifest; the step
    sizes are null when no step was accepted."""
    steps = traj.n_accepted > 0
    return {"steps_accepted": traj.n_accepted, "steps_rejected": traj.n_rejected,
            "step_min": traj.step_min if steps else None,
            "step_max": traj.step_max if steps else None, "rhs_evals": traj.rhs_evals}


def _check_out(cfg: dict) -> None:
    """Fail before any work when ``--out`` names a directory or a file in a
    missing directory."""
    out = cfg["out"]
    if out is not None and not Path(out).parent.is_dir():
        raise ValueError(f"--out {out}: the directory {str(Path(out).parent)!r} does not exist")
    if out is not None and Path(out).is_dir():
        raise ValueError(f"--out {out} is a directory, not a file")


def _masses_potential(cfg: dict) -> tuple[MassParams, Potential, float | None, float | None]:
    """Resolve masses and potential; 'lagrange' maps to the top's equivalent
    two-body problem, returning (alpha, gamma) as well."""
    if cfg["potential"] == "lagrange":
        alpha, gamma = cfg["alpha"], cfg["gamma"]
        if alpha is None or gamma is None:
            raise ValueError("potential 'lagrange' requires --alpha and --gamma")
        m, pot = HamiltonianKind.lagrange(alpha, gamma).equivalent_two_body()
        return m, pot, alpha, gamma
    m = MassParams(cfg["m1"], cfg["m2"])
    return m, _parse_potential(cfg["potential"], m), None, None


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _builtin_scenario(name: str, seed: int) -> tuple[PhaseState, dict]:
    if name == "re-acute-demo":
        m = MassParams(1.0, 1.0)
        pot = Potential.gravitational(m)
        s = solve_re(1.0, 1.0, m, pot).state
        p1 = tangent_project(s.p1 + 1e-3 * Quaternion(0.0, 0.0, 0.0, 1.0), s.g1)
        s = PhaseState(s.g1, p1, s.g2, s.p2)
        return s, {"m1": 1.0, "m2": 1.0, "potential": "grav"}
    if name == "antipodal-rest":
        s = PhaseState(g1=Quaternion(1.0), p1=Quaternion(),
                       g2=Quaternion(-1.0), p2=Quaternion())
        return s, {"m1": 1.0, "m2": 1.0, "potential": "linear:1.0"}
    if name == "collision-course":
        th = 1.0
        s = PhaseState(
            g1=Quaternion(1.0), p1=Quaternion(0.0, 1.0, 0.0, 0.0),
            g2=Quaternion(math.cos(th), math.sin(th), 0.0, 0.0), p2=Quaternion(),
        )
        return s, {"m1": 1.0, "m2": 1.0, "potential": "grav"}
    if name == "random":
        rng = np.random.default_rng(seed)
        return random_phase_state(rng), {"m1": 1.0, "m2": 1.0, "potential": "linear:1.0"}
    raise ValueError(f"unknown scenario {name!r}")


_SIMULATE_DEFAULTS = {
    "state": None, "scenario": None, "space": "left", "m1": 1.0, "m2": 1.0,
    "potential": "grav", "alpha": None, "gamma": None, "T": 10.0,
    "rel_tol": FlowConfig.rel_tol, "abs_tol": FlowConfig.abs_tol,
    "sample_dt": 0.1, "seed": 0, "out": "trajectory.csv",
}


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _SIMULATE_DEFAULTS)
    if _source(cfg, "simulate", "state", "scenario") == "scenario":
        # the scenario's parameters are defaults: the config file and the flags
        # override them, and the manifest records what ran
        state, scenario_params = _builtin_scenario(cfg["scenario"], cfg["seed"])
        cfg = _resolve(args, {**_SIMULATE_DEFAULTS, **scenario_params})
    else:
        state = PhaseState.from_json_dict(_load_json("--state", cfg["state"]))
    state.validate()
    _check_out(cfg)
    m, pot, _, _ = _masses_potential(cfg)
    if cfg["scenario"] == "re-acute-demo":
        for key, agrees in (("m1", m.m1 == 1.0), ("m2", m.m2 == 1.0),
                            ("potential", pot.kind == "gravitational")):
            if not agrees:
                raise ValueError(f"--{key} contradicts scenario 're-acute-demo', "
                                 "a relative equilibrium of m1 = m2 = 1 under grav")

    space = cfg["space"]
    if space == "full":
        y0, rhs, labels = to_body_coords(state), make_body_rhs(m, pot), _STATE_LABELS
        funcs = invariants_state(m, pot)
    elif space == "left":
        y0, rhs, labels = body_frame_vec(state), make_reduced_rhs(m, pot, SIDE_LEFT), _REDUCED_LABELS
        funcs = invariants_reduced(m, pot)
    elif space == "right":
        y0, rhs, labels = space_frame_vec(state), make_reduced_rhs(m, pot, SIDE_RIGHT), _REDUCED_LABELS
        funcs = invariants_reduced(m, pot)
    else:  # invariants, the last choice of --space
        y0, rhs, labels = invariant_map(state), make_invariant_rhs(m, pot), _POINT_LABELS
        funcs = invariants_point(m, pot)

    flow_cfg = FlowConfig(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"])
    start = time.perf_counter()
    try:
        traj = integrate(rhs, y0, cfg["T"], flow_cfg, sample_dt=cfg["sample_dt"])
    except SingularityError as exc:
        run = {**_steps_record(exc.trajectory),
               "wall_s": {"integrate": time.perf_counter() - start},
               "collision": {"time": exc.time, "level": space, "message": str(exc)}}
        _write_manifest(cfg["out"], "simulate", cfg, run)
        print(f"singularity encountered at t = {exc.time}", file=sys.stderr)
        return 3
    if space == "full":  # the samples are written in (g, p)
        traj.ys = list(map(from_body_coords, traj.ys))
    integrated = time.perf_counter()

    # each invariant is evaluated once per row; the CSV and the drift read it
    out = cfg["out"]
    columns = sample_columns(traj, funcs)
    Path(out).write_text(trajectory_csv(traj, labels, columns))
    drift = {f"drift_{k}": v for k, v in drift_summary(columns).items()}
    Path(out + ".drift.json").write_text(json.dumps(drift, indent=2, sort_keys=True) + "\n")
    run = {**_steps_record(traj),
           "wall_s": {"integrate": integrated - start, "write": time.perf_counter() - integrated}}
    _write_manifest(out, "simulate", cfg, run)
    print(json.dumps(drift, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

_REDUCE_DEFAULTS = {
    "state": None, "trajectory": None, "m1": 1.0, "m2": 1.0,
    "potential": "grav", "alpha": None, "gamma": None, "out": "invariants.csv",
}


def _trajectory_rows(path: str) -> list[tuple[float, list[float]]]:
    """(t, state vector) of each row of a ``--space full`` trajectory CSV.

    A row is rejected, by its t, when a cell is not a finite number or g1 or
    g2 is zero; rows are not held to the unit-norm tolerance, since an
    unprojected run drifts off it.
    """
    rows = []
    with _open_input("--trajectory", path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("t", *_STATE_LABELS) if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"trajectory {path} lacks the columns {missing}; "
                             "reduce needs a --space full trajectory")
        for row in reader:
            where = f"trajectory row t = {row['t']}"
            try:
                t, vec = float(row["t"]), [float(row[label]) for label in _STATE_LABELS]
            except (TypeError, ValueError):  # a short row reads None
                raise ValueError(f"{where} has a cell that is not a number") from None
            if not all(map(math.isfinite, (t, *vec))):
                raise ValueError(f"{where} has a non-finite cell")
            if quat_dot_vec(vec[0:4], vec[0:4]) == 0.0 or quat_dot_vec(vec[8:12], vec[8:12]) == 0.0:
                raise ValueError(f"{where} has g1 or g2 zero")
            rows.append((t, vec))
    return rows


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _REDUCE_DEFAULTS)
    # the invariants, Casimirs and strata do not depend on the masses or the
    # potential; those flags are resolved only so that bad values fail
    _masses_potential(cfg)
    _check_out(cfg)
    start = time.perf_counter()
    if _source(cfg, "reduce", "state", "trajectory") == "state":
        state = PhaseState.from_json_dict(_load_json("--state", cfg["state"]))
        state.validate()
        rows = [(0.0, state)]
    else:
        rows = _trajectory_rows(cfg["trajectory"])
    read = time.perf_counter()

    lines = [",".join(("t", *INVARIANT_CSV_COLUMNS, "C1", "C2", "C3", "stratum"))]
    for t, vec in rows:
        pt = invariant_map(vec)
        cells = map(repr, (t, *pt, *all_casimirs(pt)))
        lines.append(",".join((*cells, stratum_classify(pt))))
    reduced = time.perf_counter()
    out = cfg["out"]
    Path(out).write_text("\n".join(lines) + "\n")
    run = {"rows": len(rows), "wall_s": {"read": read - start, "reduce": reduced - read,
                                         "write": time.perf_counter() - reduced}}
    _write_manifest(out, "reduce", cfg, run)
    return 0


# ---------------------------------------------------------------------------
# re / stability / ec-surface
# ---------------------------------------------------------------------------

_RE_DEFAULTS = {
    "theta": None, "eta": 1.0, "phi1": None, "xi": None, "m1": 1.0, "m2": 1.0,
    "potential": "grav", "alpha": None, "gamma": None, "out": None,
}


def _solve_from(cfg: dict, command: str):
    """The RE the config names, with the top's (alpha, gamma) or Nones, and
    the time the solve took."""
    if cfg["theta"] is None:
        raise ValueError(f"{command} needs --theta")
    m, pot, alpha, gamma = _masses_potential(cfg)
    _check_out(cfg)
    start = time.perf_counter()
    re = solve_re(cfg["theta"], cfg["eta"], m, pot,
                  phi1=cfg["phi1"], xi_mag=cfg["xi"])
    return re, alpha, gamma, time.perf_counter() - start


def _write_record(cfg: dict, command: str, record: dict, wall_s: dict) -> None:
    """The JSON record to ``out``, with a manifest whose run record holds
    ``wall_s``, or the record to stdout."""
    text = json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        _write_manifest(cfg["out"], command, cfg, {"wall_s": wall_s})
    else:
        sys.stdout.write(text)


def cmd_re(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _RE_DEFAULTS)
    re, _, _, solve_s = _solve_from(cfg, "re")
    start = time.perf_counter()
    record = re.to_json_dict()
    record["lever_residual"] = lever_residual(re)
    record["fixed_point_residual"] = verify_re_fixed_point(re)
    _write_record(cfg, "re", record, {"solve": solve_s, "check": time.perf_counter() - start})
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _RE_DEFAULTS)
    re, alpha, gamma, solve_s = _solve_from(cfg, "stability")
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


_EC_DEFAULTS = {
    "family": "isosceles", "m1": 1.0, "m2": 1.0, "potential": "grav",
    "alpha": None, "gamma": None,
    "theta_min": 0.05, "theta_max": math.pi - 0.05,
    "tau_min": -3.0, "tau_max": 3.0, "grid": (100, 100),
    "phi1_min": None, "phi1_max": None,
    "workers": None, "plot_script": False, "classify": True,
    "out": "ec_surface.csv",
}


def cmd_ec_surface(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _EC_DEFAULTS)
    _check_out(cfg)
    # --workers stays only because the benchmark passes --workers 1
    if cfg["workers"] not in (None, 1):
        raise ValueError(f"workers = {cfg['workers']!r}: ec-surface samples its sheets "
                         "serially, so workers must be 1 or unset")
    m, pot, _, _ = _masses_potential(cfg)
    family = cfg["family"]
    theta_range = (cfg["theta_min"], cfg["theta_max"])
    if family == ec.FAMILY_ACUTE:
        theta_range = (cfg["theta_min"], min(cfg["theta_max"], math.pi / 2 - 0.05))
    elif family == ec.FAMILY_OBTUSE:
        theta_range = (max(cfg["theta_min"], math.pi / 2 + 0.05), cfg["theta_max"])
    phi1 = (cfg["phi1_min"], cfg["phi1_max"])
    if phi1.count(None) == 1:
        raise ValueError("--phi1-min and --phi1-max go together: set both or neither")
    start = time.perf_counter()
    result = ec.ec_surface(
        family, theta_range, (cfg["tau_min"], cfg["tau_max"]),
        tuple(cfg["grid"]), m, pot,
        phi1_range=None if None in phi1 else phi1, classify=cfg["classify"],
    )
    sampled = time.perf_counter()
    out = cfg["out"]
    Path(out).write_text(ec.ec_csv(result.samples))
    if result.failures:
        Path(out + ".failures.json").write_text(
            json.dumps([list(f) for f in result.failures], indent=2) + "\n")
    if cfg["plot_script"]:
        Path(out + ".plot.py").write_text(ec.PLOT_SCRIPT)
    # each failure record's message starts with its exception type
    n_nodes = len(result.samples) + len(result.failures)
    run = {"samples": len(result.samples),
           "batch_nodes": n_nodes - result.scalar_nodes, "scalar_nodes": result.scalar_nodes,
           "failures": dict(Counter(msg.partition(":")[0] for _, _, msg in result.failures)),
           "wall_s": {"sample": sampled - start, "write": time.perf_counter() - sampled}}
    _write_manifest(out, "ec-surface", cfg, run)
    print(f"wrote {len(result.samples)} samples, {len(result.failures)} failures")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.set_defaults(parser=p)  # whose flag definitions type the config file
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--m1", type=float)
    p.add_argument("--m2", type=float)
    p.add_argument("--potential", help="grav | linear:<gamma> | lagrange")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spheretop",
                                 description="two bodies on the 3-sphere / 4-d spinning top")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="integrate a flow and write a trajectory CSV")
    _add_common(p)
    p.add_argument("--state", help="JSON file with g1, p1, g2, p2")
    p.add_argument("--scenario", help="re-acute-demo | antipodal-rest | collision-course | random")
    p.add_argument("--space", choices=("full", "left", "right", "invariants"))
    p.add_argument("--T", type=float)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--sample-dt", dest="sample_dt", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("reduce", help="map states or a full trajectory to the invariants")
    _add_common(p)
    p.add_argument("--state")
    p.add_argument("--trajectory")
    p.set_defaults(fn=cmd_reduce)

    for name, fn, help_ in (("re", cmd_re, "classify a relative equilibrium"),
                            ("stability", cmd_stability, "linearise at an RE and classify")):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        for flag in ("--theta", "--eta", "--phi1", "--xi"):
            p.add_argument(flag, type=float)
        p.set_defaults(fn=fn)

    p = sub.add_parser("ec-surface", help="sample an energy-Casimir bifurcation surface")
    _add_common(p)
    p.add_argument("--family", choices=(ec.FAMILY_GENERIC, ec.FAMILY_ISOSCELES,
                                        ec.FAMILY_ACUTE, ec.FAMILY_OBTUSE,
                                        ec.FAMILY_RIGHT_ANGLED))
    p.add_argument("--theta-min", dest="theta_min", type=float)
    p.add_argument("--theta-max", dest="theta_max", type=float)
    p.add_argument("--tau-min", dest="tau_min", type=float)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--grid", type=int, nargs=2)
    p.add_argument("--phi1-min", dest="phi1_min", type=float)
    p.add_argument("--phi1-max", dest="phi1_max", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--plot-script", dest="plot_script", action="store_const", const=True)
    p.add_argument("--no-classify", dest="classify", action="store_const", const=False)
    p.set_defaults(fn=cmd_ec_surface)
    return ap


# built by the first main call, not at import, and reused by every later one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SingularityError as exc:
        print(f"singularity encountered at t = {exc.time}", file=sys.stderr)
        return 3
    except (NoSolutionError, CollisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
