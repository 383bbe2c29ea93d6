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
    make_invariant_rhs,
    make_reduced_rhs,
    make_state_rhs,
    point_to_vec,
    project_reduced,
    project_state,
    reduced_to_vec,
    sample_columns,
    state_to_vec,
    trajectory_csv,
    vec_to_state,
)
from .phase_space import (
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    random_phase_state,
    tangent_project,
)
from .quaternion import Quaternion
from .reduction import (
    INVARIANT_CSV_COLUMNS,
    all_casimirs,
    hilbert_map,
    left_reduce,
    right_reduce,
    stratum_classify,
)
from .relequil import NoSolutionError, lever_residual, solve_re, verify_re_fixed_point

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


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    "rel_tol": FlowConfig.rel_tol, "abs_tol": FlowConfig.abs_tol, "projection": False,
    "sample_dt": 0.1, "seed": 0, "out": "trajectory.csv",
}


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _SIMULATE_DEFAULTS)
    if cfg["scenario"]:
        # the scenario's parameters are defaults: the config file and the flags
        # override them, and the manifest records what ran
        state, scenario_params = _builtin_scenario(cfg["scenario"], cfg["seed"])
        cfg = _resolve(args, {**_SIMULATE_DEFAULTS, **scenario_params})
    elif cfg["state"]:
        with open(cfg["state"]) as fh:
            state = PhaseState.from_json_dict(json.load(fh))
    else:
        raise ValueError("simulate needs --state or --scenario")
    state.validate()
    m, pot, _, _ = _masses_potential(cfg)
    if cfg["scenario"] == "re-acute-demo":
        for key, agrees in (("m1", m.m1 == 1.0), ("m2", m.m2 == 1.0),
                            ("potential", pot.kind == "gravitational")):
            if not agrees:
                raise ValueError(f"--{key} contradicts scenario 're-acute-demo', "
                                 "a relative equilibrium of m1 = m2 = 1 under grav")

    space = cfg["space"]
    if space == "full":
        y0, rhs, labels = state_to_vec(state), make_state_rhs(m, pot), _STATE_LABELS
        project, funcs = project_state, invariants_state(m, pot)
    elif space in ("left", "right"):
        rs = left_reduce(state) if space == "left" else right_reduce(state)
        y0, rhs, labels = reduced_to_vec(rs), make_reduced_rhs(m, pot, rs.side), _REDUCED_LABELS
        project, funcs = project_reduced, invariants_reduced(m, pot)
    elif space == "invariants":
        if cfg["projection"]:
            raise ValueError("--projection has no projector on the 8-d invariants level")
        pt = hilbert_map(left_reduce(state))
        y0, rhs, labels = point_to_vec(pt), make_invariant_rhs(m, pot), _POINT_LABELS
        project, funcs = None, invariants_point(m, pot)
    else:
        raise ValueError(f"unknown space {space!r}")

    flow_cfg = FlowConfig(rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"])
    start = time.perf_counter()
    try:
        traj = integrate(rhs, y0, cfg["T"], flow_cfg, sample_dt=cfg["sample_dt"],
                         project=project if cfg["projection"] else None)
    except SingularityError as exc:
        _write_manifest(cfg["out"], "simulate", cfg, {"collision": {
            "time": exc.time, "level": space, "message": str(exc)}})
        print(f"singularity encountered at t = {exc.time}", file=sys.stderr)
        return 3
    integrated = time.perf_counter()

    # each invariant is evaluated once per row; the CSV and the drift read it
    out = cfg["out"]
    columns = sample_columns(traj, funcs)
    Path(out).write_text(trajectory_csv(traj, labels, columns))
    drift = {f"drift_{k}": v for k, v in drift_summary(columns).items()}
    Path(out + ".drift.json").write_text(json.dumps(drift, indent=2, sort_keys=True) + "\n")
    run = {"steps_accepted": traj.n_accepted, "steps_rejected": traj.n_rejected,
           "step_min": traj.step_min, "step_max": traj.step_max, "rhs_evals": traj.rhs_evals,
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


def cmd_reduce(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _REDUCE_DEFAULTS)
    # the invariants, Casimirs and strata do not depend on the masses or the
    # potential, so those flags are accepted and echoed but not resolved
    states: list[tuple[float, PhaseState]] = []
    if cfg["state"]:
        with open(cfg["state"]) as fh:
            states.append((0.0, PhaseState.from_json_dict(json.load(fh))))
    elif cfg["trajectory"]:
        with open(cfg["trajectory"], newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("t", *_STATE_LABELS) if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"trajectory {cfg['trajectory']} lacks the columns {missing}; "
                                 "reduce needs a --space full trajectory")
            for row in reader:
                vec = [float(row[label]) for label in _STATE_LABELS]
                states.append((float(row["t"]), vec_to_state(vec)))
    else:
        raise ValueError("reduce needs --state or --trajectory")

    lines = [",".join(("t", *INVARIANT_CSV_COLUMNS, "C1", "C2", "C3", "stratum"))]
    for t, s in states:
        pt = hilbert_map(left_reduce(s))
        cas = all_casimirs(pt)
        cells = map(repr, (t, *pt.as_tuple(), cas.C1, cas.C2, cas.C3))
        lines.append(",".join((*cells, stratum_classify(pt))))
    out = cfg["out"]
    Path(out).write_text("\n".join(lines) + "\n")
    _write_manifest(out, "reduce", cfg)
    return 0


# ---------------------------------------------------------------------------
# re / stability / ec-surface
# ---------------------------------------------------------------------------

_RE_DEFAULTS = {
    "theta": None, "eta": 1.0, "phi1": None, "xi": None, "m1": 1.0, "m2": 1.0,
    "potential": "grav", "alpha": None, "gamma": None, "out": None,
}


def _solve_from(cfg: dict, command: str):
    """The RE the config names, with the top's (alpha, gamma) or Nones."""
    if cfg["theta"] is None:
        raise ValueError(f"{command} needs --theta")
    m, pot, alpha, gamma = _masses_potential(cfg)
    re = solve_re(cfg["theta"], cfg["eta"], m, pot,
                  phi1=cfg["phi1"], xi_mag=cfg["xi"])
    return re, alpha, gamma


def _write_record(cfg: dict, command: str, record: dict) -> None:
    """The JSON record to ``out`` with a manifest, or to stdout."""
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if cfg["out"]:
        Path(cfg["out"]).write_text(text)
        _write_manifest(cfg["out"], command, cfg)
    else:
        sys.stdout.write(text)


def cmd_re(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _RE_DEFAULTS)
    re, _, _ = _solve_from(cfg, "re")
    record = re.to_json_dict()
    record["lever_residual"] = lever_residual(re)
    record["fixed_point_residual"] = verify_re_fixed_point(re)
    _write_record(cfg, "re", record)
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _RE_DEFAULTS)
    re, alpha, gamma = _solve_from(cfg, "stability")
    report = stab.linearize(re)
    record = {
        "kind": re.kind,
        "theta": re.theta,
        "eigenvalues": [[float(e.real), float(e.imag)] for e in report.eigenvalues],
        "zero_count": report.zero_count,
        "classification": report.classification,
    }
    if re.potential.kind == "gravitational":
        c0, c2 = stab.charpoly_2body(re)
        record["charpoly"] = {"c0": c0, "c2": c2}
    elif alpha is not None:
        c0, c2 = stab.charpoly_lagrange(re, alpha, gamma)
        record["charpoly"] = {"c0": c0, "c2": c2}
    _write_record(cfg, "stability", record)
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
    m, pot, _, _ = _masses_potential(cfg)
    family = cfg["family"]
    theta_range = (cfg["theta_min"], cfg["theta_max"])
    if family == ec.FAMILY_ACUTE:
        theta_range = (cfg["theta_min"], min(cfg["theta_max"], math.pi / 2 - 0.05))
    elif family == ec.FAMILY_OBTUSE:
        theta_range = (max(cfg["theta_min"], math.pi / 2 + 0.05), cfg["theta_max"])
    phi1_range = None
    if cfg["phi1_min"] is not None and cfg["phi1_max"] is not None:
        phi1_range = (cfg["phi1_min"], cfg["phi1_max"])
    start = time.perf_counter()
    result = ec.ec_surface(
        family, theta_range, (cfg["tau_min"], cfg["tau_max"]),
        tuple(cfg["grid"]), m, pot,
        phi1_range=phi1_range, classify=bool(cfg["classify"]),
        workers=cfg["workers"],
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
    p.add_argument("--projection", action="store_const", const=True)
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
