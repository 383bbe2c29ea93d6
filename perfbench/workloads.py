"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in its constructor (the set-up the
benchmark times) and then runs numbered passes.  A pass is a fixed unit of
work whose inputs depend only on the seed and the pass number; it times each
operation on its own, then checks the outputs outside the timed region.
A pass can be repeated: repeat ``j`` shifts every continuous input of the
pass by about ``j * SHIFT`` of its own scale (a grid cell, a radian), so that
it costs the same as the first run but no cache keyed on the inputs can answer
it.  ``flow_levels`` repeats its states unchanged: nothing in the program
could cache an integration.

* ``ec_sweep``: one pass regenerates a small bifurcation data set through the
  ``ec-surface`` command (four sheets) plus a stretch of the obtuse fold curve.
* ``re_queries``: one pass is a block of independent single-RE queries
  through the library calls of the README.
* ``flow_levels``: one pass integrates one seeded state on the unreduced,
  translation-reduced and invariant levels through ``simulate`` and reduces
  the unreduced trajectory back through ``reduce``.

A pass returns its operations as ``(class, seconds, work)`` samples, where
``work`` counts the workload's main output (surface nodes, queries, model
time) and is 0 for auxiliary operations (the fold curve, ``reduce``).

Correctness checks reuse the acceptance gate's tolerances and count towards
``failed``; they run in every pass, traced or not.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spheretop
from spheretop import cli, dynamics, phase_space, reduction, relequil, stability
from spheretop.phase_space import MassParams, PhaseState, Potential
from spheretop.quaternion import Quaternion

FIXED_POINT_TOL = 1e-10   # criterion 04
SPECTRAL_TOL = 1e-8       # criterion 05
ZERO_EIG_CUT = 1e-8       # criterion 05
SWEEP_AGREE_TOL = 1e-9    # scalar recomputation of a surface sample
FOLD_C0_TOL = 1e-8        # criterion 07
FOLD_JAC_TOL = 1e-6       # criterion 07
DRIFT_TOL = 1e-7          # criterion 01
SQUARE_TOL = 1e-6         # criterion 03
CASIMIR_TOL = 1e-10       # criterion 02
SHIFT = 1e-6              # input shift per repeat of a pass

LABELS = {stability.STABLE, stability.UNSTABLE, stability.DEGENERATE}


class Recorder:
    """Times single operations; with a tracer, traces only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def call(self, fn, *args, **kwargs):
        """Run one operation; returns (seconds, result, exception)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        t0 = perf_counter()
        try:
            result, exc = fn(*args, **kwargs), None
        except Exception as e:  # a failed operation is data for the caller
            result, exc = None, e
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        return t1 - t0, result, exc

    def cli(self, argv: list[str]) -> tuple[float, int]:
        """Run one ``spheretop`` command; returns (seconds, exit code)."""
        span = (self.tracer.span(f"cli.main.{argv[0]}") if self.tracer is not None
                else contextlib.nullcontext())

        def run() -> int:
            with contextlib.redirect_stdout(io.StringIO()), span:
                return cli.main(argv)

        dt, rc, exc = self.call(run)
        if exc is not None:
            print(f"spheretop {argv[0]} raised {exc!r}", file=sys.stderr)
            rc = -1
        return dt, rc


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _shifted(lo: float, hi: float, n: int, u: float) -> tuple[float, float]:
    """n grid points of spacing (hi - lo)/n, shifted by the sub-cell offset u."""
    d = (hi - lo) / n
    return lo + u * d, lo + (u + n - 1) * d


# ---------------------------------------------------------------------------
# ec_sweep
# ---------------------------------------------------------------------------

M11 = MassParams(1.0, 1.0)
M32 = MassParams(3.0, 2.0)
M_TOP = MassParams(0.5, 0.5)   # the top with alpha = 2 has equal masses 1/alpha
TAU = (-3.0, 3.0)
FOLD_THETA = (1.60, 1.80)      # obtuse thetas where (3, 2) has a fold below tau = 8

# name, ec-surface flags, first axis, its range, masses and potential
SHEETS = (
    ("equal_isosceles", ["--family", "isosceles", "--m1", "1", "--m2", "1",
                         "--potential", "grav"],
     "theta", (0.1, math.pi - 0.1), M11, Potential.gravitational(M11)),
    ("mass32_obtuse", ["--family", "obtuse", "--m1", "3", "--m2", "2",
                       "--potential", "grav"],
     "theta", (math.pi / 2 + 0.1, math.pi - 0.1), M32, Potential.gravitational(M32)),
    ("top_polar", ["--family", "isosceles", "--potential", "lagrange",
                   "--alpha", "2", "--gamma", "1"],
     "theta", (0.1, math.pi - 0.1), M_TOP, Potential.linear(1.0)),
    ("equal_right_angled", ["--family", "rightAngled", "--m1", "1", "--m2", "1",
                            "--potential", "grav"],
     "phi1", (0.08, math.pi / 2 - 0.08), M11, Potential.gravitational(M11)),
)


class ECSweep:
    """Bifurcation-surface sheets and the fold curve, serial (``--workers 1``)."""

    requests_per_pass = 1   # a request regenerates the data set: sheets and fold points

    def __init__(self, seed: int, workdir: Path, size: dict):
        self.seed = seed
        self.workdir = workdir
        self.grid = size["grid"]            # (first axis, tau)
        self.n_fold = size["fold_points"]
        self.n_check = size["checked_samples"]

    def _plan(self, index: int, repeat: int) -> tuple[list, np.ndarray, np.random.Generator]:
        rng = np.random.default_rng([self.seed, 0, index])
        shift = repeat * SHIFT
        n_a, n_b = self.grid
        sheets = []
        for name, flags, axis, (lo, hi), m, pot in SHEETS:
            a_lo, a_hi = _shifted(lo, hi, n_a, rng.random() + shift)
            t_lo, t_hi = _shifted(*TAU, n_b, rng.random() + shift)
            argv = ["ec-surface", *flags, f"--{axis}-min", repr(a_lo),
                    f"--{axis}-max", repr(a_hi), "--tau-min", repr(t_lo),
                    "--tau-max", repr(t_hi), "--grid", str(n_a), str(n_b),
                    "--workers", "1", "--out", str(self.workdir / f"{name}.csv")]
            firsts = np.linspace(a_lo, a_hi, n_a)
            taus = np.linspace(t_lo, t_hi, n_b)
            sheets.append((name, argv, axis, firsts, taus, m, pot))
        thetas = np.linspace(*_shifted(*FOLD_THETA, self.n_fold, rng.random() + shift),
                             self.n_fold)
        return sheets, thetas, rng

    def run_pass(self, index: int, rec: Recorder, repeat: int = 0) -> dict:
        sheets, thetas, rng = self._plan(index, repeat)
        out = {"ops": [], "attempted": 0, "failed": 0}
        for name, argv, axis, firsts, taus, m, pot in sheets:
            dt, rc = rec.cli(argv)
            n = len(firsts) * len(taus)
            out["ops"].append((name, dt, n))
            out["attempted"] += n
            out["failed"] += self._check_sheet(name, rc, axis, firsts, taus, m, pot, rng)
        for theta in thetas:
            dt, res, exc = rec.call(stability.fold_locus, float(theta), M32)
            out["ops"].append(("fold", dt, 0))
            out["attempted"] += 1
            if exc is not None or not self._fold_ok(res):
                print(f"fold at theta={theta!r} failed: {exc or res!r}", file=sys.stderr)
                out["failed"] += 1
        return out

    def _check_sheet(self, name, rc, axis, firsts, taus, m, pot, rng) -> int:
        """Failed nodes: missing or malformed rows, or a disagreeing recomputation."""
        n = len(firsts) * len(taus)
        path = self.workdir / f"{name}.csv"
        if rc != 0 or not path.exists():
            return n
        rows = _read_csv(path)
        if len(rows) != n:
            return n
        bad = set()
        for i, row in enumerate(rows):
            first, tau = firsts[i // len(taus)], taus[i % len(taus)]
            theta = first if axis == "theta" else math.pi / 2
            values = [float(row[k]) for k in ("H", "lam2", "rho2")]
            if (float(row["theta"]) != float(theta) or float(row["tau"]) != float(tau)
                    or row["stability"] not in LABELS
                    or not all(math.isfinite(v) for v in values)):
                print(f"{name} row {i} is malformed: {row}", file=sys.stderr)
                bad.add(i)
        for i in rng.choice(n, size=min(self.n_check, n), replace=False):
            i = int(i)
            first, tau = float(firsts[i // len(taus)]), float(taus[i % len(taus)])
            if axis == "theta":
                re = relequil.re_from_tau(first, tau, m, pot)
            else:
                re = relequil.re_from_tau(math.pi / 2, tau, m, pot, phi1=first)
            s = re.state
            expect = (phase_space.hamiltonian_2body(s, m, pot),
                      phase_space.momentum_left(s).norm2(),
                      phase_space.momentum_right(s).norm2())
            row = rows[i]
            got = (float(row["H"]), float(row["lam2"]), float(row["rho2"]))
            label = stability.linearize(re).classification
            if (not all(_close(g, e, SWEEP_AGREE_TOL) for g, e in zip(got, expect))
                    or row["stability"] != label):
                print(f"{name} row {i} disagrees with its recomputation: "
                      f"{row} vs {expect} {label}", file=sys.stderr)
                bad.add(i)
        return len(bad)

    @staticmethod
    def _fold_ok(res) -> bool:
        return (res is not None and abs(res.c0) < FOLD_C0_TOL
                and res.jacobian_det < FOLD_JAC_TOL)

    @staticmethod
    def summary(est: dict) -> dict:
        sheets = [c for c in est if c != "fold"]
        return {
            "sweep.samples_per_s": (sum(est[c].work for c in sheets)
                                    / sum(est[c].time for c in sheets), "1/s"),
            "fold.points_per_s": (1.0 / est["fold"].time, "1/s"),
        }


# ---------------------------------------------------------------------------
# re_queries
# ---------------------------------------------------------------------------

# acceptance-grid ranges: theta in [0.45, 2.70] at least 0.12 from pi/2,
# eta in [0.6, 2.1]
THETA_LO, THETA_HI, RIGHT_GAP = 0.45, 2.70, 0.12
ETA = (0.6, 2.1)


def _query_block(seed: int, block: int, n: int) -> list[tuple]:
    """n seeded queries: (kind, theta, eta, m1, m2, potential, gamma, phi1, xi, error).

    Mix: 75% acute or obtuse, 10% right-angled (equal masses), 10% singular
    (constant force), 5% invalid.  The potential is grav, linear:gamma (equal
    masses) or lagrange (masses 1/alpha) in proportion 2:1:1.
    """
    rng = np.random.default_rng([seed, 1, block])
    out = []
    for u in rng.random(n):
        gamma = float(rng.uniform(0.5, 1.5))
        eta = float(rng.uniform(*ETA))
        v = rng.random()
        if v < 0.5:
            pot = "grav"
            m1, m2 = 1.0, (1.0 if rng.random() < 0.3 else float(rng.uniform(1.2, 3.0)))
        else:
            m = float(rng.uniform(0.5, 2.0)) if v < 0.75 else 1.0 / float(rng.uniform(0.5, 2.0))
            pot, m1, m2 = ("linear" if v < 0.75 else "lagrange"), m, m
        if u < 0.75:
            if rng.random() < 0.5:
                theta = float(rng.uniform(THETA_LO, math.pi / 2 - RIGHT_GAP))
            else:
                theta = float(rng.uniform(math.pi / 2 + RIGHT_GAP, THETA_HI))
            out.append(("generic", theta, eta, m1, m2, pot, gamma, None, None, None))
        elif u < 0.85:
            m = m1
            phi1 = float(rng.uniform(0.2, math.pi / 2 - 0.2))
            if pot != "grav":
                phi1 = -phi1   # a constant force pushes apart: phi1 in (-pi/2, 0)
            out.append(("right", math.pi / 2, eta, m, m, pot, gamma, phi1, None, None))
        elif u < 0.95:
            m = m1 if pot != "grav" else float(rng.uniform(0.5, 2.0))
            pot = "linear" if pot == "grav" else pot
            theta = 0.0 if rng.random() < 0.5 else math.pi
            xi = float(rng.uniform(0.0, 2.0))
            out.append(("singular", theta, float(rng.uniform(0.0, 1.0)), m, m, pot,
                        gamma, None, xi, None))
        elif rng.random() < 0.5:
            out.append(("invalid", math.pi / 2, eta, 1.0, float(rng.uniform(1.2, 3.0)),
                        "grav", gamma, None, None, "NoSolutionError"))
        else:
            theta = (float(rng.uniform(-1.0, -0.01)) if rng.random() < 0.5
                     else float(rng.uniform(math.pi + 0.01, math.pi + 1.0)))
            out.append(("invalid", theta, eta, m1, m2, pot, gamma, None, None, "ValueError"))
    return out


def _answer(theta, eta, m, pot, phi1, xi, alpha, gamma):
    """One single-RE query, as the README runs it."""
    re = spheretop.solve_re(theta, eta, m, pot, phi1=phi1, xi_mag=xi)
    residual = spheretop.verify_re_fixed_point(re)
    report = spheretop.linearize(re)
    if pot.kind == "gravitational":
        poly = spheretop.charpoly_2body(re)
    else:
        poly = spheretop.charpoly_lagrange(re, alpha, gamma)
    return re, residual, report, poly


class REQueries:
    """Blocks of independent single-RE queries; a request is one query.

    Set-up builds the first ``pool_blocks`` blocks; later blocks are built
    between operations, outside the timed region."""

    def __init__(self, seed: int, workdir: Path, size: dict):
        self.seed = seed
        self.block = size["block"]
        self.pool = [_query_block(seed, b, self.block) for b in range(size["pool_blocks"])]

    def _queries(self, index: int, repeat: int) -> list[tuple]:
        """The block's queries; a repeat shifts eta, and theta, phi1 and xi
        where they are free, by ``repeat * SHIFT``."""
        block = (self.pool[index] if index < len(self.pool)
                 else _query_block(self.seed, index, self.block))
        if not repeat:
            return block
        d = repeat * SHIFT
        return [(kind, theta + d if kind == "generic" else theta, eta + d, m1, m2, pot, gamma,
                 None if phi1 is None else phi1 + math.copysign(d, phi1),
                 None if xi is None else xi + d, error)
                for kind, theta, eta, m1, m2, pot, gamma, phi1, xi, error in block]

    def run_pass(self, index: int, rec: Recorder, repeat: int = 0) -> dict:
        ops, failed = [], 0
        for kind, theta, eta, m1, m2, pot_name, gamma, phi1, xi, error in self._queries(
                index, repeat):
            m = MassParams(m1, m2)
            pot = Potential.gravitational(m) if pot_name == "grav" else Potential.linear(gamma)
            dt, res, exc = rec.call(_answer, theta, eta, m, pot, phi1, xi, 1.0 / m1, gamma)
            if kind == "generic":
                kind = "acute" if theta < math.pi / 2 else "obtuse"
            ops.append((f"{kind}-{pot_name}", dt, 1))
            if error is not None:
                failed += int(exc is None or type(exc).__name__ != error)
            elif exc is not None:
                print(f"query {kind} theta={theta!r} raised {exc!r}", file=sys.stderr)
                failed += 1
            else:
                failed += int(not self._check(*res, 1.0 / m1, gamma))
        return {"ops": ops, "attempted": len(ops), "failed": failed}

    @staticmethod
    def _check(re, residual, report, poly, alpha, gamma) -> bool:
        """Criteria 04 and 05, and the charpoly against the closed-form quartet."""
        if not residual < FIXED_POINT_TOL:
            return False
        eigs = report.eigenvalues
        if int(np.sum(np.abs(eigs) < ZERO_EIG_CUT)) != 4:
            return False
        if re.potential.kind == "gravitational":
            pairs = stability.closed_form_eigs_2body(re)
        else:
            pairs = stability.closed_form_eigs_lagrange(re, alpha, gamma)
        quartet = [e for e in eigs if abs(e) >= ZERO_EIG_CUT]
        closed = [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]
        if len(quartet) != 4:
            return False
        gap = 0.0
        for x in quartet:
            j = min(range(len(closed)), key=lambda i: abs(closed[i] - x))
            gap = max(gap, abs(closed[j] - x))
            closed.pop(j)
        if gap > SPECTRAL_TOL * max(1.0, max(abs(e) for e in quartet)):
            return False
        z2, w2 = pairs[0][0] ** 2, pairs[1][0] ** 2
        c0, c2 = poly
        return (_close(c2, -(z2 + w2).real, SPECTRAL_TOL)
                and _close(c0, (z2 * w2).real, SPECTRAL_TOL))

    @property
    def requests_per_pass(self) -> int:
        return self.block

    @staticmethod
    def summary(est: dict) -> dict:
        lat = np.sort(np.concatenate([e.times for e in est.values()]))
        return {
            "query.p50_us": (1e6 * float(quantile(lat, 0.50)), "us"),
            "query.p99_us": (1e6 * float(quantile(lat, 0.99)), "us"),
            "query.samples": (len(lat), "count"),
        }


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence: always a measured value."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


# ---------------------------------------------------------------------------
# flow_levels
# ---------------------------------------------------------------------------

LEVELS = (("full", "full"), ("reduced", "left"), ("invariants", "invariants"))
SAMPLE_DT = 0.1
MOMENTUM = 0.7


def _tangent(rng: np.random.Generator, g: Quaternion, norm: float) -> Quaternion:
    p = phase_space.tangent_project(Quaternion(*rng.normal(size=4)), g)
    return (norm / p.norm()) * p


def _flow_state(seed: int, index: int) -> tuple[PhaseState, MassParams, str]:
    """Even index: a constant-force (top) state with unequal masses and fixed
    momentum norms.  Odd index: a gravitational state perturbed from a
    relative equilibrium that ``linearize`` labels stable.

    Every RE in the box m2 x theta x eta below is stable (checked on a
    5 x 7 x 7 grid), so each state costs one draw whatever the seed."""
    rng = np.random.default_rng([seed, 2, index])
    if index % 2 == 0:
        m = MassParams(1.0, float(rng.uniform(1.4, 1.6)))
        g1 = phase_space.random_unit_quaternion(rng)
        g2 = phase_space.random_unit_quaternion(rng)
        state = PhaseState(g1, _tangent(rng, g1, MOMENTUM), g2, _tangent(rng, g2, MOMENTUM))
        return state, m, f"linear:{float(rng.uniform(0.9, 1.1))!r}"
    m = MassParams(1.0, float(rng.uniform(1.2, 1.3)))
    re = relequil.solve_re(float(rng.uniform(1.15, 1.25)), float(rng.uniform(1.3, 1.4)),
                           m, Potential.gravitational(m))
    if stability.linearize(re).classification != stability.STABLE:
        raise RuntimeError(f"flow state {index} of seed {seed} is not near a stable RE")
    s = re.state
    p1 = phase_space.tangent_project(s.p1 + Quaternion(*(0.01 * rng.normal(size=4))), s.g1)
    p2 = phase_space.tangent_project(s.p2 + Quaternion(*(0.01 * rng.normal(size=4))), s.g2)
    return PhaseState(s.g1, p1, s.g2, p2), m, "grav"


class FlowLevels:
    """One seeded state per pass, integrated on three levels and reduced back.

    Set-up writes the first ``pool_states`` state files; later ones are
    written between operations, outside the timed region, and kept for the
    repeats."""

    requests_per_pass = 1

    def __init__(self, seed: int, workdir: Path, size: dict):
        self.seed = seed
        self.workdir = workdir
        self.T = size["T"]
        self.states = [self._write_state(i) for i in range(size["pool_states"])]

    def _write_state(self, index: int) -> tuple[Path, MassParams, str]:
        state, m, pot = _flow_state(self.seed, index)
        path = self.workdir / f"state_{index}.json"
        path.write_text(json.dumps(state.to_json_dict()))
        return path, m, pot

    def run_pass(self, index: int, rec: Recorder, repeat: int = 0) -> dict:
        while len(self.states) <= index:
            self.states.append(self._write_state(len(self.states)))
        path, m, pot = self.states[index]
        common = ["--m1", repr(m.m1), "--m2", repr(m.m2), "--potential", pot]
        kind = "grav" if pot == "grav" else "top"
        ops, bad = [], set()
        for level, space in LEVELS:
            dt, rc = rec.cli(["simulate", "--state", str(path), "--space", space, *common,
                              "--T", repr(self.T), "--sample-dt", repr(SAMPLE_DT),
                              "--out", str(self.workdir / f"{level}.csv")])
            ops.append((f"{level}-{kind}", dt, self.T))
            if rc != 0:
                bad.add(level)
        dt, rc = rec.cli(["reduce", "--trajectory", str(self.workdir / "full.csv"), *common,
                          "--out", str(self.workdir / "reduced_back.csv")])
        ops.append((f"reduce-{kind}", dt, 0))
        if rc != 0:
            bad.add("reduce")
        if not bad:
            bad = self._check()
        return {"ops": ops, "attempted": len(ops), "failed": len(bad)}

    def _check(self) -> set[str]:
        """The invocations (a level or ``reduce``) whose output is wrong.

        Checks drift (criterion 01), the commuting square against the
        invariant level (criterion 03) and the two Casimir routes of the
        reduce output (criterion 02)."""
        bad = set()
        for level, _ in LEVELS:
            drift = json.loads((self.workdir / f"{level}.csv.drift.json").read_text())
            if not max(drift.values()) < DRIFT_TOL:
                bad.add(level)
        full = _read_csv(self.workdir / "full.csv")
        left = _read_csv(self.workdir / "reduced.csv")
        inv = _read_csv(self.workdir / "invariants.csv")
        back = _read_csv(self.workdir / "reduced_back.csv")
        keys = ("k11", "k12", "k13", "k22", "k23", "k33", "r", "delta")
        if not (len(full) == len(left) == len(inv) == len(back)
                and all(a["t"] == b["t"] == c["t"] == d["t"]
                        for a, b, c, d in zip(full, left, inv, back))):
            return {"full", "reduced", "invariants", "reduce"}
        gap_left = gap_back = 0.0
        casimirs_ok = True
        for f_row, l_row, i_row, b_row in zip(full, left, inv, back):
            target = [float(i_row[k]) for k in keys]
            pt = reduction.hilbert_map(dynamics.vec_to_reduced(
                [float(l_row[k]) for k in cli._REDUCED_LABELS]))
            gap_left = max(gap_left, max(abs(a - b) for a, b in zip(pt.as_tuple(), target)))
            gap_back = max(gap_back, max(abs(float(b_row[k]) - t)
                                         for k, t in zip(keys, target)))
            rs = reduction.left_reduce(dynamics.vec_to_state(
                [float(f_row[k]) for k in cli._STATE_LABELS]))
            casimirs_ok &= (_close(float(b_row["C2"]), reduction.casimir_C2_direct(rs),
                                   CASIMIR_TOL)
                            and _close(float(b_row["C1"]), rs.gD.norm2(), CASIMIR_TOL))
        if not gap_left < SQUARE_TOL:
            bad.add("reduced")
        if not (gap_back < SQUARE_TOL and casimirs_ok):
            bad.add("reduce")
        return bad

    def summary(self, est: dict) -> dict:
        out = {}
        for level, _ in LEVELS:
            cls = [e for c, e in est.items() if c.startswith(f"{level}-")]
            out[f"flow.{level}.simtime_per_s"] = (sum(e.work * e.per_pass for e in cls)
                                                  / sum(e.time * e.per_pass for e in cls), "1/s")
        rows = round(self.T / SAMPLE_DT) + 1
        cls = [e for c, e in est.items() if c.startswith("reduce-")]
        out["reduce.rows_per_s"] = (rows * sum(e.per_pass for e in cls)
                                    / sum(e.time * e.per_pass for e in cls), "1/s")
        return out


WORKLOADS = {"ec_sweep": ECSweep, "re_queries": REQueries, "flow_levels": FlowLevels}

# Sizes: "full" is the benchmark; "tiny" is for the self-test.  trace_passes
# is the fixed work of a traced run, so that its counts repeat exactly.
SIZES = {
    "ec_sweep": {
        "full": {"grid": (3, 24), "fold_points": 1, "checked_samples": 3, "trace_passes": 12},
        "tiny": {"grid": (2, 2), "fold_points": 1, "checked_samples": 4, "trace_passes": 1},
    },
    "re_queries": {
        "full": {"block": 250, "pool_blocks": 4, "trace_passes": 40},
        "tiny": {"block": 40, "pool_blocks": 2, "trace_passes": 2},
    },
    "flow_levels": {
        "full": {"T": 10.0, "pool_states": 8, "trace_passes": 16},
        "tiny": {"T": 0.5, "pool_states": 2, "trace_passes": 2},
    },
}
