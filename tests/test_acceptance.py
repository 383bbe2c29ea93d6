"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain ``pytest -s tests/test_acceptance.py`` run.  Tolerances are fixed here
and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spheretop.dynamics import (
    drift_summary,
    integrate,
    invariants_point,
    invariants_reduced,
    make_body_rhs,
    make_invariant_rhs,
    make_reduced_rhs,
    rhs_full_reduced,
    vec_to_reduced,
    vec_to_state,
    HamiltonianKind,
)
from spheretop.phase_space import (
    MassParams,
    Potential,
    from_body_coords,
    random_cospherical_state,
    random_phase_state,
    sjamaar_slice_check,
    to_body_coords,
)
from spheretop.poisson import (
    GENERATORS,
    casimir_gradient,
    hamiltonian_gradient,
    integral_I,
    table_bracket,
    table_flow,
)
from spheretop.quaternion import Quaternion
from spheretop.reduction import (
    InvariantPoint,
    ReducedState,
    casimir_C2_direct,
    casimir_C2_invariant,
    hilbert_map,
    left_reduce,
    stratum_classify,
)
from spheretop.relequil import (
    lever_residual,
    re_from_tau,
    solve_re,
    solve_re_linear_system,
    verify_re_fixed_point,
)
from spheretop.stability import (
    closed_form_eigs_2body,
    closed_form_eigs_lagrange,
    fold_locus,
    linearize,
)

M11 = MassParams(1.0, 1.0)
M32 = MassParams(3.0, 2.0)
CONS_MASSES = MassParams(1.0, 1.3)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {tag}{extra}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: conservation suite, 20 states per potential, T = 100, < 10 s
# ---------------------------------------------------------------------------

def _conservation_states(seed: int = 42):
    rng = np.random.default_rng(seed)
    pot = Potential.gravitational(CONS_MASSES)
    grav_states = []
    while len(grav_states) < 20:
        theta = rng.uniform(0.9, 1.5)
        eta = rng.uniform(1.0, 1.7)
        re = solve_re(theta, eta, CONS_MASSES, pot)
        v = np.array(left_reduce(re.state))
        v += 0.01 * rng.normal(size=10)
        grav_states.append(tuple(v))
    linear_states = []
    for _ in range(20):
        g = rng.normal(size=4)
        g /= np.linalg.norm(g)
        linear_states.append(tuple(rng.normal(scale=0.35, size=6)) + tuple(g))
    return grav_states, linear_states


def _conservation_worker(args):
    kind, y0 = args
    pot = (Potential.gravitational(CONS_MASSES) if kind == "grav"
           else Potential.linear(0.7))
    funcs = invariants_reduced(CONS_MASSES, pot)
    funcs["C3"] = lambda y: ((y[0] + y[3]) ** 2 + (y[1] + y[4]) ** 2
                             + (y[2] + y[5]) ** 2)
    funcs["variety"] = lambda y: hilbert_map(vec_to_reduced(y)).variety_defect()
    traj_l = integrate(make_reduced_rhs(CONS_MASSES, pot), y0, 100.0, sample_dt=5.0)
    drifts = drift_summary({name: [fn(y) for y in traj_l.ys] for name, fn in funcs.items()})

    pt0 = tuple(hilbert_map(vec_to_reduced(y0)))
    traj_p = integrate(make_invariant_rhs(CONS_MASSES, pot), pt0, 100.0, sample_dt=5.0)
    drifts_p = drift_summary({name: [fn(y) for y in traj_p.ys]
                              for name, fn in invariants_point(CONS_MASSES, pot).items()})
    return max(*drifts.values(), *drifts_p.values())


def test_criterion_01_conservation_suite():
    t0 = time.perf_counter()
    grav_states, linear_states = _conservation_states()
    jobs = [("grav", y) for y in grav_states] + [("lin", y) for y in linear_states]
    try:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(2) as pool:
            worst = max(pool.map(_conservation_worker, jobs))
    except (ImportError, OSError, ValueError):
        worst = max(_conservation_worker(job) for job in jobs)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 10.0
    report(1, "conservation-suite", ok,
           f"worst relative drift {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-7
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: the two routes to the second Casimir agree on 1e4 points, < 1 s
# ---------------------------------------------------------------------------

def test_criterion_02_casimir_two_routes():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10_000):
        g = rng.normal(size=4)
        if k % 2 == 0:
            g /= np.linalg.norm(g)  # half unit, half not
        rs = ReducedState(
            A1=_imag(rng.normal(scale=0.9, size=3)),
            A2=_imag(rng.normal(scale=0.9, size=3)),
            gD=Quaternion(*g),
        )
        direct = casimir_C2_direct(rs)
        via = casimir_C2_invariant(hilbert_map(rs))
        worst = max(worst, abs(direct - via) / max(1.0, abs(direct)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, "casimir-two-routes", ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def _imag(v):
    from spheretop.quaternion import ImaginaryQuaternion

    return ImaginaryQuaternion(*v)


# ---------------------------------------------------------------------------
# criterion 3: reduction commutes with the dynamics at trajectory level
# ---------------------------------------------------------------------------

def test_criterion_03_commuting_square():
    rng = np.random.default_rng(11)
    m = MassParams(1.0, 1.6)
    pot = Potential.linear(1.0)
    worst = 0.0
    for _ in range(10):
        s = random_phase_state(rng, momentum_scale=0.5)
        full = integrate(make_body_rhs(m, pot), to_body_coords(s), 10.0, sample_dt=1.0)
        inv = integrate(make_invariant_rhs(m, pot),
                        tuple(hilbert_map(left_reduce(s))), 10.0, sample_dt=1.0)
        assert full.ts == pytest.approx(inv.ts)
        for yf, yi in zip(full.ys, inv.ys):
            pushed = tuple(hilbert_map(left_reduce(vec_to_state(from_body_coords(yf)))))
            worst = max(worst, float(np.max(np.abs(np.array(pushed) - np.array(yi)))))
    ok = worst < 1e-6
    report(3, "commuting-square", ok, f"worst gap {worst:.2e}")
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criteria 4-6 share a grid of relative equilibria across every family
# ---------------------------------------------------------------------------

def _re_grid():
    thetas = [t for t in np.linspace(0.45, 2.70, 13)
              if abs(t - math.pi / 2) > 0.12]
    etas = (0.6, 1.0, 1.5, 2.1)
    grid = []
    for m in (M11, M32):
        for pot in (Potential.gravitational(m), Potential.linear(1.0)):
            for theta in thetas:
                for eta in etas:
                    grid.append(solve_re(float(theta), eta, m, pot))
    for pot in (Potential.gravitational(M11), Potential.linear(1.0)):
        sgn = 1.0 if pot.f(0.0) > 0 else -1.0
        for phi1 in (0.35, 0.6, 1.0, 1.25):
            for eta in (0.7, 1.2):
                grid.append(solve_re(math.pi / 2, eta, M11, pot, phi1=sgn * phi1))
    for m in (M11, M32):
        for theta in (0.0, math.pi):
            for xi, eta in ((0.0, 0.5), (1.2, 0.4), (2.0, 0.0)):
                grid.append(solve_re(theta, eta, m, Potential.linear(1.0), xi_mag=xi))
    return grid


@pytest.fixture(scope="module")
def re_grid():
    return _re_grid()


def test_criterion_04_re_fixed_points(re_grid):
    kinds = {re.kind for re in re_grid}
    assert kinds == {"acute", "obtuse", "rightAngled", "singular0", "singularPi"}
    assert len(re_grid) >= 200
    worst_res = max(verify_re_fixed_point(re) for re in re_grid)
    worst_lever = max(abs(lever_residual(re)) for re in re_grid)
    worst_solve = 0.0
    n_case2 = 0
    for re in re_grid:
        if re.kind in ("acute", "obtuse"):
            x1, x2, _ = solve_re_linear_system(re.theta, re.eta_mag, re.masses,
                                               re.potential)
            worst_solve = max(worst_solve, abs(x1 - re.x1), abs(x2 - re.x2))
            n_case2 += 1
    ok = worst_res < 1e-10 and worst_solve < 1e-12
    report(4, "re-classification", ok,
           f"{len(re_grid)} REs, residual {worst_res:.1e}, lever {worst_lever:.1e}, "
           f"double-solve gap {worst_solve:.1e} on {n_case2}")
    assert worst_res < 1e-10
    assert worst_lever < 1e-10
    assert worst_solve < 1e-12


def _nonzero_quartet(eigs, cut=1e-8):
    return [e for e in eigs if abs(e) >= cut]


def _match(quartet, pairs):
    pool = [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]
    worst = 0.0
    for x in quartet:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - x))
        worst = max(worst, abs(pool[j] - x))
        pool.pop(j)
    return worst


def test_criterion_05_spectral_agreement(re_grid):
    worst = 0.0
    n_closed = 0
    for re in re_grid:
        rep = linearize(re)
        eigs = rep.eigenvalues
        n_zero = int(np.sum(np.abs(eigs) < 1e-8))
        assert n_zero == 4, (re.kind, re.theta, re.masses)
        quartet = _nonzero_quartet(eigs)
        if re.potential.kind == "gravitational":
            pairs = closed_form_eigs_2body(re)
        elif re.masses.equal:
            alpha = 1.0 / re.masses.m1
            pairs = closed_form_eigs_lagrange(re, alpha, re.potential.gamma)
        else:
            continue  # no closed form is printed for unequal-mass linear REs
        n_closed += 1
        gap = _match(quartet, pairs)
        scale = max(1.0, max(abs(e) for e in quartet))
        worst = max(worst, gap / scale)
    ok = worst < 1e-8
    report(5, "spectral-agreement", ok,
           f"{n_closed} closed-form REs, worst multiset gap {worst:.1e}")
    assert worst < 1e-8


def test_criterion_06_stability_theorems(re_grid):
    wrong = []
    checked = 0
    for re in re_grid:
        rep = linearize(re)
        label = rep.classification
        grav = re.potential.kind == "gravitational"
        if grav and re.kind == "acute":
            checked += 1
            if label != "linearly_stable":
                wrong.append((re.kind, re.theta, label))
        elif grav and re.kind == "obtuse" and re.masses.equal:
            checked += 1
            if label != "linearly_unstable":
                wrong.append((re.kind, re.theta, label))
        elif grav and re.kind == "rightAngled" and not re.isosceles:
            checked += 1
            if label != "linearly_stable":
                wrong.append((re.kind, re.phi1, label))
        elif not grav and re.masses.equal:
            checked += 1
            upright = re.theta < math.pi / 2 - 1e-9
            if upright and label != "linearly_unstable":
                wrong.append((re.kind, re.theta, label))
            if not upright:
                scale = max(1.0, float(np.abs(rep.eigenvalues).max()))
                if np.any(np.abs(rep.eigenvalues.real) > 1e-8 * scale):
                    wrong.append((re.kind, re.theta, "real part present"))
    ok = not wrong
    report(6, "stability-predicates", ok,
           f"{checked} predicates checked, {len(wrong)} misclassified")
    assert not wrong, wrong


# ---------------------------------------------------------------------------
# criterion 7: the fold of the obtuse family for unequal masses
# ---------------------------------------------------------------------------

def test_criterion_07_fold():
    found = []
    for theta in (1.62, 1.68, 1.74, 1.80):
        res = fold_locus(theta, M32)
        assert res is not None, theta
        assert abs(res.c0) < 1e-8
        assert res.jacobian_det < 1e-6
        pot = Potential.gravitational(M32)
        _, (w_below, _) = closed_form_eigs_2body(
            re_from_tau(theta, res.tau - 0.25, M32, pot))
        _, (w_above, _) = closed_form_eigs_2body(
            re_from_tau(theta, res.tau + 0.25, M32, pot))
        assert abs(w_below.real) < 1e-12 and abs(w_below.imag) > 0
        assert abs(w_above.imag) < 1e-12 and w_above.real > 0
        found.append(res)
    for theta in (1.7, 2.0, 2.4, 2.8):
        assert fold_locus(theta, M11) is None, theta
    report(7, "fold-locus", True,
           f"tau at theta=1.68 is {found[1].tau:.4f}, "
           f"jac {found[1].jacobian_det:.1e}; equal masses: none")


# ---------------------------------------------------------------------------
# criterion 8: the top's reduced flow is the equal-mass two-body flow
# ---------------------------------------------------------------------------

def test_criterion_08_top_equivalence():
    alpha, gamma = 2.0, 1.0
    kind = HamiltonianKind.lagrange_altered(alpha, gamma)
    m_eq, pot_eq = kind.equivalent_two_body()
    grad = hamiltonian_gradient(kind)

    def bracket_rhs(t, y):
        return table_flow(grad, InvariantPoint.from_tuple(y), allow_off_variety=True)

    rng = np.random.default_rng(5)
    worst_traj = 0.0
    for _ in range(5):
        pt0 = tuple(hilbert_map(left_reduce(
            random_phase_state(rng, momentum_scale=0.5))))
        a = integrate(make_invariant_rhs(m_eq, pot_eq), pt0, 10.0, sample_dt=1.0)
        b = integrate(bracket_rhs, pt0, 10.0, sample_dt=1.0)
        for ya, yb in zip(a.ys, b.ys):
            worst_traj = max(worst_traj, float(np.max(np.abs(
                np.array(ya) - np.array(yb)))))

    # the extra integral barely drifts over a long run of the same flow
    pt0 = hilbert_map(left_reduce(random_phase_state(rng, momentum_scale=0.5)))
    traj = integrate(make_invariant_rhs(m_eq, pot_eq), tuple(pt0),
                     100.0, sample_dt=5.0)
    i0 = integral_I(pt0, alpha, gamma)
    drift = max(abs(integral_I(InvariantPoint.from_tuple(y), alpha, gamma) - i0)
                for y in traj.ys) / max(1.0, abs(i0))
    ok = worst_traj < 1e-6 and drift < 1e-8
    report(8, "top-equivalence", ok,
           f"trajectory gap {worst_traj:.1e}, integral drift {drift:.1e}")
    assert worst_traj < 1e-6
    assert drift < 1e-8


# ---------------------------------------------------------------------------
# criterion 9: the critical-momentum slice and its invariance under the flow
# ---------------------------------------------------------------------------

def test_criterion_09_slice_states():
    rng = np.random.default_rng(13)
    m = MassParams(1.0, 1.3)
    pot = Potential.linear(1.0)
    worst_id = 0.0
    for k in range(100):
        s = random_cospherical_state(rng, momentum_scale=0.6)
        omega, lam, rho = sjamaar_slice_check(s)
        worst_id = max(
            worst_id,
            max(abs(c) for c in (lam + rho).components()),
            max(abs(c) for c in ((2.0 * omega) - (lam - rho)).components()),
        )
        if k < 25:
            pt0 = hilbert_map(left_reduce(s))
            label0 = stratum_classify(pt0)
            traj = integrate(make_invariant_rhs(m, pot), tuple(pt0),
                             10.0, sample_dt=1.0)
            for y in traj.ys:
                pt = InvariantPoint.from_tuple(y)
                gap = abs((casimir_C2_invariant(pt))
                          - (pt.k11 + pt.k22 + 2 * pt.k12))
                assert gap < 1e-8 * max(1.0, casimir_C2_invariant(pt))
                assert stratum_classify(pt, tol=1e-7) == label0
    ok = worst_id < 1e-12
    report(9, "critical-slice", ok, f"identity residual {worst_id:.1e}")
    assert worst_id < 1e-12


# ---------------------------------------------------------------------------
# criterion 10: the bracket suite on the fully reduced space
# ---------------------------------------------------------------------------

def test_criterion_10_bracket_suite():
    rng = np.random.default_rng(17)

    def random_point():
        return hilbert_map(left_reduce(random_phase_state(rng, momentum_scale=0.7)))

    # antisymmetry
    for _ in range(100):
        pt = random_point()
        for a, b in itertools.combinations(GENERATORS, 2):
            scale = max(1.0, pt.k11, pt.k22, pt.k33) ** 2
            assert abs(table_bracket(a, b, pt) + table_bracket(b, a, pt)) < 1e-14 * scale

    # {H, C_k} = 0 for every Hamiltonian kind
    kinds = [
        HamiltonianKind.two_body(M32, Potential.gravitational(M32)),
        HamiltonianKind.two_body(CONS_MASSES, Potential.linear(1.0)),
        HamiltonianKind.lagrange(1.7, 0.9),
        HamiltonianKind.lagrange_altered(1.7, 0.9),
    ]
    worst_cas = 0.0
    for _ in range(250):
        pt = random_point()
        if 1.0 - abs(pt.r) < 1e-3:
            continue
        for kind in kinds:
            tangent = table_flow(hamiltonian_gradient(kind), pt)
            for name in ("C1", "C2", "C3"):
                cg = casimir_gradient(name)(pt)
                val = abs(sum(a * b for a, b in zip(cg, tangent)))
                worst_cas = max(worst_cas, val / max(1.0, *map(abs, cg)))
    assert worst_cas < 1e-10

    # the flow grad H . Pi reproduces the hand-written equations
    m, pot = CONS_MASSES, Potential.linear(0.8)
    grad = hamiltonian_gradient(HamiltonianKind.two_body(m, pot))
    worst_flow = 0.0
    for _ in range(200):
        pt = random_point()
        gap = np.max(np.abs(np.array(table_flow(grad, pt))
                            - np.array(rhs_full_reduced(pt, m, pot))))
        worst_flow = max(worst_flow, float(gap))
    assert worst_flow < 1e-10

    # Jacobi identity where the variety relations hold
    def fd_grad(fn, pt, h=1e-4):
        base = np.array(pt)
        out = []
        for i in range(8):
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            out.append((fn(InvariantPoint.from_tuple(up))
                        - fn(InvariantPoint.from_tuple(dn))) / (2 * h))
        return out

    def bracket_with(fn, c, pt):
        return sum(g * table_bracket(b, c, pt)
                   for g, b in zip(fd_grad(fn, pt), GENERATORS))

    worst_jacobi = 0.0
    count = 0
    while count < 50:
        names = rng.choice(len(GENERATORS), size=3)
        if len(set(names.tolist())) < 3:
            continue
        a, b, c = (GENERATORS[i] for i in names)
        count += 1
        pt = random_point()
        total = (bracket_with(lambda p: table_bracket(a, b, p), c, pt)
                 + bracket_with(lambda p: table_bracket(b, c, p), a, pt)
                 + bracket_with(lambda p: table_bracket(c, a, p), b, pt))
        worst_jacobi = max(worst_jacobi, abs(total))
    ok = worst_jacobi < 1e-6
    report(10, "bracket-suite", ok,
           f"casimir {worst_cas:.1e}, flow {worst_flow:.1e}, jacobi {worst_jacobi:.1e}")
    assert worst_jacobi < 1e-6
