import math

import numpy as np
import pytest
from conftest import imag, random_reduced_state

from spheretop.dynamics import (
    FlowConfig,
    HamiltonianKind,
    SingularityError,
    drift_summary,
    evaluate_reduced_hamiltonian,
    integrate,
    invariants_reduced,
    make_invariant_rhs,
    make_reduced_rhs,
    make_state_rhs,
    point_to_vec,
    project_reduced,
    reconstruct_rhs,
    reduced_to_vec,
    rhs_full_reduced,
    rhs_left,
    rhs_right,
    sample_columns,
    state_to_vec,
    trajectory_csv,
    vec_to_reduced,
    vec_to_state,
)
from spheretop.phase_space import (
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    momentum_left,
    momentum_right,
    random_phase_state,
)
from spheretop.quaternion import I, J, K, ONE, Quaternion, inner_product, quat_mul
from spheretop.reduction import (
    InvariantPoint,
    ReducedState,
    casimir_C3,
    hilbert_map,
    left_reduce,
)

M11 = MassParams(1.0, 1.0)
LIN = Potential.linear(1.0)


class TestReducedVectorField:
    def test_rest_is_equilibrium(self):
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0), gD=ONE)
        a1dot, a2dot, gdot = rhs_left(rs, M11, LIN)
        assert a1dot.norm() == 0.0 and a2dot.norm() == 0.0 and gdot.norm() == 0.0

    def test_force_direction(self):
        th = 0.6
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0),
                          gD=Quaternion(math.cos(th), math.sin(th), 0, 0))
        a1dot, a2dot, _ = rhs_left(rs, M11, Potential.linear(0.9))
        assert a1dot.allclose(imag(-0.9 * math.sin(th), 0, 0), tol=1e-15)
        assert a2dot.allclose(imag(0.9 * math.sin(th), 0, 0), tol=1e-15)

    def test_group_norm_preserved_infinitesimally(self, rng):
        for _ in range(100):
            rs = random_reduced_state(rng)
            _, _, gdot = rhs_left(rs, MassParams(1.3, 0.7), LIN)
            assert abs(inner_product(gdot, rs.gD)) < 1e-12

    def test_right_flow_mirrors_left(self, rng):
        rs = random_reduced_state(rng)
        right = ReducedState(A1=rs.A1, A2=rs.A2, gD=rs.gD, side="right")
        la1, la2, lg = rhs_left(rs, M11, LIN)
        ra1, ra2, rg = rhs_right(right, M11, LIN)
        assert ra1.allclose(-1.0 * la1) and ra2.allclose(-1.0 * la2)
        assert rg.allclose(-1.0 * lg)

    def test_side_mismatch_rejected(self, rng):
        rs = random_reduced_state(rng)
        with pytest.raises(ValueError):
            rhs_right(rs, M11, LIN)


class TestInvariantVectorField:
    def test_pole_is_static(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        assert rhs_full_reduced(pt, M11, LIN) == pytest.approx((0,) * 8)

    def test_force_free_drift(self):
        free = Potential.custom(v=lambda r: 0.0, f=lambda r: 0.0)
        pt = InvariantPoint(k11=0, k12=0, k13=1.0, k22=0, k23=0, k33=0, delta=0, r=0)
        out = rhs_full_reduced(pt, MassParams(2.0, 1.0), free)
        assert out[0] == pytest.approx(0.0)       # k11' = 2 f k13 = 0
        assert out[6] == pytest.approx(0.5)       # r' = k13/m1

    def test_matches_reduced_flow_through_invariants(self, rng):
        # chain rule check: d/dt sigma(x) along the reduced flow equals the
        # invariant-space field at sigma(x)
        m = MassParams(1.4, 0.6)
        for _ in range(50):
            rs = random_reduced_state(rng)
            v = reduced_to_vec(rs)
            rhs_r = make_reduced_rhs(m, LIN)
            h = 1e-6
            vdot = rhs_r(0.0, v)
            plus = hilbert_map(vec_to_reduced([a + h * b for a, b in zip(v, vdot)]))
            minus = hilbert_map(vec_to_reduced([a - h * b for a, b in zip(v, vdot)]))
            fd = [(a - b) / (2 * h) for a, b in zip(plus.as_tuple(), minus.as_tuple())]
            direct = rhs_full_reduced(hilbert_map(rs), m, LIN)
            assert np.allclose(fd, direct, atol=1e-6)


def test_typed_fields_are_the_flat_closures(rng):
    m = MassParams(1.3, 0.7)
    pot = Potential.gravitational(m)
    for _ in range(20):
        rs = random_reduced_state(rng)
        for side, typed in (("left", rhs_left), ("right", rhs_right)):
            sided = ReducedState(A1=rs.A1, A2=rs.A2, gD=rs.gD, side=side)
            a1, a2, g = typed(sided, m, pot)
            flat = make_reduced_rhs(m, pot, side)(0.0, reduced_to_vec(sided))
            assert a1.components() + a2.components() + g.components() == flat
        pt = hilbert_map(rs)
        assert rhs_full_reduced(pt, m, pot) == make_invariant_rhs(m, pot)(0.0, point_to_vec(pt))


def quaternion_state_rhs(m, pot):
    """The unreduced field composed from Quaternion operations: the oracle
    for the flat closure, which must give the same floats bit for bit."""
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f

    def rhs(t, s):
        g1 = Quaternion(*s[0:4])
        p1 = Quaternion(*s[4:8])
        g2 = Quaternion(*s[8:12])
        p2 = Quaternion(*s[12:16])
        gL = quat_mul(g1.inverse(), g2)
        f = force(gL.w)
        gbar = gL.imag().as_quaternion()
        r1 = quat_mul(g1.inverse(), p1)
        r2 = quat_mul(g2.inverse(), p2)
        p1dot = im1 * quat_mul(p1, r1) + f * quat_mul(g1, gbar)
        p2dot = im2 * quat_mul(p2, r2) - f * quat_mul(g2, gbar)
        return ((im1 * p1).components() + p1dot.components()
                + (im2 * p2).components() + p2dot.components())

    return rhs


class TestUnreducedVectorField:
    M = MassParams(1.3, 0.7)
    POTENTIALS = {
        "grav": Potential.gravitational(M),
        "linear": Potential.linear(0.8),
        "custom": Potential.custom(v=lambda r: r ** 3, f=lambda r: -3.0 * r * r),
    }

    @staticmethod
    def _states(rng, n):
        """Unit-sphere states and, like the integrator's stage vectors,
        states pushed off the sphere and off the tangent spaces."""
        for i in range(n):
            v = state_to_vec(random_phase_state(rng, momentum_scale=1.5))
            if i % 2:
                v = tuple(c * (1.0 + 1e-3 * e) for c, e in zip(v, rng.normal(size=16)))
            yield v

    @staticmethod
    def _signed_zero_states(rng, n):
        """Positions at +-1, +-i, +-j, +-k and zero momenta, every zero with a
        random sign: here the sign of a zero output depends on the zero terms
        of the Hamilton products."""
        for _ in range(n):
            v = [math.copysign(0.0, s) for s in rng.choice((-1.0, 1.0), size=16)]
            for block in (0, 8):
                k = block + int(rng.integers(4))
                v[k] = math.copysign(1.0, v[k])
            yield tuple(v)

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_flat_field_matches_the_quaternion_oracle(self, rng, name):
        pot = self.POTENTIALS[name]
        flat, oracle = make_state_rhs(self.M, pot), quaternion_state_rhs(self.M, pot)
        compared = 0
        for s in (*self._states(rng, 1200), *self._signed_zero_states(rng, 2000)):
            try:
                want = oracle(0.0, s)
            except CollisionError:
                with pytest.raises(CollisionError):
                    flat(0.0, s)
                continue
            got = flat(0.0, s)
            assert got == want, s
            # == treats -0.0 and 0.0 as equal; the signs must agree too
            assert [math.copysign(1.0, c) for c in got] == \
                [math.copysign(1.0, c) for c in want], s
            compared += 1
        assert compared >= 1000

    def test_both_fields_name_a_collision(self):
        pot = self.POTENTIALS["grav"]
        g2 = Quaternion(math.cos(1e-6), math.sin(1e-6), 0.0, 0.0)
        s = state_to_vec(PhaseState(g1=ONE, p1=J, g2=g2, p2=Quaternion(0.0, 0.0, 0.0, 1.0)))
        for field in (make_state_rhs(self.M, pot), quaternion_state_rhs(self.M, pot)):
            with pytest.raises(CollisionError):
                field(0.0, s)

    @pytest.mark.parametrize("name", ["grav", "linear"])
    def test_integrate_gives_the_same_trajectory(self, rng, name):
        pot = self.POTENTIALS[name]
        y0 = state_to_vec(random_phase_state(rng, momentum_scale=0.6))
        a = integrate(make_state_rhs(self.M, pot), y0, 5.0, sample_dt=0.5)
        b = integrate(quaternion_state_rhs(self.M, pot), y0, 5.0, sample_dt=0.5)
        assert a.ts == b.ts and a.ys == b.ys
        assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)
        assert a.n_accepted > 0


class TestReconstruction:
    def test_zero_momentum(self):
        assert reconstruct_rhs(ONE, imag(0, 0, 0), 1.0).norm() == 0.0

    def test_identity_frame(self):
        assert reconstruct_rhs(ONE, imag(1, 0, 0), 1.0).allclose(I)

    def test_rotated_frame(self):
        # oracle: j i / 2 = -k/2
        assert reconstruct_rhs(J, imag(1, 0, 0), 2.0).allclose(-0.5 * K)

    def test_tangency(self, rng):
        for _ in range(50):
            g = random_reduced_state(rng).gD
            out = reconstruct_rhs(g, imag(*rng.normal(size=3)), 1.7)
            assert abs(inner_product(out, g)) < 1e-12


class TestReducedHamiltonians:
    def test_two_body_rest(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        kind = HamiltonianKind.two_body(M11, LIN)
        assert evaluate_reduced_hamiltonian(kind, pt) == pytest.approx(1.0)

    def test_altered_form_substitution(self):
        # alpha/2 (k11+k22) + gamma r at k11=k22=1, r=0 and alpha=2 is 2
        pt = InvariantPoint(k11=1.0, k12=0.0, k13=0, k22=1.0, k23=0, k33=0, r=0.0, delta=0)
        kind = HamiltonianKind.lagrange_altered(2.0, 1.0)
        assert evaluate_reduced_hamiltonian(kind, pt) == pytest.approx(2.0)

    def test_difference_is_casimir_multiple(self, rng):
        alpha, gamma = 1.4, 0.8
        lag = HamiltonianKind.lagrange(alpha, gamma)
        alt = HamiltonianKind.lagrange_altered(alpha, gamma)
        for _ in range(100):
            pt = hilbert_map(random_reduced_state(rng))
            diff = (evaluate_reduced_hamiltonian(lag, pt)
                    - evaluate_reduced_hamiltonian(alt, pt))
            assert diff == pytest.approx((1 - alpha) / 4.0 * casimir_C3(pt), abs=1e-12)

    def test_reduced_state_and_point_agree(self, rng):
        kind = HamiltonianKind.two_body(MassParams(2.0, 0.5), LIN)
        for _ in range(50):
            rs = random_reduced_state(rng)
            a = evaluate_reduced_hamiltonian(kind, rs)
            b = evaluate_reduced_hamiltonian(kind, hilbert_map(rs))
            assert a == pytest.approx(b, abs=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            HamiltonianKind.lagrange(3.0, 1.0)


class TestIntegrator:
    def test_zero_field_constant(self):
        traj = integrate(lambda t, y: (0.0, 0.0), (1.0, -2.0), 5.0)
        assert traj.final == (1.0, -2.0)

    def test_harmonic_oscillator_accuracy(self):
        traj = integrate(lambda t, y: (y[1], -y[0]), (1.0, 0.0), 10.0)
        assert traj.final[0] == pytest.approx(math.cos(10.0), abs=1e-9)

    def test_left_flow_conservation(self, rng):
        m = MassParams(1.0, 1.3)
        rs = random_reduced_state(rng)
        funcs = invariants_reduced(m, LIN)
        traj = integrate(make_reduced_rhs(m, LIN), reduced_to_vec(rs), 10.0,
                         sample_dt=1.0)
        drift = drift_summary(sample_columns(traj, funcs))
        assert drift["C1"] < 1e-8
        assert drift["C2"] < 1e-8
        # tightened-tolerance rerun agrees with the nominal run
        tight = integrate(make_reduced_rhs(m, LIN), reduced_to_vec(rs), 10.0,
                          FlowConfig(rel_tol=1e-13, abs_tol=1e-13))
        assert np.allclose(traj.final, tight.final, atol=1e-8)

    def test_commuting_square_short(self, rng):
        m = MassParams(1.0, 1.7)
        s = random_phase_state(rng, momentum_scale=0.6)
        full = integrate(make_state_rhs(m, LIN), state_to_vec(s), 10.0, sample_dt=2.0)
        inv = integrate(make_invariant_rhs(m, LIN),
                        point_to_vec(hilbert_map(left_reduce(s))), 10.0, sample_dt=2.0)
        assert full.ts == pytest.approx(inv.ts)
        for yf, yi in zip(full.ys, inv.ys):
            pushed = point_to_vec(hilbert_map(left_reduce(vec_to_state(yf))))
            assert np.allclose(pushed, yi, atol=1e-6)

    def test_momentum_maps_conserved_on_full_flow(self, rng):
        m = MassParams(0.8, 1.9)
        s = random_phase_state(rng, momentum_scale=0.5)
        traj = integrate(make_state_rhs(m, LIN), state_to_vec(s), 10.0, sample_dt=1.0)
        lam0 = momentum_left(s).components()
        rho0 = momentum_right(s).components()
        for y in traj.ys:
            st = vec_to_state(y)
            assert np.allclose(momentum_left(st).components(), lam0, atol=1e-9)
            assert np.allclose(momentum_right(st).components(), rho0, atol=1e-9)

    def test_projection_keeps_unit_norm(self, rng):
        m = MassParams(1.0, 1.0)
        rs = random_reduced_state(rng)
        cfg = FlowConfig(rel_tol=1e-6, abs_tol=1e-6)
        traj = integrate(make_reduced_rhs(m, LIN), reduced_to_vec(rs), 20.0, cfg,
                         project=project_reduced)
        gn = sum(c * c for c in traj.final[6:])
        assert gn == pytest.approx(1.0, abs=1e-14)

    def test_singularity_reported_with_time(self):
        m = MassParams(1.0, 1.0)
        pot = Potential.gravitational(m)
        th = 1.0
        s = PhaseState(g1=ONE, p1=I,
                       g2=Quaternion(math.cos(th), math.sin(th), 0, 0),
                       p2=Quaternion())
        with pytest.raises(SingularityError) as err:
            integrate(make_state_rhs(m, pot), state_to_vec(s), 50.0)
        assert 0.0 < err.value.time < 50.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(rel_tol=0.0)
        for bad in ({"rel_tol": math.nan}, {"abs_tol": math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                FlowConfig(**bad)

    @pytest.mark.parametrize("projection", [False, True])
    def test_rhs_evals_counts_every_evaluation(self, projection):
        calls = []

        def pulse(t, y):  # sharp enough to make the controller reject a step
            calls.append(t)
            return (1.0 / (0.01 + (t - 3.0) ** 2),)

        cfg = FlowConfig(rel_tol=1e-8, abs_tol=1e-8)
        traj = integrate(pulse, (0.0,), 10.0, cfg,
                         project=(lambda y: y) if projection else None)
        assert traj.n_rejected > 0
        assert traj.rhs_evals == len(calls)

    def test_horizon_must_follow_the_start(self):
        for t_end in (-5.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                integrate(lambda t, y: (1.0,), (0.0,), t_end)

    def test_sample_step_must_be_positive_and_finite(self):
        for dt in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sample_dt"):
                integrate(lambda t, y: (1.0,), (0.0,), 1.0, sample_dt=dt)

    def test_non_finite_input_is_named(self):
        for y0 in ((float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(SingularityError, match="non-finite initial state"):
                integrate(lambda t, y: (0.0, 0.0), y0, 1.0)
        with pytest.raises(SingularityError, match="non-finite vector field"):
            integrate(lambda t, y: (float("inf"),), (1.0,), 1.0)

    def test_nan_error_estimate_is_named(self):
        def rhs(t, y):  # finite at the start, NaN at every later stage
            return (1.0,) if t == 0.0 else (float("nan"),)

        with pytest.raises(SingularityError, match="NaN error estimate") as err:
            integrate(rhs, (1.0,), 1.0)
        assert err.value.time == 0.0

    def test_nan_field_cannot_hang(self):
        # this call used to loop forever; a subprocess keeps a regression
        # from hanging the suite
        import os
        import subprocess
        import sys
        from pathlib import Path

        import spheretop

        code = ("from spheretop.dynamics import SingularityError, integrate\n"
                "try:\n"
                "    integrate(lambda t, y: (float('nan'),), (1.0,), 1.0)\n"
                "except SingularityError as exc:\n"
                "    print(exc)\n")
        src = str(Path(spheretop.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert "non-finite vector field" in done.stdout


def _dop853_tableau():
    """(c, A, b, bh, e) of the integrator as 0-based arrays, assembled from
    the coefficients written out in ``dynamics`` (zero where none is)."""
    from spheretop import dynamics

    def coef(name):
        return getattr(dynamics, name, 0.0)

    c = np.array([0.0, *(coef(f"_C{i}") for i in range(2, 12)), 1.0])
    A = np.array([[coef(f"_A{i}_{j}") for j in range(1, 13)] for i in range(1, 13)])
    b, bh, e = (np.array([coef(f"_{w}{i}") for i in range(1, 13)]) for w in ("B", "BH", "E"))
    return c, A, b, bh, e


class TestDOP853Tableau:
    def test_every_written_coefficient_is_in_the_tableau(self):
        import re

        from spheretop import dynamics

        names = [n for n in vars(dynamics)
                 if re.fullmatch(r"_(A\d+_\d+|BH?\d+|E\d+|C\d+)", n)]
        c, A, b, bh, e = _dop853_tableau()
        assert np.all(np.tril(A, -1) == A)  # explicit
        assert len(names) == sum(np.count_nonzero(x) for x in (c[1:-1], A, b, bh, e))

    def test_row_sums_are_the_nodes(self):
        c, A, *_ = _dop853_tableau()
        for ci, row in zip(c, A):
            assert abs(math.fsum(row) - ci) <= 1e-14

    def test_quadrature_conditions_to_order_eight(self):
        c, _, b, *_ = _dop853_tableau()
        for k in range(1, 9):
            assert abs(math.fsum(b * c ** (k - 1)) - 1.0 / k) <= 1e-15, k

    def test_error_weights_annihilate_constants(self):
        _, _, b, bh, e = _dop853_tableau()
        assert abs(math.fsum(e)) <= 1e-15
        assert abs(math.fsum(b - bh)) <= 1e-15

    def test_agrees_with_scipy(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        c, A, b, bh, e = _dop853_tableau()
        n = coeffs.N_STAGES
        # scipy's error weights carry a thirteenth entry, for the slope at
        # the new state, which both estimates leave out
        assert coeffs.E3[n] == coeffs.E5[n] == 0.0
        for ours, theirs in ((c, coeffs.C[:n]), (A, coeffs.A[:n, :n]), (b, coeffs.B),
                             (b - bh, coeffs.E3[:n]), (e, coeffs.E5[:n])):
            assert ours.shape == theirs.shape
            assert np.all(np.abs(ours - theirs) <= 1e-15 * np.maximum(1.0, np.abs(theirs)))


class TestInvariantColumns:
    def test_full_level_columns_equal_the_typed_functions(self, rng):
        from spheretop.dynamics import Trajectory, invariants_state
        from spheretop.phase_space import hamiltonian_2body

        m = MassParams(0.8, 1.9)
        pot = Potential.gravitational(m)
        states = [random_phase_state(rng, momentum_scale=0.7) for _ in range(50)]
        traj = Trajectory(ts=list(range(len(states))), ys=[state_to_vec(s) for s in states])
        cols = sample_columns(traj, invariants_state(m, pot))
        typed = {"H": lambda s: hamiltonian_2body(s, m, pot),
                 "C1": lambda s: (s.g1.inverse() * s.g2).norm2(),
                 "C2": lambda s: momentum_left(s).norm2(),
                 "C3": lambda s: momentum_right(s).norm2()}
        assert set(cols) == set(typed)
        for name, fn in typed.items():
            for got, s in zip(cols[name], states):
                want = fn(s)
                assert abs(got - want) <= 1e-15 * abs(want), name


class TestTopEquivalence:
    def test_two_body_and_altered_top_share_the_reduced_flow(self, rng):
        alpha, gamma = 2.0, 1.0
        kind = HamiltonianKind.lagrange_altered(alpha, gamma)
        m_eq, pot_eq = kind.equivalent_two_body()
        assert m_eq.m1 == pytest.approx(0.5) and pot_eq.kind == "linear"
        pt0 = point_to_vec(hilbert_map(random_reduced_state(rng)))
        a = integrate(make_invariant_rhs(m_eq, pot_eq), pt0, 10.0, sample_dt=1.0)
        # the altered-top flow is assembled through the Poisson structure
        # table in test_poisson; here the equivalence is at the field level
        from spheretop.poisson import hamiltonian_gradient, table_flow
        grad = hamiltonian_gradient(kind)
        for y in a.ys:
            pt = InvariantPoint.from_tuple(y)
            assert np.allclose(
                table_flow(grad, pt, allow_off_variety=True),
                rhs_full_reduced(pt, m_eq, pot_eq), atol=1e-10)


def test_trajectory_csv_layout(rng):
    traj = integrate(lambda t, y: (1.0,), (0.0,), 1.0, sample_dt=0.5)
    text = trajectory_csv(traj, ("x",), sample_columns(traj, {"twice": lambda y: 2 * y[0]}))
    lines = text.strip().splitlines()
    assert lines[0] == "t,x,twice"
    assert len(lines) == 4  # t = 0, 0.5, 1.0
