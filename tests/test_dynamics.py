import math

import numpy as np
import pytest
from conftest import (
    bits,
    imag,
    random_reduced_state,
    typed_casimir_C2_direct,
    typed_casimirs,
    typed_hamiltonian_2body,
    typed_hilbert,
    typed_inverse,
    typed_left_reduce,
    typed_momentum_left,
    typed_momentum_right,
    typed_mul,
    typed_norm2,
    typed_right_reduce,
    typed_two_body,
    typed_variety_defect,
)

from spheretop.dynamics import (
    FlowConfig,
    HamiltonianKind,
    SingularityError,
    drift_summary,
    evaluate_reduced_hamiltonian,
    integrate,
    invariants_reduced,
    make_body_rhs,
    make_invariant_rhs,
    make_reduced_rhs,
    point_to_vec,
    reconstruct_rhs,
    reduced_to_vec,
    rhs_full_reduced,
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
    from_body_coords,
    momentum_left,
    momentum_right,
    random_phase_state,
    to_body_coords,
)
from spheretop.quaternion import I, J, K, ONE, Quaternion, inner_product, quat_mul, quat_mul_vec
from spheretop.reduction import (
    InvariantPoint,
    ReducedState,
    all_casimirs,
    casimir_C3,
    hilbert_map,
    left_reduce,
)

M11 = MassParams(1.0, 1.0)
LIN = Potential.linear(1.0)


class TestReducedVectorField:
    def test_rest_is_equilibrium(self):
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0), gD=ONE)
        assert make_reduced_rhs(M11, LIN)(0.0, rs) == (0.0,) * 10

    def test_force_direction(self):
        th = 0.6
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0),
                          gD=Quaternion(math.cos(th), math.sin(th), 0, 0))
        v = make_reduced_rhs(M11, Potential.linear(0.9))(0.0, rs)
        assert imag(*v[0:3]).allclose(imag(-0.9 * math.sin(th), 0, 0), tol=1e-15)
        assert imag(*v[3:6]).allclose(imag(0.9 * math.sin(th), 0, 0), tol=1e-15)

    def test_group_norm_preserved_infinitesimally(self, rng):
        for _ in range(100):
            rs = random_reduced_state(rng)
            gdot = make_reduced_rhs(MassParams(1.3, 0.7), LIN)(0.0, rs)[6:10]
            assert abs(inner_product(gdot, rs.gD)) < 1e-12

    def test_right_flow_mirrors_left(self, rng):
        rs = random_reduced_state(rng)
        right = ReducedState(A1=rs.A1, A2=rs.A2, gD=rs.gD, side="right")
        left_v = make_reduced_rhs(M11, LIN, "left")(0.0, rs)
        right_v = make_reduced_rhs(M11, LIN, "right")(0.0, right)
        assert max(abs(r + lf) for r, lf in zip(right_v, left_v)) <= 1e-12


class TestInvariantVectorField:
    def test_pole_is_static(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        assert rhs_full_reduced(pt, M11, LIN) == pytest.approx((0,) * 8)

    def test_force_free_drift(self):
        free = Potential.custom(v=lambda r: 0.0, f=lambda r: 0.0, fprime=lambda r: 0.0)
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
    """The reduced field of either side, composed from Quaternion operations
    on the state's A1, A2 and gD, agrees with the flat closure to rounding
    (the closure sums the products' terms in another order)."""
    m = MassParams(1.3, 0.7)
    pot = Potential.gravitational(m)
    for _ in range(20):
        rs = random_reduced_state(rng)
        for side, sgn in (("left", 1.0), ("right", -1.0)):
            sided = ReducedState(A1=rs.A1, A2=rs.A2, gD=rs.gD, side=side)
            f, gbar = sgn * pot.f(sided.gD.w), sided.gD.imag()
            gdot = sgn * (quat_mul(sided.gD, (1.0 / m.m2) * sided.A2.as_quaternion())
                          - quat_mul((1.0 / m.m1) * sided.A1.as_quaternion(), sided.gD))
            typed = (f * gbar).components() + (-f * gbar).components() + gdot.components()
            assert make_reduced_rhs(m, pot, side)(0.0, sided) == pytest.approx(typed, rel=1e-14,
                                                                               abs=1e-14)
        pt = hilbert_map(rs)
        assert rhs_full_reduced(pt, m, pot) == make_invariant_rhs(m, pot)(0.0, point_to_vec(pt))


def quaternion_state_rhs(m, pot):
    """The unreduced field of (g1, p1, g2, p2), composed from Quaternion
    operations: g_i' = p_i / m_i and p_i' = (p_i r_i) / m_i +- f g_i Im(gL),
    with r_i = g_i^{-1} p_i."""
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


def quaternion_body_rhs(m, pot):
    """The unreduced field of the body coordinates (g1, B1, g2, B2), composed
    from Quaternion operations: the oracle for the flat closure, which must
    give the same floats bit for bit."""
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f

    def rhs(t, u):
        g1, b1, g2, b2 = (Quaternion(*u[i:i + 4]) for i in (0, 4, 8, 12))
        gL = quat_mul(g1.inverse(), g2)
        f = force(gL.w)
        return (quat_mul(g1, im1 * b1).components()
                + (f * gL.imag()).as_quaternion().components()
                + quat_mul(g2, im2 * b2).components()
                + (-f * gL.imag()).as_quaternion().components())

    return rhs


class TestUnreducedVectorField:
    M = MassParams(1.3, 0.7)
    POTENTIALS = {
        "grav": Potential.gravitational(M),
        "linear": Potential.linear(0.8),
        "custom": Potential.custom(v=lambda r: r ** 3, f=lambda r: -3.0 * r * r,
                                   fprime=lambda r: -6.0 * r),
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
        flat, oracle = make_body_rhs(self.M, pot), quaternion_body_rhs(self.M, pot)
        compared = 0
        body = map(to_body_coords, self._states(rng, 1200))
        for s in (*body, *self._signed_zero_states(rng, 2000)):
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
        for field in (make_body_rhs(self.M, pot), quaternion_body_rhs(self.M, pot),
                      quaternion_state_rhs(self.M, pot)):
            with pytest.raises(CollisionError):
                field(0.0, s)

    @pytest.mark.parametrize("name", ["grav", "linear"])
    def test_integrate_gives_the_same_trajectory(self, rng, name):
        pot = self.POTENTIALS[name]
        u0 = to_body_coords(random_phase_state(rng, momentum_scale=0.6))
        a = integrate(make_body_rhs(self.M, pot), u0, 5.0, sample_dt=0.5)
        b = integrate(quaternion_body_rhs(self.M, pot), u0, 5.0, sample_dt=0.5)
        assert a.ts == b.ts and a.ys == b.ys
        assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)
        assert a.n_accepted > 0

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_pushforward_is_the_field_of_g_and_p(self, rng, name):
        """With p = g B, (g', g' B + g B') is the (g, p) field, on and off the
        phase space, to rounding."""
        pot = self.POTENTIALS[name]
        flat, oracle = make_body_rhs(self.M, pot), quaternion_state_rhs(self.M, pot)
        compared = 0
        for s in self._states(rng, 1200):
            try:
                want = oracle(0.0, s)
            except CollisionError:
                continue
            u = to_body_coords(s)
            du = flat(0.0, u)
            got = []
            for i in (0, 8):
                g, b, gdot, bdot = u[i:i + 4], u[i + 4:i + 8], du[i:i + 4], du[i + 4:i + 8]
                pdot = [x + y for x, y in zip(quat_mul_vec(gdot, b), quat_mul_vec(g, bdot))]
                got += [*gdot, *pdot]
            scale = max(1.0, *map(abs, want))
            assert max(abs(a - b) for a, b in zip(got, want)) <= 16 * 2.0 ** -52 * scale, s
            compared += 1
        assert compared >= 1000

    @pytest.mark.parametrize("name", ["grav", "linear"])
    def test_mapped_out_run_follows_the_field_of_g_and_p(self, rng, name):
        pot = self.POTENTIALS[name]
        y0 = state_to_vec(random_phase_state(rng, momentum_scale=0.6))
        body = integrate(make_body_rhs(self.M, pot), to_body_coords(y0), 5.0, sample_dt=0.5)
        ambient = integrate(quaternion_state_rhs(self.M, pot), y0, 5.0, sample_dt=0.5)
        assert body.ts == ambient.ts
        gap = max(abs(a - b) for u, y in zip(body.ys, ambient.ys)
                  for a, b in zip(from_body_coords(u), y))
        assert gap <= 1e-6

    def test_real_parts_of_the_body_momenta_never_move(self, rng):
        """Re B_i = <g_i, p_i> / |g_i|^2 has the rate 0.0, so it is the same
        float at every sample, here off the phase space."""
        s = random_phase_state(rng)
        y0 = (*s.g1, *(s.p1 + 0.3 * s.g1), *s.g2, *(s.p2 - 0.2 * s.g2))
        traj = integrate(make_body_rhs(self.M, self.POTENTIALS["linear"]),
                         to_body_coords(y0), 20.0, sample_dt=2.0)
        assert traj.n_accepted > 0
        assert {(u[4], u[12]) for u in traj.ys} == {(traj.ys[0][4], traj.ys[0][12])}
        assert traj.ys[0][4] == pytest.approx(0.3) and traj.ys[0][12] == pytest.approx(-0.2)


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
        full = integrate(make_body_rhs(m, LIN), to_body_coords(s), 10.0, sample_dt=2.0)
        inv = integrate(make_invariant_rhs(m, LIN),
                        point_to_vec(hilbert_map(left_reduce(s))), 10.0, sample_dt=2.0)
        assert full.ts == pytest.approx(inv.ts)
        for yf, yi in zip(full.ys, inv.ys):
            pushed = point_to_vec(hilbert_map(left_reduce(vec_to_state(from_body_coords(yf)))))
            assert np.allclose(pushed, yi, atol=1e-6)

    def test_momentum_maps_conserved_on_full_flow(self, rng):
        m = MassParams(0.8, 1.9)
        s = random_phase_state(rng, momentum_scale=0.5)
        traj = integrate(make_body_rhs(m, LIN), to_body_coords(s), 10.0, sample_dt=1.0)
        lam0 = momentum_left(s).components()
        rho0 = momentum_right(s).components()
        for y in traj.ys:
            st = vec_to_state(from_body_coords(y))
            assert np.allclose(momentum_left(st).components(), lam0, atol=1e-9)
            assert np.allclose(momentum_right(st).components(), rho0, atol=1e-9)

    def test_singularity_reported_with_time(self):
        m = MassParams(1.0, 1.0)
        pot = Potential.gravitational(m)
        th = 1.0
        s = PhaseState(g1=ONE, p1=I,
                       g2=Quaternion(math.cos(th), math.sin(th), 0, 0),
                       p2=Quaternion())
        rhs, calls = make_body_rhs(m, pot), [0]

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        with pytest.raises(SingularityError) as err:
            integrate(counted, to_body_coords(s), 50.0)
        assert 0.0 < err.value.time < 50.0
        # the (g, p) field took 666 375 evaluations to get here
        assert calls[0] < 500_000
        # the error carries the steps made up to the failure, and every
        # evaluation, those of the step that failed included
        traj = err.value.trajectory
        assert traj.n_accepted > 0 and traj.n_rejected >= 0
        assert traj.rhs_evals == calls[0]
        assert 0.0 < traj.step_min <= traj.step_max
        assert traj.ts[-1] == err.value.time and len(traj.ys) == traj.n_accepted + 1

    @pytest.mark.parametrize("sample_dt", [None, 0.25])
    def test_blow_up_carries_the_steps_made(self, sample_dt):
        # y' = y^2, y(0) = 1 is 1/(1 - t).  With samples at 0.25 the step that
        # landed on t = 1 used to be stretched back to it after each rejection,
        # so integrate looped for ever; the field stops it should that return
        calls = []

        def field(t, y):
            calls.append(t)
            if len(calls) > 10 ** 5:
                raise RuntimeError("integrate is looping")
            return (y[0] * y[0],)

        with pytest.raises(SingularityError, match="step size underflow") as err:
            integrate(field, (1.0,), 2.0, sample_dt=sample_dt)
        assert 1.0 - 1e-11 < err.value.time < 1.0
        traj = err.value.trajectory
        assert traj.rhs_evals == len(calls)
        assert traj.n_accepted > 0 and 0.0 < traj.step_min <= traj.step_max
        assert traj.ts[-1] == (err.value.time if sample_dt is None else 0.75)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(rel_tol=0.0)
        for bad in ({"rel_tol": math.nan}, {"abs_tol": math.inf}):
            with pytest.raises(ValueError, match="must be finite"):
                FlowConfig(**bad)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_rhs_evals_counts_every_evaluation(self, sampled):
        calls = []

        def pulse(t, y):  # sharp enough to make the controller reject a step
            calls.append(t)
            return (1.0 / (0.01 + (t - 3.0) ** 2),)

        cfg = FlowConfig(rel_tol=1e-8, abs_tol=1e-8)
        traj = integrate(pulse, (0.0,), 10.0, cfg, sample_dt=0.7 if sampled else None)
        assert traj.n_rejected > 0
        assert traj.rhs_evals == len(calls)

    @pytest.mark.parametrize("fail_at", range(2, 27))
    def test_rhs_evals_counts_the_step_a_collision_stops(self, fail_at):
        # y' = -y takes whole steps: call 1 is the initial slope, calls 2-12
        # are the stages of the first step and call 13 the slope after it,
        # and so on; the field reports a collision at call fail_at
        calls = []

        def field(t, y):
            calls.append(t)
            if len(calls) == fail_at:
                raise CollisionError("synthetic collision")
            return (-y[0],)

        with pytest.raises(SingularityError) as err:
            integrate(field, (1.0,), 10.0)
        traj = err.value.trajectory
        assert traj.n_rejected == 0 and traj.n_accepted == (fail_at - 2) // 12
        assert traj.rhs_evals == len(calls) == fail_at
        at_new_slope = (fail_at - 1) % 12 == 0
        assert str(err.value).startswith("collision at" if at_new_slope else "collision near")

    @pytest.mark.parametrize("nan_at", [13, 14, 19, 24])
    def test_rhs_evals_counts_the_step_with_a_nan_error(self, nan_at):
        # a NaN at a stage of the second step (calls 14-24), or in the slope
        # that starts it (call 13), runs all its stages into the estimate
        calls = []

        def field(t, y):
            calls.append(t)
            return (math.nan if len(calls) == nan_at else -y[0],)

        with pytest.raises(SingularityError, match="NaN error estimate") as err:
            integrate(field, (1.0,), 10.0)
        assert err.value.trajectory.n_accepted == 1
        assert err.value.trajectory.rhs_evals == len(calls) == 24

    @pytest.mark.parametrize("t_end, dt", [(100.0, 0.01), (10.05, 0.1), (0.3, 1.0)])
    def test_samples_sit_at_multiples_of_the_step_and_end_at_t_end(self, t_end, dt):
        # the sample time used to be a running sum, which drifted from i * dt,
        # and the run stopped within 1e-12 max(1, T) of T
        traj = integrate(lambda t, y: (1.0,), (0.0,), t_end, sample_dt=dt)
        assert traj.ts[:-1] == [i * dt for i in range(len(traj.ts) - 1)]
        assert traj.ts[-1] == t_end
        assert len(traj.ts) == math.ceil(t_end / dt) + 1
        assert abs(traj.final[0] - t_end) <= 1e-13 * t_end
        assert integrate(lambda t, y: (1.0,), (0.0,), t_end).ts[-1] == t_end

    def test_horizon_must_follow_the_start(self):
        for t_end in (-5.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                integrate(lambda t, y: (1.0,), (0.0,), t_end)

    @pytest.mark.parametrize("t_end", [1e-14, 9.9e-14, 5e-324])
    def test_horizon_below_the_smallest_step_is_rejected(self, t_end):
        # its first step used to underflow at t = 0, reported as a singularity
        calls = []

        def field(t, y):
            calls.append(t)
            return (1.0,)

        with pytest.raises(ValueError, match=f"t_end = {t_end!r} is shorter than the "
                                             "smallest step, 1e-13"):
            integrate(field, (0.0,), t_end)
        assert not calls
        assert integrate(field, (0.0,), 1e-13).ts == [0.0, 1e-13]

    def test_sample_step_must_be_positive_and_finite(self):
        for dt in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sample_dt"):
                integrate(lambda t, y: (1.0,), (0.0,), 1.0, sample_dt=dt)

    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-14), (1.0, 9.9e-13), (100.0, 5e-11)])
    def test_sample_step_below_the_landing_tolerance_is_rejected(self, t_end, dt):
        # below 1e-13 such a step used to trip the step-size underflow at
        # t = 0, reported as a singularity; above it, to start t_end / dt
        # steps, which the field cuts short should the check go
        calls = []

        def field(t, y):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("integrate started stepping")
            return (1.0,)

        with pytest.raises(ValueError, match="sample_dt .* landing tolerance"):
            integrate(field, (0.0,), t_end, sample_dt=dt)
        assert not calls

    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-12), (1.0, 1e-7), (2.0, 1.999e-6),
                                           (1e4, 1e-3)])
    def test_too_many_sample_rows_are_rejected(self, t_end, dt):
        # every row is kept, so 1e12 of them used to grow until the host ran
        # out of memory; the field raises should integrate start stepping
        calls = []

        def field(t, y):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("integrate started stepping")
            return (1.0,)

        with pytest.raises(ValueError, match=r"sample_dt .* more than the cap of 1000000"):
            integrate(field, (0.0,), t_end, sample_dt=dt)
        assert not calls

    def test_non_finite_input_is_named(self):
        for y0 in ((float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(SingularityError, match="non-finite initial state"):
                integrate(lambda t, y: (0.0, 0.0), y0, 1.0)
        with pytest.raises(SingularityError, match="non-finite vector field"):
            integrate(lambda t, y: (float("inf"),), (1.0,), 1.0)

    @pytest.mark.parametrize("slope", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    def test_field_length_must_match_the_state(self, slope):
        # zip used to drop the extra components, or the state's last ones
        with pytest.raises(ValueError, match=f"has {len(slope)} components for a state of 2"):
            integrate(lambda t, y: slope, (0.0, 5.0), 1.0)

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
    the table ``dynamics._DOP853`` (zero where it writes no entry)."""
    from spheretop.dynamics import _DOP853

    stages = _DOP853["stages"]
    c = np.array([0.0, *(stages[i][0] for i in range(2, 13))])
    A = np.array([[stages[i][1].get(j, 0.0) if i in stages else 0.0 for j in range(1, 13)]
                  for i in range(1, 13)])
    b, bh, e = (np.array([_DOP853[w].get(i, 0.0) for i in range(1, 13)])
                for w in ("b", "bh", "e"))
    return c, A, b, bh, e


class TestDOP853Tableau:
    def test_every_written_coefficient_is_in_the_tableau(self):
        from spheretop.dynamics import _DOP853

        # c_i of stages 2 to 11 (c_12 = 1 is not a coefficient), every a_ij,
        # and the b, bh and e weights
        names = [(i, j) for i, (_, a) in _DOP853["stages"].items() for j in a]
        names += [i for i in _DOP853["stages"] if i < 12]
        names += [(w, i) for w in ("b", "bh", "e") for i in _DOP853[w]]
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


def _comprehension_step(rhs, t, h, y, k1, atol, rtol):
    """The DOP853 step as ``integrate`` took it before the step was generated:
    one list comprehension per stage and one loop for the eighth-order
    solution and the weighted error sums.  The reference for the generated
    step, with the coefficients under their old module names."""
    from types import SimpleNamespace

    from spheretop.dynamics import _DOP853

    names = {}
    for i, (ci, a) in _DOP853["stages"].items():
        names[f"C{i}"] = ci
        names.update((f"A{i}_{j}", aij) for j, aij in a.items())
    for w in ("b", "bh", "e"):
        names.update((f"{w.upper()}{i}", v) for i, v in _DOP853[w].items())
    K = SimpleNamespace(**names)

    k2 = rhs(t + K.C2 * h, [yi + h * (K.A2_1 * x1) for yi, x1 in zip(y, k1)])
    k3 = rhs(t + K.C3 * h, [yi + h * (K.A3_1 * x1 + K.A3_2 * x2)
                            for yi, x1, x2 in zip(y, k1, k2)])
    k4 = rhs(t + K.C4 * h, [yi + h * (K.A4_1 * x1 + K.A4_3 * x3)
                            for yi, x1, x3 in zip(y, k1, k3)])
    k5 = rhs(t + K.C5 * h, [yi + h * (K.A5_1 * x1 + K.A5_3 * x3 + K.A5_4 * x4)
                            for yi, x1, x3, x4 in zip(y, k1, k3, k4)])
    k6 = rhs(t + K.C6 * h, [yi + h * (K.A6_1 * x1 + K.A6_4 * x4 + K.A6_5 * x5)
                            for yi, x1, x4, x5 in zip(y, k1, k4, k5)])
    k7 = rhs(t + K.C7 * h, [yi + h * (K.A7_1 * x1 + K.A7_4 * x4 + K.A7_5 * x5
                                      + K.A7_6 * x6)
                            for yi, x1, x4, x5, x6 in zip(y, k1, k4, k5, k6)])
    k8 = rhs(t + K.C8 * h, [yi + h * (K.A8_1 * x1 + K.A8_4 * x4 + K.A8_5 * x5
                                      + K.A8_6 * x6 + K.A8_7 * x7)
                            for yi, x1, x4, x5, x6, x7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = rhs(t + K.C9 * h, [yi + h * (K.A9_1 * x1 + K.A9_4 * x4 + K.A9_5 * x5
                                      + K.A9_6 * x6 + K.A9_7 * x7 + K.A9_8 * x8)
                            for yi, x1, x4, x5, x6, x7, x8
                            in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = rhs(t + K.C10 * h, [yi + h * (K.A10_1 * x1 + K.A10_4 * x4 + K.A10_5 * x5
                                        + K.A10_6 * x6 + K.A10_7 * x7 + K.A10_8 * x8
                                        + K.A10_9 * x9)
                              for yi, x1, x4, x5, x6, x7, x8, x9
                              in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = rhs(t + K.C11 * h, [yi + h * (K.A11_1 * x1 + K.A11_4 * x4 + K.A11_5 * x5
                                        + K.A11_6 * x6 + K.A11_7 * x7 + K.A11_8 * x8
                                        + K.A11_9 * x9 + K.A11_10 * x10)
                              for yi, x1, x4, x5, x6, x7, x8, x9, x10
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = rhs(t + h, [yi + h * (K.A12_1 * x1 + K.A12_4 * x4 + K.A12_5 * x5
                                + K.A12_6 * x6 + K.A12_7 * x7 + K.A12_8 * x8
                                + K.A12_9 * x9 + K.A12_10 * x10 + K.A12_11 * x11)
                      for yi, x1, x4, x5, x6, x7, x8, x9, x10, x11
                      in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])

    ynew = []
    e5sq = e3sq = 0.0
    for yi, x1, x6, x7, x8, x9, x10, x11, x12 in zip(y, k1, k6, k7, k8, k9, k10, k11, k12):
        d = (K.B1 * x1 + K.B6 * x6 + K.B7 * x7 + K.B8 * x8 + K.B9 * x9 + K.B10 * x10
             + K.B11 * x11 + K.B12 * x12)
        yn = yi + h * d
        ynew.append(yn)
        ay, an = abs(yi), abs(yn)
        sc = atol + rtol * (ay if ay > an else an)
        e5 = (K.E1 * x1 + K.E6 * x6 + K.E7 * x7 + K.E8 * x8 + K.E9 * x9 + K.E10 * x10
              + K.E11 * x11 + K.E12 * x12) / sc
        e3 = (d - K.BH1 * x1 - K.BH9 * x9 - K.BH12 * x12) / sc
        e5sq += e5 * e5
        e3sq += e3 * e3
    return ynew, e5sq, e3sq


class TestGeneratedStep:
    @staticmethod
    def _field(n, calls):
        """A nonlinear field that records every call's time and input."""
        def rhs(t, y):
            calls.append((t, tuple(y)))
            return tuple(math.sin(t + y[i - 1]) * y[i] - 0.3 * y[(i + 1) % n] ** 2
                         for i in range(n))
        return rhs

    @pytest.mark.parametrize("n", [1, 2, 8, 10, 16])
    def test_bit_equal_to_the_comprehension_step(self, n, rng):
        import struct

        from spheretop.dynamics import _dop853_step

        def bits(*xs):
            return struct.pack(f"{len(xs)}d", *xs)

        atol = rtol = 1e-8
        errs = []
        for h in (1e-3, 0.02, 0.1, 0.5, 2.0):
            t = float(rng.uniform(-1.0, 5.0))
            y = (rng.normal(size=n) * 10.0 ** rng.uniform(-2.0, 1.0, size=n)).tolist()
            k1 = self._field(n, [])(t, y)
            got_calls, want_calls = [], []
            ynew, e5sq, e3sq = _dop853_step(n)(self._field(n, got_calls), t, h, tuple(y),
                                               k1, atol, rtol)
            want = _comprehension_step(self._field(n, want_calls), t, h, y, k1, atol, rtol)
            assert bits(*ynew, e5sq, e3sq) == bits(*want[0], *want[1:])
            assert len(got_calls) == 11
            assert [(bits(s), bits(*x)) for s, x in got_calls] == \
                [(bits(s), bits(*x)) for s, x in want_calls]
            errs.append(h * e5sq / math.sqrt((e5sq + 0.01 * e3sq) * n))
        # the controller would accept the shortest step and reject the longest
        assert errs[0] <= 1.0 < errs[-1]


class TestInvariantColumns:
    """The sampled invariants of each level equal, bit for bit, the typed
    quantities they replaced, composed in ``conftest``."""

    M = MassParams(0.8, 1.9)
    POT = Potential.gravitational(M)

    def _columns(self, ys, funcs):
        from spheretop.dynamics import Trajectory

        return sample_columns(Trajectory(ts=list(range(len(ys))), ys=ys), funcs)

    def _states(self, rng):
        return [state_to_vec(random_phase_state(rng, momentum_scale=0.7)) for _ in range(50)]

    def _assert_equal(self, cols, ys, typed):
        assert list(cols) == list(typed)
        for name, fn in typed.items():
            assert bits(cols[name]) == bits(map(fn, ys)), name

    def test_full_level_columns_equal_the_typed_functions(self, rng):
        from spheretop.dynamics import invariants_state

        m, pot = self.M, self.POT
        ys = self._states(rng)
        typed = {"H": lambda v: typed_hamiltonian_2body(v, m, pot),
                 "C2": lambda v: typed_norm2(typed_momentum_left(v)),
                 "C3": lambda v: typed_norm2(typed_momentum_right(v)),
                 "C1": lambda v: typed_norm2(typed_mul(typed_inverse(v[0:4]), v[8:12]))}
        self._assert_equal(self._columns(ys, invariants_state(m, pot)), ys, typed)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_reduced_level_columns_equal_the_typed_functions(self, rng, side):
        m, pot = self.M, self.POT
        reduce = typed_left_reduce if side == "left" else typed_right_reduce
        ys = [reduce(v) for v in self._states(rng)]
        typed = {"H": lambda u: typed_two_body(typed_norm2(u[0:3]), typed_norm2(u[3:6]), u[6],
                                               m, pot),
                 "C1": lambda u: typed_norm2(u[6:10]),
                 "C2": typed_casimir_C2_direct,
                 "C3": lambda u: typed_casimirs(typed_hilbert(u))[2]}
        self._assert_equal(self._columns(ys, invariants_reduced(m, pot)), ys, typed)

    def test_invariant_level_columns_equal_the_typed_functions(self, rng):
        from spheretop.dynamics import invariants_point

        m, pot = self.M, self.POT
        ys = [typed_hilbert(typed_left_reduce(v)) for v in self._states(rng)]
        typed = {"H": lambda p: typed_two_body(p[0], p[3], p[6], m, pot),
                 "C1": lambda p: p[5] + p[6] * p[6],
                 "C2": lambda p: typed_casimirs(p)[1],
                 "C3": lambda p: typed_casimirs(p)[2],
                 "variety": typed_variety_defect}
        self._assert_equal(self._columns(ys, invariants_point(m, pot)), ys, typed)

    def test_sampled_C1_is_the_C1_of_reduce(self):
        """C1 squares as x * x on every level, as ``reduce`` (``all_casimirs``)
        does; libm's x ** 2 differs from x * x in the last bit for some x."""
        from spheretop.dynamics import invariants_point

        rng = np.random.default_rng(16)
        r = next((x for x in map(float, rng.uniform(-1.0, 1.0, 100_000)) if x ** 2 != x * x),
                 None)
        if r is None:
            pytest.skip("x ** 2 equals x * x for every sampled x on this platform")
        p = (0.3, 0.1, 0.0, 0.2, 0.0, 1.0 - r * r, r, 0.05)
        assert bits([invariants_point(self.M, self.POT)["C1"](p)]) == bits([all_casimirs(p).C1])
        u = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, r, 0.0, 0.0, 0.0)
        assert bits([invariants_reduced(self.M, self.POT)["C1"](u)]) == bits([r * r])


class TestTopEquivalence:
    def test_two_body_and_altered_top_share_the_reduced_flow(self, rng):
        alpha, gamma = 2.0, 1.0
        kind = HamiltonianKind.lagrange_altered(alpha, gamma)
        m_eq, pot_eq = kind.equivalent_two_body()
        assert m_eq.m1 == pytest.approx(0.5) and pot_eq.kind == "linear"
        pt0 = point_to_vec(hilbert_map(random_reduced_state(rng)))
        a = integrate(make_invariant_rhs(m_eq, pot_eq), pt0, 10.0, sample_dt=1.0)
        # the altered-top flow is grad H . Pi of the Poisson tensor
        # (poisson.bracket_matrix); here the equivalence is at the field level
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
