import math
import re

import numpy as np
import pytest
from conftest import bits, oracle_mul, quat, random_unit

from spheretop.phase_space import (
    COLLISION_MARGIN,
    MODEL_RANGE,
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    _collision_guard,
    classify_point,
    hamiltonian_2body,
    hamiltonian_lagrange,
    momentum_left,
    momentum_right,
    random_cospherical_state,
    random_phase_state,
    sjamaar_slice_check,
)
from spheretop.quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    quat_dot_vec,
    quat_inverse_vec,
    quat_mul,
)


def state(g1, p1, g2, p2):
    return PhaseState(g1=g1, p1=p1, g2=g2, p2=p2)


STANDARD = state(ONE, I, J, K)  # the recurring worked example


def exp_i(angle):
    return Quaternion(math.cos(angle), math.sin(angle), 0.0, 0.0)


class TestTypes:
    def test_validate_accepts_physical_states(self, rng):
        for _ in range(20):
            random_phase_state(rng).validate()

    def test_validate_rejects_off_sphere(self):
        with pytest.raises(ValueError):
            state(quat(2, 0, 0, 0), I, ONE, I * 0.0).validate()

    def test_validate_rejects_non_tangent(self):
        with pytest.raises(ValueError):
            state(ONE, ONE, J, K).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_validate_rejects_non_finite_components(self, bad):
        # NaN fails every comparison, so the norm and tangency checks let it pass
        for i in range(16):
            v = list(STANDARD.g1.components() + STANDARD.p1.components()
                     + STANDARD.g2.components() + STANDARD.p2.components())
            v[i] = bad
            s = state(*(Quaternion(*v[k:k + 4]) for k in (0, 4, 8, 12)))
            with pytest.raises(ValueError, match="must be finite"):
                s.validate()

    def test_masses_positive(self):
        with pytest.raises(ValueError):
            MassParams(1.0, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            MassParams(math.inf, 1.0)

    def test_json_round_trip(self, rng):
        s = random_phase_state(rng)
        back = PhaseState.from_json_dict(s.to_json_dict())
        assert back == s


class TestHamiltonians:
    def test_linear_potential_zero(self):
        s = state(ONE, Quaternion(), I, Quaternion())
        m = MassParams(1.0, 1.0)
        assert hamiltonian_2body(s, m, Potential.linear(1.0)) == pytest.approx(0.0)

    def test_kinetic_only(self):
        s = state(ONE, J, I, Quaternion())
        m = MassParams(1.0, 1.0)
        assert hamiltonian_2body(s, m, Potential.linear(1.0)) == pytest.approx(0.5)

    def test_gravitational_value(self):
        # substitute r = cos(pi/3) into -m1 m2 cot(theta)
        s = state(ONE, Quaternion(), exp_i(math.pi / 3), Quaternion())
        m = MassParams(1.0, 1.0)
        pot = Potential.gravitational(m)
        assert hamiltonian_2body(s, m, pot) == pytest.approx(-1 / math.sqrt(3))

    def test_collision_guard(self):
        s = state(ONE, Quaternion(), exp_i(1e-12), Quaternion())
        m = MassParams(1.0, 1.0)
        with pytest.raises(CollisionError):
            hamiltonian_2body(s, m, Potential.gravitational(m))

    def test_lagrange_pure_potential(self):
        s = state(ONE, Quaternion(), ONE, Quaternion())
        assert hamiltonian_lagrange(s, alpha=1.0, gamma=1.0) == pytest.approx(1.0)

    def test_lagrange_alpha_one_is_two_body(self, rng):
        for _ in range(20):
            s = random_phase_state(rng)
            expected = 0.5 * (s.p1.norm2() + s.p2.norm2()) + 0.7 * s.separation()
            assert hamiltonian_lagrange(s, 1.0, 0.7) == pytest.approx(expected, abs=1e-12)

    def test_lagrange_coupling_term(self):
        # R2 = j^{-1} k = -i by the product oracle, so <R1, R2> = -1
        r2 = oracle_mul(J.inverse(), K)
        assert r2.allclose(-I)
        assert hamiltonian_lagrange(STANDARD, alpha=2.0, gamma=0.0) == pytest.approx(2.0)

    def test_lagrange_alpha_range(self):
        with pytest.raises(ValueError):
            hamiltonian_lagrange(STANDARD, alpha=2.5, gamma=0.0)


class TestMomentumMaps:
    def test_at_identity(self):
        s = state(ONE, 2.0 * I, ONE, 3.0 * I)
        assert momentum_left(s).allclose(momentum_right(s))
        assert momentum_left(s).components() == pytest.approx((5.0, 0.0, 0.0))

    def test_worked_example(self):
        # oracle: k j^{-1} = i and j^{-1} k = -i
        assert oracle_mul(K, J.inverse()).allclose(I)
        assert oracle_mul(J.inverse(), K).allclose(-I)
        assert momentum_left(STANDARD).components() == pytest.approx((2.0, 0.0, 0.0))
        assert momentum_right(STANDARD).norm() == pytest.approx(0.0)

    def test_zero_momenta(self, rng):
        g1, g2 = random_unit(rng), random_unit(rng)
        s = state(g1, Quaternion(), g2, Quaternion())
        assert momentum_left(s).norm() == 0.0
        assert momentum_right(s).norm() == 0.0

    def test_values_are_imaginary(self, rng):
        for _ in range(200):
            s = random_phase_state(rng)
            lam_raw = quat_mul(s.p1, s.g1.inverse()) + quat_mul(s.p2, s.g2.inverse())
            rho_raw = quat_mul(s.g1.inverse(), s.p1) + quat_mul(s.g2.inverse(), s.p2)
            assert abs(lam_raw.w) < 1e-12
            assert abs(rho_raw.w) < 1e-12

    def test_equivariance(self, rng):
        for _ in range(1000):
            s = random_phase_state(rng)
            l, r = random_unit(rng), random_unit(rng)
            rinv = r.inverse()
            moved = state(*(quat_mul(quat_mul(l, q), rinv)
                            for q in (s.g1, s.p1, s.g2, s.p2)))
            lam = quat_mul(quat_mul(l, momentum_left(s).as_quaternion()), l.inverse())
            rho = quat_mul(quat_mul(r, momentum_right(s).as_quaternion()), rinv)
            assert momentum_left(moved).allclose(lam.imag(), tol=1e-10)
            assert momentum_right(moved).allclose(rho.imag(), tol=1e-10)


class TestPointClassification:
    def test_cocircular_by_construction(self):
        th = 0.8
        s = state(ONE, I, exp_i(th), quat_mul(I, exp_i(th)))
        assert classify_point(s) == "cocircular"

    def test_generic_with_momentum_gap(self):
        assert classify_point(STANDARD) == "generic"
        lam2 = momentum_left(STANDARD).norm2()
        rho2 = momentum_right(STANDARD).norm2()
        assert (lam2, rho2) == pytest.approx((4.0, 0.0))

    def test_cospherical_three_space(self):
        s = state(ONE, I, J, I)
        assert classify_point(s) == "cospherical"

    def test_momentum_norm_criterion_both_directions(self, rng):
        for _ in range(100):
            s = random_cospherical_state(rng)
            gap = abs(momentum_left(s).norm2() - momentum_right(s).norm2())
            assert gap < 1e-10
            assert classify_point(s) in ("cospherical", "cocircular")
        for _ in range(100):
            s = random_phase_state(rng)
            gap = abs(momentum_left(s).norm2() - momentum_right(s).norm2())
            if classify_point(s) == "generic":
                assert gap > 1e-10  # critical values occur only on the locus


def cospherical_sides(s):
    """|lambda|^2 - |rho|^2 from the momentum maps, and the paper's
    2<L1, L2> - 2<R1, R2> with L_i = p_i g_i^{-1}, R_i = g_i^{-1} p_i."""
    lhs = momentum_left(s).norm2() - momentum_right(s).norm2()
    l1, l2 = quat_mul(s.p1, s.g1.inverse()), quat_mul(s.p2, s.g2.inverse())
    r1, r2 = quat_mul(s.g1.inverse(), s.p1), quat_mul(s.g2.inverse(), s.p2)
    return lhs, 2.0 * quat_dot_vec(l1, l2) - 2.0 * quat_dot_vec(r1, r2)


class TestCosphericalIdentity:
    def test_zero_momenta(self, rng):
        s = state(random_unit(rng), Quaternion(), random_unit(rng), Quaternion())
        assert cospherical_sides(s) == pytest.approx((0.0, 0.0))

    def test_worked_example(self):
        assert cospherical_sides(STANDARD) == pytest.approx((4.0, 4.0))

    def test_sides_agree_everywhere(self, rng):
        for _ in range(300):
            s = random_phase_state(rng)
            lhs, rhs = cospherical_sides(s)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_vanishes_on_cospherical_states(self, rng):
        for _ in range(100):
            lhs, rhs = cospherical_sides(random_cospherical_state(rng))
            assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


class TestSjamaarSlice:
    def test_rest_states(self):
        s = state(I, Quaternion(), K, Quaternion())
        omega, lam, rho = sjamaar_slice_check(s)
        assert omega.norm() == 0.0 and lam.norm() == 0.0 and rho.norm() == 0.0

    def test_single_moving_particle(self):
        # oracle: j i^{-1} = k and i^{-1} j = -k
        assert oracle_mul(J, I.inverse()).allclose(K)
        assert oracle_mul(I.inverse(), J).allclose(-K)
        s = state(I, J, K, Quaternion())
        omega, lam, rho = sjamaar_slice_check(s)
        assert omega.components() == pytest.approx((0.0, 0.0, 1.0))
        assert lam.allclose(-rho, tol=1e-15)

    def test_contract_on_random_slice_states(self, rng):
        for _ in range(100):
            omega, lam, rho = sjamaar_slice_check(random_cospherical_state(rng))
            assert lam.allclose(-rho, tol=1e-12)
            assert (2.0 * omega).allclose(lam - rho, tol=1e-12)

    def test_rejects_real_parts(self):
        with pytest.raises(ValueError):
            sjamaar_slice_check(STANDARD)

    def test_mixed_example_identity(self):
        s = state(I, J, J, K)
        omega, lam, rho = sjamaar_slice_check(s)
        assert (2.0 * omega).allclose(lam - rho, tol=1e-15)


class TestBlocks:
    """``v`` of either potential, the collision guard and ``quat_inverse_vec``
    take a block of rows (arrays) with each row's IEEE operations."""

    M = MassParams(0.8, 1.9)

    @pytest.mark.parametrize("pot", [Potential.gravitational(M), Potential.linear(-0.7)],
                             ids=["grav", "linear"])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_potential_value_of_a_block_is_each_rows(self, rng, pot, n):
        r = rng.uniform(-0.999, 0.999, n)
        r[rng.random(n) < 0.2] *= 1e-7
        got = pot.v(r)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        assert [float(x).hex() for x in got] == [pot.v(float(x)).hex() for x in r]

    @pytest.mark.parametrize("n", [1, 4])
    def test_a_block_too_close_to_a_collision_names_its_first_such_row(self, n):
        pot = Potential.gravitational(self.M)
        near = 1.0 - 1e-10
        r = np.array([-near] if n == 1 else [0.5, -near, 0.2, near])
        with pytest.raises(CollisionError) as scalar:
            pot.v(-near)
        with pytest.raises(CollisionError) as block:
            pot.v(r)
        assert str(block.value) == str(scalar.value)
        pot.v(np.array([0.5, -0.5]))  # a clear block passes

    def test_inverse_of_a_block_is_each_rows(self, rng):
        q = rng.normal(size=(4, 30))
        got = quat_inverse_vec(tuple(q))
        for i in range(30):
            want = quat_inverse_vec(tuple(map(float, q[:, i])))
            assert [float(c[i]).hex() for c in got] == [w.hex() for w in want]
        with pytest.raises(ZeroDivisionError, match="zero quaternion has no inverse"):
            quat_inverse_vec((0.0, -0.0, 1e-200, 0.0))


def _outcome(fn, r):
    """The bits fn(r) returns, or its exception's type and text."""
    try:
        return bits((fn(r),))
    except (ArithmeticError, ValueError) as exc:  # CollisionError is a ValueError
        return type(exc), str(exc)


class TestGuardFastPath:
    """The gravitational f and fprime call the collision guard and then their
    formula, bit for bit and error for error, at the margin's edge, zeros,
    subnormals, infinities and NaN."""

    M = MassParams(0.8, 1.9)
    EDGE = 1.0 - COLLISION_MARGIN
    POINTS = [1.0, EDGE, math.nextafter(EDGE, 0.0), math.nextafter(EDGE, 2.0), 0.0, 5e-324,
              2.2250738585072014e-308 / 3, 0.5, 2.0, math.inf, math.nan]

    @pytest.mark.parametrize("r", [s * r for r in POINTS for s in (1.0, -1.0)])
    def test_f_and_fprime_are_the_guard_and_the_formula(self, r):
        pot, mm = Potential.gravitational(self.M), self.M.m1 * self.M.m2

        def f(r):
            _collision_guard(r)
            return mm * (1.0 - r * r) ** -1.5

        def fprime(r):
            _collision_guard(r)
            return 3.0 * mm * r * (1.0 - r * r) ** -2.5

        assert _outcome(pot.f, r) == _outcome(f, r)
        assert _outcome(pot.fprime, r) == _outcome(fprime, r)
        near = 1.0 - abs(r) <= COLLISION_MARGIN  # False for NaN, which the guard lets by
        assert (_outcome(pot.f, r)[0] is CollisionError) == near


class TestModelRange:
    """Masses and a nonzero linear force are held to ``MODEL_RANGE``, where
    the arithmetic of the RE rates neither underflows nor overflows."""

    @pytest.mark.parametrize("mass", [0.0, -1.0, 5e-324, 1e-300, 9.9e-101, 1.01e100, 1e308,
                                      math.inf, math.nan])
    def test_masses_outside_the_range_are_refused_by_name(self, mass):
        with pytest.raises(ValueError, match=f"mass m2 = {re.escape(repr(mass))} must be"):
            MassParams(1.0, mass)

    @pytest.mark.parametrize("gamma", [5e-324, -1e-300, 9.9e-101, 1.01e100, -1e308])
    def test_forces_outside_the_range_are_refused_by_name(self, gamma):
        with pytest.raises(ValueError, match=f"gamma = {re.escape(repr(gamma))} must be zero"):
            Potential.linear(gamma)

    def test_the_range_itself_and_zero_are_taken(self):
        lo, hi = MODEL_RANGE
        MassParams(lo, hi)
        for gamma in (0.0, -0.0, lo, -lo, hi, -hi):
            Potential.linear(gamma)
