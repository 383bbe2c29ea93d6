import math

import numpy as np
import pytest
from conftest import imag, oracle_dot4, oracle_mul, quat, random_imag, random_unit
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretop.quaternion import (
    I,
    J,
    K,
    ONE,
    ImaginaryQuaternion,
    Quaternion,
    So4Element,
    adjoint_bracket,
    classify_subgroup,
    phi_double_cover,
    quat_dot_vec,
    quat_mul,
    so4_isom_pullback,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


class TestProduct:
    def test_defining_relations(self):
        assert quat_mul(I, J).allclose(K)
        assert quat_mul(J, I).allclose(-K)
        assert quat_mul(J, K).allclose(I)
        assert quat_mul(K, I).allclose(J)
        for e in (I, J, K):
            assert quat_mul(e, e).allclose(-ONE)

    def test_distributivity_example(self):
        # expand (1+i)(1+j) term by term with the independent basis table
        p, q = quat(1, 1, 0, 0), quat(1, 0, 1, 0)
        expected = oracle_mul(p, q)
        assert expected.allclose(quat(1, 1, 1, 1))
        assert quat_mul(p, q).allclose(expected)

    @given(quats, quats)
    def test_matches_oracle(self, p, q):
        assert quat_mul(p, q).allclose(oracle_mul(p, q), tol=1e-12)

    @given(quats, quats, quats)
    def test_associative(self, p, q, r):
        lhs = quat_mul(quat_mul(p, q), r)
        rhs = quat_mul(p, quat_mul(q, r))
        assert lhs.allclose(rhs, tol=1e-10)

    @given(quats, quats)
    def test_norm_multiplicative(self, p, q):
        assert quat_mul(p, q).norm() == pytest.approx(p.norm() * q.norm(), abs=1e-10)

    @given(quats, quats)
    def test_conjugate_antihomomorphism(self, p, q):
        lhs = quat_mul(p, q).conjugate()
        rhs = quat_mul(q.conjugate(), p.conjugate())
        assert lhs.allclose(rhs, tol=1e-12)


class TestInnerProduct:
    def test_examples(self):
        assert quat_dot_vec(ONE, ONE) == pytest.approx(1.0)
        assert quat_dot_vec(ONE, I) == pytest.approx(0.0)
        # componentwise dot-product oracle: 2*4 + 3*5
        p, q = quat(2, 0, 3, 0), quat(4, 0, 5, 0)
        assert oracle_dot4(p, q) == pytest.approx(23.0)
        assert quat_dot_vec(p, q) == pytest.approx(23.0)

    def test_agrees_with_dot_on_random_pairs(self, rng):
        for _ in range(1000):
            p = Quaternion(*rng.normal(size=4))
            q = Quaternion(*rng.normal(size=4))
            assert abs(quat_dot_vec(p, q) - oracle_dot4(p, q)) < 1e-14 * max(
                1.0, abs(oracle_dot4(p, q)))


class TestAdjointBracket:
    def test_examples(self):
        assert adjoint_bracket(imag(1, 0, 0), imag(0, 1, 0)).allclose(imag(0, 0, 2))
        assert adjoint_bracket(imag(1, 0, 0), imag(1, 0, 0)).allclose(imag(0, 0, 0))
        # cross-product oracle: 2*((1,1,0) x (0,0,1)) = 2*(1,-1,0)
        got = adjoint_bracket(imag(1, 1, 0), imag(0, 0, 1))
        assert got.allclose(imag(2, -2, 0))

    def test_is_twice_cross_product(self, rng):
        for _ in range(200):
            a, b = random_imag(rng), random_imag(rng)
            twice_cross = 2.0 * np.cross(a.components(), b.components())
            assert adjoint_bracket(a, b).allclose(
                ImaginaryQuaternion(*twice_cross), tol=1e-12)


class TestDoubleCover:
    def test_identity_and_kernel(self):
        assert np.allclose(phi_double_cover(ONE, ONE), np.eye(4))
        assert np.allclose(phi_double_cover(-ONE, -ONE), np.eye(4))

    def test_rotation_example(self):
        # l = exp(i pi/2), r = exp(-i pi/2); oracle: apply q -> l q r^{-1}
        # to the four basis quaternions with the independent product
        l, r = I, -I
        expected = np.array([
            oracle_mul(oracle_mul(l, e), r.inverse()).components()
            for e in (ONE, I, J, K)
        ]).T
        got = phi_double_cover(l, r)
        assert np.allclose(got, expected, atol=1e-14)
        # preserves Span{1,i} and Span{j,k}
        assert np.allclose(got[2:, :2], 0.0) and np.allclose(got[:2, 2:], 0.0)

    def test_special_orthogonal(self, rng):
        for _ in range(50):
            l, r = random_unit(rng), random_unit(rng)
            M = phi_double_cover(l, r)
            assert np.allclose(M.T @ M, np.eye(4), atol=1e-12)
            assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)

    def test_isometry(self, rng):
        for _ in range(100):
            l, r = random_unit(rng), random_unit(rng)
            q = Quaternion(*rng.normal(size=4))
            moved = quat_mul(quat_mul(l, q), r.inverse())
            assert moved.norm() == pytest.approx(q.norm(), rel=1e-12)

    def test_homomorphism(self, rng):
        l1, r1 = random_unit(rng), random_unit(rng)
        l2, r2 = random_unit(rng), random_unit(rng)
        lhs = phi_double_cover(quat_mul(l1, l2), quat_mul(r1, r2))
        rhs = phi_double_cover(l1, r1) @ phi_double_cover(l2, r2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            phi_double_cover(quat(2, 0, 0, 0), ONE)


class TestSo4Split:
    def test_zero(self):
        a, b = so4_isom_pullback(So4Element(np.zeros((4, 4))))
        assert a.allclose(imag(0, 0, 0)) and b.allclose(imag(0, 0, 0))

    def test_pure_rotation_block(self):
        L = So4Element.from_blocks(imag(0.3, -0.7, 1.1), imag(0, 0, 0))
        a, b = so4_isom_pullback(L)
        assert a.allclose(imag(0.3, -0.7, 1.1)) and b.allclose(imag(0.3, -0.7, 1.1))

    def test_substitution_example(self):
        L = So4Element.from_blocks(imag(1, 0, 0), imag(0, 1, 0))
        a, b = so4_isom_pullback(L)
        assert a.allclose(imag(1, 1, 0)) and b.allclose(imag(1, -1, 0))

    def test_round_trip(self, rng):
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            L = So4Element(m - m.T)
            a, b = so4_isom_pullback(L)
            back = So4Element.from_generators(a, b)
            assert np.max(np.abs(back.matrix - L.matrix)) < 1e-12

    def test_matches_double_cover_derivative(self, rng):
        # d/dt Phi(exp(t xi), exp(t eta)) at t=0, permuted to the (i,j,k,1)
        # ordering and halved, must split back into (xi, eta)
        xi, eta = random_imag(rng), random_imag(rng)
        h = 1e-6
        plus = phi_double_cover((h * xi).exp(), (h * eta).exp())
        minus = phi_double_cover((-h * xi).exp(), (-h * eta).exp())
        d = (plus - minus) / (2 * h)
        perm = [1, 2, 3, 0]  # from (1,i,j,k) to (i,j,k,1)
        L = So4Element(0.5 * d[np.ix_(perm, perm)])
        a, b = so4_isom_pullback(L)
        assert a.allclose(xi, tol=1e-8) and b.allclose(eta, tol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            So4Element(np.eye(4))


class TestSubgroupTaxonomy:
    @pytest.mark.parametrize("xi,eta,kind", [
        (0.0, 0.0, "trivial"),
        (1.0, 1.0, "simple"),
        (2.0, 1.0, "double"),
        (1.5, 0.0, "isoclinic"),
        (0.0, 0.3, "isoclinic"),
    ])
    def test_examples(self, xi, eta, kind):
        assert classify_subgroup(xi, eta) == kind

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_subgroup(-1.0, 0.0)


@given(quats)
@settings(max_examples=50)
def test_inverse_is_two_sided(p):
    if p.norm2() < 1e-6:
        return
    assert quat_mul(p, p.inverse()).allclose(ONE, tol=1e-9)
    assert quat_mul(p.inverse(), p).allclose(ONE, tol=1e-9)


def test_imaginary_exponential():
    step = imag(math.pi / 2, 0, 0).exp()
    assert step.allclose(I, tol=1e-15)
    assert imag(0, 0, 0).exp().allclose(ONE)


class TestTupleContract:
    """The quaternion types are tuples of floats with their own arithmetic."""

    def test_mixed_operands_raise(self):
        q, v = Quaternion(9, 1, 1, 1), ImaginaryQuaternion(1, 2, 3)
        # a componentwise zip would pair v's x with q's w; a tuple's + concatenates
        for a, b in ((v, q), (q, v), (q, (1.0, 2.0, 3.0, 4.0)), (v, (1.0, 2.0, 3.0)), (q, 1.0)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        for a, b in ((q, v), (v, q), (v, v)):
            with pytest.raises(TypeError):
                a * b

    def test_scalar_product_scales(self):
        q, v = Quaternion(1, 2, 3, 4), ImaginaryQuaternion(1, 2, 3)
        for scaled in (q * 2, 2 * q, q * 2.0):
            assert type(scaled) is Quaternion and scaled == (2.0, 4.0, 6.0, 8.0)
        for scaled in (v * 2, 2 * v):
            assert type(scaled) is ImaginaryQuaternion and scaled == (2.0, 4.0, 6.0)

    def test_numpy_scalars_scale_to_floats(self):
        # numpy would broadcast over a tuple subclass that did not defer to it
        q, v = Quaternion(1, 2, 3, 4), ImaginaryQuaternion(1, 2, 3)
        for x, want in ((q, "Quaternion(2.0, 4.0, 6.0, 8.0)"),
                        (v, "ImaginaryQuaternion(2.0, 4.0, 6.0)")):
            for scaled in (np.float64(2.0) * x, x * np.float64(2.0)):
                assert type(scaled) is type(x) and repr(scaled) == want
                assert all(type(c) is float for c in scaled)
        arr = np.asarray(q)
        assert arr.dtype == np.float64 and arr.shape == (4,)
        assert np.asarray(v).shape == (3,)

    def test_components_are_floats_and_equality_is_the_tuples(self):
        q = Quaternion(1, np.float64(2), 3, 4)
        assert all(type(c) is float for c in q) and q.components() == (1.0, 2.0, 3.0, 4.0)
        assert q == (1.0, 2.0, 3.0, 4.0) and hash(q) == hash((1.0, 2.0, 3.0, 4.0))
        assert (q.w, q.x, q.y, q.z) == (1.0, 2.0, 3.0, 4.0) and q.imag() == (2.0, 3.0, 4.0)
        assert Quaternion() == (0.0,) * 4 and ImaginaryQuaternion() == (0.0,) * 3
