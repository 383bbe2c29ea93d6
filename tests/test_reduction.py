import json
import math

import numpy as np
import pytest
from conftest import (
    imag,
    oracle_mul,
    random_imag,
    random_reduced_state,
    random_unit,
)
from hypothesis import given
from hypothesis import strategies as st

from spheretop import cli
from spheretop.phase_space import (
    PhaseState,
    classify_point,
    momentum_left,
    momentum_right,
    random_phase_state,
)
from spheretop.quaternion import I, J, K, ONE, Quaternion, quat_mul
from spheretop.reduction import (
    INVARIANT_CSV_COLUMNS,
    InvariantPoint,
    ReducedState,
    all_casimirs,
    casimir_C2_direct,
    casimir_C2_invariant,
    casimir_C3,
    degenerate_leaf_sample,
    hilbert_map,
    left_reduce,
    orbit_diffeo,
    orbit_diffeo_inverse,
    right_reduce,
    stratum_classify,
)

STANDARD = PhaseState(g1=ONE, p1=I, g2=J, p2=K)


def conjugate_reduced(rs, u):
    uinv = u.inverse()
    return ReducedState(
        A1=quat_mul(quat_mul(u, rs.A1.as_quaternion()), uinv).imag(),
        A2=quat_mul(quat_mul(u, rs.A2.as_quaternion()), uinv).imag(),
        gD=quat_mul(quat_mul(u, rs.gD), uinv),
        side=rs.side,
    )


class TestTranslationReduction:
    def test_identity_positions(self):
        s = PhaseState(g1=ONE, p1=2.0 * I, g2=ONE, p2=K)
        rs = left_reduce(s)
        assert rs.A1.allclose(imag(2, 0, 0)) and rs.A2.allclose(imag(0, 0, 1))
        assert rs.gD.allclose(ONE)

    def test_left_worked_example(self):
        # oracle: j^{-1} k = -i
        assert oracle_mul(J.inverse(), K).allclose(-I)
        rs = left_reduce(STANDARD)
        assert rs.A1.allclose(imag(1, 0, 0))
        assert rs.A2.allclose(imag(-1, 0, 0))
        assert rs.gD.allclose(J)

    def test_right_worked_example(self):
        # oracle: k j^{-1} = i, g1 g2^{-1} = -j
        assert oracle_mul(K, J.inverse()).allclose(I)
        rs = right_reduce(STANDARD)
        assert rs.A1.allclose(imag(1, 0, 0))
        assert rs.A2.allclose(imag(1, 0, 0))
        assert rs.gD.allclose(-J)

    def test_left_translation_invariance(self, rng):
        for _ in range(50):
            s = random_phase_state(rng)
            l = random_unit(rng)
            moved = PhaseState(*(quat_mul(l, q) for q in (s.g1, s.p1, s.g2, s.p2)))
            a, b = left_reduce(s), left_reduce(moved)
            assert a.A1.allclose(b.A1, tol=1e-12) and a.A2.allclose(b.A2, tol=1e-12)
            assert a.gD.allclose(b.gD, tol=1e-12)

    def test_right_translation_invariance(self, rng):
        for _ in range(50):
            s = random_phase_state(rng)
            r = random_unit(rng).inverse()
            moved = PhaseState(*(quat_mul(q, r) for q in (s.g1, s.p1, s.g2, s.p2)))
            a, b = right_reduce(s), right_reduce(moved)
            assert a.A1.allclose(b.A1, tol=1e-12) and a.A2.allclose(b.A2, tol=1e-12)
            assert a.gD.allclose(b.gD, tol=1e-12)


class TestOrbitDiffeo:
    def test_fixed_point(self):
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0), gD=ONE)
        first, second, g = orbit_diffeo(rs)
        assert first.norm() == 0.0 and second.norm() == 0.0 and g.allclose(ONE)

    def test_identity_group_part(self):
        rs = ReducedState(A1=imag(1, 0, 0), A2=imag(0, 1, 0), gD=ONE)
        first, second, _ = orbit_diffeo(rs)
        assert first.allclose(imag(1, 1, 0))
        assert second.allclose(imag(-1, 1, 0))

    def test_first_component_norm_is_casimir(self, rng):
        for _ in range(100):
            rs = random_reduced_state(rng)
            first, _, _ = orbit_diffeo(rs)
            assert first.norm2() == pytest.approx(casimir_C2_direct(rs), rel=1e-10)

    def test_round_trip(self, rng):
        for _ in range(100):
            rs = random_reduced_state(rng, unit_g=False)
            back = orbit_diffeo_inverse(*orbit_diffeo(rs))
            assert back.A1.allclose(rs.A1, tol=1e-12)
            assert back.A2.allclose(rs.A2, tol=1e-12)

    def test_rejects_zero_group_part(self):
        with pytest.raises(ValueError):
            orbit_diffeo(ReducedState(A1=imag(1, 0, 0), A2=imag(0, 0, 0), gD=Quaternion()))


class TestCasimirs:
    def test_trivial_point(self):
        rs = ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0), gD=ONE)
        assert (rs.gD.norm2(), casimir_C2_direct(rs)) == pytest.approx((1.0, 0.0))

    def test_both_routes_small_example(self):
        rs = ReducedState(A1=imag(1, 0, 0), A2=imag(0, 1, 0), gD=ONE)
        assert casimir_C2_direct(rs) == pytest.approx(2.0)
        # invariant-formula side: (0+1)(1+1) + 0 + 0 - 0
        assert casimir_C2_invariant(hilbert_map(rs)) == pytest.approx(2.0)

    def test_commutator_example(self):
        # C2 = |i j - j i|^2 = |2k|^2
        rs = ReducedState(A1=imag(1, 0, 0), A2=imag(-1, 0, 0), gD=J)
        assert casimir_C2_direct(rs) == pytest.approx(4.0)

    def test_lemma_on_random_states(self, rng):
        # includes non-unit group parts
        for k in range(1000):
            rs = random_reduced_state(rng, unit_g=(k % 2 == 0))
            direct = casimir_C2_direct(rs)
            via_invariants = casimir_C2_invariant(hilbert_map(rs))
            assert abs(direct - via_invariants) <= 1e-10 * max(1.0, abs(direct))

    @given(st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                    min_size=10, max_size=10))
    def test_lemma_property(self, coeffs):
        rs = ReducedState(
            A1=imag(*coeffs[0:3]), A2=imag(*coeffs[3:6]),
            gD=Quaternion(*coeffs[6:10]),
        )
        direct = casimir_C2_direct(rs)
        via = casimir_C2_invariant(hilbert_map(rs))
        assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


class TestHilbertMap:
    def test_orthonormal_frame_example(self):
        s, c = math.sin(1.1), math.cos(1.1)
        rs = ReducedState(A1=imag(1, 0, 0), A2=imag(0, 1, 0),
                          gD=Quaternion(c, 0, 0, s))
        pt = hilbert_map(rs)
        # cross-product oracle: <i x j, s k> = s
        assert np.allclose(np.cross((1, 0, 0), (0, 1, 0)), (0, 0, 1))
        assert pt.k11 == pytest.approx(1.0) and pt.k22 == pytest.approx(1.0)
        assert pt.k33 == pytest.approx(s * s)
        assert (pt.k12, pt.k13, pt.k23) == pytest.approx((0.0, 0.0, 0.0))
        assert pt.delta == pytest.approx(s) and pt.r == pytest.approx(c)

    def test_rest_point(self):
        pt = hilbert_map(ReducedState(A1=imag(0, 0, 0), A2=imag(0, 0, 0), gD=ONE))
        assert pt.as_tuple() == pytest.approx((0, 0, 0, 0, 0, 0, 1.0, 0))

    def test_conjugation_invariance(self, rng):
        for _ in range(100):
            rs = random_reduced_state(rng)
            moved = conjugate_reduced(rs, random_unit(rng))
            a, b = hilbert_map(rs), hilbert_map(moved)
            assert np.allclose(a.as_tuple(), b.as_tuple(), atol=1e-12)

    def test_image_satisfies_variety_relation(self, rng):
        for _ in range(1000):
            pt = hilbert_map(random_reduced_state(rng, unit_g=False))
            assert abs(pt.variety_defect()) <= 1e-10 * max(
                1.0, pt.k11, pt.k22, pt.k33) ** 3
            pt.validate()

    @pytest.mark.parametrize("point, message", [
        ((-1.0, 0, 0, 1.0, 0, 1.0, 0, 0), "diagonal invariants must be nonnegative"),
        ((1.0, 2.0, 0, 1.0, 0, 1.0, 0, 0), "Cauchy-Schwarz inequality violated"),
    ], ids=["negative-diagonal", "cauchy-schwarz"])
    def test_validate_rejects_a_point_off_the_variety(self, point, message):
        with pytest.raises(ValueError, match=message):
            InvariantPoint.from_tuple(point).validate()


class TestThirdCasimir:
    def test_zero_point(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        assert casimir_C3(pt) == 0.0

    def test_opposite_momenta_leaf(self):
        pt = InvariantPoint(k11=1.0, k12=-1.0, k13=0, k22=1.0, k23=0, k33=0, r=1.0, delta=0)
        assert casimir_C3(pt) == pytest.approx(0.0)

    def test_pipeline_matches_momentum(self):
        pt = hilbert_map(left_reduce(STANDARD))
        assert casimir_C3(pt) == pytest.approx(0.0, abs=1e-14)
        assert momentum_right(STANDARD).norm2() == pytest.approx(0.0, abs=1e-14)

    def test_pipeline_consistency_random(self, rng):
        for _ in range(1000):
            s = random_phase_state(rng)
            rs = left_reduce(s)
            lam2 = momentum_left(s).norm2()
            rho2 = momentum_right(s).norm2()
            assert abs(casimir_C2_direct(rs) - lam2) <= 1e-10 * max(1.0, lam2)
            c3 = casimir_C3(hilbert_map(rs))
            assert abs(c3 - rho2) <= 1e-10 * max(1.0, rho2)


class TestStrata:
    def test_poles_have_full_isotropy(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        assert stratum_classify(pt) == "full_isotropy"

    def test_cocircular_states_have_so2(self):
        th = 0.8
        e = Quaternion(math.cos(th), math.sin(th), 0, 0)
        s = PhaseState(g1=ONE, p1=I, g2=e, p2=quat_mul(I, e))
        assert stratum_classify(hilbert_map(left_reduce(s))) == "so2_isotropy"

    def test_generic_pipeline_is_free(self):
        assert stratum_classify(hilbert_map(left_reduce(STANDARD))) == "free"

    def test_single_nonzero_vector_is_so2(self):
        pt = hilbert_map(ReducedState(A1=imag(0.7, 0, 0), A2=imag(0, 0, 0), gD=ONE))
        assert stratum_classify(pt) == "so2_isotropy"

    @pytest.mark.parametrize("point", [(math.nan,) * 8, (math.inf, 1, 0, 1, 0, 1, 0, 0)],
                             ids=["nan", "inf"])
    def test_a_non_finite_point_is_rejected(self, point):
        # they were labelled free and full_isotropy
        with pytest.raises(ValueError, match="invariants must be finite"):
            stratum_classify(point)

    def test_a_scale_whose_delta_bound_overflows_is_labelled(self):
        # tol * scale ** 1.5 raised OverflowError past a scale of about 1e205
        assert stratum_classify((1e250, 0, 0, 0, 0, 0, 0.5, 0.0)) == "so2_isotropy"

    def test_random_cocircular_agreement(self, rng):
        # states whose four vectors share a random plane classify consistently
        # at both levels
        for _ in range(50):
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            v = rng.normal(size=4)
            v -= np.dot(v, u) * u
            v /= np.linalg.norm(v)
            a, b, s1, s2 = rng.normal(size=4)
            g1 = Quaternion(*(math.cos(a) * u + math.sin(a) * v))
            g2 = Quaternion(*(math.cos(b) * u + math.sin(b) * v))
            p1 = Quaternion(*(s1 * (-math.sin(a) * u + math.cos(a) * v)))
            p2 = Quaternion(*(s2 * (-math.sin(b) * u + math.cos(b) * v)))
            s = PhaseState(g1=g1, p1=p1, g2=g2, p2=p2)
            s.validate()
            assert classify_point(s) == "cocircular"
            assert stratum_classify(hilbert_map(left_reduce(s))) in (
                "so2_isotropy", "full_isotropy")


    @pytest.mark.parametrize("tol", [1e-9, 1e-7])
    def test_a_block_gets_each_points_label(self, rng, tol):
        # each bound of the rule, labelled one point at a time: a point on the
        # bound is inside it, the next double past it outside
        def label(**kw):
            return stratum_classify(InvariantPoint(**{**zero, "r": 0.3, **kw}), tol)

        zero = dict.fromkeys(("k11", "k12", "k13", "k22", "k23", "k33", "delta"), 0.0)
        past, at_bound = math.nextafter(tol, 1.0), dict.fromkeys(zero, tol)
        assert label(**at_bound) == "full_isotropy"  # every generator on its bound
        assert label(**{**at_bound, "k13": past}) == "so2_isotropy"
        for cut, want in ((tol, "so2_isotropy"), (past, "free")):  # each Cauchy-Schwarz cut
            assert label(k11=cut, k22=1.0) == want
            assert label(k11=cut, k33=1.0) == want
            assert label(k22=cut, k33=1.0) == want
        points = [InvariantPoint(k11=4.0, k12=2.0, k13=0, k22=1.0, k23=0, k33=0, r=0.3, delta=0)]
        for _ in range(40):
            a, b, c = rng.normal(size=3) * rng.choice([1e-6, 1.0, 1e3], size=3)
            x, w = rng.normal(size=3), rng.normal()
            points.append(hilbert_map(ReducedState(A1=imag(*(a * x)), A2=imag(*(b * x)),
                                                   gD=Quaternion(w, *(c * x)))))
        for p in points:  # the delta bound of a colinear point
            if stratum_classify(p._replace(delta=0.0), tol) != "so2_isotropy":
                continue
            scale = max(1.0, p.k11, p.k22, p.k33)
            bound = tol * scale * math.sqrt(scale)
            for d in (bound, -bound):
                assert stratum_classify(p._replace(delta=d), tol) == "so2_isotropy"
                assert stratum_classify(p._replace(delta=math.nextafter(d, 2 * d)), tol) == "free"
        assert stratum_classify(hilbert_map(left_reduce(STANDARD)), tol) == "free"
        for _ in range(40):
            assert stratum_classify(hilbert_map(left_reduce(random_phase_state(rng))),
                                    tol) == "free"


class TestDegenerateLeaves:
    @pytest.mark.parametrize("lam,k13,theta,expected", [
        (0.0, 0.0, math.pi / 2, 0.0),
        (2.0, 0.0, math.pi / 2, 1.0),
        (0.0, 1.0, math.pi / 2, 1.0),
    ])
    def test_substitution(self, lam, k13, theta, expected):
        assert degenerate_leaf_sample(lam, k13, theta) == pytest.approx(expected)

    def test_rejects_degenerate_angle(self):
        with pytest.raises(ValueError):
            degenerate_leaf_sample(1.0, 0.0, 0.0)

    def test_rho_zero_leaf_relation_holds_on_pipeline(self, rng):
        # build states with A2 = -A1 conjugated appropriately: rho = 0
        for _ in range(50):
            g1, g2 = random_unit(rng), random_unit(rng)
            r1 = random_imag(rng)
            p1 = quat_mul(g1, r1.as_quaternion())
            p2 = quat_mul(g2, (-1.0 * r1).as_quaternion())
            s = PhaseState(g1=g1, p1=p1, g2=g2, p2=p2)
            pt = hilbert_map(left_reduce(s))
            assert casimir_C3(pt) == pytest.approx(0.0, abs=1e-12)
            # on this leaf k11 = k22 and k13 = -k23
            assert pt.k11 == pytest.approx(pt.k22, rel=1e-10)
            assert pt.k13 == pytest.approx(-pt.k23, abs=1e-12)
            if pt.k33 > 1e-6:
                lam2 = all_casimirs(pt).C2
                theta = math.asin(math.sqrt(pt.k33))
                assert degenerate_leaf_sample(math.sqrt(lam2), pt.k13, theta) == pytest.approx(
                    pt.k11, rel=1e-8)


def test_csv_emission_column_order(rng, tmp_path):
    s = random_phase_state(rng)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(s.to_json_dict()))
    out = tmp_path / "inv.csv"
    assert cli.main(["reduce", "--state", str(state), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.split(",")[1:9] == list(INVARIANT_CSV_COLUMNS)
    pt = hilbert_map(left_reduce(s))
    assert [float(c) for c in row.split(",")[1:9]] == list(pt.as_tuple())
