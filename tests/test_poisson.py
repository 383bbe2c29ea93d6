import itertools

import numpy as np
import pytest
from conftest import random_invariant_point, random_reduced_state

from spheretop.dynamics import (
    HamiltonianKind,
    integrate,
    make_invariant_rhs,
    rhs_full_reduced,
)
from spheretop.phase_space import MassParams, Potential
from spheretop.poisson import (
    GENERATORS,
    OffVarietyError,
    bracket_matrix,
    casimir_gradient,
    hamiltonian_gradient,
    integral_I,
    integral_I_gradient,
    table_bracket,
    table_flow,
)
from spheretop.reduction import (
    STRATUM_FREE,
    STRATUM_FULL,
    STRATUM_SO2,
    InvariantPoint,
    hilbert_map,
    stratum_classify,
)

M = MassParams(1.2, 0.7)
LIN = Potential.linear(0.9)


class TestStructureTable:
    def test_printed_entries(self):
        pt = InvariantPoint(k11=0, k12=1.0, k13=0, k22=0, k23=0, k33=0,
                            delta=0.0, r=1.0)
        assert table_bracket("k33", "r", pt) == 0.0
        assert table_bracket("k11", "k23", pt) == pytest.approx(-2.0)
        pt2 = InvariantPoint(k11=1.0, k12=1.0, k13=1.0, k22=0, k23=0, k33=0,
                             delta=0.0, r=0.0)
        assert table_bracket("k11", "delta", pt2) == pytest.approx(2.0)

    def test_antisymmetric_by_construction(self, rng):
        pt = hilbert_map(random_reduced_state(rng))
        for a, b in itertools.product(GENERATORS, repeat=2):
            assert table_bracket(a, b, pt) == pytest.approx(
                -table_bracket(b, a, pt), abs=1e-14)

    def test_leaf_dimension_on_each_stratum(self, rng):
        # the fully reduced spaces are the symplectic leaves of Pi: generically
        # 4-dimensional, 2-dimensional on the SO(2)-isotropy stratum, and a
        # point at each pole
        for _ in range(200):
            pt = random_invariant_point(rng)
            assert stratum_classify(pt) == STRATUM_FREE
            assert np.linalg.matrix_rank(bracket_matrix(pt)) == 4
        for p in ((1.0,) * 6 + (0.0, 0.0), (4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.2, 0.0)):
            assert stratum_classify(p) == STRATUM_SO2
            assert np.linalg.matrix_rank(bracket_matrix(p)) == 2
        for r in (1.0, -1.0):
            pole = (0.0,) * 6 + (r, 0.0)
            assert stratum_classify(pole) == STRATUM_FULL
            assert np.linalg.matrix_rank(bracket_matrix(pole)) == 0


class TestTableFlow:
    def test_reproduces_reduced_equations(self, rng):
        kind = HamiltonianKind.two_body(M, LIN)
        grad = hamiltonian_gradient(kind)
        for _ in range(100):
            pt = hilbert_map(random_reduced_state(rng))
            assert np.allclose(table_flow(grad, pt),
                               rhs_full_reduced(pt, M, LIN), atol=1e-10)

    def test_gravitational_case_too(self, rng):
        mg = MassParams(3.0, 2.0)
        pot = Potential.gravitational(mg)
        kind = HamiltonianKind.two_body(mg, pot)
        grad = hamiltonian_gradient(kind)
        checked = 0
        while checked < 200:
            pt = hilbert_map(random_reduced_state(rng))
            if 1.0 - abs(pt.r) < 1e-3:
                continue
            checked += 1
            want = np.array(rhs_full_reduced(pt, mg, pot))
            gap = np.max(np.abs(np.array(table_flow(grad, pt)) - want))
            assert gap < 1e-15 * max(1.0, np.max(np.abs(want)))

    def test_casimirs_generate_no_flow(self, rng):
        for name in ("C1", "C2", "C3"):
            grad = casimir_gradient(name)
            for _ in range(30):
                pt = hilbert_map(random_reduced_state(rng))
                assert np.allclose(table_flow(grad, pt), np.zeros(8), atol=1e-10)

    def test_hamiltonian_conserves_casimirs(self, rng):
        kinds = [
            HamiltonianKind.two_body(M, LIN),
            HamiltonianKind.lagrange(1.3, 0.8),
            HamiltonianKind.lagrange_altered(1.3, 0.8),
        ]
        for _ in range(1000):
            pt = hilbert_map(random_reduced_state(rng, scale=0.6))
            for kind in kinds:
                tangent = table_flow(hamiltonian_gradient(kind), pt)
                for name in ("C1", "C2", "C3"):
                    cg = casimir_gradient(name)(pt)
                    dc = sum(a * b for a, b in zip(cg, tangent))
                    assert abs(dc) < 1e-10 * max(1.0, *map(abs, cg))

    def test_off_variety_points_flagged(self, rng):
        pt = InvariantPoint(k11=1.0, k12=0.0, k13=0.0, k22=1.0, k23=0.0,
                            k33=1.0, delta=0.9, r=0.1)
        nan, inf = (float("nan"),) * 8, (float("inf"), 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)
        for p in (pt, nan, inf):
            with pytest.raises(OffVarietyError):
                table_flow(casimir_gradient("C1"), p)
        assert np.allclose(
            table_flow(casimir_gradient("C1"), pt, allow_off_variety=True),
            np.zeros(8), atol=1e-12)


class TestJacobiIdentity:
    @staticmethod
    def _bracket_fn(a, b):
        def fn(pt):
            return table_bracket(a, b, pt)
        return fn

    @staticmethod
    def _fd_gradient(fn, pt, h=1e-4):
        base = np.array(pt)
        out = []
        for i in range(8):
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            out.append((fn(InvariantPoint.from_tuple(up))
                        - fn(InvariantPoint.from_tuple(dn))) / (2 * h))
        return out

    def _poisson_with_generator(self, fn, c, pt):
        grad = self._fd_gradient(fn, pt)
        return sum(g * table_bracket(b, c, pt) for g, b in zip(grad, GENERATORS))

    def test_on_variety_jacobi(self, rng):
        triples = []
        while len(triples) < 50:
            t = tuple(rng.choice(len(GENERATORS), size=3))
            if len(set(t)) == 3:
                triples.append(tuple(GENERATORS[i] for i in t))
        for a, b, c in triples:
            pt = hilbert_map(random_reduced_state(rng, scale=0.7))
            total = (self._poisson_with_generator(self._bracket_fn(a, b), c, pt)
                     + self._poisson_with_generator(self._bracket_fn(b, c), a, pt)
                     + self._poisson_with_generator(self._bracket_fn(c, a), b, pt))
            assert abs(total) < 1e-6, (a, b, c)


class TestExtraIntegral:
    def test_zero_point(self):
        pt = InvariantPoint(k11=0, k12=0, k13=0, k22=0, k23=0, k33=0, r=1.0, delta=0)
        assert integral_I(pt, 2.0, 1.0) == 0.0

    def test_substitution(self):
        pt = InvariantPoint(k11=1, k12=0, k13=0, k22=1, k23=0, k33=0,
                            delta=1.0, r=0.0)
        assert integral_I(pt, 2.0, 1.0) == pytest.approx(-4.0)

    def test_bracket_rows_match_printed_flow(self, rng):
        alpha, gamma = 2.0, 1.0
        grad = integral_I_gradient(alpha, gamma)
        for _ in range(200):
            pt = hilbert_map(random_reduced_state(rng))
            flow = table_flow(grad, pt)
            assert flow[0] == pytest.approx(
                4 * gamma * (pt.k13 * pt.k12 - pt.k11 * pt.k23), abs=1e-10)
            assert flow[3] == pytest.approx(
                4 * gamma * (pt.k13 * pt.k22 - pt.k12 * pt.k23), abs=1e-10)

    def test_commutes_with_altered_hamiltonian(self, rng):
        alpha, gamma = 1.6, 0.9
        kind = HamiltonianKind.lagrange_altered(alpha, gamma)
        hgrad = hamiltonian_gradient(kind)
        igrad = integral_I_gradient(alpha, gamma)
        for _ in range(200):
            pt = hilbert_map(random_reduced_state(rng))
            tangent = table_flow(hgrad, pt)
            di = igrad(pt)
            dots = sum(a * b for a, b in zip(di, tangent))
            assert abs(dots) < 1e-10 * max(1.0, *map(abs, di))

    def test_conserved_along_the_altered_flow(self, rng):
        alpha, gamma = 2.0, 1.0
        kind = HamiltonianKind.lagrange_altered(alpha, gamma)
        m_eq, pot_eq = kind.equivalent_two_body()
        pt0 = hilbert_map(random_reduced_state(rng, scale=0.7))
        traj = integrate(make_invariant_rhs(m_eq, pot_eq), tuple(pt0),
                         50.0, sample_dt=5.0)
        i0 = integral_I(pt0, alpha, gamma)
        for y in traj.ys:
            val = integral_I(InvariantPoint.from_tuple(y), alpha, gamma)
            assert abs(val - i0) < 1e-8 * max(1.0, abs(i0))
