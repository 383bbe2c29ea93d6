"""Exact proofs of the reduced equations.

The package's own functions are evaluated on sympy symbols, and each
identity below is asserted to expand to exactly zero: it holds at every
point, not at sampled ones.  The masses m1, m2 and the potential V are
symbols too, with the force f = -V'; ``MassParams`` refuses symbols, so the
fields are given a namespace holding ``m1`` and ``m2``.

On the translation-reduced space R^10 = (A1, A2, gD) the Lie-Poisson bracket
is the one of the ``poisson`` module docstring, written here once
(``lie_poisson``) with the gradients taken by ``sympy.diff``:

    {f, g} = +- [ <A1, [d1 f, d1 g]> + <A2, [d2 f, d2 g]>
                  + <gD, (d1 f d3 g - d3 g d2 f) - (d1 g d3 f - d3 f d2 g)> ]

with + on the left-reduced side and - on the right, and the flow of H is
x' = {H, x}.  On R^8 the flow is x' = grad H . Pi with Pi = ``bracket_matrix``.
"""

import itertools
from types import SimpleNamespace

import sympy
from conftest import oracle_product

from spheretop.dynamics import make_invariant_rhs, make_reduced_rhs
from spheretop.phase_space import Potential
from spheretop.poisson import GENERATORS, bracket_matrix
from spheretop.reduction import (
    SIDE_LEFT,
    SIDE_RIGHT,
    casimir_C1,
    casimir_C2_direct,
    casimir_C2_invariant,
    casimir_C3,
    hilbert_vec,
)

U = sympy.symbols("a1x a1y a1z a2x a2y a2z gw gx gy gz", real=True)
X = sympy.symbols(" ".join(GENERATORS), real=True)
V = sympy.Function("V")
MASSES = SimpleNamespace(m1=sympy.Symbol("m1", positive=True),
                         m2=sympy.Symbol("m2", positive=True))
POTENTIAL = Potential.custom(v=V, f=lambda r: -sympy.diff(V(r), r),
                             fprime=lambda r: -sympy.diff(V(r), r, 2))
SIGNS = {SIDE_LEFT: 1, SIDE_RIGHT: -1}


def _nonzero(named):
    """The names of the (name, expression) pairs that do not expand to 0."""
    return [name for name, expr in named if sympy.expand(expr) != 0]


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _commutator(p, q):
    return [a - b for a, b in zip(oracle_product(p, q), oracle_product(q, p))]


def lie_poisson(f, g, side=SIDE_LEFT):
    """{f, g} of two expressions in U, on the given side."""
    df = [sympy.diff(f, u) for u in U]
    dg = [sympy.diff(g, u) for u in U]
    d1f, d2f, d3f = (0, *df[0:3]), (0, *df[3:6]), df[6:10]
    d1g, d2g, d3g = (0, *dg[0:3]), (0, *dg[3:6]), dg[6:10]
    mixed = [a - b - c + d for a, b, c, d in zip(
        oracle_product(d1f, d3g), oracle_product(d3g, d2f),
        oracle_product(d1g, d3f), oracle_product(d3f, d2g))]
    return SIGNS[side] * (_dot((0, *U[0:3]), _commutator(d1f, d1g))
                          + _dot((0, *U[3:6]), _commutator(d2f, d2g))
                          + _dot(U[6:10], mixed))


def _energy(a1_sq, a2_sq, r):
    """H = |A1|^2 / 2 m1 + |A2|^2 / 2 m2 + V(r)."""
    return a1_sq / (2 * MASSES.m1) + a2_sq / (2 * MASSES.m2) + POTENTIAL.v(r)


def test_every_entry_of_the_tensor_is_the_lie_poisson_bracket_of_its_generators():
    # Pi_ab at the Hilbert image of any point of R^10 is {x_a, x_b} upstairs
    gens = hilbert_vec(U)
    pi = bracket_matrix(gens)
    assert _nonzero(((a, b), pi[i, j] - lie_poisson(gens[i], gens[j]))
                    for (i, a), (j, b) in itertools.product(enumerate(GENERATORS), repeat=2)) == []


def test_the_reduced_field_is_the_hamiltonian_flow_of_its_side():
    h = _energy(_dot(U[0:3], U[0:3]), _dot(U[3:6], U[3:6]), U[6])
    for side in SIGNS:
        rhs = make_reduced_rhs(MASSES, POTENTIAL, side)(0.0, U)
        assert _nonzero(((side, str(u)), rate - lie_poisson(h, u, side))
                        for u, rate in zip(U, rhs)) == [], side


def test_gD_squared_and_C2_are_casimirs_of_the_lie_poisson_bracket():
    for name, c in (("|gD|^2", _dot(U[6:10], U[6:10])), ("C2", casimir_C2_direct(U))):
        assert _nonzero((str(u), lie_poisson(c, u)) for u in U) == [], name


def test_the_invariant_field_is_grad_H_dot_Pi():
    grad = [sympy.diff(_energy(X[0], X[3], X[6]), x) for x in X]
    flow = grad @ bracket_matrix(X)
    rhs = make_invariant_rhs(MASSES, POTENTIAL)(0.0, X)
    assert _nonzero(zip(GENERATORS, flow - rhs)) == []


def test_the_casimirs_are_in_the_kernel_of_Pi_on_all_of_R8():
    pi = bracket_matrix(X)
    for c in (casimir_C1, casimir_C2_invariant, casimir_C3):
        grad = [sympy.diff(c(X), x) for x in X]
        assert _nonzero(zip(GENERATORS, pi @ grad)) == [], c.__name__


def test_Pi_satisfies_the_jacobi_identity_on_all_of_R8():
    # {x_a, {x_b, x_c}} = sum_d Pi_ad d(Pi_bc)/dx_d, summed cyclically
    pi = bracket_matrix(X)

    def outer(a, b, c):
        return sum(pi[a, d] * sympy.diff(pi[b, c], x) for d, x in enumerate(X))

    triples = list(itertools.combinations(range(8), 3))
    assert len(triples) == 56
    assert _nonzero(((GENERATORS[a], GENERATORS[b], GENERATORS[c]),
                     outer(a, b, c) + outer(b, c, a) + outer(c, a, b))
                    for a, b, c in triples) == []


def test_the_hilbert_map_carries_the_reduced_field_to_the_invariant_one():
    # the second stage of the reduction: D(hilbert) F10 = +-F8(hilbert)
    gens = hilbert_vec(U)
    f8 = make_invariant_rhs(MASSES, POTENTIAL)(0.0, gens)
    for side, sign in SIGNS.items():
        f10 = make_reduced_rhs(MASSES, POTENTIAL, side)(0.0, U)
        pushed = [_dot([sympy.diff(k, u) for u in U], f10) for k in gens]
        assert _nonzero(zip(GENERATORS, (p - sign * w for p, w in zip(pushed, f8)))) == [], side
