"""Lie-Poisson brackets on the reduced spaces and the extra integral.

On the translation-reduced space (A1, A2, gD) the bracket of two functions,
with partial gradients d1, d2 (imaginary quaternions) and d3 (a quaternion),
is

    +- [ <A1, [d1 f, d1 g]> + <A2, [d2 f, d2 g]>
         + <gD, (d1 f * d3 g - d3 g * d2 f) - (d1 g * d3 f - d3 f * d2 g)> ]

with the sign + on the left-reduced side and - on the right.  On the fully
reduced variety the brackets of the eight generators form one antisymmetric
8x8 tensor, ``bracket_matrix``.  Its symplectic leaves are the fully reduced
spaces; its rank is 4 on the free stratum, 2 on the SO(2)-isotropy stratum
and 0 at the poles.  ``tests/test_proofs.py`` proves in sympy that every
entry is the bracket above of its two generators on all of R^10, that
``dynamics.make_reduced_rhs`` is the bracket's Hamiltonian flow on either
side, and that the tensor satisfies the Jacobi identity on all of R^8 (each
of the 56 triples of generators).  Only points of the variety are states of
the reduced system, so ``table_flow`` refuses off-variety points by default.

The equations of motion use the convention  df/dt = {H, f}.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dynamics import HamiltonianKind
from .reduction import INVARIANT_CSV_COLUMNS, InvariantPoint

GENERATORS = INVARIANT_CSV_COLUMNS


class OffVarietyError(ValueError):
    """``table_flow`` was asked for a flow at a non-finite or off-variety point."""


def bracket_matrix(x: Sequence[float]) -> np.ndarray:
    """The 8x8 Poisson tensor Pi_ab = {x_a, x_b} at a flat invariant vector,
    in the order of :data:`GENERATORS`: the upper triangle written once, the
    rest by antisymmetry."""
    k11, k12, k13, k22, k23, k33, r, de = x
    w = 2.0 * de - 2.0 * r * k12  # {k11, k23} = {k13, k22}
    up = np.array((
        0.0, 0.0, -2.0 * r * k11, 0.0, w, -4.0 * r * k13, 2.0 * k13,  # k11
        2.0 * (k12 * k13 - k11 * k23),
        0.0, 0.0, r * (k11 - k12) + de, 0.0, r * (k12 - k22) - de,  # k12
        2.0 * r * (k13 - k23), k23 - k13, (k11 + k12) * k23 - (k12 + k22) * k13,
        0.0, 0.0, 0.0, w, -r * (k13 + k23), -2.0 * r * k33, k33,  # k13
        (k11 + k12) * k33 - (k13 + k23) * k13,
        0.0, 0.0, 0.0, 0.0, 2.0 * r * k22, 4.0 * r * k23, -2.0 * k23,  # k22
        2.0 * (k13 * k22 - k12 * k23),
        0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * r * k33, -k33,  # k23
        (k13 + k23) * k23 - (k12 + k22) * k33,
    ) + (0.0,) * 24).reshape(8, 8)  # the rows of k33, r and delta
    return up - up.T


def table_bracket(a: str, b: str, at: InvariantPoint) -> float:
    """{a, b} between two generators, evaluated at a point of the variety."""
    if a not in GENERATORS or b not in GENERATORS:
        raise KeyError(f"unknown generators {a!r}, {b!r}")
    return float(bracket_matrix(at)[GENERATORS.index(a), GENERATORS.index(b)])


def table_flow(
    h_grad: Callable[[InvariantPoint], tuple[float, ...]],
    at: InvariantPoint,
    allow_off_variety: bool = False,
) -> tuple[float, ...]:
    """Hamiltonian flow x' = {H, x} = grad H . Pi of ``bracket_matrix``.

    ``h_grad`` gives dH/dx over the generators in the order of
    :data:`GENERATORS`.  Only points of the variety are states, so
    off-variety points are rejected unless explicitly allowed.
    """
    at = InvariantPoint.from_tuple(at)
    if not allow_off_variety:
        try:
            at.validate()
        except ValueError as exc:
            raise OffVarietyError(str(exc)) from exc
    return tuple((np.array(h_grad(at)) @ bracket_matrix(at)).tolist())


def integral_I(pt: InvariantPoint, alpha: float, gamma: float) -> float:
    """The extra conserved quantity of the symmetric top on the reduced space:
    alpha (k12^2 - k11 k22) - 2 gamma delta."""
    k11, k12, k13, k22, k23, k33, r, delta = pt
    return alpha * (k12 * k12 - k11 * k22) - 2.0 * gamma * delta


def integral_I_gradient(alpha: float, gamma: float) -> Callable[[InvariantPoint], tuple]:
    def grad(p: InvariantPoint) -> tuple[float, ...]:
        k11, k12, k13, k22, k23, k33, r, delta = p
        return (-alpha * k22, 2.0 * alpha * k12, 0.0,
                -alpha * k11, 0.0, 0.0, 0.0, -2.0 * gamma)
    return grad


def hamiltonian_gradient(kind: HamiltonianKind) -> Callable[[InvariantPoint], tuple]:
    """Analytic gradient over the generators for the named Hamiltonians."""
    return kind.reduced_hamiltonian()[1]


def casimir_gradient(name: str) -> Callable[[InvariantPoint], tuple]:
    """Analytic gradients of the three Casimirs over the generators."""
    if name == "C1":
        return lambda p: (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0 * p[6], 0.0)
    if name == "C2":
        def grad(p: InvariantPoint) -> tuple[float, ...]:
            k11, k12, k13, k22, k23, k33, r, delta = p
            c1 = k33 + r * r
            return (
                c1,                                   # k11
                2.0 * (r * r - k33),                  # k12
                4.0 * k23,                            # k13
                c1,                                   # k22
                4.0 * k13,                            # k23
                k11 + k22 - 2.0 * k12,                # k33
                2.0 * r * (k11 + k22 + 2.0 * k12) - 4.0 * delta,  # r
                -4.0 * r,                             # delta
            )
        return grad
    if name == "C3":
        return lambda p: (1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    raise KeyError(f"unknown Casimir {name!r}")
