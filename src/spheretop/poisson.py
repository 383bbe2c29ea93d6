"""Lie-Poisson brackets on the reduced spaces and the extra integral.

On the translation-reduced space the bracket of two functions with gradient
triples (d1, d2, d3) is

    +- [ <A1, [d1 f, d1 g]> + <A2, [d2 f, d2 g]>
         + <gD, (d1 f * d3 g - d3 g * d2 f) - (d1 g * d3 f - d3 f * d2 g)> ]

with the sign + on the left-reduced side and - on the right.  On the fully
reduced variety the brackets of the eight generators form one antisymmetric
8x8 tensor, ``bracket_matrix``.  Its symplectic leaves are the fully reduced
spaces; its rank is 4 on the free stratum, 2 on the SO(2)-isotropy stratum
and 0 at the poles.  It satisfies the Jacobi identity on all of R^8 (each of
the 56 triples of generators, checked symbolically), but only points of the
variety are states of the reduced system, so ``table_flow`` refuses
off-variety points by default.

The equations of motion use the convention  df/dt = {H, f}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import HamiltonianKind
from .quaternion import ImaginaryQuaternion, Quaternion, quat_dot_vec, quat_mul
from .reduction import INVARIANT_CSV_COLUMNS, InvariantPoint, ReducedState, SIDE_LEFT

GENERATORS = INVARIANT_CSV_COLUMNS


class OffVarietyError(ValueError):
    """``table_flow`` was asked for a flow at a non-finite or off-variety point."""


@dataclass(frozen=True)
class GradientTriple:
    """Partial gradients of a function of (A1, A2, gD)."""

    d1: ImaginaryQuaternion
    d2: ImaginaryQuaternion
    d3: Quaternion


def lie_poisson_bracket(
    f_grad: Callable[[ReducedState], GradientTriple],
    g_grad: Callable[[ReducedState], GradientTriple],
    at: ReducedState,
) -> float:
    """Evaluate {f, g} at a reduced state from the two gradient fields, with
    the sign that matches ``at.side``."""
    sign = 1 if at.side == SIDE_LEFT else -1
    df = f_grad(at)
    dg = g_grad(at)
    a1 = at.A1.as_quaternion()
    a2 = at.A2.as_quaternion()
    d1f, d1g = df.d1.as_quaternion(), dg.d1.as_quaternion()
    d2f, d2g = df.d2.as_quaternion(), dg.d2.as_quaternion()
    term1 = quat_dot_vec(a1, quat_mul(d1f, d1g) - quat_mul(d1g, d1f))
    term2 = quat_dot_vec(a2, quat_mul(d2f, d2g) - quat_mul(d2g, d2f))
    mixed = (quat_mul(d1f, dg.d3) - quat_mul(dg.d3, d2f)
             - quat_mul(d1g, df.d3) + quat_mul(df.d3, d2g))
    term3 = quat_dot_vec(at.gD, mixed)
    return sign * (term1 + term2 + term3)


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


# gradient fields of the invariant-ring generators as functions on the
# translation-reduced space, for cross-checking the tensor against the
# Lie-Poisson bracket upstairs

def generator_gradient(name: str) -> Callable[[ReducedState], GradientTriple]:
    zero = ImaginaryQuaternion()

    def grad(rs: ReducedState) -> GradientTriple:
        a1, a2 = rs.A1, rs.A2
        gbar = rs.gD.imag()
        if name == "k11":
            return GradientTriple(2.0 * a1, zero, Quaternion())
        if name == "k12":
            return GradientTriple(a2, a1, Quaternion())
        if name == "k13":
            return GradientTriple(gbar, zero, a1.as_quaternion())
        if name == "k22":
            return GradientTriple(zero, 2.0 * a2, Quaternion())
        if name == "k23":
            return GradientTriple(zero, gbar, a2.as_quaternion())
        if name == "k33":
            return GradientTriple(zero, zero, 2.0 * gbar.as_quaternion())
        if name == "r":
            return GradientTriple(zero, zero, Quaternion(1.0))
        if name == "delta":
            return GradientTriple(a2.cross(gbar), gbar.cross(a1),
                                  a1.cross(a2).as_quaternion())
        raise KeyError(f"unknown generator {name!r}")

    return grad
