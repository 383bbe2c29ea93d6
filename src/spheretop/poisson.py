"""Lie-Poisson brackets on the reduced spaces and the extra integral.

On the translation-reduced space the bracket of two functions with gradient
triples (d1, d2, d3) is

    +- [ <A1, [d1 f, d1 g]> + <A2, [d2 f, d2 g]>
         + <gD, (d1 f * d3 g - d3 g * d2 f) - (d1 g * d3 f - d3 f * d2 g)> ]

with the sign + on the left-reduced side and - on the right.  On the fully
reduced variety the bracket of the eight generators is tabulated below; it
closes into a Lie algebra only where the variety relations hold, so flows
assembled from the structure table refuse off-variety points by default.

The equations of motion use the convention  df/dt = {H, f}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .dynamics import HamiltonianKind
from .quaternion import ImaginaryQuaternion, Quaternion, inner_product, quat_mul
from .reduction import INVARIANT_CSV_COLUMNS, InvariantPoint, ReducedState, SIDE_LEFT

GENERATORS = INVARIANT_CSV_COLUMNS


class OffVarietyError(ValueError):
    """The structure table was asked to generate a flow off the variety."""


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
    term1 = inner_product(a1, quat_mul(d1f, d1g) - quat_mul(d1g, d1f))
    term2 = inner_product(a2, quat_mul(d2f, d2g) - quat_mul(d2g, d2f))
    mixed = (quat_mul(d1f, dg.d3) - quat_mul(dg.d3, d2f)
             - quat_mul(d1g, df.d3) + quat_mul(df.d3, d2g))
    term3 = inner_product(at.gD, mixed)
    return sign * (term1 + term2 + term3)


# ---------------------------------------------------------------------------
# structure table of the fully reduced bracket (upper triangle; the rest by
# antisymmetry)
# ---------------------------------------------------------------------------

_TABLE: dict[tuple[str, str], Callable[[InvariantPoint], float]] = {
    ("k11", "k12"): lambda p: 0.0,
    ("k11", "k13"): lambda p: -2.0 * p.r * p.k11,
    ("k11", "k22"): lambda p: 0.0,
    ("k11", "k23"): lambda p: 2.0 * p.delta - 2.0 * p.r * p.k12,
    ("k11", "k33"): lambda p: -4.0 * p.r * p.k13,
    ("k12", "k13"): lambda p: p.r * (p.k11 - p.k12) + p.delta,
    ("k12", "k22"): lambda p: 0.0,
    ("k12", "k23"): lambda p: p.r * (p.k12 - p.k22) - p.delta,
    ("k12", "k33"): lambda p: 2.0 * p.r * (p.k13 - p.k23),
    ("k13", "k22"): lambda p: 2.0 * p.delta - 2.0 * p.r * p.k12,
    ("k13", "k23"): lambda p: -p.r * (p.k13 + p.k23),
    ("k13", "k33"): lambda p: -2.0 * p.r * p.k33,
    ("k22", "k23"): lambda p: 2.0 * p.r * p.k22,
    ("k22", "k33"): lambda p: 4.0 * p.r * p.k23,
    ("k23", "k33"): lambda p: 2.0 * p.r * p.k33,
    ("k11", "r"): lambda p: 2.0 * p.k13,
    ("k12", "r"): lambda p: p.k23 - p.k13,
    ("k13", "r"): lambda p: p.k33,
    ("k22", "r"): lambda p: -2.0 * p.k23,
    ("k23", "r"): lambda p: -p.k33,
    ("k33", "r"): lambda p: 0.0,
    ("k11", "delta"): lambda p: 2.0 * (p.k12 * p.k13 - p.k11 * p.k23),
    ("k12", "delta"): lambda p: (p.k11 + p.k12) * p.k23 - (p.k12 + p.k22) * p.k13,
    ("k13", "delta"): lambda p: (p.k11 + p.k12) * p.k33 - (p.k13 + p.k23) * p.k13,
    ("k22", "delta"): lambda p: 2.0 * (p.k13 * p.k22 - p.k12 * p.k23),
    ("k23", "delta"): lambda p: (p.k13 + p.k23) * p.k23 - (p.k12 + p.k22) * p.k33,
    ("k33", "delta"): lambda p: 0.0,
    ("r", "delta"): lambda p: 0.0,
}


def table_bracket(a: str, b: str, at: InvariantPoint) -> float:
    """{a, b} between two generators, evaluated at a point of the variety."""
    if a not in GENERATORS or b not in GENERATORS:
        raise KeyError(f"unknown generators {a!r}, {b!r}")
    if a == b:
        return 0.0
    at = InvariantPoint.from_tuple(at)
    if (a, b) in _TABLE:
        return _TABLE[(a, b)](at)
    return -_TABLE[(b, a)](at)


def table_flow(
    h_grad: Callable[[InvariantPoint], tuple[float, ...]] | tuple[float, ...],
    at: InvariantPoint,
    allow_off_variety: bool = False,
) -> tuple[float, ...]:
    """Hamiltonian flow assembled from the structure table.

    ``h_grad`` gives dH/dx over the generators in the order of
    :data:`GENERATORS`.  Returns the tangent (x_a)' = {H, x_a} = sum_b
    dH/dx_b {x_b, x_a}.  The table represents the reduced Poisson structure
    only on the variety, so off-variety points are rejected unless
    explicitly allowed.
    """
    at = InvariantPoint.from_tuple(at)
    if not allow_off_variety:
        try:
            at.validate()
        except ValueError as exc:
            raise OffVarietyError(str(exc)) from exc
    grads = h_grad(at) if callable(h_grad) else h_grad
    out = []
    for a in GENERATORS:
        acc = 0.0
        for gb, b in zip(grads, GENERATORS):
            if gb != 0.0:
                acc += gb * table_bracket(b, a, at)
        out.append(acc)
    return tuple(out)


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
# translation-reduced space, for cross-checking the table against the
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
