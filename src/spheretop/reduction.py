"""Staged reduction: translation-reduced coordinates and the invariant variety.

Quotienting the phase space by left (or right) translations leaves the triple
``(A1, A2, gD)`` of two momenta seen from the moving frame together with a
relative position quaternion.  Quotienting once more by the residual
conjugation action lands on a semialgebraic variety in R^8 coordinatised by
the pairwise inner products ``k_ij`` of ``(A1, A2, Im gD)``, the determinant
``delta`` and the real part ``r`` of ``gD``.  The variety is cut out by
``delta^2 = det(k_ij)`` and the Cauchy-Schwarz inequalities.

:class:`InvariantPoint` is a tuple in the one order of the eight invariants,
``(k11, k12, k13, k22, k23, k33, r, delta)``, which :data:`INVARIANT_CSV_COLUMNS`,
``poisson.GENERATORS``, the integrator and every CSV follow.

:class:`ReducedState` and ``PhaseState`` are likewise the flat 10- and
16-vectors, so the maps and the Casimirs are defined once, on flat vectors,
and take a typed state or a plain sequence alike (``invariant_map`` is the
16 -> 8 map).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .phase_space import PhaseState, body_frame_vec, flat_floats, space_frame_vec
from .quaternion import ImaginaryQuaternion, Quaternion, quat_mul, quat_mul_vec

SIDE_LEFT = "left"
SIDE_RIGHT = "right"

VARIETY_TOL = 1e-8
STRATUM_FREE = "free"
STRATUM_SO2 = "so2_isotropy"
STRATUM_FULL = "full_isotropy"


class ReducedState(tuple):
    """Translation-reduced coordinates (A1, A2, gD) on either side.

    side="left" carries (R1, R2, gL) with R_i = g_i^{-1} p_i, gL = g1^{-1} g2;
    side="right" carries (L1, L2, gR) with L_i = p_i g_i^{-1}, gR = g1 g2^{-1}.
    The Poisson structures of the two sides differ only by an overall sign.

    The tuple of the 10 floats of A1, A2 and gD.  ``side`` is read-only, in
    the instance dict; states of two sides are never equal, and a state
    equals, so hashes as, the plain tuple of its floats.
    """

    def __new__(cls, A1, A2, gD, side: str = SIDE_LEFT):
        self = flat_floats(cls, (A1, A2, gD), (3, 3, 4))
        self.__dict__["side"] = side
        return self

    def __getnewargs__(self):  # copy and pickle call __new__ with the parts and the side
        return self[0:3], self[3:6], self[6:10], self.side

    side = property(lambda self: self.__dict__["side"])
    A1 = property(lambda self: ImaginaryQuaternion(*self[0:3]))
    A2 = property(lambda self: ImaginaryQuaternion(*self[3:6]))
    gD = property(lambda self: Quaternion(*self[6:10]))

    def __eq__(self, other):
        if isinstance(other, ReducedState) and self.side != other.side:
            return False
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class _Invariants(NamedTuple):
    k11: float
    k12: float
    k13: float
    k22: float
    k23: float
    k33: float
    r: float
    delta: float


class InvariantPoint(_Invariants):
    """A point of the fully reduced semialgebraic variety in R^8.

    A tuple in the invariant order, so that it is the flat 8-vector itself;
    built by keyword only, so that no call can depend on the field order.
    """

    __slots__ = ()

    def __new__(cls, *, k11, k12, k13, k22, k23, k33, r, delta):
        return super().__new__(cls, k11, k12, k13, k22, k23, k33, r, delta)

    def __getnewargs_ex__(self):  # copy and pickle call __new__ by keyword
        return (), self._asdict()

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)

    @classmethod
    def from_tuple(cls, v) -> "InvariantPoint":
        return cls._make(v)

    def variety_defect(self) -> float:
        """delta^2 - det(k_ij); zero on the image of the invariant map."""
        return variety_defect_vec(self)

    def validate(self) -> None:
        # NaN fails no comparison below and inf makes the scale inf, so both
        # are rejected first
        if not all(map(math.isfinite, self)):
            raise ValueError("invariants must be finite")
        scale = max(1.0, self.k11, self.k22, self.k33)
        if min(self.k11, self.k22, self.k33) < -VARIETY_TOL * scale:
            raise ValueError("diagonal invariants must be nonnegative")
        pairs = (
            (self.k12, self.k11, self.k22),
            (self.k13, self.k11, self.k33),
            (self.k23, self.k22, self.k33),
        )
        for kij, kii, kjj in pairs:
            if kij * kij > kii * kjj + VARIETY_TOL * scale * scale:
                raise ValueError("Cauchy-Schwarz inequality violated")
        if abs(self.variety_defect()) > VARIETY_TOL * scale ** 3:
            raise ValueError("point violates delta^2 = det(k_ij)")


INVARIANT_CSV_COLUMNS = InvariantPoint._fields


class CasimirValues(NamedTuple):
    """Values of the three Casimirs at a point of the fully reduced space."""

    C1: float
    C2: float
    C3: float


def vec_to_reduced(v: Sequence[float], side: str = SIDE_LEFT) -> ReducedState:
    return ReducedState(v[0:3], v[3:6], v[6:10], side)


# ---------------------------------------------------------------------------
# the reduction maps and the Casimirs, on the states or any flat vectors
# ---------------------------------------------------------------------------

def hilbert_vec(u: Sequence[float]) -> tuple[float, ...]:
    """The invariants (k11, k12, k13, k22, k23, k33, r, delta) of a flat
    reduced vector (A1, A2, gD): k_ij = <v_i, v_j> and delta = <v1 x v2, v3>
    for (v1, v2, v3) = (A1, A2, Im gD), r = Re gD."""
    a1x, a1y, a1z, a2x, a2y, a2z, gw, gx, gy, gz = u
    return (
        a1x * a1x + a1y * a1y + a1z * a1z,
        a1x * a2x + a1y * a2y + a1z * a2z,
        a1x * gx + a1y * gy + a1z * gz,
        a2x * a2x + a2y * a2y + a2z * a2z,
        a2x * gx + a2y * gy + a2z * gz,
        gx * gx + gy * gy + gz * gz,
        gw,
        (a1y * a2z - a1z * a2y) * gx + (a1z * a2x - a1x * a2z) * gy
        + (a1x * a2y - a1y * a2x) * gz,
    )


def invariant_map(v: Sequence[float]) -> tuple[float, ...]:
    """The 16 -> 8 map of a flat state: left reduction, then the Hilbert map."""
    return hilbert_vec(body_frame_vec(v))


def casimir_C2_direct(u: Sequence[float]) -> float:
    """|A1 gD + gD A2|^2 of a ReducedState or any flat reduced vector."""
    g = u[6:10]
    a = quat_mul_vec((0.0, u[0], u[1], u[2]), g)
    b = quat_mul_vec(g, (0.0, u[3], u[4], u[5]))
    w, x, y, z = a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]
    return w * w + x * x + y * y + z * z


def casimir_C1(p: Sequence[float]) -> float:
    """|gD|^2 = k33 + r^2 of an invariant 8-vector, with r^2 spelled r * r
    as in every other C1."""
    return p[5] + p[6] * p[6]


def casimir_C2_invariant(p: Sequence[float]) -> float:
    """C2 expressed in the generators of the invariant ring."""
    k11, k12, k13, k22, k23, k33, r, delta = p
    return ((k33 + r * r) * (k11 + k22)
            + 2.0 * k12 * (r * r - k33)
            + 4.0 * k13 * k23
            - 4.0 * r * delta)


def casimir_C3(p: Sequence[float]) -> float:
    """The Casimir |A1 + A2|^2 = k11 + k22 + 2 k12 picked up at the second stage.

    On the left-reduced picture this is the squared total right momentum.
    """
    return p[0] + p[3] + 2.0 * p[1]


def all_casimirs(p: Sequence[float]) -> CasimirValues:
    return CasimirValues(casimir_C1(p), casimir_C2_invariant(p), casimir_C3(p))


def variety_defect_vec(p: Sequence[float]) -> float:
    """delta^2 - det(k_ij) of an invariant 8-vector."""
    k11, k12, k13, k22, k23, k33, r, delta = p
    gram = (k11 * (k22 * k33 - k23 * k23)
            - k12 * (k12 * k33 - k23 * k13)
            + k13 * (k12 * k23 - k22 * k13))
    return delta * delta - gram


def stratum_classify(p: Sequence[float], tol: float = 1e-9) -> str:
    """Isotropy stratum of a point of the reduced variety.

    The two poles r = +-1 (all other generators zero) carry the full isotropy
    group; points with (A1, A2, Im gD) colinear but not all zero have SO(2)
    isotropy, detected through equality in all three Cauchy-Schwarz relations
    together with delta = 0; everything else is in the free stratum.  A
    non-finite point raises ``ValueError``, as ``InvariantPoint.validate`` does.
    ``reduce`` labels each row of its CSV with it, one point at a time.
    """
    if not all(map(math.isfinite, p)):
        raise ValueError("invariants must be finite")
    k11, k12, k13, k22, k23, k33, r, delta = p
    scale = max(1.0, k11, k22, k33)
    gens_zero = (max(abs(k11), abs(k12), abs(k13), abs(k22),
                     abs(k23), abs(k33), abs(delta)) <= tol * scale)
    if gens_zero:
        return STRATUM_FULL
    colinear = (
        abs(k12 * k12 - k11 * k22) <= tol * scale * scale
        and abs(k13 * k13 - k11 * k33) <= tol * scale * scale
        and abs(k23 * k23 - k22 * k33) <= tol * scale * scale
        and abs(delta) <= tol * scale ** 1.5
    )
    return STRATUM_SO2 if colinear else STRATUM_FREE


def left_reduce(s: PhaseState) -> ReducedState:
    """Quotient by left translations: (R1, R2, gL)."""
    return vec_to_reduced(body_frame_vec(s), SIDE_LEFT)


def right_reduce(s: PhaseState) -> ReducedState:
    """Quotient by right translations: (L1, L2, gR)."""
    return vec_to_reduced(space_frame_vec(s), SIDE_RIGHT)


def orbit_diffeo(rs: ReducedState) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, Quaternion]:
    """Coordinates splitting the reduced space into orbit x linear x group parts.

    Maps (A1, A2, gD) to ((A1 gD + gD A2) gD^{-1}, -A1 + gD A2 gD^{-1}, gD).
    The first component has squared norm equal to the Casimir C2 when gD is a
    unit quaternion, and the map is invertible for gD != 0.
    """
    if rs.gD.norm2() == 0.0:
        raise ValueError("orbit coordinates require gD != 0")
    a1 = rs.A1.as_quaternion()
    a2 = rs.A2.as_quaternion()
    ginv = rs.gD.inverse()
    first = quat_mul(quat_mul(a1, rs.gD) + quat_mul(rs.gD, a2), ginv)
    second = -a1 + quat_mul(quat_mul(rs.gD, a2), ginv)
    return first.imag(), second.imag(), rs.gD


def orbit_diffeo_inverse(
    first: ImaginaryQuaternion, second: ImaginaryQuaternion, gD: Quaternion
) -> ReducedState:
    a1 = 0.5 * (first - second)
    mid = 0.5 * (first + second)
    a2 = quat_mul(quat_mul(gD.inverse(), mid.as_quaternion()), gD).imag()
    return ReducedState(A1=a1, A2=a2, gD=gD)


def hilbert_map(rs: ReducedState) -> InvariantPoint:
    """Evaluate the generators of the conjugation-invariant ring.

    Uses (v1, v2, v3) = (A1, A2, Im gD):  k_ij = <v_i, v_j>,
    delta = <v1 x v2, v3>, r = Re gD.  Constant on conjugation orbits.
    """
    return InvariantPoint.from_tuple(hilbert_vec(rs))


def degenerate_leaf_sample(lam_mag: float, k13: float, theta: float) -> float:
    """k11 on the rho = 0 leaf: (|lambda|^2 + 4 k13^2) / (4 sin^2 theta).

    On that leaf k11 = k22 and k13 = -k23, and the leaf is the planar set of
    (k11, k13, theta) satisfying this relation (degenerating to the canoe
    when lambda = 0).
    """
    s = math.sin(theta)
    if s == 0.0:
        raise ValueError("sample requires sin(theta) != 0")
    return (lam_mag * lam_mag + 4.0 * k13 * k13) / (4.0 * s * s)
