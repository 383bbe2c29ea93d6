"""Staged reduction: translation-reduced coordinates and the invariant variety.

Quotienting the phase space by left (or right) translations leaves the triple
``(A1, A2, gD)`` of two momenta seen from the moving frame together with a
relative position quaternion.  Quotienting once more by the residual
conjugation action lands on a semialgebraic variety in R^8 coordinatised by
the pairwise inner products ``k_ij`` of ``(A1, A2, Im gD)``, the determinant
``delta`` and the real part ``r`` of ``gD``.  The variety is cut out by
``delta^2 = det(k_ij)`` and the Cauchy-Schwarz inequalities.

The field order of :class:`InvariantPoint`, ``(k11, k12, k13, k22, k23, k33,
r, delta)``, is the one order of the eight invariants: ``as_tuple`` /
``from_tuple``, :data:`INVARIANT_CSV_COLUMNS`, ``poisson.GENERATORS``, the
flat 8-vector of the integrator and the invariant columns of every CSV
follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .phase_space import PhaseState
from .quaternion import ImaginaryQuaternion, Quaternion, quat_mul

SIDE_LEFT = "left"
SIDE_RIGHT = "right"

STRATUM_FREE = "free"
STRATUM_SO2 = "so2_isotropy"
STRATUM_FULL = "full_isotropy"


@dataclass(frozen=True)
class ReducedState:
    """Translation-reduced coordinates (A1, A2, gD) on either side.

    side="left" carries (R1, R2, gL) with R_i = g_i^{-1} p_i, gL = g1^{-1} g2;
    side="right" carries (L1, L2, gR) with L_i = p_i g_i^{-1}, gR = g1 g2^{-1}.
    The Poisson structures of the two sides differ only by an overall sign.
    """

    A1: ImaginaryQuaternion
    A2: ImaginaryQuaternion
    gD: Quaternion
    side: str = SIDE_LEFT


@dataclass(frozen=True, kw_only=True)
class InvariantPoint:
    """A point of the fully reduced semialgebraic variety in R^8.

    Keyword-only, so that no call can depend on the field order.
    """

    k11: float
    k12: float
    k13: float
    k22: float
    k23: float
    k33: float
    r: float
    delta: float

    def as_tuple(self) -> tuple[float, ...]:
        return _invariant_values(self)

    @classmethod
    def from_tuple(cls, v) -> "InvariantPoint":
        return cls(**dict(zip(INVARIANT_CSV_COLUMNS, v, strict=True)))

    def gram_det(self) -> float:
        return (self.k11 * (self.k22 * self.k33 - self.k23 * self.k23)
                - self.k12 * (self.k12 * self.k33 - self.k23 * self.k13)
                + self.k13 * (self.k12 * self.k23 - self.k22 * self.k13))

    def variety_defect(self) -> float:
        """delta^2 - det(k_ij); zero on the image of the invariant map."""
        return self.delta * self.delta - self.gram_det()

    def validate(self, tol: float = 1e-8) -> None:
        scale = max(1.0, self.k11, self.k22, self.k33)
        if min(self.k11, self.k22, self.k33) < -tol * scale:
            raise ValueError("diagonal invariants must be nonnegative")
        pairs = (
            (self.k12, self.k11, self.k22),
            (self.k13, self.k11, self.k33),
            (self.k23, self.k22, self.k33),
        )
        for kij, kii, kjj in pairs:
            if kij * kij > kii * kjj + tol * scale * scale:
                raise ValueError("Cauchy-Schwarz inequality violated")
        if abs(self.variety_defect()) > tol * scale ** 3:
            raise ValueError("point violates delta^2 = det(k_ij)")


INVARIANT_CSV_COLUMNS = tuple(f.name for f in fields(InvariantPoint))
_invariant_values = attrgetter(*INVARIANT_CSV_COLUMNS)


@dataclass(frozen=True)
class CasimirValues:
    """Values of the three Casimirs at a point of the fully reduced space."""

    C1: float
    C2: float
    C3: float


def left_reduce(s: PhaseState) -> ReducedState:
    """Quotient by left translations: (R1, R2, gL)."""
    g1inv = s.g1.inverse()
    return ReducedState(
        A1=quat_mul(g1inv, s.p1).imag(),
        A2=quat_mul(s.g2.inverse(), s.p2).imag(),
        gD=quat_mul(g1inv, s.g2),
        side=SIDE_LEFT,
    )


def right_reduce(s: PhaseState) -> ReducedState:
    """Quotient by right translations: (L1, L2, gR)."""
    g2inv = s.g2.inverse()
    return ReducedState(
        A1=quat_mul(s.p1, s.g1.inverse()).imag(),
        A2=quat_mul(s.p2, g2inv).imag(),
        gD=quat_mul(s.g1, g2inv),
        side=SIDE_RIGHT,
    )


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


def casimir_C2_direct(rs: ReducedState) -> float:
    return (quat_mul(rs.A1.as_quaternion(), rs.gD)
            + quat_mul(rs.gD, rs.A2.as_quaternion())).norm2()


def casimir_C2_invariant(pt: InvariantPoint) -> float:
    """C2 expressed in the generators of the invariant ring."""
    return ((pt.k33 + pt.r * pt.r) * (pt.k11 + pt.k22)
            + 2.0 * pt.k12 * (pt.r * pt.r - pt.k33)
            + 4.0 * pt.k13 * pt.k23
            - 4.0 * pt.r * pt.delta)


def hilbert_map(rs: ReducedState) -> InvariantPoint:
    """Evaluate the generators of the conjugation-invariant ring.

    Uses (v1, v2, v3) = (A1, A2, Im gD):  k_ij = <v_i, v_j>,
    delta = <v1 x v2, v3>, r = Re gD.  Constant on conjugation orbits.
    """
    v1, v2 = rs.A1, rs.A2
    v3 = rs.gD.imag()
    return InvariantPoint(
        k11=v1.dot(v1),
        k12=v1.dot(v2),
        k13=v1.dot(v3),
        k22=v2.dot(v2),
        k23=v2.dot(v3),
        k33=v3.dot(v3),
        r=rs.gD.w,
        delta=v1.cross(v2).dot(v3),
    )


def casimir_C3(pt: InvariantPoint) -> float:
    """The Casimir |A1 + A2|^2 = k11 + k22 + 2 k12 picked up at the second stage.

    On the left-reduced picture this is the squared total right momentum.
    """
    return pt.k11 + pt.k22 + 2.0 * pt.k12


def all_casimirs(pt: InvariantPoint) -> CasimirValues:
    return CasimirValues(
        C1=pt.k33 + pt.r * pt.r,
        C2=casimir_C2_invariant(pt),
        C3=casimir_C3(pt),
    )


def stratum_classify(pt: InvariantPoint, tol: float = 1e-9) -> str:
    """Isotropy stratum of a point of the reduced variety.

    The two poles r = +-1 (all other generators zero) carry the full isotropy
    group; points with (A1, A2, Im gD) colinear but not all zero have SO(2)
    isotropy, detected through equality in all three Cauchy-Schwarz relations
    together with delta = 0; everything else is in the free stratum.
    """
    scale = max(1.0, pt.k11, pt.k22, pt.k33)
    gens_zero = (max(abs(pt.k11), abs(pt.k12), abs(pt.k13), abs(pt.k22),
                     abs(pt.k23), abs(pt.k33), abs(pt.delta)) <= tol * scale)
    if gens_zero:
        return STRATUM_FULL
    colinear = (
        abs(pt.k12 * pt.k12 - pt.k11 * pt.k22) <= tol * scale * scale
        and abs(pt.k13 * pt.k13 - pt.k11 * pt.k33) <= tol * scale * scale
        and abs(pt.k23 * pt.k23 - pt.k22 * pt.k33) <= tol * scale * scale
        and abs(pt.delta) <= tol * scale ** 1.5
    )
    return STRATUM_SO2 if colinear else STRATUM_FREE


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
