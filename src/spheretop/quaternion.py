"""Quaternion algebra for the unit 3-sphere and its action on R^4.

Conventions
-----------
Quaternions are stored scalar-first as ``(w, x, y, z)`` meaning
``w + x*i + y*j + z*k``.  Purely imaginary quaternions are identified with
vectors in R^3 as ``(x, y, z)``; under this identification the commutator
satisfies ``[a, b] = a*b - b*a = 2 (a x b)``.

The double cover of SO(4) is realised by pairs of unit quaternions acting as
``q -> l q r^{-1}``; its matrix is taken in the ordered basis ``(1, i, j, k)``.
Elements of so(4) are kept in the block layout with the distinguished (real)
axis last, i.e. ordered basis ``(i, j, k, 1)``.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOL = 1e-9

SUBGROUP_TRIVIAL = "trivial"
SUBGROUP_SIMPLE = "simple"
SUBGROUP_ISOCLINIC = "isoclinic"
SUBGROUP_DOUBLE = "double"


class Quaternion:
    """An element of the real quaternion algebra, stored as four floats."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_components(cls, c) -> "Quaternion":
        w, x, y, z = c
        return cls(w, x, y, z)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)

    def __rmul__(self, scalar: float) -> "Quaternion":
        return Quaternion(self.w * scalar, self.x * scalar, self.y * scalar, self.z * scalar)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def imag(self) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(self.x, self.y, self.z)

    def is_unit(self, tol: float = UNIT_NORM_TOL) -> bool:
        return abs(self.norm2() - 1.0) <= 2.0 * tol

    def allclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (abs(self.w - other.w) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol and abs(self.z - other.z) <= tol)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class ImaginaryQuaternion:
    """A purely imaginary quaternion, identified with a vector in R^3."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    def components(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def __repr__(self) -> str:
        return f"ImaginaryQuaternion({self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImaginaryQuaternion):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __add__(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(-self.x, -self.y, -self.z)

    def __mul__(self, scalar: float) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def dot(self, other: "ImaginaryQuaternion") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def exp(self) -> Quaternion:
        """The exponential exp(v) = cos|v| + sin|v| v/|v| on the 3-sphere."""
        a = self.norm()
        if a == 0.0:
            return Quaternion(1.0, 0.0, 0.0, 0.0)
        s = math.sin(a) / a
        return Quaternion(math.cos(a), s * self.x, s * self.y, s * self.z)

    def allclose(self, other: "ImaginaryQuaternion", tol: float = 1e-12) -> bool:
        return (abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol
                and abs(self.z - other.z) <= tol)


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q."""
    pw, px, py, pz = p.w, p.x, p.y, p.z
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    return Quaternion(
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def inner_product(p: Quaternion, q: Quaternion) -> float:
    """Euclidean inner product on R^4, computed as (p q^+ + q p^+)/2."""
    s = quat_mul(p, q.conjugate())
    t = quat_mul(q, p.conjugate())
    # the imaginary parts cancel exactly; the real part is the 4-vector dot
    return 0.5 * (s.w + t.w)


def adjoint_bracket(omega: ImaginaryQuaternion, q: ImaginaryQuaternion) -> ImaginaryQuaternion:
    """Commutator [omega, q] = omega q - q omega, equal to 2 (omega x q)."""
    a = quat_mul(omega.as_quaternion(), q.as_quaternion())
    b = quat_mul(q.as_quaternion(), omega.as_quaternion())
    return (a - b).imag()


def phi_double_cover(l: Quaternion, r: Quaternion) -> np.ndarray:
    """Matrix of q -> l q r^{-1} in the basis (1, i, j, k).

    Both arguments must be unit quaternions; the result is then in SO(4),
    and (l, r) and (-l, -r) map to the same matrix.
    """
    if not l.is_unit() or not r.is_unit():
        raise ValueError("phi_double_cover requires unit quaternions")
    rinv = r.inverse()
    cols = []
    for e in (ONE, I, J, K):
        cols.append(quat_mul(quat_mul(l, e), rinv).components())
    return np.array(cols, dtype=float).T


class So4Element:
    """Antisymmetric 4x4 matrix in the basis (i, j, k, 1).

    The upper-left 3x3 block is the cross-product matrix of a rotation
    vector and the final column holds the translation-like part paired with
    the distinguished axis.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("So4Element requires a 4x4 matrix")
        if np.max(np.abs(m + m.T)) > UNIT_NORM_TOL:
            raise ValueError("So4Element requires an antisymmetric matrix")
        self.matrix = m

    @classmethod
    def from_blocks(cls, omega: ImaginaryQuaternion, eta: ImaginaryQuaternion) -> "So4Element":
        ox, oy, oz = omega.components()
        ex, ey, ez = eta.components()
        m = np.array([
            [0.0, -oz, oy, ex],
            [oz, 0.0, -ox, ey],
            [-oy, ox, 0.0, ez],
            [-ex, -ey, -ez, 0.0],
        ])
        return cls(m)

    @classmethod
    def from_generators(cls, xi: ImaginaryQuaternion, eta: ImaginaryQuaternion) -> "So4Element":
        """Inverse of :func:`so4_isom_pullback`."""
        omega = 0.5 * (xi + eta)
        trans = 0.5 * (xi - eta)
        return cls.from_blocks(omega, trans)

    def blocks(self) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion]:
        m = self.matrix
        omega = ImaginaryQuaternion(m[2, 1], m[0, 2], m[1, 0])
        eta = ImaginaryQuaternion(m[0, 3], m[1, 3], m[2, 3])
        return omega, eta


def so4_isom_pullback(L: So4Element) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion]:
    """Split an so(4) element into the pair (Omega + eta, Omega - eta)."""
    omega, eta = L.blocks()
    return omega + eta, omega - eta


def classify_subgroup(xi_mag: float, eta_mag: float, tol: float = 1e-12) -> str:
    """Sort a one-parameter subgroup with rotation rates (xi, eta) into its type.

    Both planes fixed: trivial; equal nonzero rates: a simple rotation;
    exactly one rate zero: isoclinic; two distinct nonzero rates: double.
    """
    if xi_mag < 0 or eta_mag < 0:
        raise ValueError("rotation rates must be nonnegative")
    xi_zero = xi_mag <= tol
    eta_zero = eta_mag <= tol
    if xi_zero and eta_zero:
        return SUBGROUP_TRIVIAL
    if xi_zero != eta_zero:
        return SUBGROUP_ISOCLINIC
    if abs(xi_mag - eta_mag) <= tol * max(1.0, xi_mag, eta_mag):
        return SUBGROUP_SIMPLE
    return SUBGROUP_DOUBLE
