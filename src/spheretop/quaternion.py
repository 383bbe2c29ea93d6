"""Quaternion algebra for the unit 3-sphere and its action on R^4.

Conventions
-----------
Quaternions are stored scalar-first as ``(w, x, y, z)`` meaning
``w + x*i + y*j + z*k``.  Purely imaginary quaternions are identified with
vectors in R^3 as ``(x, y, z)``; under this identification the commutator
satisfies ``[a, b] = a*b - b*a = 2 (a x b)``.  ``Quaternion`` and
``ImaginaryQuaternion`` are the tuples of these floats, so each equals, and
hashes as, the plain tuple; their shared arithmetic is written once.

The double cover of SO(4) is realised by pairs of unit quaternions acting as
``q -> l q r^{-1}``; its matrix is taken in the ordered basis ``(1, i, j, k)``.
Elements of so(4) are kept in the block layout with the distinguished (real)
axis last, i.e. ordered basis ``(i, j, k, 1)``.
"""

from __future__ import annotations

import math
import numbers
from operator import itemgetter

import numpy as np

UNIT_NORM_TOL = 1e-9
RATE_TOL = 1e-12

SUBGROUP_TRIVIAL = "trivial"
SUBGROUP_SIMPLE = "simple"
SUBGROUP_ISOCLINIC = "isoclinic"
SUBGROUP_DOUBLE = "double"


class _Quat(tuple):
    """The arithmetic both quaternion types share; equality and hashing are the tuple's."""

    __slots__ = ()
    __array_ufunc__ = None  # numpy defers to these operators: np.float64(2.0) * q scales q

    def components(self) -> tuple[float, ...]:
        return tuple(self)

    __getnewargs__ = components  # copy and pickle call __new__ with the components

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self))})"

    # another type is no operand: its components would pair wrongly, a tuple's would concatenate
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple.__new__(type(self), [a + b for a, b in zip(self, other)])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple.__new__(type(self), [a - b for a, b in zip(self, other)])

    def __neg__(self):
        return tuple.__new__(type(self), [-c for c in self])

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            return NotImplemented
        s = float(scalar)
        return tuple.__new__(type(self), [c * s for c in self])

    __rmul__ = __mul__

    def norm2(self) -> float:
        n2 = 0.0  # summed in order, as quat_dot_vec does: sum() may compensate
        for c in self:
            n2 += c * c
        return n2

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return all(abs(a - b) <= tol for a, b in zip(self, other, strict=True))


class Quaternion(_Quat):
    """An element of the real quaternion algebra: the tuple of its floats (w, x, y, z)."""

    __slots__ = ()

    def __new__(cls, w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        return tuple.__new__(cls, (float(w), float(x), float(y), float(z)))

    w, x, y, z = (property(itemgetter(i)) for i in range(4))

    def __mul__(self, other):  # the Hamilton product with a quaternion, else the scalar one
        return quat_mul(self, other) if type(other) is Quaternion else super().__mul__(other)

    def conjugate(self) -> "Quaternion":
        w, x, y, z = self
        return tuple.__new__(Quaternion, (w, -x, -y, -z))

    def inverse(self) -> "Quaternion":
        return tuple.__new__(Quaternion, quat_inverse_vec(self))

    def imag(self) -> "ImaginaryQuaternion":
        return ImaginaryQuaternion(*self[1:])

    def is_unit(self) -> bool:
        return abs(self.norm2() - 1.0) <= 2.0 * UNIT_NORM_TOL


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class ImaginaryQuaternion(_Quat):
    """A purely imaginary quaternion, identified with R^3: the tuple of its floats (x, y, z)."""

    __slots__ = ()

    def __new__(cls, x: float = 0.0, y: float = 0.0, z: float = 0.0):
        return tuple.__new__(cls, (float(x), float(y), float(z)))

    x, y, z = (property(itemgetter(i)) for i in range(3))

    def cross(self, other: "ImaginaryQuaternion") -> "ImaginaryQuaternion":
        ax, ay, az = self
        bx, by, bz = other
        return tuple.__new__(ImaginaryQuaternion,
                             (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx))

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, *self)

    def exp(self) -> Quaternion:
        """The exponential exp(v) = cos|v| + sin|v| v/|v| on the 3-sphere."""
        a = self.norm()
        if a == 0.0:
            return ONE
        return Quaternion(math.cos(a), *(math.sin(a) / a * self))


def quat_mul_vec(p, q) -> tuple[float, float, float, float]:
    """Hamilton product p q of two (w, x, y, z) sequences, as a tuple.

    :func:`quat_mul` wraps it and the flat maps of the reduction call it;
    only the vector fields of ``dynamics`` write their products out inline.
    """
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def quat_inverse_vec(q) -> tuple[float, float, float, float]:
    """q^{-1} = conj(q) / |q|^2 of a (w, x, y, z) sequence, as a tuple."""
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return w / n2, -x / n2, -y / n2, -z / n2


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q."""
    return Quaternion(*quat_mul_vec(p, q))


def quat_dot_vec(p, q) -> float:
    """Euclidean inner product of two (w, x, y, z) sequences, summed in order.

    It is Re(p q^+) = (p q^+ + q p^+)/2 bit for bit: the real part of the
    Hamilton product with the conjugate subtracts the products p_x (-q_x),
    ..., which adds p_x q_x, ... exactly, and the symmetric mean of two
    equal terms is exact below half the largest double.
    """
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return pw * qw + px * qx + py * qy + pz * qz


inner_product = quat_dot_vec


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
    return np.array([quat_mul(quat_mul(l, e), rinv) for e in (ONE, I, J, K)], dtype=float).T


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
        ox, oy, oz = omega
        ex, ey, ez = eta
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
        return cls.from_blocks(0.5 * (xi + eta), 0.5 * (xi - eta))

    def blocks(self) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion]:
        m = self.matrix
        omega = ImaginaryQuaternion(m[2, 1], m[0, 2], m[1, 0])
        eta = ImaginaryQuaternion(m[0, 3], m[1, 3], m[2, 3])
        return omega, eta


def so4_isom_pullback(L: So4Element) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion]:
    """Split an so(4) element into the pair (Omega + eta, Omega - eta)."""
    omega, eta = L.blocks()
    return omega + eta, omega - eta


def classify_subgroup(xi_mag: float, eta_mag: float) -> str:
    """Sort a one-parameter subgroup with rotation rates (xi, eta) into its type.

    Both planes fixed: trivial; equal nonzero rates: a simple rotation;
    exactly one rate zero: isoclinic; two distinct nonzero rates: double.
    Rates within ``RATE_TOL`` count as zero or equal.
    """
    if xi_mag < 0 or eta_mag < 0:
        raise ValueError("rotation rates must be nonnegative")
    xi_zero = xi_mag <= RATE_TOL
    eta_zero = eta_mag <= RATE_TOL
    if xi_zero and eta_zero:
        return SUBGROUP_TRIVIAL
    if xi_zero != eta_zero:
        return SUBGROUP_ISOCLINIC
    if abs(xi_mag - eta_mag) <= RATE_TOL * max(1.0, xi_mag, eta_mag):
        return SUBGROUP_SIMPLE
    return SUBGROUP_DOUBLE
