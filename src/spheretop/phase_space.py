"""Unreduced phase space of two bodies on the 3-sphere.

States are quadruples ``(g1, p1, g2, p2)`` of quaternions with the positions
on the unit sphere and the momenta tangent to it.  The left/right momentum
maps, the two-body and spinning-top Hamiltonians, and the classification of
states by the subspace their four vectors span all live here.

A :class:`PhaseState` is the flat 16-vector itself, so each function of a
state (``hamiltonian_2body``, the body- and space-frame momenta and the
momentum maps) is written once and takes a state or any flat 16-sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quaternion import (
    ImaginaryQuaternion,
    Quaternion,
    UNIT_NORM_TOL,
    quat_dot_vec,
    quat_inverse_vec,
    quat_mul,
    quat_mul_vec,
)

COLLISION_MARGIN = 1e-9
COPLANARITY_TOL = 1e-9
# the masses, and the magnitudes of a nonzero linear force, that the model
# takes: squares and products of two such values, which the RE rates, their
# squares and the quartet's k_ii / m_i^2 form, stay far inside the normal
# float range, where they neither underflow to zero nor overflow
MODEL_RANGE = (1e-100, 1e100)

POINT_COCIRCULAR = "cocircular"
POINT_COSPHERICAL = "cospherical"
POINT_GENERIC = "generic"


class CollisionError(ValueError):
    """Raised when a singular potential is evaluated at or too close to
    coincident or antipodal positions."""


@dataclass(frozen=True)
class MassParams:
    """Masses of the two particles (for the symmetric top both equal 1/alpha)."""

    m1: float
    m2: float

    def __post_init__(self):
        lo, hi = MODEL_RANGE
        for name, mass in (("m1", self.m1), ("m2", self.m2)):
            if not lo <= mass <= hi:  # NaN too
                raise ValueError(f"mass {name} = {mass!r} must be finite and lie in "
                                 f"[{lo!r}, {hi!r}]")

    @property
    def equal(self) -> bool:
        return self.m1 == self.m2


@dataclass(frozen=True)
class Potential:
    """Interaction potential as a function of r = <g1, g2> = cos(theta).

    ``v`` evaluates V(r), ``f`` the force f(r) = -dV/dr and ``fprime`` its
    derivative df/dr.  The gravitational kind carries the m1*m2 factor
    internally, and each of its ``v``, ``f`` and ``fprime`` calls
    ``_collision_guard`` on r, which guards the r -> +-1 singularities; the
    linear kind is V = gamma*r with constant force -gamma, gamma zero or of a
    magnitude in ``MODEL_RANGE``.  ``v`` of either kind also takes a block of
    rows (an array of r), with the IEEE operations of a float for each entry.
    """

    kind: str
    v: Callable[[float], float]
    f: Callable[[float], float]
    fprime: Callable[[float], float]
    gamma: float | None = None

    @classmethod
    def gravitational(cls, masses: MassParams) -> "Potential":
        mm = masses.m1 * masses.m2

        def v(r: float) -> float:
            _collision_guard(r)
            try:
                return -mm * r / math.sqrt(1.0 - r * r)
            except TypeError:  # a block of rows, which math.sqrt does not take
                return -mm * r / np.sqrt(1.0 - r * r)

        def f(r: float) -> float:
            _collision_guard(r)
            return mm * (1.0 - r * r) ** -1.5

        def fprime(r: float) -> float:
            _collision_guard(r)
            return 3.0 * mm * r * (1.0 - r * r) ** -2.5

        return cls(kind="gravitational", v=v, f=f, fprime=fprime)

    @classmethod
    def linear(cls, gamma: float) -> "Potential":
        if not math.isfinite(gamma):
            raise ValueError("gamma must be finite")
        lo, hi = MODEL_RANGE
        if gamma != 0.0 and not lo <= abs(gamma) <= hi:
            raise ValueError(f"the force gamma = {gamma!r} must be zero or of a magnitude "
                             f"in [{lo!r}, {hi!r}]")
        return cls(
            kind="linear",
            v=lambda r: gamma * r,
            f=lambda r: -gamma,
            fprime=lambda r: 0.0,
            gamma=gamma,
        )

    @classmethod
    def custom(cls, v, f, fprime) -> "Potential":
        return cls(kind="custom", v=v, f=f, fprime=fprime)


def _collision_guard(r: float) -> None:
    """Raise CollisionError where r lies within ``COLLISION_MARGIN`` of +-1.

    r is a float, or a block of them (an array), for which the first such
    entry is named; a float pays for nothing but its comparison."""
    near = 1.0 - abs(r) <= COLLISION_MARGIN
    try:
        if not near:
            return
    except ValueError:  # a block of several rows has no single truth value
        if not near.any():
            return
    if isinstance(r, np.ndarray) and r.ndim:
        r = r[near.argmax()].item()
    raise CollisionError(f"potential evaluated at cos(theta) = {r!r}, "
                         "too close to coincident/antipodal positions")


def flat_floats(cls, parts, sizes):
    """A ``cls`` tuple of the components of ``parts`` as floats, part i in
    order and of length ``sizes[i]``; another length raises ValueError."""
    out = []
    for part, n in zip(parts, sizes):
        floats = [float(c) for c in part]
        if len(floats) != n:
            raise ValueError(f"expected {n} components, got {len(floats)}")
        out += floats
    # from a list, not a generator: tuple.__new__ would grow a generator's
    # items in a 10-tuple and free a 16-tuple per PhaseState, filling CPython's
    # free list of 16-tuples (2000 of them, about 0.34 MB until a full gc)
    return tuple.__new__(cls, out)


class PhaseState(tuple):
    """A point (g1, p1, g2, p2) with |g_i| = 1 and <p_i, g_i> = 0: the tuple
    of their 16 floats, each in (w, x, y, z) order, built from 4-sequences."""

    __slots__ = ()

    def __new__(cls, g1, p1, g2, p2):
        return flat_floats(cls, (g1, p1, g2, p2), (4, 4, 4, 4))

    def __getnewargs__(self):  # copy and pickle call __new__ with the four parts
        return self[0:4], self[4:8], self[8:12], self[12:16]

    g1 = property(lambda self: Quaternion(*self[0:4]))
    p1 = property(lambda self: Quaternion(*self[4:8]))
    g2 = property(lambda self: Quaternion(*self[8:12]))
    p2 = property(lambda self: Quaternion(*self[12:16]))

    def validate(self) -> None:
        # NaN fails no comparison below, so it is rejected first
        if not all(map(math.isfinite, self)):
            raise ValueError("state components must be finite")
        for g in (self.g1, self.g2):
            if abs(g.norm2() - 1.0) > 2.0 * UNIT_NORM_TOL:
                raise ValueError("positions must lie on the unit sphere")
        for p, g in ((self.p1, self.g1), (self.p2, self.g2)):
            if abs(quat_dot_vec(p, g)) > UNIT_NORM_TOL * max(1.0, p.norm()):
                raise ValueError("momenta must be tangent to the sphere")

    def separation(self) -> float:
        """cos(theta) between the two positions."""
        return quat_dot_vec(self[0:4], self[8:12])

    def to_json_dict(self) -> dict:
        return {"g1": list(self[0:4]), "p1": list(self[4:8]),
                "g2": list(self[8:12]), "p2": list(self[12:16])}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhaseState":
        """The state of a JSON object with four lists of four numbers; any
        other shape raises ValueError, naming the entry."""
        if not isinstance(d, dict):
            raise ValueError("a state must be a JSON object with the keys g1, p1, g2, p2")
        parts = {}
        for key in ("g1", "p1", "g2", "p2"):
            try:
                parts[key] = flat_floats(tuple, (d[key],), (4,))
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"state entry {key} must be a list of four numbers, "
                                 f"got {d.get(key)!r}") from None
        return cls(**parts)


def vec_to_state(v: Sequence[float]) -> PhaseState:
    return PhaseState(v[0:4], v[4:8], v[8:12], v[12:16])


# ---------------------------------------------------------------------------
# the conserved quantities, on a PhaseState or any flat 16-vector
# ---------------------------------------------------------------------------

def body_frame_vec(v: Sequence[float]) -> tuple[float, ...]:
    """(R1, R2, gL) of a flat state as ten floats: R_i = Im(g_i^{-1} p_i),
    gL = g1^{-1} g2.  Left reduction and the right momentum read it."""
    g1inv = quat_inverse_vec(v[0:4])
    r1 = quat_mul_vec(g1inv, v[4:8])
    r2 = quat_mul_vec(quat_inverse_vec(v[8:12]), v[12:16])
    return r1[1:] + r2[1:] + quat_mul_vec(g1inv, v[8:12])


def to_body_coords(v: Sequence[float]) -> tuple[float, ...]:
    """(g1, B1, g2, B2) of a flat state (g1, p1, g2, p2), with the body momenta
    B_i = g_i^{-1} p_i: the coordinates in which the unreduced flow is integrated."""
    return (*v[0:4], *quat_mul_vec(quat_inverse_vec(v[0:4]), v[4:8]),
            *v[8:12], *quat_mul_vec(quat_inverse_vec(v[8:12]), v[12:16]))


def from_body_coords(u: Sequence[float]) -> tuple[float, ...]:
    """The flat state (g1, p1, g2, p2) of body coordinates (g1, B1, g2, B2):
    p_i = g_i B_i, the inverse of :func:`to_body_coords`."""
    return (*u[0:4], *quat_mul_vec(u[0:4], u[4:8]), *u[8:12], *quat_mul_vec(u[8:12], u[12:16]))


def space_frame_vec(v: Sequence[float]) -> tuple[float, ...]:
    """(L1, L2, gR) of a flat state as ten floats: L_i = Im(p_i g_i^{-1}),
    gR = g1 g2^{-1}.  Right reduction and the left momentum read it."""
    g2inv = quat_inverse_vec(v[8:12])
    l1 = quat_mul_vec(v[4:8], quat_inverse_vec(v[0:4]))
    l2 = quat_mul_vec(v[12:16], g2inv)
    return l1[1:] + l2[1:] + quat_mul_vec(v[0:4], g2inv)


def _total(frame: tuple[float, ...]) -> tuple[float, float, float]:
    return frame[0] + frame[3], frame[1] + frame[4], frame[2] + frame[5]


def momentum_left_vec(v: Sequence[float]) -> tuple[float, float, float]:
    """Im(p1 g1^{-1} + p2 g2^{-1}) of a flat state."""
    return _total(space_frame_vec(v))


def momentum_right_vec(v: Sequence[float]) -> tuple[float, float, float]:
    """Im(g1^{-1} p1 + g2^{-1} p2) of a flat state."""
    return _total(body_frame_vec(v))


def two_body_energy(a, b, v, m: MassParams):
    """a/(2 m1) + b/(2 m2) + v: the two-body H from the squared momenta a, b
    (|p_i|^2, |A_i|^2 or k_ii) and the potential's value; floats or arrays."""
    return a / (2.0 * m.m1) + b / (2.0 * m.m2) + v


def hamiltonian_2body(v: Sequence[float], m: MassParams, pot: Potential) -> float:
    """Kinetic energy plus the interaction potential, H of the two-body flow:
    |p_i|^2 and V at r = <g1, g2> of a state or any flat 16-vector."""
    p1, p2 = v[4:8], v[12:16]
    r = quat_dot_vec(v[0:4], v[8:12])
    return two_body_energy(quat_dot_vec(p1, p1), quat_dot_vec(p2, p2), pot.v(r), m)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the top's alpha = 2/(1 + I4), I4 >= 0, lies in
    (0, 2], and its masses 1/alpha in ``MODEL_RANGE``."""
    if not (0.0 < alpha <= 2.0 and 1.0 / alpha <= MODEL_RANGE[1]):
        raise ValueError(f"alpha = {alpha!r} must lie in (0, 2], with its masses 1/alpha "
                         f"at most {MODEL_RANGE[1]!r}")


def hamiltonian_lagrange(s: PhaseState, alpha: float, gamma: float) -> float:
    """Hamiltonian of the symmetric 4-dimensional top pulled back to the sphere.

    alpha = 2/(1 + I4) for axial moment of inertia I4 >= 0, so alpha in (0, 2].
    """
    check_alpha(alpha)
    r1 = quat_mul(s.g1.inverse(), s.p1)
    r2 = quat_mul(s.g2.inverse(), s.p2)
    return ((1.0 + alpha) / 4.0 * (s.p1.norm2() + s.p2.norm2())
            + (1.0 - alpha) / 2.0 * quat_dot_vec(r1, r2)
            + gamma * s.separation())


def momentum_left(s: PhaseState) -> ImaginaryQuaternion:
    """Total left momentum p1 g1^{-1} + p2 g2^{-1}, conserved along the flow."""
    return ImaginaryQuaternion(*momentum_left_vec(s))


def momentum_right(s: PhaseState) -> ImaginaryQuaternion:
    """Total right momentum g1^{-1} p1 + g2^{-1} p2, conserved along the flow."""
    return ImaginaryQuaternion(*momentum_right_vec(s))


def classify_point(s: PhaseState) -> str:
    """Classify a state by the dimension of the span of its four vectors.

    Rank is decided from the singular values of the 4x4 matrix whose rows are
    (g1, p1, g2, p2), relative to ``COPLANARITY_TOL``; rank <= 3 means all
    four fit into a hyperplane (cospherical), rank <= 2 into a plane
    (cocircular).
    """
    rows = np.reshape(s, (4, 4))
    norms = np.linalg.norm(rows, axis=1)
    scaled = rows / np.where(norms > 0, norms, 1.0)[:, None]
    sv = np.linalg.svd(scaled, compute_uv=False)
    cut = COPLANARITY_TOL * max(1.0, sv[0])
    if sv[2] < cut:
        return POINT_COCIRCULAR
    if sv[3] < cut:
        return POINT_COSPHERICAL
    return POINT_GENERIC


def sjamaar_slice_check(
    s: PhaseState,
) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, ImaginaryQuaternion]:
    """Angular momentum and the two momentum maps on the imaginary slice.

    For states with all four vectors purely imaginary (two bodies on the
    2-sphere of imaginary units), returns (Omega, lambda, rho) where
    Omega = g1 x p1 + g2 x p2.  On this slice 2*Omega = lambda - rho and
    lambda = -rho.  Real parts within ``UNIT_NORM_TOL`` of a quaternion's norm
    count as zero.
    """
    for q in (s.g1, s.p1, s.g2, s.p2):
        if abs(q.w) > UNIT_NORM_TOL * max(1.0, q.norm()):
            raise ValueError("slice check requires purely imaginary positions and momenta")
    s.validate()
    omega = s.g1.imag().cross(s.p1.imag()) + s.g2.imag().cross(s.p2.imag())
    return omega, momentum_left(s), momentum_right(s)


def tangent_project(p: Quaternion, g: Quaternion) -> Quaternion:
    """Remove the component of p along g (orthogonal projection)."""
    return p - (quat_dot_vec(p, g) / g.norm2()) * g


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def random_phase_state(rng: np.random.Generator, momentum_scale: float = 1.0) -> PhaseState:
    """A random state with unit positions and tangent momenta."""
    g1 = random_unit_quaternion(rng)
    g2 = random_unit_quaternion(rng)
    p1 = tangent_project(Quaternion(*rng.normal(scale=momentum_scale, size=4)), g1)
    p2 = tangent_project(Quaternion(*rng.normal(scale=momentum_scale, size=4)), g2)
    return PhaseState(g1, p1, g2, p2)


def random_cospherical_state(rng: np.random.Generator, momentum_scale: float = 1.0) -> PhaseState:
    """A random state on the imaginary slice: everything in Im H."""
    out = []
    for _ in range(2):
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        p = rng.normal(scale=momentum_scale, size=3)
        p -= np.dot(p, g) * g
        out.append((Quaternion(0.0, *g), Quaternion(0.0, *p)))
    (g1, p1), (g2, p2) = out
    return PhaseState(g1, p1, g2, p2)
