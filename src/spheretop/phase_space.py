"""Unreduced phase space of two bodies on the 3-sphere.

States are quadruples ``(g1, p1, g2, p2)`` of quaternions with the positions
on the unit sphere and the momenta tangent to it.  The left/right momentum
maps, the two-body and spinning-top Hamiltonians, and the classification of
states by the subspace their four vectors span all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quaternion import (
    ImaginaryQuaternion,
    Quaternion,
    UNIT_NORM_TOL,
    inner_product,
    quat_mul,
)

COLLISION_MARGIN = 1e-9
COPLANARITY_TOL = 1e-9

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
        if not (0 < self.m1 < math.inf and 0 < self.m2 < math.inf):
            raise ValueError("masses must be finite and strictly positive")

    @property
    def equal(self) -> bool:
        return self.m1 == self.m2


@dataclass(frozen=True)
class Potential:
    """Interaction potential as a function of r = <g1, g2> = cos(theta).

    ``v`` evaluates V(r), ``f`` the force f(r) = -dV/dr and ``fprime`` its
    derivative df/dr.  The gravitational kind carries the m1*m2 factor
    internally and guards the r -> +-1 singularities; the linear kind is
    V = gamma*r with constant force -gamma.
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
            return -mm * r / math.sqrt(1.0 - r * r)

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
        return cls(
            kind="linear",
            v=lambda r: gamma * r,
            f=lambda r: -gamma,
            fprime=lambda r: 0.0,
            gamma=gamma,
        )

    @classmethod
    def custom(cls, v, f, fprime=None) -> "Potential":
        if fprime is None:
            def fprime(r: float, _f=f, h: float = 1e-6) -> float:
                return (_f(r + h) - _f(r - h)) / (2.0 * h)
        return cls(kind="custom", v=v, f=f, fprime=fprime)


def _collision_guard(r: float) -> None:
    if 1.0 - abs(r) <= COLLISION_MARGIN:
        raise CollisionError(f"potential evaluated at cos(theta) = {r!r}, "
                             "too close to coincident/antipodal positions")


@dataclass(frozen=True)
class PhaseState:
    """A point (g1, p1, g2, p2) with |g_i| = 1 and <p_i, g_i> = 0."""

    g1: Quaternion
    p1: Quaternion
    g2: Quaternion
    p2: Quaternion

    def validate(self, tol: float = UNIT_NORM_TOL) -> None:
        for g in (self.g1, self.g2):
            if abs(g.norm2() - 1.0) > 2.0 * tol:
                raise ValueError("positions must lie on the unit sphere")
        for p, g in ((self.p1, self.g1), (self.p2, self.g2)):
            if abs(inner_product(p, g)) > tol * max(1.0, p.norm()):
                raise ValueError("momenta must be tangent to the sphere")

    def separation(self) -> float:
        """cos(theta) between the two positions."""
        return inner_product(self.g1, self.g2)

    def to_json_dict(self) -> dict:
        return {
            "g1": list(self.g1.components()),
            "p1": list(self.p1.components()),
            "g2": list(self.g2.components()),
            "p2": list(self.p2.components()),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhaseState":
        return cls(
            g1=Quaternion.from_components(d["g1"]),
            p1=Quaternion.from_components(d["p1"]),
            g2=Quaternion.from_components(d["g2"]),
            p2=Quaternion.from_components(d["p2"]),
        )


def hamiltonian_2body(s: PhaseState, m: MassParams, pot: Potential) -> float:
    """Kinetic energy plus the interaction potential, H of the two-body flow."""
    r = s.separation()
    return s.p1.norm2() / (2.0 * m.m1) + s.p2.norm2() / (2.0 * m.m2) + pot.v(r)


def hamiltonian_lagrange(s: PhaseState, alpha: float, gamma: float) -> float:
    """Hamiltonian of the symmetric 4-dimensional top pulled back to the sphere.

    alpha = 2/(1 + I4) for axial moment of inertia I4 >= 0, so alpha in (0, 2].
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError("alpha must lie in (0, 2]")
    r1 = quat_mul(s.g1.inverse(), s.p1)
    r2 = quat_mul(s.g2.inverse(), s.p2)
    return ((1.0 + alpha) / 4.0 * (s.p1.norm2() + s.p2.norm2())
            + (1.0 - alpha) / 2.0 * inner_product(r1, r2)
            + gamma * s.separation())


def momentum_left(s: PhaseState) -> ImaginaryQuaternion:
    """Total left momentum p1 g1^{-1} + p2 g2^{-1}, conserved along the flow."""
    lam = quat_mul(s.p1, s.g1.inverse()) + quat_mul(s.p2, s.g2.inverse())
    return lam.imag()


def momentum_right(s: PhaseState) -> ImaginaryQuaternion:
    """Total right momentum g1^{-1} p1 + g2^{-1} p2, conserved along the flow."""
    rho = quat_mul(s.g1.inverse(), s.p1) + quat_mul(s.g2.inverse(), s.p2)
    return rho.imag()


def classify_point(s: PhaseState, tol: float = COPLANARITY_TOL) -> str:
    """Classify a state by the dimension of the span of its four vectors.

    Rank is decided from the singular values of the 4x4 matrix whose rows are
    (g1, p1, g2, p2); rank <= 3 means all four fit into a hyperplane
    (cospherical), rank <= 2 into a plane (cocircular).
    """
    rows = np.array([
        s.g1.components(), s.p1.components(),
        s.g2.components(), s.p2.components(),
    ])
    norms = np.linalg.norm(rows, axis=1)
    scaled = rows / np.where(norms > 0, norms, 1.0)[:, None]
    sv = np.linalg.svd(scaled, compute_uv=False)
    cut = tol * max(1.0, sv[0])
    if sv[2] < cut:
        return POINT_COCIRCULAR
    if sv[3] < cut:
        return POINT_COSPHERICAL
    return POINT_GENERIC


def sjamaar_slice_check(
    s: PhaseState, tol: float = UNIT_NORM_TOL
) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, ImaginaryQuaternion]:
    """Angular momentum and the two momentum maps on the imaginary slice.

    For states with all four vectors purely imaginary (two bodies on the
    2-sphere of imaginary units), returns (Omega, lambda, rho) where
    Omega = g1 x p1 + g2 x p2.  On this slice 2*Omega = lambda - rho and
    lambda = -rho.
    """
    for q in (s.g1, s.p1, s.g2, s.p2):
        if abs(q.w) > tol * max(1.0, q.norm()):
            raise ValueError("slice check requires purely imaginary positions and momenta")
    s.validate()
    omega = s.g1.imag().cross(s.p1.imag()) + s.g2.imag().cross(s.p2.imag())
    return omega, momentum_left(s), momentum_right(s)


def tangent_project(p: Quaternion, g: Quaternion) -> Quaternion:
    """Remove the component of p along g (orthogonal projection)."""
    return p - (inner_product(p, g) / g.norm2()) * g


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion.from_components(v)


def random_phase_state(rng: np.random.Generator, momentum_scale: float = 1.0) -> PhaseState:
    """A random state with unit positions and tangent momenta."""
    g1 = random_unit_quaternion(rng)
    g2 = random_unit_quaternion(rng)
    p1 = tangent_project(Quaternion.from_components(rng.normal(scale=momentum_scale, size=4)), g1)
    p2 = tangent_project(Quaternion.from_components(rng.normal(scale=momentum_scale, size=4)), g2)
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
