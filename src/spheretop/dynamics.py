"""Equations of motion on every level of the reduction, plus the integrator.

Flat vector layouts used by the integrator:

* translation-reduced (10): ``(A1x, A1y, A1z, A2x, A2y, A2z, gw, gx, gy, gz)``
* invariant variety (8):    ``(k11, k12, k13, k22, k23, k33, r, delta)``
* unreduced (16):           ``g1, p1, g2, p2`` components in (w, x, y, z) order

Each equation has one definition.  The flat closures ``make_state_rhs``,
``make_reduced_rhs`` (both sides) and ``make_invariant_rhs`` define the vector
fields; ``rhs_left``, ``rhs_right`` and ``rhs_full_reduced`` are adapters that
convert a typed state to the flat vector, call the closure and wrap the
result.  :meth:`HamiltonianKind.reduced_hamiltonian` defines the value and the
gradient of each reduced Hamiltonian; ``evaluate_reduced_hamiltonian``,
``poisson.hamiltonian_gradient`` and the ``"H"`` entries of the
``invariants_*`` dicts read it.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  Conservation is monitored, never enforced: ``integrate`` runs a
projection hook (renormalise group components, re-orthogonalise momenta)
after accepted steps only when it is given one, so that by default drift
stays a meaningful diagnostic.  ``sample_columns`` evaluates the conserved
quantities once per sample; ``trajectory_csv`` and ``drift_summary`` read
those columns.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .phase_space import CollisionError, MassParams, PhaseState, Potential
from .quaternion import ImaginaryQuaternion, Quaternion, inner_product, quat_mul
from .reduction import (
    InvariantPoint,
    ReducedState,
    SIDE_LEFT,
    SIDE_RIGHT,
    casimir_C2_invariant,
    casimir_C3,
    casimir_C2_direct,
    hilbert_map,
)

KIND_TWO_BODY = "two_body"
KIND_LAGRANGE = "lagrange"
KIND_LAGRANGE_ALTERED = "lagrange_altered"


class SingularityError(RuntimeError):
    """Integration failed near a potential singularity; carries the time."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"integration stopped near t = {time!r}")


@dataclass(frozen=True)
class FlowConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")


@dataclass(frozen=True)
class HamiltonianKind:
    """Which Hamiltonian generates the flow, with its parameters."""

    tag: str
    masses: MassParams | None = None
    potential: Potential | None = None
    alpha: float | None = None
    gamma: float | None = None

    @classmethod
    def two_body(cls, masses: MassParams, potential: Potential) -> "HamiltonianKind":
        return cls(tag=KIND_TWO_BODY, masses=masses, potential=potential)

    @classmethod
    def lagrange(cls, alpha: float, gamma: float) -> "HamiltonianKind":
        cls._check_alpha(alpha)
        return cls(tag=KIND_LAGRANGE, alpha=alpha, gamma=gamma)

    @classmethod
    def lagrange_altered(cls, alpha: float, gamma: float) -> "HamiltonianKind":
        cls._check_alpha(alpha)
        return cls(tag=KIND_LAGRANGE_ALTERED, alpha=alpha, gamma=gamma)

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not (0.0 < alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")

    def reduced_hamiltonian(self) -> tuple[Callable, Callable]:
        """``(value, gradient)`` of the reduced Hamiltonian of this kind.

        ``value(a, b, ab, r)`` takes a = |A1|^2, b = |A2|^2, ab = <A1, A2> and
        r = Re gD; ``gradient(p)`` is dH/dx at an InvariantPoint over the
        generators in the order (k11, k12, k13, k22, k23, k33, r, delta).
        """
        if self.tag == KIND_TWO_BODY:
            m1, m2, pot = self.masses.m1, self.masses.m2, self.potential
            return (lambda a, b, ab, r: a / (2.0 * m1) + b / (2.0 * m2) + pot.v(r),
                    lambda p: (0.5 / m1, 0.0, 0.0, 0.5 / m2, 0.0, 0.0, -pot.f(p.r), 0.0))
        al, g = self.alpha, self.gamma
        if self.tag == KIND_LAGRANGE:
            c, cab = (1.0 + al) / 4.0, (1.0 - al) / 2.0
            return (lambda a, b, ab, r: c * (a + b) + cab * ab + g * r,
                    lambda p: (c, cab, 0.0, c, 0.0, 0.0, g, 0.0))
        if self.tag == KIND_LAGRANGE_ALTERED:
            c = al / 2.0
            return (lambda a, b, ab, r: c * (a + b) + g * r,
                    lambda p: (c, 0.0, 0.0, c, 0.0, 0.0, g, 0.0))
        raise ValueError(f"unknown hamiltonian kind {self.tag!r}")

    def equivalent_two_body(self) -> tuple[MassParams, Potential]:
        """Equal masses 1/alpha with the linear potential: generates the same
        fully reduced flow as either spinning-top Hamiltonian."""
        if self.tag == KIND_TWO_BODY:
            return self.masses, self.potential
        m = 1.0 / self.alpha
        return MassParams(m, m), Potential.linear(self.gamma)


# ---------------------------------------------------------------------------
# typed adapters over the flat vector fields below
# ---------------------------------------------------------------------------

def _reduced_field(
    rs: ReducedState, m: MassParams, pot: Potential, side: str
) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, Quaternion]:
    if rs.side != side:
        raise ValueError(f"rhs_{side} requires a {side}-reduced state")
    v = make_reduced_rhs(m, pot, side)(0.0, reduced_to_vec(rs))
    return ImaginaryQuaternion(*v[0:3]), ImaginaryQuaternion(*v[3:6]), Quaternion(*v[6:10])


def rhs_left(
    rs: ReducedState, m: MassParams, pot: Potential
) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, Quaternion]:
    """Hamiltonian vector field on the left-reduced space.

    A1' = +f(r) Im(gD),  A2' = -f(r) Im(gD),
    gD' = -(A1/m1) gD + gD (A2/m2),  with r = Re gD.
    """
    return _reduced_field(rs, m, pot, SIDE_LEFT)


def rhs_right(
    rs: ReducedState, m: MassParams, pot: Potential
) -> tuple[ImaginaryQuaternion, ImaginaryQuaternion, Quaternion]:
    """Mirror flow on the right-reduced space (opposite Poisson sign).

    A1' = -f(r) Im(gD),  A2' = +f(r) Im(gD),
    gD' = +(A1/m1) gD - gD (A2/m2).
    """
    return _reduced_field(rs, m, pot, SIDE_RIGHT)


def rhs_full_reduced(pt: InvariantPoint, m: MassParams, pot: Potential) -> tuple[float, ...]:
    """The eight equations of motion on the invariant variety.

    Returned in the vector order (k11, k12, k13, k22, k23, k33, r, delta).
    """
    return make_invariant_rhs(m, pot)(0.0, pt.as_tuple())


def reconstruct_rhs(g1: Quaternion, R1: ImaginaryQuaternion, m1: float) -> Quaternion:
    """Position velocity g1' = g1 R1 / m1 recovered from the frame momentum."""
    return quat_mul(g1, (1.0 / m1) * R1.as_quaternion())


def _hamiltonian_args(x) -> tuple[float, float, float, float]:
    """(|A1|^2, |A2|^2, <A1, A2>, Re gD) of a ReducedState or InvariantPoint."""
    if isinstance(x, ReducedState):
        return x.A1.norm2(), x.A2.norm2(), x.A1.dot(x.A2), x.gD.w
    if isinstance(x, InvariantPoint):
        return x.k11, x.k22, x.k12, x.r
    raise TypeError("expected ReducedState or InvariantPoint")


def evaluate_reduced_hamiltonian(kind: HamiltonianKind, x) -> float:
    """Reduced Hamiltonian of the given kind at a ReducedState or InvariantPoint."""
    return kind.reduced_hamiltonian()[0](*_hamiltonian_args(x))


# ---------------------------------------------------------------------------
# flat-vector encodings and fast closures for the integrator
# ---------------------------------------------------------------------------

def reduced_to_vec(rs: ReducedState) -> tuple[float, ...]:
    return rs.A1.components() + rs.A2.components() + rs.gD.components()

def vec_to_reduced(v: Sequence[float], side: str = SIDE_LEFT) -> ReducedState:
    return ReducedState(
        A1=ImaginaryQuaternion(v[0], v[1], v[2]),
        A2=ImaginaryQuaternion(v[3], v[4], v[5]),
        gD=Quaternion(v[6], v[7], v[8], v[9]),
        side=side,
    )

def point_to_vec(pt: InvariantPoint) -> tuple[float, ...]:
    return pt.as_tuple()

def vec_to_point(v: Sequence[float]) -> InvariantPoint:
    return InvariantPoint.from_tuple(tuple(v))

def state_to_vec(s: PhaseState) -> tuple[float, ...]:
    return (s.g1.components() + s.p1.components()
            + s.g2.components() + s.p2.components())

def vec_to_state(v: Sequence[float]) -> PhaseState:
    return PhaseState(
        g1=Quaternion(*v[0:4]), p1=Quaternion(*v[4:8]),
        g2=Quaternion(*v[8:12]), p2=Quaternion(*v[12:16]),
    )


def make_reduced_rhs(m: MassParams, pot: Potential, side: str = SIDE_LEFT) -> Callable:
    """Flat 10-dimensional vector field for either reduced side."""
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f
    sgn = 1.0 if side == SIDE_LEFT else -1.0

    def rhs(t, s):
        a1x, a1y, a1z, a2x, a2y, a2z, gw, gx, gy, gz = s
        f = sgn * force(gw)
        # (A1/m1) g with A1 imaginary
        px, py, pz = a1x * im1, a1y * im1, a1z * im1
        q1w = -(px * gx + py * gy + pz * gz)
        q1x = px * gw + py * gz - pz * gy
        q1y = py * gw + pz * gx - px * gz
        q1z = pz * gw + px * gy - py * gx
        # g (A2/m2)
        qx, qy, qz = a2x * im2, a2y * im2, a2z * im2
        q2w = -(gx * qx + gy * qy + gz * qz)
        q2x = gw * qx + gy * qz - gz * qy
        q2y = gw * qy + gz * qx - gx * qz
        q2z = gw * qz + gx * qy - gy * qx
        return (f * gx, f * gy, f * gz,
                -f * gx, -f * gy, -f * gz,
                sgn * (q2w - q1w), sgn * (q2x - q1x),
                sgn * (q2y - q1y), sgn * (q2z - q1z))

    return rhs


def make_invariant_rhs(m: MassParams, pot: Potential) -> Callable:
    """Flat 8-dimensional vector field on the invariant variety."""
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f

    def rhs(t, s):
        k11, k12, k13, k22, k23, k33, r, de = s
        f = force(r)
        return (
            2.0 * f * k13,
            f * (k23 - k13),
            f * k33 - r * (k11 * im1 - k12 * im2) - de * im2,
            -2.0 * f * k23,
            -f * k33 - r * (k12 * im1 - k22 * im2) + de * im1,
            2.0 * r * (k23 * im2 - k13 * im1),
            k13 * im1 - k23 * im2,
            (k12 * k13 - k11 * k23) * im1 + (k13 * k22 - k12 * k23) * im2,
        )

    return rhs


def make_state_rhs(m: MassParams, pot: Potential) -> Callable:
    """Flat 16-dimensional vector field for the unreduced two-body flow.

    Positions move with g_i' = p_i / m_i; the momentum equations follow from
    p_i = g_i A_i and the reduced flow of the frame momenta A_i.

    With gL = g1^{-1} g2 and r_i = g_i^{-1} p_i:
    p1' = (p1 r1)/m1 + f(Re gL) g1 Im(gL),  p2' = (p2 r2)/m2 - f(Re gL) g2 Im(gL).
    Each Hamilton product is written out term by term, including the terms
    multiplied by the zero real part of Im(gL), so that every component,
    signed zeros included, is the one the quaternion operations give.
    """
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f

    def rhs(t, s):
        g1w, g1x, g1y, g1z, p1w, p1x, p1y, p1z, g2w, g2x, g2y, g2z, p2w, p2x, p2y, p2z = s
        # g1^{-1}, gL = g1^{-1} g2 and the force
        n1 = g1w * g1w + g1x * g1x + g1y * g1y + g1z * g1z
        aw, ax, ay, az = g1w / n1, -g1x / n1, -g1y / n1, -g1z / n1
        lw = aw * g2w - ax * g2x - ay * g2y - az * g2z
        lx = aw * g2x + ax * g2w + ay * g2z - az * g2y
        ly = aw * g2y - ax * g2z + ay * g2w + az * g2x
        lz = aw * g2z + ax * g2y - ay * g2x + az * g2w
        f = force(lw)
        # r1 = g1^{-1} p1 and r2 = g2^{-1} p2
        r1w = aw * p1w - ax * p1x - ay * p1y - az * p1z
        r1x = aw * p1x + ax * p1w + ay * p1z - az * p1y
        r1y = aw * p1y - ax * p1z + ay * p1w + az * p1x
        r1z = aw * p1z + ax * p1y - ay * p1x + az * p1w
        n2 = g2w * g2w + g2x * g2x + g2y * g2y + g2z * g2z
        bw, bx, by, bz = g2w / n2, -g2x / n2, -g2y / n2, -g2z / n2
        r2w = bw * p2w - bx * p2x - by * p2y - bz * p2z
        r2x = bw * p2x + bx * p2w + by * p2z - bz * p2y
        r2y = bw * p2y - bx * p2z + by * p2w + bz * p2x
        r2z = bw * p2z + bx * p2y - by * p2x + bz * p2w
        return (
            p1w * im1, p1x * im1, p1y * im1, p1z * im1,
            im1 * (p1w * r1w - p1x * r1x - p1y * r1y - p1z * r1z)
            + f * (g1w * 0.0 - g1x * lx - g1y * ly - g1z * lz),
            im1 * (p1w * r1x + p1x * r1w + p1y * r1z - p1z * r1y)
            + f * (g1w * lx + g1x * 0.0 + g1y * lz - g1z * ly),
            im1 * (p1w * r1y - p1x * r1z + p1y * r1w + p1z * r1x)
            + f * (g1w * ly - g1x * lz + g1y * 0.0 + g1z * lx),
            im1 * (p1w * r1z + p1x * r1y - p1y * r1x + p1z * r1w)
            + f * (g1w * lz + g1x * ly - g1y * lx + g1z * 0.0),
            p2w * im2, p2x * im2, p2y * im2, p2z * im2,
            im2 * (p2w * r2w - p2x * r2x - p2y * r2y - p2z * r2z)
            - f * (g2w * 0.0 - g2x * lx - g2y * ly - g2z * lz),
            im2 * (p2w * r2x + p2x * r2w + p2y * r2z - p2z * r2y)
            - f * (g2w * lx + g2x * 0.0 + g2y * lz - g2z * ly),
            im2 * (p2w * r2y - p2x * r2z + p2y * r2w + p2z * r2x)
            - f * (g2w * ly - g2x * lz + g2y * 0.0 + g2z * lx),
            im2 * (p2w * r2z + p2x * r2y - p2y * r2x + p2z * r2w)
            - f * (g2w * lz + g2x * ly - g2y * lx + g2z * 0.0),
        )

    return rhs


def project_reduced(v: Sequence[float]) -> tuple[float, ...]:
    """Renormalise the group component to the unit sphere."""
    n = math.sqrt(v[6] ** 2 + v[7] ** 2 + v[8] ** 2 + v[9] ** 2)
    return tuple(v[:6]) + (v[6] / n, v[7] / n, v[8] / n, v[9] / n)


def project_state(v: Sequence[float]) -> tuple[float, ...]:
    """Renormalise positions and re-orthogonalise momenta."""
    out = []
    for i in (0, 8):
        g = Quaternion(*v[i:i + 4]).normalized()
        p = Quaternion(*v[i + 4:i + 8])
        p = p - inner_product(p, g) * g
        out.extend(g.components())
        out.extend(p.components())
    return tuple(out)


# ---------------------------------------------------------------------------
# embedded Runge-Kutta 5(4) with PI step control
# ---------------------------------------------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9

_MIN_STEP_FACTOR = 1e-13


@dataclass
class Trajectory:
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0
    projected: bool = False

    @property
    def final(self):
        return self.ys[-1]

    @property
    def rhs_evals(self) -> int:
        """Vector-field evaluations the run made: the initial slope, six per
        attempted step, and one more per accepted step after a projection."""
        return (1 + 6 * (self.n_accepted + self.n_rejected)
                + (self.n_accepted if self.projected else 0))


def integrate(
    rhs: Callable,
    y0: Sequence[float],
    t_end: float,
    cfg: FlowConfig = FlowConfig(),
    *,
    sample_dt: float | None = None,
    project: Callable | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from 0 to t_end and record samples.

    With ``sample_dt`` set, accepted steps are clipped so the trajectory
    contains exact hits of the sample times; otherwise every accepted step is
    recorded.  The ``project`` hook, when given, runs after every accepted
    step.  Raises :class:`SingularityError` when the step size underflows,
    the potential reports a collision, or the state, the initial slope or an
    error estimate is NaN or infinite; raises ``ValueError`` unless
    ``t_end`` and ``sample_dt`` (when given) are positive and finite.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end = {t_end!r} must be positive and finite")
    if sample_dt is not None and not 0.0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt = {sample_dt!r} must be positive and finite")
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    y = tuple(float(c) for c in y0)
    t = 0.0
    if not all(math.isfinite(c) for c in y):
        raise SingularityError(t, f"non-finite initial state at t = {t!r}")
    traj = Trajectory(ts=[t], ys=[y], projected=project is not None)
    next_sample = sample_dt

    try:
        k1 = rhs(t, y)
    except CollisionError as exc:
        raise SingularityError(t, f"collision at t = {t!r}: {exc}") from exc
    if not all(math.isfinite(c) for c in k1):
        raise SingularityError(t, f"non-finite vector field at t = {t!r}")
    h_ctrl = _initial_step(y, k1, atol, rtol)
    err_prev = 1.0
    eps_end = 1e-12 * max(1.0, abs(t_end))

    while t < t_end - eps_end:
        h = min(h_ctrl, t_end - t)
        if next_sample is not None and t + h > next_sample:
            h = next_sample - t
        if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
            raise SingularityError(t, f"step size underflow at t = {t!r}")
        try:
            # stage vectors are throwaway lists; only ynew is stored
            y2 = [yi + h * (_A21 * a) for yi, a in zip(y, k1)]
            k2 = rhs(t + _C2 * h, y2)
            y3 = [yi + h * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2)]
            k3 = rhs(t + _C3 * h, y3)
            y4 = [yi + h * (_A41 * a + _A42 * b + _A43 * c)
                  for yi, a, b, c in zip(y, k1, k2, k3)]
            k4 = rhs(t + _C4 * h, y4)
            y5 = [yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
            k5 = rhs(t + _C5 * h, y5)
            y6 = [yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                  for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]
            k6 = rhs(t + h, y6)
            ynew = tuple(yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
                         for yi, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6))
            k7 = rhs(t + h, ynew)
        except CollisionError as exc:
            raise SingularityError(t, f"collision near t = {t!r}: {exc}") from exc

        # weighted RMS error of the embedded pair
        acc = 0.0
        for yi, yn, a, c, d, e, f, g in zip(y, ynew, k1, k3, k4, k5, k6, k7):
            ee = h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
            ay, an = abs(yi), abs(yn)
            sc = atol + rtol * (ay if ay > an else an)
            q = ee / sc
            acc += q * q
        err = math.sqrt(acc / len(y))
        if err != err:
            raise SingularityError(t, f"NaN error estimate at t = {t!r}")

        if err <= 1.0:
            t += h
            y = ynew
            k1 = k7
            if project is not None:
                y = project(y)
                try:
                    k1 = rhs(t, y)
                except CollisionError as exc:
                    raise SingularityError(t, f"collision at t = {t!r}: {exc}") from exc
            traj.n_accepted += 1
            record = sample_dt is None
            if next_sample is not None and t >= next_sample - 1e-14 * max(1.0, abs(t)):
                record = True
                next_sample += sample_dt
            if record or t >= t_end - eps_end:
                traj.ts.append(t)
                traj.ys.append(y)
            fac = 5.0 if err == 0.0 else 0.9 * err ** -0.14 * err_prev ** 0.08
            if err > 0.0:
                err_prev = err
            if h >= h_ctrl:  # keep the controller's belief when the step was clipped
                h_ctrl = h * min(5.0, max(0.2, fac))
        else:
            traj.n_rejected += 1
            h_ctrl = h * max(0.2, 0.9 * err ** -0.2)
    return traj


def _initial_step(y, k1, atol, rtol) -> float:
    sc = [atol + rtol * abs(yi) for yi in y]
    d0 = math.sqrt(sum((yi / s) ** 2 for yi, s in zip(y, sc)) / len(y))
    d1 = math.sqrt(sum((ki / s) ** 2 for ki, s in zip(k1, sc)) / len(y))
    return 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1


# ---------------------------------------------------------------------------
# drift diagnostics and trajectory output
# ---------------------------------------------------------------------------

def sample_columns(traj: Trajectory, funcs: dict) -> dict:
    """Each function evaluated once at every recorded sample, by name."""
    return {name: [fn(y) for y in traj.ys] for name, fn in funcs.items()}


def drift_summary(columns: dict) -> dict:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|) for each of the
    :func:`sample_columns`, by name."""
    return {name: max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0]))
            for name, vals in columns.items()}


def invariants_reduced(m: MassParams, pot: Potential) -> dict:
    """H, C1, C2 and C3 as functions of a flat reduced vector (either side)."""
    ham = HamiltonianKind.two_body(m, pot).reduced_hamiltonian()[0]
    return {
        "H": lambda v: ham(*_hamiltonian_args(vec_to_reduced(v))),
        "C1": lambda v: v[6] ** 2 + v[7] ** 2 + v[8] ** 2 + v[9] ** 2,
        "C2": lambda v: casimir_C2_direct(vec_to_reduced(v)),
        "C3": lambda v: casimir_C3(hilbert_map(vec_to_reduced(v))),
    }


def invariants_point(m: MassParams, pot: Potential) -> dict:
    """H, all three Casimirs, and the variety defect on flat invariant vectors."""
    ham = HamiltonianKind.two_body(m, pot).reduced_hamiltonian()[0]
    return {
        "H": lambda v: ham(v[0], v[3], v[1], v[6]),
        "C1": lambda v: v[5] + v[6] ** 2,
        "C2": lambda v: casimir_C2_invariant(vec_to_point(v)),
        "C3": lambda v: casimir_C3(vec_to_point(v)),
        "variety": lambda v: vec_to_point(v).variety_defect(),
    }


def invariants_state(m: MassParams, pot: Potential) -> dict:
    """H, C2, C3 and the Casimir C1 = |g1^{-1} g2|^2 on flat unreduced vectors."""
    from .phase_space import hamiltonian_2body, momentum_left, momentum_right

    def c1(v):
        s = vec_to_state(v)
        return (s.g1.inverse() * s.g2).norm2()

    return {
        "H": lambda v: hamiltonian_2body(vec_to_state(v), m, pot),
        "C2": lambda v: momentum_left(vec_to_state(v)).norm2(),
        "C3": lambda v: momentum_right(vec_to_state(v)).norm2(),
        "C1": c1,
    }


def trajectory_csv(traj: Trajectory, labels: Sequence[str], columns: dict) -> str:
    """CSV text with time, state components and the :func:`sample_columns`
    of ``traj``."""
    buf = io.StringIO()
    buf.write(",".join(["t", *labels, *columns]) + "\n")
    for t, y, *extra in zip(traj.ts, traj.ys, *columns.values()):
        buf.write(",".join(map(repr, (t, *y, *extra))) + "\n")
    return buf.getvalue()
