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

The integrator is the Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., sec. II.10):
twelve stages, an eighth-order solution, and Hairer's error estimate
err = h sum(e5^2) / sqrt((sum(e5^2) + 0.01 sum(e3^2)) n) from the
fifth- and third-order embedded solutions, weighted per component by
abs_tol + rel_tol max(|y|, |y_new|).  A step is accepted when err <= 1,
and the next step is h 0.9 err^(-1/8), clamped to [0.2 h, 10 h].  Both
tolerances default to 1e-12 (:class:`FlowConfig`).  Conservation is
monitored, never enforced: ``integrate`` runs a projection hook (renormalise
group components, re-orthogonalise momenta) after accepted steps only when
it is given one, so that by default drift stays a meaningful diagnostic.
``sample_columns`` evaluates the conserved quantities once per sample;
``trajectory_csv`` and ``drift_summary`` read those columns.
"""

from __future__ import annotations

import functools
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
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

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
# Dormand-Prince 8(5,3) with error-proportional step control
# ---------------------------------------------------------------------------

# The DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., sec. II.10, with the indices of the
# text: stage i is evaluated at t + c_i h from sum_j a_ij k_j (every a_ij not
# written here is zero, and c_12 = 1); the eighth-order solution has the
# weights b_i, the fifth-order error estimate the weights e_i, and the
# third-order error estimate is sum_i b_i k_i - sum_i bh_i k_i.
_C2 = 0.526001519587677318785587544488e-01
_C3 = 0.789002279381515978178381316732e-01
_C4 = 0.118350341907227396726757197510
_C5 = 0.281649658092772603273242802490
_C6 = 0.333333333333333333333333333333
_C7 = 0.25
_C8 = 0.307692307692307692307692307692
_C9 = 0.651282051282051282051282051282
_C10 = 0.6
_C11 = 0.857142857142857142857142857142

_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1

_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2

_BH1 = 0.244094488188976377952755905512
_BH9 = 0.733846688281611857341361741547
_BH12 = 0.220588235294117647058823529412e-1

_E1 = 0.1312004499419488073250102996e-1
_E6 = -0.1225156446376204440720569753e+1
_E7 = -0.4957589496572501915214079952
_E8 = 0.1664377182454986536961530415e+1
_E9 = -0.3503288487499736816886487290
_E10 = 0.3341791187130174790297318841
_E11 = 0.8192320648511571246570742613e-1
_E12 = -0.2235530786388629525884427845e-1

_MIN_STEP_FACTOR = 1e-13


@dataclass
class Trajectory:
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0
    step_min: float = math.inf
    step_max: float = 0.0

    @property
    def final(self):
        return self.ys[-1]

    @property
    def rhs_evals(self) -> int:
        """Vector-field evaluations the run made: the initial slope, eleven
        per attempted step, and the slope at the new state (after the
        projection, when there is one) per accepted step."""
        return 1 + 11 * (self.n_accepted + self.n_rejected) + self.n_accepted


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
    n = len(y)
    t = 0.0
    if not all(math.isfinite(c) for c in y):
        raise SingularityError(t, f"non-finite initial state at t = {t!r}")
    traj = Trajectory(ts=[t], ys=[y])
    next_sample = sample_dt

    try:
        k1 = rhs(t, y)
    except CollisionError as exc:
        raise SingularityError(t, f"collision at t = {t!r}: {exc}") from exc
    if not all(math.isfinite(c) for c in k1):
        raise SingularityError(t, f"non-finite vector field at t = {t!r}")
    h_ctrl = _initial_step(y, k1, atol, rtol)
    eps_end = 1e-12 * max(1.0, abs(t_end))

    while t < t_end - eps_end:
        h = min(h_ctrl, t_end - t)
        if next_sample is not None and t + h > next_sample:
            h = next_sample - t
        if h < _MIN_STEP_FACTOR * max(1.0, abs(t)):
            raise SingularityError(t, f"step size underflow at t = {t!r}")
        try:
            # stage vectors are throwaway lists; xj is a component of the stage k_j
            k2 = rhs(t + _C2 * h, [yi + h * (_A2_1 * x1) for yi, x1 in zip(y, k1)])
            k3 = rhs(t + _C3 * h, [yi + h * (_A3_1 * x1 + _A3_2 * x2)
                                   for yi, x1, x2 in zip(y, k1, k2)])
            k4 = rhs(t + _C4 * h, [yi + h * (_A4_1 * x1 + _A4_3 * x3)
                                   for yi, x1, x3 in zip(y, k1, k3)])
            k5 = rhs(t + _C5 * h, [yi + h * (_A5_1 * x1 + _A5_3 * x3 + _A5_4 * x4)
                                   for yi, x1, x3, x4 in zip(y, k1, k3, k4)])
            k6 = rhs(t + _C6 * h, [yi + h * (_A6_1 * x1 + _A6_4 * x4 + _A6_5 * x5)
                                   for yi, x1, x4, x5 in zip(y, k1, k4, k5)])
            k7 = rhs(t + _C7 * h, [yi + h * (_A7_1 * x1 + _A7_4 * x4 + _A7_5 * x5
                                             + _A7_6 * x6)
                                   for yi, x1, x4, x5, x6 in zip(y, k1, k4, k5, k6)])
            k8 = rhs(t + _C8 * h, [yi + h * (_A8_1 * x1 + _A8_4 * x4 + _A8_5 * x5
                                             + _A8_6 * x6 + _A8_7 * x7)
                                   for yi, x1, x4, x5, x6, x7 in zip(y, k1, k4, k5, k6, k7)])
            k9 = rhs(t + _C9 * h, [yi + h * (_A9_1 * x1 + _A9_4 * x4 + _A9_5 * x5
                                             + _A9_6 * x6 + _A9_7 * x7 + _A9_8 * x8)
                                   for yi, x1, x4, x5, x6, x7, x8
                                   in zip(y, k1, k4, k5, k6, k7, k8)])
            k10 = rhs(t + _C10 * h, [yi + h * (_A10_1 * x1 + _A10_4 * x4 + _A10_5 * x5
                                               + _A10_6 * x6 + _A10_7 * x7 + _A10_8 * x8
                                               + _A10_9 * x9)
                                     for yi, x1, x4, x5, x6, x7, x8, x9
                                     in zip(y, k1, k4, k5, k6, k7, k8, k9)])
            k11 = rhs(t + _C11 * h, [yi + h * (_A11_1 * x1 + _A11_4 * x4 + _A11_5 * x5
                                               + _A11_6 * x6 + _A11_7 * x7 + _A11_8 * x8
                                               + _A11_9 * x9 + _A11_10 * x10)
                                     for yi, x1, x4, x5, x6, x7, x8, x9, x10
                                     in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
            k12 = rhs(t + h, [yi + h * (_A12_1 * x1 + _A12_4 * x4 + _A12_5 * x5
                                        + _A12_6 * x6 + _A12_7 * x7 + _A12_8 * x8
                                        + _A12_9 * x9 + _A12_10 * x10 + _A12_11 * x11)
                              for yi, x1, x4, x5, x6, x7, x8, x9, x10, x11
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
        except CollisionError as exc:
            raise SingularityError(t, f"collision near t = {t!r}: {exc}") from exc

        # the eighth-order solution and the weighted sums of squares of the
        # fifth- (e5) and third-order (e3) error estimates
        ynew = []
        e5sq = e3sq = 0.0
        for yi, x1, x6, x7, x8, x9, x10, x11, x12 in zip(y, k1, k6, k7, k8, k9, k10, k11, k12):
            d = (_B1 * x1 + _B6 * x6 + _B7 * x7 + _B8 * x8 + _B9 * x9 + _B10 * x10
                 + _B11 * x11 + _B12 * x12)
            yn = yi + h * d
            ynew.append(yn)
            ay, an = abs(yi), abs(yn)
            sc = atol + rtol * (ay if ay > an else an)
            e5 = (_E1 * x1 + _E6 * x6 + _E7 * x7 + _E8 * x8 + _E9 * x9 + _E10 * x10
                  + _E11 * x11 + _E12 * x12) / sc
            e3 = (d - _BH1 * x1 - _BH9 * x9 - _BH12 * x12) / sc
            e5sq += e5 * e5
            e3sq += e3 * e3
        # Hairer's estimate: the fifth-order error, damped where the
        # third-order one says the step is far outside its asymptotic range
        err = 0.0 if e5sq == e3sq == 0.0 else h * e5sq / math.sqrt((e5sq + 0.01 * e3sq) * n)
        if err != err:
            raise SingularityError(t, f"NaN error estimate at t = {t!r}")

        if err <= 1.0:
            t += h
            y = tuple(ynew)
            if project is not None:
                y = project(y)
            try:
                k1 = rhs(t, y)
            except CollisionError as exc:
                raise SingularityError(t, f"collision at t = {t!r}: {exc}") from exc
            traj.n_accepted += 1
            traj.step_min = min(traj.step_min, h)
            traj.step_max = max(traj.step_max, h)
            record = sample_dt is None
            if next_sample is not None and t >= next_sample - 1e-14 * max(1.0, abs(t)):
                record = True
                next_sample += sample_dt
            if record or t >= t_end - eps_end:
                traj.ts.append(t)
                traj.ys.append(y)
            if h >= h_ctrl:  # keep the controller's step when this one was clipped
                h_ctrl = h * (10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125))
        else:
            traj.n_rejected += 1
            h_ctrl = h * max(0.2, 0.9 * err ** -0.125)
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
    """Each function evaluated once at every recorded sample, by name.

    The functions run row by row, so those of one row can share work on it.
    """
    rows = [[fn(y) for fn in funcs.values()] for y in traj.ys]
    return dict(zip(funcs, map(list, zip(*rows))))


def drift_summary(columns: dict) -> dict:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|) for each of the
    :func:`sample_columns`, by name."""
    return {name: max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0]))
            for name, vals in columns.items()}


def invariants_reduced(m: MassParams, pot: Potential) -> dict:
    """H, C1, C2 and C3 as functions of a flat reduced vector (either side).

    Like those of :func:`invariants_state`, they share one typed state per row.
    """
    ham = HamiltonianKind.two_body(m, pot).reduced_hamiltonian()[0]
    state = functools.lru_cache(maxsize=1)(vec_to_reduced)
    return {
        "H": lambda v: ham(*_hamiltonian_args(state(v))),
        "C1": lambda v: v[6] ** 2 + v[7] ** 2 + v[8] ** 2 + v[9] ** 2,
        "C2": lambda v: casimir_C2_direct(state(v)),
        "C3": lambda v: casimir_C3(hilbert_map(state(v))),
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
    """H, C2, C3 and the Casimir C1 = |g1^{-1} g2|^2 on flat unreduced vectors.

    The four share the typed state of the latest vector, so a row that
    :func:`sample_columns` evaluates builds it once.
    """
    from .phase_space import hamiltonian_2body, momentum_left, momentum_right

    state = functools.lru_cache(maxsize=1)(vec_to_state)
    return {
        "H": lambda v: hamiltonian_2body(state(v), m, pot),
        "C2": lambda v: momentum_left(state(v)).norm2(),
        "C3": lambda v: momentum_right(state(v)).norm2(),
        "C1": lambda v: (state(v).g1.inverse() * state(v).g2).norm2(),
    }


def trajectory_csv(traj: Trajectory, labels: Sequence[str], columns: dict) -> str:
    """CSV text with time, state components and the :func:`sample_columns`
    of ``traj``."""
    buf = io.StringIO()
    buf.write(",".join(["t", *labels, *columns]) + "\n")
    for t, y, *extra in zip(traj.ts, traj.ys, *columns.values()):
        buf.write(",".join(map(repr, (t, *y, *extra))) + "\n")
    return buf.getvalue()
