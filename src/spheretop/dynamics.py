"""Equations of motion on every level of the reduction, plus the integrator.

Flat vector layouts used by the integrator:

* translation-reduced (10): ``(A1x, A1y, A1z, A2x, A2y, A2z, gw, gx, gy, gz)``
* invariant variety (8):    ``(k11, k12, k13, k22, k23, k33, r, delta)``
* unreduced (16):           ``g1, B1, g2, B2`` components in (w, x, y, z) order,
  with the body momenta B_i = g_i^{-1} p_i (``phase_space.to_body_coords``)

Each equation has one definition.  The flat closures ``make_body_rhs``,
``make_reduced_rhs`` (both sides) and ``make_invariant_rhs`` define the vector
fields.  The state of each level is its flat vector (``PhaseState``,
``ReducedState`` and :class:`InvariantPoint` are tuples in these layouts), so
a closure takes a typed state as it is; ``rhs_full_reduced`` calls the 8-d
one on an InvariantPoint.  :meth:`HamiltonianKind.reduced_hamiltonian`
defines the value and the gradient of each reduced Hamiltonian;
``poisson.hamiltonian_gradient`` and the ``"H"`` entries of the
``invariants_*`` dicts read it.

The integrator is the Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, 2nd ed., sec. II.10):
twelve stages, an eighth-order solution, and Hairer's error estimate
err = h sum(e5^2) / sqrt((sum(e5^2) + 0.01 sum(e3^2)) n) from the
fifth- and third-order embedded solutions, weighted per component by
abs_tol + rel_tol max(|y|, |y_new|).  A step is accepted when err <= 1,
and the next step is h 0.9 err^(-1/8), clamped to [0.2 h, 10 h]; a
sample time or t_end within 1/0.9 of that step is reached in one step.  Both
tolerances default to 1e-12 (:class:`FlowConfig`).  The tableau is
written once, as the table ``_DOP853``; from it ``_dop853_step`` generates
and compiles, on first use, a straight-line step in which every component
is an expression over locals, with the coefficients as exact literals.
For the three flat fields the step is generated from the field too, read
from the field's own source: Re B1 and Re B2 (rate 0.0) need no sums, B2
and A2 (the negated rate of B1 and A1) take their partner's, and the 10-d
and 8-d fields are inlined into every stage.  Any other callable, a
wrapped field included, takes the generic step, which gives the same bits.
Conservation is monitored, never enforced, so that drift stays a
meaningful diagnostic.
``sample_blocks`` gives the columns of the written state and of the conserved
quantities, each evaluated once per sample; ``trajectory_csv`` and
``drift_summary`` read those columns.  The
``invariants_*`` dicts compute them on the flat vector of their level with
the flat maps of ``phase_space`` and ``reduction``, building no typed state;
every C1 among them squares as ``x * x``.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math
import operator
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .phase_space import (
    CollisionError,
    MassParams,
    Potential,
    check_alpha,
    hamiltonian_2body,
    momentum_left_vec,
    momentum_right_vec,
    two_body_energy,
)
from .quaternion import quat_dot_vec, quat_inverse_vec, quat_mul_vec
from .reduction import (
    InvariantPoint,
    SIDE_LEFT,
    casimir_C1,
    casimir_C2_direct,
    casimir_C2_invariant,
    casimir_C3,
    hilbert_vec,
    variety_defect_vec,
)

# the maps of a flat 16-d and 10-d vector to its state, imported from here too
from .phase_space import vec_to_state  # noqa: F401
from .reduction import vec_to_reduced  # noqa: F401
# no code here multiplies typed quaternions, but the benchmark's tracer
# patches quat_mul in every module it lists as a call site, this one included
from .quaternion import quat_mul  # noqa: F401

KIND_TWO_BODY = "two_body"
KIND_LAGRANGE = "lagrange"
KIND_LAGRANGE_ALTERED = "lagrange_altered"


class SingularityError(RuntimeError):
    """Integration failed near a potential singularity; carries the time and,
    from ``integrate``, the ``Trajectory`` of the steps made up to it."""

    def __init__(self, time: float, message: str = "", trajectory=None):
        self.time = time
        self.trajectory = trajectory
        super().__init__(message or f"integration stopped near t = {time!r}")


# the smallest relative tolerance taken, ten unit roundoffs as in Hairer's
# dop853.f: below it the error estimate cannot fall under the rounding of the
# state, and the step shrinks until it underflows
REL_TOL_MIN = 10.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class FlowConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.rel_tol <= REL_TOL_MIN:
            raise ValueError(f"abs_tol = {self.abs_tol!r} with rel_tol = {self.rel_tol!r}: "
                             f"rel_tol must exceed {REL_TOL_MIN!r}, ten unit roundoffs, "
                             "for a double to resolve the error estimate")


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
        check_alpha(alpha)
        return cls(tag=KIND_LAGRANGE, alpha=alpha, gamma=gamma)

    @classmethod
    def lagrange_altered(cls, alpha: float, gamma: float) -> "HamiltonianKind":
        check_alpha(alpha)
        return cls(tag=KIND_LAGRANGE_ALTERED, alpha=alpha, gamma=gamma)

    def reduced_hamiltonian(self) -> tuple[Callable, Callable]:
        """``(value, gradient)`` of the reduced Hamiltonian of this kind.

        ``value(a, b, ab, r)`` takes a = |A1|^2, b = |A2|^2, ab = <A1, A2> and
        r = Re gD; ``gradient(p)`` is dH/dx at any invariant 8-vector over the
        generators in the order (k11, k12, k13, k22, k23, k33, r, delta).
        """
        if self.tag == KIND_TWO_BODY:
            m, pot = self.masses, self.potential
            return (lambda a, b, ab, r: two_body_energy(a, b, pot.v(r), m),
                    lambda p: (0.5 / m.m1, 0.0, 0.0, 0.5 / m.m2, 0.0, 0.0, -pot.f(p[6]), 0.0))
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
# a typed entry point to the flat 8-d vector field below
# ---------------------------------------------------------------------------

def rhs_full_reduced(pt: InvariantPoint, m: MassParams, pot: Potential) -> tuple[float, ...]:
    """The eight equations of motion on the invariant variety.

    Returned in the vector order (k11, k12, k13, k22, k23, k33, r, delta).
    """
    return make_invariant_rhs(m, pot)(0.0, pt)


# ---------------------------------------------------------------------------
# the flat vector fields for the integrator
# ---------------------------------------------------------------------------

def make_reduced_rhs(m: MassParams, pot: Potential, side: str = SIDE_LEFT) -> Callable:
    """Flat 10-dimensional vector field for either reduced side, with r = Re gD:

    left:   A1' = +f(r) Im(gD),  A2' = -f(r) Im(gD),  gD' = -(A1/m1) gD + gD (A2/m2);
    right (the opposite Poisson sign) mirrors it,
            A1' = -f(r) Im(gD),  A2' = +f(r) Im(gD),  gD' = +(A1/m1) gD - gD (A2/m2).
    """
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


def make_body_rhs(m: MassParams, pot: Potential) -> Callable:
    """Flat 16-dimensional vector field for the unreduced two-body flow, in the
    body coordinates (g1, B1, g2, B2) with B_i = g_i^{-1} p_i (``to_body_coords``).

    With gL = g1^{-1} g2:
    g_i' = g_i B_i / m_i,  B1' = f(Re gL) Im(gL),  B2' = -f(Re gL) Im(gL).
    This is the flow g_i' = p_i / m_i of (g, p) for any nonzero g_i, so no
    state needs projecting, and Re B_i = <g_i, p_i> / |g_i|^2 keeps its value
    exactly: its rate is 0.0.
    """
    im1, im2 = 1.0 / m.m1, 1.0 / m.m2
    force = pot.f

    def rhs(t, u):
        g1w, g1x, g1y, g1z, b1w, b1x, b1y, b1z, g2w, g2x, g2y, g2z, b2w, b2x, b2y, b2z = u
        # g1^{-1}, gL = g1^{-1} g2 and the force
        n1 = g1w * g1w + g1x * g1x + g1y * g1y + g1z * g1z
        aw, ax, ay, az = g1w / n1, -g1x / n1, -g1y / n1, -g1z / n1
        lw = aw * g2w - ax * g2x - ay * g2y - az * g2z
        f = force(lw)
        fx = f * (aw * g2x + ax * g2w + ay * g2z - az * g2y)
        fy = f * (aw * g2y - ax * g2z + ay * g2w + az * g2x)
        fz = f * (aw * g2z + ax * g2y - ay * g2x + az * g2w)
        # g_i (B_i / m_i)
        qw, qx, qy, qz = b1w * im1, b1x * im1, b1y * im1, b1z * im1
        sw, sx, sy, sz = b2w * im2, b2x * im2, b2y * im2, b2z * im2
        return (
            g1w * qw - g1x * qx - g1y * qy - g1z * qz,
            g1w * qx + g1x * qw + g1y * qz - g1z * qy,
            g1w * qy - g1x * qz + g1y * qw + g1z * qx,
            g1w * qz + g1x * qy - g1y * qx + g1z * qw,
            0.0, fx, fy, fz,
            g2w * sw - g2x * sx - g2y * sy - g2z * sz,
            g2w * sx + g2x * sw + g2y * sz - g2z * sy,
            g2w * sy - g2x * sz + g2y * sw + g2z * sx,
            g2w * sz + g2x * sy - g2y * sx + g2z * sw,
            0.0, -fx, -fy, -fz,
        )

    return rhs


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) with error-proportional step control
# ---------------------------------------------------------------------------

# The DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, 2nd ed., sec. II.10, with the indices of the
# text, written once: ``_dop853_step`` generates the step from it.  Stage i
# is evaluated at t + c_i h from sum_j a_ij k_j, and "stages" maps i to
# (c_i, {j: a_ij}) with every a_ij not written zero.  The eighth-order
# solution has the weights b_i, the fifth-order error estimate the weights
# e_i, and the third-order error estimate is sum_i b_i k_i - sum_i bh_i k_i.
_DOP853 = {
    "stages": {
        2: (0.526001519587677318785587544488e-01, {1: 5.26001519587677318785587544488e-2}),
        3: (0.789002279381515978178381316732e-01,
            {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2}),
        4: (0.118350341907227396726757197510,
            {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2}),
        5: (0.281649658092772603273242802490,
            {1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
             4: 9.24834003261792003115737966543e-1}),
        6: (0.333333333333333333333333333333,
            {1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
             5: 1.25467687566822425016691814123e-1}),
        7: (0.25,
            {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
             5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2}),
        8: (0.307692307692307692307692307692,
            {1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
             5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
             7: 8.27378916381402288758473766002e-3}),
        9: (0.651282051282051282051282051282,
            {1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
             5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
             7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1}),
        10: (0.6,
             {1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
              5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
              7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
              9: -2.03312017085086261358222928593e-2}),
        11: (0.857142857142857142857142857142,
             {1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
              5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
              7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
              9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022}),
        12: (1.0,
             {1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
              5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
              7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
              9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
              11: 6.43392746015763530355970484046e-1}),
    },
    "b": {1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
          7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
          9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
          11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2},
    "bh": {1: 0.244094488188976377952755905512, 9: 0.733846688281611857341361741547,
           12: 0.220588235294117647058823529412e-1},
    "e": {1: 0.1312004499419488073250102996e-1, 6: -0.1225156446376204440720569753e+1,
          7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e+1,
          9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
          11: 0.8192320648511571246570742613e-1, 12: -0.2235530786388629525884427845e-1},
}

_MIN_STEP_FACTOR = 1e-13
# the step-size controller's safety factor: the next step is h _SAFETY
# err^(-1/8), and a stop within h_ctrl / _SAFETY is reached in one step
_SAFETY = 0.9
# the most rows one run may ask for, the sample rows of a trajectory or the
# nodes of an energy-Casimir sheet: every row is held in memory (a sheet node
# about 0.6 KB)
MAX_SAMPLE_ROWS = 10 ** 6
# the most sample rows ``sample_blocks`` maps and evaluates together, which
# bounds the arrays a long run of ``simulate`` holds besides its rows
SAMPLE_BLOCK_ROWS = 1024


@dataclass
class Trajectory:
    ts: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0
    n_clipped: int = 0
    step_min: float = math.inf
    step_max: float = 0.0
    failed_step_evals: int = 0

    @property
    def final(self):
        return self.ys[-1]

    @property
    def rhs_evals(self) -> int:
        """Vector-field evaluations the run made: the initial slope, eleven
        per attempted step, the slope at the new state per accepted step, and
        those of the step that failed, when one did; none for a start that is
        not finite."""
        attempted = self.n_accepted + self.n_rejected
        return 1 + 11 * attempted + self.n_accepted + self.failed_step_evals


def integrate(
    rhs: Callable,
    y0: Sequence[float],
    t_end: float,
    cfg: FlowConfig = FlowConfig(),
    *,
    sample_dt: float | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from 0 to t_end and record samples.

    With ``sample_dt`` set, steps land on the stops i * sample_dt and t_end,
    so that the trajectory holds exactly those times; otherwise every
    accepted step is recorded and t_end is the one stop.  A stop within
    h_ctrl / ``_SAFETY`` of t, h_ctrl the controller's step, is reached in
    one step, stretched up to 1/0.9 of h_ctrl (as in Hairer's ``dop853.f``)
    or clipped below it, so that no sliver step follows one that ends just
    short of the stop; under the controller's err ~ h^8 model a stretched
    step's predicted error is at most 1.  A stretched step that fails
    shrinks h_ctrl as any rejected step does, and from then on a step is
    stretched only to less than the ratio h / h_ctrl of the shortest one
    that failed, so that a sample interval just over h_ctrl does not fail
    again each time the controller restores its step; a stretched step that
    passes sets h_ctrl from itself; a clipped step leaves h_ctrl as it was
    and counts in ``n_clipped``.  The counts go back to the trajectory on
    every way out, an exception included.

    Raises :class:`SingularityError`, carrying the trajectory of the steps
    made so far, when the step size underflows, the potential reports a
    collision, or the state, the initial slope or an error estimate is NaN or
    infinite; raises ``ValueError`` unless ``t_end`` is finite and at least
    the smallest step ``_MIN_STEP_FACTOR`` and ``sample_dt`` (when given)
    finite, at least 1e-12 max(1, t_end) and at least t_end /
    ``MAX_SAMPLE_ROWS``, when the vector field has another length than
    the state, and when the tolerances are so small against the initial
    state that its error norm overflows.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end = {t_end!r} must be positive and finite")
    if t_end < _MIN_STEP_FACTOR:  # the first step would underflow
        raise ValueError(f"t_end = {t_end!r} is shorter than the smallest step, "
                         f"{_MIN_STEP_FACTOR!r}")
    eps = 1e-12 * max(1.0, t_end)  # a step ending within eps of a stop ends on it
    if sample_dt is not None and not eps <= sample_dt < math.inf:
        raise ValueError(f"sample_dt = {sample_dt!r} must be positive and finite, and at "
                         f"least the landing tolerance 1e-12 max(1, t_end) = {eps!r}")
    if sample_dt is not None and t_end / sample_dt > MAX_SAMPLE_ROWS:
        raise ValueError(f"sample_dt = {sample_dt!r} asks for {t_end / sample_dt:.6g} sample "
                         f"rows, more than the cap of {MAX_SAMPLE_ROWS}")
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    y = tuple(float(c) for c in y0)
    n = len(y)
    t = 0.0
    traj = Trajectory(ts=[t], ys=[y])
    if not all(math.isfinite(c) for c in y):
        traj.failed_step_evals = -1  # not even the initial slope was evaluated
        raise SingularityError(t, f"non-finite initial state at t = {t!r}", traj)

    try:
        k1 = rhs(t, y)
    except CollisionError as exc:
        raise SingularityError(t, f"collision at t = {t!r}: {exc}", traj) from exc
    if len(k1) != n:
        raise ValueError(f"the vector field has {len(k1)} components for a state of {n}")
    if not all(math.isfinite(c) for c in k1):
        raise SingularityError(t, f"non-finite vector field at t = {t!r}", traj)
    h_ctrl = _initial_step(y, k1, atol, rtol)
    step = _dop853_step(n, _field_code(rhs))
    # the loop keeps its state, its counts and what it calls in locals; the
    # counts go back to traj on every way out
    record_t, record_y = traj.ts.append, traj.ys.append
    safety, min_step, sqrt = _SAFETY, _MIN_STEP_FACTOR, math.sqrt
    every = sample_dt is None
    end = t_end - eps  # a sample time at or past it is t_end
    i = 1  # the next sample time is i * sample_dt
    # the next time to land on exactly: sample time i, or t_end, which also
    # stands for a sample time within eps of it
    stop = t_end if every or i * sample_dt >= end else i * sample_dt
    near = stop - eps
    # a step is stretched to less than reach h_ctrl only: the shortest ratio
    # h / h_ctrl of a stretched step that failed
    reach = math.inf
    accepted = rejected = clipped = failed = 0
    step_min, step_max = math.inf, 0.0
    try:
        while t < t_end:
            h, t_new = h_ctrl, t + h_ctrl
            # clipped to land on the stop, or stretched up to 1/0.9 of h_ctrl
            if t + h_ctrl / safety >= near and (t_new >= near or stop - t < reach * h_ctrl):
                h, t_new = stop - t, stop
            if h < min_step * (t if t > 1.0 else 1.0):  # t is never negative
                raise SingularityError(t, f"step size underflow at t = {t!r}", traj)
            try:
                ynew, e5sq, e3sq = step(rhs, t, h, y, k1, atol, rtol)
            except CollisionError as exc:
                failed = _stage_calls(exc, step)
                raise SingularityError(t, f"collision near t = {t!r}: {exc}", traj) from exc
            # Hairer's estimate: the fifth-order error, damped where the
            # third-order one says the step is far outside its asymptotic range
            err = 0.0 if e5sq == e3sq == 0.0 else h * e5sq / sqrt((e5sq + 0.01 * e3sq) * n)
            if err != err:
                failed = 11
                raise SingularityError(t, f"NaN error estimate at t = {t!r}", traj)

            if err <= 1.0:
                t = t_new
                y = ynew
                try:
                    k1 = rhs(t, y)
                except CollisionError as exc:
                    failed = 12
                    raise SingularityError(t, f"collision at t = {t!r}: {exc}", traj) from exc
                accepted += 1
                if h < step_min:
                    step_min = h
                if h > step_max:
                    step_max = h
                if t == stop:
                    i += 1
                    stop = t_end if every or i * sample_dt >= end else i * sample_dt
                    near = stop - eps
                    record_t(t)
                    record_y(y)
                elif every:
                    record_t(t)
                    record_y(y)
                if h < h_ctrl:  # keep the controller's step when this one was clipped
                    clipped += 1
                elif err == 0.0:
                    h_ctrl = h * 10.0
                else:
                    grow = safety * err ** -0.125
                    h_ctrl = h * (grow if grow < 10.0 else 10.0)
            else:
                rejected += 1
                if h > h_ctrl:
                    # a stretched step failed: stretch from now on only below its
                    # ratio to h_ctrl, and shrink the controller's step, not this
                    # one, which would be stretched again and fail for ever
                    if h / h_ctrl < reach:
                        reach = h / h_ctrl
                    h = h_ctrl
                shrink = safety * err ** -0.125
                h_ctrl = h * (shrink if shrink > 0.2 else 0.2)
    finally:
        traj.n_accepted, traj.n_rejected, traj.n_clipped = accepted, rejected, clipped
        traj.step_min, traj.step_max, traj.failed_step_evals = step_min, step_max, failed
    return traj


@functools.cache
def _dop853_step(n: int, field) -> Callable:
    """The DOP853 step for states of n components, generated from ``_DOP853``.

    ``step(rhs, t, h, y, k1, atol, rtol)`` evaluates stages 2 to 12 and
    returns the eighth-order solution and the sums of squares of the fifth-
    and third-order error estimates, each component weighted by
    atol + rtol max(|y|, |y_new|).  Its source (``_step_source``) is
    straight-line code, compiled once per n and ``field``, on the first
    ``integrate`` that needs it.  ``field`` is None, or the code object of
    the flat field the step is for (``_field_code``): such a step must be
    called with a closure of that code, and gives the bits of the generic
    step called with it, up to the sign of a NaN.  Stage s runs on line
    s + 2 of the source.
    """
    scope = {"_negated_sum": _negated_sum}
    exec(compile("\n".join(_step_source(n, field)), f"<DOP853 step, n = {n}>", "exec"), scope)
    return scope["step"]


def _field_code(rhs: Callable):
    """The code object of ``rhs`` when it is a closure of ``make_body_rhs``,
    ``make_reduced_rhs`` or ``make_invariant_rhs``, else None."""
    code = getattr(rhs, "__code__", None)
    makers = (make_body_rhs, make_reduced_rhs, make_invariant_rhs)
    return code if any(code is c for mk in makers for c in mk.__code__.co_consts) else None


def _step_source(n: int, field) -> list[str]:
    """The lines of the step ``_dop853_step(n, field)`` compiles.

    Every stage input, solution and error component is one expression over
    locals that adds the tableau's terms left to right, with each
    coefficient as its exact repr.  With no field the stage calls ``rhs``.
    With one, the step uses its structure (``_field_structure``):

    * a component whose rate is the literal 0.0 gets y + h z, z the signed
      zero its sum of zero terms gives, and no error terms (each is +0.0);
    * a component whose rate mirrors another's, -x of x, gets its partner's
      sums negated: a sum of negated terms is the negated sum, bit for bit,
      unless it is zero, when the sum is redone over the negated terms.
      Its error terms are its partner's numerators over its own scale, as
      squaring drops the sign;
    * the field's body replaces the call in each stage, its locals renamed
      ``L_<name>`` (each stage assigns them all before it reads one) and its
      free variables ``F_<name>``, read from ``rhs``.  The 16-d field keeps
      its call: inlined, its step would have 16 495 AST nodes, more than the
      11 597 of the generic 16-d step, whose compile sets the peak memory of
      a run (tier-1 holds every step to that count).
    """
    constants, mirrors, fn = _field_structure(field) if field is not None else (set(), {}, None)
    partners = set(mirrors.values())

    def vec(name):  # the n locals of one vector, as a tuple display
        return "".join(f"{name}_{i}, " for i in range(n))

    def dot(w, i, sep=" + "):  # component i of sum_j w_j k_j
        return sep.join(f"{wj!r} * k{j}_{i}" for j, wj in w.items())

    def update(i, key, z):  # y_i + h sum_j w_j k_j over _weights(key), z_p each partner's sum
        w = _weights(key)
        if i in constants:  # the sum of zero terms, left to right
            zero = functools.reduce(operator.add, [wj * 0.0 for wj in w.values()])
            return f"y_{i} + h * {zero!r}"
        if i in mirrors:
            p = mirrors[i]
            ks = ", ".join(f"k{j}_{p}" for j in w)
            return f"y_{i} - h * {z}_{p} if {z}_{p} else y_{i} + h * _negated_sum({key!r}, {ks})"
        return f"y_{i} + h * {z}_{i}" if i in partners else f"y_{i} + h * ({dot(w, i)})"

    def stage(s, c, a, inline):  # z_p is partner p's stage sum
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        sums = [f"z_{p} = {dot(a, p)}" for p in sorted(partners)]
        if not inline:
            args = ", ".join(update(i, s, "z") for i in range(n))
            return "; ".join([*sums, f"{vec(f'k{s}')}= rhs({at}, [{args}])"])
        names, body, rates = fn
        return "; ".join([*sums, *(f"{x} = {update(i, s, 'z')}" for i, x in enumerate(names)),
                          *body, *(f"k{s}_{i} = {r}" for i, r in enumerate(rates)
                                   if i not in constants and i not in mirrors)])

    def source(inline):
        head = f"    {vec('y')}= y"
        if inline:
            head += "".join(f"; F_{v} = rhs.__closure__[{i}].cell_contents"
                            for i, v in enumerate(field.co_freevars))
        src = ["def step(rhs, t, h, y, k1, atol, rtol):", head, f"    {vec('k1')}= k1"]
        src += [f"    {stage(s, c, a, inline)}" for s, (c, a) in _DOP853["stages"].items()]
        # d = sum_j b_j k_j, n = y_new, s the error scale, e and f the weighted
        # fifth- and third-order errors, x and w their numerators on a partner
        for i in range(n):
            p = mirrors.get(i, i)
            if i in constants or i in mirrors:
                src.append(f"    n_{i} = {update(i, 'b', 'd')}")
                if i in constants:
                    continue
            else:
                src += [f"    d_{i} = {dot(_DOP853['b'], i)}", f"    n_{i} = y_{i} + h * d_{i}"]
            src += [f"    u_{i}, v_{i} = abs(y_{i}), abs(n_{i})",
                    f"    s_{i} = atol + rtol * (u_{i} if u_{i} > v_{i} else v_{i})"]
            if i in mirrors:
                src += [f"    e_{i} = x_{p} / s_{i}", f"    f_{i} = w_{p} / s_{i}"]
            elif i in partners:
                src += [f"    x_{i} = {dot(_DOP853['e'], i)}", f"    e_{i} = x_{i} / s_{i}",
                        f"    w_{i} = d_{i} - {dot(_DOP853['bh'], i, ' - ')}",
                        f"    f_{i} = w_{i} / s_{i}"]
            else:
                src += [f"    e_{i} = ({dot(_DOP853['e'], i)}) / s_{i}",
                        f"    f_{i} = (d_{i} - {dot(_DOP853['bh'], i, ' - ')}) / s_{i}"]
        # each sum of squares starts at its first term: 0.0 + x is x for a square
        live = [i for i in range(n) if i not in constants]
        src.append(f"    return ({vec('n')}), {' + '.join(f'e_{i} * e_{i}' for i in live)}, "
                   f"{' + '.join(f'f_{i} * f_{i}' for i in live)}")
        return src

    body_field = any(field is c for c in make_body_rhs.__code__.co_consts)
    return source(fn is not None and not body_field)


def _weights(key) -> dict:
    """The weights {j: w_j} of stage ``key`` of ``_DOP853``, or of its row ``key``."""
    return _DOP853[key] if isinstance(key, str) else _DOP853["stages"][key][1]


def _negated_sum(key, *k) -> float:
    """sum_j w_j (-k_j) over ``_weights(key)``, left to right: the sum of a
    mirrored component, where its partner's is a zero of either sign."""
    return functools.reduce(operator.add, [wj * -kj for wj, kj in zip(_weights(key).values(), k)])


# the nodes an expression of a mirrored rate may hold: no call, so that two
# evaluations of one expression in one scope agree
_ARITHMETIC = (ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop,
               ast.expr_context)
# the nodes a field's body may hold for the step to inline it
_INLINABLE = (*_ARITHMETIC, ast.Assign, ast.Tuple, ast.Call)


def _field_structure(code) -> tuple[set, dict, tuple | None]:
    """``(constants, mirrors, inline)`` of a flat field, read from its source.

    ``constants`` holds the components whose rate is the literal 0.0, and
    ``mirrors`` maps j to its partner i < j when rate j is, bit for bit, the
    negation of rate i (``_negates``).  ``inline`` is the source of (state
    names, body statements, rates), with each local renamed ``L_<name>`` and
    each free variable ``F_<name>``, when the body is assignments over the
    state it unpacks and the closure's variables, else None.  A source that
    cannot be read, or that is not the code that runs, gives no structure.
    """
    try:
        with open(code.co_filename, encoding="utf-8") as fh:  # its lines indented past the def
            head, *rest = fh.readlines()[code.co_firstlineno - 1:]
        depth = len(head) - len(head.lstrip())
        block = itertools.takewhile(lambda x: not x.strip() or len(x) - len(x.lstrip()) > depth,
                                    rest)
        fn = ast.parse(textwrap.dedent("".join([head, *block]))).body[0]
        ran = compile(ast.Module([fn], []), code.co_filename, "exec").co_consts[0]
    except (OSError, SyntaxError, ValueError, IndexError):  # no source to read there
        return set(), {}, None
    # the source read must be the code that runs, not a file edited since
    if getattr(ran, "co_varnames", None) != code.co_varnames or ran.co_consts != code.co_consts:
        return set(), {}, None
    first, *body, ret = fn.body
    if not (isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)):
        return set(), {}, None
    rates = ret.value.elts
    constants = {i for i, r in enumerate(rates)
                 if isinstance(r, ast.Constant) and type(r.value) is float and r.value == 0.0}
    mirrors = {}
    for j, r in enumerate(rates):
        for i in range(j):
            if i not in constants and i not in mirrors and _negates(r, rates[i]):
                mirrors[j] = i
                break
    state = fn.args.args[1].arg
    if not (isinstance(first, ast.Assign) and isinstance(first.targets[0], ast.Tuple)
            and all(isinstance(x, ast.Name) for x in first.targets[0].elts)
            and isinstance(first.value, ast.Name) and first.value.id == state):
        return constants, mirrors, None
    names = [x.id for x in first.targets[0].elts]
    known = {*names, *code.co_freevars}
    for stmt in [*body, ret.value]:
        value = stmt if isinstance(stmt, ast.expr) else stmt.value
        if not (all(isinstance(x, _INLINABLE) for x in ast.walk(stmt))
                and all(x.id in known for x in ast.walk(value) if isinstance(x, ast.Name))):
            return constants, mirrors, None
        if isinstance(stmt, ast.Assign):
            known |= {x.id for x in ast.walk(stmt.targets[0]) if isinstance(x, ast.Name)}
    for x in ast.walk(fn):
        if isinstance(x, ast.Name):
            x.id = f"F_{x.id}" if x.id in code.co_freevars else f"L_{x.id}"
    return constants, mirrors, ([f"L_{x}" for x in names], [*map(ast.unparse, body)],
                                [*map(ast.unparse, rates)])


def _negates(a: ast.expr, b: ast.expr) -> bool:
    """Whether expression a gives -b bit for bit, NaNs aside, wherever the
    two are evaluated in one scope: one is -x of the other, x, or each is
    a product or quotient of the same factors but one, where one factor
    negates the other.  Rounding to nearest is symmetric in sign, so each
    of these is an exact negation; ``-a - b`` of ``a - b`` is not one."""
    if not all(isinstance(x, _ARITHMETIC) for e in (a, b) for x in ast.walk(e)):
        return False
    same = lambda x, y: ast.dump(x) == ast.dump(y)  # noqa: E731
    if any(isinstance(x, ast.UnaryOp) and isinstance(x.op, ast.USub) and same(x.operand, y)
           for x, y in ((a, b), (b, a))):
        return True
    return (isinstance(a, ast.BinOp) and isinstance(b, ast.BinOp)
            and isinstance(a.op, (ast.Mult, ast.Div)) and type(a.op) is type(b.op)
            and (_negates(a.left, b.left) and same(a.right, b.right)
                 or same(a.left, b.left) and _negates(a.right, b.right)))


def _stage_calls(exc: CollisionError, step: Callable) -> int:
    """The field evaluations a generated step made up to and including the
    one that raised ``exc``, read from the line of the step the traceback
    passes."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not step.__code__:
        tb = tb.tb_next
    return tb.tb_lineno - 3  # stage s, on line s + 2, makes the (s - 1)-th evaluation


def _initial_step(y, k1, atol, rtol) -> float:
    """Hairer's first step, 0.01 |y| / |y'| in the weighted norm, or 1e-6
    when either is small; ``ValueError`` when the tolerances are so small
    against the state that either norm leaves the float range."""
    sc = [atol + rtol * abs(yi) for yi in y]
    try:
        d0 = math.sqrt(sum((yi / s) ** 2 for yi, s in zip(y, sc)) / len(y))
        d1 = math.sqrt(sum((ki / s) ** 2 for ki, s in zip(k1, sc)) / len(y))
    except OverflowError:  # a square past the float range
        d0 = d1 = math.inf
    if math.inf in (d0, d1):
        raise ValueError(f"abs_tol = {atol!r} with rel_tol = {rtol!r} is too small for this "
                         "state: the error norm of the state or its slope overflows")
    return 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1


# ---------------------------------------------------------------------------
# drift diagnostics and trajectory output
# ---------------------------------------------------------------------------

def sample_blocks(traj: Trajectory, funcs: dict, leave: Callable | None = None) -> tuple:
    """``(states, columns)`` of the recorded samples: the state's columns,
    and each function's column by name, evaluated once per block of at most
    ``SAMPLE_BLOCK_ROWS`` rows.

    A block is the tuple of the state's components, each an array over the
    block's rows, so ``leave`` (a map of each state, such as
    ``from_body_coords``) and the functions must be plain arithmetic over
    flat vectors, as the flat maps and the ``invariants_*`` entries are: each
    row then takes the IEEE operations of a float, and the columns hold the
    bits that row by row gives, as floats.  With ``leave`` the functions read
    the images and ``states`` holds their components; without it ``states``
    is the recorded rows transposed.  ``traj`` keeps the integrator's record.
    Float overflow is silent, as it is for floats.
    """
    states = list(zip(*traj.ys)) if leave is None else None
    columns = {name: [] for name in funcs}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(traj.ys), SAMPLE_BLOCK_ROWS):
            block = tuple(np.array(traj.ys[i:i + SAMPLE_BLOCK_ROWS]).T)
            if leave is not None:
                block = leave(block)
                if states is None:
                    states = [[] for _ in block]
                for column, images in zip(states, block):
                    column += images.tolist()
            for name, fn in funcs.items():
                columns[name] += fn(block).tolist()
    return states, columns


def drift_summary(columns: dict) -> dict:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|) for each column of
    :func:`sample_blocks`, by name.

    Every column's maximum is taken at once; a NaN |Q(t) - Q(0)| is passed
    over as ``max`` passes it, and the drift is NaN when Q(0) is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.array(list(columns.values()), dtype=float)
        top = np.fmax.reduce(np.abs(q - q[:, :1]), axis=1)
    return {name: (t if math.isfinite(q0) else math.nan) / max(1.0, abs(q0))
            for name, t, q0 in zip(columns, top.tolist(), q[:, 0].tolist())}


# The sampled invariants of each level are functions of the flat vector, by
# name.  Every C1 squares as ``x * x``, as ``reduce`` does: ``x ** 2`` (libm's
# pow) differs from it in the last bit for some x.

def _norm2(x: float, y: float, z: float) -> float:
    return x * x + y * y + z * z


def invariants_point(m: MassParams, pot: Potential) -> dict:
    """H, all three Casimirs, and the variety defect on flat invariant vectors."""
    ham = HamiltonianKind.two_body(m, pot).reduced_hamiltonian()[0]
    return {
        "H": lambda v: ham(v[0], v[3], v[1], v[6]),
        "C1": casimir_C1,
        "C2": casimir_C2_invariant,
        "C3": casimir_C3,
        "variety": variety_defect_vec,
    }


def invariants_reduced(m: MassParams, pot: Potential) -> dict:
    """H, C1, C2 and C3 as functions of a flat reduced vector (either side).

    H and C3 read |A1|^2, |A2|^2 and <A1, A2> off the Hilbert map.
    """
    point_h = invariants_point(m, pot)["H"]
    return {
        "H": lambda v: point_h(hilbert_vec(v)),
        "C1": lambda v: quat_dot_vec(v[6:10], v[6:10]),
        "C2": casimir_C2_direct,
        "C3": lambda v: casimir_C3(hilbert_vec(v)),
    }


def invariants_state(m: MassParams, pot: Potential) -> dict:
    """H, C2, C3 and the Casimir C1 = |g1^{-1} g2|^2 on flat unreduced vectors."""
    def c1(v):
        gL = quat_mul_vec(quat_inverse_vec(v[0:4]), v[8:12])
        return quat_dot_vec(gL, gL)

    return {
        "H": lambda v: hamiltonian_2body(v, m, pot),
        "C2": lambda v: _norm2(*momentum_left_vec(v)),
        "C3": lambda v: _norm2(*momentum_right_vec(v)),
        "C1": c1,
    }


def trajectory_csv(ts: Sequence[float], labels: Sequence[str], states: Sequence,
                   columns: dict) -> str:
    """CSV text of the times ``ts``, the state's columns and the named
    ``columns`` of :func:`sample_blocks`: a header, then one line per sample
    in which each cell is its float's ``repr``, formatted one column at a
    time."""
    cells = (map(repr, column) for column in (ts, *states, *columns.values()))
    return "\n".join([",".join(["t", *labels, *columns]), *map(",".join, zip(*cells))]) + "\n"
