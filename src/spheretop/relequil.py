"""Classification and reconstruction of relative equilibria.

A relative equilibrium (RE) is a motion that is the orbit of a one-parameter
subgroup; equivalently a fixed point of the fully reduced flow.  In the
conjugacy gauge used throughout, the generator pair is ``(xi j, eta j)`` with
nonnegative rates and the relative position has imaginary part along ``i``,
so the frame momenta take the planar form

    A1 = x1 j + y k,     A2 = x2 j - y k.

Families are indexed by the separation angle theta:

* ``singular0`` / ``singularPi``: coincident or antipodal particles moving on
  a common great circle; both rates free.
* ``acute`` / ``obtuse``: 0 < theta < pi, theta != pi/2; (x1, x2) are then
  determined uniquely by theta and eta.
* ``rightAngled``: theta = pi/2, equal masses only, with a line of solutions
  x1 + x2 = -2 m eta parameterised by the position angle phi1.

``solve_re`` alone decides an RE's branch, phi1 and zeta; ``zeta_of`` and
``tau_row`` read them from it, the latter for a block of sheet rows in one
broadcast pass over their nodes.  An RE's 16-d ``state`` and mapped ``image``
are built on first read and kept, lock-free; its closed-form image
(``planar_image``, ``re_image``) and S (``s_of``) are here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import make_invariant_rhs
from .phase_space import MassParams, PhaseState, Potential, vec_to_state
from .quaternion import ImaginaryQuaternion, Quaternion, quat_mul, quat_mul_vec
from .reduction import InvariantPoint, invariant_map

KIND_SINGULAR_0 = "singular0"
KIND_SINGULAR_PI = "singularPi"
KIND_ACUTE = "acute"
KIND_RIGHT_ANGLED = "rightAngled"
KIND_OBTUSE = "obtuse"

_SINGULAR_TOL = 1e-9
_RIGHT_ANGLE_TOL = 1e-9
_CONSISTENCY_TOL = 1e-9


class NoSolutionError(ValueError):
    """No relative equilibrium exists for the requested parameters."""


class _cached(functools.cached_property):
    """``functools.cached_property`` without the lock Python 3.11 takes on a first read."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.attrname, self.func(instance))


@dataclass(frozen=True, init=False)
class RelativeEquilibrium:
    """A classified relative equilibrium in the standard conjugacy gauge, built
    in one step, its ``__dict__`` set at once, as every RE query builds one;
    ``state`` and ``image`` are kept in its ``__dict__`` on first read,
    outside what eq and hash compare."""

    kind: str
    theta: float
    phi1: float
    phi2: float
    xi_mag: float
    eta_mag: float
    x1: float
    x2: float
    y: float
    zeta: float
    masses: MassParams
    potential: Potential
    isosceles: bool = False

    def __init__(self, kind, theta, phi1, phi2, xi_mag, eta_mag, x1, x2, y, zeta, masses,
                 potential, isosceles=False):
        object.__setattr__(self, "__dict__", {
            "kind": kind, "theta": theta, "phi1": phi1, "phi2": phi2, "xi_mag": xi_mag,
            "eta_mag": eta_mag, "x1": x1, "x2": x2, "y": y, "zeta": zeta, "masses": masses,
            "potential": potential, "isosceles": isosceles})

    @property
    def phi1_branches(self) -> tuple[float, ...]:
        """Every position-angle branch at this theta; a diagnostic computed on
        access, empty for the kinds without a unique branch."""
        if self.kind not in (KIND_ACUTE, KIND_OBTUSE):
            return ()
        f = self.potential.f(math.cos(self.theta))
        return phi_branches(self.theta, self.masses, attractive=f > 0)

    @_cached
    def state(self) -> PhaseState:
        """The phase-space point, built from the angles and rates on first access only."""
        return vec_to_state(_re_state_vec(self))

    @_cached
    def image(self) -> InvariantPoint:
        """The invariant image of the RE's point, mapped on first access only
        from its flat vector, so that reading it builds no ``state``."""
        return InvariantPoint.from_tuple(invariant_map(_re_state_vec(self)))

    def to_json_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "phi1_branches": list(self.phi1_branches),
                "masses": {"m1": self.masses.m1, "m2": self.masses.m2},
                "potential": self.potential.kind, "state": self.state.to_json_dict()}


def _phi1(theta: float, m: MassParams, attractive: bool) -> float:
    """The acute or obtuse position angle phi1, in closed form.

    With phi2 = theta - phi1, m1 sin 2phi1 - m2 sin 2phi2 = R sin(2phi1 - a)
    where tan a = m2 sin 2theta / (m1 + m2 cos 2theta).  The force's window
    spans less than pi in 2phi1, so it holds at most one root, the one with
    sin 2phi1 of the force's sign.
    """
    s2 = math.sin(2 * theta)
    sigma = math.copysign(1.0, s2) * (1.0 if attractive else -1.0)
    return 0.5 * math.atan2(sigma * m.m2 * s2, sigma * (m.m1 + m.m2 * math.cos(2 * theta)))


def phi_branches(theta: float, m: MassParams, attractive: bool) -> tuple[float, ...]:
    """Every position-angle branch solving m1 sin 2phi1 = m2 sin 2phi2.

    The window compatible with the sign of the force holds at most one
    branch, the closed form of ``_phi1``; an empty window or an angle that
    does not keep both sines of the force's sign gives none.
    """
    if attractive:
        lo, hi = max(0.0, theta - math.pi / 2), min(theta, math.pi / 2)
    else:
        lo, hi = max(-math.pi / 2, theta - math.pi), min(0.0, theta - math.pi / 2)
    if hi <= lo:
        return ()
    p = _phi1(theta, m, attractive)
    sgn = 1.0 if attractive else -1.0
    if sgn * math.sin(2 * p) > 1e-12 and sgn * math.sin(2 * (theta - p)) > 1e-12:
        return (p,)
    return ()


def solve_re_linear_system(
    theta: float, eta_mag: float, m: MassParams, pot: Potential
) -> tuple[float, float, float]:
    """Solve the RE conditions for (x1, x2, y) as a numerically assembled
    linear system.

    The residual of the relative-position equation is affine in (x1, x2); the
    2x2 system is extracted by evaluating it with quaternion arithmetic at
    basis values, with no use of the closed forms.  Kept as an independent
    route for cross-checking them.
    """
    f = pot.f(math.cos(theta))
    y = f * math.sin(theta) / (2.0 * eta_mag)
    gL = Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)
    eta = ImaginaryQuaternion(0.0, eta_mag, 0.0)

    def residual(x1: float, x2: float) -> tuple[float, float]:
        a1 = ImaginaryQuaternion(0.0, x1, y).as_quaternion()
        a2 = ImaginaryQuaternion(0.0, x2, -y).as_quaternion()
        lhs = 2.0 * eta.cross(gL.imag())
        rhs = (quat_mul((1.0 / m.m1) * a1, gL) - quat_mul(gL, (1.0 / m.m2) * a2)).imag()
        res = lhs + rhs
        if abs(res.x) > 1e-9 * max(1.0, abs(x1), abs(x2), abs(y)):
            raise RuntimeError("RE residual left the j-k plane")
        return res.y, res.z

    r0 = residual(0.0, 0.0)
    r1 = residual(1.0, 0.0)
    r2 = residual(0.0, 1.0)
    A = np.array([[r1[0] - r0[0], r2[0] - r0[0]],
                  [r1[1] - r0[1], r2[1] - r0[1]]])
    x = np.linalg.solve(A, [-r0[0], -r0[1]])
    return float(x[0]), float(x[1]), y


def solve_re(
    theta: float,
    eta_mag: float,
    m: MassParams,
    pot: Potential,
    *,
    phi1: float | None = None,
    xi_mag: float | None = None,
) -> RelativeEquilibrium:
    """Classify the relative equilibrium at separation angle theta.

    ``eta_mag`` must be positive except for the singular families, where both
    rates are free and nonnegative (``xi_mag`` defaults to zero).  At theta =
    pi/2 the masses must be equal and the free line parameter is ``phi1``;
    elsewhere ``phi1``/``xi_mag`` must be left unset, as they are determined.
    A NaN or infinite theta or rate raises ``ValueError``.
    """
    if not all(map(math.isfinite, (theta, eta_mag, 0.0 if xi_mag is None else xi_mag))):
        raise ValueError("theta, eta_mag and xi_mag must be finite")
    if theta < 0 or theta > math.pi:
        raise ValueError("theta must lie in [0, pi]")
    if min(abs(theta), abs(theta - math.pi)) <= _SINGULAR_TOL:
        return _solve_singular(theta, eta_mag, m, pot, xi_mag, phi1)
    if xi_mag is not None:
        raise ValueError("xi_mag is determined for non-singular kinds")
    if eta_mag <= 0:
        raise ValueError("eta_mag must be positive")
    f = pot.f(math.cos(theta))
    if f == 0.0:
        raise NoSolutionError("the force vanishes at this separation")
    if abs(theta - math.pi / 2) <= _RIGHT_ANGLE_TOL:
        if abs(m.m1 - m.m2) > 1e-12 * max(m.m1, m.m2):
            raise NoSolutionError("right-angled relative equilibria require equal masses")
        if phi1 is None:
            phi1 = math.pi / 4 if f > 0 else -math.pi / 4
        if f > 0 and not (0 < phi1 < math.pi / 2):
            raise ValueError("attractive right-angled REs have phi1 in (0, pi/2)")
        if f < 0 and not (-math.pi / 2 < phi1 < 0):
            raise ValueError("repulsive right-angled REs have phi1 in (-pi/2, 0)")
        return _planar_re(KIND_RIGHT_ANGLED, math.pi / 2, phi1, eta_mag, m, pot, f)
    if phi1 is not None:
        raise ValueError("phi1 is determined away from theta = pi/2")
    kind = KIND_ACUTE if theta < math.pi / 2 else KIND_OBTUSE
    return _planar_re(kind, theta, _phi1(theta, m, f > 0), eta_mag, m, pot, f)


def _planar_re(kind, theta, phi1, eta_mag, m, pot, f) -> RelativeEquilibrium:
    """The acute, obtuse or right-angled RE with position angle phi1.

    The rates follow from the balance zeta = m1 sin 2phi1 = m2 sin 2phi2 and
    the lever relation 2 xi eta zeta = f sin(theta); the momenta are then
    x_i = m_i (xi cos 2phi_i - eta) and y = f sin(theta) / (2 eta).  The RE is
    isosceles when phi1 = theta/2 or (theta - pi)/2, for equal masses; at
    theta = pi/2 the masses are equal to 1e-12 and (theta - pi)/2 = -theta/2.
    """
    phi2 = theta - phi1
    zeta = m.m1 * math.sin(2 * phi1)
    y, xi, x1, x2 = _planar_rates(f * math.sin(theta), zeta, eta_mag,
                                  math.cos(2 * phi1), math.cos(2 * phi2), m)
    if not all(map(math.isfinite, (y, xi, x1 * x1 + y * y, x2 * x2 + y * y))):  # k11, k22
        raise ValueError(f"eta_mag = {eta_mag!r} is too {'small' if eta_mag < 1 else 'large'}: "
                         "the rates of the relative equilibrium or their squares are not finite")
    # xi > 0 rejects the branch of the wrong sign, which also balances
    if not (abs(m.m2 * math.sin(2 * phi2) - zeta) <= _CONSISTENCY_TOL * max(m.m1, m.m2)
            and xi > 0):
        raise RuntimeError("the position angles do not balance the relative equilibrium")
    return RelativeEquilibrium(
        kind=kind, theta=theta, phi1=phi1, phi2=phi2, xi_mag=xi, eta_mag=eta_mag,
        x1=x1, x2=x2, y=y, zeta=zeta, masses=m, potential=pot,
        isosceles=(m.equal or kind == KIND_RIGHT_ANGLED)
        and (abs(phi1 - theta / 2) <= 1e-9 or abs(phi1 - (theta - math.pi) / 2) <= 1e-9),
    )


def _planar_rates(f_sin, zeta, eta, cos1, cos2, m: MassParams) -> tuple:
    """(y, xi, x1, x2) of a planar RE from f sin(theta), zeta, eta and cos 2phi_i.

    Pure arithmetic, so eta may be a float or an array; each entry takes the
    same IEEE operations either way.
    """
    y = f_sin / (2.0 * eta)
    xi = y / zeta
    return y, xi, m.m1 * (xi * cos1 - eta), m.m2 * (xi * cos2 - eta)


def planar_image(x1, x2, y, cos_th, sin_th) -> InvariantPoint:
    """The invariant image of a planar or singular RE, with A1 = x1 j + y k,
    A2 = x2 j - y k and gD = exp(i theta); floats or arrays alike."""
    yy = y * y
    return InvariantPoint(k11=x1 * x1 + yy, k12=x1 * x2 - yy, k13=0.0, k22=x2 * x2 + yy,
                          k23=0.0, k33=sin_th * sin_th, r=cos_th, delta=-y * (x1 + x2) * sin_th)


def re_image(re: RelativeEquilibrium) -> InvariantPoint:
    """The closed-form invariant image of an RE, where its sheet label is read."""
    return planar_image(re.x1, re.x2, re.y, math.cos(re.theta), math.sin(re.theta))


def s_of(re: RelativeEquilibrium) -> float:
    """S = m1 cos 2phi1 + m2 cos 2phi2, with which |lambda| = |M xi - S eta|."""
    return re.masses.m1 * math.cos(2 * re.phi1) + re.masses.m2 * math.cos(2 * re.phi2)


def _solve_singular(theta, eta_mag, m, pot, xi_mag, phi1) -> RelativeEquilibrium:
    pot.f(1.0 if theta < 1.0 else -1.0)  # singular potentials reject these kinds
    if eta_mag < 0:
        raise ValueError("eta_mag must be nonnegative")
    if xi_mag is not None and xi_mag < 0:
        raise ValueError(f"xi_mag = {xi_mag!r} must be nonnegative")
    if phi1 is not None:
        raise ValueError("phi1 is determined away from theta = pi/2")
    xi = 0.0 if xi_mag is None else float(xi_mag)
    c = xi - eta_mag
    kind, theta = (KIND_SINGULAR_0, 0.0) if theta < 1.0 else (KIND_SINGULAR_PI, math.pi)
    return RelativeEquilibrium(
        kind=kind, theta=theta, phi1=0.0, phi2=theta,
        xi_mag=xi, eta_mag=eta_mag, x1=m.m1 * c, x2=m.m2 * c, y=0.0, zeta=0.0,
        masses=m, potential=pot, isosceles=m.equal,
    )


def _re_state_vec(re: RelativeEquilibrium) -> tuple[float, ...]:
    """The flat phase-space point of an RE from its angles and rates.

    Positions are g1 = exp(-i phi1), g2 = exp(i phi2); momenta come from
    differentiating the rigid motion exp(t xi j) q exp(-t eta j) at t = 0,
    p_i = m_i (xi g_i - g_i eta).
    """
    xi = (0.0, 0.0, float(re.xi_mag), 0.0)
    eta = (0.0, 0.0, float(re.eta_mag), 0.0)
    out = ()
    for g, mi in (((math.cos(re.phi1), -math.sin(re.phi1), 0.0, 0.0), re.masses.m1),
                  ((math.cos(re.phi2), math.sin(re.phi2), 0.0, 0.0), re.masses.m2)):
        a, b = quat_mul_vec(xi, g), quat_mul_vec(g, eta)
        out += g + ((a[0] - b[0]) * mi, (a[1] - b[1]) * mi, (a[2] - b[2]) * mi, (a[3] - b[3]) * mi)
    return out


def reconstruct_re(re: RelativeEquilibrium) -> PhaseState:
    """Rebuild the phase-space point of an RE from its angles and rates."""
    return vec_to_state(_re_state_vec(re))


def verify_re_fixed_point(re: RelativeEquilibrium) -> float:
    """Sup-norm of the fully reduced vector field at the RE's image; NaN where
    a component is NaN, which ``max`` alone would pass over."""
    field = make_invariant_rhs(re.masses, re.potential)(0.0, re.image)
    return math.nan if any(map(math.isnan, field)) else max(map(abs, field))


def lever_residual(re: RelativeEquilibrium) -> float:
    """Residual of the rate-balance relation 2 xi eta zeta = f sin(theta)."""
    f = re.potential.f(math.cos(re.theta))
    return 2.0 * re.xi_mag * re.eta_mag * re.zeta - f * math.sin(re.theta)


def zeta_of(theta: float, m: MassParams, pot: Potential) -> float:
    """The branch constant zeta = m1 sin 2phi1 of ``solve_re``, a function of theta only."""
    return solve_re(theta, 1.0, m, pot).zeta


def re_from_tau(
    theta: float,
    tau: float,
    m: MassParams,
    pot: Potential,
    *,
    phi1: float | None = None,
) -> RelativeEquilibrium:
    """Pick the RE with rate asymmetry tau, where 2 e^tau eta^2 = f sin(theta)/zeta.

    Under this reparameterisation xi = e^tau eta, so tau = 0 is the simple
    rotation.  At theta = pi/2 the family coordinate phi1 may be supplied;
    without it the RE is the isosceles one that ``solve_re`` picks.  The
    row's RE at eta = 1 gives f sin(theta)/zeta = 2y/zeta.  At theta = 0 and
    pi, the singular thread, zeta is zero and tau names no RE: ``ValueError``
    points to ``energy_casimir.singular_thread``, which samples the thread.
    A tau whose 2 e^tau or eta is zero, infinite or NaN (|tau| past about
    709) raises a ``ValueError`` that names it.
    """
    row = solve_re(theta, 1.0, m, pot, phi1=phi1)
    if row.kind in (KIND_SINGULAR_0, KIND_SINGULAR_PI):
        raise ValueError(f"theta = {theta!r} is on the singular thread, where tau names no "
                         "relative equilibrium: sample it with singular_thread")
    try:
        eta = math.sqrt(2.0 * row.y / row.zeta / (2.0 * math.exp(tau)))
    except (OverflowError, ZeroDivisionError):  # 2 e^tau past the float range
        eta = math.nan
    if not 0.0 < eta < math.inf:
        raise ValueError(f"tau = {tau!r} at theta = {theta!r} leaves the float range: 2 e^tau "
                         "or the eta it gives is zero, infinite or NaN")
    return solve_re(theta, eta, m, pot, phi1=phi1)


def tau_row(rows: list[RelativeEquilibrium], exp_tau: np.ndarray, m: MassParams) -> tuple:
    """``re_from_tau`` over a block of sheet rows in one broadcast pass, with
    e^tau = ``exp_tau``.

    ``rows`` holds each row's RE at eta = 1, which fixes its angles and zeta.
    Returns the (len(rows), len(exp_tau)) arrays (eta, y, xi, x1, x2): each
    row's constants are a (rows, 1) column against the (1, n_b) e^tau, and
    entry (i, k) takes the IEEE operations of ``re_from_tau`` at row i and
    tau_k when ``exp_tau`` holds ``math.exp`` values.  Where ``re_from_tau``
    raises at one node only, eta is zero or infinite or xi is not positive.
    """
    f_sin, zeta, cos1, cos2 = np.array(
        [(2.0 * re.y, re.zeta, math.cos(2 * re.phi1), math.cos(2 * re.phi2)) for re in rows]
    ).T[..., None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        eta = np.sqrt(f_sin / zeta / (2.0 * exp_tau))
        return (eta, *_planar_rates(f_sin, zeta, eta, cos1, cos2, m))
