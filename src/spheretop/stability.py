"""Linear stability of relative equilibria on the fully reduced space.

The flow is linearised at the image of an RE, where the frame momenta are
orthogonal to the relative position (k13 = k23 = 0).  Four eigenvalues of the
8x8 Jacobian vanish structurally because the generic symplectic leaves are
4-dimensional; the remaining quartet factors in closed form for both the
gravitational and the constant-force (spinning top) potentials:

* gravitational:  t^4 (c0 + c2 t^2 + t^4)  with the quartet
  z^2 = -(sqrt(k11)/m1 + sqrt(k22)/m2)^2 - (m1+m2) cot(th) csc^2(th)
  w^2 = -(sqrt(k11)/m1 - sqrt(k22)/m2)^2 - (m1+m2) cot(th) csc^2(th)
* constant force, theta != pi/2 (there k11 = k22 = |R|^2):
  t^4 (t^2 - 2 a g cos th)(t^2 + 4 a^2 |R|^2 - 8 a g cos th)
* constant force, theta = pi/2:
  t^4 (t^4 + 2 a^2 (k11 + k22) t^2 + a^4 (k11 - k22)^2)

For unequal masses the w-quartet of the gravitational problem changes from
imaginary to real across a fold in the obtuse family.  Along the family at
fixed theta, k11/m1^2 and k22/m2^2 each equal (f sin th/zeta) cosh(tau) plus a
term free of tau, so c0 is affine in cosh(tau):

  c0(tau) = c0(0) + 4 (m1+m2) f cos(th) / (zeta sin^2 th) (cosh(tau) - 1).

The fold is its root, found from two evaluations of c0, and it is certified
where (|lambda|^2, |rho|^2) stops being a chart of (theta, tau).  With
M = m1 + m2, S = m1 cos 2phi1 + m2 cos 2phi2 and zeta = m1 sin 2phi1 these norms
are eta^2 a^2 and eta^2 b^2, where a = M e^tau - S and b = M - e^tau S.  Along
the branch dS/dth = -2 zeta, dln(eta^2)/dtau = -1 and dln(eta^2)/dth = g with
g = -sin th f'(cos th)/f + cot th - 2 m1 m2 cos 2phi1 cos 2phi2/(S zeta), so the
exact Jacobian has the rows eta^2 a (g a + 4 zeta, M e^tau + S) and
eta^2 b (g b + 4 e^tau zeta, -(M + e^tau S)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import MassParams, Potential
from .reduction import InvariantPoint, hilbert_map, left_reduce
from .relequil import KIND_RIGHT_ANGLED, RelativeEquilibrium, re_from_tau

ZERO_EIG_TOL = 1e-8
REAL_PART_TOL = 1e-8

STABLE = "linearly_stable"
UNSTABLE = "linearly_unstable"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class LinearizationReport:
    """Jacobian at an RE in coordinates (k11, k12, k13, k22, k23, k33, r, delta)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    zero_count: int
    classification: str


def jacobian_full_reduced(pt: InvariantPoint, m: MassParams, f, fp) -> np.ndarray:
    """Analytic Jacobian of the fully reduced vector field, given f and f' at pt.r.

    Shape-agnostic: when pt.k11 has shape S, and every other field and f, fp
    are floats or arrays of that shape, the result has shape S + (8, 8); each
    entry takes the IEEE operations of a single point.
    """
    m1, m2 = m.m1, m.m2
    k11, k12, k13 = pt.k11, pt.k12, pt.k13
    k22, k23, k33 = pt.k22, pt.k23, pt.k33
    r = pt.r
    rows = [
        [0, 0, 2 * f, 0, 0, 0, 2 * fp * k13, 0],
        [0, 0, -f, 0, f, 0, fp * (k23 - k13), 0],
        [-r / m1, r / m2, 0, 0, 0, f,
         fp * k33 - (k11 / m1 - k12 / m2), -1 / m2],
        [0, 0, 0, 0, -2 * f, 0, -2 * fp * k23, 0],
        [0, -r / m1, 0, r / m2, 0, -f,
         -fp * k33 - (k12 / m1 - k22 / m2), 1 / m1],
        [0, 0, -2 * r / m1, 0, 2 * r / m2, 0,
         2 * (k23 / m2 - k13 / m1), 0],
        [0, 0, 1 / m1, 0, -1 / m2, 0, 0, 0],
        [-k23 / m1, k13 / m1 - k23 / m2, k12 / m1 + k22 / m2,
         k13 / m2, -k11 / m1 - k12 / m2, 0, 0, 0],
    ]
    shape = np.shape(k11)
    if not shape:
        return np.array(rows, dtype=float)
    cells = np.stack(np.broadcast_arrays(*(v for row in rows for v in row)))
    return np.moveaxis(cells.reshape((8, 8) + shape), (0, 1), (-2, -1))


def linearize(re: RelativeEquilibrium) -> LinearizationReport:
    """Linearise the fully reduced flow at a relative equilibrium."""
    pt = hilbert_map(left_reduce(re.state))
    scale = max(1.0, abs(pt.k11), abs(pt.k22), abs(pt.k33))
    if max(abs(pt.k13), abs(pt.k23)) > 1e-8 * scale:
        raise ValueError("not a relative equilibrium: k13, k23 must vanish")
    pot = re.potential
    matrix = jacobian_full_reduced(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))
    eigs = np.linalg.eigvals(matrix)
    classification, zero_count = _classify(eigs)
    return LinearizationReport(
        matrix=matrix,
        eigenvalues=eigs,
        zero_count=int(zero_count),
        classification=classification,
    )


def _scale(mod: np.ndarray) -> np.ndarray:
    """The eigenvalue scale max(1, max |t|) of each spectrum, from the moduli."""
    return np.maximum(1.0, mod.max(axis=-1, keepdims=True))


def _classify(eigs: np.ndarray) -> tuple:
    """``classify_stability_eigs`` and the count of zero eigenvalues."""
    mod = np.abs(eigs)
    scale = _scale(mod)
    zeros = mod < ZERO_EIG_TOL * scale
    cut = REAL_PART_TOL * scale
    unstable = (eigs.real > cut).any(axis=-1)
    n_zero = zeros.sum(axis=-1)
    stable = (n_zero == 4) & (zeros | (np.abs(eigs.real) <= cut)).all(axis=-1)
    codes = (2 * unstable + stable).tolist()  # unstable outranks stable
    labels = (DEGENERATE, STABLE, UNSTABLE, UNSTABLE)
    return labels[codes] if isinstance(codes, int) else [labels[c] for c in codes], n_zero


def classify_stability_eigs(eigs: np.ndarray):
    """Stable: four structural zeros plus a nonzero imaginary quartet;
    unstable: any eigenvalue with positive real part; degenerate otherwise.

    Classifies along the last axis: one spectrum gives a str, a stack of
    spectra a list of them.
    """
    return _classify(eigs)[0]


def near_cut(eigs: np.ndarray) -> np.ndarray:
    """Whether some eigenvalue's modulus or real part lies within three decades
    of its cut in ``classify_stability_eigs``, along the last axis.

    A rounding-size change of the Jacobian moves a double eigenvalue by about
    the square root of the rounding, 1e-8, so only a label outside this band
    is fixed by the matrix's exact value.
    """
    scale = _scale(np.abs(eigs))

    def band(x, cut):
        return (x >= 1e-3 * cut * scale) & (x <= 1e3 * cut * scale)

    return np.any(band(np.abs(eigs), ZERO_EIG_TOL) | band(np.abs(eigs.real), REAL_PART_TOL),
                  axis=-1)


def _k_diag(re: RelativeEquilibrium) -> tuple[float, float]:
    return re.x1 ** 2 + re.y ** 2, re.x2 ** 2 + re.y ** 2


def charpoly_2body(re: RelativeEquilibrium) -> tuple[float, float]:
    """(c0, c2) of the nonzero quartet for the gravitational potential."""
    if re.potential.kind != "gravitational":
        raise ValueError("charpoly_2body applies to the gravitational potential")
    k11, k22 = _k_diag(re)
    m1, m2 = re.masses.m1, re.masses.m2
    th = re.theta
    q = (m1 + m2) * math.cos(th) / math.sin(th) ** 3
    c2 = 2.0 * (k11 / m1 ** 2 + k22 / m2 ** 2 + q)
    c0 = ((k11 / m1 ** 2 - k22 / m2 ** 2) ** 2
          + 2.0 * (math.cos(th) / math.sin(th) ** 3)
          * ((k11 / m1) * (1 + m2 / m1) + (k22 / m2) * (1 + m1 / m2))
          + q * q)
    return c0, c2


def closed_form_eigs_2body(
    re: RelativeEquilibrium,
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The quartet (z, -z), (w, -w) of the gravitational linearisation."""
    k11, k22 = _k_diag(re)
    m1, m2 = re.masses.m1, re.masses.m2
    th = re.theta
    q = (m1 + m2) * math.cos(th) / math.sin(th) ** 3
    z2 = -(math.sqrt(k11) / m1 + math.sqrt(k22) / m2) ** 2 - q
    w2 = -(math.sqrt(k11) / m1 - math.sqrt(k22) / m2) ** 2 - q
    z = complex(z2) ** 0.5
    w = complex(w2) ** 0.5
    return (z, -z), (w, -w)


def charpoly_lagrange(re: RelativeEquilibrium, alpha: float, gamma: float) -> tuple[float, float]:
    """(c0, c2) of the nonzero quartet for the constant-force potential."""
    k11, k22 = _k_diag(re)
    th = re.theta
    if re.kind == KIND_RIGHT_ANGLED:
        c2 = 2.0 * alpha ** 2 * (k11 + k22)
        c0 = alpha ** 4 * (k11 - k22) ** 2
        return c0, c2
    if abs(k11 - k22) > 1e-8 * max(1.0, k11, k22):
        raise ValueError("the factorisation away from pi/2 needs |A1| = |A2| "
                         "(equal masses)")
    rsq = k11  # = k22 away from theta = pi/2
    a = -2.0 * alpha * gamma * math.cos(th)
    b = 4.0 * alpha ** 2 * rsq - 8.0 * alpha * gamma * math.cos(th)
    return a * b, a + b


def closed_form_eigs_lagrange(
    re: RelativeEquilibrium, alpha: float, gamma: float
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Eigenvalue quartet of the spinning-top linearisation."""
    k11, k22 = _k_diag(re)
    th = re.theta
    if re.kind == KIND_RIGHT_ANGLED:
        t2a = -alpha ** 2 * (math.sqrt(k11) + math.sqrt(k22)) ** 2
        t2b = -alpha ** 2 * (math.sqrt(k11) - math.sqrt(k22)) ** 2
    else:
        t2a = 2.0 * alpha * gamma * math.cos(th)
        t2b = -(4.0 * alpha ** 2 * k11 - 8.0 * alpha * gamma * math.cos(th))
    a = complex(t2a) ** 0.5
    b = complex(t2b) ** 0.5
    return (a, -a), (b, -b)


@dataclass(frozen=True)
class FoldResult:
    tau: float
    c0: float
    jacobian_det: float


def _momentum_jacobian_det(re: RelativeEquilibrium, tau: float) -> float:
    """Row-normalised exact fold certificate at an acute or obtuse RE."""
    m1, m2 = re.masses.m1, re.masses.m2
    big_m, e, zeta = m1 + m2, math.exp(tau), re.zeta
    cos1, cos2 = math.cos(2 * re.phi1), math.cos(2 * re.phi2)
    s = m1 * cos1 + m2 * cos2
    r, sin_th = math.cos(re.theta), math.sin(re.theta)
    g = (-sin_th * re.potential.fprime(r) / re.potential.f(r) + r / sin_th
         - 2 * m1 * m2 * cos1 * cos2 / (s * zeta))
    u = (g * (big_m * e - s) + 4 * zeta, big_m * e + s)
    v = (g * (big_m - e * s) + 4 * e * zeta, -(big_m + e * s))
    return abs(u[0] * v[1] - u[1] * v[0]) / (math.hypot(*u) * math.hypot(*v))


def fold_locus(theta: float, m: MassParams, *, tau_max: float = 8.0) -> FoldResult | None:
    """Locate the stability fold of the obtuse gravitational family at theta.

    The fold is the root of the chord through c0(0) and c0(tau_max), c0 being
    affine in cosh(tau); c0 is even in tau and the positive root is returned.
    The record carries c0 and the exact certificate of the module docstring
    there, from three RE solves in all.  Returns None when c0 keeps one sign
    on [0, tau_max], as happens for equal masses.
    """
    if not (math.pi / 2 < theta < math.pi):
        raise ValueError("the fold lives in the obtuse family")
    pot = Potential.gravitational(m)

    def c0_of_tau(tau: float) -> float:
        return charpoly_2body(re_from_tau(theta, tau, m, pot))[0]

    c0_zero, c0_max = c0_of_tau(0.0), c0_of_tau(tau_max)
    if c0_zero * c0_max > 0.0:
        return None
    tau_star = math.acosh(1.0 + c0_zero * (math.cosh(tau_max) - 1.0) / (c0_zero - c0_max))
    re_star = re_from_tau(theta, tau_star, m, pot)
    return FoldResult(tau=tau_star, c0=charpoly_2body(re_star)[0],
                      jacobian_det=_momentum_jacobian_det(re_star, tau_star))
