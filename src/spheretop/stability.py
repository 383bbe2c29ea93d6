"""Linear stability of relative equilibria on the fully reduced space.

The flow is linearised at the image of an RE, where the frame momenta are
orthogonal to the relative position (k13 = k23 = 0).  There the Jacobian J
couples (k13, k23) only to the other six coordinates: permuted, it is
[[0, B], [C, 0]], so det(t - J) = t^4 det(t^2 - CB), four exact zeros and the
quartet t^4 + c2 t^2 + c0 with c0 = det CB, c2 = -tr CB for the 2x2 matrix
CB.  Sheets are labelled from CB (``quartet_roots``); ``linearize`` takes
the 8x8 eigenvalues, the independent numerical route, from the LAPACK dgeev
gufunc behind ``np.linalg.eigvals``: on one 8x8 matrix that wrapper's Python
steps cost as much as the solve.  ``_eigvals`` keeps the two that matter, the
check for NaN and inf before LAPACK runs and the real part when every
imaginary part is zero, so its result has the wrapper's bytes and dtype;
where dgeev does not converge it returns NaN, which the labelling rejects.

A spectrum is labelled on the scale max(1, max |t|): t is zero when |t| is
below ZERO_EIG_TOL times it, the spectrum is unstable when some Re t exceeds
REAL_PART_TOL times it (the cut), and stable when exactly four t are zero and
every other |Re t| is at most the cut; anything else is degenerate.  A
numerical spectrum (``linearize``) is labelled in one plain-Python pass, since
numpy's cost per call outweighs the arithmetic on eight numbers, on the moduli
of ``np.abs``, from which Python's ``abs`` of a complex differs in the last bit
for about a third of random values.  The closed-form quartet is labelled on
its two roots t (``classify_roots``), one pair or a stack of them: the
spectrum (0, 0, 0, 0, t, -t) has the moduli of t and the real parts +-Re t,
so the rule reads scale = max(1, max |t|), 4 + 2 #{|t| < ZERO_EIG_TOL scale}
zeros and max |Re t| against the cut, and gives that spectrum's label and
zero count bit for bit.  A spectrum holding NaN or inf raises ``ValueError``.

The quartet factors in closed form for the gravitational and constant-force
(top) potentials:

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
from numpy.linalg import LinAlgError, _umath_linalg

from .phase_space import MassParams, Potential
from .reduction import InvariantPoint
from .relequil import KIND_RIGHT_ANGLED, RelativeEquilibrium, re_from_tau, s_of

ZERO_EIG_TOL = 1e-8
REAL_PART_TOL = 1e-8

STABLE = "linearly_stable"
UNSTABLE = "linearly_unstable"
DEGENERATE = "degenerate"


@dataclass(frozen=True, init=False)
class LinearizationReport:
    """Jacobian at an RE in coordinates (k11, k12, k13, k22, k23, k33, r, delta)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    zero_count: int
    classification: str

    def __init__(self, matrix, eigenvalues, zero_count, classification):  # one step, per RE query
        object.__setattr__(self, "__dict__", {
            "matrix": matrix, "eigenvalues": eigenvalues, "zero_count": zero_count,
            "classification": classification})


def jacobian_full_reduced(pt: InvariantPoint, m: MassParams, f, fp) -> np.ndarray:
    """Analytic Jacobian of the fully reduced vector field, given f and f' at pt.r."""
    m1, m2 = m.m1, m.m2
    k11, k12, k13, k22, k23, k33, r, _ = pt
    return np.array((
        0.0, 0.0, 2 * f, 0.0, 0.0, 0.0, 2 * fp * k13, 0.0,
        0.0, 0.0, -f, 0.0, f, 0.0, fp * (k23 - k13), 0.0,
        -r / m1, r / m2, 0.0, 0.0, 0.0, f, fp * k33 - (k11 / m1 - k12 / m2), -1 / m2,
        0.0, 0.0, 0.0, 0.0, -2 * f, 0.0, -2 * fp * k23, 0.0,
        0.0, -r / m1, 0.0, r / m2, 0.0, -f, -fp * k33 - (k12 / m1 - k22 / m2), 1 / m1,
        0.0, 0.0, -2 * r / m1, 0.0, 2 * r / m2, 0.0, 2 * (k23 / m2 - k13 / m1), 0.0,
        0.0, 0.0, 1 / m1, 0.0, -1 / m2, 0.0, 0.0, 0.0,
        -k23 / m1, k13 / m1 - k23 / m2, k12 / m1 + k22 / m2, k13 / m2, -k11 / m1 - k12 / m2,
        0.0, 0.0, 0.0,
    ), dtype=float).reshape(8, 8)


def quartet_roots(pt: InvariantPoint, m: MassParams, f, fp) -> np.ndarray:
    """The roots t = +sqrt(mu) of the quartet of ``jacobian_full_reduced`` at an
    RE image along the last axis, for the roots mu of mu^2 + c2 mu + c0
    (pt.k13, pt.k23 unread).  With A = k11/m1^2, B = k22/m2^2,
    M = 1/m1 + 1/m2, g = f r M, h = f' k33 M and e = 3g - h, CB gives
    c2 = 5g - h + 2(A + B), c0 = (B - A)(B - A + e (m1 - m2)/(m1 + m2))
    + g (4g - h + 2(A + B)) and c2^2 - 4 c0 = e^2 + 8 e (m1 A + m2 B)/(m1 + m2)
    + 16 A B, free of the k^2 terms that cancel in its entries.  Scaled by
    max(A + B, |g|, |h|), the larger root comes first, the other is c0/big.
    Floats, or arrays of one shape S for a complex result of shape S + (2,).
    """
    m1, m2, big_m = m.m1, m.m2, 1 / m.m1 + 1 / m.m2
    a, b, g, h = pt.k11 / m1 ** 2, pt.k22 / m2 ** 2, f * pt.r * big_m, fp * pt.k33 * big_m
    s = np.maximum(np.maximum(a + b, abs(g)), np.maximum(abs(h), np.finfo(float).tiny))
    a, b, g, h = a / s, b / s, g / s, h / s
    e = 3 * g - h
    c2 = 5 * g - h + 2 * (a + b)
    c0 = (b - a) * (b - a + e * ((m1 - m2) / (m1 + m2))) + g * (4 * g - h + 2 * (a + b))
    root = np.sqrt(np.asarray(e * e + 8 * e * (m1 * a + m2 * b) / (m1 + m2) + 16 * a * b, complex))
    big = -0.5 * (c2 + np.where(c2 < 0, -root, root))
    small = c0 / np.where(big != 0, big, 1.0)
    return np.sqrt(np.asarray(s))[..., None] * np.sqrt(np.stack([big, small], axis=-1))


def _spectrum(t) -> np.ndarray:
    """The spectrum (0, 0, 0, 0, t, -t) of roots t along the last axis."""
    return np.concatenate([np.zeros(t.shape[:-1] + (4,)), t, -t], axis=-1)


def quartet_spectrum(pt: InvariantPoint, m: MassParams, f, fp) -> np.ndarray:
    """The eight eigenvalues of ``jacobian_full_reduced`` at an RE image along
    the last axis: four exact zeros, then t and -t for the two
    ``quartet_roots`` t.  Floats, or arrays of one shape S for a result of
    shape S + (8,).
    """
    return _spectrum(quartet_roots(pt, m, f, fp))


def linearize(re: RelativeEquilibrium) -> LinearizationReport:
    """Linearise the fully reduced flow at a relative equilibrium."""
    pt = re.image
    scale = max(1.0, abs(pt.k11), abs(pt.k22), abs(pt.k33))
    if max(abs(pt.k13), abs(pt.k23)) > 1e-8 * scale:
        raise ValueError("not a relative equilibrium: k13, k23 must vanish")
    pot = re.potential
    matrix = jacobian_full_reduced(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))
    eigs = _eigvals(matrix)
    classification, zero_count = _classify(eigs)
    return LinearizationReport(matrix, eigs, zero_count, classification)


def _eigvals(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(matrix)`` for one float64 matrix, bit for bit."""
    # count_nonzero skips the Python steps of ``.all()``; a sum would warn on overflow
    if np.count_nonzero(np.isfinite(matrix)) != matrix.size:
        raise LinAlgError("Array must not contain infs or NaNs")
    eigs = _umath_linalg.eigvals(matrix, signature="d->D")
    return eigs if np.count_nonzero(eigs.imag) else eigs.real


def _classify(eigs) -> tuple:
    """The label and count of zero eigenvalues of one spectrum, by the rule of
    the module docstring, in one plain-Python pass over the moduli of ``np.abs``."""
    eigs = np.asarray(eigs)
    vals, mods = eigs.tolist(), np.abs(eigs).tolist()
    if not all(map(math.isfinite, mods)):
        raise ValueError(f"the spectrum {vals} is not finite")
    scale = max(1.0, max(mods))
    tol, cut = ZERO_EIG_TOL * scale, REAL_PART_TOL * scale
    n_zero, unstable, settled = 0, False, True  # settled: |Re t| <= cut off the zeros
    for t, x in zip(vals, mods):
        unstable = unstable or t.real > cut
        n_zero += x < tol
        settled = settled and (x < tol or abs(t.real) <= cut)
    if unstable:  # unstable outranks stable
        return UNSTABLE, n_zero
    return (STABLE if n_zero == 4 and settled else DEGENERATE), n_zero


_LABELS = np.array((DEGENERATE, STABLE, UNSTABLE), dtype=object)


def classify_roots(t) -> tuple:
    """The label and zero count that ``_classify`` gives the spectrum
    (0, 0, 0, 0, t, -t) of quartet roots t along the last axis, bit for bit,
    read on t alone (module docstring).  A pair gives (str, int), a stack an
    object array of labels and an int array of counts.  Roots that are not
    finite raise ``ValueError``, naming their spectrum.
    """
    t = np.asarray(t)
    # the pair's columns, since numpy reduces a length-2 axis slowly
    mod, re = np.abs(t), np.abs(t.real)
    scale = np.maximum(np.maximum(mod[..., 0], mod[..., 1]), 1.0)  # NaN and inf carry through
    if not np.isfinite(scale).all():
        if t.ndim == 1:
            raise ValueError(f"the spectrum {_spectrum(t).tolist()} is not finite")
        i = int(np.argmin(np.isfinite(scale).ravel()))
        row = _spectrum(t.reshape(-1, 2)[i])
        raise ValueError(f"the spectrum {row.tolist()} in row {i} is not finite")
    n_zero = 4 + 2 * (mod < (ZERO_EIG_TOL * scale)[..., None]).sum(axis=-1)
    unstable = np.maximum(re[..., 0], re[..., 1]) > REAL_PART_TOL * scale
    labels = _LABELS[np.where(unstable, 2, n_zero == 4)]  # unstable outranks stable
    return (labels, n_zero) if t.ndim > 1 else (labels, int(n_zero))


def spectrum_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The widest pair of a nearest-first matching of spectrum a to spectrum b,
    over the scale max(1, max |a|); it bounds their multiset distance above."""
    pool, worst = list(b), 0.0
    for x in a:
        j = int(np.argmin(np.abs(np.subtract(pool, x))))
        worst = max(worst, float(abs(pool.pop(j) - x)))
    return worst / max(1.0, float(np.abs(a).max()))


def classify_stability_eigs(eigs: np.ndarray):
    """Stable: four structural zeros plus a nonzero imaginary quartet;
    unstable: any eigenvalue with positive real part; degenerate otherwise.

    Classifies along the last axis: one spectrum gives a str, a stack of
    spectra a list of them, row by row.  A spectrum that is not finite raises
    ``ValueError``.
    """
    eigs = np.asarray(eigs)
    if eigs.ndim == 1:
        return _classify(eigs)[0]
    return [classify_stability_eigs(row) for row in eigs]


def _k_diag(re: RelativeEquilibrium) -> tuple[float, float]:
    return re.x1 ** 2 + re.y ** 2, re.x2 ** 2 + re.y ** 2


def charpoly_2body(re: RelativeEquilibrium) -> tuple[float, float]:
    """(c0, c2) of the nonzero quartet for the gravitational potential."""
    if re.potential.kind != "gravitational":
        raise ValueError("charpoly_2body applies to the gravitational potential")
    k11, k22 = _k_diag(re)
    m1, m2 = re.masses.m1, re.masses.m2
    th = re.theta
    try:  # a float ** raises where its result leaves the float range
        q = (m1 + m2) * math.cos(th) / math.sin(th) ** 3
        c2 = 2.0 * (k11 / m1 ** 2 + k22 / m2 ** 2 + q)
        c0 = ((k11 / m1 ** 2 - k22 / m2 ** 2) ** 2
              + 2.0 * (math.cos(th) / math.sin(th) ** 3)
              * ((k11 / m1) * (1 + m2 / m1) + (k22 / m2) * (1 + m1 / m2))
              + q * q)
    except OverflowError:
        raise ValueError(f"eta_mag = {re.eta_mag!r} with masses {m1!r}, {m2!r}: the "
                         "quartet's characteristic polynomial overflows") from None
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
    cos1, cos2, s = math.cos(2 * re.phi1), math.cos(2 * re.phi2), s_of(re)
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
