"""Sampling the energy-Casimir map over families of relative equilibria.

Each RE family is swept in the coordinates (theta, tau), where the
reparameterisation 2 e^tau eta^2 = f sin(theta)/zeta makes xi = e^tau eta;
tau = 0 is the simple rotation with equal momentum norms on both sides.  The
map records (H, |lambda|^2, |rho|^2) in closed form from the RE's rates and
momenta, with M = m1 + m2 and S = m1 cos 2phi1 + m2 cos 2phi2:

  H = k11/2m1 + k22/2m2 + V(cos theta),  k_ii = x_i^2 + y^2,
  |lambda|^2 = (M xi - S eta)^2,  |rho|^2 = (M eta - S xi)^2,

the last two since lambda = (M xi - S eta) j and rho = (S xi - M eta) j once
the balance m1 sin 2phi1 = m2 sin 2phi2 removes their k parts.  A sheet is
sampled a grid row at a time: what depends on the row's theta (or phi1) comes
from the scalar RE code once, and everything along tau is numpy arrays, up to
one stack of Jacobians and one eigenvalue call.  A node the batch cannot vouch
for goes through the scalar ``ec_sample``.  The resulting point clouds are the
bifurcation surfaces of the problem; a fold shows up where samples with equal
momentum pairs merge.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .phase_space import MassParams, Potential
from .reduction import InvariantPoint
from .relequil import RelativeEquilibrium, re_from_tau, solve_re, tau_row
from . import stability as _stability

EC_CSV_COLUMNS = ("family", "theta", "tau", "H", "lam2", "rho2", "stability")

FAMILY_GENERIC = "generic"
FAMILY_ISOSCELES = "isosceles"
FAMILY_ACUTE = "acute"
FAMILY_OBTUSE = "obtuse"
FAMILY_RIGHT_ANGLED = "rightAngled"
FAMILY_SINGULAR_0 = "singular0"
FAMILY_SINGULAR_PI = "singularPi"


@dataclass(frozen=True)
class ECSample:
    family: str
    theta: float
    tau: float
    H: float
    lam2: float
    rho2: float
    stability: str
    xi_mag: float
    eta_mag: float
    phi1: float
    gauge_flipped: bool = False


@dataclass(frozen=True)
class SurfaceResult:
    samples: tuple[ECSample, ...]
    failures: tuple[tuple[float, float, str], ...]
    scalar_nodes: int  # grid nodes sampled one at a time by ``ec_sample``


def _gauge(theta: float, phi1: float | None, pot: Potential) -> tuple[float | None, bool]:
    """phi1, moved a quarter turn when its zeta has the wrong sign for the
    force on the right-angled family, and whether it was moved."""
    if (phi1 is not None and abs(theta - math.pi / 2) <= 1e-9
            and pot.f(0.0) * math.sin(2 * phi1) < 0):
        # reflect the gauge instead of silently flipping a sign: shifting
        # the position angle by a quarter turn lands on the branch whose
        # zeta sign matches the force
        return phi1 - math.copysign(math.pi / 2, phi1), True
    return phi1, False


def ec_sample(
    theta: float,
    tau: float,
    m: MassParams,
    pot: Potential,
    *,
    family: str = FAMILY_GENERIC,
    phi1: float | None = None,
    classify: bool = True,
) -> ECSample:
    """One point of the energy-Casimir surface at family coordinates (theta, tau).

    The RE comes from ``re_from_tau``.  On the right-angled family a phi1
    whose zeta has the wrong sign for the force is first moved a quarter
    turn, and the sample is marked ``gauge_flipped``.
    """
    phi1, gauge_flipped = _gauge(theta, phi1, pot)
    re = re_from_tau(theta, tau, m, pot, phi1=phi1)
    return _sample_from_re(re, family, tau, classify, gauge_flipped)


def _image(x1, x2, y, cos_th: float, sin_th: float) -> InvariantPoint:
    """The invariant image of a planar or singular RE, with A1 = x1 j + y k,
    A2 = x2 j - y k and gD = exp(i theta); floats or arrays alike."""
    yy = y * y
    return InvariantPoint(k11=x1 * x1 + yy, k12=x1 * x2 - yy, k13=0.0, k22=x2 * x2 + yy,
                          k23=0.0, k33=sin_th * sin_th, r=cos_th, delta=-y * (x1 + x2) * sin_th)


def _s_of(re: RelativeEquilibrium) -> float:
    return re.masses.m1 * math.cos(2 * re.phi1) + re.masses.m2 * math.cos(2 * re.phi2)


def _ec_values(pt: InvariantPoint, xi, eta, s: float, v: float, m: MassParams) -> tuple:
    """(H, |lambda|^2, |rho|^2) of the module docstring; floats or arrays alike."""
    big_m = m.m1 + m.m2
    lam = big_m * xi - s * eta
    rho = big_m * eta - s * xi
    return pt.k11 / (2.0 * m.m1) + pt.k22 / (2.0 * m.m2) + v, lam * lam, rho * rho


def _sample_from_re(
    re: RelativeEquilibrium, family: str, tau: float, classify: bool, gauge_flipped: bool = False
) -> ECSample:
    label = ""
    if classify:
        label = _stability.linearize(re).classification
    cos_th = math.cos(re.theta)
    pt = _image(re.x1, re.x2, re.y, cos_th, math.sin(re.theta))
    H, lam2, rho2 = _ec_values(pt, re.xi_mag, re.eta_mag, _s_of(re),
                               re.potential.v(cos_th), re.masses)
    return ECSample(
        family=family,
        theta=re.theta,
        tau=tau,
        H=H,
        lam2=lam2,
        rho2=rho2,
        stability=label,
        xi_mag=re.xi_mag,
        eta_mag=re.eta_mag,
        phi1=re.phi1,
        gauge_flipped=gauge_flipped,
    )


def _try_sample(theta, tau, m, pot, family, phi1, classify) -> tuple:
    """(sample, None), or (None, failure record) when the sample raises."""
    try:
        return ec_sample(theta, tau, m, pot, family=family, phi1=phi1, classify=classify), None
    except Exception as exc:  # per-sample failures are data, not fatal
        return None, (theta, tau, f"{type(exc).__name__}: {exc}")


def _batch_row(theta, phi1, exp_tau, m, pot, classify) -> tuple:
    """The scalar part of one grid row, which raises whatever the row raises:
    (its RE at eta = 1, gauge flip, (eta, y, xi, x1, x2), row constants)."""
    p1, flipped = _gauge(theta, phi1, pot)
    re, *rates = tau_row(theta, exp_tau, m, pot, phi1=p1)
    cos_th = math.cos(re.theta)
    force = (pot.f(cos_th), pot.fprime(cos_th)) if classify else (0.0, 0.0)
    return re, flipped, rates, (cos_th, math.sin(re.theta), pot.v(cos_th), _s_of(re), *force)


def _batch_nodes(batch: list, n_b: int, m: MassParams, classify: bool) -> list:
    """(H, lam2, rho2, xi, eta, label) of every node of the batched rows, in
    order, or None for a node the scalar path must sample.

    That is a node where ``re_from_tau`` raises (eta not positive and finite,
    xi not positive), and when classifying a node with a non-finite Jacobian
    or a spectrum near a cut of ``classify_stability_eigs`` (``near_cut``),
    whose label could then depend on the batch's Jacobian, built from the
    closed-form image, differing from the scalar one by rounding.
    """
    eta, y, xi, x1, x2 = (np.concatenate(a) for a in zip(*(b[2] for b in batch)))
    cos_th, sin_th, v, s, f, fp = np.repeat([b[3] for b in batch], n_b, axis=0).T
    labels = np.full(len(eta), "", dtype=object)
    with np.errstate(all="ignore"):  # such nodes are left to the scalar path
        pt = _image(x1, x2, y, cos_th, sin_th)
        values = _ec_values(pt, xi, eta, s, v, m)
        accept = np.isfinite(eta) & (eta > 0) & (xi > 0)
        if classify:
            jac = _stability.jacobian_full_reduced(pt, m, f, fp)
            accept &= np.isfinite(jac).all(axis=(-2, -1))
            eigs = np.linalg.eigvals(jac[accept])
            labels[accept] = _stability.classify_stability_eigs(eigs)
            accept[accept] = ~_stability.near_cut(eigs)
    columns = (a.tolist() for a in (*values, xi, eta, labels, accept))
    return [node if ok else None for *node, ok in zip(*columns)]


def _sample_block(rows, taus, exp_tau, m, pot, family, classify) -> tuple[list, int]:
    """Sample whole grid rows as one batch (``_batch_nodes``).

    Returns the (sample, failure) pair of every node in grid order and the
    number of nodes sampled by the scalar ``ec_sample``: those of a row whose
    scalar part raises, and those ``_batch_nodes`` leaves to it.
    """
    batched = {}
    for i, (theta, phi1) in enumerate(rows):
        try:
            batched[i] = _batch_row(theta, phi1, exp_tau, m, pot, classify)
        except Exception:  # the scalar path records the row's failures
            pass
    nodes = iter(_batch_nodes(list(batched.values()), len(taus), m, classify) if batched else ())
    out, n_scalar = [], 0
    for i, (theta, phi1) in enumerate(rows):
        for tau in taus:
            node = next(nodes) if i in batched else None
            if node is None:
                out.append(_try_sample(theta, tau, m, pot, family, phi1, classify))
                n_scalar += 1
                continue
            H, lam2, rho2, xi, eta, label = node
            re, flipped = batched[i][:2]
            out.append((ECSample(family=family, theta=re.theta, tau=tau, H=H, lam2=lam2,
                                 rho2=rho2, stability=label, xi_mag=xi, eta_mag=eta,
                                 phi1=re.phi1, gauge_flipped=flipped), None))
    return out, n_scalar


def _exp(t: float) -> float:
    """math.exp as ``re_from_tau`` takes it, inf where it overflows (and
    ``re_from_tau`` raises)."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


# (taus, exp_tau, m, pot, family, classify), set by _init_worker in each
# forked pool worker; fork copies the arguments, so a Potential of any kind
# needs no pickling
_WORKER_ARGS: tuple = ()


def _init_worker(shared: tuple) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = shared


def _surface_worker(rows) -> tuple[list, int]:
    return _sample_block(rows, *_WORKER_ARGS)


# the most grid nodes one batch holds: its Jacobian stack is 512 bytes a node
_BLOCK_NODES = 16384


def ec_surface(
    family: str,
    theta_range: tuple[float, float],
    tau_range: tuple[float, float],
    grid: tuple[int, int],
    m: MassParams,
    pot: Potential,
    *,
    phi1_range: tuple[float, float] | None = None,
    classify: bool = True,
    workers: int | None = None,
) -> SurfaceResult:
    """Rectangular sweep of the energy-Casimir map over a family.

    For the right-angled family the first grid axis runs over phi1 instead of
    theta (supply ``phi1_range``).  Failures of individual samples are
    collected, not raised.  Grid rows are sampled in batches of whole rows
    (``_sample_block``); with ``workers`` > 1 a process pool samples
    contiguous batches and they are reassembled in grid order; ``None`` or 1
    means serial.  The pool is forked, so its workers share the caller's
    masses and ``Potential``, whatever its kind.  A non-finite range
    endpoint, a grid dimension below 1, a ``workers`` that is not an integer
    or is below 1, or an acute or obtuse theta range that leaves its family's
    half of (0, pi) raises ``ValueError`` before any node is sampled.
    """
    ends = (*theta_range, *tau_range, *(phi1_range or ()))
    if not all(math.isfinite(v) for v in ends):
        raise ValueError(f"surface ranges must be finite, got {ends!r}")
    n_a, n_b = grid
    if min(n_a, n_b) < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {tuple(grid)!r}")
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
            raise ValueError(f"workers must be an integer, got {workers!r}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers!r}")
    half = {FAMILY_ACUTE: (0.0, math.pi / 2), FAMILY_OBTUSE: (math.pi / 2, math.pi)}.get(family)
    if half is not None and not all(half[0] < t < half[1] for t in theta_range):
        raise ValueError(f"{family} surfaces need theta in ({half[0]!r}, {half[1]!r}), "
                         f"got {tuple(theta_range)!r}")
    taus = np.linspace(tau_range[0], tau_range[1], n_b).tolist()
    if family == FAMILY_RIGHT_ANGLED:
        if phi1_range is None:
            raise ValueError("rightAngled surfaces need phi1_range")
        rows = [(math.pi / 2, p) for p in np.linspace(*phi1_range, n_a).tolist()]
    else:
        rows = [(t, None) for t in np.linspace(theta_range[0], theta_range[1], n_a).tolist()]
    shared = (taus, np.array([_exp(t) for t in taus]), m, pot, family, classify)

    pooled = workers is not None and workers > 1
    per_block = max(1, _BLOCK_NODES // n_b)
    if pooled:  # a block for each worker at least
        per_block = min(per_block, -(-n_a // workers))
    blocks = [rows[i:i + per_block] for i in range(0, n_a, per_block)]
    if pooled:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers, initializer=_init_worker,
                                         initargs=(shared,)) as pool:
            parts = pool.map(_surface_worker, blocks, chunksize=1)
    else:
        parts = [_sample_block(block, *shared) for block in blocks]

    samples, failures = [], []
    for results, _ in parts:
        for s, err in results:
            if s is not None:
                samples.append(s)
            else:
                failures.append(err)
    return SurfaceResult(samples=tuple(samples), failures=tuple(failures),
                         scalar_nodes=sum(n for _, n in parts))


def singular_thread(
    rate_range: tuple[float, float],
    n: int,
    m: MassParams,
    gamma: float,
    *,
    antipodal: bool = False,
    classify: bool = True,
) -> list[ECSample]:
    """Sample the coincident/antipodal thread of the constant-force problem.

    The thread is parameterised by the common circulation rate c = xi - eta;
    here it is swept with eta = 0, xi = c.
    """
    pot = Potential.linear(gamma)
    theta = math.pi if antipodal else 0.0
    family = FAMILY_SINGULAR_PI if antipodal else FAMILY_SINGULAR_0
    out = []
    for c in np.linspace(rate_range[0], rate_range[1], n):
        re = solve_re(theta, 0.0, m, pot, xi_mag=float(c))
        out.append(_sample_from_re(re, family, 0.0, classify))
    return out


def ec_csv(samples) -> str:
    """CSV text for energy-Casimir samples; fixed column order."""
    buf = io.StringIO()
    buf.write(",".join(EC_CSV_COLUMNS) + "\n")
    for s in samples:
        buf.write(f"{s.family},{s.theta!r},{s.tau!r},{s.H!r},"
                  f"{s.lam2!r},{s.rho2!r},{s.stability}\n")
    return buf.getvalue()


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot an energy-Casimir surface CSV produced by the ec-surface command.\"\"\"
import sys

import matplotlib.pyplot as plt
import numpy as np

path = sys.argv[1] if len(sys.argv) > 1 else "ec_surface.csv"
rows = np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")
fig = plt.figure()
ax = fig.add_subplot(projection="3d")
ax.scatter(rows["lam2"], rows["rho2"], rows["H"], s=2,
           c=np.where(rows["stability"] == "linearly_stable", "tab:blue", "tab:red"))
ax.set_xlabel("|lambda|^2")
ax.set_ylabel("|rho|^2")
ax.set_zlabel("H")
plt.show()
"""
