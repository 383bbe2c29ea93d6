"""Sampling the energy-Casimir map over families of relative equilibria.

Each RE family is swept in the coordinates (theta, tau), where the
reparameterisation 2 e^tau eta^2 = f sin(theta)/zeta makes xi = e^tau eta;
tau = 0 is the simple rotation with equal momentum norms on both sides.  The
map records (H, |lambda|^2, |rho|^2) evaluated numerically on the
reconstructed states, which is exact to floating precision and avoids any
closed-form shortcut.  The resulting point clouds are the bifurcation
surfaces of the problem; a fold shows up where samples with equal momentum
pairs merge.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    MassParams,
    Potential,
    hamiltonian_2body,
    momentum_left,
    momentum_right,
)
from .relequil import RelativeEquilibrium, re_from_tau, solve_re
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
    gauge_flipped = False
    if (phi1 is not None and abs(theta - math.pi / 2) <= 1e-9
            and pot.f(0.0) * math.sin(2 * phi1) < 0):
        # reflect the gauge instead of silently flipping a sign: shifting
        # the position angle by a quarter turn lands on the branch whose
        # zeta sign matches the force
        phi1 = phi1 - math.copysign(math.pi / 2, phi1)
        gauge_flipped = True
    re = re_from_tau(theta, tau, m, pot, phi1=phi1)
    return _sample_from_re(re, family, tau, classify, gauge_flipped)


def _sample_from_re(
    re: RelativeEquilibrium, family: str, tau: float, classify: bool, gauge_flipped: bool = False
) -> ECSample:
    label = ""
    if classify:
        label = _stability.linearize(re).classification
    return ECSample(
        family=family,
        theta=re.theta,
        tau=tau,
        H=hamiltonian_2body(re.state, re.masses, re.potential),
        lam2=momentum_left(re.state).norm2(),
        rho2=momentum_right(re.state).norm2(),
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


# (m, pot, family, classify), set by _init_worker in each forked pool worker;
# fork copies the arguments, so a Potential of any kind needs no pickling
_WORKER_ARGS: tuple = ()


def _init_worker(shared: tuple) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = shared


def _surface_worker(node) -> tuple[int, tuple | None, tuple | None]:
    idx, theta, phi1, tau = node
    m, pot, family, classify = _WORKER_ARGS
    return (idx, *_try_sample(theta, tau, m, pot, family, phi1, classify))


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
    collected, not raised.  Sample evaluation is independent per grid node;
    with ``workers`` > 1 a process pool is used and results are reassembled
    in grid order; ``None`` or 1 means serial.  The pool is forked, so its
    workers share the caller's masses and ``Potential``, whatever its kind.
    A non-finite range endpoint, a grid dimension or ``workers`` below 1, or
    an acute or obtuse theta range that leaves its family's half of (0, pi)
    raises ``ValueError`` before any node is sampled.
    """
    ends = (*theta_range, *tau_range, *(phi1_range or ()))
    if not all(math.isfinite(v) for v in ends):
        raise ValueError(f"surface ranges must be finite, got {ends!r}")
    n_a, n_b = grid
    if min(n_a, n_b) < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {tuple(grid)!r}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    half = {FAMILY_ACUTE: (0.0, math.pi / 2), FAMILY_OBTUSE: (math.pi / 2, math.pi)}.get(family)
    if half is not None and not all(half[0] < t < half[1] for t in theta_range):
        raise ValueError(f"{family} surfaces need theta in ({half[0]!r}, {half[1]!r}), "
                         f"got {tuple(theta_range)!r}")
    taus = np.linspace(tau_range[0], tau_range[1], n_b)
    if family == FAMILY_RIGHT_ANGLED:
        if phi1_range is None:
            raise ValueError("rightAngled surfaces need phi1_range")
        firsts = [(math.pi / 2, p) for p in np.linspace(*phi1_range, n_a)]
    else:
        firsts = [(t, None) for t in np.linspace(theta_range[0], theta_range[1], n_a)]
    nodes = [(float(theta), p1, float(tau)) for theta, p1 in firsts for tau in taus]

    if workers is not None and workers > 1:
        import multiprocessing as mp

        jobs = [(i, *node) for i, node in enumerate(nodes)]
        results: list = [None] * len(jobs)
        with mp.get_context("fork").Pool(workers, initializer=_init_worker,
                                         initargs=((m, pot, family, classify),)) as pool:
            for i, s, err in pool.imap_unordered(_surface_worker, jobs, chunksize=64):
                results[i] = (s, err)
    else:
        results = [_try_sample(theta, tau, m, pot, family, p1, classify)
                   for theta, p1, tau in nodes]

    samples, failures = [], []
    for s, err in results:
        if s is not None:
            samples.append(s)
        else:
            failures.append(err)
    return SurfaceResult(samples=tuple(samples), failures=tuple(failures))


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
