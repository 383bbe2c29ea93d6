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
sampled a block of grid rows at a time: one ``solve_re`` per row fixes what
depends on its theta (or phi1), and one broadcast pass over the block
(``relequil.tau_row``, each row's constants against the row of e^tau) gives
every node's rates, closed-form image, values and label as numpy arrays; no
16-d state is built.  The sheet is held as columns, one list per ``ECSample``
field, which ``ec_csv`` formats directly; ``SurfaceResult.samples`` builds an
``ECSample`` only for a node that is read.
Every label, batched or scalar, comes from ``stability.classify_roots`` on the
two ``stability.quartet_roots`` at that image, with no 8x8 eigenvalue call.
The resulting point clouds are the bifurcation surfaces of the problem; a
fold shows up where samples with equal momentum pairs merge.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .dynamics import MAX_SAMPLE_ROWS
from .phase_space import MassParams, Potential, two_body_energy
from .reduction import InvariantPoint
from .relequil import (_RIGHT_ANGLE_TOL, RelativeEquilibrium, planar_image, re_from_tau, re_image,
                       s_of, solve_re, tau_row)
from . import stability as _stability

EC_CSV_COLUMNS = ("family", "theta", "tau", "H", "lam2", "rho2", "stability")

FAMILY_GENERIC = "generic"
FAMILY_ISOSCELES = "isosceles"
FAMILY_ACUTE = "acute"
FAMILY_OBTUSE = "obtuse"
FAMILY_RIGHT_ANGLED = "rightAngled"
FAMILY_SINGULAR_0 = "singular0"
FAMILY_SINGULAR_PI = "singularPi"


@dataclass(frozen=True, init=False)
class ECSample:
    """One node of a sheet: the CSV's columns, then the RE's rates and phi1.

    Built in one step, its ``__dict__`` set at once: the generated frozen
    ``__init__`` sets each field through ``object.__setattr__``, which took
    about twice as long per node.
    """

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

    def __init__(self, family, theta, tau, H, lam2, rho2, stability, xi_mag, eta_mag, phi1,
                 gauge_flipped=False):
        object.__setattr__(self, "__dict__", {
            "family": family, "theta": theta, "tau": tau, "H": H, "lam2": lam2, "rho2": rho2,
            "stability": stability, "xi_mag": xi_mag, "eta_mag": eta_mag, "phi1": phi1,
            "gauge_flipped": gauge_flipped})


_FIELDS = tuple(f.name for f in fields(ECSample))
_fields_of = attrgetter(*_FIELDS)


class Sheet(Sequence):
    """A sheet's nodes, read-only, held as one list per ``ECSample`` field in
    field order (``columns``).  An ``ECSample`` is built only for an element
    that is read; ``len`` and ``==`` between sheets work on the columns.  As
    the tuple of samples it stands for, a sheet equals a tuple of the same
    nodes and hashes as one."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[list, ...]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(ECSample, *(c[i] for c in self.columns)))
        return ECSample(*(c[i] for c in self.columns))

    def __iter__(self):
        return map(ECSample, *self.columns)

    def __eq__(self, other):
        if isinstance(other, Sheet):
            return self.columns == other.columns
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class SurfaceResult:
    samples: Sheet
    failures: tuple[tuple[float, float, str], ...]
    scalar_nodes: int  # grid nodes sampled one at a time by ``ec_sample``


def _gauge(theta: float, phi1: float | None, pot: Potential) -> tuple[float | None, bool]:
    """phi1, moved a quarter turn when its zeta has the wrong sign for the
    force on the right-angled family, and whether it was moved."""
    if (phi1 is not None and abs(theta - math.pi / 2) <= _RIGHT_ANGLE_TOL
            and pot.f(0.0) * math.sin(2 * phi1) < 0):
        # a flagged quarter turn of the gauge, not a silent flip of zeta's sign
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
) -> ECSample:
    """One point of the energy-Casimir surface at family coordinates (theta, tau).

    The RE comes from ``re_from_tau``, with theta, tau and phi1 taken as
    Python floats.  On the right-angled family a phi1 whose zeta has the
    wrong sign for the force is first moved a quarter turn, and the sample is
    marked ``gauge_flipped``.  Non-finite quartet roots or values raise ValueError.
    """
    # a numpy float would carry its repr into ``ec_csv``'s cells
    theta, tau = float(theta), float(tau)
    phi1, gauge_flipped = _gauge(theta, None if phi1 is None else float(phi1), pot)
    re = re_from_tau(theta, tau, m, pot, phi1=phi1)
    return _sample_from_re(re, family, tau, gauge_flipped)


def _ec_values(pt: InvariantPoint, xi, eta, s: float, v: float, m: MassParams) -> tuple:
    """(H, |lambda|^2, |rho|^2) of the module docstring; floats or arrays alike."""
    big_m = m.m1 + m.m2
    lam = big_m * xi - s * eta
    rho = big_m * eta - s * xi
    return two_body_energy(pt.k11, pt.k22, v, m), lam * lam, rho * rho


def _sample_from_re(
    re: RelativeEquilibrium, family: str, tau: float, gauge_flipped: bool = False
) -> ECSample:
    pt, pot = re_image(re), re.potential
    with np.errstate(all="ignore"):  # non-finite roots raise below
        t = _stability.quartet_roots(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))
    label = _stability.classify_roots(t)[0]
    values = _ec_values(pt, re.xi_mag, re.eta_mag, s_of(re), pot.v(pt.r), re.masses)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"(H, lam2, rho2) = {values!r} is not finite")
    return ECSample(family, re.theta, tau, *values, label, re.xi_mag, re.eta_mag, re.phi1,
                    gauge_flipped)


def _batch_row(theta, phi1, m, pot) -> tuple:
    """The scalar part of one grid row, which raises whatever the row raises:
    (its RE at eta = 1, gauge flip, row constants)."""
    p1, flipped = _gauge(theta, phi1, pot)
    re = solve_re(theta, 1.0, m, pot, phi1=p1)
    cos_th = math.cos(re.theta)
    return re, flipped, (cos_th, math.sin(re.theta), pot.v(cos_th), s_of(re), pot.f(cos_th),
                         pot.fprime(cos_th))


def _block_nodes(batch: list, exp_tau: np.ndarray, m: MassParams) -> tuple:
    """The columns (H, lam2, rho2, label, xi, eta, accept) of every node of
    the batched rows, as lists of rows, in one broadcast pass: each row's
    constants are a (rows, 1) column against the (1, n_b) e^tau.  ``accept``
    is False for a node the scalar path must sample: one where
    ``re_from_tau`` raises (eta not positive and finite, xi not positive),
    one whose (H, lam2, rho2) is not finite, or one whose ``quartet_roots``
    are not finite.
    """
    eta, y, xi, x1, x2 = tau_row([b[0] for b in batch], exp_tau, m)
    cos_th, sin_th, v, s, f, fp = np.array([b[2] for b in batch]).T[..., None]
    with np.errstate(all="ignore"):  # such nodes are left to the scalar path
        pt = planar_image(x1, x2, y, cos_th, sin_th)
        values = _ec_values(pt, xi, eta, s, v, m)
        t = _stability.quartet_roots(pt, m, f, fp)
        accept = (np.isfinite(eta) & (eta > 0) & (xi > 0) & np.isfinite(values).all(axis=0)
                  & np.isfinite(t[..., 0]) & np.isfinite(t[..., 1]))
        # a node not accepted is labelled as zeros here and sampled again
        labels = _stability.classify_roots(np.where(accept[..., None], t, 0.0))[0]
    return tuple(a.tolist() for a in (*values, labels, xi, eta, accept))


def _sample_block(rows, taus, exp_tau, m, pot, family, columns, failures) -> int:
    """Sample whole grid rows as one batch (``_block_nodes``).

    Appends each node's fields to ``columns``, one list per ``ECSample``
    field, or its (theta, tau, message) record to ``failures``, in grid
    order.  Returns the number of nodes sampled by the scalar ``ec_sample``:
    those of a row whose scalar part raises, and those ``_block_nodes``
    leaves to it.
    """
    batched = {}
    for i, (theta, phi1) in enumerate(rows):
        try:
            batched[i] = _batch_row(theta, phi1, m, pot)
        except Exception:  # the scalar path records the row's failures
            pass
    block_rows = zip(*_block_nodes(list(batched.values()), exp_tau, m)) if batched else None
    n_b = len(taus)
    n_scalar = 0
    for i, (theta, phi1) in enumerate(rows):
        if i in batched:
            re, flipped = batched[i][:2]
            H, lam2, rho2, labels, xi, eta, accept = next(block_rows)
            row = ([family] * n_b, [re.theta] * n_b, taus, H, lam2, rho2, labels, xi, eta,
                   [re.phi1] * n_b, [flipped] * n_b)
            if all(accept):
                for column, values in zip(columns, row):
                    column.extend(values)
                continue
        else:
            accept = [False] * n_b
        for k, tau in enumerate(taus):
            if accept[k]:
                node = [values[k] for values in row]
            else:
                n_scalar += 1
                try:
                    node = _fields_of(ec_sample(theta, tau, m, pot, family=family, phi1=phi1))
                except Exception as exc:  # per-sample failures are data, not fatal
                    failures.append((theta, tau, f"{type(exc).__name__}: {exc}"))
                    continue
            for column, value in zip(columns, node):
                column.append(value)
    return n_scalar


def _exp(t: float) -> float:
    """math.exp as ``re_from_tau`` takes it, inf where it overflows (and
    ``re_from_tau`` raises)."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


# the most grid nodes one batch holds; a full block peaks at about 320 bytes a
# node under tracemalloc, 180 of them the lists it returns
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
) -> SurfaceResult:
    """Rectangular sweep of the energy-Casimir map over a family.

    For the right-angled family the first grid axis runs over phi1 instead of
    theta (supply ``phi1_range``; no other family takes one).  Failures of
    individual samples are collected, not raised.  Grid rows are sampled in
    order, in batches of whole rows (``_sample_block``).  A non-finite range
    endpoint, a grid dimension below 1, more nodes than
    ``dynamics.MAX_SAMPLE_ROWS`` (every sample is held in memory), a
    ``phi1_range`` on another family, or an acute or obtuse theta range that
    leaves its family's half of (0, pi) raises ``ValueError`` before any node
    is sampled.
    """
    ends = (*theta_range, *tau_range, *(phi1_range or ()))
    if not all(math.isfinite(v) for v in ends):
        raise ValueError(f"surface ranges must be finite, got {ends!r}")
    n_a, n_b = grid
    if min(n_a, n_b) < 1:
        raise ValueError(f"grid dimensions must be at least 1, got {tuple(grid)!r}")
    if n_a * n_b > MAX_SAMPLE_ROWS:
        raise ValueError(f"grid {n_a} x {n_b} asks for {n_a * n_b} nodes, more than the cap "
                         f"of {MAX_SAMPLE_ROWS}")
    half = {FAMILY_ACUTE: (0.0, math.pi / 2), FAMILY_OBTUSE: (math.pi / 2, math.pi)}.get(family)
    if half is not None and not all(half[0] < t < half[1] for t in theta_range):
        raise ValueError(f"{family} surfaces need theta in ({half[0]!r}, {half[1]!r}), "
                         f"got {tuple(theta_range)!r}")
    taus = np.linspace(tau_range[0], tau_range[1], n_b).tolist()
    if family == FAMILY_RIGHT_ANGLED:
        if phi1_range is None:
            raise ValueError("rightAngled surfaces need phi1_range")
        rows = [(math.pi / 2, p) for p in np.linspace(*phi1_range, n_a).tolist()]
    elif phi1_range is not None:
        raise ValueError(f"phi1_range is for rightAngled surfaces only, not {family}")
    else:
        rows = [(t, None) for t in np.linspace(theta_range[0], theta_range[1], n_a).tolist()]
    exp_tau = np.array([_exp(t) for t in taus])
    per_block = max(1, _BLOCK_NODES // n_b)
    columns, failures = tuple([] for _ in _FIELDS), []
    n_scalar = sum(_sample_block(rows[i:i + per_block], taus, exp_tau, m, pot, family, columns,
                                 failures) for i in range(0, n_a, per_block))
    return SurfaceResult(samples=Sheet(columns), failures=tuple(failures), scalar_nodes=n_scalar)


def singular_thread(
    rate_range: tuple[float, float],
    n: int,
    m: MassParams,
    gamma: float,
    *,
    antipodal: bool = False,
) -> list[ECSample]:
    """Sample the coincident/antipodal thread of the constant-force problem.

    The thread is parameterised by the common circulation rate c = xi - eta,
    both rates nonnegative; here it is swept with eta = 0, xi = c where
    c >= 0, and with xi = 0, eta = -c where c < 0.
    """
    pot = Potential.linear(gamma)
    theta = math.pi if antipodal else 0.0
    family = FAMILY_SINGULAR_PI if antipodal else FAMILY_SINGULAR_0
    out = []
    for c in np.linspace(rate_range[0], rate_range[1], n).tolist():
        re = (solve_re(theta, -c, m, pot, xi_mag=0.0) if c < 0.0
              else solve_re(theta, 0.0, m, pot, xi_mag=c))
        out.append(_sample_from_re(re, family, 0.0))
    return out


def _texts(values) -> list[str]:
    """``repr`` of each value: each distinct nonzero one formatted once, and a
    zero each time, since -0.0 == 0.0 would share one text."""
    known = {x: repr(x) for x in set(values) if x}
    return [known[x] if x else repr(x) for x in values]


def ec_csv(samples) -> str:
    """CSV text for energy-Casimir samples; fixed column order.

    Written from the columns: a ``Sheet`` hands over its own, and any other
    iterable of ``ECSample`` is transposed first.  theta repeats along a
    sheet's row and tau down its column, so each is formatted by ``_texts``.
    """
    if isinstance(samples, Sheet):
        columns = samples.columns
    else:
        nodes = list(samples)
        columns = [[getattr(s, name) for s in nodes] for name in EC_CSV_COLUMNS]
    family, theta, tau, H, lam2, rho2, stability = columns[:len(EC_CSV_COLUMNS)]
    rows = map(",".join, zip(family, _texts(theta), _texts(tau), map(repr, H), map(repr, lam2),
                             map(repr, rho2), stability))
    return "\n".join((",".join(EC_CSV_COLUMNS), *rows, ""))


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
