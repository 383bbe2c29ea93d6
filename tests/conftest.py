"""Shared helpers: independent mini-oracles and random-state factories."""

import math
import signal

import numpy as np
import pytest

from spheretop.phase_space import random_phase_state
from spheretop.quaternion import ImaginaryQuaternion, Quaternion
from spheretop.reduction import ReducedState, hilbert_map, left_reduce

# Every test's call runs under this wall-clock limit, far above the slowest
# test (3.6-5.1 s on a 2-core host): a step-size controller that never
# accepts a step loops without end, and the alarm fails its test by its id.
# Past the limit the alarm repeats each second: a handler that runs inside
# a callback which swallows exceptions (hypothesis's gc callback) is lost.
TEST_TIME_LIMIT_S = 60.0


class TimeLimitExceeded(BaseException):
    """Raised by the alarm: not an ``Exception``, nor pytest's ``Failed``, so
    that neither a test's ``except Exception`` nor hypothesis, which shrinks
    a failing example by running it again, catches it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def pytest_collection_modifyitems(items):
    # the DOP853 tableau's own checks run first, so that a wrong coefficient
    # fails by name before any flow test integrates with it
    items.sort(key=lambda item: "::TestDOP853Tableau::" not in item.nodeid)


# Basis multiplication table for the oracle product, independent of the
# library implementation: (a, b) -> (result basis element, sign).
_BASIS = ("1", "i", "j", "k")
_MUL = {
    ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
    ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
    ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
    ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
}


def oracle_product(p, q):
    """Bilinear expansion over the basis table of the product of two
    (w, x, y, z) sequences, of floats or of sympy expressions."""
    out = {b: 0.0 for b in _BASIS}
    for a, ca in zip(_BASIS, p):
        for b, cb in zip(_BASIS, q):
            basis, sign = _MUL[(a, b)]
            out[basis] += sign * ca * cb
    return tuple(out.values())


def oracle_mul(p, q):
    return Quaternion(*oracle_product(p.components(), q.components()))


def oracle_dot4(p, q):
    return sum(a * b for a, b in zip(p.components(), q.components()))


# ---------------------------------------------------------------------------
# typed oracles for the flat maps of src/: the compositions of Quaternion
# operations that the flat maps replaced, on test-local arithmetic (the
# product and the inverse written out as the typed class computed them), so
# that the flat maps can be held to the same bits, signed zeros included
# ---------------------------------------------------------------------------

def bits(values):
    """The exact floats of a sequence: -0.0 and 0.0 differ, NaN equals NaN."""
    return [float(x).hex() for x in values]


def typed_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def typed_inverse(q):
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    return (w / n2, -x / n2, -y / n2, -z / n2)


def _add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def typed_norm2(q):
    out = q[0] * q[0]
    for c in q[1:]:
        out += c * c
    return out


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def typed_inner(p, q):
    """(p q^+ + q p^+)/2, the real part of the symmetrised product."""
    s = typed_mul(p, (q[0], -q[1], -q[2], -q[3]))
    t = typed_mul(q, (p[0], -p[1], -p[2], -p[3]))
    return 0.5 * (s[0] + t[0])


def _split(v):
    return tuple(v[0:4]), tuple(v[4:8]), tuple(v[8:12]), tuple(v[12:16])


def typed_left_reduce(v):
    """(R1, R2, gL) as ten floats."""
    g1, p1, g2, p2 = _split(v)
    g1inv = typed_inverse(g1)
    return (typed_mul(g1inv, p1)[1:] + typed_mul(typed_inverse(g2), p2)[1:]
            + typed_mul(g1inv, g2))


def typed_right_reduce(v):
    """(L1, L2, gR) as ten floats."""
    g1, p1, g2, p2 = _split(v)
    g2inv = typed_inverse(g2)
    return (typed_mul(p1, typed_inverse(g1))[1:] + typed_mul(p2, g2inv)[1:]
            + typed_mul(g1, g2inv))


def typed_hilbert(u):
    v1, v2, v3 = tuple(u[0:3]), tuple(u[3:6]), tuple(u[7:10])
    return (_dot3(v1, v1), _dot3(v1, v2), _dot3(v1, v3), _dot3(v2, v2), _dot3(v2, v3),
            _dot3(v3, v3), u[6], _dot3(_cross(v1, v2), v3))


def typed_momentum_left(v):
    g1, p1, g2, p2 = _split(v)
    return _add(typed_mul(p1, typed_inverse(g1)), typed_mul(p2, typed_inverse(g2)))[1:]


def typed_momentum_right(v):
    g1, p1, g2, p2 = _split(v)
    return _add(typed_mul(typed_inverse(g1), p1), typed_mul(typed_inverse(g2), p2))[1:]


def typed_two_body(a, b, r, m, pot):
    return a / (2.0 * m.m1) + b / (2.0 * m.m2) + pot.v(r)


def typed_hamiltonian_2body(v, m, pot):
    g1, p1, g2, p2 = _split(v)
    return typed_two_body(typed_norm2(p1), typed_norm2(p2), typed_inner(g1, g2), m, pot)


def typed_casimir_C2_direct(u):
    g = tuple(u[6:10])
    a = typed_mul((0.0, *u[0:3]), g)
    b = typed_mul(g, (0.0, *u[3:6]))
    return typed_norm2(_add(a, b))


def typed_casimirs(p):
    """(C1, C2, C3) as ``all_casimirs`` computed them on an InvariantPoint."""
    k11, k12, k13, k22, k23, k33, r, delta = p
    return (k33 + r * r,
            ((k33 + r * r) * (k11 + k22) + 2.0 * k12 * (r * r - k33)
             + 4.0 * k13 * k23 - 4.0 * r * delta),
            k11 + k22 + 2.0 * k12)


def typed_variety_defect(p):
    k11, k12, k13, k22, k23, k33, r, delta = p
    return delta * delta - (k11 * (k22 * k33 - k23 * k23) - k12 * (k12 * k33 - k23 * k13)
                            + k13 * (k12 * k23 - k22 * k13))


def typed_re_state(phi1, phi2, xi_mag, eta_mag, m):
    """g1 = exp(-i phi1), g2 = exp(i phi2), p_i = m_i (xi j g_i - g_i eta j)."""
    xi, eta = (0.0, 0.0, float(xi_mag), 0.0), (0.0, 0.0, float(eta_mag), 0.0)
    out = ()
    for g, mi in (((math.cos(phi1), -math.sin(phi1), 0.0, 0.0), m.m1),
                  ((math.cos(phi2), math.sin(phi2), 0.0, 0.0), m.m2)):
        diff = tuple(a - b for a, b in zip(typed_mul(xi, g), typed_mul(g, eta)))
        out += g + tuple(c * mi for c in diff)
    return out


def random_flat_state(rng):
    """16 floats over six decades, with some exact zeros of either sign and
    g1, g2 nonzero; not on the unit sphere."""
    v = rng.normal(size=16) * rng.choice([1e-3, 1.0, 1e3], size=16)
    v[rng.random(16) < 0.15] = 0.0
    v[rng.random(16) < 0.1] *= -1.0
    v[0] = v[0] or 1.0
    v[8] = v[8] or -1.0
    return tuple(float(c) for c in v)


def quat(w, x, y, z):
    return Quaternion(w, x, y, z)


def imag(x, y, z):
    return ImaginaryQuaternion(x, y, z)


def random_unit(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def random_imag(rng, scale=1.0):
    return ImaginaryQuaternion(*rng.normal(scale=scale, size=3))


def random_reduced_state(rng, scale=0.8, unit_g=True):
    g = rng.normal(size=4)
    if unit_g:
        g /= np.linalg.norm(g)
    return ReducedState(
        A1=random_imag(rng, scale), A2=random_imag(rng, scale), gD=Quaternion(*g)
    )


def random_invariant_point(rng, scale=0.8):
    """On-variety point, generated by pushing a random state through the
    invariant map."""
    return hilbert_map(left_reduce(random_phase_state(rng, momentum_scale=scale)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


__all__ = [
    "oracle_mul", "oracle_dot4", "quat", "imag", "random_unit", "random_imag",
    "random_reduced_state", "random_invariant_point", "random_phase_state",
    "bits", "typed_mul", "typed_inverse", "typed_norm2", "typed_inner",
    "typed_left_reduce", "typed_right_reduce", "typed_hilbert", "typed_momentum_left",
    "typed_momentum_right", "typed_two_body", "typed_hamiltonian_2body",
    "typed_casimir_C2_direct", "typed_casimirs", "typed_variety_defect", "typed_re_state",
    "random_flat_state",
]
