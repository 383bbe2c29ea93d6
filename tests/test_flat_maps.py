"""The flat reduction maps against the typed compositions they replaced.

The oracles in ``conftest`` compose the typed operations (the Hamilton
product, the inverse, the symmetrised inner product, the ImaginaryQuaternion
dot and cross products) in the order the typed code did, on arithmetic
written out in the tests.  Every flat map must give the same floats bit for
bit, signed zeros included.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from conftest import (
    bits,
    random_flat_state,
    typed_casimir_C2_direct,
    typed_casimirs,
    typed_hamiltonian_2body,
    typed_hilbert,
    typed_inner,
    typed_inverse,
    typed_left_reduce,
    typed_momentum_left,
    typed_momentum_right,
    typed_mul,
    typed_re_state,
    typed_right_reduce,
    typed_variety_defect,
)

from spheretop.dynamics import HamiltonianKind
from spheretop.phase_space import (
    MassParams,
    Potential,
    PhaseState,
    body_frame_vec,
    hamiltonian_2body,
    momentum_left,
    momentum_left_vec,
    momentum_right,
    momentum_right_vec,
    random_phase_state,
    space_frame_vec,
    vec_to_state,
)
from spheretop.poisson import (
    GENERATORS,
    OffVarietyError,
    casimir_gradient,
    hamiltonian_gradient,
    integral_I,
    integral_I_gradient,
    table_bracket,
    table_flow,
)
from spheretop.quaternion import (
    ImaginaryQuaternion,
    Quaternion,
    quat_dot_vec,
    quat_inverse_vec,
    quat_mul_vec,
)
from spheretop.reduction import (
    STRATUM_FREE,
    STRATUM_FULL,
    STRATUM_SO2,
    InvariantPoint,
    ReducedState,
    all_casimirs,
    casimir_C2_direct,
    casimir_C2_invariant,
    casimir_C3,
    hilbert_map,
    hilbert_vec,
    invariant_map,
    left_reduce,
    right_reduce,
    stratum_classify,
    variety_defect_vec,
    vec_to_reduced,
)
from spheretop.relequil import NoSolutionError, _re_state_vec, reconstruct_re, solve_re


@pytest.fixture(scope="module")
def states():
    """1000 states: a third on the sphere, the rest raw 16-vectors."""
    rng = np.random.default_rng(15)
    return [tuple(random_phase_state(rng, momentum_scale=float(rng.uniform(0.1, 3))))
            if i % 3 == 0 else random_flat_state(rng) for i in range(1000)]


def test_the_states_hold_signed_zeros(states):
    assert any(math.copysign(1.0, c) < 0 for v in states for c in v if c == 0.0)


def test_quaternion_primitives(states):
    for v in states:
        p, q = v[4:8], v[0:4]
        assert bits(quat_mul_vec(p, q)) == bits(typed_mul(p, q))
        assert bits(quat_inverse_vec(q)) == bits(typed_inverse(q))
        assert bits([quat_dot_vec(p, q)]) == bits([typed_inner(p, q)])
        assert quat_dot_vec(Quaternion(*p), Quaternion(*q)) == quat_dot_vec(p, q)


def test_16_to_8_map_is_the_typed_composition(states):
    for v in states:
        left, right = typed_left_reduce(v), typed_right_reduce(v)
        assert bits(body_frame_vec(v)) == bits(left)
        assert bits(space_frame_vec(v)) == bits(right)
        assert bits(hilbert_vec(left)) == bits(typed_hilbert(left))
        assert bits(invariant_map(v)) == bits(typed_hilbert(left))
        # the typed states go through the same maps
        s = vec_to_state(v)
        assert bits(left_reduce(s)) == bits(left)
        assert bits(right_reduce(s)) == bits(right)
        assert bits(hilbert_map(left_reduce(s)).as_tuple()) == bits(typed_hilbert(left))


def test_momentum_maps_and_hamiltonian(states):
    m = MassParams(0.7, 1.9)
    pot = Potential.linear(0.8)
    for v in states:
        s = vec_to_state(v)
        assert bits(momentum_left_vec(v)) == bits(typed_momentum_left(v))
        assert bits(momentum_right_vec(v)) == bits(typed_momentum_right(v))
        assert bits(momentum_left(s).components()) == bits(typed_momentum_left(v))
        assert bits(momentum_right(s).components()) == bits(typed_momentum_right(v))
        h = typed_hamiltonian_2body(v, m, pot)
        assert bits([hamiltonian_2body(v, m, pot), hamiltonian_2body(s, m, pot)]) == bits([h, h])


def test_casimirs_and_variety(states):
    for v in states:
        for u in (typed_left_reduce(v), typed_right_reduce(v)):
            p = typed_hilbert(u)
            assert bits([casimir_C2_direct(u)]) == bits([typed_casimir_C2_direct(u)])
            assert bits(all_casimirs(p)) == bits(typed_casimirs(p))
            assert bits([variety_defect_vec(p)]) == bits([typed_variety_defect(p)])


def test_invariant_functions_take_a_tuple_or_a_point(states):
    """Each function of the fully reduced space is written once, on any
    8-sequence: a plain tuple and an InvariantPoint give the same bits."""
    pole, colinear = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0), (1.0,) * 6 + (0.0, 0.0)
    strata = set()
    for p in [invariant_map(v) for v in states] + [pole, colinear]:
        pt = InvariantPoint.from_tuple(p)
        for fn in (casimir_C2_invariant, casimir_C3, variety_defect_vec):
            assert bits([fn(p)]) == bits([fn(pt)])
        assert bits(all_casimirs(p)) == bits(all_casimirs(pt))
        assert stratum_classify(p) == stratum_classify(pt)
        strata.add(stratum_classify(p))
    assert strata == {STRATUM_FREE, STRATUM_SO2, STRATUM_FULL}
    # the gradients, the integral and the Poisson tensor; the first point
    # is off the variety (delta^2 = 0 != det k = 0.75)
    grads = (hamiltonian_gradient(HamiltonianKind.two_body(MassParams(0.7, 1.9),
                                                           Potential.linear(0.8))),
             casimir_gradient("C1"), casimir_gradient("C2"), integral_I_gradient(0.5, 1.2))
    for p in ((1.0, 0.0, 0.0, 1.0, 0.0, 0.75, 0.5, 0.0), pole, colinear):
        pt = InvariantPoint.from_tuple(p)
        off = p[5] == 0.75
        for grad in grads:
            assert bits(grad(p)) == bits(grad(pt))
            assert bits(table_flow(grad, p, off)) == bits(table_flow(grad, pt, off))
        assert bits([integral_I(p, 0.5, 1.2)]) == bits([integral_I(pt, 0.5, 1.2)])
        assert (bits(table_bracket(a, b, p) for a in GENERATORS for b in GENERATORS)
                == bits(table_bracket(a, b, pt) for a in GENERATORS for b in GENERATORS))
        if off:
            with pytest.raises(OffVarietyError):
                table_flow(grads[0], p)


def test_invariant_point_is_the_flat_tuple():
    p = tuple(float(i) for i in range(8))
    pt = InvariantPoint.from_tuple(p)
    assert pt == p and pt.as_tuple() == p and (pt.k11, pt.r, pt.delta) == (0.0, 6.0, 7.0)
    with pytest.raises(TypeError):
        InvariantPoint.from_tuple(p[:7])
    # the 16-d and 10-d states are their flat vectors too
    m = MassParams(1.5, 0.5)
    re = solve_re(1.0, 1.0, m, Potential.gravitational(m))
    assert re.state == _re_state_vec(re)
    v = tuple(float(i) for i in range(1, 17))
    s = vec_to_state(v)
    left, right = left_reduce(s), right_reduce(s)
    assert s == v and left == body_frame_vec(v) and right == space_frame_vec(v)
    assert (s.g1, s.p2, left.gD) == (Quaternion(*v[0:4]), Quaternion(*v[12:16]),
                                     Quaternion(*left[6:10]))
    assert left.A1.components() + left.A2.components() == left[0:6]
    assert (left.side, right.side) == ("left", "right")
    flipped = vec_to_reduced(left, "right")
    assert tuple(flipped) == tuple(left) and flipped != left and not flipped == left
    # so are the quaternions, with the types' arithmetic
    q, a1 = Quaternion(*v[0:4]), left.A1
    assert q == v[0:4] and a1 == ImaginaryQuaternion(*left[0:3]) == left[0:3]
    for x in (pt, s, re.state, left, right, flipped, q, a1):
        for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(copied) is type(x) and copied == x
            assert getattr(copied, "side", None) == getattr(x, "side", None)
    # numpy components are stored as floats, so the CSV and JSON reprs hold
    arr = np.arange(16, dtype=np.float64) / 7.0
    for x in (PhaseState(arr[0:4], arr[4:8], arr[8:12], arr[12:16]),
              ReducedState(arr[0:3], arr[3:6], arr[6:10])):
        assert all(type(c) is float for c in x) and list(map(repr, x)) == [
            repr(float(c)) for c in arr[:len(x)]]
    with pytest.raises(ValueError):
        PhaseState(v[0:3], v[4:8], v[8:12], v[12:16])
    with pytest.raises(ValueError):
        ReducedState(v[0:4], v[4:7], v[7:11])


def test_re_state_is_the_typed_reconstruction():
    """1500 solved REs of every kind, and reconstructions at random angles."""
    rng = np.random.default_rng(16)
    kinds = set()
    for _ in range(1500):
        m1 = float(rng.uniform(0.3, 3.0))
        m = MassParams(m1, m1 if rng.random() < 0.4 else float(rng.uniform(0.3, 3.0)))
        pot = (Potential.gravitational(m) if rng.random() < 0.5
               else Potential.linear(float(rng.uniform(-2.0, 2.0))))
        eta, u = float(rng.uniform(0.01, 3.0)), rng.random()
        try:
            if u < 0.1:
                re = solve_re(0.0 if rng.random() < 0.5 else math.pi, eta, m,
                              Potential.linear(1.0), xi_mag=float(rng.uniform(0.0, 2.0)))
            elif u < 0.2:
                re = solve_re(math.pi / 2, eta, m, pot)
            else:
                re = solve_re(float(rng.uniform(0.05, math.pi - 0.05)), eta, m, pot)
        except NoSolutionError:
            continue
        kinds.add(re.kind)
        want = typed_re_state(re.phi1, re.phi2, re.xi_mag, re.eta_mag, m)
        assert bits(tuple(re.state)) == bits(want)
        assert bits(re.image) == bits(invariant_map(re.state))
        angles = {"phi1": float(rng.uniform(-4, 4)), "phi2": float(rng.uniform(-4, 4)),
                  "xi_mag": float(rng.uniform(-3, 3)), "eta_mag": float(rng.uniform(-3, 3))}
        moved = dataclasses.replace(re, **angles)
        assert bits(tuple(reconstruct_re(moved))) == bits(typed_re_state(*angles.values(), m))
    assert kinds == {"singular0", "singularPi", "acute", "obtuse", "rightAngled"}
