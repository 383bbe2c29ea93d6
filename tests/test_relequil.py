import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretop.dynamics import (
    integrate,
    make_body_rhs,
    rhs_full_reduced,
    vec_to_state,
)
from spheretop.phase_space import (
    CollisionError,
    MassParams,
    PhaseState,
    Potential,
    classify_point,
    from_body_coords,
    hamiltonian_2body,
    momentum_left,
    momentum_right,
    to_body_coords,
    two_body_energy,
)
from spheretop.quaternion import Quaternion, quat_dot_vec
from spheretop import relequil
from spheretop.energy_casimir import ec_sample
from spheretop.reduction import InvariantPoint, hilbert_map, invariant_map, left_reduce
from spheretop.relequil import (
    NoSolutionError,
    lever_residual,
    phi_branches,
    re_from_tau,
    solve_re,
    solve_re_linear_system,
    verify_re_fixed_point,
    zeta_of,
)
from spheretop.stability import fold_locus

M11 = MassParams(1.0, 1.0)
M32 = MassParams(3.0, 2.0)


def grav(m):
    return Potential.gravitational(m)


def sample_res(theta_count=8):
    """A spread of REs over kinds, masses and potentials."""
    out = []
    for m in (M11, M32):
        for pot in (grav(m), Potential.linear(1.0)):
            for theta in np.linspace(0.5, math.pi - 0.5, theta_count):
                if abs(theta - math.pi / 2) < 0.12:
                    continue
                for eta in (0.7, 1.4):
                    out.append(solve_re(float(theta), eta, m, pot))
    for pot in (grav(M11), Potential.linear(1.0)):
        f = pot.f(0.0)
        sgn = 1.0 if f > 0 else -1.0
        for phi1 in (0.4, math.pi / 4, 1.1):
            out.append(solve_re(math.pi / 2, 1.0, M11, pot, phi1=sgn * phi1))
    for theta in (0.0, math.pi):
        out.append(solve_re(theta, 0.8, M11, Potential.linear(1.0), xi_mag=1.5))
        out.append(solve_re(theta, 0.5, M32, Potential.linear(2.0), xi_mag=0.0))
    return out


class TestCase2:
    def test_frozen_example_pi_third(self):
        # f sin(theta) = 4/3 at theta = pi/3, so y = 2/3 for eta = 1
        re = solve_re(math.pi / 3, 1.0, M11, grav(M11))
        assert re.kind == "acute"
        assert re.y == pytest.approx(2.0 / 3.0, abs=1e-14)
        expected_x = (2.0 / 3.0) / math.sqrt(3.0) - 1.0
        assert re.x1 == pytest.approx(expected_x, abs=1e-14)
        assert re.x2 == pytest.approx(expected_x, abs=1e-14)

    def test_linear_solve_agrees_with_closed_forms(self):
        for m in (M11, M32):
            for pot in (grav(m), Potential.linear(1.3)):
                for theta in np.linspace(0.45, math.pi - 0.45, 9):
                    if abs(theta - math.pi / 2) < 0.1:
                        continue
                    for eta in (0.6, 1.0, 2.0):
                        re = solve_re(float(theta), eta, m, pot)
                        x1, x2, y = solve_re_linear_system(float(theta), eta, m, pot)
                        assert abs(x1 - re.x1) < 1e-12
                        assert abs(x2 - re.x2) < 1e-12
                        assert y == re.y

    def test_position_angles_solve_the_balance_equation(self):
        # independent bisection oracle for m1 sin 2phi1 = m2 sin 2phi2
        theta = math.pi / 3
        m = M32

        def h(p):
            return m.m1 * math.sin(2 * p) - m.m2 * math.sin(2 * (theta - p))

        lo, hi = 0.0, theta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h(lo) * h(mid) <= 0:
                hi = mid
            else:
                lo = mid
        phi1_oracle = 0.5 * (lo + hi)
        assert abs(h(phi1_oracle)) < 1e-12
        re = solve_re(theta, 1.0, m, grav(m))
        assert re.phi1 == pytest.approx(phi1_oracle, abs=1e-10)
        assert re.phi1 + re.phi2 == pytest.approx(theta, abs=1e-14)

    def test_equal_masses_are_isosceles(self):
        re = solve_re(1.1, 0.9, M11, grav(M11))
        assert re.isosceles and re.phi1 == pytest.approx(re.phi2)
        rep = solve_re(2.0, 0.9, M11, Potential.linear(1.0))
        assert rep.isosceles
        assert rep.phi1 == pytest.approx((rep.theta - math.pi) / 2)

    def test_branch_scan_unique_here(self):
        for theta in (1.8, 2.2, 2.8):
            assert len(phi_branches(theta, M32, attractive=True)) == 1

    def test_momenta_match_the_planar_form(self):
        for re in sample_res(theta_count=4):
            rs = left_reduce(re.state)
            assert np.allclose(rs.A1.components(), (0.0, re.x1, re.y), atol=1e-10)
            assert np.allclose(rs.A2.components(), (0.0, re.x2, -re.y), atol=1e-10)


class TestCase3:
    def test_line_of_solutions(self):
        re = solve_re(math.pi / 2, 1.0, M11, grav(M11), phi1=0.6)
        assert re.kind == "rightAngled"
        assert re.x1 + re.x2 == pytest.approx(-2.0, abs=1e-12)

    def test_line_scales_with_mass(self):
        m = MassParams(1.7, 1.7)
        re = solve_re(math.pi / 2, 0.8, m, grav(m), phi1=0.5)
        assert re.x1 + re.x2 == pytest.approx(-2.0 * 1.7 * 0.8, abs=1e-12)

    def test_unequal_masses_rejected(self):
        with pytest.raises(NoSolutionError):
            solve_re(math.pi / 2, 1.0, M32, grav(M32))

    def test_phi_window_enforced(self):
        with pytest.raises(ValueError):
            solve_re(math.pi / 2, 1.0, M11, grav(M11), phi1=-0.3)
        with pytest.raises(ValueError):
            solve_re(math.pi / 2, 1.0, M11, Potential.linear(1.0), phi1=0.3)


class TestCase1:
    def test_coincident_family(self):
        re = solve_re(0.0, 0.4, M32, Potential.linear(1.0), xi_mag=1.0)
        assert re.kind == "singular0"
        c = 1.0 - 0.4
        assert re.x1 == pytest.approx(M32.m1 * c)
        assert re.x2 == pytest.approx(M32.m2 * c)
        s = re.state
        assert s.g1.allclose(Quaternion(1.0)) and s.g2.allclose(Quaternion(1.0))

    def test_antipodal_family(self):
        re = solve_re(math.pi, 0.0, M11, Potential.linear(1.0), xi_mag=0.7)
        assert re.kind == "singularPi"
        assert re.state.g2.allclose(Quaternion(-1.0))

    def test_gravitational_singular_rejected(self):
        with pytest.raises(CollisionError):
            solve_re(0.0, 1.0, M11, grav(M11))


class TestFixedPoints:
    def test_grid_residuals(self):
        for re in sample_res():
            assert verify_re_fixed_point(re) < 1e-10, (re.kind, re.theta)

    def test_perturbed_state_is_not_fixed(self):
        re = solve_re(1.0, 1.0, M11, grav(M11))
        s = re.state
        bumped = PhaseState(g1=s.g1, p1=s.p1 + Quaternion(0, 0, 0.15, 0),
                            g2=s.g2, p2=s.p2)
        pt = hilbert_map(left_reduce(bumped))
        residual = max(abs(c) for c in rhs_full_reduced(pt, M11, grav(M11)))
        assert residual > 1e-3

    @pytest.mark.parametrize("field", [(1e-3, math.nan), (math.nan, 1e-3), (0.0, math.nan)])
    def test_a_nan_component_is_no_fixed_point(self, monkeypatch, field):
        # max kept an earlier finite component over a later NaN, and an RE
        # whose image overflowed was reported with residual 0.0
        re = solve_re(1.0, 1.0, M11, grav(M11))
        monkeypatch.setattr(relequil, "make_invariant_rhs",
                            lambda m, pot: lambda t, s: (*field, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert not math.isfinite(verify_re_fixed_point(re))

    @pytest.mark.parametrize("theta, eta, message", [
        (1.0, 1e-300, "eta_mag = 1e-300 is too small"),
        (2.2, 1e160, "eta_mag = 1e+160 is too large")])
    def test_rates_whose_squares_overflow_are_refused(self, theta, eta, message):
        # y and x_i are finite, but k11 = x1^2 + y^2 of the image is not
        with pytest.raises(ValueError) as exc:
            solve_re(theta, eta, M11, grav(M11))
        assert str(exc.value).startswith(message)

    def test_simple_rotation_is_cospherical(self):
        re = re_from_tau(1.1, 0.0, M11, grav(M11))
        assert re.xi_mag == pytest.approx(re.eta_mag, rel=1e-12)
        assert verify_re_fixed_point(re) < 1e-10
        assert classify_point(re.state) == "cospherical"
        # the whole motion stays on the 2-sphere spanned by (1, i, k)
        m, pot = re.masses, re.potential
        traj = integrate(make_body_rhs(m, pot), to_body_coords(re.state), 5.0,
                         sample_dt=0.5)
        for y in traj.ys:
            st = vec_to_state(from_body_coords(y))
            assert abs(st.g1.y) < 1e-8 and abs(st.g2.y) < 1e-8


class TestInvariantRelations:
    def test_lever_identity(self):
        for re in sample_res():
            assert abs(lever_residual(re)) < 1e-10, (re.kind, re.theta)

    def test_planar_orthogonality(self):
        for re in sample_res(theta_count=4):
            pt = hilbert_map(left_reduce(re.state))
            assert abs(pt.k13) < 1e-10 and abs(pt.k23) < 1e-10

    def test_equal_mass_momentum_norms(self):
        for theta in (0.7, 1.1, 2.0, 2.6):
            re = solve_re(theta, 1.0, M11, Potential.linear(1.0))
            assert re.x1 ** 2 + re.y ** 2 == pytest.approx(
                re.x2 ** 2 + re.y ** 2, rel=1e-12)

    def test_momentum_alignment(self):
        for re in sample_res(theta_count=4):
            rho = momentum_right(re.state)
            assert abs(rho.x) < 1e-12 and abs(rho.z) < 1e-12
            assert rho.y == pytest.approx(re.x1 + re.x2, abs=1e-10)

    def test_separation_angle_is_constant_along_the_flow(self):
        re = solve_re(1.0, 1.2, M11, grav(M11))
        traj = integrate(make_body_rhs(M11, grav(M11)),
                         to_body_coords(re.state), 10.0, sample_dt=1.0)
        for y in traj.ys:
            st = vec_to_state(from_body_coords(y))
            assert quat_dot_vec(st.g1, st.g2) == pytest.approx(
                math.cos(1.0), abs=1e-8)

    def test_separation_angle_error_at_default_tolerances(self):
        # 4.2e-10 is what the Dormand-Prince 5(4) integrator reached here at
        # its 1e-10 default; the integrator and its default tolerance may
        # change only together, and never to a less accurate pair
        re = solve_re(1.0, 1.2, M11, grav(M11))
        traj = integrate(make_body_rhs(M11, grav(M11)),
                         to_body_coords(re.state), 10.0, sample_dt=1.0)
        err = max(abs(quat_dot_vec(st.g1, st.g2) - math.cos(1.0))
                  for st in (vec_to_state(from_body_coords(y)) for y in traj.ys))
        assert err < 4.2e-10


class TestReconstruction:
    def test_round_trip_through_parameters(self):
        # the state built from (phi1, phi2, xi, eta) carries the momenta and
        # energy that the closed forms give from the rates: |lambda| =
        # |M xi - S eta|, |rho| = |M eta - S xi|, H = k11/2m1 + k22/2m2 + V
        for re in sample_res(theta_count=4):
            m, s = re.masses, re.state
            big_m = m.m1 + m.m2
            big_s = m.m1 * math.cos(2 * re.phi1) + m.m2 * math.cos(2 * re.phi2)
            k11, k22 = re.x1 ** 2 + re.y ** 2, re.x2 ** 2 + re.y ** 2
            expect = ((big_m * re.xi_mag - big_s * re.eta_mag) ** 2,
                      (big_m * re.eta_mag - big_s * re.xi_mag) ** 2,
                      two_body_energy(k11, k22, re.potential.v(math.cos(re.theta)), m))
            got = (momentum_left(s).norm2(), momentum_right(s).norm2(),
                   hamiltonian_2body(s, m, re.potential))
            scale = max(1.0, k11, k22, *map(abs, expect))
            for g, e in zip(got, expect):
                assert g == pytest.approx(e, abs=1e-13 * scale), re

    def test_state_is_built_on_first_read_only(self, monkeypatch):
        # solving builds no point; the image maps the flat point and builds no
        # PhaseState; the state is built once, on its first read
        points, states = [], []
        flat, typed = relequil._re_state_vec, relequil.vec_to_state
        monkeypatch.setattr(relequil, "_re_state_vec", lambda re: points.append(re) or flat(re))
        monkeypatch.setattr(relequil, "vec_to_state", lambda v: states.append(v) or typed(v))
        res = [solve_re(2.2, 1.0, M32, grav(M32)), re_from_tau(math.pi / 2, 0.5, M11, grav(M11)),
               solve_re(0.0, 0.8, M11, Potential.linear(1.0), xi_mag=1.5)]
        assert zeta_of(1.0, M32, grav(M32)) and points == states == []
        for re in res:
            assert re.image is re.image and re.image == invariant_map(re.state)
            assert re.state is re.state
        assert points == [re for re in res for _ in range(2)] and len(states) == 3

    def test_right_angle_without_phi1_is_the_isosceles_re(self):
        for pot, phi1 in ((grav(M11), math.pi / 4), (Potential.linear(1.0), -math.pi / 4)):
            for tau in (-1.0, 0.0, 2.0):
                re = re_from_tau(math.pi / 2, tau, M11, pot)
                assert re.isosceles and re.phi1 == phi1
                assert re.xi_mag / re.eta_mag == pytest.approx(math.exp(tau), rel=1e-12)
                assert verify_re_fixed_point(re) < 1e-10
        with pytest.raises(NoSolutionError):
            re_from_tau(math.pi / 2, 0.0, M32, grav(M32))

    def test_rates_parameterisation(self):
        re = re_from_tau(2.2, 0.8, M32, grav(M32))
        assert re.xi_mag / re.eta_mag == pytest.approx(math.exp(0.8), rel=1e-12)
        assert verify_re_fixed_point(re) < 1e-10


class TestErrors:
    def test_force_free_potential_rejected(self):
        dead = Potential.custom(v=lambda r: 1.0, f=lambda r: 0.0, fprime=lambda r: 0.0)
        with pytest.raises(NoSolutionError):
            solve_re(1.0, 1.0, M11, dead)

    def test_determined_parameters_rejected(self):
        with pytest.raises(ValueError):
            solve_re(1.0, 1.0, M11, grav(M11), phi1=0.4)
        with pytest.raises(ValueError):
            solve_re(1.0, 1.0, M11, grav(M11), xi_mag=0.4)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_phi1_is_determined_at_the_singular_thetas(self, theta):
        # solve_re ignored it there, and re_from_tau divided by zeta = 0
        lin = Potential.linear(1.0)
        with pytest.raises(ValueError, match="phi1 is determined away from theta = pi/2"):
            solve_re(theta, 0.5, M32, lin, phi1=0.3)
        with pytest.raises(ValueError, match="phi1 is determined away from theta = pi/2"):
            re_from_tau(theta, 0.3, M11, lin, phi1=0.3)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_a_negative_xi_is_refused_at_the_singular_thetas(self, theta):
        # the gauge has nonnegative rates; xi_mag = -1 was recorded as the
        # RE's magnitude.  A negative eta_mag is refused there too
        lin = Potential.linear(1.0)
        with pytest.raises(ValueError, match="eta_mag must be nonnegative"):
            solve_re(theta, -1.0, M32, lin)
        with pytest.raises(ValueError, match=r"xi_mag = -1\.0 must be nonnegative"):
            solve_re(theta, 0.5, M32, lin, xi_mag=-1.0)
        with pytest.raises(ValueError, match="xi_mag = -1e-300 must be nonnegative"):
            solve_re(theta, 0.5, M32, lin, xi_mag=-1e-300)
        assert solve_re(theta, 0.5, M32, lin, xi_mag=0.0).xi_mag == 0.0

    def test_theta_range(self):
        with pytest.raises(ValueError):
            solve_re(-0.1, 1.0, M11, grav(M11))

    def test_non_finite_numbers_rejected(self):
        lin = Potential.linear(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            for args, kw in (((bad, 1.0, M11, grav(M11)), {}),
                             ((1.0, bad, M11, grav(M11)), {}),
                             ((0.0, 1.0, M11, lin), {"xi_mag": bad})):
                with pytest.raises(ValueError, match="finite"):
                    solve_re(*args, **kw)


class TestClosedFormAngle:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.floats(1e-6, math.pi - 1e-6).filter(lambda t: abs(t - math.pi / 2) >= 1e-6),
           st.booleans())
    def test_one_branch_in_the_window_solves_the_balance(self, m1, m2, theta, attractive):
        m = MassParams(m1, m2)
        (phi1,) = phi_branches(theta, m, attractive)
        if attractive:
            assert max(0.0, theta - math.pi / 2) < phi1 < min(theta, math.pi / 2)
        else:
            assert max(-math.pi / 2, theta - math.pi) < phi1 < min(0.0, theta - math.pi / 2)
        balance = m1 * math.sin(2 * phi1) - m2 * math.sin(2 * (theta - phi1))
        assert abs(balance) <= 1e-12 * max(m1, m2)
        assert (math.sin(2 * phi1) > 0) == attractive
        # linear(gamma) has f = -gamma
        re = solve_re(theta, 1.0, m, Potential.linear(-1.0 if attractive else 1.0))
        assert re.phi1 == phi1
        # zeta -> 0 at pi/2 for unequal masses, so xi grows like
        # 1/|theta - pi/2|; the residual is rounding, about 2e-14 xi
        assert verify_re_fixed_point(re) < 1e-10 * max(1.0, re.xi_mag)


def scalar_phi_branches(theta, m, attractive):
    """The point-by-point branch scan, kept as the oracle for ``phi_branches``."""
    if attractive:
        lo, hi = max(0.0, theta - math.pi / 2), min(theta, math.pi / 2)
    else:
        lo, hi = max(-math.pi / 2, theta - math.pi), min(0.0, theta - math.pi / 2)
    if hi <= lo:
        return ()

    def h(p):
        return m.m1 * math.sin(2 * p) - m.m2 * math.sin(2 * theta - 2 * p)

    sgn = 1.0 if attractive else -1.0
    grid = np.linspace(lo + 1e-12, hi - 1e-12, 721)
    vals = [h(p) for p in grid]
    roots = []
    for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if va == 0.0:
            roots.append(a)
        elif va * vb < 0.0:
            x0, x1v, f0 = a, b, va
            for _ in range(80):
                mid = 0.5 * (x0 + x1v)
                fm = h(mid)
                if f0 * fm <= 0.0:
                    x1v = mid
                else:
                    x0, f0 = mid, fm
            roots.append(0.5 * (x0 + x1v))
    return tuple(float(p) for p in roots
                 if sgn * math.sin(2 * p) > 1e-12 and sgn * math.sin(2 * (theta - p)) > 1e-12)


class TestHotPath:
    """The sweep path computes zeta in closed form and lists branches only on
    request; both must reproduce the full construction exactly."""

    def test_vectorised_scan_matches_the_scalar_oracle(self):
        rng = np.random.default_rng(20190401)
        thetas = np.concatenate([rng.uniform(0.0, math.pi, 60),
                                 [0.3, math.pi / 4, math.pi / 2, 2.0, math.pi - 1e-9]])
        for theta in thetas:
            for m in (M11, M32, MassParams(1.0, 7.0)):
                for attractive in (True, False):
                    expect = scalar_phi_branches(float(theta), m, attractive)
                    got = phi_branches(float(theta), m, attractive)
                    assert all(type(p) is float for p in got)
                    if m.equal and theta == math.pi / 2:
                        # the relation vanishes identically, so the scan lists
                        # rounding noise; the closed form gives the isosceles
                        # angle, which is among the noise
                        assert got == (math.pi / 4 if attractive else -math.pi / 4,)
                        assert min(abs(p - got[0]) for p in expect) <= 1e-14
                        continue
                    assert len(got) == len(expect), (theta, m, attractive)
                    assert all(abs(g - e) <= 1e-14 for g, e in zip(got, expect)), \
                        (theta, m, attractive)

    def test_zeta_of_is_the_solved_zeta(self):
        rng = np.random.default_rng(7)
        for m in (M11, M32):
            for pot in (grav(m), Potential.linear(1.0)):
                for theta in rng.uniform(0.05, math.pi - 0.05, 40):
                    theta = float(theta)
                    if abs(theta - math.pi / 2) < 1e-6:
                        continue
                    assert zeta_of(theta, m, pot) == solve_re(theta, 1.0, m, pot).zeta
        # the right-angled and singular cases still go through solve_re
        lin = Potential.linear(1.0)
        assert zeta_of(math.pi / 2, M11, grav(M11)) == solve_re(
            math.pi / 2, 1.0, M11, grav(M11)).zeta
        assert zeta_of(0.0, M11, lin) == solve_re(0.0, 1.0, M11, lin).zeta == 0.0

    def test_zeta_of_keeps_the_solver_errors(self):
        dead = Potential.custom(v=lambda r: 1.0, f=lambda r: 0.0, fprime=lambda r: 0.0)
        for args, exc in (((math.pi / 2, M32, grav(M32)), NoSolutionError),
                          ((1.0, M11, dead), NoSolutionError),
                          ((-0.1, M11, grav(M11)), ValueError),
                          ((math.pi + 0.1, M11, grav(M11)), ValueError),
                          ((0.0, M11, grav(M11)), CollisionError)):
            with pytest.raises(exc):
                solve_re(args[0], 1.0, *args[1:])
            with pytest.raises(exc):
                zeta_of(*args)

    def test_sweeps_never_scan_branches(self, monkeypatch):
        scan = phi_branches

        def refuse(*args, **kwargs):
            raise AssertionError("branch scan on the hot path")

        monkeypatch.setattr(relequil, "phi_branches", refuse)
        re = solve_re(2.2, 1.0, M32, grav(M32))
        ec_sample(2.2, 0.5, M32, grav(M32))
        assert fold_locus(1.7, M32) is not None
        with pytest.raises(AssertionError):
            re.phi1_branches
        monkeypatch.setattr(relequil, "phi_branches", scan)
        assert re.phi1_branches == (re.phi1,)
        assert re.to_json_dict()["phi1_branches"] == [re.phi1]
        assert solve_re(math.pi / 2, 1.0, M11, grav(M11)).phi1_branches == ()


def _v(r):
    return 0.7 * r


def _f(r):
    return -0.7


def _fprime(r):
    return 0.0


class TestOneStepRE:
    """An RE is built in one step and caches its state and image in its
    instance dict; it keeps the semantics of a frozen dataclass."""

    @pytest.fixture
    def res(self):
        # a potential of module-level functions, so that pickle can name them
        pot = Potential.custom(_v, _f, _fprime)
        return [solve_re(1.1, 0.8, M11, pot), solve_re(math.pi / 2, 0.8, M11, pot, phi1=-0.4),
                solve_re(math.pi, 0.3, M32, pot, xi_mag=0.6)]

    def test_fields_are_frozen(self, res):
        re = res[0]
        for name in ("theta", "image", "state"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(re, name, 1.0)
        assert re.theta == 1.1

    def test_eq_and_hash_compare_the_fields_alone(self, res):
        for re in res:
            twin = dataclasses.replace(re)
            re.image, re.state  # cached in re, not in twin
            assert "image" in vars(re) and "image" not in vars(twin)
            assert re == twin and hash(re) == hash(twin)
            other = dataclasses.replace(re, eta_mag=re.eta_mag * 2)
            assert other != re

    def test_replace_round_trips_every_field_with_a_fresh_image(self, res):
        for re in res:
            re.image
            twin = dataclasses.replace(re)
            names = [f.name for f in dataclasses.fields(re)]
            assert [getattr(twin, n) for n in names] == [getattr(re, n) for n in names]
            moved = dataclasses.replace(re, eta_mag=re.eta_mag + 0.1)
            assert "image" not in vars(moved)
            assert moved.image == InvariantPoint.from_tuple(invariant_map(moved.state))
            assert moved.image != re.image

    def test_copy_and_pickle(self, res):
        for re in res:
            for fresh in (copy.copy(re), copy.deepcopy(re), pickle.loads(pickle.dumps(re))):
                assert fresh == re and hash(fresh) == hash(re)
                assert fresh.image == re.image and fresh.state == re.state
                assert fresh.to_json_dict() == re.to_json_dict()
            re.image  # a cached image travels with the instance
            assert pickle.loads(pickle.dumps(re)).__dict__ == re.__dict__

    def test_fields_keep_their_order(self, res):
        order = ["kind", "theta", "phi1", "phi2", "xi_mag", "eta_mag", "x1", "x2", "y", "zeta",
                 "masses", "potential", "isosceles"]
        assert [f.name for f in dataclasses.fields(res[0])] == order
        assert list(res[0].to_json_dict()) == [*order, "phi1_branches", "state"]
