import dataclasses
import math

import numpy as np
import pytest

from spheretop.dynamics import make_invariant_rhs, rhs_full_reduced
from spheretop.phase_space import (
    MassParams,
    Potential,
    momentum_left,
    momentum_right,
    random_phase_state,
)
from spheretop.poisson import integral_I_gradient, table_flow
from spheretop.reduction import InvariantPoint, hilbert_map, invariant_map, left_reduce
from spheretop.relequil import re_from_tau, re_image, solve_re, zeta_of
from spheretop import energy_casimir, stability
from spheretop.stability import (
    _momentum_jacobian_det,
    charpoly_2body,
    charpoly_lagrange,
    classify_roots,
    classify_stability_eigs,
    closed_form_eigs_2body,
    closed_form_eigs_lagrange,
    fold_locus,
    jacobian_full_reduced,
    linearize,
    quartet_roots,
    quartet_spectrum,
    REAL_PART_TOL,
    ZERO_EIG_TOL,
    spectrum_gap,
)

M11 = MassParams(1.0, 1.0)
M32 = MassParams(3.0, 2.0)


def grav(m):
    return Potential.gravitational(m)


def nonzero_quartet(eigs, tol=1e-8):
    scale = max(1.0, np.abs(eigs).max())
    return np.array(sorted((e for e in eigs if abs(e) >= tol * scale),
                           key=lambda z: (round(z.real, 9), z.imag)))


def multiset_distance(a, b):
    if len(a) != len(b):
        return math.inf
    pool = [complex(z) for z in b]
    worst = 0.0
    for x in a:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - x))
        worst = max(worst, abs(pool[j] - x))
        pool.pop(j)
    return worst


def quartet_from_pairs(pairs):
    return [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]


def re_grid():
    grid = []
    for m in (M11, M32):
        for pot in (grav(m), Potential.linear(1.0)):
            for theta in np.linspace(0.45, math.pi - 0.45, 7):
                if abs(theta - math.pi / 2) < 0.15:
                    continue
                for eta in (0.7, 1.3):
                    grid.append(solve_re(float(theta), eta, m, pot))
    return grid


class TestLinearisation:
    def test_four_structural_zeros(self):
        for re in re_grid()[::5]:
            rep = linearize(re)
            assert rep.zero_count == 4

    def test_matches_finite_difference_jacobian(self, rng):
        for m, pot in ((M11, grav(M11)), (M32, Potential.linear(1.0))):
            re = solve_re(1.0 if m is M11 else 2.1, 1.1, m, pot)
            pt = hilbert_map(left_reduce(re.state))
            analytic = jacobian_full_reduced(pt, m, pot.f(pt.r), pot.fprime(pt.r))
            h = 1e-6
            base = np.array(pt)
            fd = np.zeros((8, 8))
            for j in range(8):
                up, dn = base.copy(), base.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (np.array(rhs_full_reduced(InvariantPoint.from_tuple(up), m, pot))
                            - np.array(rhs_full_reduced(InvariantPoint.from_tuple(dn), m, pot))) / (2 * h)
            assert np.allclose(analytic, fd, atol=1e-6)

    @pytest.mark.parametrize("masses", [(0.8, 1.9), (3.0, 2.0)], ids=["0.8-1.9", "3-2"])
    @pytest.mark.parametrize("kind", ["grav", "linear"])
    def test_jacobian_matches_central_differences_off_the_res(self, rng, masses, kind):
        # at an RE k13 = k23 = 0, which hides every entry they multiply; the
        # field's Jacobian is the same on all of R^8, so generic images test it
        m = MassParams(*masses)
        pot = grav(m) if kind == "grav" else Potential.linear(0.7)
        rhs, h = make_invariant_rhs(m, pot), 1e-6
        worst, points = 0.0, 0
        while points < 100:
            pt = hilbert_map(left_reduce(random_phase_state(rng)))
            if abs(pt.r) > 0.9 or min(abs(pt.k13), abs(pt.k23)) < 1e-3:
                continue
            points += 1
            analytic = jacobian_full_reduced(pt, m, pot.f(pt.r), pot.fprime(pt.r))
            fd = np.empty((8, 8))
            for j in range(8):
                up, dn = list(pt), list(pt)
                up[j] += h
                dn[j] -= h
                fd[:, j] = (np.array(rhs(0.0, up)) - np.array(rhs(0.0, dn))) / (2 * h)
            worst = max(worst, np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max()))
        assert worst < 1e-7

    def test_spectrum_symmetric_under_negation(self):
        for re in re_grid()[::4]:
            eigs = linearize(re).eigenvalues
            assert multiset_distance(eigs, -eigs) < 1e-8 * max(1.0, np.abs(eigs).max())

    def test_rejects_non_equilibrium_points(self):
        from spheretop.phase_space import PhaseState
        from spheretop.quaternion import Quaternion
        re = solve_re(1.0, 1.0, M11, grav(M11))
        s = re.state
        bad = PhaseState(g1=s.g1, p1=s.p1 + Quaternion(0, 0.2, 0, 0), g2=s.g2, p2=s.p2)
        # linearize reads the RE's image; give it that of the perturbed, non-RE state
        vars(re)["image"] = InvariantPoint.from_tuple(invariant_map(bad))
        assert max(abs(re.image.k13), abs(re.image.k23)) > 1e-3
        with pytest.raises(ValueError, match="k13, k23 must vanish"):
            linearize(re)

    def test_one_query_maps_the_state_once(self, monkeypatch):
        # one query builds its state vector, maps it and runs LAPACK once each
        from spheretop import reduction, relequil
        from spheretop.relequil import verify_re_fixed_point

        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(reduction, "body_frame_vec")
        counted(relequil, "_re_state_vec")
        counted(np.linalg._umath_linalg, "eigvals")
        lin = Potential.linear(1.0)
        for re in (solve_re(2.2, 1.0, M32, grav(M32)), solve_re(0.0, 0.4, M32, lin, xi_mag=1.0),
                   solve_re(math.pi / 2, 0.8, M11, lin, phi1=-0.3)):
            calls.clear()
            verify_re_fixed_point(re)
            linearize(re)
            assert calls == {"body_frame_vec": 1, "_re_state_vec": 1, "eigvals": 1}, re.kind


class TestGravitationalSpectra:
    def test_charpoly_matches_eigenvalues(self):
        for m in (M11, M32):
            for theta in (0.6, 1.2, 1.9, 2.5):
                for eta in (0.8, 1.5):
                    re = solve_re(theta, eta, m, grav(m))
                    c0, c2 = charpoly_2body(re)
                    quartet = nonzero_quartet(linearize(re).eigenvalues)
                    poly = np.poly(quartet)  # t^4 + a3 t^3 + a2 t^2 + a1 t + a0
                    scale = max(1.0, abs(c0), abs(c2))
                    assert abs(poly[1]) < 1e-8 * scale
                    assert abs(poly[3]) < 1e-8 * scale
                    assert abs(poly[2].real - c2) < 1e-8 * scale
                    assert abs(poly[4].real - c0) < 1e-8 * scale

    def test_closed_forms_match_numerics(self):
        for m in (M11, M32):
            for theta in (0.6, 1.2, 1.9, 2.5):
                re = solve_re(theta, 1.0, m, grav(m))
                z_pair, w_pair = closed_form_eigs_2body(re)
                quartet = nonzero_quartet(linearize(re).eigenvalues)
                dist = multiset_distance(quartet, quartet_from_pairs((z_pair, w_pair)))
                assert dist < 1e-8 * max(1.0, np.abs(quartet).max())

    def test_z_quartet_always_imaginary(self):
        for m in (M11, M32):
            for theta in np.linspace(0.45, math.pi - 0.45, 9):
                if abs(theta - math.pi / 2) < 0.05:
                    continue
                re = solve_re(float(theta), 1.0, m, grav(m))
                (z, _), _ = closed_form_eigs_2body(re)
                assert abs(z.real) < 1e-12 and abs(z.imag) > 1e-8
                # the paper's closed form of c2/2 in eta, manifestly positive,
                # so the z-pair cannot degenerate
                th, eta, m1, m2 = theta, re.eta_mag, m.m1, m.m2
                paper = ((16.0 * eta ** 4 * math.cos(th) ** 2 * math.sin(th) ** 6
                          + m1 * m1 + m2 * m2 + 2.0 * m1 * m2 * math.cos(2 * th))
                         / (8.0 * eta ** 2 * math.sin(th) ** 6 * math.cos(th) ** 2))
                half_c2 = charpoly_2body(re)[1] / 2.0
                assert half_c2 == pytest.approx(paper, rel=1e-10)
                assert half_c2 > 0.0

    def test_acute_all_imaginary_stable(self):
        for theta in (0.5, 0.9, 1.3):
            for m in (M11, M32):
                rep = linearize(solve_re(theta, 1.0, m, grav(m)))
                assert rep.classification == "linearly_stable"

    def test_equal_mass_obtuse_w_pair_real(self):
        re = solve_re(2.2, 1.0, M11, grav(M11))
        _, (w, _) = closed_form_eigs_2body(re)
        assert abs(w.imag) < 1e-12 and w.real > 1e-6
        assert linearize(re).classification == "linearly_unstable"

    def test_right_angled_non_isosceles_imaginary(self):
        re = solve_re(math.pi / 2, 1.0, M11, grav(M11), phi1=0.5)
        z_pair, w_pair = closed_form_eigs_2body(re)
        for lam in quartet_from_pairs((z_pair, w_pair)):
            assert abs(lam.real) < 1e-12
        assert abs(w_pair[0].imag) > 1e-8
        assert linearize(re).classification == "linearly_stable"

    def test_right_angled_isosceles_degenerates(self):
        re = solve_re(math.pi / 2, 1.0, M11, grav(M11), phi1=math.pi / 4)
        c0, _ = charpoly_2body(re)
        assert abs(c0) < 1e-12
        assert linearize(re).classification == "degenerate"


    def test_charpoly_2body_refuses_another_potential(self):
        re = solve_re(1.0, 1.0, M11, Potential.linear(1.0))
        with pytest.raises(ValueError, match="applies to the gravitational potential"):
            charpoly_2body(re)


class TestLagrangeSpectra:
    def test_charpoly_lagrange_refuses_unequal_masses_off_the_right_angle(self):
        re = solve_re(1.0, 1.0, MassParams(1.0, 2.0), Potential.linear(1.0))
        with pytest.raises(ValueError, match=r"needs \|A1\| = \|A2\| \(equal masses\)"):
            charpoly_lagrange(re, 1.0, 1.0)

    def test_charpoly_matches_eigenvalues(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(1 / alpha, 1 / alpha)
        pot = Potential.linear(gamma)
        for theta in (0.4, 1.0, 2.0, 2.7):
            for eta in (0.6, 1.2):
                re = solve_re(theta, eta, m, pot)
                c0, c2 = charpoly_lagrange(re, alpha, gamma)
                quartet = nonzero_quartet(linearize(re).eigenvalues)
                poly = np.poly(quartet)
                scale = max(1.0, abs(c0), abs(c2))
                assert abs(poly[2].real - c2) < 1e-8 * scale
                assert abs(poly[4].real - c0) < 1e-8 * scale
                pairs = closed_form_eigs_lagrange(re, alpha, gamma)
                dist = multiset_distance(quartet, quartet_from_pairs(pairs))
                assert dist < 1e-8 * max(1.0, np.abs(quartet).max())

    def test_right_angle_factorisation(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        re = solve_re(math.pi / 2, 1.0, m, Potential.linear(gamma), phi1=-0.5)
        c0, c2 = charpoly_lagrange(re, alpha, gamma)
        k11, k22 = re.x1 ** 2 + re.y ** 2, re.x2 ** 2 + re.y ** 2
        assert c2 == pytest.approx(2 * alpha ** 2 * (k11 + k22))
        assert c0 == pytest.approx(alpha ** 4 * (k11 - k22) ** 2)
        quartet = nonzero_quartet(linearize(re).eigenvalues)
        pairs = closed_form_eigs_lagrange(re, alpha, gamma)
        assert multiset_distance(quartet, quartet_from_pairs(pairs)) < 1e-8

    def test_right_angle_isosceles_repeated_zeros(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        re = solve_re(math.pi / 2, 1.0, m, Potential.linear(gamma), phi1=-math.pi / 4)
        c0, _ = charpoly_lagrange(re, alpha, gamma)
        assert c0 == pytest.approx(0.0, abs=1e-14)
        assert linearize(re).classification == "degenerate"

    def test_upright_limit_real_pair(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        re = solve_re(0.0, 0.6, m, Potential.linear(gamma), xi_mag=1.1)
        pairs = closed_form_eigs_lagrange(re, alpha, gamma)
        assert any(abs(p[0].real - 2.0) < 1e-12 for p in pairs)  # sqrt(2 a g)
        quartet = nonzero_quartet(linearize(re).eigenvalues)
        assert multiset_distance(quartet, quartet_from_pairs(pairs)) < 1e-8

    def test_spin_identity_and_hanging_stability(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        pot = Potential.linear(gamma)
        for theta in (1.9, 2.3, 2.8):
            for eta in (0.5, 1.0, 2.0):
                re = solve_re(theta, eta, m, pot)
                # the second pair squares to -(4 a^2 |R|^2 - 8 a g cos th), which
                # the paper writes as 4 eta^2 + a^2 g^2/eta^2 - 4 a g cos th > 0
                _, (b, _) = closed_form_eigs_lagrange(re, alpha, gamma)
                paper = (4.0 * eta ** 2 + alpha ** 2 * gamma ** 2 / eta ** 2
                         - 4.0 * alpha * gamma * math.cos(theta))
                assert -(b * b).real == pytest.approx(paper, rel=1e-10)
                assert -(b * b).real > 0.0
                rep = linearize(re)
                assert np.all(np.abs(rep.eigenvalues.real) < 1e-8)
                assert rep.classification == "linearly_stable"

    def test_upright_unstable(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        for theta in (0.3, 0.8, 1.2):
            rep = linearize(solve_re(theta, 1.0, m, Potential.linear(gamma)))
            assert rep.classification == "linearly_unstable"


class TestFold:
    def test_no_fold_for_equal_masses(self):
        for theta in (1.8, 2.2, 2.6):
            assert fold_locus(theta, M11) is None

    def test_fold_found_and_certified(self):
        res = fold_locus(1.7, M32)
        assert res is not None
        assert abs(res.c0) < 1e-8
        assert res.jacobian_det < 1e-6
        pot = grav(M32)
        below = re_from_tau(1.7, res.tau - 0.3, M32, pot)
        above = re_from_tau(1.7, res.tau + 0.3, M32, pot)
        _, (w_b, _) = closed_form_eigs_2body(below)
        _, (w_a, _) = closed_form_eigs_2body(above)
        assert abs(w_b.real) < 1e-12 and w_b.imag != 0.0
        assert abs(w_a.imag) < 1e-12 and w_a.real > 0.0

    def test_jacobian_degenerates_only_on_the_fold(self):
        res = fold_locus(1.7, M32)
        off = fold_locus(1.7, M32, tau_max=res.tau)  # truncated scan misses it
        assert off is None or abs(off.tau - res.tau) < 1e-6
        pot = grav(M32)
        from spheretop.phase_space import momentum_left, momentum_right
        h = 1e-5

        def mom(th, ta):
            s = re_from_tau(th, ta, M32, pot).state
            return np.array([momentum_left(s).norm2(), momentum_right(s).norm2()])

        tau_off = res.tau + 0.7
        jac = np.column_stack([
            (mom(1.7 + h, tau_off) - mom(1.7 - h, tau_off)) / (2 * h),
            (mom(1.7, tau_off + h) - mom(1.7, tau_off - h)) / (2 * h),
        ])
        det_norm = abs(np.linalg.det(jac)) / np.prod(np.linalg.norm(jac, axis=1))
        assert det_norm > 1e-4

    def test_requires_obtuse_angle(self):
        with pytest.raises(ValueError):
            fold_locus(1.0, M32)

    def test_certificate_is_free_of_the_step_error(self):
        # 1.5e-4 below the degenerate fold point theta* = 1.755586255062735,
        # where the gradient of |rho|^2 is small: a plain central difference
        # read 1.05e-6 here, so this theta guards the closed-form certificate
        res = fold_locus(1.755432857409167, M32)
        assert abs(res.c0) < 1e-8
        assert res.jacobian_det < 1e-6

    @pytest.mark.parametrize("masses", [(3.0, 2.0), (2.0, 3.0), (1.0, 7.0), (1.0, 1.0)])
    def test_c0_is_affine_in_cosh_tau(self, masses):
        # on the family k11/m1^2 and k22/m2^2 are (f sin th/zeta) cosh(tau)
        # plus terms free of tau, so only the cross term of c0 moves
        m = MassParams(*masses)
        pot = grav(m)
        taus = np.linspace(0.0, 8.0, 9)
        for theta in (1.6, 1.7, 2.0, 2.5):
            f = pot.f(math.cos(theta))
            s = (4 * (m.m1 + m.m2) * f * math.cos(theta)
                 / (zeta_of(theta, m, pot) * math.sin(theta) ** 2))
            c0 = np.array([charpoly_2body(re_from_tau(theta, t, m, pot))[0] for t in taus])
            affine = c0[0] + s * (np.cosh(taus) - 1.0)
            assert np.max(np.abs(c0 - affine)) <= 1e-12 * np.max(np.abs(c0)), theta

    @pytest.mark.parametrize("masses", [(3.0, 2.0), (2.0, 3.0), (1.0, 7.0)])
    def test_fold_matches_a_bisection_on_the_sign_of_c0(self, masses):
        m = MassParams(*masses)
        pot = grav(m)
        for theta in (1.6, 1.7, 2.0, 2.5):
            def c0(tau):
                return charpoly_2body(re_from_tau(theta, tau, m, pot))[0]

            res = fold_locus(theta, m)
            lo, hi, c_lo = 0.0, 8.0, c0(0.0)
            if c_lo * c0(hi) > 0.0:
                assert res is None, theta
                continue
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                c_mid = c0(mid)
                if c_lo * c_mid <= 0.0:
                    hi = mid
                else:
                    lo, c_lo = mid, c_mid
            assert res.tau == pytest.approx(lo, rel=1e-12), theta

    @pytest.mark.parametrize("masses", [(3.0, 2.0), (1.0, 7.0), (1.0, 1.0)])
    def test_momentum_norms_have_the_closed_forms(self, masses):
        # |lambda|^2 = (M xi - eta S)^2, |rho|^2 = (M eta - xi S)^2 on both
        # families: the sine terms cancel because m1 sin 2phi1 = m2 sin 2phi2
        m = MassParams(*masses)
        pot = grav(m)
        big_m = m.m1 + m.m2
        for theta in (0.6, 1.2, 2.0, 2.6):
            for tau in np.linspace(-1.0, 1.0, 5):
                re = re_from_tau(theta, float(tau), m, pot)
                s = m.m1 * math.cos(2 * re.phi1) + m.m2 * math.cos(2 * re.phi2)
                lam2 = (big_m * re.xi_mag - re.eta_mag * s) ** 2
                rho2 = (big_m * re.eta_mag - re.xi_mag * s) ** 2
                assert momentum_left(re.state).norm2() == pytest.approx(lam2, rel=1e-12)
                assert momentum_right(re.state).norm2() == pytest.approx(rho2, rel=1e-12)

    @pytest.mark.parametrize("masses", [(3.0, 2.0), (2.0, 3.0), (1.0, 7.0)])
    def test_exact_jacobian_matches_mpmath_derivatives(self, masses):
        import mpmath as mp

        m = MassParams(*masses)
        pot = grav(m)
        m1, m2 = mp.mpf(m.m1), mp.mpf(m.m2)

        def norms(theta, tau, phi_guess):
            # the branch m1 sin 2phi1 = m2 sin 2(theta - phi1), the rate
            # 2 e^tau eta^2 = f sin(theta)/zeta with f = m1 m2 (1 - cos^2)^(-3/2),
            # xi = e^tau eta, and the closed-form momentum norms
            phi1 = mp.findroot(lambda p: m1 * mp.sin(2 * p) - m2 * mp.sin(2 * (theta - p)),
                               phi_guess)
            zeta = m1 * mp.sin(2 * phi1)
            s = m1 * mp.cos(2 * phi1) + m2 * mp.cos(2 * (theta - phi1))
            f = m1 * m2 * (1 - mp.cos(theta) ** 2) ** mp.mpf(-1.5)
            eta2 = f * mp.sin(theta) / (2 * mp.exp(tau) * zeta)
            e = mp.exp(tau)
            return eta2 * ((m1 + m2) * e - s) ** 2, eta2 * ((m1 + m2) - e * s) ** 2

        with mp.workdps(30):
            for theta in (1.65, 1.9, 2.3, 2.8):
                for tau in (-1.0, 0.2, 1.5):
                    re = re_from_tau(theta, tau, m, pot)
                    jac = [[mp.diff(lambda th, ta: norms(th, ta, re.phi1)[i], (theta, tau), order)
                            for order in ((1, 0), (0, 1))] for i in (0, 1)]
                    det = abs(jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0])
                    expect = det / (mp.norm(jac[0]) * mp.norm(jac[1]))
                    got = _momentum_jacobian_det(re, tau)
                    assert abs(got - expect) <= 1e-10 * expect, (theta, tau)

    def test_certificate_holds_next_to_the_degenerate_fold_point(self):
        # at theta* the gradient of |rho|^2 vanishes on the fold and the
        # normalised determinant is 0/0; this +-6e-6 band is where a
        # finite-difference certificate read >= 1e-6, while the closed form
        # fails only within about 2e-10 of theta*, inside the skipped 1e-9
        theta_star = 1.755586255062735
        for theta in theta_star + np.linspace(-6e-6, 6e-6, 241):
            if abs(theta - theta_star) <= 1e-9:
                continue
            res = fold_locus(float(theta), M32)
            assert res.jacobian_det < 1e-6, theta

    def test_fold_solves_three_res(self, monkeypatch):
        from spheretop import stability

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return re_from_tau(*args, **kwargs)

        monkeypatch.setattr(stability, "re_from_tau", counting)
        assert fold_locus(1.7, M32) is not None
        assert len(calls) == 3


class TestIndependenceOfTheExtraIntegral:
    def test_stacked_rows_have_rank_two(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(0.5, 0.5)
        re = solve_re(2.2, 1.0, m, Potential.linear(gamma))
        pt = hilbert_map(left_reduce(re.state))
        ham_rows = linearize(re).matrix[[0, 3], :]

        # linearise the extra integral's flow rows by finite differences
        grad = integral_I_gradient(alpha, gamma)
        h = 1e-6
        base = np.array(pt)
        i_rows = np.zeros((2, 8))
        for j in range(8):
            up, dn = base.copy(), base.copy()
            up[j] += h
            dn[j] -= h
            fu = table_flow(grad, InvariantPoint.from_tuple(up), allow_off_variety=True)
            fd = table_flow(grad, InvariantPoint.from_tuple(dn), allow_off_variety=True)
            i_rows[0, j] = (fu[0] - fd[0]) / (2 * h)
            i_rows[1, j] = (fu[3] - fd[3]) / (2 * h)
        # printed form of the same rows
        assert i_rows[0, 2] == pytest.approx(4 * gamma * pt.k12, abs=1e-6)
        assert i_rows[0, 4] == pytest.approx(-4 * gamma * pt.k11, abs=1e-6)
        assert i_rows[1, 2] == pytest.approx(4 * gamma * pt.k22, abs=1e-6)
        assert i_rows[1, 4] == pytest.approx(-4 * gamma * pt.k12, abs=1e-6)
        stacked = np.vstack([
            np.concatenate([ham_rows[0], ham_rows[1]]),
            np.concatenate([i_rows[0], i_rows[1]]),
        ])
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[1] > 1e-8 * sv[0]


def _image_spectrum(re):
    pot, pt = re.potential, re_image(re)
    return quartet_spectrum(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))


class TestQuartetSpectrum:
    """The structured spectrum the sheets label with, against ``linearize``."""

    @pytest.fixture(scope="class")
    def acceptance_grid(self):
        from test_acceptance import _re_grid

        return _re_grid()

    def test_matches_linearize_on_the_acceptance_grid(self, acceptance_grid):
        assert {re.kind for re in acceptance_grid} == {
            "acute", "obtuse", "rightAngled", "singular0", "singularPi"}
        for re in acceptance_grid:
            rep, eigs = linearize(re), _image_spectrum(re)
            ref = np.linalg.eigvals(rep.matrix)  # linearize skips this wrapper
            assert rep.eigenvalues.dtype == ref.dtype
            assert rep.eigenvalues.tobytes() == ref.tobytes()
            assert eigs.shape == (8,) and (eigs[:4] == 0).all()
            assert stability._classify(eigs)[1] == rep.zero_count
            assert classify_roots(eigs[4:6]) == (rep.classification, rep.zero_count)
            assert multiset_distance(rep.eigenvalues, eigs) <= 1e-12 * max(
                1.0, np.abs(rep.eigenvalues).max())
            assert spectrum_gap(rep.eigenvalues, eigs) <= 1e-12
            assert classify_stability_eigs(eigs) == rep.classification

    def test_block_invariants_are_the_closed_form_charpoly(self, acceptance_grid):
        # c0 = det CB and c2 = -tr CB; c0 relative to c2^2, its size away
        # from a fold
        cases = [(re, charpoly_2body(re)) for re in acceptance_grid
                 if re.potential.kind == "gravitational"]
        for theta in (0.4, 1.0, 2.0, 2.7, math.pi / 2):
            for alpha in (1.0, 2.0):
                m, pot = MassParams(1 / alpha, 1 / alpha), Potential.linear(1.0)
                re = solve_re(theta, 0.8, m, pot, phi1=-0.5 if theta == math.pi / 2 else None)
                cases.append((re, charpoly_lagrange(re, alpha, 1.0)))
        assert len(cases) > 100
        for re, (c0, c2) in cases:
            mu = _image_spectrum(re)[4:6] ** 2  # the two eigenvalues of CB
            assert abs((mu[0] * mu[1]).real - c0) <= 1e-12 * max(abs(c0), c2 * c2)
            assert abs(-(mu[0] + mu[1]).real - c2) <= 1e-12 * abs(c2)

    def test_labels_hold_far_out_along_tau(self):
        # far out along tau |z| outgrows |w| by eight decades; the entrywise
        # det of CB loses the w pair to rounding there, the closed-form
        # invariants keep linearize's labels
        tiny = MassParams(0.01, 0.01)
        for m, pot in ((M11, grav(M11)), (M32, grav(M32)), (tiny, grav(tiny)),
                       (tiny, Potential.linear(1.0))):
            for theta in (0.1, 0.7, 1.7, 2.6):
                for tau in (-60.0, -45.0, -35.0, 35.0, 45.0, 60.0):
                    re = re_from_tau(theta, tau, m, pot)
                    assert (classify_stability_eigs(_image_spectrum(re))
                            == linearize(re).classification), (m, pot.kind, theta, tau)

    def test_custom_potential(self):
        pot = Potential.custom(lambda r: -0.7 * r ** 3, lambda r: 2.1 * r * r,
                               lambda r: 4.2 * r)
        for theta, eta in ((0.6, 0.9), (2.3, 1.4), (1.2, 0.5)):
            re = solve_re(theta, eta, M32, pot)
            rep, eigs = linearize(re), _image_spectrum(re)
            assert spectrum_gap(rep.eigenvalues, eigs) <= 1e-12
            assert classify_stability_eigs(eigs) == rep.classification

    def test_stacks_along_leading_axes(self):
        res = [solve_re(t, 1.1, M32, grav(M32)) for t in (0.5, 1.2, 2.0, 2.6)]
        pts = [re_image(re) for re in res]
        stacked = InvariantPoint.from_tuple(
            [np.array(v).reshape(2, 2) for v in zip(*(p.as_tuple() for p in pts))])
        f = np.array([grav(M32).f(p.r) for p in pts]).reshape(2, 2)
        fp = np.array([grav(M32).fprime(p.r) for p in pts]).reshape(2, 2)
        eigs = quartet_spectrum(stacked, M32, f, fp)
        assert eigs.shape == (2, 2, 8)
        np.testing.assert_array_equal(eigs.reshape(4, 8),
                                      [_image_spectrum(re) for re in res])
        t = quartet_roots(stacked, M32, f, fp)
        assert t.shape == (2, 2, 2) and t.dtype == complex
        assert eigs.tobytes() == _eight_wide(t).tobytes()

    def test_sheets_need_no_eigvals(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an 8x8 eigen-solve or spectrum ran on the sheet path")

        # linearize calls the gufunc behind np.linalg.eigvals itself; sheets
        # label the two roots, never the eight-wide spectrum
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals", refuse)
        monkeypatch.setattr(stability, "quartet_spectrum", refuse)
        monkeypatch.setattr(stability, "_classify", refuse)
        half = math.pi / 2
        top = (MassParams(0.5, 0.5), Potential.linear(1.0))
        for family, first, m, pot in (("isosceles", (0.1, math.pi - 0.1), M11, grav(M11)),
                                      ("obtuse", (half + 0.1, math.pi - 0.1), M32, grav(M32)),
                                      ("isosceles", (0.1, math.pi - 0.1), *top),
                                      ("rightAngled", (0.08, half - 0.08), M11, grav(M11))):
            kw = {"phi1_range": first} if family == "rightAngled" else {}
            res = energy_casimir.ec_surface(family, first, (-3.0, 3.0), (5, 4), m, pot, **kw)
            assert len(res.samples) == 20 and not res.failures
            assert all(s.stability for s in res.samples)
        assert energy_casimir.ec_sample(2.0, 0.3, M32, grav(M32)).stability
        thread = energy_casimir.singular_thread((0.2, 2.0), 4, top[0], 1.0)
        assert all(s.stability for s in thread)


def test_classification_thresholds():
    eigs = np.array([0, 0, 0, 0, 1e-12 + 1j, -1e-12 - 1j, 2j, -2j])
    assert classify_stability_eigs(eigs) == "linearly_stable"
    assert classify_stability_eigs(np.array([0, 0, 0, 0, 0.1, -0.1, 1j, -1j])) == "linearly_unstable"
    assert classify_stability_eigs(np.array([0, 0, 0, 0, 0, 0, 1j, -1j])) == "degenerate"


def test_report_round_trip():
    re = solve_re(0.8, 1.0, M32, grav(M32))
    rep = linearize(re)
    assert classify_stability_eigs(rep.eigenvalues) == rep.classification == "linearly_stable"


def _nudge(x, steps):
    """x moved by ``steps`` (-1, 0 or +1) units in the last place."""
    return np.where(steps > 0, np.nextafter(x, np.inf),
                    np.where(steps < 0, np.nextafter(x, -np.inf), x))


def _threshold_root(rng, scale, real):
    """One quartet root per row, on a labelling threshold of its row's scale
    or one ulp off it.

    Of six kinds: |t| on ZERO_EIG_TOL scale by ``np.abs``, that root one ulp
    off in its real part, Re t on +-REAL_PART_TOL scale or one ulp off it
    (with a random imaginary part when complex), zero, random below twice the
    zero threshold, or random with |t| at most scale / 2 (imaginary when
    complex).  Real roots are float64.
    """
    n = len(scale)
    sign = rng.choice([-1.0, 1.0], n)
    thr = ZERO_EIG_TOL * scale
    cut = _nudge(REAL_PART_TOL * scale, rng.integers(-1, 2, n)) * sign
    if real:
        on_zero = thr * sign
        off = _nudge(on_zero, rng.choice([-1, 1], n))
        free = rng.uniform(-0.5, 0.5, n) * scale
    else:  # |x + iy| = thr by np.abs, where some float y gives it
        phase = rng.uniform(0.0, 2 * math.pi, n)
        x, y = thr * np.cos(phase), thr * np.sin(phase)
        for _ in range(3):
            mod = np.abs(x + 1j * y)
            y = np.where(mod > thr, np.nextafter(y, 0.0),
                         np.where(mod < thr, np.nextafter(y, np.copysign(np.inf, y)), y))
        on_zero = x + 1j * y
        off = _nudge(x, rng.choice([-1, 1], n)) + 1j * y
        cut = cut + 1j * rng.uniform(0.0, 0.5, n) * scale
        free = 1j * rng.uniform(0.01, 0.5, n) * scale
    kind = rng.integers(0, 6, n)
    return np.select([kind == k for k in range(1, 6)],
                     [off, cut, 0.0, on_zero * rng.uniform(0.0, 2.0, n), free], on_zero)


def _threshold_roots(rng, n, real):
    """n pairs of quartet roots whose moduli and real parts sit on the
    labelling thresholds or one ulp off them.

    Half the pairs lead with an anchor root of modulus 0.2 to 30 (real,
    imaginary or at a random angle when complex), which sets
    scale = max(1, |t|); the other pairs have scale 1.  Every other root is a
    ``_threshold_root`` of its pair's scale, at most half of it in modulus.
    """
    big = rng.uniform(0.2, 30.0, n)
    if real:
        anchor = big * rng.choice([-1.0, 1.0], n)
    else:
        anchor = big * np.exp(1j * np.where(rng.random(n) < 0.5,
                                            rng.choice([0.0, math.pi / 2], n),
                                            rng.uniform(0.0, 2 * math.pi, n)))
    anchored = rng.random(n) < 0.5
    scale = np.where(anchored, np.maximum(1.0, np.abs(anchor)), 1.0)
    first = np.where(anchored, anchor, _threshold_root(rng, scale, real))
    return np.stack([first, _threshold_root(rng, scale, real)], axis=1)


def _eight_wide(t):
    """The spectrum (0, 0, 0, 0, t, -t) of roots t, row by row."""
    return np.concatenate([np.zeros(t.shape[:-1] + (4,)), t, -t], axis=-1)


class TestClassifyRoots:
    """``classify_roots`` against ``_classify`` on the eight-wide spectrum."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_matches_the_eight_wide_rule_on_thresholds(self, real):
        rng = np.random.default_rng(18)
        n = 20_000 if real else 60_000
        t = _threshold_roots(rng, n, real)
        assert t.dtype == (float if real else complex)
        want = [stability._classify(row) for row in _eight_wide(t)]
        labels, zeros = classify_roots(t)
        assert list(zip(labels.tolist(), zeros.tolist())) == want
        # along more leading axes, and one pair at a time
        labels4, zeros4 = classify_roots(t.reshape(-1, 4, 2))
        assert labels4.shape == zeros4.shape == (n // 4, 4)
        assert labels4.ravel().tolist() == labels.tolist()
        assert zeros4.ravel().tolist() == zeros.tolist()
        assert [classify_roots(pair) for pair in t[:2000]] == want[:2000]
        # every label and zero count occurs
        assert set(labels.tolist()) == {"linearly_stable", "linearly_unstable", "degenerate"}
        assert set(zeros.tolist()) == {4, 6, 8}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(math.inf, 1)])
    def test_non_finite_roots_are_rejected_with_their_spectrum(self, bad):
        t = np.array([1j, bad])
        with pytest.raises(ValueError, match="not finite") as got:
            classify_roots(t)
        with pytest.raises(ValueError) as want:
            stability._classify(_eight_wide(t))
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match=r"spectrum .* in row 3 is not finite"):
            classify_roots(np.array([[1j, 2j]] * 3 + [t]).reshape(2, 2, 2))

    def test_a_node_with_non_finite_roots_is_sampled_alone_and_fails(self):
        # f' is NaN where cos(theta) > 0.5, on the first three rows, so their
        # roots are while (H, lam2, rho2) stays finite: the batch leaves those
        # nodes to ec_sample, which records the spectrum as not finite
        pot = Potential.custom(lambda r: -0.7 * r ** 3, lambda r: 2.1 * r * r,
                               lambda r: math.nan if r > 0.5 else 4.2 * r)
        sheet = ("generic", (0.6, 1.4), (-1.0, 1.0), (5, 4), M32, pot)
        res = energy_casimir.ec_surface(*sheet)
        assert res.scalar_nodes == len(res.failures) == 12
        assert all(msg.startswith("ValueError: the spectrum [0j, 0j, 0j, 0j, (nan")
                   and msg.endswith("is not finite") for *_, msg in res.failures)
        assert {s.theta for s in res.samples} == {1.2, 1.4}
        for s in res.samples:
            assert s.stability == energy_casimir.ec_sample(s.theta, s.tau, M32, pot).stability
        with pytest.raises(ValueError, match="not finite"):
            energy_casimir.ec_sample(0.6, 0.0, M32, pot)


class TestClassifyPaths:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                     complex(math.inf, 1)])
    def test_a_non_finite_spectrum_is_rejected(self, bad):
        # both used to be labelled degenerate; max over a NaN depends on the order
        eigs = [0, 0, 0, 0, 1j, -1j, 2j, bad]
        with pytest.raises(ValueError, match="not finite") as one:
            classify_stability_eigs(eigs)
        # a stack is classified row by row
        with pytest.raises(ValueError) as stack:
            classify_stability_eigs(np.array([[0, 0, 0, 0, 1j, -1j, 2j, -2j], eigs]))
        assert str(stack.value) == str(one.value)
        with pytest.raises(ValueError, match="not finite"):
            classify_stability_eigs([math.nan] * 8)


def _test_matrices(rng, n):
    """n seeded 8x8 matrices in four equal parts: symmetric and upper
    triangular ones, whose spectra are real, matrices of rank 1 to 7, and
    Jacobians at random points with k13 = k23 = 0, where the block structure
    of an RE image gives four zero eigenvalues."""
    k = n // 4
    sym = rng.standard_normal((k, 8, 8))
    low = [b[:, :r] @ c[:r] for b, c, r in zip(rng.standard_normal((k, 8, 7)),
                                               rng.standard_normal((k, 7, 8)),
                                               rng.integers(1, 8, k))]
    jac = []
    for v in rng.uniform(-2.0, 2.0, (n - 3 * k, 8)):
        pt = InvariantPoint(k11=v[0] ** 2, k12=v[1], k13=0.0, k22=v[2] ** 2, k23=0.0,
                            k33=v[3] ** 2, r=v[4] / 2, delta=v[5])
        jac.append(jacobian_full_reduced(pt, MassParams(1.0 + v[6] ** 2, 1.0 + v[7] ** 2),
                                         v[0] * v[7], v[1] * v[6]))
    return [*(sym + sym.transpose(0, 2, 1)), *np.triu(rng.standard_normal((k, 8, 8))),
            *low, *jac]


def _reference_label(eigs):
    """The labelling rule of the module docstring, written out on its own:
    a list of zero flags, then separate passes for unstable and stable."""
    vals, mods = eigs.tolist(), np.abs(eigs).tolist()
    scale = max(1.0, max(mods))
    tol, cut = ZERO_EIG_TOL * scale, REAL_PART_TOL * scale
    zeros = [x < tol for x in mods]
    n_zero = sum(zeros)
    if any(t.real > cut for t in vals):
        return "linearly_unstable", n_zero
    stable = n_zero == 4 and all(z or abs(t.real) <= cut for z, t in zip(zeros, vals))
    return ("linearly_stable" if stable else "degenerate"), n_zero


def _seeded_queries(rng, reps):
    """(potential name, RE) pairs: acute and obtuse REs under every potential,
    right-angled ones for equal masses and singular ones for the regular
    potentials, with seeded angles and rates."""
    half = math.pi / 2
    custom = Potential.custom(lambda r: -0.7 * r ** 3, lambda r: 2.1 * r * r,
                              lambda r: 4.2 * r)
    for _ in range(reps):
        gamma, alpha, eta = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.6, 2.1)
        unequal = MassParams(1.0, rng.uniform(1.2, 3.0))
        equal, top = MassParams(*[rng.uniform(0.5, 2.0)] * 2), MassParams(1 / alpha, 1 / alpha)
        for name, m, pot in (("grav", unequal, grav(unequal)), ("grav", equal, grav(equal)),
                             ("linear", equal, Potential.linear(gamma)),
                             ("lagrange", top, Potential.linear(gamma)),
                             ("custom", unequal, custom)):
            yield name, solve_re(rng.uniform(0.45, half - 0.12), eta, m, pot)
            yield name, solve_re(rng.uniform(half + 0.12, 2.7), eta, m, pot)
            if m.equal:
                phi1 = math.copysign(rng.uniform(0.2, half - 0.2), pot.f(0.0))
                yield name, solve_re(half, eta, m, pot, phi1=phi1)
            if name != "grav":
                theta = float(rng.choice([0.0, math.pi]))
                yield name, solve_re(theta, rng.uniform(0.0, 1.0), m, pot,
                                     xi_mag=rng.uniform(0.0, 2.0))


class TestEigvalsPath:
    """``linearize`` calls the gufunc behind ``np.linalg.eigvals`` itself."""

    def test_linearize_matches_numpy_and_the_reference_rule(self):
        kinds, names, labels = set(), set(), set()
        for name, re in _seeded_queries(np.random.default_rng(28), 30):
            rep, pt, pot = linearize(re), re.image, re.potential
            matrix = jacobian_full_reduced(pt, re.masses, pot.f(pt.r), pot.fprime(pt.r))
            ref = np.linalg.eigvals(matrix)
            assert rep.matrix.tobytes() == matrix.tobytes()
            assert rep.eigenvalues.dtype == ref.dtype
            assert rep.eigenvalues.tobytes() == ref.tobytes()
            assert (rep.classification, rep.zero_count) == _reference_label(ref)
            assert type(rep.zero_count) is int
            kinds.add(re.kind), names.add(name), labels.add(rep.classification)
        assert kinds == {"acute", "obtuse", "rightAngled", "singular0", "singularPi"}
        assert names == {"grav", "linear", "lagrange", "custom"}
        assert labels == {"linearly_stable", "linearly_unstable"}
        # the rule at its thresholds, where every label and zero count occurs
        labels.clear()
        for real in (False, True):
            for row in _eight_wide(_threshold_roots(np.random.default_rng(28), 4000, real)):
                want = _reference_label(row)
                assert stability._classify(row) == want
                labels.add(want)
        assert labels == {("linearly_stable", 4), ("linearly_unstable", 4),
                          ("linearly_unstable", 6), ("degenerate", 6), ("degenerate", 8)}

    @pytest.mark.parametrize("big", [1e308, -1e308])
    def test_finite_entries_whose_sum_overflows_are_solved_without_a_warning(self, big):
        a = np.eye(8)
        a[0, 1] = a[2, 3] = big
        with np.errstate(over="ignore"):
            assert not math.isfinite(a.sum())
        with np.errstate(all="raise"):
            ours = stability._eigvals(a)
        ref = np.linalg.eigvals(a)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    def test_infinities_of_both_signs_raise_before_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals", refuse)
        a = np.eye(8)
        a[3, 5], a[4, 6] = math.inf, -math.inf
        with pytest.raises(np.linalg.LinAlgError, match="must not contain infs or NaNs"):
            stability._eigvals(a)

    def test_bytes_and_dtype_are_numpys(self):
        rng = np.random.default_rng(19)
        dtypes = set()
        for a in _test_matrices(rng, 100_000):
            ours, ref = stability._eigvals(a), np.linalg.eigvals(a)
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes(), a
            dtypes.add(ours.dtype)
        assert dtypes == {np.dtype(float), np.dtype(complex)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_matrix_raises_before_lapack(self, bad, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals", refuse)
        a = np.eye(8)
        a[3, 5] = bad
        with pytest.raises(np.linalg.LinAlgError, match="must not contain infs or NaNs"):
            stability._eigvals(a)
        pot = Potential.custom(lambda r: 0.0, lambda r: bad, lambda r: 0.0)
        re = solve_re(0.8, 1.0, M32, grav(M32))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            linearize(dataclasses.replace(re, potential=pot))

    def test_a_spectrum_lapack_failed_on_is_rejected(self, monkeypatch):
        # where dgeev does not converge the gufunc returns NaN eigenvalues
        def nan_spectrum(a, signature):
            return np.full(8, complex(math.nan, math.nan))

        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals", nan_spectrum)
        with pytest.raises(ValueError, match="not finite"):
            linearize(solve_re(0.8, 1.0, M32, grav(M32)))
