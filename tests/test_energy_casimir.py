import dataclasses
import math
from collections.abc import Sequence

import numpy as np
import pytest

from spheretop import energy_casimir
from spheretop.energy_casimir import (
    EC_CSV_COLUMNS,
    ECSample,
    ec_csv,
    ec_sample,
    ec_surface,
    singular_thread,
)
from spheretop.phase_space import (
    MassParams,
    Potential,
    hamiltonian_2body,
    momentum_left,
    momentum_right,
)
from spheretop.reduction import all_casimirs, hilbert_map, left_reduce
from spheretop.relequil import planar_image, solve_re
from spheretop.stability import closed_form_eigs_lagrange, fold_locus

M11 = MassParams(1.0, 1.0)
M32 = MassParams(3.0, 2.0)
GRAV11 = Potential.gravitational(M11)
GRAV32 = Potential.gravitational(M32)


class TestSample:
    def test_simple_rotation_slice(self):
        s = ec_sample(1.1, 0.0, M11, GRAV11)
        assert s.xi_mag == pytest.approx(s.eta_mag, rel=1e-12)
        assert s.lam2 == pytest.approx(s.rho2, rel=1e-10)

    def test_pipeline_oracle(self):
        # the stored momenta must equal the Casimirs of the reduced pipeline
        s = ec_sample(2.0, 0.7, M32, GRAV32)
        re = solve_re(2.0, s.eta_mag, M32, GRAV32)
        pt = hilbert_map(left_reduce(re.state))
        cas = all_casimirs(pt)
        assert s.lam2 == pytest.approx(cas.C2, rel=1e-10)
        assert s.rho2 == pytest.approx(cas.C3, abs=1e-10)
        assert s.H == pytest.approx(hamiltonian_2body(re.state, M32, GRAV32), rel=1e-12)

    def test_reproducible_from_stored_rates(self):
        s = ec_sample(0.9, 1.3, M11, GRAV11)
        re = solve_re(0.9, s.eta_mag, M11, GRAV11)
        assert re.xi_mag == pytest.approx(s.xi_mag, rel=1e-12)
        assert hamiltonian_2body(re.state, M11, GRAV11) == pytest.approx(s.H, abs=1e-10)
        assert momentum_left(re.state).norm2() == pytest.approx(s.lam2, abs=1e-10)
        assert momentum_right(re.state).norm2() == pytest.approx(s.rho2, abs=1e-10)

    def test_momentum_gap_changes_sign_at_zero(self):
        for theta in (0.8, 2.1):
            gaps = {tau: ec_sample(theta, tau, M11, GRAV11).lam2
                    - ec_sample(theta, tau, M11, GRAV11).rho2
                    for tau in (-1.5, -0.4, 0.4, 1.5)}
            for tau, gap in gaps.items():
                assert math.copysign(1.0, gap) == math.copysign(1.0, tau)
        zero = ec_sample(0.8, 0.0, M11, GRAV11)
        assert abs(zero.lam2 - zero.rho2) < 1e-10

    def test_right_angled_family_and_attachment(self):
        tau = 0.6
        # the isosceles line theta -> pi/2 attaches to the right-angled sheet
        right = ec_sample(math.pi / 2, tau, M11, GRAV11, phi1=math.pi / 4)
        close = ec_sample(math.pi / 2 - 1e-5, tau, M11, GRAV11)
        closer = ec_sample(math.pi / 2 - 1e-6, tau, M11, GRAV11)
        gap1 = abs(close.H - right.H) + abs(close.lam2 - right.lam2)
        gap2 = abs(closer.H - right.H) + abs(closer.lam2 - right.lam2)
        assert gap2 < gap1 and gap2 < 1e-4

    def test_a_sample_is_a_frozen_record(self):
        # a frozen dataclass whose fields follow the CSV's columns; one field
        # is changed by dataclasses.replace, as a perturbation check does
        s = ec_sample(1.1, 0.2, M11, GRAV11)
        names = tuple(f.name for f in dataclasses.fields(s))
        assert names == (*EC_CSV_COLUMNS, "xi_mag", "eta_mag", "phi1", "gauge_flipped")
        moved = dataclasses.replace(s, H=s.H * (1 + 1e-7))
        assert moved.H != s.H and dataclasses.replace(moved, H=s.H) == s
        assert not s.gauge_flipped
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.H = 0.0
        # the one-step constructor sets every field, by keyword as replace
        # calls it, and nothing else
        values = {f.name: f"value of {f.name}" for f in dataclasses.fields(ECSample)}
        built = ECSample(**values)
        assert vars(built) == values
        assert dataclasses.astuple(built) == tuple(values.values())
        twin = ECSample(*values.values())
        assert built == twin and hash(built) == hash(twin)
        for name in values:
            moved = dataclasses.replace(built, **{name: "moved"})
            assert moved != built and dataclasses.replace(moved, **{name: values[name]}) == built

    def test_gauge_reflection_is_flagged(self):
        s = ec_sample(math.pi / 2, 0.3, M11, GRAV11, phi1=-0.4)
        assert s.gauge_flipped
        assert s.phi1 == pytest.approx(-0.4 + math.pi / 2)


class TestSurface:
    def test_grid_size_contract(self):
        res = ec_surface("isosceles", (0.4, 2.6), (-1.0, 1.0), (10, 10),
                         M11, GRAV11)
        assert len(res.samples) == 100
        assert not res.failures

    def test_failures_recorded_not_fatal(self):
        # theta = pi/2 is right-angled, which masses (3, 2) do not allow:
        # recorded as a failure
        res = ec_surface("generic", (math.pi / 2, 2.5), (-0.5, 0.5), (3, 2),
                         M32, GRAV32)
        assert len(res.failures) == 2
        assert all(msg.startswith("NoSolutionError") for _, _, msg in res.failures)
        assert len(res.samples) == 4

    def test_tau_zero_slice_is_equal_momentum(self):
        res = ec_surface("isosceles", (0.4, 2.6), (0.0, 0.0), (12, 1),
                         M11, GRAV11)
        for s in res.samples:
            assert s.lam2 == pytest.approx(s.rho2, rel=1e-9)

    def test_stability_labels_flip_across_the_fold(self):
        theta = 1.7
        fold = fold_locus(theta, M32)
        res = ec_surface("obtuse", (theta, theta), (fold.tau - 0.5, fold.tau + 0.5),
                         (1, 11), M32, GRAV32)
        labels = [s.stability for s in res.samples]
        taus = [s.tau for s in res.samples]
        for tau, label in zip(taus, labels):
            expected = "linearly_stable" if tau < fold.tau else "linearly_unstable"
            if abs(tau - fold.tau) > 0.05:
                assert label == expected, (tau, label)

    def test_serial_surface_takes_a_custom_potential(self):
        custom = Potential.custom(v=lambda r: r, f=lambda r: -1.0, fprime=lambda r: 0.0)
        args = ("isosceles", (0.5, 2.5), (-0.5, 0.5), (3, 3), M11)
        got = ec_surface(*args, custom)
        expect = ec_surface(*args, Potential.linear(1.0))
        assert not got.failures and len(got.samples) == 9
        assert got.samples == expect.samples

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        from spheretop import energy_casimir

        def refuse(*args):
            raise AssertionError("a node was sampled")

        monkeypatch.setattr(energy_casimir, "_sample_block", refuse)
        monkeypatch.setattr(energy_casimir, "ec_sample", refuse)

    def test_non_finite_range_rejected_before_sampling(self, no_sampling):
        nan = float("nan")
        theta, tau = (0.5, 2.0), (-0.5, 0.5)
        for theta_range, tau_range, grid, match in (
                ((0.5, nan), tau, (3, 3), "must be finite"),
                (theta, (nan, 0.5), (3, 3), "must be finite"),
                (theta, (-0.5, float("inf")), (3, 3), "must be finite"),
                (theta, tau, (0, 5), "at least 1"),
                (theta, tau, (3, -3), "at least 1"),
                (theta, tau, (1001, 1000), "1001000 nodes, more than the cap of 1000000")):
            with pytest.raises(ValueError, match=match):
                ec_surface("isosceles", theta_range, tau_range, grid, M11, GRAV11)
        with pytest.raises(ValueError, match="must be finite"):
            ec_surface("rightAngled", (0, 0), (-0.4, 0.4), (3, 3), M11, GRAV11,
                       phi1_range=(nan, 1.2))

    def test_phi1_range_on_another_family_rejected_before_sampling(self, no_sampling):
        # it used to be ignored
        for family, theta_range in (("generic", (0.5, 2.0)), ("isosceles", (0.5, 2.0)),
                                    ("acute", (0.5, 1.2)), ("obtuse", (1.7, 2.0))):
            with pytest.raises(ValueError, match=f"rightAngled surfaces only, not {family}"):
                ec_surface(family, theta_range, (-0.5, 0.5), (3, 3), M32, GRAV32,
                           phi1_range=(0.1, 0.5))

    def test_family_theta_range_stays_in_its_half(self, no_sampling):
        # the CLI clips an obtuse --theta-max 1.0 to (pi/2 + 0.05, 1.0)
        for family, theta_range in (("obtuse", (math.pi / 2 + 0.05, 1.0)),
                                    ("obtuse", (1.0, 2.0)),
                                    ("obtuse", (1.7, math.pi)),
                                    ("acute", (1.7, math.pi / 2 - 0.05)),
                                    ("acute", (0.0, 1.0)),
                                    ("acute", (0.5, math.pi / 2))):
            with pytest.raises(ValueError, match=f"{family} surfaces need theta"):
                ec_surface(family, theta_range, (-0.5, 0.5), (3, 3), M32, GRAV32)

    def test_family_theta_range_inside_its_half_is_sampled(self):
        for family, theta_range in (("obtuse", (2.0, 1.7)), ("acute", (0.5, 1.2))):
            res = ec_surface(family, theta_range, (-0.5, 0.5), (3, 3), M32, GRAV32)
            assert len(res.samples) == 9 and not res.failures

    def test_right_angled_surface(self):
        res = ec_surface("rightAngled", (0, 0), (-0.4, 0.4), (5, 3), M11, GRAV11,
                         phi1_range=(0.3, 1.2))
        assert len(res.samples) == 15
        assert all(s.theta == pytest.approx(math.pi / 2) for s in res.samples)


def _top():
    alpha = 2.0  # the top's equivalent two-body problem: masses 1/alpha
    return MassParams(1 / alpha, 1 / alpha), Potential.linear(1.0)


class TestBatchParity:
    """The batched sheet against ``ec_sample`` node by node: the same nodes,
    labels, gauge flips and failure records, and the same values up to the
    1e-12 the batch allows itself."""

    SHEETS = {
        "equal_isosceles": ("isosceles", (0.1, math.pi - 0.1), (-3.0, 3.0), (7, 6), M11, GRAV11,
                            None),
        "mass32_obtuse": ("obtuse", (1.65, 3.0), (-3.0, 3.0), (6, 7), M32, GRAV32, None),
        "top_polar": ("isosceles", (0.1, math.pi - 0.1), (-3.0, 3.0), (5, 6), *_top(), None),
        "equal_right_angled": ("rightAngled", (0, 0), (-3.0, 3.0), (6, 5), M11, GRAV11,
                               (-1.2, 1.2)),
        # exp(tau) underflows at -800 and overflows at 800, where re_from_tau
        # raises; tau = 400 leaves eta about 1e-87
        "extreme_tau": ("isosceles", (0.5, 2.5), (-800.0, 800.0), (3, 5), M11, GRAV11, None),
        # the middle row is theta = pi/2, which masses (3, 2) do not allow
        "mass32_generic": ("generic", (0.6, math.pi - 0.6), (-1.0, 1.0), (5, 4), M32, GRAV32,
                           None),
    }

    @staticmethod
    def _node_by_node(family, theta_range, tau_range, grid, m, pot, phi1_range):
        samples, failures = [], []
        for first in np.linspace(*(phi1_range or theta_range), grid[0]):
            theta, phi1 = (math.pi / 2, float(first)) if phi1_range else (float(first), None)
            for tau in np.linspace(*tau_range, grid[1]):
                try:
                    samples.append(ec_sample(theta, float(tau), m, pot, family=family,
                                             phi1=phi1))
                except Exception as exc:
                    failures.append((theta, float(tau), f"{type(exc).__name__}: {exc}"))
        return samples, tuple(failures)

    @staticmethod
    def _assert_agree(got, samples, failures):
        assert got.failures == failures
        assert len(got.samples) == len(samples)
        for a, b in zip(got.samples, samples):
            assert (a.theta, a.tau, a.stability, a.gauge_flipped) == (
                b.theta, b.tau, b.stability, b.gauge_flipped)
            for key in ("H", "lam2", "rho2", "xi_mag", "eta_mag", "phi1"):
                x, y = getattr(a, key), getattr(b, key)
                assert abs(x - y) <= 1e-12 * abs(y), (key, a, b)

    @pytest.mark.parametrize("name", sorted(SHEETS))
    def test_batch_matches_ec_sample(self, name):
        family, theta_range, tau_range, grid, m, pot, phi1_range = self.SHEETS[name]
        got = ec_surface(family, theta_range, tau_range, grid, m, pot, phi1_range=phi1_range)
        self._assert_agree(got, *self._node_by_node(*self.SHEETS[name]))
        if name in ("mass32_generic", "extreme_tau"):
            assert got.failures and got.scalar_nodes == len(got.failures)
        if name == "extreme_tau":  # tau = +-400 keeps a finite spectrum
            assert {tau for _, tau, _ in got.failures} == {-800.0, 800.0}
        if name == "equal_right_angled":
            flipped = [s.gauge_flipped for s in got.samples]
            assert any(flipped) and not all(flipped)

    def test_image_matches_the_reduced_state(self):
        # the closed-form invariants the batch linearises at
        for theta in (0.7, 2.2):
            re = solve_re(theta, 0.9, M32, GRAV32)
            image = planar_image(re.x1, re.x2, re.y, math.cos(theta), math.sin(theta))
            pt = hilbert_map(left_reduce(re.state))
            np.testing.assert_allclose(image.as_tuple(), pt.as_tuple(), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("offset, label", [(5e-10, "degenerate"), (1e-8, "linearly_stable")],
                             ids=["right-angled", "acute"])
    def test_labels_next_to_the_right_angle_agree(self, offset, label):
        # equal masses at theta -> pi/2: 5e-10 away the RE is the right-angled
        # isosceles one, whose w pair is zero in closed form; 1e-8 away w is
        # about 1.4e-4 i, an acute RE and so linearly stable (criterion 06)
        theta = math.pi / 2 - offset
        res = ec_surface("isosceles", (theta, theta), (-1.0, 1.0), (1, 3), M11, GRAV11)
        assert res.scalar_nodes == 0 and len(res.samples) == 3
        for s in res.samples:
            assert s.stability == ec_sample(theta, s.tau, M11, GRAV11).stability == label

    def test_node_with_a_non_finite_spectrum_is_a_failure(self):
        # at tau = 709 k11 overflows off theta = pi/2; eigvals used to reject
        # these nodes, and a label read from a NaN spectrum would mean nothing.
        # The batch leaves them to the scalar path, where solve_re refuses the
        # RE whose image overflows (the record named the NaN spectrum before)
        res = ec_surface("isosceles", (0.5, 2.5), (600.0, 709.0), (3, 6), M11, GRAV11)
        assert res.scalar_nodes == len(res.failures) == 2
        assert [tau for _, tau, _ in res.failures] == [709.0] * 2
        assert all(msg.startswith("ValueError: eta_mag = ") and "is too small" in msg
                   for _, _, msg in res.failures)
        assert all(math.isfinite(s.H) for s in res.samples)

    def test_a_node_whose_values_overflow_is_a_failure(self):
        # near tau = 706 H or lam2 overflows while eta stays positive and the
        # spectrum finite: both paths returned such nodes, and the sheet CSV
        # held inf in 10 rows
        sheet = ("obtuse", (1.7, 3.0), (690.0, 712.0), (5, 45), M32, GRAV32)
        got = ec_surface(*sheet)
        assert "inf" not in ec_csv(got.samples)
        overflowed = [msg for *_, msg in got.failures if "(H, lam2, rho2) = (" in msg]
        assert len(overflowed) == 10
        assert all(msg.startswith("ValueError: ") and msg.endswith(") is not finite")
                   for msg in overflowed)
        self._assert_agree(got, *self._node_by_node(*sheet, None))
        with pytest.raises(ValueError, match="eta_mag = .* is too small"):
            ec_sample(0.5, 709.0, M11, GRAV11)

    def test_batched_csv_cells_are_plain_floats(self, tmp_path):
        from spheretop.cli import main

        out = tmp_path / "surf.csv"
        assert main(["ec-surface", "--grid", "4", "3", "--out", str(out)]) == 0
        for row in out.read_text().strip().splitlines()[1:]:
            cells = row.split(",")
            for cell in cells[1:6]:
                assert cell == repr(float(cell)), row


class TestLagrangeThreads:
    def test_isosceles_lines_converge_to_the_upright_thread(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(1 / alpha, 1 / alpha)
        pot = Potential.linear(gamma)
        tau = 0.8
        tiny = ec_sample(1e-4, tau, m, pot)
        # at theta -> 0 the positions merge a quarter turn away from the
        # identity, where the limiting circulation rate is the SUM of the two
        # rotation rates
        c = tiny.xi_mag + tiny.eta_mag
        thread = singular_thread((c, c), 1, m, gamma)[0]
        assert thread.H == pytest.approx(tiny.H, abs=1e-3)
        assert thread.lam2 == pytest.approx(tiny.lam2, abs=1e-3)
        assert thread.rho2 == pytest.approx(tiny.rho2, abs=1e-3)
        # every thread point carries equal momentum norms (cocircular motion)
        assert thread.lam2 == pytest.approx(thread.rho2, abs=1e-12)

    def test_detachment_where_the_spin_quartet_changes_reality(self):
        alpha, gamma = 2.0, 1.0
        m = MassParams(1 / alpha, 1 / alpha)
        kstar = 2.0 * gamma / alpha  # the gyroscopic threshold |R|^2 = 2 gamma / alpha
        pot = Potential.linear(gamma)
        cs, reality = [], []
        for c in np.linspace(0.2, 4.0, 25):
            re = solve_re(0.0, 0.0, m, pot, xi_mag=float(c))
            k11 = re.x1 ** 2
            _, (w, _) = closed_form_eigs_lagrange(re, alpha, gamma)
            cs.append(k11)
            reality.append(abs(w.real) > 1e-10)
        for k11, is_real in zip(cs, reality):
            assert is_real == (k11 < kstar - 1e-9) or abs(k11 - kstar) < 1e-2

    def test_a_negative_rate_is_swept_with_xi_zero(self):
        # c = xi - eta below zero is the thread point xi = 0, eta = -c, where
        # solve_re refuses a negative xi
        from spheretop.relequil import verify_re_fixed_point
        m, gamma = MassParams(1.0, 1.0), -1.3
        rates = np.linspace(-3.0, 3.0, 25).tolist()
        thread = singular_thread((-3.0, 3.0), 25, m, gamma)
        for s, c in zip(thread, rates):
            assert (s.xi_mag, s.eta_mag) == ((0.0, -c) if c < 0 else (c, 0.0))
            re = solve_re(0.0, s.eta_mag, m, Potential.linear(gamma), xi_mag=s.xi_mag)
            assert verify_re_fixed_point(re) < 1e-10
        # the thread is even in c
        for s, mirror in zip(thread, reversed(thread)):
            assert (s.H, s.lam2, s.rho2) == pytest.approx((mirror.H, mirror.lam2, mirror.rho2),
                                                          rel=1e-12)

    def test_thread_residuals(self):
        from spheretop.relequil import verify_re_fixed_point
        m = MassParams(0.5, 0.5)
        for s in singular_thread((0.3, 2.0), 5, m, 1.0):
            re = solve_re(0.0, 0.0, m, Potential.linear(1.0), xi_mag=s.xi_mag)
            assert verify_re_fixed_point(re) < 1e-10



def test_the_singular_thetas_point_to_the_thread():
    # zeta = 0 there: re_from_tau divided by it, and each node of those rows
    # failed with a bare ZeroDivisionError
    pot = Potential.linear(-1.3)
    for theta in (0.0, math.pi):
        with pytest.raises(ValueError, match="singular thread.*singular_thread"):
            ec_sample(theta, 0.5, M11, pot)
    res = ec_surface("generic", (0.0, math.pi), (0.0, 1.0), (3, 2), M11, pot)
    assert [f[:2] for f in res.failures] == [(0.0, 0.0), (0.0, 1.0), (math.pi, 0.0),
                                             (math.pi, 1.0)]
    assert all(f[2].startswith("ValueError: theta = ") and f[2].endswith("singular_thread")
               for f in res.failures)
    assert [s.theta for s in res.samples] == [math.pi / 2] * 2

def test_csv_layout():
    samples = [ec_sample(1.0, 0.2, M11, GRAV11)]
    text = ec_csv(samples)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(EC_CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "generic"
    assert float(cells[1]) == pytest.approx(1.0)


def test_numpy_float_coordinates_are_written_as_plain_floats():
    # ec_sample kept a numpy float's type, so ec_csv wrote np.float64(1.0) in
    # that row's cells and, its cells keyed by value, in every equal one after
    mixed = [ec_sample(np.float64(1.0), np.float64(0.2), M11, GRAV11),
             ec_sample(1.0, 0.2, M11, GRAV11)]
    text = ec_csv(mixed)
    assert [row.split(",")[1:3] for row in text.splitlines()[1:]] == [["1.0", "0.2"]] * 2
    assert text == ec_csv([ec_sample(1.0, 0.2, M11, GRAV11)] * 2)
    s = mixed[0]
    assert type(s.theta) is type(s.tau) is float
    right = ec_sample(np.float64(math.pi / 2), np.float64(0.2), M11, GRAV11,
                      family="rightAngled", phi1=np.float64(0.5))
    assert type(right.theta) is type(right.tau) is type(right.phi1) is float


def _csv_row_by_row(samples) -> str:
    """``ec_csv`` as it was before it formatted a repeated theta or tau once:
    every cell of every row formatted afresh."""
    rows = (f"{s.family},{s.theta!r},{s.tau!r},{s.H!r},{s.lam2!r},{s.rho2!r},{s.stability}\n"
            for s in samples)
    return ",".join(EC_CSV_COLUMNS) + "\n" + "".join(rows)


def test_csv_keeps_the_sign_of_each_zero():
    # -0.0 == 0.0, so one formatted text shared between them would lose a sign
    samples = [ECSample("generic", theta, tau, 1.0, 2.0, 3.0, "linearly_stable", 1.0, 1.0, 0.5)
               for theta in (1.0, -0.0, 0.0) for tau in (-0.0, 0.0, 0.5, -0.0)]
    rows = [line.split(",")[1:3] for line in ec_csv(samples).splitlines()[1:]]
    assert rows == [[repr(s.theta), repr(s.tau)] for s in samples]
    assert rows[:4] == [["1.0", "-0.0"], ["1.0", "0.0"], ["1.0", "0.5"], ["1.0", "-0.0"]]
    assert [r[0] for r in rows[4:]] == ["-0.0"] * 4 + ["0.0"] * 4


@pytest.mark.parametrize("sheet, n_failed", [
    (("generic", (0.3, 2.8), (-2.0, 2.0), (4, 5), M32, GRAV32, None), 0),
    (("isosceles", (0.1, math.pi - 0.1), (-3.0, 3.0), (5, 6), M11, GRAV11, None), 0),
    (("acute", (0.2, 1.4), (-1.0, 1.0), (3, 4), M32, GRAV32, None), 0),
    (("obtuse", (1.65, 3.0), (-3.0, 3.0), (4, 5), M32, GRAV32, None), 0),
    (("isosceles", (0.1, math.pi - 0.1), (-3.0, 3.0), (5, 6), *_top(), None), 0),
    (("rightAngled", (0, 0), (-3.0, 3.0), (6, 5), M11, GRAV11, (-1.2, 1.2)), 0),
    (TestBatchParity.SHEETS["extreme_tau"], 6),
    (TestBatchParity.SHEETS["mass32_generic"], 4),
    # linspace gives the taus 0.0, 0.0 and -0.0
    (("isosceles", (0.5, 2.5), (-0.0, -0.0), (3, 3), M11, GRAV11, None), 0),
], ids=["generic", "isosceles", "acute", "obtuse", "top_polar", "rightAngled", "extreme_tau",
        "mass32_generic", "negative_zero"])
def test_csv_text_is_each_rows_own_format(sheet, n_failed):
    # the columns a sheet hands over, and the same nodes read back one
    # ECSample at a time, each written row by row
    family, theta_range, tau_range, grid, m, pot, phi1_range = sheet
    res = ec_surface(family, theta_range, tau_range, grid, m, pot, phi1_range=phi1_range)
    assert len(res.failures) == n_failed
    assert len(res.samples) + n_failed == grid[0] * grid[1]
    nodes = tuple(res.samples)
    assert ec_csv(res.samples) == ec_csv(nodes) == _csv_row_by_row(nodes)


class TestSheet:
    """``SurfaceResult.samples`` is a read-only sequence over the sheet's
    columns, building an ``ECSample`` only for a node that is read."""

    ARGS = ("rightAngled", (0, 0), (-3.0, 3.0), (4, 3), M11, GRAV11)

    def test_the_sequence_contract(self):
        res = ec_surface(*self.ARGS, phi1_range=(-1.2, 1.2))
        sheet = res.samples
        assert isinstance(sheet, Sequence) and len(sheet) == 12
        nodes = list(sheet)
        assert all(type(s) is ECSample for s in nodes)
        fields = [f.name for f in dataclasses.fields(ECSample)]
        for i, s in enumerate(nodes):
            assert [getattr(s, name) for name in fields] == [c[i] for c in sheet.columns]
        assert any(s.gauge_flipped for s in nodes) and not all(s.gauge_flipped for s in nodes)
        assert sheet[0] == nodes[0] and sheet[-1] == nodes[-1] == sheet[11]
        assert sheet[1:3] == tuple(nodes[1:3]) and sheet[::-5] == tuple(nodes[::-5])
        with pytest.raises(IndexError):
            sheet[12]
        with pytest.raises(TypeError):
            sheet[0] = nodes[1]
        again = ec_surface(*self.ARGS, phi1_range=(-1.2, 1.2))
        assert res == again and sheet == again.samples
        # as the tuple of samples it replaces: equal to one, hashed as one
        assert sheet == tuple(nodes) and tuple(nodes) == sheet and sheet != tuple(nodes[:-1])
        assert sheet != nodes and hash(sheet) == hash(tuple(nodes)) == hash(again.samples)
        assert hash(res) == hash(again)
        assert sheet != ec_surface(*self.ARGS, phi1_range=(-1.2, 1.1)).samples
        bumped = dataclasses.replace(sheet[0], H=sheet[0].H * 2.0)
        assert bumped.H == 2.0 * nodes[0].H
        assert dataclasses.replace(bumped, H=nodes[0].H) == nodes[0]

    def test_an_all_batch_sheet_builds_no_sample(self, monkeypatch, tmp_path, capsys):
        from spheretop.cli import main

        built = []
        init = ECSample.__init__
        monkeypatch.setattr(ECSample, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        res = ec_surface("isosceles", (0.1, math.pi - 0.1), (-3.0, 3.0), (3, 24), M11, GRAV11)
        text = ec_csv(res.samples)
        assert res.scalar_nodes == 0 and len(text.splitlines()) == 73
        assert main(["ec-surface", "--grid", "3", "24", "--out", str(tmp_path / "s.csv")]) == 0
        assert built == []
        assert res.samples[5].tau == res.samples.columns[2][5] and len(built) == 1


class TestOneSolvePerRow:
    """A sheet reads each RE's closed forms: its row is solved once and no
    16-d phase-space point is built for it."""

    def test_sheets_threads_and_the_fold_build_no_state(self, monkeypatch):
        from spheretop import relequil

        def refuse(*args):
            raise AssertionError("a 16-d RE state was built")

        monkeypatch.setattr(relequil, "_re_state_vec", refuse)
        for name, sheet in TestBatchParity.SHEETS.items():
            family, theta_range, tau_range, grid, m, pot, phi1_range = sheet
            res = ec_surface(family, theta_range, tau_range, grid, m, pot, phi1_range=phi1_range)
            assert len(res.samples) + len(res.failures) == grid[0] * grid[1], name
            assert not any("16-d" in msg for _, _, msg in res.failures), name
        assert len(singular_thread((0.05, 4.0), 6, _top()[0], 1.0)) == 6
        for theta in np.linspace(1.60, 1.80, 5):
            assert fold_locus(float(theta), M32) is not None

    def test_tau_row_solves_phi1_once(self, monkeypatch):
        from spheretop import relequil

        calls = []
        phi1 = relequil._phi1
        monkeypatch.setattr(relequil, "_phi1", lambda *a: calls.append(a) or phi1(*a))
        exp_tau = np.exp(np.linspace(-3.0, 3.0, 9))
        rows = [relequil.solve_re(theta, 1.0, M32, GRAV32) for theta in (0.7, 2.2)]
        assert all(a.shape == (2, 9) for a in relequil.tau_row(rows, exp_tau, M32))
        assert len(calls) == 2
        res = ec_surface("obtuse", (1.65, 3.0), (-3.0, 3.0), (7, 9), M32, GRAV32)
        assert res.scalar_nodes == 0 and len(calls) == 2 + 7

    def test_tau_row_takes_the_operations_of_re_from_tau(self):
        # one broadcast pass over a block of rows, bit for bit node by node
        from spheretop import relequil

        taus = np.linspace(-3.0, 3.0, 7).tolist()
        exp_tau = np.array([math.exp(t) for t in taus])
        rows = [(0.7, None), (2.2, None), (math.pi / 2, 0.3), (math.pi / 2, 1.2)]
        block = relequil.tau_row([relequil.solve_re(theta, 1.0, M11, GRAV11, phi1=phi1)
                                  for theta, phi1 in rows], exp_tau, M11)
        for i, (theta, phi1) in enumerate(rows):
            for k, tau in enumerate(taus):
                re = relequil.re_from_tau(theta, tau, M11, GRAV11, phi1=phi1)
                assert [a[i, k] for a in block] == [re.eta_mag, re.y, re.xi_mag, re.x1, re.x2]

    def test_right_angled_phi1_zero_fails_with_the_solver_message(self):
        # the row used to divide by zeta = m1 sin 2phi1 = 0 before solve_re
        # could reject phi1 = 0, recording ZeroDivisionError
        m, pot = _top()
        res = ec_surface("rightAngled", (0, 0), (-1.0, 1.0), (3, 4), m, pot,
                         phi1_range=(-0.5, 0.0))
        assert len(res.samples) == 8
        assert res.failures == tuple(
            (math.pi / 2, tau, "ValueError: repulsive right-angled REs have phi1 in (-pi/2, 0)")
            for tau in np.linspace(-1.0, 1.0, 4).tolist())
