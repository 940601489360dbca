import math
import warnings

import numpy as np
import pytest

from conftest import haar_unitary, random_pure_stokes, random_stokes
from oracles import su2_decompose, trace_norm_herm
from wpdlab import duality as du, interferometer as itf, polarization as pol
from wpdlab.errors import InvalidState, NonOrthonormalBasis, NonUnitary
from wpdlab.linalg import SIGMA0, SIGMA2

Y_AXIS = np.array([0.0, 1.0, 0.0])


def config(theta1, theta0=0.0):
    return itf.InterferometerConfig(theta0_deg=theta0, theta1_deg=theta1)


class TestSu2Decompose:
    def test_identity(self):
        rot = su2_decompose(SIGMA0)
        assert rot.e0 == 1.0
        assert np.array_equal(rot.e, np.zeros(3))
        assert np.array_equal(rot.axis, Y_AXIS)

    def test_relative_rotation_matches_published_parameters(self):
        # theta0 = 0: e0 = cos 2 theta1, e = sin 2 theta1 (0, -1, 0)
        for theta1 in (5.0, 22.5, 30.0, 40.0):
            rot = du.rotation_from_config(config(theta1))
            t = math.radians(theta1)
            assert rot.e0 == pytest.approx(math.cos(2 * t), abs=1e-12)
            want = math.sin(2 * t) * np.array([0.0, -1.0, 0.0])
            assert np.max(np.abs(np.outer(rot.e, rot.e) - np.outer(want, want))) < 1e-12

    def test_quarter_turn_angles(self):
        rot = du.rotation_from_config(config(45.0))
        assert rot.e0 == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(rot.e) == pytest.approx(1.0, abs=1e-12)
        # the su2 route gives e0 = -6.1e-17 here, with e flipped
        assert rot.e0 >= 0.0

    def test_reconstruction_property(self, rng):
        from wpdlab import linalg
        for _ in range(200):
            u = haar_unitary(rng)
            rot = su2_decompose(u)
            recon = rot.e0 * SIGMA0 + 1j * (
                rot.e[0] * linalg.SIGMA1 + rot.e[1] * SIGMA2 + rot.e[2] * linalg.SIGMA3)
            stripped = u / np.sqrt(np.linalg.det(u))
            if np.trace(stripped).real < 0:
                stripped = -stripped
            assert np.max(np.abs(recon - stripped)) < 1e-10
            assert rot.e0**2 + rot.e @ rot.e == pytest.approx(1.0, abs=1e-12)
            assert rot.e0 >= 0

    def test_global_phase_branch_is_inert(self, rng):
        # flipping the overall sign leaves every functional unchanged
        for _ in range(50):
            u = haar_unitary(rng)
            s = random_stokes(rng)
            a, b = su2_decompose(u), su2_decompose(-u)
            assert du.visibility_stokes(a, s) == pytest.approx(
                du.visibility_stokes(b, s), abs=1e-12)
            assert du.d_general(a, s) == pytest.approx(du.d_general(b, s), abs=1e-12)
            assert du.dc_stokes(a, s) == pytest.approx(du.dc_stokes(b, s), abs=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitary):
            su2_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRelativeRotation:
    def test_no_marking_is_identity_up_to_phase(self):
        u = du.relative_rotation(config(0.0))
        phase = u[0, 0] / abs(u[0, 0])
        assert np.max(np.abs(u - phase * SIGMA0)) < 1e-12

    def test_half_marking_parameter(self):
        rot = du.rotation_from_config(config(22.5))
        assert rot.e0 == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_stokes_map_composes_arm_rotations(self, rng):
        from test_interferometer import stokes_map
        for _ in range(10):
            t0, t1 = rng.uniform(0, 45, size=2)
            cfg = config(t1, theta0=t0)
            lhs = stokes_map(du.relative_rotation(cfg))
            rhs = stokes_map(itf.retro_rotator(t0)).T @ \
                stokes_map(itf.retro_rotator_flipped(t1))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def _worst_oracle_gap(angle_pairs):
    """Largest deviation of the closed form from the su2 route, on e0^2 and
    e e^T (all a functional reads), over (theta0, theta1) pairs; every closed
    form must keep e0 >= 0 and the s2 axis."""
    got, want = [], []
    for t0, t1 in angle_pairs:
        cfg = config(float(t1), theta0=float(t0))
        got.append(du.rotation_from_config(cfg))
        want.append(su2_decompose(du.relative_rotation(cfg)))
    assert all(rot.e0 >= 0.0 and np.array_equal(rot.axis, Y_AXIS) for rot in got)

    def squares(rots):
        e0 = np.array([rot.e0 for rot in rots])
        e = np.array([rot.e for rot in rots])
        return e0 * e0, e[:, :, None] * e[:, None, :]

    (g0, gee), (w0, wee) = squares(got), squares(want)
    return max(float(np.max(np.abs(g0 - w0))), float(np.max(np.abs(gee - wee))))


class TestRotationFromConfig:
    def test_matches_su2_route(self, rng):
        thetas = np.linspace(-180.0, 180.0, 361)
        pairs = [*rng.uniform(-180.0, 180.0, size=(20_000, 2))]
        pairs += [(t0, t1) for t0 in (0.0, 22.5, -45.0) for t1 in thetas]
        # theta0 + theta1 on the boundaries: no marking, V = 0, a full turn
        pairs += [(t0, total - t0) for total in (0.0, 45.0, 90.0)
                  for t0 in (0.0, 22.5, -45.0, 10.0, -33.3)]
        assert _worst_oracle_gap(pairs) <= 1e-14

    def test_matches_su2_route_at_large_angles(self, rng):
        assert _worst_oracle_gap(rng.uniform(-1e4, 1e4, size=(2_000, 2))) <= 1e-12


class TestStokesFunctionals:
    def test_visibility_unpolarized(self, rng):
        u = haar_unitary(rng)
        rot = su2_decompose(u)
        assert du.visibility_stokes(rot, [0, 0, 0]) == pytest.approx(abs(rot.e0), abs=1e-12)

    def test_visibility_on_axis_pure(self, rng):
        for _ in range(20):
            rot = su2_decompose(haar_unitary(rng))
            assert du.visibility_stokes(rot, rot.axis) == pytest.approx(1.0, abs=1e-12)

    def test_visibility_half_marking(self):
        rot = du.rotation_from_config(config(22.5))
        assert du.visibility_stokes(rot, [0, 0, 0]) == pytest.approx(
            math.cos(math.pi / 4), abs=1e-10)

    def test_dc_zero_for_unpolarized(self, rng):
        rot = su2_decompose(haar_unitary(rng))
        assert du.dc_stokes(rot, [0, 0, 0]) == 0.0

    def test_dc_orthogonal_pure_states(self):
        rho_h = pol.density_from_stokes([0, 0, 1])
        rho_v = pol.density_from_stokes([0, 0, -1])
        assert du.dc_trace_distance(rho_h, rho_v) == pytest.approx(1.0, abs=1e-12)

    def test_dc_perpendicular_half_radius(self):
        rot = du.rotation_from_config(config(45.0))
        s = 0.5 * np.array([0, 0, 1.0])  # perpendicular to the y rotation axis
        assert du.dc_stokes(rot, s) == pytest.approx(0.5, abs=1e-12)

    def test_d_maximum_marking(self):
        rot = du.rotation_from_config(config(45.0))
        assert du.d_general(rot, [0.3, 0, 0.2]) == pytest.approx(
            math.sqrt(1 - 0.0), abs=1e-12)

    def test_d_on_axis_pure_is_zero(self, rng):
        for _ in range(20):
            rot = su2_decompose(haar_unitary(rng))
            assert du.d_general(rot, rot.axis) < 1e-7

    def test_d_half_marking(self):
        rot = du.rotation_from_config(config(22.5))
        assert du.d_general(rot, [0, 0, 0]) == pytest.approx(
            math.sin(math.pi / 4), abs=1e-10)

    def test_trace_distance_is_half_stokes_distance(self, rng):
        for _ in range(100):
            s0, s1 = random_stokes(rng), random_stokes(rng)
            got = du.dc_trace_distance(pol.density_from_stokes(s0),
                                       pol.density_from_stokes(s1))
            assert got == pytest.approx(0.5 * np.linalg.norm(s0 - s1), abs=1e-12)

    def test_trace_distance_matches_eigenvalue_oracle(self, rng):
        mixed = [(random_stokes(rng), random_stokes(rng)) for _ in range(1_000)]
        pure = [(random_pure_stokes(rng), random_pure_stokes(rng)) for _ in range(600)]
        equal = [(s, s) for s in (random_stokes(rng) for _ in range(200))]
        equal += [(s, s) for s in (random_pure_stokes(rng) for _ in range(200))]
        worst = 0.0
        for s0, s1 in mixed + pure + equal:
            rho0, rho1 = pol.density_from_stokes(s0), pol.density_from_stokes(s1)
            want = 0.5 * trace_norm_herm(rho0 - rho1)
            worst = max(worst, abs(du.dc_trace_distance(rho0, rho1) - want))
        assert worst <= 1e-15


class TestDecomposeForAxis:
    def test_unpolarized_hv_split(self):
        dec = du.decompose_for_axis([0, 0, 0], Y_AXIS)
        assert np.max(np.abs(dec.s_alpha - np.array([0, 0, 1.0]))) < 1e-12
        assert np.max(np.abs(dec.s_beta - np.array([0, 0, -1.0]))) < 1e-12
        assert dec.p_alpha == pytest.approx(0.5, abs=1e-12)

    def test_weighted_split_along_s3(self):
        s3 = 0.061
        dec = du.decompose_for_axis([0, 0, s3], Y_AXIS)
        assert np.max(np.abs(dec.s_alpha - np.array([0, 0, 1.0]))) < 1e-12
        assert np.max(np.abs(dec.s_beta - np.array([0, 0, -1.0]))) < 1e-12
        assert dec.p_alpha == pytest.approx(0.5 * (1 + s3), abs=1e-12)
        assert dec.p_beta == pytest.approx(0.5 * (1 - s3), abs=1e-12)

    def test_on_axis_fallback_chord(self):
        axis = Y_AXIS
        dec = du.decompose_for_axis(0.5 * axis, axis)
        self._check_invariants(dec, 0.5 * axis, axis)

    def test_invariants_random(self, rng):
        for _ in range(200):
            s = random_stokes(rng, max_norm=0.999)
            axis = random_pure_stokes(rng)
            dec = du.decompose_for_axis(s, axis)
            self._check_invariants(dec, s, axis)

    def _check_invariants(self, dec, s, axis):
        assert dec.p_alpha + dec.p_beta == pytest.approx(1.0, abs=1e-12)
        assert dec.p_alpha >= -1e-12 and dec.p_beta >= -1e-12
        mix = dec.p_alpha * dec.s_alpha + dec.p_beta * dec.s_beta
        assert np.max(np.abs(mix - np.asarray(s, float))) < 1e-10
        h = float(axis @ np.asarray(s, float))
        assert float(axis @ dec.s_alpha) == pytest.approx(h, abs=1e-10)
        assert float(axis @ dec.s_beta) == pytest.approx(h, abs=1e-10)
        assert np.linalg.norm(dec.s_alpha) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(dec.s_beta) == pytest.approx(1.0, abs=1e-10)

    def test_pure_state_trivial(self, rng):
        for _ in range(20):
            s = random_pure_stokes(rng)
            for axis in (Y_AXIS, random_pure_stokes(rng)):
                dec = du.decompose_for_axis(s, axis)
                assert dec.p_alpha == 1.0 and dec.p_beta == 0.0
                assert np.array_equal(dec.s_alpha, s)
                self._check_invariants(dec, s, axis)

    def test_unphysical_rejected(self):
        with pytest.raises(InvalidState):
            du.decompose_for_axis([1.2, 0, 0], Y_AXIS)

    @pytest.mark.parametrize("axis", [[0, 0, 0], [0, np.nan, 0], [1, 0]])
    def test_bad_axis_rejected(self, axis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidState, match="axis"):
                du.decompose_for_axis([0.1, 0.2, 0.3], axis)

    def test_any_equal_height_chord_gives_same_d(self, rng):
        # the chord convention is for determinism only: every chord at the
        # same axis height yields the same weighted distinguishability
        for _ in range(20):
            rot = su2_decompose(haar_unitary(rng))
            s = random_stokes(rng, max_norm=0.95)
            want = du.d_general(rot, s)
            h = float(rot.axis @ s)
            radius = math.sqrt(1 - h * h)
            for _ in range(8):
                # random point on the equal-height circle, then the lever rule
                raw = rng.normal(size=3)
                u = raw - (raw @ rot.axis) * rot.axis
                u /= np.linalg.norm(u)
                s_a = h * rot.axis + radius * u
                direction = s - s_a
                if np.linalg.norm(direction) < 1e-9:
                    continue
                direction /= np.linalg.norm(direction)
                # second sphere intersection of the line through s_a and s:
                # |s_a + t d|^2 = 1 has roots t = 0 and t = -2 (s_a . d)
                s_b = s_a - 2.0 * float(s_a @ direction) * direction
                p_a = np.linalg.norm(s_b - s) / np.linalg.norm(s_b - s_a)
                got = p_a * du.d_general(rot, s_a) + (1 - p_a) * du.d_general(rot, s_b)
                assert got == pytest.approx(want, abs=1e-9)


class TestDecompositionRoute:
    def test_maximum_marking_unpolarized(self):
        rot = du.rotation_from_config(config(45.0))
        assert du.d_via_decomposition(rot, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_pure_input_reduces_to_single_branch(self, rng):
        rot = du.rotation_from_config(config(30.0))
        s = random_pure_stokes(rng)
        assert du.d_via_decomposition(rot, s) == pytest.approx(
            du.d_general(rot, s), abs=1e-12)

    def test_matches_closed_form(self):
        rot = du.rotation_from_config(config(30.0))
        s = np.array([0, 0, 0.061])
        want = math.sqrt(1 - 0.0) * abs(math.sin(math.radians(60)))
        assert du.d_via_decomposition(rot, s) == pytest.approx(want, abs=1e-10)
        assert du.d_general(rot, s) == pytest.approx(want, abs=1e-10)

    def test_equal_branch_distinguishability(self, rng):
        for _ in range(100):
            rot = su2_decompose(haar_unitary(rng))
            s = random_stokes(rng, max_norm=0.999)
            dec = du.decompose_for_axis(s, rot.axis)
            d_a = du.d_general(rot, dec.s_alpha)
            d_b = du.d_general(rot, dec.s_beta)
            assert d_a == pytest.approx(d_b, abs=1e-10)
            assert du.d_via_decomposition(rot, s) == pytest.approx(
                du.d_general(rot, s), abs=1e-10)


class TestLikelihood:
    BASIS_HV = (np.array([1.0, 0j]), np.array([0j, 1.0]))

    def test_identical_states_random_guess(self, rng):
        rho = pol.density_from_stokes(random_stokes(rng))
        assert du.likelihood(self.BASIS_HV, rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states_certain(self):
        rho_h = pol.density_from_stokes([0, 0, 1])
        rho_v = pol.density_from_stokes([0, 0, -1])
        assert du.likelihood(self.BASIS_HV, rho_h, rho_v) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_for_half_overlap(self):
        # pure states with overlap cos 45 deg; Helstrom basis gives (1+sin45)/2
        rho0 = pol.density_from_stokes([0, 0, 1])
        rho1 = pol.density_from_stokes([1, 0, 0])
        diff = np.array([0, 0, 1.0]) - np.array([1.0, 0, 0])
        axis = diff / np.linalg.norm(diff)
        plus = pol.jones_from_stokes(axis)
        minus = pol.jones_from_stokes(-axis)
        got = du.likelihood((plus, minus), rho0, rho1)
        assert got == pytest.approx(0.8535533905932737, abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            rho0 = pol.density_from_stokes(random_stokes(rng))
            rho1 = pol.density_from_stokes(random_stokes(rng))
            value = du.likelihood(self.BASIS_HV, rho0, rho1)
            assert 0.5 - 1e-12 <= value <= 1.0 + 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(NonOrthonormalBasis):
            du.likelihood((np.array([1.0, 0]), np.array([1.0, 0])),
                          pol.density_from_stokes([0, 0, 0]),
                          pol.density_from_stokes([0, 0, 0]))


class TestMaxLikelihoodSearch:
    def test_orthogonal_pure_pair(self):
        l_max, _ = du.max_likelihood_search(
            pol.density_from_stokes([0, 0, 1]),
            pol.density_from_stokes([0, 0, -1]), trials=2000, seed=1)
        assert l_max == pytest.approx(1.0, abs=1e-9)

    def test_identical_mixed_pair(self, rng):
        rho = pol.density_from_stokes(random_stokes(rng))
        l_max, _ = du.max_likelihood_search(rho, rho, trials=500, seed=2)
        assert l_max == pytest.approx(0.5, abs=1e-12)

    def test_matches_trace_distance(self, rng):
        for _ in range(20):
            rho0 = pol.density_from_stokes(random_stokes(rng))
            rho1 = pol.density_from_stokes(random_stokes(rng))
            l_max, basis = du.max_likelihood_search(rho0, rho1, trials=10_000, seed=5)
            assert 2 * l_max - 1 == pytest.approx(
                du.dc_trace_distance(rho0, rho1), abs=1e-3)
            # the returned basis reproduces the reported maximum
            assert du.likelihood(basis, rho0, rho1) == pytest.approx(l_max, abs=1e-12)

    def test_deterministic(self, rng):
        rho0 = pol.density_from_stokes(random_stokes(rng))
        rho1 = pol.density_from_stokes(random_stokes(rng))
        a = du.max_likelihood_search(rho0, rho1, trials=300, seed=9)[0]
        b = du.max_likelihood_search(rho0, rho1, trials=300, seed=9)[0]
        assert a == b

    def test_trials_validated(self):
        rho = pol.density_from_stokes([0, 0, 0])
        with pytest.raises(InvalidState):
            du.max_likelihood_search(rho, rho, trials=0)


class TestHelstrom:
    def test_certain(self):
        assert du.helstrom_bound(1.0) == 0.0

    def test_random(self):
        assert du.helstrom_bound(0.0) == 0.5

    def test_half_overlap(self):
        assert du.helstrom_bound(math.sin(math.pi / 4)) == pytest.approx(
            0.14644660940672627, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(InvalidState):
            du.helstrom_bound(1.5)


class TestDualityReport:
    def test_maximum_marking_unpolarized(self):
        report = du.duality_report(config(45.0), [0, 0, 0])
        assert report.visibility == pytest.approx(0.0, abs=1e-12)
        assert report.d_conventional == pytest.approx(0.0, abs=1e-12)
        assert report.d_general == pytest.approx(1.0, abs=1e-12)

    def test_no_marking_any_state(self, rng):
        report = du.duality_report(config(0.0), random_stokes(rng))
        assert report.visibility == pytest.approx(1.0, abs=1e-12)
        assert report.d_conventional == pytest.approx(0.0, abs=1e-7)
        assert report.d_general == pytest.approx(0.0, abs=1e-7)

    def test_half_marking_pure_linear(self):
        report = du.duality_report(config(22.5), [0, 0, 1])
        val = math.cos(math.pi / 4)
        assert report.visibility == pytest.approx(val, abs=1e-10)
        assert report.d_conventional == pytest.approx(val, abs=1e-10)
        assert report.d_general == pytest.approx(val, abs=1e-10)
        assert report.sum_vd == pytest.approx(1.0, abs=1e-12)
        assert report.sum_vdc == pytest.approx(1.0, abs=1e-12)

    def test_matches_public_functionals(self, rng):
        n = 2_000
        states = [random_stokes(rng) for _ in range(n // 2)]
        states += [random_pure_stokes(rng) for _ in range(n // 4)]
        states += [np.zeros(3)] * (n // 8)
        states += [np.array([0.0, y, 0.0]) for y in rng.uniform(-1.0, 1.0, size=n // 8)]
        angles = rng.uniform(-90.0, 90.0, size=(n, 2))
        for (t0, t1), s in zip(angles, states):
            cfg = config(float(t1), theta0=float(t0))
            report = du.duality_report(cfg, s)
            rot = du.rotation_from_config(cfg)
            assert report.visibility == du.visibility_stokes(rot, s)
            assert report.d_conventional == du.dc_stokes(rot, s)
            assert report.d_general == du.d_general(rot, s)


class TestInvariants:
    def test_wpd_equality_grid(self, rng):
        # V^2 + D^2 = 1 across the angle grid and random physical states
        thetas = np.arange(0.0, 46.0, 1.0)
        states = [random_stokes(rng) for _ in range(500)]
        worst = 0.0
        for t1 in thetas:
            rot = du.rotation_from_config(config(float(t1)))
            for s in states[:: max(1, int(len(states) / 25))]:
                v = du.visibility_stokes(rot, s)
                d = du.d_general(rot, s)
                worst = max(worst, abs(v * v + d * d - 1.0))
        assert worst < 1e-10

    def test_conventional_bound_closed_form(self, rng):
        for _ in range(300):
            t1 = rng.uniform(0, 45)
            s = random_stokes(rng)
            rot = du.rotation_from_config(config(t1))
            v = du.visibility_stokes(rot, s)
            dc = du.dc_stokes(rot, s)
            t = math.radians(t1)
            want = math.cos(2 * t) ** 2 + float(s @ s) * math.sin(2 * t) ** 2
            assert v * v + dc * dc == pytest.approx(want, abs=1e-10)

    def test_hidden_distinguishability_identity(self, rng):
        # D^2 = Dc^2 + (1 - s^2) e^2
        for _ in range(300):
            rot = su2_decompose(haar_unitary(rng))
            s = random_stokes(rng)
            lhs = du.d_general(rot, s) ** 2
            rhs = du.dc_stokes(rot, s) ** 2 + \
                (1 - float(s @ s)) * float(rot.e @ rot.e)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dc_bounded_by_d(self, rng):
        for _ in range(300):
            rot = su2_decompose(haar_unitary(rng))
            s = random_stokes(rng)
            dc = du.dc_stokes(rot, s)
            d = du.d_general(rot, s)
            assert dc <= d + 1e-12
            if np.linalg.norm(s) < 1 - 1e-6 and np.linalg.norm(rot.e) > 1e-3:
                assert dc < d
        s = random_pure_stokes(rng)
        rot = du.rotation_from_config(config(33.0))
        assert du.dc_stokes(rot, s) == pytest.approx(du.d_general(rot, s), abs=1e-9)


class TestClassifyCase:
    @pytest.mark.parametrize("s,want", [
        ((0, 0, 1), "a"),
        ((0, 2**-0.5, 2**-0.5), "b"),
        ((0, 1, 0), "c"),
        ((0, 0, 0), "d"),
        ((0, 0, 0.4), "d"),
        ((0, 0.3, 0.3), "e"),
        ((0, 0.4, 0), "f"),
        ((0.3, 0.3, 0), "e"),
    ])
    def test_examples(self, s, want):
        assert du.classify_case(s) == want

    def test_boundary_tolerance(self):
        assert du.classify_case([0, 1e-10, 0.5]) == "d"
        assert du.classify_case([0, 1 - 1e-10, 0]) == "c"
