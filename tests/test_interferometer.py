import math

import numpy as np
import pytest

from conftest import random_stokes
from oracles import interference_coefficient, with_phase
from wpdlab import interferometer as itf, linalg, polarization as pol
from wpdlab.errors import EmptyInput, InvalidState, ZeroProbability
from wpdlab.linalg import SIGMA0, SIGMA3

UNPOLARIZED = SIGMA0 / 2
RHO_H = np.diag([1.0, 0.0]).astype(complex)
RHO_V = np.diag([0.0, 1.0]).astype(complex)


def same_bits(got, want) -> bool:
    """Equal bit for bit, so that a signed zero counts: `np.array_equal`
    has -0.0 == 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def reference_port_amplitudes(cfg, port):
    """Per-point 4x4 route, one product per arm: the stacked core's reference."""
    ubs = itf.npbs_unitary()
    uw = itf.path_unitary(cfg)
    proj = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
    proj[0][:2, :2] = np.eye(2)
    proj[1][2:, 2:] = np.eye(2)
    return [(ubs.conj().T @ proj[p] @ uw @ ubs)[2 * port:2 * port + 2, 0:2]
            for p in range(2)]


def reference_conditional_output(cfg, rho, open_path, port):
    """One-arm 4x4 route: the full round trip with the closed arm's block of
    the path propagator zeroed."""
    ubs = itf.npbs_unitary()
    uw = itf.path_unitary(cfg)
    closed = slice(2, 4) if open_path == 0 else slice(0, 2)
    uw[closed, closed] = 0
    block = (ubs.conj().T @ uw @ ubs)[2 * port:2 * port + 2, 0:2]
    raw = block @ rho @ block.conj().T
    if port == 1:
        raw = SIGMA3 @ raw @ SIGMA3
    prob = float(np.trace(raw).real)
    return prob, raw / prob


def reference_port_state(cfg, rho, port, kappa):
    b0, b1 = reference_port_amplitudes(cfg, port)
    direct = b0 @ rho @ b0.conj().T + b1 @ rho @ b1.conj().T
    cross = b0 @ rho @ b1.conj().T + b1 @ rho @ b0.conj().T
    m = direct + kappa * cross
    return SIGMA3 @ m @ SIGMA3 if port == 1 else m


def reference_fringe_scan(cfg, rho, spectral, delta, analyzers=None):
    """The per-point fringe loop, kept as the bit-exact reference."""
    rows = []
    for d, phi, env in zip(delta, spectral.phase(delta), spectral.envelope(delta)):
        pointcfg = with_phase(cfg, float(phi))
        kappa = cfg.visibility_scale * float(env)
        raw1 = reference_port_state(pointcfg, rho, 1, kappa)
        raw0 = reference_port_state(pointcfg, rho, 0, kappa)
        row = [float(d), float(phi), float(np.trace(raw0).real),
               float(np.trace(raw1).real)]
        if analyzers is not None:
            for v in itf.analyzer_basis(analyzers):
                row.append(float(np.real(v.conj() @ raw1 @ v)))
        rows.append(row)
    return np.array(rows)


def stokes_map(u):
    """3x3 rotation a 2x2 unitary induces on the Stokes vector."""
    cols = []
    for axis in np.eye(3):
        rho = pol.density_from_stokes(axis)
        cols.append(pol.stokes_from_density(u @ rho @ u.conj().T / np.trace(
            u @ rho @ u.conj().T).real))
    return np.array(cols).T


class TestJonesElements:
    def test_hwp_at_zero_is_sigma3(self):
        assert np.array_equal(itf.jones_hwp(0.0), SIGMA3)

    def test_qwp_at_zero(self):
        q = itf.jones_qwp(0.0)
        assert linalg.is_unitary(q)
        # squares to a quarter-wave pair = half-wave plate, up to global phase
        sq = q @ q
        assert np.max(np.abs(sq - 1j * SIGMA3)) < 1e-15

    def test_mirror_involution(self):
        m = itf.jones_mirror()
        assert np.array_equal(m @ m, SIGMA0)

    def test_all_unitary(self, rng):
        for theta in rng.uniform(-90, 90, size=10):
            assert linalg.is_unitary(itf.jones_qwp(theta))
            assert linalg.is_unitary(itf.jones_hwp(theta))


class TestNpbs:
    def test_unitary(self):
        u = itf.npbs_unitary()
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-15

    def test_column_h(self):
        # |0H> -> (|0H> + i |1H>)/sqrt2
        got = itf.npbs_unitary()[:, 0]
        want = np.array([1, 0, 1j, 0]) / np.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-15

    def test_column_v_opposite_sign(self):
        # |0V> -> (|0V> - i |1V>)/sqrt2, Fresnel sign flip against H
        got = itf.npbs_unitary()[:, 1]
        want = np.array([0, 1, 0, -1j]) / np.sqrt(2)
        assert np.max(np.abs(got - want)) < 1e-15


class TestRetroRotator:
    def test_zero_angle_is_global_i(self):
        assert np.max(np.abs(itf.retro_rotator(0.0) - 1j * SIGMA0)) < 1e-15

    def test_stokes_rotation_is_4theta_about_y(self, rng):
        for theta in rng.uniform(-45, 45, size=20):
            rot = stokes_map(itf.retro_rotator(theta))
            angle = math.atan2(rot[0, 2], rot[2, 2])
            assert abs(math.remainder(abs(angle) - math.radians(4 * abs(theta)),
                                      2 * math.pi)) < 1e-10
            assert np.max(np.abs(rot @ np.array([0, 1, 0]) - np.array([0, 1, 0]))) < 1e-12

    def test_half_turn_flips_h_to_v(self):
        u = itf.retro_rotator(45.0)
        s_out = pol.stokes_from_density(u @ RHO_H @ u.conj().T)
        assert np.max(np.abs(s_out - np.array([0, 0, -1.0]))) < 1e-12

    def test_circular_axis_fixed(self, rng):
        for theta in rng.uniform(-45, 45, size=10):
            u = itf.retro_rotator(theta)
            rho = pol.density_from_stokes([0, 1, 0])
            s_out = pol.stokes_from_density(u @ rho @ u.conj().T)
            assert np.max(np.abs(s_out - np.array([0, 1.0, 0]))) < 1e-12

    def test_equals_hwp_mirror_form(self, rng):
        # U_R(theta) equals M . U_HWP(theta) up to a global phase
        for theta in rng.uniform(-45, 45, size=10):
            a = itf.retro_rotator(theta)
            b = itf.jones_mirror() @ itf.jones_hwp(theta)
            phase = a[np.unravel_index(np.argmax(np.abs(a)), a.shape)] / \
                b[np.unravel_index(np.argmax(np.abs(a)), a.shape)]
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(a - phase * b)) < 1e-12


class TestPathUnitary:
    def test_identity_angles(self):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=0, phase_phi=0.0)
        assert np.max(np.abs(itf.path_unitary(cfg) - 1j * np.eye(4))) < 1e-15

    def test_pi_phase_negates_path0_block(self):
        cfg = itf.InterferometerConfig(phase_phi=math.pi)
        u = itf.path_unitary(cfg)
        assert np.max(np.abs(u[:2, :2] + 1j * SIGMA0)) < 1e-12
        assert np.max(np.abs(u[2:, 2:] - 1j * SIGMA0)) < 1e-15


class TestInterferometerUnitary:
    def test_unitarity(self, rng):
        for _ in range(10):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(0, 45), theta1_deg=rng.uniform(0, 45),
                phase_phi=rng.uniform(0, 2 * math.pi))
            u = itf.interferometer_unitary(cfg)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_no_marking_gives_full_cosine_fringe(self):
        # port-1 intensity is (1 + cos(phi + offset))/2 for some fixed offset
        phis = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        _, intensities = itf.port_probabilities(itf.InterferometerConfig(), UNPOLARIZED, phis)
        vis, phase = itf.fit_visibility(phis, intensities)
        assert vis == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(intensities - 0.5 * (1 + np.cos(phis - phase)))) < 1e-12

    def test_maximum_marking_flattens_port_intensity(self):
        cfg0 = itf.InterferometerConfig(theta0_deg=0, theta1_deg=45)
        _, vals = itf.port_probabilities(cfg0, UNPOLARIZED, np.linspace(0, 2 * math.pi, 17))
        assert np.ptp(vals) < 1e-12


class TestOutputDensity:
    def test_bright_port_reaches_scaled_maximum(self):
        for scale in (1.0, 0.8):
            cfg = itf.InterferometerConfig(visibility_scale=scale)
            _, p1 = itf.port_probabilities(cfg, UNPOLARIZED, np.linspace(0, 2 * math.pi, 721))
            best = float(p1.max())
            assert best == pytest.approx(0.5 * (1 + scale), abs=1e-6)

    def test_unpolarized_stays_unpolarized_without_marking(self):
        cfg = itf.InterferometerConfig(phase_phi=1.1)
        _, rho_out = itf.output_density(cfg, UNPOLARIZED, 1)
        assert np.max(np.abs(rho_out - UNPOLARIZED)) < 1e-12

    def test_port_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(0, 45), theta1_deg=rng.uniform(0, 45),
                phase_phi=rng.uniform(0, 2 * math.pi),
                visibility_scale=rng.uniform(0.3, 1.0))
            rho = pol.density_from_stokes(random_stokes(rng))
            (p0,), (p1,) = itf.port_probabilities(cfg, rho, [cfg.phase_phi])
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_dark_port_raises(self):
        # no marking: port 1 is exactly dark at phi = 0
        cfg = itf.InterferometerConfig(phase_phi=0.0)
        with pytest.raises(ZeroProbability):
            itf.output_density(cfg, UNPOLARIZED, 1)


class TestInterferenceCoefficient:
    def test_no_marking_full_visibility(self):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=0)
        assert abs(interference_coefficient(cfg, UNPOLARIZED)) == \
            pytest.approx(1.0, abs=1e-15)

    def test_maximum_marking_zero_visibility(self):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=45)
        assert abs(interference_coefficient(cfg, UNPOLARIZED)) < 1e-15

    def test_half_marking(self):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=22.5)
        assert abs(interference_coefficient(cfg, UNPOLARIZED)) == \
            pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_pointwise_fringe_match(self, rng):
        # closed form (1 + |C| cos(phi + arg C))/2 equals the matrix route
        for _ in range(15):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(0, 45), theta1_deg=rng.uniform(0, 45))
            rho = pol.density_from_stokes(random_stokes(rng))
            coeff = interference_coefficient(cfg, rho)
            phis = np.linspace(0, 2 * math.pi, 11)
            closed = 0.5 * (1 + abs(coeff) * np.cos(phis + np.angle(coeff)))
            _, p1 = itf.port_probabilities(cfg, rho, phis)
            assert np.max(np.abs(p1 - closed)) <= 1e-10


class TestConditionalOutput:
    def test_equals_one_arm_route(self, rng):
        for _ in range(50):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(-90, 90), theta1_deg=rng.uniform(-90, 90),
                phase_phi=rng.uniform(-10, 10))
            rho = pol.density_from_stokes(random_stokes(rng))
            for path in (0, 1):
                for port in (0, 1):
                    prob, state = itf.conditional_output(cfg, rho, path, port)
                    want_prob, want_state = reference_conditional_output(cfg, rho, path, port)
                    assert np.array_equal(prob, want_prob)
                    assert np.array_equal(state, want_state)

    def test_bad_path_rejected(self):
        with pytest.raises(InvalidState):
            itf.conditional_output(itf.InterferometerConfig(), UNPOLARIZED, 2, 1)

    @pytest.mark.parametrize("port", [2, -1])
    def test_bad_port_rejected(self, port):
        with pytest.raises(InvalidState, match=f"port must be 0 or 1, got {port}"):
            itf.conditional_output(itf.InterferometerConfig(), UNPOLARIZED, 0, port)

    def test_quarter_probability_for_any_input(self, rng):
        for _ in range(10):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(0, 45), theta1_deg=rng.uniform(0, 45),
                phase_phi=rng.uniform(0, 2 * math.pi))
            rho = pol.density_from_stokes(random_stokes(rng))
            for path in (0, 1):
                for port in (0, 1):
                    prob, _ = itf.conditional_output(cfg, rho, path, port)
                    assert prob == pytest.approx(0.25, abs=1e-12)

    def test_open_path0_identity_rotation(self, rng):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=30)
        rho = pol.density_from_stokes(random_stokes(rng))
        _, out = itf.conditional_output(cfg, rho, open_path=0, port=1)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_open_path1_half_turn(self):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=45)
        _, out = itf.conditional_output(cfg, RHO_H, open_path=1, port=1)
        assert np.max(np.abs(out - RHO_V)) < 1e-12

    def test_unpolarized_invariant(self, rng):
        for theta1 in rng.uniform(0, 45, size=5):
            cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=theta1)
            _, out = itf.conditional_output(cfg, UNPOLARIZED, open_path=1, port=1)
            assert np.max(np.abs(out - UNPOLARIZED)) < 1e-12


class TestAnalyzer:
    def test_h_on_h(self):
        setting = itf.AnalyzerSetting(hwp_angle_deg=0, qwp_angle_deg=0)
        assert itf.analyzer_probability(RHO_H, setting, "transmit") == \
            pytest.approx(1.0, abs=1e-12)

    def test_unpolarized_half(self, rng):
        setting = itf.AnalyzerSetting(hwp_angle_deg=rng.uniform(0, 90),
                                      qwp_angle_deg=rng.uniform(0, 90))
        assert itf.analyzer_probability(UNPOLARIZED, setting, "transmit") == \
            pytest.approx(0.5, abs=1e-12)

    def test_circular_basis_detects_circular(self):
        rho_r = pol.density_from_stokes([0, 1, 0])
        p_t = itf.analyzer_probability(rho_r, itf.CIRCULAR_ANALYZER, "transmit")
        p_r = itf.analyzer_probability(rho_r, itf.CIRCULAR_ANALYZER, "reflect")
        assert {round(p_t, 12), round(p_r, 12)} == {0.0, 1.0}

    def test_transmit_reflect_sum(self, rng):
        rho = pol.density_from_stokes(random_stokes(rng))
        setting = itf.AnalyzerSetting(hwp_angle_deg=rng.uniform(0, 90),
                                      qwp_angle_deg=rng.uniform(0, 90))
        total = (itf.analyzer_probability(rho, setting, "transmit")
                 + itf.analyzer_probability(rho, setting, "reflect"))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestFringeScan:
    def test_envelope_peak_at_zero_delta(self):
        spec = itf.SpectralModel(center_wavelength_nm=679, bandwidth_nm=36,
                                 shape="rectangular")
        assert spec.envelope(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_monochromatic_full_visibility(self):
        cfg = itf.InterferometerConfig()
        spec = itf.SpectralModel()
        delta = np.arange(64) / 64 * (679e-3 / 2)
        _, rows = itf.fringe_scan(cfg, UNPOLARIZED, spec, delta)
        vis, _ = itf.fit_visibility(rows[:, 1], rows[:, 3])
        assert vis == pytest.approx(1.0, abs=1e-12)

    def test_rectangular_first_envelope_zero(self):
        # first zero at delta = lambda^2 / (2 dlambda) for the 679 nm,
        # 36 nm band: a few to a few tens of microns
        spec = itf.SpectralModel(center_wavelength_nm=679, bandwidth_nm=36,
                                 shape="rectangular")
        lc = spec.coherence_length_um
        assert lc == pytest.approx(6.403347222222223, abs=1e-12)
        assert 1.0 < lc < 135.0
        assert spec.envelope(lc) == pytest.approx(0.0, abs=1e-15)
        assert spec.envelope(0.5 * lc) > 0.5

    def test_phase_is_double_pass(self):
        spec = itf.SpectralModel(center_wavelength_nm=500)
        # quarter-wavelength arm difference (0.125 um) -> pi round-trip phase
        assert spec.phase(0.125) == pytest.approx(math.pi, abs=1e-12)

    def test_empty_grid_raises(self):
        with pytest.raises(EmptyInput):
            itf.fringe_scan(itf.InterferometerConfig(), UNPOLARIZED,
                            itf.SpectralModel(), [])

    def test_envelope_damps_interference_term(self):
        cfg = itf.InterferometerConfig()
        spec = itf.SpectralModel(center_wavelength_nm=679, bandwidth_nm=36,
                                 shape="rectangular")
        lc = spec.coherence_length_um
        # fringe contrast over one period near lc / 2 tracks the local envelope
        base = 0.5 * lc
        delta = base + np.arange(32) / 32 * (679e-3 / 2)
        _, rows = itf.fringe_scan(cfg, UNPOLARIZED, spec, delta)
        vis, _ = itf.fit_visibility(rows[:, 1] - rows[0, 1], rows[:, 3])
        assert vis == pytest.approx(float(np.mean(spec.envelope(delta))), abs=1e-2)


class TestVisibilityFit:
    def test_exact_recovery(self):
        phi = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        data = 0.5 * (1 + 0.8 * np.cos(phi))
        vis, phase = itf.fit_visibility(phi, data)
        assert vis == pytest.approx(0.8, abs=1e-10)
        assert phase == pytest.approx(0.0, abs=1e-10)

    def test_flat_gives_zero(self):
        phi = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        vis, _ = itf.fit_visibility(phi, np.full(64, 0.5))
        assert vis == pytest.approx(0.0, abs=1e-15)

    def test_too_few_samples(self):
        with pytest.raises(InvalidState):
            itf.fit_visibility(np.linspace(0, 2 * math.pi, 4), np.ones(4))


class TestEnvelopeFit:
    def test_recovers_measured_fit_values(self):
        # generator parameters follow the reported band-pass fringe fit
        params = (1.0, 0.956, 0.0, 13.5)
        delta = np.linspace(-80, 80, 321)
        data = itf.envelope_model(delta, *params)
        got = itf.fit_fringe(delta, data)
        assert np.max(np.abs(np.array(got) - np.array(params))) < 1e-6

    def test_offset_peak(self):
        params = (2.0, 0.5, 12.0, 9.0)
        delta = np.linspace(-60, 90, 257)
        got = itf.fit_fringe(delta, itf.envelope_model(delta, *params))
        assert np.max(np.abs(np.array(got) - np.array(params))) < 1e-6

    def test_poisson_noise_recovery(self, rng):
        params = (1.0, 0.956, 0.0, 13.5)
        delta = np.linspace(-80, 80, 321)
        photons = 10_000
        data = rng.poisson(photons * itf.envelope_model(delta, *params)) / photons
        base, vis, delta0, lc = itf.fit_fringe(delta, data)
        # 3 sigma with sigma ~ sqrt(A/N) per point shrunk by sqrt(n_points)
        assert vis == pytest.approx(params[1], abs=0.05)
        assert lc == pytest.approx(params[3], abs=1.0)
        assert base == pytest.approx(params[0], abs=0.01)


class TestErasure:
    """Which-way-marking destruction and circular-basis revival."""

    def phi_grid_rows(self, theta1):
        cfg = itf.InterferometerConfig(theta0_deg=0, theta1_deg=theta1)
        delta = np.arange(64) / 64 * (679e-3 / 2)
        _, rows = itf.fringe_scan(cfg, UNPOLARIZED, itf.SpectralModel(), delta,
                                  analyzers=itf.CIRCULAR_ANALYZER)
        return rows

    def test_marked_case(self):
        rows = self.phi_grid_rows(45.0)
        phi = rows[:, 1]
        assert np.ptp(rows[:, 3]) < 1e-12  # port intensity flat
        v10, p10 = itf.fit_visibility(phi, rows[:, 4])
        v11, p11 = itf.fit_visibility(phi, rows[:, 5])
        assert v10 == pytest.approx(1.0, abs=1e-12)
        assert v11 == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(math.remainder(p10 - p11, 2 * math.pi)) - math.pi) < 1e-10
        assert np.ptp(rows[:, 4] + rows[:, 5]) < 1e-12  # sum flat

    def test_unmarked_case_in_phase(self):
        rows = self.phi_grid_rows(0.0)
        phi = rows[:, 1]
        v10, p10 = itf.fit_visibility(phi, rows[:, 4])
        v11, p11 = itf.fit_visibility(phi, rows[:, 5])
        assert v10 == pytest.approx(1.0, abs=1e-12)
        assert v11 == pytest.approx(1.0, abs=1e-12)
        assert abs(math.remainder(p10 - p11, 2 * math.pi)) < 1e-10


class TestEnergyConservation:
    def test_detector_partition_of_unity(self, rng):
        # port 0 plus the two port-1 analyzer outputs exhaust every photon
        for _ in range(10):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(0, 45), theta1_deg=rng.uniform(0, 45),
                visibility_scale=rng.uniform(0.5, 1.0))
            rho = pol.density_from_stokes(random_stokes(rng))
            analyzer = itf.AnalyzerSetting(hwp_angle_deg=rng.uniform(0, 90),
                                           qwp_angle_deg=rng.uniform(0, 90))
            delta = np.arange(16) / 16 * (679e-3 / 2)
            _, rows = itf.fringe_scan(cfg, rho, itf.SpectralModel(), delta,
                                      analyzers=analyzer)
            totals = rows[:, 2] + rows[:, 4] + rows[:, 5]
            assert np.max(np.abs(totals - 1.0)) < 1e-12
            assert np.max(np.abs(rows[:, 4] + rows[:, 5] - rows[:, 3])) < 1e-12


class TestVisibilityScale:
    def test_scales_fringe_only(self):
        cfg = itf.InterferometerConfig(visibility_scale=0.95)
        phis = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        _, data = itf.port_probabilities(cfg, UNPOLARIZED, phis)
        vis, _ = itf.fit_visibility(phis, data)
        assert vis == pytest.approx(0.95, abs=1e-12)
        assert np.mean(data) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_scale_rejected(self):
        with pytest.raises(InvalidState):
            itf.InterferometerConfig(visibility_scale=0.0)
        with pytest.raises(InvalidState):
            itf.InterferometerConfig(visibility_scale=1.2)

    def test_conditional_output_unaffected(self):
        cfg = itf.InterferometerConfig(theta1_deg=20, visibility_scale=0.5)
        prob, _ = itf.conditional_output(cfg, RHO_H, 1, 1)
        assert prob == pytest.approx(0.25, abs=1e-12)


class TestSpectralValidation:
    def test_rectangular_needs_bandwidth(self):
        with pytest.raises(InvalidState):
            itf.SpectralModel(shape="rectangular", bandwidth_nm=0.0)

    def test_monochromatic_refuses_bandwidth(self):
        # a bandwidth without the rectangular shape would leave the envelope at 1
        with pytest.raises(InvalidState, match="monochromatic spectrum takes no bandwidth"):
            itf.SpectralModel(bandwidth_nm=20.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(InvalidState):
            itf.SpectralModel(bandwidth_nm=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["center_wavelength_nm", "bandwidth_nm"])
    def test_non_finite_rejected(self, field, bad):
        # nan slips through every ordered comparison, so each needs the check
        with pytest.raises(InvalidState, match="must be finite"):
            itf.SpectralModel(shape="rectangular", **{"bandwidth_nm": 20.0, field: bad})


class TestStackedCore:
    """The batched model core reproduces the per-point route bit for bit."""

    @pytest.mark.parametrize("points", [1, 64, itf._BLOCK_POINTS + 1])
    @pytest.mark.parametrize("shape", ["monochromatic", "rectangular"])
    @pytest.mark.parametrize("with_analyzer", [False, True])
    def test_fringe_scan_equals_per_point_loop(self, rng, points, shape,
                                               with_analyzer):
        for scale in (1.0, rng.uniform(0.2, 0.99)):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(-90, 90), theta1_deg=rng.uniform(-90, 90),
                visibility_scale=scale)
            rho = pol.density_from_stokes(random_stokes(rng))
            spectral = itf.SpectralModel() if shape == "monochromatic" else \
                itf.SpectralModel(bandwidth_nm=rng.uniform(5, 40), shape=shape)
            delta = np.sort(rng.uniform(-30, 30, size=points))
            analyzer = itf.AnalyzerSetting(rng.uniform(-90, 90),
                                           rng.uniform(-90, 90)) \
                if with_analyzer else None
            _, rows = itf.fringe_scan(cfg, rho, spectral, delta, analyzer)
            want = reference_fringe_scan(cfg, rho, spectral, delta, analyzer)
            assert rows.shape == want.shape
            for k in range(want.shape[1]):
                assert same_bits(rows[:, k], want[:, k]), k

    def test_one_point_calls_equal_per_point_route(self, rng):
        for _ in range(20):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(-90, 90), theta1_deg=rng.uniform(-90, 90),
                phase_phi=rng.uniform(-10, 10), visibility_scale=rng.uniform(0.2, 1))
            rho = pol.density_from_stokes(random_stokes(rng))
            for port in (0, 1):
                raw = reference_port_state(cfg, rho, port, cfg.visibility_scale)
                prob = float(np.trace(raw).real)
                got = itf.port_probabilities(cfg, rho, [cfg.phase_phi])[port]
                assert same_bits(got, np.array([prob]))
                got_prob, got_state = itf.output_density(cfg, rho, port)
                assert same_bits(got_prob, prob)
                assert same_bits(got_state, raw / prob)

    @pytest.mark.parametrize("s", [(0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 0, 0.4)])
    def test_zero_angles_keep_signed_zeros(self, rng, s):
        # At theta0 = theta1 = 0 many operator entries are exact zeros; a
        # product taken in another order can flip their signs.
        rho = pol.density_from_stokes(s)
        spectral = itf.SpectralModel()
        delta = np.linspace(0.0, 679e-3 / 2, itf._BLOCK_POINTS + 1)
        for scale in (1.0, 0.7):
            cfg = itf.InterferometerConfig(visibility_scale=scale)
            for analyzer in (None, itf.CIRCULAR_ANALYZER):
                _, rows = itf.fringe_scan(cfg, rho, spectral, delta, analyzer)
                assert same_bits(rows, reference_fringe_scan(cfg, rho, spectral, delta, analyzer))
            phases = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(-10, 10, 5)])
            ops = itf._port_operators(cfg, rho, phases, scale)
            for k, phi in enumerate(phases):
                pointcfg = with_phase(cfg, phi)
                for port in (0, 1):
                    raw = reference_port_state(pointcfg, rho, port, scale)
                    assert same_bits(ops[port][k], raw), (phi, port)
                    prob = float(np.trace(raw).real)
                    if prob < 1e-15:
                        with pytest.raises(ZeroProbability):
                            itf.output_density(pointcfg, rho, port)
                        continue
                    got_prob, got_state = itf.output_density(pointcfg, rho, port)
                    assert same_bits(got_prob, prob) and same_bits(got_state, raw / prob)

    def test_matches_unitary_oracle(self, rng):
        for _ in range(10):
            cfg = itf.InterferometerConfig(
                theta0_deg=rng.uniform(-90, 90), theta1_deg=rng.uniform(-90, 90))
            rho = pol.density_from_stokes(random_stokes(rng))
            delta = np.linspace(0.0, 679e-3 / 2, 33)
            _, rows = itf.fringe_scan(cfg, rho, itf.SpectralModel(), delta)
            for row in rows:
                u = itf.interferometer_unitary(with_phase(cfg, row[1]))
                for port in (0, 1):
                    block = u[2 * port:2 * port + 2, 0:2]
                    want = np.trace(block @ rho @ block.conj().T).real
                    assert abs(row[2 + port] - want) < 1e-12

    def test_bad_port_rejected(self):
        with pytest.raises(InvalidState):
            itf.output_density(itf.InterferometerConfig(), UNPOLARIZED, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e306])
    def test_non_finite_phase_rejected(self, bad):
        # 1e306 um is finite, but its double-pass phase overflows to inf
        cfg, spectral = itf.InterferometerConfig(), itf.SpectralModel()
        with pytest.raises(InvalidState, match="phase_phi must be finite"):
            itf.fringe_scan(cfg, UNPOLARIZED, spectral, [0.0, bad, 1.0])
        with pytest.raises(InvalidState, match="phase_phi must be finite"):
            itf.port_probabilities(cfg, UNPOLARIZED, spectral.phase([0.0, bad]))

    def test_port_probabilities_equal_one_point_calls(self, rng):
        cfg = itf.InterferometerConfig(
            theta0_deg=rng.uniform(-90, 90), theta1_deg=rng.uniform(-90, 90),
            visibility_scale=rng.uniform(0.2, 1))
        rho = pol.density_from_stokes(random_stokes(rng))
        phases = rng.uniform(-10, 10, size=itf._BLOCK_POINTS + 1)
        p0, p1 = itf.port_probabilities(cfg, rho, phases)
        for port, got in ((0, p0), (1, p1)):
            want = np.concatenate([itf.port_probabilities(cfg, rho, [f])[port] for f in phases])
            assert same_bits(got, want)

    def test_port_probabilities_validate_rho(self):
        with pytest.raises(InvalidState):
            itf.port_probabilities(itf.InterferometerConfig(), 2 * UNPOLARIZED, [0.0])
