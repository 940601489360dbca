import math

import numpy as np
import pytest

from conftest import haar_unitary, haar_vector, random_stokes
from oracles import DegenerateSpan, m_operator_4x4, partial_trace, pi_d_pure
from wpdlab import duality as du, interferometer as itf, linalg, polarization as pol
from wpdlab import purification as pu
from wpdlab.errors import InvalidState, NonUnitary

UNPOLARIZED = np.eye(2, dtype=complex) / 2
# sources where 1 - |<phi_k0|phi_k1>|^2 cancels to ~1e-8 at U = I
CANCELLING_STOKES = ([0.6, 0.0, 0.0], [0.0, 0.999999, 0.0])


def delta_operator(p):
    return np.outer(p.psi0, p.psi0.conj()) - np.outer(p.psi1, p.psi1.conj())


class TestJointState:
    def test_product_state_no_entanglement(self):
        psi = haar_vector(np.random.default_rng(0), 2)
        state = pu.joint_state(1 / math.sqrt(2), 1 / math.sqrt(2), psi, psi)
        report = pu.triality_report(state)
        # C = sqrt(2 (1 - gamma)) amplifies float noise near zero to ~1e-8
        assert report.concurrence == pytest.approx(0.0, abs=1e-7)
        assert report.visibility == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_branches_maximal_entanglement(self):
        state = pu.joint_state(1 / math.sqrt(2), 1 / math.sqrt(2),
                               np.array([1, 0j]), np.array([0j, 1]))
        report = pu.triality_report(state)
        assert report.concurrence == pytest.approx(1.0, abs=1e-12)
        assert report.visibility == pytest.approx(0.0, abs=1e-12)

    def test_partial_overlap_visibility(self):
        # V = |2 c0 c1 <psi0|psi1>| = 2 * 0.8 * 0.6 * 0.5 = 0.48
        psi0 = np.array([1.0, 0j])
        psi1 = np.array([0.5, math.sqrt(0.75) + 0j])
        state = pu.joint_state(0.8, 0.6, psi0, psi1)
        assert pu.triality_report(state).visibility == pytest.approx(0.48, abs=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(InvalidState):
            pu.joint_state(1.0, 1.0, np.array([1, 0j]), np.array([1, 0j]))
        with pytest.raises(InvalidState):
            pu.joint_state(1.0, 0.0, np.array([2, 0j]), np.array([1, 0j]))

    def test_amplitudes_assembled_path_major(self):
        state = pu.joint_state(0.6, 0.8, np.array([1, 0j]), np.array([0j, 1]))
        assert np.array_equal(state.amplitudes, [0.6, 0, 0, 0.8])


class TestTriality:
    def test_balanced_product(self):
        psi = np.array([1.0, 0j])
        rep = pu.triality_report(pu.joint_state(1 / math.sqrt(2), 1 / math.sqrt(2), psi, psi))
        assert (rep.visibility, rep.predictability, rep.concurrence) == \
            pytest.approx((1.0, 0.0, 0.0), abs=1e-7)

    def test_one_sided(self):
        psi = np.array([1.0, 0j])
        rep = pu.triality_report(pu.joint_state(1.0, 0.0, psi, psi))
        assert (rep.visibility, rep.predictability, rep.concurrence) == \
            pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_unbalanced_orthogonal(self):
        rep = pu.triality_report(pu.joint_state(
            0.8, 0.6, np.array([1, 0j]), np.array([0j, 1])))
        assert rep.visibility == pytest.approx(0.0, abs=1e-12)
        assert rep.predictability == pytest.approx(0.28, abs=1e-12)
        assert rep.concurrence == pytest.approx(0.96, abs=1e-12)

    def test_identities_1000_haar(self, rng):
        worst_pct = worst_cp = worst_tri = 0.0
        for _ in range(1000):
            c = haar_vector(rng, 2)
            dim = 2 if rng.random() < 0.5 else 4
            state = pu.joint_state(c[0], c[1], haar_vector(rng, dim),
                                   haar_vector(rng, dim))
            rep = pu.triality_report(state)
            worst_pct = max(worst_pct, abs(rep.pct_sum - rep.path_polarization**2))
            worst_cp = max(worst_cp, abs(rep.concurrence**2 + rep.path_polarization**2 - 1))
            worst_tri = max(worst_tri, abs(rep.triality_sum - 1))
        assert worst_pct < 1e-10
        assert worst_cp < 1e-10
        assert worst_tri < 1e-10

    def test_equal_amplitude_d_equals_c(self, rng):
        # |c0| = |c1|: D from the joint eigensystem equals the concurrence
        for _ in range(200):
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            state = pu.joint_state(1 / math.sqrt(2), phase / math.sqrt(2),
                                   haar_vector(rng, 4), haar_vector(rng, 4))
            rep = pu.triality_report(state)
            d = math.sqrt(max(0.0, 1 - abs(state.psi0.conj() @ state.psi1) ** 2))
            assert d == pytest.approx(rep.concurrence, abs=1e-10)


class TestPurify:
    def test_unpolarized_default_decomposition(self):
        p = pu.purify(UNPOLARIZED, linalg.SIGMA0)
        assert p.c_alpha == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert p.c_beta == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert np.array_equal(p.phi_alpha0, [1, 0])
        assert np.array_equal(p.phi_beta0, [0, 1])

    def test_pure_input_single_branch(self, rng):
        rho = pol.density_from_stokes([0, 0, 1])
        p = pu.purify(rho, haar_unitary(rng))
        assert p.c_beta == pytest.approx(0.0, abs=1e-12)
        v, c, d = pu.joint_vcd(p)
        assert c == pytest.approx(d, abs=1e-15)

    def test_weights_from_eigenvalues(self):
        p = pu.purify(pol.density_from_stokes([0, 0, 0.6]), linalg.SIGMA0)
        assert p.c_alpha == pytest.approx(math.sqrt(0.8), abs=1e-12)
        assert p.c_beta == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_partial_trace_recovers_marker_states(self, rng):
        for _ in range(100):
            rho0 = pol.density_from_stokes(random_stokes(rng, max_norm=0.999))
            u = haar_unitary(rng)
            rot = haar_unitary(rng) if rng.random() < 0.5 else None
            p = pu.purify(rho0, u, e_basis_rotation=rot)
            m0, m1 = pu.marker_states(p)
            for m, psi in ((m0, p.psi0), (m1, p.psi1)):
                oracle = partial_trace(np.outer(psi, psi.conj()), keep="first")
                assert np.max(np.abs(m - oracle)) < 1e-15
            assert np.max(np.abs(m0 - rho0)) < 1e-10
            assert np.max(np.abs(m1 - u @ rho0 @ u.conj().T)) < 1e-10
            assert abs(np.linalg.norm(p.psi0) - 1) < 1e-12
            assert np.max(np.abs(p.psi1 - np.kron(u, np.eye(2)) @ p.psi0)) < 1e-15

    def test_branch_states_must_be_2_vectors(self, rng):
        four = [haar_vector(rng, 4), haar_vector(rng, 4)]
        with pytest.raises(InvalidState, match="phi_alpha"):
            pu.purify_from_mixture([0.5, 0.5], four, linalg.SIGMA0)
        with pytest.raises(InvalidState, match="phi_beta"):
            pu.purify_from_mixture([0.5, 0.5], [four[0][:2] / np.linalg.norm(four[0][:2]),
                                                four[1]], linalg.SIGMA0)

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(NonUnitary):
            pu.purify(UNPOLARIZED, np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(NonUnitary):
            pu.purify(UNPOLARIZED, linalg.SIGMA0,
                      e_basis_rotation=np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestJointVcd:
    def test_identity_transformation(self, rng):
        rho = pol.density_from_stokes(random_stokes(rng))
        v, c, d = pu.joint_vcd(pu.purify(rho, linalg.SIGMA0))
        assert (v, c, d) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_maximum_marking_unpolarized(self):
        u = du.relative_rotation(itf.InterferometerConfig(theta0_deg=0, theta1_deg=45))
        v, c, d = pu.joint_vcd(pu.purify(UNPOLARIZED, u))
        assert (v, c, d) == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)

    def test_half_marking_unpolarized(self):
        u = du.relative_rotation(itf.InterferometerConfig(theta0_deg=0, theta1_deg=22.5))
        v, c, d = pu.joint_vcd(pu.purify(UNPOLARIZED, u))
        assert v == pytest.approx(math.cos(math.pi / 4), abs=1e-10)
        assert d == pytest.approx(math.sin(math.pi / 4), abs=1e-10)

    def test_visibility_is_weighted_branch_overlap(self, rng):
        for _ in range(50):
            rho = pol.density_from_stokes(random_stokes(rng, 0.99))
            p = pu.purify(rho, haar_unitary(rng), e_basis_rotation=haar_unitary(rng))
            v, _, _ = pu.joint_vcd(p)
            overlap = (p.c_alpha**2 * (p.phi_alpha0.conj() @ p.phi_alpha1)
                       + p.c_beta**2 * (p.phi_beta0.conj() @ p.phi_beta1))
            assert v == pytest.approx(abs(overlap), abs=1e-12)

    def test_e_rotation_invariance(self, rng):
        # re-expressing the environment basis leaves (V, C, D) unchanged
        for _ in range(100):
            rho = pol.density_from_stokes(random_stokes(rng, 0.999))
            u = haar_unitary(rng)
            base = pu.joint_vcd(pu.purify(rho, u))
            rotated = pu.joint_vcd(pu.purify(rho, u, e_basis_rotation=haar_unitary(rng)))
            assert np.max(np.abs(np.array(base) - np.array(rotated))) < 1e-12


    def test_d_free_of_cancellation(self, rng):
        # at psi1 = e^{i theta} psi0, D must read 0 like the projective
        # route, not the ~1e-8 that sqrt(1 - V^2) leaves
        for k in range(2000):
            rho = pol.density_from_stokes(random_stokes(rng))
            rot = haar_unitary(rng) if rng.random() < 0.5 else None
            u = (np.exp(1j * rng.uniform(0, 2 * math.pi)) * linalg.SIGMA0 if k % 2
                 else haar_unitary(rng))
            p = pu.purify(rho, u, e_basis_rotation=rot)
            v, _, d = pu.joint_vcd(p)
            assert abs(d - pu.projective_d_value(p)) < 1e-12
            assert abs(v * v + d * d - 1) < 1e-14


class TestDeltaEigensystem:
    def test_orthogonal_branches(self):
        p = pu.purify(UNPOLARIZED, linalg.SIGMA1 @ linalg.SIGMA3)
        v, _, _ = pu.joint_vcd(p)
        d, psi_plus, psi_minus = pu.delta_eigensystem(p)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-12)
        delta = delta_operator(p)
        # psi+ / psi- are the +D / -D eigenvectors (here psi0 and psi1)
        assert np.max(np.abs(delta @ psi_plus - d * psi_plus)) < 1e-10
        assert np.max(np.abs(delta @ psi_minus + d * psi_minus)) < 1e-10

    def test_coinciding_branches_flagged(self):
        p = pu.purify(UNPOLARIZED, linalg.SIGMA0)
        d, psi_plus, psi_minus = pu.delta_eigensystem(p)
        assert d == 0.0
        assert psi_plus is None and psi_minus is None

    def test_real_overlap_06(self):
        # branch overlap 0.6 gives D = 0.8 and <psi+|Delta|psi+> = 0.8
        phi = np.array([0.6, 0.8j])
        p = pu.purify_from_mixture([1.0, 0.0], [np.array([1, 0j]), np.array([0j, 1])],
                                   unitary=np.column_stack([phi, [0.8j, 0.6]]))
        assert linalg.is_unitary(p.unitary)
        d, psi_plus, _ = pu.delta_eigensystem(p)
        assert d == pytest.approx(0.8, abs=1e-12)
        delta = delta_operator(p)
        assert np.real(psi_plus.conj() @ delta @ psi_plus) == pytest.approx(0.8, abs=1e-12)

    def test_matches_joint_vcd(self, rng):
        for _ in range(100):
            rho = pol.density_from_stokes(random_stokes(rng, 0.999))
            p = pu.purify(rho, haar_unitary(rng))
            v, _, d_vcd = pu.joint_vcd(p)
            d_eig, psi_plus, _ = pu.delta_eigensystem(p)
            assert d_eig == pytest.approx(d_vcd, abs=1e-10)
            assert d_eig == pytest.approx(math.sqrt(max(0, 1 - v * v)), abs=1e-12)
            if psi_plus is not None:
                assert abs(np.linalg.norm(psi_plus) - 1) < 1e-12

    def test_projective_route(self, rng):
        for _ in range(50):
            rho = pol.density_from_stokes(random_stokes(rng, 0.99))
            p = pu.purify(rho, haar_unitary(rng))
            d, _, _ = pu.delta_eigensystem(p)
            assert pu.projective_d_value(p) == pytest.approx(d, abs=1e-10)


class TestMOperator:
    def test_equal_overlap_reaches_d(self, rng):
        # decomposition at equal axis height makes the branch overlaps equal
        # and the separable operator optimal
        for _ in range(100):
            cfg = itf.InterferometerConfig(theta0_deg=rng.uniform(0, 45),
                                           theta1_deg=rng.uniform(0, 45))
            u = du.relative_rotation(cfg)
            rot = du.rotation_from_config(cfg)
            s = random_stokes(rng, 0.999)
            dec = du.decompose_for_axis(s, rot.axis)
            p = pu.purify_from_mixture(
                [dec.p_alpha, dec.p_beta],
                [pol.jones_from_stokes(dec.s_alpha), pol.jones_from_stokes(dec.s_beta)],
                u)
            d, _, _ = pu.delta_eigensystem(p)
            assert pu.m_operator_value(p) == pytest.approx(d, abs=1e-10)

    def test_generic_rotation_strictly_below(self, rng):
        # a deliberately rotated environment basis breaks the overlap
        # condition and loses part of the distinguishability
        below = []
        for _ in range(200):
            rho = pol.density_from_stokes(random_stokes(rng, 0.95))
            p = pu.purify(rho, haar_unitary(rng), e_basis_rotation=haar_unitary(rng))
            d, _, _ = pu.delta_eigensystem(p)
            value = pu.m_operator_value(p)
            assert value <= d + 1e-10
            below.append(d - value)
        assert max(below) > 1e-3  # the bound is strict somewhere

    def test_pure_marker_always_saturates(self, rng):
        for _ in range(50):
            rho = pol.density_from_stokes([0, 0, 1])
            p = pu.purify(rho, haar_unitary(rng))
            d, _, _ = pu.delta_eigensystem(p)
            assert pu.m_operator_value(p) == pytest.approx(d, abs=1e-10)

    def test_bound_1000_random(self, rng):
        worst = -np.inf
        for _ in range(1000):
            rho = pol.density_from_stokes(random_stokes(rng, 0.999))
            p = pu.purify(rho, haar_unitary(rng), e_basis_rotation=haar_unitary(rng))
            d, _, _ = pu.delta_eigensystem(p)
            worst = max(worst, pu.m_operator_value(p) - d)
        assert worst <= 1e-10


    def test_closed_form_matches_oracle(self, rng):
        cases = []
        for _ in range(300):  # random markers, unitaries and environment bases
            rho = pol.density_from_stokes(random_stokes(rng))
            cases.append(pu.purify(rho, haar_unitary(rng), e_basis_rotation=haar_unitary(rng)))
        for _ in range(50):
            u = haar_unitary(rng)
            s = random_stokes(rng)
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            cases += [
                # coinciding branches: U = I, a global phase, and U diagonal
                # in the spectral basis of the marker
                pu.purify(pol.density_from_stokes(s), linalg.SIGMA0),
                pu.purify(pol.density_from_stokes(s), phase * linalg.SIGMA0,
                          e_basis_rotation=haar_unitary(rng)),
                pu.purify(pol.density_from_stokes([0, 0, s[2]]), np.diag([phase, 1.0])),
                # pure and unpolarized markers
                pu.purify(pol.density_from_stokes(s / np.linalg.norm(s)), u,
                          e_basis_rotation=haar_unitary(rng)),
                pu.purify(UNPOLARIZED, u, e_basis_rotation=haar_unitary(rng)),
                # a zero-weight branch
                pu.purify_from_mixture([1.0, 0.0], [haar_vector(rng, 2), haar_vector(rng, 2)], u),
                pu.purify_from_mixture([0.0, 1.0], [haar_vector(rng, 2), haar_vector(rng, 2)], u),
            ]
        worst = max(abs(pu.m_operator_value(p) - m_operator_4x4(p)) for p in cases)
        assert worst < 1e-12

    @pytest.mark.parametrize("s", CANCELLING_STOKES)
    def test_bound_where_overlaps_cancel(self, rng, s):
        rho = pol.density_from_stokes(s)
        for u in (linalg.SIGMA0, np.exp(0.3j) * linalg.SIGMA0):
            for rot in (None, haar_unitary(rng), haar_unitary(rng)):
                p = pu.purify(rho, u, e_basis_rotation=rot)
                _, _, d = pu.joint_vcd(p)
                assert pu.m_operator_value(p) <= d + 1e-12
                assert pu.m_operator_value(p) <= pu.projective_d_value(p) + 1e-12


class TestWorkCount:
    def test_one_eigensolve_per_purify(self, rng, monkeypatch):
        calls = []
        herm_eig2 = linalg.herm_eig2

        def counted(h):
            calls.append(h)
            return herm_eig2(h)

        monkeypatch.setattr(linalg, "herm_eig2", counted)
        rho = pol.density_from_stokes(random_stokes(rng))
        p = pu.purify(rho, haar_unitary(rng), e_basis_rotation=haar_unitary(rng))
        assert len(calls) == 1
        for fn in (pu.marker_states, pu.joint_vcd, pu.projective_d_value, pu.m_operator_value):
            fn(p)
        assert len(calls) == 1


class TestPiDPure:
    def test_orthogonal(self):
        d, _, _ = pi_d_pure(np.array([1, 0j]), np.array([0j, 1]))
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_coinciding_raises(self):
        v = haar_vector(np.random.default_rng(3), 2)
        with pytest.raises(DegenerateSpan):
            pi_d_pure(v, v * np.exp(0.7j))

    def test_overlap_cos_22p5(self):
        angle = math.radians(22.5)
        phi0 = np.array([1.0, 0j])
        phi1 = np.array([math.cos(angle), math.sin(angle) + 0j])
        d, _, _ = pi_d_pure(phi0, phi1)
        assert d == pytest.approx(math.sin(angle), abs=1e-12)
        assert d == pytest.approx(0.3826834323650898, abs=1e-12)

    def test_projective_identity(self, rng):
        # <phi+|pi0|phi+> + <phi-|pi1|phi-> - 1 = D
        for _ in range(100):
            phi0 = haar_vector(rng, 2)
            phi1 = haar_vector(rng, 2)
            if abs(phi0.conj() @ phi1) > 1 - 1e-6:
                continue
            d, plus, minus = pi_d_pure(phi0, phi1)
            lhs = (abs(plus.conj() @ phi0) ** 2 + abs(minus.conj() @ phi1) ** 2) - 1
            assert lhs == pytest.approx(d, abs=1e-12)
