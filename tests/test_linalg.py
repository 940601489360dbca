import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from oracles import partial_trace, tensor2x2, trace_norm_herm
from wpdlab import interferometer, linalg
from wpdlab.errors import DimensionError, InvalidState
from wpdlab.linalg import SIGMA0, SIGMA1, SIGMA2, SIGMA3


class TestPauliAlgebra:
    def test_sigma1_squared_is_identity(self):
        assert np.allclose(SIGMA1 @ SIGMA1, SIGMA0, atol=0)

    def test_sigma1_sigma3_is_minus_i_sigma2(self):
        assert np.allclose(SIGMA1 @ SIGMA3, -1j * SIGMA2, atol=0)

    def test_npbs_unitary_roundtrip(self):
        u = interferometer.npbs_unitary()
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionError):
            linalg.as_cmat(np.eye(4))
        with pytest.raises(DimensionError):
            linalg.as_cmat(np.eye(3))
        with pytest.raises(DimensionError):
            tensor2x2(SIGMA0, np.eye(4))
        with pytest.raises(DimensionError):
            partial_trace(SIGMA0, keep=0)

    def test_nan_rejected(self):
        bad = SIGMA0.copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidState):
            linalg.as_cmat(bad)


class TestAdjointTrace:
    def test_adjoint_of_i_sigma2(self):
        # (i sigma2)^+ = -i sigma2 since sigma2 is Hermitian
        assert np.array_equal((1j * SIGMA2).conj().T, -1j * SIGMA2)

    def test_trace_identity4(self):
        assert np.trace(tensor2x2(SIGMA0, SIGMA0)) == 4

    def test_density_trace_one(self, rng):
        from conftest import random_stokes
        from wpdlab import polarization
        for _ in range(20):
            rho = polarization.density_from_stokes(random_stokes(rng))
            assert abs(np.trace(rho) - 1.0) < 1e-14


class TestTensor:
    def test_identity_tensor(self):
        assert np.array_equal(tensor2x2(SIGMA0, SIGMA0), np.eye(4))

    def test_basis_order_path_major(self):
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(tensor2x2(proj0, SIGMA0),
                              np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_npbs_block_form_equals_tensor_sum(self):
        # (1/sqrt2) [[s0, i s3], [i s3, s0]] == U_H x |H><H| + U_V x |V><V|
        u_h = (SIGMA0 + 1j * SIGMA1) / np.sqrt(2)
        u_v = (SIGMA0 - 1j * SIGMA1) / np.sqrt(2)
        proj_h = np.diag([1.0, 0.0]).astype(complex)
        proj_v = np.diag([0.0, 1.0]).astype(complex)
        assembled = tensor2x2(u_h, proj_h) + tensor2x2(u_v, proj_v)
        assert np.max(np.abs(assembled - interferometer.npbs_unitary())) < 1e-15


class TestPartialTrace:
    def _oracle(self, m, keep):
        m = m.reshape(2, 2, 2, 2)
        out = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if keep == 0:
                        out[i, j] += m[i, k, j, k]
                    else:
                        out[i, j] += m[k, i, k, j]
        return out

    def test_product_state_factorizes(self, rng):
        for _ in range(10):
            a = random_hermitian(rng)
            b = random_hermitian(rng)
            got = partial_trace(tensor2x2(a, b), keep="first")
            assert np.max(np.abs(got - a * np.trace(b))) < 1e-12

    def test_bell_state_reduces_to_unpolarized(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)  # (|0H> + |1V>)/sqrt2
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(partial_trace(rho, keep=0) - SIGMA0 / 2)) < 1e-15

    def test_entangled_overlap_off_diagonal(self):
        # c0 = c1 = 1/sqrt2, <psi0|psi1> = 0.6 gives path off-diagonal 0.3
        psi0 = np.array([1.0, 0.0], dtype=complex)
        psi1 = np.array([0.6, 0.8], dtype=complex)
        state = np.concatenate([psi0, psi1]) / np.sqrt(2)
        rho_q = partial_trace(np.outer(state, state.conj()), keep="first")
        assert abs(rho_q[0, 1] - 0.3) < 1e-15

    def test_matches_loop_oracle(self, rng):
        for keep in (0, 1):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m + m.conj().T
            assert np.max(np.abs(partial_trace(m, keep) - self._oracle(m, keep))) < 1e-13


class TestHermEig2:
    def test_sigma3(self):
        values, vectors = linalg.herm_eig2(SIGMA3)
        assert np.array_equal(values, [1.0, -1.0])
        assert np.array_equal(vectors, np.eye(2))

    def test_bloch_radius_half(self):
        values, _ = linalg.herm_eig2(0.5 * (SIGMA0 + 0.5 * SIGMA1))
        assert np.allclose(values, [0.75, 0.25], atol=1e-15)

    def test_orthogonal_projector_difference(self):
        diff = np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])
        values, _ = linalg.herm_eig2(diff.astype(complex))
        assert np.array_equal(values, [1.0, -1.0])
        assert abs(0.5 * trace_norm_herm(diff) - 1.0) < 1e-15

    def test_reconstruction_1000_random(self, rng):
        worst = 0.0
        for _ in range(1000):
            h = random_hermitian(rng, scale=rng.uniform(0.1, 10))
            values, vectors = linalg.herm_eig2(h)
            recon = vectors @ np.diag(values) @ vectors.conj().T
            worst = max(worst, np.max(np.abs(recon - h)))
            assert abs(vectors[:, 0].conj() @ vectors[:, 1]) < 1e-10
        assert worst < 1e-10

    def test_matches_iterative_oracle(self, rng):
        for _ in range(200):
            h = random_hermitian(rng)
            values, _ = linalg.herm_eig2(h)
            oracle = np.linalg.eigvalsh(h)[::-1]
            assert np.max(np.abs(values - oracle)) < 1e-12

    def test_eigen_equation(self, rng):
        for _ in range(200):
            h = random_hermitian(rng)
            values, vectors = linalg.herm_eig2(h)
            for i in range(2):
                assert np.max(np.abs(h @ vectors[:, i] - values[i] * vectors[:, i])) < 1e-10

    def test_phase_convention_deterministic(self, rng):
        for _ in range(50):
            h = random_hermitian(rng)
            _, vectors = linalg.herm_eig2(h)
            for i in range(2):
                k = int(np.argmax(np.abs(vectors[:, i])))
                assert vectors[k, i].imag == pytest.approx(0.0, abs=1e-12)
                assert vectors[k, i].real > 0

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidState):
            linalg.herm_eig2(SIGMA0 + 1j * SIGMA1)


class TestTraceNorm:
    def test_sigma3(self):
        assert trace_norm_herm(SIGMA3) == 2.0

    def test_zero(self):
        assert trace_norm_herm(np.zeros((2, 2))) == 0.0

    def test_traceless_determinant_identity(self, rng):
        from conftest import random_stokes
        for _ in range(100):
            a = random_stokes(rng)
            h = a[0] * SIGMA1 + a[1] * SIGMA2 + a[2] * SIGMA3
            assert abs(trace_norm_herm(h) - 2 * np.sqrt(-np.linalg.det(h).real)) < 1e-12

    def test_equals_eigenvalue_sum(self, rng):
        for _ in range(100):
            h = random_hermitian(rng)
            values, _ = linalg.herm_eig2(h)
            assert abs(trace_norm_herm(h) - np.sum(np.abs(values))) < 1e-12

    def test_stokes_distance(self, rng):
        # trace norm of rho0 - rho1 equals |s0 - s1|
        from conftest import random_stokes
        from wpdlab import polarization
        for _ in range(50):
            s0, s1 = random_stokes(rng), random_stokes(rng)
            rho0 = polarization.density_from_stokes(s0)
            rho1 = polarization.density_from_stokes(s1)
            assert abs(trace_norm_herm(rho0 - rho1)
                       - np.linalg.norm(s0 - s1)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matmul_associative(seed):
    rng = np.random.default_rng(seed)
    mats = [linalg.as_cmat(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)]
    left = (mats[0] @ mats[1]) @ mats[2]
    right = mats[0] @ (mats[1] @ mats[2])
    assert np.max(np.abs(left - right)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_partial_trace_roundtrip(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng)
    b = random_hermitian(rng)
    got = partial_trace(tensor2x2(a, b), keep="first")
    assert np.max(np.abs(got - a * np.trace(b))) < 1e-12
