import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from conftest import random_pure_stokes, random_stokes
from wpdlab import polarization as pol
from wpdlab.errors import InvalidState
from wpdlab.linalg import SIGMA0


class TestStokesDensity:
    def test_unpolarized(self):
        assert np.array_equal(pol.density_from_stokes([0, 0, 0]), SIGMA0 / 2)

    def test_horizontal(self):
        assert np.array_equal(pol.density_from_stokes([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_circular(self):
        want = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.array_equal(pol.density_from_stokes([0, 1, 0]), want)

    def test_inverse_examples(self):
        for s in ([0, 0, 0], [0, 0, 1], [0, 1, 0]):
            got = pol.stokes_from_density(pol.density_from_stokes(s))
            assert np.max(np.abs(got - np.asarray(s, float))) < 1e-15

    def test_unphysical_rejected(self):
        with pytest.raises(InvalidState):
            pol.density_from_stokes([1.0, 1.0, 0.0])

    def test_roundtrip_1000(self, rng):
        for _ in range(1000):
            s = random_stokes(rng)
            back = pol.stokes_from_density(pol.density_from_stokes(s))
            assert np.max(np.abs(back - s)) < 1e-12


class TestScalarFunctionals:
    def test_unpolarized(self):
        rho = SIGMA0 / 2
        assert pol.purity(rho) == 0.5
        assert pol.degree_of_polarization(rho) == 0.0
        assert pol.concurrence_we(rho) == 1.0

    def test_pure(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert pol.purity(rho) == 1.0
        assert pol.degree_of_polarization(rho) == 1.0
        assert pol.concurrence_we(rho) == 0.0

    def test_partial(self, rng):
        s = random_pure_stokes(rng) * 0.6
        rho = pol.density_from_stokes(s)
        assert pol.purity(rho) == pytest.approx(0.68, abs=1e-12)
        assert pol.concurrence_we(rho) == pytest.approx(0.8, abs=1e-12)

    def test_dop_purity_relation(self, rng):
        for _ in range(200):
            rho = pol.density_from_stokes(random_stokes(rng))
            dop = pol.degree_of_polarization(rho)
            assert dop**2 == pytest.approx(2 * pol.purity(rho) - 1, abs=1e-12)
            assert 0.5 <= pol.purity(rho) <= 1.0 + 1e-12

    def test_concurrence_complements_dop(self, rng):
        for _ in range(200):
            rho = pol.density_from_stokes(random_stokes(rng))
            total = pol.concurrence_we(rho)**2 + pol.degree_of_polarization(rho)**2
            assert total == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = pol.density_from_stokes(random_stokes(rng))
        assert pol.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0]).astype(complex)
        assert pol.fidelity(h, v) == pytest.approx(0.0, abs=1e-15)

    def test_source_vs_unpolarized_frozen(self):
        # eigenvalue oracle 0.5 (sqrt(l1) + sqrt(l2))^2 with l = (1 +- |s|)/2
        s = random_pure_stokes(np.random.default_rng(7)) * 0.0613
        value = pol.fidelity(pol.density_from_stokes(s), SIGMA0 / 2)
        assert value == pytest.approx(0.999059693323354, abs=1e-12)

    def test_matches_uhlmann_oracle(self, rng):
        # brute-force [Tr sqrt(sqrt(rho) tau sqrt(rho))]^2 via scipy sqrtm
        for _ in range(50):
            rho = pol.density_from_stokes(random_stokes(rng))
            tau = pol.density_from_stokes(random_stokes(rng))
            root = sqrtm(rho)
            oracle = np.real(np.trace(sqrtm(root @ tau @ root)))**2
            assert pol.fidelity(rho, tau) == pytest.approx(oracle, abs=1e-10)


class TestEigendecompose:
    def test_unpolarized_convention(self):
        p1, v1, p2, v2 = pol.eigendecompose_pol(SIGMA0 / 2)
        assert (p1, p2) == (0.5, 0.5)
        assert np.array_equal(v1, [1, 0])
        assert np.array_equal(v2, [0, 1])

    def test_diagonal(self):
        p1, v1, p2, v2 = pol.eigendecompose_pol(np.diag([0.9, 0.1]).astype(complex))
        assert p1 == pytest.approx(0.9, abs=1e-15)
        assert p2 == pytest.approx(0.1, abs=1e-15)
        assert np.array_equal(v1, [1, 0])

    def test_linear_diagonal_basis(self):
        # s = (0.6, 0, 0): eigenbasis is (|H> +- |V>)/sqrt2 with p = 0.8 / 0.2
        p1, v1, p2, v2 = pol.eigendecompose_pol(pol.density_from_stokes([0.6, 0, 0]))
        assert p1 == pytest.approx(0.8, abs=1e-12)
        assert p2 == pytest.approx(0.2, abs=1e-12)
        assert np.max(np.abs(v1 - np.array([1, 1]) / np.sqrt(2))) < 1e-12
        assert np.max(np.abs(v2 - np.array([-1, 1]) / np.sqrt(2))) < 1e-12 or \
            np.max(np.abs(v2 - np.array([1, -1]) / np.sqrt(2))) < 1e-12

    def test_reconstruction(self, rng):
        for _ in range(300):
            rho = pol.density_from_stokes(random_stokes(rng))
            p1, v1, p2, v2 = pol.eigendecompose_pol(rho)
            recon = p1 * np.outer(v1, v1.conj()) + p2 * np.outer(v2, v2.conj())
            assert np.max(np.abs(recon - rho)) < 1e-10


class TestValidation:
    def test_psd_violation_rejected(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidState):
            pol.as_density(bad)

    def test_trace_violation_rejected(self):
        with pytest.raises(InvalidState):
            pol.as_density(np.diag([0.9, 0.2]).astype(complex))

    def test_clip_stokes(self):
        s = np.array([0.8, 0.8, 0.0])
        clipped = pol.clip_stokes(s)
        assert np.linalg.norm(clipped) == pytest.approx(1.0, abs=1e-12)
        small = np.array([0.1, 0.0, 0.0])
        assert np.array_equal(pol.clip_stokes(small), small)

    def test_jones_from_stokes(self, rng):
        for _ in range(50):
            s = random_pure_stokes(rng)
            v = pol.jones_from_stokes(s)
            back = pol.stokes_from_density(np.outer(v, v.conj()))
            assert np.max(np.abs(back - s)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    s = random_stokes(rng)
    back = pol.stokes_from_density(pol.density_from_stokes(s))
    assert np.max(np.abs(back - s)) < 1e-12
