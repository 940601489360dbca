"""Each route that computes a paper quantity, against an independent oracle.

- Port intensities and port states against the 4x4 `interferometer_unitary`.
- The randomized likelihood search against the trace distance and the
  Helstrom bound.
- The purified pair's D, read three ways, against each other and against the
  4x4 M-operator route.

The strategies live in `conftest.py`. Every property runs derandomized, so
tier-1 draws the same examples on every run.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import phases, stokes_vectors, visibility_scales, wave_plate_angles
from oracles import m_operator_4x4, with_phase
from wpdlab import duality as du, interferometer as itf, polarization as pol, purification as pu
from wpdlab.errors import ZeroProbability
from wpdlab.linalg import SIGMA0, SIGMA2, SIGMA3

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


def port_state_oracle(cfg, rho, port, kappa):
    """Unnormalized port state from the two arms of `interferometer_unitary`,
    the cross term scaled by kappa; port 1 in the sigma3 frame."""
    ubs = itf.npbs_unitary()
    uw = itf.path_unitary(cfg)
    rows = slice(2 * port, 2 * port + 2)
    b0, b1 = ((ubs.conj().T @ np.diag(d) @ uw @ ubs)[rows, 0:2]
              for d in ([1, 1, 0, 0], [0, 0, 1, 1]))
    assert np.max(np.abs(b0 + b1 - itf.interferometer_unitary(cfg)[rows, 0:2])) <= 1e-15
    h0, h1 = b0.conj().T, b1.conj().T
    raw = b0 @ rho @ h0 + b1 @ rho @ h1 + kappa * (b0 @ rho @ h1 + b1 @ rho @ h0)
    return SIGMA3 @ raw @ SIGMA3 if port == 1 else raw


@ORACLE
@given(angles=wave_plate_angles(), s=stokes_vectors(), kappa=visibility_scales,
       phis=st.lists(phases, min_size=1, max_size=4))
def test_port_routes_match_unitary(angles, s, kappa, phis):
    cfg = itf.InterferometerConfig(theta0_deg=angles[0], theta1_deg=angles[1],
                                   phase_phi=phis[0], visibility_scale=kappa)
    rho = pol.density_from_stokes(s)
    got = itf.port_probabilities(cfg, rho, phis)
    for port in (0, 1):
        want = [np.trace(port_state_oracle(with_phase(cfg, phi), rho, port, kappa)).real
                for phi in phis]
        assert np.max(np.abs(got[port] - want)) <= 1e-12
        raw = port_state_oracle(cfg, rho, port, kappa)
        try:
            prob, state = itf.output_density(cfg, rho, port)
        except ZeroProbability:
            assert np.trace(raw).real <= 1e-15 + 1e-12
            continue
        assert abs(prob - np.trace(raw).real) <= 1e-12
        assert np.max(np.abs(prob * state - raw)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(s0=stokes_vectors(pure=True), s1=stokes_vectors(pure=True))
def test_likelihood_search_matches_trace_distance(s0, s1):
    rho0, rho1 = pol.density_from_stokes(s0), pol.density_from_stokes(s1)
    l_max, basis = du.max_likelihood_search(rho0, rho1)
    dc = du.dc_trace_distance(rho0, rho1)
    assert abs(2.0 * l_max - 1.0 - dc) <= 1e-6
    assert abs(1.0 - l_max - du.helstrom_bound(dc)) <= 1e-6
    assert abs(du.likelihood(basis, rho0, rho1) - l_max) <= 1e-12


def su2(a, b, c):
    """exp(i a s3) exp(i b s2) exp(i c s3): every SU(2) element, from angles."""
    def turn(angle, sigma):
        return math.cos(angle) * SIGMA0 + 1j * math.sin(angle) * sigma
    return turn(a, SIGMA3) @ turn(b, SIGMA2) @ turn(c, SIGMA3)


@ORACLE
@given(angles=wave_plate_angles(), s=stokes_vectors(),
       env=st.one_of(st.none(), st.tuples(*[st.floats(-math.pi, math.pi)] * 3)),
       phase=st.floats(-math.pi, math.pi))
def test_purified_d_routes_agree(angles, s, env, phase):
    cfg = itf.InterferometerConfig(theta0_deg=angles[0], theta1_deg=angles[1])
    # a global phase on U leaves every functional unchanged
    u = np.exp(1j * phase) * du.relative_rotation(cfg)
    p = pu.purify(pol.density_from_stokes(s), u,
                  e_basis_rotation=None if env is None else su2(*env))
    v, c, d = pu.joint_vcd(p)
    d_eig, psi_plus, psi_minus = pu.delta_eigensystem(p)
    assert c == d
    assert abs(d_eig - d) <= 1e-12
    assert abs(pu.projective_d_value(p) - d) <= 1e-12
    assert abs(v * v + d * d - 1.0) <= 1e-14
    m_value = pu.m_operator_value(p)
    assert abs(m_value - m_operator_4x4(p)) <= 1e-12
    assert m_value <= d + 1e-12
    if psi_plus is not None:  # the eigenvectors of Delta at +D and -D
        delta = np.outer(p.psi0, p.psi0.conj()) - np.outer(p.psi1, p.psi1.conj())
        assert np.max(np.abs(delta @ psi_plus - d * psi_plus)) <= 1e-12
        assert np.max(np.abs(delta @ psi_minus + d * psi_minus)) <= 1e-12

