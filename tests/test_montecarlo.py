import math

import numpy as np
import pytest

from conftest import random_stokes
from oracles import estimate_likelihood
from wpdlab import duality as du, interferometer as itf, linalg, montecarlo as mc
from wpdlab import polarization as pol
from wpdlab.errors import EmptyCounts, InvalidState

UNPOLARIZED = np.eye(2, dtype=complex) / 2
RHO_H = np.diag([1.0, 0.0]).astype(complex)
PHI_16 = np.linspace(0, 2 * math.pi, 16, endpoint=False)


def config(theta1, scale=1.0):
    return itf.InterferometerConfig(theta0_deg=0.0, theta1_deg=theta1,
                                    visibility_scale=scale)


class TestRngStream:
    def test_bitwise_reproducible(self):
        a = mc.make_rng(123, 7).integers(0, 2**63, size=32)
        b = mc.make_rng(123, 7).integers(0, 2**63, size=32)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = mc.make_rng(123, 0).integers(0, 2**63, size=8)
        b = mc.make_rng(123, 1).integers(0, 2**63, size=8)
        assert not np.array_equal(a, b)


class TestSampleCounts:
    def test_certain_outcome(self):
        rng = mc.make_rng(0)
        counts = mc.sample_counts([1.0, 0.0, 0.0, 0.0], 100, rng)
        assert np.array_equal(counts, [100, 0, 0, 0])

    def test_even_split_within_5_sigma(self):
        rng = mc.make_rng(1)
        n = 10**6
        counts = mc.sample_counts([0.5, 0.5], n, rng)
        sigma = math.sqrt(n * 0.25)
        assert abs(counts[0] - n / 2) < 5 * sigma
        assert counts.sum() == n

    def test_subnormalized_discards_rest(self):
        rng = mc.make_rng(2)
        counts = mc.sample_counts([0.25, 0.25], 10_000, rng)
        assert counts.sum() < 10_000

    def test_invalid_probabilities(self):
        with pytest.raises(InvalidState):
            mc.sample_counts([0.8, 0.8], 10, mc.make_rng(0))
        with pytest.raises(InvalidState):
            mc.sample_counts([0.5], 0, mc.make_rng(0))


class TestOptimalAnalyzer:
    def test_output_difference_has_no_s2_part(self, rng):
        # both arm rotators turn about s2, so the two blocked-path outputs
        # share their s2 component for every input and every angle: the
        # optimal basis is linear and the HWP-only analyzer reaches Helstrom
        for _ in range(200):
            cfg = itf.InterferometerConfig(theta0_deg=rng.uniform(-90, 90),
                                           theta1_deg=rng.uniform(-90, 90))
            rho = pol.density_from_stokes(random_stokes(rng))
            _, r0 = itf.conditional_output(cfg, rho, 0, 1)
            _, r1 = itf.conditional_output(cfg, rho, 1, 1)
            diff = pol.stokes_from_density(r0) - pol.stokes_from_density(r1)
            assert abs(diff[1]) < 1e-14
            basis = itf.analyzer_basis(mc.optimal_whichway_analyzer(cfg, rho))
            helstrom = 0.5 * (1.0 + du.dc_trace_distance(r0, r1))
            assert du.likelihood(basis, r0, r1) == pytest.approx(helstrom, abs=1e-12)

    def test_matches_randomized_search(self, rng):
        # the model-derived analyzer reproduces the likelihood maximum found
        # by the randomized Bloch search
        for theta1 in (10.0, 22.5, 37.0):
            cfg = config(theta1)
            setting = mc.optimal_whichway_analyzer(cfg, RHO_H)
            _, r0 = itf.conditional_output(cfg, RHO_H, 0, 1)
            _, r1 = itf.conditional_output(cfg, RHO_H, 1, 1)
            basis = itf.analyzer_basis(setting)
            direct = du.likelihood(basis, r0, r1)
            searched, _ = du.max_likelihood_search(r0, r1, trials=10_000, seed=11)
            assert direct == pytest.approx(searched, abs=1e-9)

    def test_halfway_angle_value(self):
        # under this model's rotation sign the optimum sits at 22.5 + theta1/2
        # (a 45 deg HWP offset only relabels the two detectors)
        for theta1 in (10.0, 22.5, 30.0, 45.0):
            setting = mc.optimal_whichway_analyzer(config(theta1), RHO_H)
            assert math.remainder(setting.hwp_angle_deg - (22.5 + theta1 / 2),
                                  45.0) == pytest.approx(0.0, abs=1e-9)
            assert setting.qwp_angle_deg == 0.0

    def test_empirical_likelihood_hits_helstrom(self):
        # theta1 = 22.5 deg, H input: L* = (1 + sin 45) / 2
        cfg = config(22.5)
        setting = mc.optimal_whichway_analyzer(cfg, RHO_H)
        record = mc.which_way_counts(cfg, RHO_H, setting, 100_000, mc.make_rng(5))
        est = estimate_likelihood(record, rng=mc.make_rng(6))
        want = 0.8535533905932737
        assert abs(est.value - want) < 3 * est.sigma + 1e-9


class TestCountRecord:
    def test_determinism_bit_for_bit(self):
        cfg = config(22.5)
        setting = mc.optimal_whichway_analyzer(cfg, RHO_H)
        a = mc.which_way_counts(cfg, RHO_H, setting, 50_000, mc.make_rng(77, 3))
        b = mc.which_way_counts(cfg, RHO_H, setting, 50_000, mc.make_rng(77, 3))
        assert np.array_equal(a.counts, b.counts)

    def test_validation(self):
        with pytest.raises(InvalidState):
            mc.CountRecord(counts=np.array([[1, -1], [0, 0]]), photons_per_setting=10)
        with pytest.raises(InvalidState):
            mc.CountRecord(counts=np.array([[20, 0], [0, 0]]), photons_per_setting=10)


class TestEstimateLikelihood:
    def _record(self, table):
        counts = np.asarray(table)
        return mc.CountRecord(counts=counts, photons_per_setting=int(counts.sum()))

    def test_perfect_discrimination(self):
        est = estimate_likelihood(self._record([[100, 0], [0, 100]]),
                                  rng=mc.make_rng(0))
        assert est.value == 1.0

    def test_uninformative(self):
        est = estimate_likelihood(self._record([[50, 50], [50, 50]]),
                                  rng=mc.make_rng(0))
        assert est.value == 0.5

    def test_plug_in_arithmetic(self):
        est = estimate_likelihood(self._record([[85, 15], [86, 14]]),
                                  rng=mc.make_rng(0))
        # (max(85, 86) + max(15, 14)) / 200
        assert est.value == pytest.approx(0.505, abs=1e-12)

    def test_quoted_example(self):
        # rows are (N_p,10, N_p,11): path 0 mostly APD10, path 1 mostly APD11
        est = estimate_likelihood(self._record([[85, 15], [14, 86]]),
                                  rng=mc.make_rng(0))
        assert est.value == pytest.approx(0.855, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCounts):
            mc.likelihood_point_estimate(
                mc.CountRecord(counts=np.zeros((2, 2), dtype=int),
                               photons_per_setting=10))

    def test_ci_brackets_value(self, rng):
        cfg = config(17.0)
        setting = mc.optimal_whichway_analyzer(cfg, RHO_H)
        record = mc.which_way_counts(cfg, RHO_H, setting, 20_000, mc.make_rng(8))
        est = estimate_likelihood(record, rng=mc.make_rng(9))
        assert est.ci_low <= est.value <= est.ci_high
        assert 0.4 < est.ci_low < est.ci_high < 1.0 + 1e-12

    def test_sigma_quantile_is_normal_ppf(self):
        # the pinned quantile must stay bit-equal to scipy's for CI_LEVEL
        from scipy.stats import norm

        z = norm.ppf(0.5 + mc.CI_LEVEL / 2.0)
        assert mc.EstimateWithCI(value=0.0, ci_low=-z, ci_high=z).sigma == 1.0
        assert mc._CI_Z == z


class TestEstimateDistinguishability:
    def test_maximum_marking(self):
        run = mc.estimate_distinguishability_decomposed(
            config(45.0), [0, 0, 0], 100_000, mc.make_rng(21))
        assert run.estimate.value == pytest.approx(1.0, abs=max(3 * run.estimate.sigma, 1e-6))

    def test_no_marking(self):
        run = mc.estimate_distinguishability_decomposed(
            config(0.0), [0, 0, 0], 100_000, mc.make_rng(22))
        assert abs(run.estimate.value) < max(3 * run.estimate.sigma, 1e-6)

    def test_half_marking(self):
        run = mc.estimate_distinguishability_decomposed(
            config(22.5), [0, 0, 0], 100_000, mc.make_rng(23))
        want = math.sin(math.pi / 4)
        assert abs(run.estimate.value - want) < 3 * run.estimate.sigma

    def test_branch_weights_follow_s3(self):
        s3 = 0.2
        run = mc.estimate_distinguishability_decomposed(
            config(30.0), [0, 0, s3], 50_000, mc.make_rng(24))
        la = run.branch_likelihoods["alpha"].value
        lb = run.branch_likelihoods["beta"].value
        weighted = 0.5 * (1 + s3) * (2 * la - 1) + 0.5 * (1 - s3) * (2 * lb - 1)
        assert run.estimate.value == pytest.approx(weighted, abs=1e-12)


class TestEstimateVisibility:
    def test_full_visibility(self):
        est = mc.estimate_visibility_mc(config(0.0), UNPOLARIZED, PHI_16,
                                        100_000, mc.make_rng(31))
        assert abs(est.value - 1.0) < 3 * est.sigma + 2e-3

    def test_zero_visibility_bias_floor(self):
        # E[V] at V = 0 is sqrt(pi / (N K)) (Rayleigh |noise sum|); check the
        # mean over repeats sits near the floor and well below 3x it
        n, k, reps = 100_000, 16, 40
        floor = math.sqrt(math.pi / (n * k))
        values = []
        for rep in range(reps):
            est = mc.estimate_visibility_mc(config(45.0), UNPOLARIZED, PHI_16,
                                            n, mc.make_rng(32, rep), resamples=50)
            values.append(est.value)
        mean = float(np.mean(values))
        assert mean < 3 * floor
        assert mean == pytest.approx(floor, rel=0.5)

    def test_half_marking(self):
        est = mc.estimate_visibility_mc(config(22.5), UNPOLARIZED, PHI_16,
                                        100_000, mc.make_rng(33))
        assert abs(est.value - math.cos(math.pi / 4)) < 3 * est.sigma

    def test_grid_validated(self):
        with pytest.raises(InvalidState):
            mc.estimate_visibility_mc(config(0.0), UNPOLARIZED, PHI_16[:4],
                                      1000, mc.make_rng(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, bad):
        phi = PHI_16.copy()
        phi[3] = bad
        with pytest.raises(InvalidState, match="phase_phi must be finite"):
            mc.estimate_visibility_mc(config(0.0), UNPOLARIZED, phi, 1000, mc.make_rng(0))


class TestTomography:
    def test_unpolarized_5_sigma(self):
        run = mc.tomography(UNPOLARIZED, 10**6, mc.make_rng(41))
        sigma = 1.0 / math.sqrt(10**6)
        assert np.max(np.abs(run.stokes_estimate)) < 5 * sigma

    def test_pure_h(self):
        run = mc.tomography(RHO_H, 10**4, mc.make_rng(42))
        sigma3 = 2 * math.sqrt(0.25 / 10**4)  # loose: p(1-p) <= 1/4
        assert run.stokes_estimate[2] == pytest.approx(1.0, abs=3 * sigma3 + 1e-4)

    def test_weak_polarization(self):
        s3 = 0.061
        run = mc.tomography(pol.density_from_stokes([0, 0, s3]), 10**6,
                            mc.make_rng(43))
        sigma = 2 * math.sqrt((1 + s3) / 2 * (1 - s3) / 2 / 10**6)
        assert run.stokes_estimate[2] == pytest.approx(s3, abs=3 * sigma)

    def test_fidelity_ci_brackets_truth(self):
        rho = pol.density_from_stokes([0, 0, 0.061])
        run = mc.tomography(rho, 10**6, mc.make_rng(44))
        truth = pol.fidelity(rho, UNPOLARIZED)
        est = run.fidelity_unpolarized
        width = est.ci_high - est.ci_low
        assert est.ci_low - width <= truth <= est.ci_high + width

    def test_stacked_fidelity_is_the_scalar_chain_bit_for_bit(self):
        # resamples of 40 sources at 1e3-1e6 photons, every fourth one pure so
        # that its resamples leave the Bloch ball and are rescaled
        def chain(s):
            rho = pol.density_from_stokes(pol.clip_stokes(s))
            return pol.fidelity(rho, UNPOLARIZED)

        rng = np.random.default_rng(25)
        for k in range(40):
            s = random_stokes(rng)
            if k % 4 == 0:
                s = s / np.linalg.norm(s)
            photons = int(10 ** rng.uniform(3, 6))
            s_hat = 2.0 * rng.binomial(photons, (1 + s) / 2) / photons - 1.0
            resamp = rng.binomial(photons, np.clip((1 + s_hat) / 2, 0, 1), size=(100, 3))
            stack = 2.0 * resamp / photons - 1.0
            want = np.array([chain(sv) for sv in stack])
            assert np.array_equal(mc._fidelity_unpolarized(stack).view(np.int64),
                                  want.view(np.int64))
            point = mc._fidelity_unpolarized(s_hat[None])
            assert point.view(np.int64)[0] == np.float64(chain(s_hat)).view(np.int64)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, bad):
        stack = np.zeros((5, 3))
        stack[3, 1] = bad
        with pytest.raises(InvalidState, match="must be finite"):
            mc._fidelity_unpolarized(stack)

    def test_psd_sign_checked_per_stack(self, monkeypatch):
        # smallest eigenvalue of rho is (1 - |s|) / 2 = 0.05 here
        monkeypatch.setattr(pol, "PSD_TOL", -0.1)
        with pytest.raises(InvalidState, match="min eigenvalue 0.0499"):
            mc._fidelity_unpolarized(np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]]))

    def test_eigensolves_do_not_grow_with_resamples(self, monkeypatch):
        calls = []
        herm_eig2 = linalg.herm_eig2
        monkeypatch.setattr(linalg, "herm_eig2", lambda h: calls.append(1) or herm_eig2(h))
        counts = []
        for resamples in (50, 2000):
            calls.clear()
            mc.tomography(pol.density_from_stokes([0.3, -0.2, 0.1]), 10**4,
                          mc.make_rng(3), resamples=resamples)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestBranchDecomposition:
    @pytest.mark.parametrize("s3", [0.4, -0.4, 1.0, -1.0, 0.0])
    def test_alpha_is_the_h_branch(self, s3):
        run = mc.estimate_distinguishability_decomposed(
            config(22.5), [0, 0, s3], 2000, mc.make_rng(25), resamples=20)
        # alpha is the H branch for every sign of s3: the same counts as an
        # H input drawn first on the same stream
        h_setting = mc.optimal_whichway_analyzer(config(22.5), RHO_H)
        record = mc.which_way_counts(config(22.5), RHO_H, h_setting, 2000, mc.make_rng(25))
        assert np.array_equal(run.branch_records["alpha"].counts, record.counts)

    def test_branch_likelihood_ci_from_the_d_bootstrap(self):
        run = mc.estimate_distinguishability_decomposed(
            config(30.0), [0.2, -0.3, 0.1], 5000, mc.make_rng(26), resamples=100)
        for branch in ("alpha", "beta"):
            like = run.branch_likelihoods[branch]
            assert like.value == mc.likelihood_point_estimate(run.branch_records[branch])
            assert like.ci_low <= like.value <= like.ci_high < 1.0 + 1e-12

    def test_d_within_3_sigma_over_the_bloch_ball(self):
        # random sources in the whole ball, random wave-plate angles; a
        # calibrated 3-sigma rule misses 0.27 % of runs, and the percentile
        # CIs undercover near D = 0 and 1, so allow a 1 % miss rate:
        # P(Binomial(200, 0.01) > 7) = 0.1 %. The fixed H / V split missed
        # 124 of these 200.
        rng = np.random.default_rng(20261019)
        misses = 0
        for k in range(200):
            v = rng.normal(size=3)
            s = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
            cfg = itf.InterferometerConfig(theta0_deg=rng.uniform(-90, 90),
                                           theta1_deg=rng.uniform(-90, 90))
            est = mc.estimate_distinguishability_decomposed(
                cfg, s, 10_000, mc.make_rng(77, k), resamples=200).estimate
            misses += abs(est.value - mc.distinguishability_truth(cfg, s)) > 3 * est.sigma
        assert misses <= 7


class TestConsistency:
    def test_error_scales_as_inverse_sqrt_n(self):
        # mean |D_hat - D| over repeats at N in {1e3, 1e4, 1e5}: log-log
        # slope must sit in [-0.65, -0.35]
        cfg = config(22.5)
        truth = mc.distinguishability_truth(cfg, [0, 0, 0])
        sizes = (1000, 10_000, 100_000)
        reps = 24
        mean_err = []
        for j, n in enumerate(sizes):
            errors = []
            for rep in range(reps):
                run = mc.estimate_distinguishability_decomposed(
                    cfg, [0, 0, 0], n, mc.make_rng(1000 + j, rep), resamples=10)
                errors.append(abs(run.estimate.value - truth))
            mean_err.append(np.mean(errors))
        slope = np.polyfit(np.log(sizes), np.log(mean_err), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_visibility_error_scaling(self):
        cfg = config(22.5)
        truth = mc.visibility_truth(cfg, [0, 0, 0])
        sizes = (1000, 10_000, 100_000)
        reps = 24
        mean_err = []
        for j, n in enumerate(sizes):
            errors = []
            for rep in range(reps):
                est = mc.estimate_visibility_mc(cfg, UNPOLARIZED, PHI_16, n,
                                                mc.make_rng(2000 + j, rep),
                                                resamples=10)
                errors.append(abs(est.value - truth))
            mean_err.append(np.mean(errors))
        slope = np.polyfit(np.log(sizes), np.log(mean_err), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestCoverage:
    def test_likelihood_ci_coverage(self):
        # 95% bootstrap intervals cover the true likelihood in >= 90% of runs
        cfg = config(22.5)
        setting = mc.optimal_whichway_analyzer(cfg, RHO_H)
        _, r0 = itf.conditional_output(cfg, RHO_H, 0, 1)
        _, r1 = itf.conditional_output(cfg, RHO_H, 1, 1)
        truth = du.likelihood(itf.analyzer_basis(setting), r0, r1)
        hits = 0
        runs = 200
        for rep in range(runs):
            record = mc.which_way_counts(cfg, RHO_H, setting, 4000,
                                         mc.make_rng(3000, rep))
            est = estimate_likelihood(record, resamples=600,
                                      rng=mc.make_rng(3001, rep))
            hits += est.ci_low - 1e-12 <= truth <= est.ci_high + 1e-12
        assert hits >= 0.90 * runs

    def test_distinguishability_ci_coverage(self):
        cfg = config(30.0)
        truth = mc.distinguishability_truth(cfg, [0, 0, 0])
        hits = 0
        runs = 200
        for rep in range(runs):
            run = mc.estimate_distinguishability_decomposed(
                cfg, [0, 0, 0], 4000, mc.make_rng(4000, rep), resamples=600)
            est = run.estimate
            hits += est.ci_low - 1e-12 <= truth <= est.ci_high + 1e-12
        assert hits >= 0.90 * runs


class TestWpdClosure:
    @pytest.mark.parametrize("theta1", [0.0, 15.0, 22.5, 30.0, 45.0])
    def test_closure_within_3_sigma(self, theta1):
        cfg = config(theta1)
        d_run = mc.estimate_distinguishability_decomposed(
            cfg, [0, 0, 0], 100_000, mc.make_rng(55, int(theta1 * 10)))
        v_est = mc.estimate_visibility_mc(cfg, UNPOLARIZED, PHI_16, 100_000,
                                          mc.make_rng(56, int(theta1 * 10)))
        d_est = d_run.estimate
        total = v_est.value**2 + d_est.value**2
        sigma = math.hypot(2 * v_est.value * v_est.sigma,
                           2 * d_est.value * d_est.sigma)
        assert abs(total - 1.0) <= max(3 * sigma, 1e-6)
