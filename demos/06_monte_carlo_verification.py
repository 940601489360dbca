"""Photon-counting verification of the duality equality.

Per QWP1 angle: the visibility comes from binomial port counts over a phase
scan, and D from the decomposition procedure: split the source into two pure
branches at equal height along the rotation axis (for the unpolarized source
used here, H and V), feed each branch separately, block one arm at a time,
count at the model-optimal analyzer, and combine the two likelihoods with the
branch weights. Bootstrap intervals quantify the statistics; V^2 + D^2 stays
within a few sigma of one.
"""

import math

import numpy as np

from wpdlab import interferometer as itf, montecarlo as mc

UNPOLARIZED = np.eye(2, dtype=complex) / 2
PHI = np.linspace(0, 2 * math.pi, 16, endpoint=False)
PHOTONS = 100_000
SEED = 424242

print(f"{PHOTONS} photons per setting, seed {SEED}, "
      f"rng {mc.RNG_ALGORITHM}\n")
print(f"{'theta1':>7} {'V_est':>8} {'D_est':>8} {'D_true':>8} "
      f"{'V2+D2':>8} {'sigma':>8}")
for idx, theta1 in enumerate((0.0, 15.0, 22.5, 30.0, 45.0)):
    cfg = itf.InterferometerConfig(theta0_deg=0.0, theta1_deg=theta1)
    d_run = mc.estimate_distinguishability_decomposed(
        cfg, [0, 0, 0], PHOTONS, mc.make_rng(SEED, 2 * idx))
    v_est = mc.estimate_visibility_mc(cfg, UNPOLARIZED, PHI, PHOTONS,
                                      mc.make_rng(SEED, 2 * idx + 1))
    d_est = d_run.estimate
    total = v_est.value ** 2 + d_est.value ** 2
    sigma = math.hypot(2 * v_est.value * v_est.sigma,
                       2 * d_est.value * d_est.sigma)
    d_true = abs(math.sin(2 * math.radians(theta1)))
    print(f"{theta1:7.1f} {v_est.value:8.4f} {d_est.value:8.4f} "
          f"{d_true:8.4f} {total:8.4f} {sigma:8.1g}")

print("\nthe same counts, rerun with the same seed, are bit-identical:")
cfg = itf.InterferometerConfig(theta0_deg=0.0, theta1_deg=22.5)
setting = mc.optimal_whichway_analyzer(cfg, np.diag([1.0, 0]).astype(complex))
a = mc.which_way_counts(cfg, np.diag([1.0, 0]).astype(complex), setting,
                        10_000, mc.make_rng(SEED, 99))
b = mc.which_way_counts(cfg, np.diag([1.0, 0]).astype(complex), setting,
                        10_000, mc.make_rng(SEED, 99))
print(f"  {a.counts.tolist()} == {b.counts.tolist()}: "
      f"{np.array_equal(a.counts, b.counts)}")
