"""Classical variance of weighted densities and the decay-experiment bound.

Run:  python demos/variance_bound.py
"""

import numpy as np

import inflatonlab as il
from inflatonlab.variance import preset_air_mip

# normalized Gaussian windows and their closed-form overlaps
w = il.WeightFunction(lambda_t=2.0, lambda_s=1.5)
print("self overlap  = %.6e  (closed form Lt Ls^3/4pi^2 = %.6e)"
      % (il.weight_overlap(w, w), 2.0 * 1.5**3 / (4 * np.pi**2)))
mu = 1e-3
print("classical variance of the 00-weighted density at mu = %g: %.4e"
      % (mu, il.classical_variance_00(mu, w)))

# covariance of a random same-component weight set is a Gram matrix
rng = np.random.default_rng(1)
weights = [il.WeightFunction(t_w=rng.normal(), x_w=tuple(rng.normal(size=3)),
                             lambda_t=1.0, lambda_s=1.0) for _ in range(5)]
cov = il.covariance_matrix(mu, weights)
print("\n5-window covariance eigenvalues (all nonnegative):")
print("  " + "  ".join("%.3e" % e for e in np.linalg.eigvalsh(cov)))

# the decay experiment: a particle either reaches the detector or not
exp = preset_air_mip()
print("\nminimum-ionizing particle in air:")
print("  dE/dx = %.2e GeV^2, wake radius b = %.2e GeV^-1" % (exp.dEdx, exp.b))
print("  deposited density delta_rho = %.3e GeV^4" % exp.delta_rho)
print("  quantum variance at t = lifetime: %.3e GeV^8 (factor e^-1 - e^-2 = %.4f)"
      % (il.decay_quantum_variance(exp), np.exp(-1) - np.exp(-2)))

composed, literal = il.sigma2_per_mu4(exp)
print("\nsigma^2 / mu^4 (GeV^-4):")
print("  composed prefactor e^2/(8(e-1)):  %.3e" % composed)
print("  literal prefactor  e^2/(8(e-2)):  %.3e" % literal)

# two readings of the quoted consistency threshold (applied to sigma^2 or to
# sigma itself) bracket the upper bound on the smearing mass
for s2max in (1e-3, 1e-6):
    lo, hi = sorted(il.mu_bound(exp, s2max))
    print("sigma^2 < %g  ->  mu < [%.3e, %.3e] GeV" % (s2max, lo, hi))
