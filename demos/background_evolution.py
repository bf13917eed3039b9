"""Walk through the background solve: asymptotic start, inflation, relaxation.

Run:  python demos/background_evolution.py
"""

import math

import numpy as np

import inflatonlab as il

params = il.PotentialParams()
der = il.derive_constants(params)
print("couplings: kappa = %.3e GeV, lambda = %.3e, G = %.4e GeV^-2"
      % (params.kappa, params.lam, params.G))
print("potential minimum      v = %.4e GeV" % der.v)
print("limiting rate   H(-inf) = %.4e GeV" % der.hbar_inf)
print("growth exponent   alpha = %.4e GeV" % der.alpha)
print("vacuum energy           = %.4e GeV^4" % der.vacuum_energy)

# the asymptotic initial data fixes the time origin: phi = v e^{alpha t}
st = il.initial_state(params, -25e-12)
print("\nstart at t = -25e-12 GeV^-1: phi = %.3e GeV, H = %.3e GeV"
      % (st.phi, st.H))

sol = il.integrate(params)
t_I = sol.end_of_inflation()
print("end of inflation (first phi = v crossing): t_I = %.3e GeV^-1" % t_I)
print("e-folds accumulated from the start to t_I:  %.1f"
      % sol.efolds_from_start(t_I))

print("\n   t/1e-12   phi/1e19    H/1e14   e-folds to end")
for t12 in (-25, -20, -15, -9, -5, -2, -1, 0, 1, 5, 15):
    t = t12 * 1e-12
    print("   %7.1f   %8.4f  %8.5f   %12.2f"
          % (t12, sol.phi(t) / 1e19, sol.hubble(t) / 1e14, sol.efolds_to_end(t)))

# the field overshoots the minimum and rings down; the expansion rate only decays
ts = np.linspace(0, 15e-12, 2000)
dev = np.abs(sol.phi(ts) - der.v) / der.v
print("\npost-inflation: max |phi - v|/v = %.3f, at t = +15e-12 it is %.1e"
      % (dev.max(), dev[-1]))

# where the hot phase can sit: a homogeneous constant-density patch has a
# scale-factor zero only for negative spatial curvature
for K in (0.0, +1.0, -1.0):
    t_bb = il.classify_bigbang(K, rho_bar=der.vacuum_energy)
    if t_bb is None:
        kind = "no BB"
    elif t_bb == -math.inf:
        kind = "BB at -infinity"
    else:
        kind = "BB at finite t at t = %.3e GeV^-1" % t_bb
    print("curvature K = %+g  ->  %s" % (K, kind))
