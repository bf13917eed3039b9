"""The finite-dimensional probability postulate end to end.

Run:  python demos/probability_postulate.py
"""

import numpy as np

import inflatonlab.toymodel as tm
from inflatonlab.toy_battery import run_battery

# two-level benchmark with a closed-form characteristic function
model = tm.two_level_model(c1=0.7, c2=1.3, mu=0.8)
grids = tm.auto_k_grid(model)
cf = tm.characteristic_fn(model, None, grids)
print("k-grid: %d points, dk = %.4f, |Phi| at the edge = %.1e"
      % (len(grids[0]), cf.dk[0], cf.edge_decay()))

ds = tm.invert_to_density(cf)
print("density: normalization %.12f, min %.1e"
      % (ds.normalization(), ds.min_value()))
print("mean = %.2e, variance = %.6f (analytic mu^4 (c1+c2)/2 + 1 = %.6f)"
      % (ds.mean()[0], ds.variance()[0], 0.8**4 * (0.7 + 1.3) / 2 + 1))

# peaks sit at the observable's eigenvalues, Gaussian-smeared by mu^4 C
th = ds.theta_grids[0]
for target in (1.0, -1.0):
    i = int(np.argmin(np.abs(th - target)))
    print("p(theta ~ %+.0f) = %.4f" % (target, ds.p[i]))

# conditioning on an observed value near +1 reduces the state onto the
# matching eigenstate
red = tm.reduce_state(model, None, [0.95])
print("\nconditioned on theta = 0.95:")
print("  p_past = %.4e, trace defect %.1e, min eigenvalue %.3e"
      % (red.p_past, red.trace_defect, red.min_eigenvalue))
print("  diagonal = [%.6f, %.6f]" % (red.W_c[0, 0].real, red.W_c[1, 1].real))

print("\nfull property battery (thinned sweep):")
for r in run_battery(n_seeds=12):
    print("  " + r.line())
