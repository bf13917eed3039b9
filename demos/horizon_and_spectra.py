"""Pivot-scale horizon exit and the slow-roll observables built on it.

Run:  python demos/horizon_and_spectra.py
"""

import math

import inflatonlab as il

params = il.PotentialParams()
sol = il.integrate(params)
consts = il.DEFAULT_CONSTANTS
print("pivot wavenumber q_R = %.4e GeV (physical q_R/a_I = %.4e GeV)"
      % (consts.q_R, consts.q_R_over_aI))

exit_ = il.solve_exit_reference(sol, consts)
print("\nhorizon exit of the pivot mode:")
print("  t_exit  = %.4e GeV^-1" % exit_.t_exit)
print("  phi     = %.4e GeV" % exit_.phi_exit)
print("  H       = %.4e GeV" % exit_.H_exit)
print("  e-folds remaining = %.3f  (= ln(H a_I/q_R) = %.3f, residual %.1e)"
      % (exit_.efolds_to_end, math.log(exit_.H_exit / exit_.q_over_aI),
         exit_.residual))

report = il.spectra_report(params, exit_)
print("\nslow-roll observables at the exit:")
for key in ("epsilon", "delta", "n_s", "n_T", "NS2", "NT2", "r"):
    print("  %-7s = %.6g" % (key, getattr(report, key)))

cmp_ = il.compare_targets(report)
for rec in cmp_["records"]:
    print("  %s vs target %.4g +- %.2g: z = %+.1f" %
          (rec["name"], rec["target"], rec["sigma"], rec["z"]))
print("  tensor-ratio bound r < %.3f: %s" %
      (cmp_["r_bound"], "VIOLATED" if cmp_["r_bound_violated"] else "satisfied"))

# treating the metric as a classical field removes the tensor sector entirely
classical = il.spectra_report(params, exit_, gravity=il.GravityMode.CLASSICAL)
cmp_cl = il.compare_targets(classical)
print("\nclassical-gravity switch: r = %g, bound %s; scalar amplitude unchanged (%.4g)"
      % (classical.r, "VIOLATED" if cmp_cl["r_bound_violated"] else "satisfied",
         classical.NS2))

# a longer pivot wavelength leaves the horizon earlier
for mult in (0.1, 1.0, 10.0):
    ex = il.solve_exit_general(sol, mult * consts.q_R_over_aI)
    print("q = %4.1f q_R:  t_exit = %+.3f e-12, e-folds remaining %.2f"
          % (mult, ex.t_exit / 1e-12, ex.efolds_to_end))
