"""Direct mode-function integration versus the slow-roll predictions.

Run:  python demos/mode_functions.py
"""

import numpy as np

import inflatonlab as il
from inflatonlab.perturbations import tensor_wronskian

params = il.PotentialParams()
sol = il.integrate(params)
consts = il.DEFAULT_CONSTANTS
exit_ = il.solve_exit_reference(sol, consts)
report = il.spectra_report(params, exit_)
q = consts.q_R

sc = il.integrate_scalar(sol, q, consts)
tn = il.integrate_tensor(sol, q, consts)
print("window: q/(aH) from %.0f down to %.2g, t in [%.3f, %.3f] e-12"
      % (sc.q_over_aH[0], sc.q_over_aH[-1], sc.t_start / 1e-12, sc.t_end / 1e-12))

print("\ncurvature amplitude as the mode crosses the horizon:")
for x in (30.0, 3.0, 1.0, 0.3, 0.05, 0.01):
    i = int(np.argmin(np.abs(sc.q_over_aH - x)))
    print("  q/aH = %7.3f   |R| = %.5e" % (sc.q_over_aH[i], abs(sc.R[i])))

R2 = abs(sc.R_plateau) ** 2
D2 = abs(tn.D_plateau) ** 2
sr_R2 = report.NS2 * q**-3
sr_D2 = params.G * exit_.H_exit**2 / np.pi**2 * q**-3
print("\nfrozen amplitudes against the slow-roll forms:")
print("  |R0|^2 = %.4e   slow roll %.4e   ratio %.4f" % (R2, sr_R2, R2 / sr_R2))
print("  |D0|^2 = %.4e   slow roll %.4e   ratio %.4f" % (D2, sr_D2, D2 / sr_D2))
print("  4|D0|^2/|R0|^2 = %.5f   vs 16 epsilon = %.5f"
      % (4 * D2 / R2, 16 * report.epsilon))

print("\nintegration-quality gauges:")
print("  tensor Wronskian drift      %.2e" % tn.wronskian_drift)
w0 = tensor_wronskian(sol, tn)[0]
print("  absolute normalization      %.4e (target %.4e)"
      % (w0.imag, 16 * np.pi * params.G / (2 * np.pi) ** 3))
print("  scalar constraint residual  %.2e" % sc.constraint_residual_max)

# with classical gravity the tensor mode carries nothing and the frozen
# curvature barely moves
cl = il.integrate_scalar(sol, q, consts, gravity=il.GravityMode.CLASSICAL)
tcl = il.integrate_tensor(sol, q, consts, gravity=il.GravityMode.CLASSICAL)
print("\nclassical gravity: |R0|^2 ratio to quantum = %.4f, tensor plateau = %s"
      % (abs(cl.R_plateau) ** 2 / R2, tcl.D_plateau))

# vector modes just dilute with the expansion
t0 = exit_.t_exit
ratio = il.vector_mode_decay(sol, 1.0, sol.end_of_inflation()) / \
    il.vector_mode_decay(sol, 1.0, t0)
print("vector-mode dilution from the exit to the end: %.2e (= e^{-2 N} = %.2e)"
      % (ratio, np.exp(-2 * exit_.efolds_to_end)))
