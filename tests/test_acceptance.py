"""Acceptance gate: one test per criterion, every sub-check printed.

Each criterion is asserted exactly at its stated tolerance.  Criteria 1 and
4-7 compare the program with published values directly.  Criteria 2 and 3
are anchored at the pivot-mode horizon exit, and there the published exit
row (t = -1.48e-12 GeV^-1, phi = 21.46e19 GeV, H = 7.75e13 GeV) does not
satisfy its own exit condition: the slow-roll e-folds from phi = 21.46e19 GeV
to the end of inflation number 87, not the quoted 115.4.  The exit time and
the exit-anchored observables are therefore checked against the
``slow_roll_oracle`` fixture: the exit on the slow-roll attractor, computed in
closed form from (kappa, lambda, G) and q_R/a_I without the package's
solvers.  The published row is kept as two checks of its own: the
observable formulas evaluated at its (phi, H) reproduce every quoted number,
and its e-fold count contradicts the quoted one.  Every re-anchored sub-check
prints the computed, oracle and published values.
"""

import math

import numpy as np
import pytest

import inflatonlab as il
from inflatonlab import toy_battery
from inflatonlab.variance import mu_bound, preset_air_mip, sigma2_per_mu4
from test_observables import paper_anchor_exit
from test_variance import quad_overlap


class Checker:
    def __init__(self, criterion: str):
        self.criterion = criterion
        self.failures = []
        print()

    def check(self, label: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {self.criterion} | {label}" + (f": {detail}" if detail else ""))
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def finish(self):
        assert not self.failures, f"{self.criterion}: " + "; ".join(self.failures)


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def close(value, target, tol, relative):
    return within(value, target, tol) if relative else abs(value - target) <= tol


# the published table's exit row, with its quoted e-fold count to the end
PUBLISHED_EXIT = paper_anchor_exit()

# (report field, published value, tolerance, relative?)
OBSERVABLE_WINDOWS = (
    ("epsilon", 0.0054, 0.10, True),
    ("delta", 0.0012, 0.25, True),
    ("n_s", 0.97, 0.01, False),
    ("NS2", 1.90e-10, 0.10, True),
    ("r", 0.086, 0.10, True),
)


def test_criterion_1_background_golden_rows(background, derived):
    c = Checker("criterion 1 (background golden rows)")
    phi9 = background.phi(-9e-12)
    c.check("phi(-9e-12) = 11.19e19 GeV +-3%", within(phi9, 11.19e19, 0.03),
            f"computed {phi9:.4e}")
    H9 = background.hubble(-9e-12)
    c.check("H(-9e-12) = 2.07e14 GeV +-3%", within(H9, 2.07e14, 0.03),
            f"computed {H9:.4e}")
    # monotone-damped relaxation after 1e-12 GeV^-1
    ts = np.linspace(1e-12, 15e-12, 500)
    dev = np.abs(background.phi(ts) - derived.v)
    peaks = [dev[i] for i in range(1, len(dev) - 1)
             if dev[i] >= dev[i - 1] and dev[i] >= dev[i + 1]]
    damped = len(peaks) >= 3 and all(b < a for a, b in zip(peaks, peaks[1:]))
    c.check("phi -> v with damped oscillation envelope after 1e-12",
            damped and dev[-1] / derived.v < 1e-2,
            f"{len(peaks)} envelope peaks, final |phi-v|/v = {dev[-1] / derived.v:.1e}")
    H = background.hubble(ts)
    c.check("H -> 0 monotonically after 1e-12",
            bool(np.all(np.diff(H) <= 1e-20) and H[-1] < 1e-3 * derived.hbar_inf),
            f"final H = {H[-1]:.3e}")
    c.finish()


def test_criterion_2_horizon_exit(background, exit_point, slow_roll_oracle):
    c = Checker("criterion 2 (horizon exit)")
    o = slow_roll_oracle
    c.check("t_exit = oracle t_exit +-0.10e-12 GeV^-1",
            abs(exit_point.t_exit - o.t_exit) <= 0.10e-12,
            f"computed {exit_point.t_exit / 1e-12:.4f}e-12, oracle {o.t_exit / 1e-12:.4f}e-12, "
            f"published {PUBLISHED_EXIT.t_exit / 1e-12:.2f}e-12")
    ef = exit_point.efolds_to_end
    c.check("e-folds to end at exit = 115.4 +-1.0", abs(ef - 115.4) <= 1.0,
            f"computed {ef:.4f}, oracle {o.efolds:.4f}")
    ln_term = math.log(exit_point.H_exit / exit_point.q_over_aI)
    c.check("ln(H a_I/q_R) at exit = 115.9 +-0.3", abs(ln_term - 115.9) <= 0.3,
            f"computed {ln_term:.4f}")
    c.check("exit solves its defining equation to 1e-6",
            abs(exit_point.residual) < 1e-6, f"residual {exit_point.residual:.2e}")
    # the oracle's track meets the published table where the table follows
    # the attractor, at criterion 1's mid-range row
    phi9 = o.phi(-9e-12)
    c.check("oracle phi(-9e-12) = published 11.19e19 GeV +-3%",
            within(phi9, 11.19e19, 0.03), f"oracle {phi9:.4e}")
    n_anchor = o.efolds_to_end(PUBLISHED_EXIT.phi_exit)
    c.check("published exit row misses its own e-fold count (115.4) by more than 1.0",
            abs(n_anchor - PUBLISHED_EXIT.efolds_to_end) > 1.0,
            f"slow-roll e-folds from phi = {PUBLISHED_EXIT.phi_exit:.4e} to the end: "
            f"{n_anchor:.2f}; the row quotes {PUBLISHED_EXIT.efolds_to_end} "
            f"and ln(H a_I/q_R) = {math.log(PUBLISHED_EXIT.H_exit / PUBLISHED_EXIT.q_over_aI):.2f}")
    c.finish()


def test_criterion_3_observables(params, exit_point, report, slow_roll_oracle):
    c = Checker("criterion 3 (observables)")
    at_row = il.spectra_report(params, PUBLISHED_EXIT)
    for name, published, tol, relative in OBSERVABLE_WINDOWS:
        value, oracle = getattr(report, name), getattr(slow_roll_oracle, name)
        window = f"+-{tol:.0%}" if relative else f"+-{tol}"
        c.check(f"{name} = oracle {window}", close(value, oracle, tol, relative),
                f"computed {value:.5g}, oracle {oracle:.5g}, published {published}")
        value = getattr(at_row, name)
        c.check(f"{name} at the published exit row = {published} {window}",
                close(value, published, tol, relative),
                f"formulas at phi = {PUBLISHED_EXIT.phi_exit:.4e}, "
                f"H = {PUBLISHED_EXIT.H_exit:.3e} give {value:.5g}")
    cmp_q = il.compare_targets(report)
    c.check("r-bound 0.032 VIOLATED in quantum-gravity mode",
            cmp_q["r_bound_violated"], f"r = {report.r:.4f}")
    rep_cl = il.spectra_report(params, exit_point, gravity=il.GravityMode.CLASSICAL)
    cmp_cl = il.compare_targets(rep_cl)
    c.check("r-bound 0.032 SATISFIED in classical mode",
            not cmp_cl["r_bound_violated"], f"r = {rep_cl.r}")
    c.finish()


def test_criterion_4_mode_cross_validation(scalar_mode, tensor_mode, report, consts):
    c = Checker("criterion 4 (mode cross-validation)")
    R2 = abs(scalar_mode.R_plateau) ** 2
    sr = report.NS2 * consts.q_R**-3
    c.check("|R0|^2 within 25% of the slow-roll amplitude NS2 qR^-3",
            within(R2, sr, 0.25), f"ratio {R2 / sr:.4f}")
    ratio = 4 * abs(tensor_mode.D_plateau) ** 2 / R2
    c.check("4|D0|^2/|R0|^2 within 25% of 16 epsilon",
            within(ratio, 16 * report.epsilon, 0.25),
            f"{ratio:.5f} vs {16 * report.epsilon:.5f}")
    c.check("tensor Wronskian drift < 1e-6",
            tensor_mode.wronskian_drift < 1e-6,
            f"drift {tensor_mode.wronskian_drift:.2e}")
    c.check("scalar constraint residual < 1e-3",
            scalar_mode.constraint_residual_max < 1e-3,
            f"max residual {scalar_mode.constraint_residual_max:.2e}")
    c.finish()


def test_criterion_5_variance_bound():
    c = Checker("criterion 5 (variance bound)")
    exp = preset_air_mip()
    composed, literal = sigma2_per_mu4(exp)
    c.check("sigma^2/mu^4 within 10x of 1e38 GeV^-4 (composed prefactor)",
            1e37 <= composed <= 1e39, f"{composed:.3e}")
    c.check("sigma^2/mu^4 within 10x of 1e38 GeV^-4 (literal prefactor)",
            1e37 <= literal <= 1e39, f"{literal:.3e}")
    # the consistency threshold is quoted both as sigma^2 < 1e-3 and as
    # sigma < 1e-3; the bound bracket spans both readings and both prefactors
    bounds = mu_bound(exp, 1e-3) + mu_bound(exp, 1e-6)
    lo, hi = min(bounds), max(bounds)
    c.check("mu bound bracket contains 1e-11 GeV", lo <= 1e-11 <= hi,
            f"bracket [{lo:.3e}, {hi:.3e}]")
    c.finish()


def test_criterion_6_toy_property_suite():
    c = Checker("criterion 6 (probability-postulate property suite)")
    results = toy_battery.run_battery(n_seeds=50)
    for r in results:
        c.check(r.name, r.passed, f"worst {r.worst:.3e} vs {r.tolerance:.1e}")
    c.finish()


def test_criterion_7_numerical_hygiene(background, params):
    c = Checker("criterion 7 (numerical hygiene)")
    t = background.grid_times
    H = background.hubble(t)
    rho = 0.5 * background.phidot(t) ** 2 + il.potential(params, background.phi(t))
    resid = float(np.max(np.abs(H**2 - 8 * np.pi * params.G / 3 * rho) / H**2))
    c.check("Friedmann-constraint residual < 1e-8 at every node",
            resid < 1e-8, f"max {resid:.2e}")
    ts = np.linspace(-24e-12, -0.5e-12, 300)
    h = 1e-16
    fd = (background.hubble(ts + h) - background.hubble(ts - h)) / (2 * h)
    exact = -4 * np.pi * params.G * background.phidot(ts) ** 2
    worst = float(np.max(np.abs(fd - exact) / np.abs(exact)))
    c.check("dH/dt = -4 pi G phidot^2 to 1e-6 vs finite differences",
            worst < 1e-6, f"max {worst:.2e}")
    rng = np.random.default_rng(23)
    worst_overlap = 0.0
    for _ in range(5):
        w1 = il.WeightFunction(t_w=rng.normal(), x_w=tuple(rng.normal(size=3)),
                               lambda_t=10 ** rng.uniform(-0.5, 0.5),
                               lambda_s=10 ** rng.uniform(-0.5, 0.5))
        w2 = il.WeightFunction(t_w=rng.normal(), x_w=tuple(rng.normal(size=3)),
                               lambda_t=10 ** rng.uniform(-0.5, 0.5),
                               lambda_s=10 ** rng.uniform(-0.5, 0.5))
        closed = il.weight_overlap(w1, w2)
        orac = quad_overlap(w1, w2)
        worst_overlap = max(worst_overlap, abs(closed / orac - 1))
    c.check("closed-form Gaussian overlaps vs quadrature to 1e-6",
            worst_overlap < 1e-6, f"worst {worst_overlap:.2e}")
    c.finish()
