import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inflatonlab as il
from inflatonlab import _dop853, perturbations
from inflatonlab.background import DEFAULT_ATOL, DEFAULT_RTOL, DEFAULT_T_END, DEFAULT_T_START
from inflatonlab.cache import load_background, save_background
from inflatonlab.config import ScanConfig
from inflatonlab.constants import TWO_PI
from inflatonlab.perturbations import X_END, X_START, ModeError, tensor_wronskian


def _start_scale_factor(background, consts, mode):
    return mode.q / (consts.q_R_over_aI * math.exp(background.efolds_to_end(mode.t[0])))


def test_scalar_initial_data_moduli(background, consts, scalar_mode):
    # the first sample is the WKB start of integrate_scalar
    q = scalar_mode.q
    a0 = _start_scale_factor(background, consts, scalar_mode)
    # |chi|^2 = (2pi)^-3 / (2 q a^2)
    assert abs(scalar_mode.chi[0]) ** 2 == pytest.approx(TWO_PI**-3 / (2 * q * a0**2), rel=1e-12)
    # |psi| = 4 pi G |phidot| (2pi)^(-3/2) / (q sqrt(2q)), up to the
    # (aH/q)^2 / 2 = 5e-5 correction the energy constraint adds to that estimate
    expect = (4 * math.pi * background.params.G * abs(background.phidot(scalar_mode.t[0]))
              / (TWO_PI**1.5 * q * math.sqrt(2 * q)))
    assert abs(scalar_mode.psi[0]) == pytest.approx(expect, rel=2e-4)


def test_scalar_initial_data_wronskian(background, consts, scalar_mode):
    chi, chidot = scalar_mode.chi[0], scalar_mode.chidot[0]
    a0 = _start_scale_factor(background, consts, scalar_mode)
    w = a0**3 * (chi * np.conj(chidot) - np.conj(chi) * chidot)
    assert w.imag == pytest.approx(TWO_PI**-3, rel=1e-4)
    assert abs(w.real) < 1e-12 * abs(w.imag)


def test_scalar_constraint_residual(scalar_mode):
    assert scalar_mode.constraint_residual_max < 1e-3


@pytest.mark.parametrize("ratio", [0.1, 0.79, 10.0])
def test_mode_contracts_across_band(background, consts, ratio):
    q = ratio * consts.q_R
    sc = il.integrate_scalar(background, q, consts)
    tn = il.integrate_tensor(background, q, consts)
    assert sc.constraint_residual_max < 1e-3
    assert tn.wronskian_drift < 1e-6
    # the background each mode carries tracks the stored one: q/(aH) hits the
    # window ends that were rooted on the stored solution
    for mode in (sc, tn):
        assert mode.q_over_aH[0] == pytest.approx(X_START, rel=1e-6)
        assert mode.q_over_aH[-1] == pytest.approx(X_END, rel=1e-6)


def test_modes_solve_at_their_backgrounds_tolerances(params, consts, tmp_path, solve_calls):
    # a background solved at non-default tolerances, fresh and through the
    # cache: it and every mode solve run at that background's rtol and atol
    sol = il.integrate(params, rtol=1e-9, atol=1e-11)
    save_background(sol, tmp_path)
    cached = load_background(params, sol.t_start, sol.t_end, 1e-9, 1e-11, tmp_path)
    modes = [integrate_mode(bg, consts.q_R, consts) for bg in (sol, cached)
             for integrate_mode in (il.integrate_scalar, il.integrate_tensor)]
    assert [(c.rtol, c.atol) for c in solve_calls] == [(1e-9, 1e-11)] * 5
    # the cached background hands its modes the same bits
    assert np.array_equal(modes[0].R, modes[2].R)
    assert np.array_equal(modes[1].D, modes[3].D)


def test_numpy_scalar_inputs_reach_the_stepper_as_floats(params, consts, scalar_mode,
                                                         tensor_mode, solve_calls, monkeypatch):
    # couplings, constants, q, run times and tolerances all as numpy scalars:
    # they are stored or read as floats, every callback returns floats at its
    # y0 and is called with floats only, and the modes are the float-input
    # modes bit for bit
    f64 = np.float64
    params64 = il.PotentialParams(*map(f64, astuple(params)))
    consts64 = il.CosmoConstants(*map(f64, astuple(consts)))
    assert all(type(v) is float for v in (*astuple(params64), *astuple(consts64)))
    sol = il.integrate(params64, f64(DEFAULT_T_START), f64(DEFAULT_T_END),
                       f64(DEFAULT_RTOL), f64(DEFAULT_ATOL))
    modes = (il.integrate_scalar(sol, f64(consts.q_R), consts64),
             il.integrate_tensor(sol, f64(consts.q_R), consts64))
    monkeypatch.undo()
    assert [len(c.y0) for c in solve_calls] == [3, 9, 7]

    def floats_only(fun):
        def checked(t, y):
            out = fun(t, y)
            assert all(type(v) is float for v in (t, *y, *out))
            return out
        return checked

    for fun, t0, t1, y0, rtol, atol, _ in solve_calls:
        assert all(type(v) is float for v in fun(t0, y0))
        _dop853.solve(floats_only(fun), t0, t1, y0, rtol, atol)
    for got, want in zip(modes, (scalar_mode, tensor_mode)):
        for a, b in zip(astuple(got), astuple(want)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _complex_scalar_rhs(co, K1, K2, Qt0, W, gpsi):
    """The scalar right-hand side in complex form: the oracle for the real pairs."""
    def rhs(tau, y):
        c = y[0] + 1j * y[1]
        cp = y[2] + 1j * y[3]
        P = y[4] + 1j * y[5]
        f, g = y[6], y[7]
        bg = co.rhs(tau, y[6:])
        Np = bg[2]
        Qv = Qt0 * math.exp(-y[8])
        Pp = -Np * P + gpsi * g * c
        Vp_s = -K1 * f + K2 * f**3
        cpp = (-3 * Np * cp
               - (-K1 + 3 * K2 * f * f + Qv * Qv) * c
               - 2 * W * Vp_s * P + 4 * W * g * Pp)
        return [cp.real, cp.imag, cpp.real, cpp.imag, Pp.real, Pp.imag, *bg]
    return rhs


def _complex_tensor_rhs(co, Qt0):
    """The tensor right-hand side in complex form: the oracle for the real pairs."""
    def rhs(tau, y):
        d = y[0] + 1j * y[1]
        dp = y[2] + 1j * y[3]
        bg = co.rhs(tau, y[4:])
        Qv = Qt0 * math.exp(-y[6])
        dpp = -3 * bg[2] * dp - Qv * Qv * d
        return [dp.real, dp.imag, dpp.real, dpp.imag, *bg]
    return rhs


def _closure(fun):
    """The values fun closes over, by name."""
    return {name: cell.cell_contents
            for name, cell in zip(fun.__code__.co_freevars, fun.__closure__)}


def test_real_pair_rhs_match_the_complex_form(background, consts, solve_calls, monkeypatch):
    # the pivot's quantum scalar, classical scalar and tensor right-hand sides
    # against the complex form on the coefficients each closes over, at finite
    # states spanning those of the window (mode parts to 1e4, f to 30, g to 5,
    # n to 12): every output compares equal
    il.integrate_scalar(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts, gravity=il.GravityMode.CLASSICAL)
    il.integrate_tensor(background, consts.q_R, consts)
    monkeypatch.undo()
    quantum, classical, tensor = (c.fun for c in solve_calls)
    assert _closure(quantum)["W"] != 0 and _closure(quantum)["gpsi"] != 0
    assert _closure(classical)["W"] == _closure(classical)["gpsi"] == 0.0
    cases = [(quantum, _complex_scalar_rhs(**_closure(quantum)), 6),
             (classical, _complex_scalar_rhs(**_closure(classical)), 6),
             (tensor, _complex_tensor_rhs(**_closure(tensor)), 4)]

    @settings(max_examples=200)
    @given(tau=st.floats(-1e3, 1e3), parts=st.lists(st.floats(-1e4, 1e4), min_size=6, max_size=6),
           f=st.floats(0, 30), g=st.floats(-5, 5), n=st.floats(0, 12))
    def check(tau, parts, f, g, n):
        for fun, oracle, m in cases:
            y = [*parts[:m], f, g, n]
            assert fun(tau, y) == oracle(tau, y)

    check()


def test_scalar_wkb_envelope_inside_horizon(background, scalar_mode):
    # |chi| a constant to 1% while q/(aH) > 50
    mask = scalar_mode.q_over_aH > 50
    a = np.exp(-background.efolds_to_end(scalar_mode.t[mask]))
    env = np.abs(scalar_mode.chi[mask]) * a
    assert (env.max() - env.min()) / env.mean() < 0.01


def test_scalar_plateau_flatness(scalar_mode):
    # quadratic settling toward the frozen value; within 1e-3 once q/aH < 0.04
    R0 = abs(scalar_mode.R_plateau)
    x = scalar_mode.q_over_aH
    dev = np.abs(np.abs(scalar_mode.R) - R0) / R0
    sub = x < 0.04
    assert dev[sub].max() < 1e-3
    settle = x < 0.3
    assert np.all(dev[settle] <= 0.75 * x[settle] ** 2 + 1e-6)


def test_scalar_plateau_matches_slow_roll(scalar_mode, report, consts):
    # direct integration against the slow-roll amplitude at the solved exit
    sr = report.NS2 * consts.q_R**-3
    assert abs(scalar_mode.R_plateau) ** 2 == pytest.approx(sr, rel=0.25)


def test_tensor_wronskian_conservation(tensor_mode, background, params):
    assert tensor_mode.wronskian_drift < 1e-6
    w = tensor_wronskian(background, tensor_mode)
    target = 16 * math.pi * params.G / TWO_PI**3
    assert w[0].imag == pytest.approx(target, rel=1e-8)
    assert abs(w[0].real) < 1e-10 * target


def test_tensor_plateau_matches_slow_roll(tensor_mode, report, consts):
    sr = params_free_tensor_amp(report, consts)
    assert abs(tensor_mode.D_plateau) ** 2 == pytest.approx(sr, rel=0.25)


def params_free_tensor_amp(report, consts):
    # G H^2/pi^2 q^-3 with the report's exit rate
    G = il.PotentialParams().G
    return G * report.exit.H_exit**2 / math.pi**2 * consts.q_R**-3


def test_tensor_to_scalar_ratio_consistency(scalar_mode, tensor_mode, report):
    ratio = 4 * abs(tensor_mode.D_plateau) ** 2 / abs(scalar_mode.R_plateau) ** 2
    assert ratio == pytest.approx(16 * report.epsilon, rel=0.25)


_BOX = ScanConfig()
TILT_TOL = 1e-3     # mode tilts against slow roll, as in the benchmark's kband_modes


@settings(max_examples=3)
@given(kappa=st.floats(_BOX.kappa_min, _BOX.kappa_max),
       lam=st.floats(_BOX.lambda_min, _BOX.lambda_max))
def test_mode_tilts_match_slow_roll_across_scan_box(kappa, lam, consts):
    # n_s and n_T fitted from the R and D plateaus 0.3 decades either side of q_R
    # against the slow-roll report at the pivot exit (ModeCode's check,
    # Mortonson, Peiris & Easther, arXiv:1007.4205)
    params = il.PotentialParams(kappa=kappa, lam=lam)
    sol = il.integrate(params)
    report = il.spectra_report(params, il.solve_exit_reference(sol, consts))
    lq, lr, ld = np.array([
        (math.log(q), math.log(abs(il.integrate_scalar(sol, q, consts).R_plateau) ** 2),
         math.log(abs(il.integrate_tensor(sol, q, consts).D_plateau) ** 2))
        for q in consts.q_R * 10.0 ** np.array([-0.3, 0.3])]).T
    # |R|^2 ~ q^(n_s - 4) and |D|^2 ~ q^(n_T - 3)
    n_s = (lr[1] - lr[0]) / (lq[1] - lq[0]) + 4
    n_T = (ld[1] - ld[0]) / (lq[1] - lq[0]) + 3
    assert abs(n_s - report.n_s) < TILT_TOL
    assert abs(n_T - report.n_T) < TILT_TOL


def test_mode_start_threshold_insensitivity(background, consts, scalar_mode, monkeypatch):
    # starting twice as deep moves the frozen amplitude at the (aH/q)^2 level
    monkeypatch.setattr(perturbations, "X_START", 200.0)
    deeper = il.integrate_scalar(background, consts.q_R, consts)
    assert deeper.q_over_aH[0] == pytest.approx(200.0, rel=1e-6)
    assert abs(deeper.R_plateau) == pytest.approx(abs(scalar_mode.R_plateau), rel=1e-3)


@pytest.mark.filterwarnings("error")
@settings(max_examples=10)
@given(log10_q=st.floats(-323.0, -200.0))
@example(log10_q=-200.0)
def test_extreme_small_q_is_a_mode_error(background, consts, log10_q):
    # q/(aH) is rooted in log space, so the window is found; then a_I/a at its
    # start overflows, a sqrt(2q) underflows to zero or the WKB normalization
    # overflows the physical arrays, and each failure names q without a
    # numpy warning first (q = 1e-200 GeV reaches the last case)
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ModeError, match="GeV is too small"):
            integrate_mode(background, 10.0**log10_q, consts)


def test_mode_still_inside_the_horizon_at_the_end_is_a_mode_error(background, consts):
    # q = 1e10 GeV is still far inside the horizon when inflation ends
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ModeError, match="q/\\(aH\\) never reaches 0.01 before the end"):
            integrate_mode(background, 1e10, consts)


def test_mode_past_the_step_budget_is_a_mode_error(background, consts, monkeypatch):
    # a pivot mode takes about 360 steps; on a budget of 100 it stops by name
    monkeypatch.setattr(_dop853, "MAX_STEPS", 100)
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ModeError, match="step budget MAX_STEPS = 100 attempts is spent"):
            integrate_mode(background, consts.q_R, consts)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bad_wavenumber_is_named(background, consts, bad):
    # NaN passes a `<= 0` test and q = inf reaches the window search, so the
    # exit and mode solvers check 0 < q < inf first and name the wavenumber
    with pytest.raises(ValueError, match="q_over_aI must be positive and finite"):
        il.solve_exit_general(background, bad)
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            integrate_mode(background, bad, consts)


def test_classical_mode_scalar(background, consts, scalar_mode):
    cl = il.integrate_scalar(background, consts.q_R, consts,
                             gravity=il.GravityMode.CLASSICAL)
    assert np.all(cl.psi == 0)
    # scalar conclusions survive the switch at the ten-percent level
    ratio = abs(cl.R_plateau) ** 2 / abs(scalar_mode.R_plateau) ** 2
    assert abs(ratio - 1) < 0.10


def test_classical_mode_tensor(background, consts):
    cl = il.integrate_tensor(background, consts.q_R, consts,
                             gravity=il.GravityMode.CLASSICAL)
    assert cl.D_plateau == 0
    assert np.all(cl.D == 0)
    assert cl.wronskian_drift == 0.0


def _time_at_efolds_to_end(background, n):
    ts = np.linspace(-5e-12, background.end_of_inflation(), 4000)
    ef = background.efolds_to_end(ts)
    return float(np.interp(n, ef[::-1], ts[::-1]))


def test_vector_mode_decay(background):
    t_I = background.end_of_inflation()
    t1 = -3e-12
    n1 = background.efolds_to_end(t1)
    # across exactly one e-fold the amplitude falls by e^-2
    t2 = _time_at_efolds_to_end(background, n1 - 1.0)
    assert il.vector_mode_decay(background, 2.0, t2) / \
        il.vector_mode_decay(background, 2.0, t1) == pytest.approx(
            math.exp(-2.0), rel=1e-3)
    # across ln 2 e-folds the scale factor doubles and the amplitude quarters
    t3 = _time_at_efolds_to_end(background, n1 - math.log(2.0))
    assert il.vector_mode_decay(background, 2.0, t3) / \
        il.vector_mode_decay(background, 2.0, t1) == pytest.approx(0.25, rel=1e-3)
    # at the end of inflation the amplitude is c_j / a_I^2
    aI = il.DEFAULT_CONSTANTS.a_L
    assert il.vector_mode_decay(background, 2.0, t_I) == pytest.approx(
        2.0 / aI**2, rel=1e-9)
