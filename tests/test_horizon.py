import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import inflatonlab as il
from inflatonlab import background as background_module
from inflatonlab.config import ScanConfig
from inflatonlab.horizon import NoHorizonExit, solve_exit_general
from inflatonlab.perturbations import _window

SCAN_BOX = ScanConfig()
SYMMETRY_TOL = 1e-10


def test_constants_invariants(consts):
    assert consts.q_R_over_aI == pytest.approx(consts.q_R / consts.a_L, rel=1e-2)
    # published values: q_R = 3.193e-40 GeV, q_R/a_I = 3.490e-37 GeV;
    # unit-conversion digits differ below the percent
    assert consts.q_R == pytest.approx(3.193e-40, rel=5e-3)
    assert consts.q_R_over_aI == pytest.approx(3.490e-37, rel=5e-3)
    assert consts.a_L == pytest.approx(1 / 1090, rel=1e-12)


def test_constants_validation():
    for q_R, a_L in ((0.0, 1e-3), (1e-40, -1e-3), (1e-40, math.inf), (5e-324, 1e3)):
        with pytest.raises(ValueError):
            il.CosmoConstants(q_R=q_R, a_L=a_L)


def test_exit_residual_and_reconstruction(background, exit_point, consts):
    # the defining condition q/a = H is met by the solved exit
    assert abs(exit_point.residual) < 1e-6
    q_over_a = consts.q_R_over_aI * math.exp(background.efolds_to_end(exit_point.t_exit))
    assert abs(q_over_a - exit_point.H_exit) / exit_point.H_exit < 1e-6


def test_exit_bracket_sides(background, exit_point, consts):
    # far before the exit the mode is inside the horizon (F > 0), and the
    # e-fold budget at -9e-12 vastly exceeds the logarithmic side
    def F(t):
        return background.efolds_to_end(t) - math.log(
            background.hubble(t) / consts.q_R_over_aI)

    assert F(-9e-12) > 0
    assert F(background.end_of_inflation() - 0.2e-12) < 0
    assert background.efolds_to_end(-9e-12) > 1000


def test_mode_inside_horizon_before_exit(background, exit_point, consts):
    ts = np.linspace(-20e-12, exit_point.t_exit - 1e-15, 100)
    log_ratio = (math.log(consts.q_R_over_aI) + background.efolds_to_end(ts)
                 - np.log(background.hubble(ts)))
    assert np.all(log_ratio > 0)


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def _log_q_over_aH_by_definition(sol, q_over_aI, t):
    return math.log(q_over_aI) + sol.efolds_to_end(t) - np.log(sol.hubble(t))


def test_log_q_over_aH_is_its_definition_on_arrays(background, consts):
    # one dense-output evaluation gives the value that efolds_to_end and
    # hubble give through three, bit for bit, on the storage nodes before t_I
    # and between them
    t_I = background.end_of_inflation()
    nodes = background.grid_times[background.grid_times < t_I]
    for t in (nodes, np.linspace(background.t_start, t_I, 1001)):
        _assert_same_bits(background.log_q_over_aH(consts.q_R_over_aI, t),
                          _log_q_over_aH_by_definition(background, consts.q_R_over_aI, t))


@settings(max_examples=100)
@given(fraction=st.floats(0.0, 1.0), log10_ratio=st.floats(-2.0, 2.0))
def test_log_q_over_aH_is_its_definition_at_scalar_times(background, consts, fraction,
                                                         log10_ratio):
    t_I = background.end_of_inflation()
    t = background.t_start + fraction * (t_I - background.t_start)
    q_over_aI = consts.q_R_over_aI * 10.0 ** log10_ratio
    _assert_same_bits(background.log_q_over_aH(q_over_aI, t),
                      _log_q_over_aH_by_definition(background, q_over_aI, t))


def test_reference_equals_general_at_pivot(background, consts, exit_point):
    ex = il.solve_exit_general(background, consts.q_R_over_aI)
    assert ex.t_exit == pytest.approx(exit_point.t_exit, rel=1e-12)


def test_larger_q_exits_later(background, consts, exit_point):
    ex10 = il.solve_exit_general(background, 10 * consts.q_R_over_aI)
    assert ex10.t_exit > exit_point.t_exit
    # ten times the wavenumber exits ln(10)-ish e-folds later
    dn = exit_point.efolds_to_end - ex10.efolds_to_end
    assert dn == pytest.approx(math.log(10), rel=0.05)


def test_log_form_agrees_with_direct_form(background, consts, exit_point):
    # root q/a(t) = H(t) itself, bracketed independently of the solver's grid;
    # from -5e-12 on, e^{efolds_to_end} stays inside the float range
    def direct(t):
        return (consts.q_R_over_aI * math.exp(background.efolds_to_end(t))
                - background.hubble(t))

    t_direct = brentq(direct, -5e-12, background.end_of_inflation() - 0.2e-12,
                      xtol=1e-30)
    assert abs(t_direct - exit_point.t_exit) < 1e-4 * 1e-12


@settings(max_examples=20)
@given(log10_ratio=st.floats(min_value=-1.0, max_value=1.0))
def test_exit_inside_mode_window_across_band(background, consts, exit_point, log10_ratio):
    # q/q_R log-uniform in [0.1, 10]
    q = consts.q_R * 10.0 ** log10_ratio
    q_over_aI = q / consts.a_L
    ex = il.solve_exit_general(background, q_over_aI)
    assert abs(ex.residual) < 1e-6
    w = _window(background, q, consts)
    assert w.t_a < ex.t_exit < w.t_b
    # a larger wavenumber leaves the horizon later
    assert np.sign(ex.t_exit - exit_point.t_exit) == np.sign(q - consts.q_R)


def test_no_exit_raises(background):
    # a mode far bluer than the expansion rate stays inside the horizon for
    # the whole inflationary era: no sign change, no exit
    with pytest.raises(NoHorizonExit):
        il.solve_exit_general(background, 1e15)


def test_exit_with_a_large_residual_raises(background, consts, monkeypatch):
    # a root finder that returns its bracket's left end leaves the mismatch
    # of a storage node; patched after the build, since t_I is found by the
    # same search
    monkeypatch.setattr(background_module, "_brentq", lambda fn, a, b: a)
    with pytest.raises(NoHorizonExit, match="leaves a residual of"):
        il.solve_exit_general(background, consts.q_R_over_aI)


def test_config_overridable_constants():
    c = il.CosmoConstants.from_physical(q_R_mpc_inv=0.10, z_L=1100.0)
    assert c.q_R == pytest.approx(2 * il.DEFAULT_CONSTANTS.q_R, rel=1e-12)
    assert c.a_L == pytest.approx(1 / 1101, rel=1e-12)


@settings(max_examples=10)
@given(kappa=st.floats(SCAN_BOX.kappa_min, SCAN_BOX.kappa_max),
       lam=st.floats(SCAN_BOX.lambda_min, SCAN_BOX.lambda_max), c=st.floats(0.8, 1.25))
def test_kappa_at_fixed_v_is_a_pure_time_scale(kappa, lam, c, consts):
    # (c kappa, c^2 lambda) keeps v and runs the same background c times
    # faster: phi_c(t) = phi(ct), N_c(t) = N(ct), t_I,c = t_I/c, and the mode
    # c q leaves the horizon at t_exit(q)/c with the same e-folds to go.  The
    # starts are matched (t_start/c and t_end/c), so only the two solves'
    # step sequences differ
    slow = il.integrate(il.PotentialParams(kappa=kappa, lam=lam))
    fast = il.integrate(il.PotentialParams(kappa=c * kappa, lam=c * c * lam),
                        t_start=slow.t_start / c, t_end=slow.t_end / c)
    # t_I lies within 1e-13 GeV^-1 of the clock's origin, where v e^{alpha t}
    # would reach v, so its error is taken relative to the time from the start
    assert abs(c * fast.t_I - slow.t_I) <= SYMMETRY_TOL * (slow.t_I - slow.t_start)
    t = slow.grid_times
    assert np.max(np.abs(fast.phi(t / c) / slow.phi(t) - 1)) <= SYMMETRY_TOL
    q = consts.q_R_over_aI
    slow_exit, fast_exit = solve_exit_general(slow, q), solve_exit_general(fast, c * q)
    assert abs(c * fast_exit.t_exit / slow_exit.t_exit - 1) <= SYMMETRY_TOL
    assert abs(fast_exit.efolds_to_end - slow_exit.efolds_to_end) <= SYMMETRY_TOL
