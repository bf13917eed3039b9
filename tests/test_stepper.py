"""The in-house DOP853 stepper and Brent root finder, with scipy as the
oracle: scipy is a test dependency only, and the package never imports it."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.integrate._ivp.rk import DOP853
from scipy.optimize import brentq

import inflatonlab as il
from inflatonlab import _dop853
from inflatonlab.background import (CROSSING_RTOL, CROSSING_XTOL, IntegrationError, _brentq,
                                    _Coeffs)
from inflatonlab.constants import TIME_UNIT
from inflatonlab.perturbations import ModeError

SRC = Path(__file__).resolve().parents[1] / "src"


def test_tableau_is_scipys_bit_for_bit():
    assert np.array_equal(_dop853.C, scipy_tableau.C)
    for s in range(scipy_tableau.N_STAGES_EXTENDED):
        assert np.array_equal(_dop853.A[s], scipy_tableau.A[s, :s])
        assert not np.any(scipy_tableau.A[s, s:])
    for ours, theirs in ((_dop853.B, scipy_tableau.B), (_dop853.E3, scipy_tableau.E3),
                         (_dop853.E5, scipy_tableau.E5), (_dop853.D, scipy_tableau.D)):
        assert np.array_equal(ours, theirs)


def _smooth_rhs(n, seed):
    """A nonlinear right-hand side of n components without cancellation in its
    values, so two summation orders of the same stages agree to rounding."""
    A = (np.random.default_rng(seed).normal(size=(n, n)) / n).tolist()

    def fun(t, y):
        return [math.sin(t + y[i]) + sum(map(mul, row, y)) for i, row in enumerate(A)]
    return fun


@settings(max_examples=30)
@given(n=st.sampled_from([3, 7, 9]), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-5, 5), log_h=st.floats(-3, -0.5))
def test_one_step_matches_scipy(n, seed, t, log_h):
    # one step from the same (t, y, f, h) as scipy's DOP853 class: the new
    # state and the dense-output block agree to 1e-14 of the terms each
    # entry sums (entries of F are differences and may vanish)
    fun = _smooth_rhs(n, seed)
    y = np.random.default_rng(seed + 1).normal(size=n).tolist()
    h = (t + 10**log_h) - t
    y_new, K = _dop853._step(fun, t, y, fun(t, y), h)
    t_nodes, y_nodes = np.array([t, t + h]), np.array([y, y_new]).T
    stages = _dop853._dense_stages(fun, t_nodes, y_nodes, np.array(K).T[None])
    F = _dop853._dense_output(t_nodes, y_nodes, stages)[..., 0]

    ref = DOP853(fun, t, y, t + 10 * h, rtol=1e-2, atol=1e-2, first_step=h)
    ref.step()
    assert ref.h_previous == h            # accepted at the first attempt
    K_ref = ref.K_extended
    state_scale = np.abs(y) + np.abs(ref.y) + h * np.abs(K_ref).max(axis=0)
    assert np.all(np.abs(np.array(y_new) - ref.y) <= 1e-14 * state_scale)
    F_ref = ref.dense_output().F
    assert np.all(np.abs(F[:3] - F_ref[:3]) <= 1e-14 * state_scale)
    assert np.all(np.abs(F[3:] - F_ref[3:]) <= 1e-14 * h * (np.abs(_dop853.D) @ np.abs(K_ref)))


def _generic_stages(fun, t, y, K, h, rows):
    """Evaluate the stages of rows, appending each to its component's column of K."""
    for s in rows:
        stage = fun(t + _dop853.C[s] * h,
                    [v + sum(map(mul, _dop853.A[s], col)) * h for v, col in zip(y, K)])
        for col, k in zip(K, stage):
            col.append(k)


def _generic_solve(fun, t0, t1, y0, rtol, atol):
    """The oracle for _dop853.solve: the same method and step-size control,
    with every stage, update and error sum one sum(map(mul, ...)) over its
    whole tableau row, structural zeros included.  The starting step and the
    dense-output blocks come from _dop853's own _initial_step and
    _dense_output.  Returns the Steps and the number of attempted steps."""
    n = len(y0)
    t, y = float(t0), [float(v) for v in y0]
    f = fun(t, y)
    h_abs = _dop853._initial_step(fun, t, y, f, t1 - t, rtol, atol)
    ts, ys, ks, attempts = [t], list(y), [], 0
    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            K = [[v] for v in f]
            _generic_stages(fun, t, y, K, h, range(1, 12))
            y_new = [v + h * sum(map(mul, _dop853.B, col)) for v, col in zip(y, K)]
            for col, k in zip(K, fun(t + h, y_new)):
                col.append(k)
            attempts += 1
            e5 = e3 = 0.0
            for v, v_new, col in zip(y, y_new, K):
                scale = atol + max(abs(v), abs(v_new)) * rtol
                r5 = sum(map(mul, _dop853.E5, col)) / scale
                r3 = sum(map(mul, _dop853.E3, col)) / scale
                e5 += r5 * r5
                e3 += r3 * r3
            error = 0.0 if e5 == 0 and e3 == 0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error < 1:
                factor = _dop853.MAX_FACTOR if error == 0 else min(
                    _dop853.MAX_FACTOR, _dop853.SAFETY * error ** _dop853.ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_dop853.MIN_FACTOR, _dop853.SAFETY * error ** _dop853.ERROR_EXPONENT)
            rejected = True
        _generic_stages(fun, t, y, K, h, range(13, 16))
        ks.append(K)
        ts.append(t_new)
        ys += y_new
        t, y, f = t_new, y_new, [col[12] for col in K]
    t_nodes, y_nodes = np.array(ts), np.array(ys).reshape(-1, n).T
    F = _dop853._dense_output(t_nodes, y_nodes, np.array(ks))
    return _dop853.Steps(t_nodes, y_nodes, F), attempts


def _counted(fun):
    """fun with a count of its calls in counted.calls."""
    def counted(t, y):
        counted.calls += 1
        return fun(t, y)
    counted.calls = 0
    return counted


def _assert_same_bits_as_the_oracle(fun, t0, t1, y0, rtol, atol):
    got_fun, want_fun = _counted(fun), _counted(fun)
    got = _dop853.solve(got_fun, t0, t1, y0, rtol, atol)
    want, attempts = _generic_solve(want_fun, t0, t1, y0, rtol, atol)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # 2 calls to start, 12 per attempted step, 3 dense-output stages per accepted one
    assert got_fun.calls == want_fun.calls == 2 + 12 * attempts + 3 * (len(want.t) - 1)


def test_package_solves_match_the_generic_oracle_bit_for_bit(params, background, consts,
                                                             solve_calls, monkeypatch):
    # the default background (f, g, N), the tensor mode with its background
    # and the scalar mode with its background, under quantum and classical
    # gravity (W = gpsi = 0), replayed through the oracle
    il.integrate(params)
    il.integrate_tensor(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts, gravity=il.GravityMode.CLASSICAL)
    monkeypatch.undo()
    assert [len(c.y0) for c in solve_calls] == [3, 7, 9, 9]
    for fun, t0, t1, y0, rtol, atol, _ in solve_calls:
        _assert_same_bits_as_the_oracle(fun, t0, t1, y0, rtol, atol)


@settings(max_examples=40)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), t0=st.floats(-5, 5),
       span=st.floats(0.1, 3), log_rtol=st.floats(-12, -3))
def test_smooth_solves_match_the_generic_oracle_bit_for_bit(n, seed, t0, span, log_rtol):
    y0 = np.random.default_rng(seed + 1).normal(size=n).tolist()
    rtol = 10**log_rtol
    _assert_same_bits_as_the_oracle(_smooth_rhs(n, seed), t0, t0 + span, y0, rtol, rtol / 100)


def test_states_of_3_7_and_9_components_match_solve_ivp(params, background, consts,
                                                        solve_calls):
    # every solve the package makes, replayed through solve_ivp: the
    # background (f, g, N), the tensor mode with its background and the
    # scalar mode with its background
    il.integrate(params, t_end=-10e-12)
    il.integrate_tensor(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts)
    assert [len(c.y0) for c in solve_calls] == [3, 7, 9]
    for fun, t0, t1, y0, rtol, atol, steps in solve_calls:
        ref = solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True)
        t = np.linspace(t0, t1, 401)[1:-1]
        got, want = _dop853.evaluate(steps.t, steps.y, steps.F, t), ref.sol(t)
        # every state ends in the background (f, g, n): f and n are held to the
        # bounds of test_dense_output_accuracy_before_end, the mode components
        # to that relative bound of their largest magnitude
        assert np.max(np.abs(got[-3] / want[-3] - 1)) < 5e-12
        assert np.max(np.abs(got[-1] - want[-1])) < 2e-10
        err = np.max(np.abs(got[:-3] - want[:-3]), axis=1)
        assert np.all(err < 5e-12 * np.max(np.abs(want[:-3]), axis=1))


def _time_in(message):
    return float(re.search(r"near t = (\S+):", message).group(1))


def test_nan_right_hand_side_raises_with_its_time(params, monkeypatch):
    rhs = _Coeffs.rhs
    monkeypatch.setattr(_Coeffs, "rhs", lambda self, tau, y:
                        [math.nan] * 3 if tau > -10.0 else rhs(self, tau, y))
    with pytest.raises(IntegrationError) as info:
        il.integrate(params)
    # the failing step starts within one step (below 0.01 scaled) of the NaNs
    assert -10.01e-12 < _time_in(str(info.value)) < -10e-12


def test_nan_from_the_start_raises_without_looping():
    calls = []

    def fun(t, y):
        calls.append(t)
        if len(calls) > 100:
            raise RuntimeError("the stepper keeps calling a NaN right-hand side")
        return [math.nan] * len(y)

    with pytest.raises(_dop853.StepFailure) as info:
        _dop853.solve(fun, 0.0, 1.0, [1.0, 2.0, 3.0], 1e-10, 1e-12)
    assert info.value.t == 0.0


def test_overflowing_right_hand_side_raises_with_its_time(params):
    # float ** raises OverflowError past the float range: the first step that
    # samples the right-hand side beyond t_star fails, at its start
    def decay(t, y):
        return [-v for v in y]

    clean = _dop853.solve(decay, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
    for t_star in (0.0, 0.3, 0.5, 0.9):
        def fun(t, y):
            return decay(t, y) if t <= t_star else [(1e200 * v) ** 2 for v in y]

        with pytest.raises(_dop853.StepFailure, match="overflows") as info:
            _dop853.solve(fun, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
        assert info.value.t == clean.t[np.searchsorted(clean.t, t_star, side="right") - 1]
    # at rtol 0.5 the background's first steps diverge until (f^2 - vbar^2)^2
    # in its right-hand side overflows
    with pytest.raises(IntegrationError, match="overflows"):
        il.integrate(params, rtol=0.5)


def test_a_failing_dense_stage_names_its_step():
    # c14 = 0.2 is no other stage's node, so the right-hand side fails at
    # step j's stage k14 alone; the stages of all steps are evaluated after
    # the step loop, and the failure still names step j, not the first step
    def decay(t, y):
        return [-v for v in y]

    clean = _dop853.solve(decay, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
    j = len(clean.t) // 2
    t_j = clean.t[j].item()
    t_fail = t_j + _dop853.C[14] * (clean.t[j + 1].item() - t_j)

    def overflowing(t, y):
        if t == t_fail:
            raise OverflowError("(1e200 * v) ** 2")
        return decay(t, y)

    with pytest.raises(_dop853.StepFailure, match="overflows") as info:
        _dop853.solve(overflowing, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
    assert info.value.t == t_j > 0.0

    # a NaN stage, or one whose stage sums overflow, travels through the sums
    # as through float sums, without a numpy warning, to the finite check
    for value in (math.nan, 1e308):
        def bad_at(t, y):
            return [value] * len(y) if t == t_fail else decay(t, y)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_dop853.StepFailure, match="dense-output stage is not finite") \
                    as info:
                _dop853.solve(bad_at, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
        assert info.value.t == t_j


def test_starting_step_underflow_raises():
    # |f/scale| squares past the float range, so 0.01 d0/d1 is zero: a
    # named failure at t0, not a division by zero
    with pytest.raises(_dop853.StepFailure, match="starting step") as info:
        _dop853.solve(lambda t, y: [1e200 * v for v in y], 0.0, 1.0, [1.0], 1e-10, 1e-12)
    assert info.value.t == 0.0


def test_nan_in_a_mode_raises_mode_error_with_its_time(background, consts, exit_point,
                                                       monkeypatch):
    rhs = _Coeffs.rhs
    tau_nan = exit_point.t_exit / TIME_UNIT
    monkeypatch.setattr(_Coeffs, "rhs", lambda self, tau, y:
                        [math.nan] * 3 if tau > tau_nan else rhs(self, tau, y))
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ModeError, match="mode solver failed") as info:
            integrate_mode(background, consts.q_R, consts)
        assert exit_point.t_exit - 0.01e-12 < _time_in(str(info.value)) < exit_point.t_exit


def test_rtol_at_the_floor_is_rejected(params):
    for rtol in (_dop853.RTOL_FLOOR, 1e-16, 0.0, math.nan):
        with pytest.raises(ValueError, match="rtol"):
            _dop853.solve(lambda t, y: [-v for v in y], 0.0, 1.0, [1.0], rtol, 1e-12)
    with pytest.raises(ValueError, match="rtol"):
        il.integrate(params, rtol=_dop853.RTOL_FLOOR)
    with pytest.raises(ValueError, match="atol"):
        _dop853.solve(lambda t, y: [-v for v in y], 0.0, 1.0, [1.0], 1e-10, -1.0)


def test_zero_atol_is_rejected(params):
    # every solve has a component that starts at 0 (the e-fold counter), so
    # atol = 0 would divide by a zero error scale in the starting-step rule
    with pytest.raises(ValueError, match="atol must be positive"):
        _dop853.solve(lambda t, y: [-v for v in y], 0.0, 1.0, [0.0, 1.0], 1e-10, 0.0)
    with pytest.raises(ValueError, match="atol must be positive"):
        il.integrate(params, atol=0.0)


_CROSSING_FAMILIES = (
    lambda x, c: x * (1 + c * x * x),
    lambda x, c: math.tanh(c * x) + 0.1 * x**3,
    lambda x, c: math.expm1(c * x),
    lambda x, c: math.atan(x) * (1 + 0.5 * math.sin(c * x)),
)


@settings(max_examples=300)
@given(family=st.integers(0, len(_CROSSING_FAMILIES) - 1), root=st.floats(-3, 3),
       c=st.floats(0.1, 5), left=st.floats(0.01, 4), right=st.floats(0.01, 4),
       unit=st.sampled_from([1e-12, 1.0, 1e3]))
def test_brent_port_returns_scipys_root_bit_for_bit(family, root, c, left, right, unit):
    # every family has the sign of x - root, so the bracket holds one root
    def fn(t):
        return _CROSSING_FAMILIES[family](t / unit - root, c)

    a, b = (root - left) * unit, (root + right) * unit
    assert _brentq(fn, a, b) == brentq(fn, a, b, xtol=CROSSING_XTOL, rtol=CROSSING_RTOL)


def test_brent_port_rejects_nan_and_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda t: math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="same sign"):
        _brentq(lambda t: t + 1.0, 0.0, 1.0)


def test_import_loads_numpy_and_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import json, sys, inflatonlab; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                        capture_output=True, text=True, check=True).stdout)
    assert "numpy" in modules
    assert not [m for m in modules if m.startswith("scipy")]


def test_background_is_freed_by_reference_counting(params):
    # no reference cycle keeps a solution alive until the cycle collector runs
    gc.disable()
    try:
        sol = il.integrate(params)
        ref = weakref.ref(sol)
        del sol
        assert ref() is None
    finally:
        gc.enable()
