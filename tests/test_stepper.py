"""The in-house DOP853 stepper and Brent root finder, with scipy as the
oracle: scipy is a test dependency only, and the package never imports it."""

import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from functools import partial
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
from inflatonlab import _dop853, background, perturbations
from inflatonlab.background import CROSSING_RTOL, CROSSING_XTOL, IntegrationError, _brentq
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


def _smooth_system(n):
    """A nonlinear system of n components c0 ... c<n-1> in t:
    c_i' = 1 / (1 + (t + c_i)^2) + sum_j w<i>_<j> c_j, the w its constants."""
    components = tuple(f"c{i}" for i in range(n))
    constants = tuple(f"w{i}_{j}" for i in range(n) for j in range(n))
    statements = "".join(f"d_c{i} = 1 / (1 + (t + c{i}) * (t + c{i})) + "
                         + " + ".join(f"w{i}_{j} * c{j}" for j in range(n)) + "\n"
                         for i in range(n))
    return components, statements, constants


def _smooth_rhs(n, seed):
    """The Rhs of _smooth_system(n) with random weights of size 1/n, without
    cancellation in its values, so two summation orders of the same stages
    agree to rounding."""
    w = np.random.default_rng(seed).normal(size=(n, n)) / n
    return _dop853.system(*_smooth_system(n))(*w.ravel().tolist())


def _fun(rhs):
    """fun(t, y), the derivatives at one state as a list of floats: one column
    of rhs's array form, as solve starts from."""
    return partial(_dop853.derivatives, rhs.stages)


def _float_form(system, *constants):
    """fun(t, y) of the system's statements run as written on Python floats,
    with math.sqrt and abs: the float arithmetic its step attempt runs at
    each stage, bound to the constants."""
    components, statements, names = system
    code = compile(statements, "<statements>", "exec")

    def fun(t, y):
        scope = {"sqrt": math.sqrt, "abs": abs, "t": t, **dict(zip(names, constants)),
                 **dict(zip(components, y))}
        exec(code, scope)
        return [scope[f"d_{c}"] for c in components]
    return fun


def _decay(n):
    """The Rhs of y' = -y over n components."""
    components = tuple(f"c{i}" for i in range(n))
    return _dop853.system(components, "".join(f"d_{c} = -{c}\n" for c in components), ())()


@settings(max_examples=30)
@given(n=st.sampled_from([3, 7, 9]), seed=st.integers(0, 2**32 - 1),
       t=st.floats(-5, 5), log_h=st.floats(-3, -0.5))
def test_one_step_matches_scipy(n, seed, t, log_h):
    # one step from the same (t, y, f, h) as scipy's DOP853 class: the new
    # state and the dense-output block agree to 1e-14 of the terms each
    # entry sums (entries of F are differences and may vanish)
    rhs = _smooth_rhs(n, seed)
    y = np.random.default_rng(seed + 1).normal(size=n).tolist()
    h = (t + 10**log_h) - t
    fun = _fun(rhs)
    y_new, K, _ = rhs.attempt(t, y, fun(t, y), h, 1e-2, 1e-2)
    t_nodes, y_nodes = np.array([t, t + h]), np.array([y, y_new]).T
    stages = _dop853._dense_stages(rhs.stages, t_nodes, y_nodes, np.array(K).reshape(1, n, 13))
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


def test_attempt_is_compiled_once_per_state_size():
    # each system once, whatever its size: a solve binds its constants to
    # code compiled before it
    for n in (1, 3, 9):
        make = _dop853.system(*_smooth_system(n))
        assert _dop853.system(*_smooth_system(n)) is make
        names = ", ".join(f"c{i}" for i in range(n))
        assert make.__code__.co_filename == f"<_dop853 system {names}>"
    kappa = il.PotentialParams().kappa
    slow, fast = (background._Coeffs.of(il.PotentialParams(kappa=c * kappa))
                  .bind(background.SYSTEM) for c in (0.9, 1.1))
    assert slow.attempt.__code__ is fast.attempt.__code__
    assert _fun(slow)(0.0, [0.1, 0.2, 0.0]) != _fun(fast)(0.0, [0.1, 0.2, 0.0])


def _operand(node):
    """A name's id, or the value of a float literal (a negative one is a unary minus)."""
    if isinstance(node, ast.Name):
        return node.id
    value = ast.literal_eval(node)
    assert type(value) is float, ast.unparse(node)
    return value


def _terms(node):
    """The (left, right) operands of the products of a sum, left to right; the
    sum must nest to the left, so that it adds them in that order."""
    terms = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        terms.append(node.right)
        node = node.left
    terms.append(node)
    for term in terms:
        assert isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult), ast.unparse(term)
    return [(_operand(term.left), _operand(term.right)) for term in reversed(terms)]


def _row(coefficients, i):
    """The nonzero entries of a tableau row with the stages of component i they weight."""
    return [(a, f"k{s}_{i}") for s, a in enumerate(coefficients) if a]


def _stage_input(node, s):
    """The index i of component i's stage input at stage s: y_i + (sum) * h,
    its sum naming the nonzero entries of row A[s] in order, or u_i at k12."""
    if s == 12:
        assert node.id.startswith("u_"), ast.unparse(node)
        return int(node.id[2:])
    assert isinstance(node.op, ast.Add) and node.left.id.startswith("y_"), ast.unparse(node)
    i = int(node.left.id[2:])
    assert isinstance(node.right.op, ast.Mult) and node.right.right.id == "h"
    assert _terms(node.right.left) == _row(_dop853.A[s], i)
    return i


# smooth systems by their state size, and the package's systems
_SYSTEMS = {**{str(n): _smooth_system(n) for n in (1, 3, 9)},
            "background": background.SYSTEM, "scalar": perturbations._SCALAR,
            "tensor": perturbations._TENSOR}


@pytest.mark.parametrize("system", _SYSTEMS)
def test_generated_sums_name_the_nonzero_tableau_entries_in_order(system):
    # the array form runs the statements as written; at stages 1-11
    # and k12 the attempt assigns each component the statements read its
    # stage input, y_i + (sum) * h (u_i at k12), and t its stage time if t is
    # read, runs the statements as written and copies each d_<c> to
    # k<s>_<i>; each update is y_i + h * (sum), each error term
    # (sum) / scale, and each error norm the squares in component order
    components, statements, constants = _SYSTEMS[system]
    n = len(components)
    written = [ast.dump(node) for node in ast.parse(statements).body]
    read = {node.id for node in ast.walk(ast.parse(statements))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attempt, stages = ast.parse(_dop853._system_source(*_SYSTEMS[system])).body[0].body[:2]
    unpacked = stages.body[-2].body[1:]     # in the with block, after unpacking Y
    assert [ast.dump(node) for node in unpacked[:len(written)]] == written
    nodes, at, values = attempt.body[2:], 0, {}
    for s in range(1, 13):
        if s == 12:     # the update and the error norm come before k12
            for node in nodes[at:at + 4 * n + 4]:
                target = node.targets[0]
                values[target.id] = node.value
            at += 4 * n + 4
        formed = []     # stage inputs, formed only for the components the statements read
        while getattr(nodes[at].targets[0], "id", None) in components:
            i = _stage_input(nodes[at].value, s)
            assert nodes[at].targets[0].id == components[i]
            formed.append(components[i])
            at += 1
        assert formed == [c for c in components if c in read]
        if "t" in read:
            time = nodes[at]
            assert time.targets[0].id == "t" and time.value.left.id == "t_n"
            if s == 12:
                assert time.value.right.id == "h"
            else:
                assert _terms(time.value.right) == [(_dop853.C[s], "h")]
            at += 1
        assert [ast.dump(node) for node in nodes[at:at + len(written)]] == written
        at += len(written)
        assert [(node.targets[0].id, node.value.id) for node in nodes[at:at + n]] \
            == [(f"k{s}_{i}", f"d_{c}") for i, c in enumerate(components)]
        at += n
    assert at == len(nodes) - 1 and isinstance(nodes[at], ast.Return)
    for i in range(n):
        update = values[f"u_{i}"]
        assert (update.left.id, update.right.left.id) == (f"y_{i}", "h")
        assert _terms(update.right.right) == _row(_dop853.B, i)
        assert _terms(values[f"r5_{i}"].left) == _row(_dop853.E5, i)
        assert _terms(values[f"r3_{i}"].left) == _row(_dop853.E3, i)
    for e, r in (("e5", "r5"), ("e3", "r3")):
        assert _terms(values[e]) == [(f"{r}_{i}", f"{r}_{i}") for i in range(n)]
    calls = {node.func.id for node in ast.walk(attempt) if isinstance(node, ast.Call)}
    assert calls <= {"sqrt", "abs", "max"}
    if system == "background":      # N is never read, so no N stage input is formed
        assert "N" not in read


@pytest.mark.parametrize("statements, constants, message", [
    ("d_a = b", ("w",), "leave d_b unassigned"),
    ("h = w * a\nd_a = h\nd_b = a", ("w",), "assign 'h', a name the generated code uses"),
    ("k3_0 = a\nd_a = b\nd_b = a", ("w",), "assign 'k3_0'"),
    ("error = a\nd_a = b\nd_b = a", ("w",), "assign 'error'"),
    ("a = w\nd_a = b\nd_b = a", ("w",), "assign 'a'"),
    ("d_a = c\nd_b = a\nc = w", ("w",), "read 'c' before assigning it"),
    ("d_a = b\nd_b = a\nd_b += w", ("w",), "must be an assignment"),
    ("d_a = b\nd_b = h * a", ("h",), "the constant 'h'"),
    ("d_a = b\nd_b = a ** 2", ("w",), r"write a \*\* b as products: 'd_b = a \*\* 2'"),
    ("d_a = b\nd_b = max(a, w)", ("w",), "call only sqrt, abs, each on one argument: 'd_b = max"),
    ("d_a = b\nd_b = w(a)", ("w",), "call only sqrt, abs, each on one argument: 'd_b = w"),
    ("d_a = b\nd_b = sqrt(a, w)", ("w",), "call only sqrt, abs, each on one argument: 'd_b = s"),
    ("d_a = -a if t < 0.5 else -2 * a\nd_b = a", (), "not a conditional expression: 'd_a = "),
    ("d_a = b\nd_b = (a < w) * a", ("w",), "not a comparison: 'd_b = "),
    ("d_a = b\nd_b = a and w", ("w",), "not and/or: 'd_b = a and w'"),
    ("d_a = b\nd_b = a % w", ("w",), "only \\+, -, \\*, /, unary minus, sqrt and abs, not a Mod"),
])
def test_malformed_systems_are_named(statements, constants, message):
    with pytest.raises(ValueError, match=message):
        _dop853.system(("a", "b"), statements, constants)


@pytest.mark.parametrize("name", ["h", "y_0", "k3_0", "u_1", "t_n", "f_n", "scale", "np_sqrt",
                                  "out"])
def test_a_component_the_generated_code_binds_is_named(name):
    # components are assigned their stage inputs, so one may not take a name
    # the attempt or the array form binds or reads
    with pytest.raises(ValueError, match=f"the component {name!r} is a name the generated"):
        _dop853.system((name, "b"), f"d_{name} = b\nd_b = {name}", ())


def _magnitudes(low, high):
    """Zero and floats of both signs with decimal exponents from low to high."""
    def value(sign, mantissa, exponent):
        return sign * mantissa * 10.0**exponent
    return st.one_of(st.just(0.0), st.builds(value, st.sampled_from([-1.0, 1.0]),
                                             st.floats(1, 10, exclude_max=True),
                                             st.integers(low, high)))


@settings(max_examples=200)
@given(system=st.sampled_from(["background", "scalar", "tensor"]), data=st.data(),
       constants=st.lists(_magnitudes(-30, 30), min_size=3, max_size=3))
def test_array_form_is_the_scalar_form_bit_for_bit(system, data, constants):
    # states spanning many magnitudes and signs, with fields whose products
    # run to inf and NaN: at each state the array form returns the bytes of
    # the statements run on floats, as the step attempt runs them
    components, _, names = _SYSTEMS[system]
    coeffs = background._Coeffs.of(il.PotentialParams())
    extra = constants[:len(names) - len(coeffs)]
    rhs = coeffs.bind(_SYSTEMS[system], *extra)
    fun = _float_form(_SYSTEMS[system], *coeffs, *extra)
    state = st.tuples(_magnitudes(-30, 30),
                      *[_magnitudes(-300, 300)] * (len(components) - 1), _magnitudes(-300, 3))
    t, *y = zip(*data.draw(st.lists(state, min_size=1, max_size=20)))
    want = [fun(*sample) for sample in zip(t, zip(*y))]
    got = rhs.stages(np.array(t), np.array(y))
    assert got.T.tobytes() == np.array(want).tobytes()


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
    def counted(*args):
        counted.calls += 1
        return fun(*args)
    counted.calls = 0
    return counted


def _assert_same_bits_as_the_oracle(rhs, t0, t1, y0, rtol, atol):
    got_attempt, got_stages = map(_counted, rhs)
    want_fun = _counted(_fun(rhs))
    got = _dop853.solve(_dop853.Rhs(got_attempt, got_stages), t0, t1, y0, rtol, atol)
    want, attempts = _generic_solve(want_fun, t0, t1, y0, rtol, atol)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # the same attempts; the array form is called on one state twice to
    # start and once for each of the 3 dense-output stages of all accepted
    # steps, where the oracle calls fun for those stages of each accepted
    # step and for the 12 stages of each attempt
    assert got_attempt.calls == attempts
    assert got_stages.calls == 2 + 3
    assert want_fun.calls == 2 + 3 * (len(want.t) - 1) + 12 * attempts


def test_package_solves_match_the_generic_oracle_bit_for_bit(params, background, consts,
                                                             solve_calls, monkeypatch):
    # the default background (f, g, N), the tensor mode with Qv and its
    # background and the scalar mode with Qv and its background, under
    # quantum and classical gravity (W = gpsi = 0), replayed through the oracle
    il.integrate(params)
    il.integrate_tensor(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts, gravity=il.GravityMode.CLASSICAL)
    monkeypatch.undo()
    assert [len(c.y0) for c in solve_calls] == [3, 8, 10, 10]
    for rhs, t0, t1, y0, rtol, atol, _ in solve_calls:
        _assert_same_bits_as_the_oracle(rhs, t0, t1, y0, rtol, atol)


@settings(max_examples=40)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), t0=st.floats(-5, 5),
       span=st.floats(0.1, 3), log_rtol=st.floats(-12, -3))
def test_smooth_solves_match_the_generic_oracle_bit_for_bit(n, seed, t0, span, log_rtol):
    y0 = np.random.default_rng(seed + 1).normal(size=n).tolist()
    rtol = 10**log_rtol
    _assert_same_bits_as_the_oracle(_smooth_rhs(n, seed), t0, t0 + span, y0, rtol, rtol / 100)


def test_states_of_3_8_and_10_components_match_solve_ivp(params, background, consts,
                                                         solve_calls):
    # every solve the package makes, replayed through solve_ivp: the
    # background (f, g, N), the tensor mode with Qv and its background and
    # the scalar mode with Qv and its background
    il.integrate(params, t_end=-10e-12)
    il.integrate_tensor(background, consts.q_R, consts)
    il.integrate_scalar(background, consts.q_R, consts)
    assert [len(c.y0) for c in solve_calls] == [3, 8, 10]
    for rhs, t0, t1, y0, rtol, atol, steps in solve_calls:
        ref = solve_ivp(_fun(rhs), (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True)
        t = np.linspace(t0, t1, 401)[1:-1]
        got, want = _dop853.evaluate(steps.t, steps.y, steps.F, t), ref.sol(t)
        # every state ends in the background (f, g, n): f and n are held to the
        # bounds of test_dense_output_accuracy_before_end, the mode components
        # and Qv to that relative bound of their largest magnitude
        assert np.max(np.abs(got[-3] / want[-3] - 1)) < 5e-12
        assert np.max(np.abs(got[-1] - want[-1])) < 2e-10
        err = np.max(np.abs(got[:-3] - want[:-3]), axis=1)
        assert np.all(err < 5e-12 * np.max(np.abs(want[:-3]), axis=1))


def test_a_y0_of_the_wrong_length_is_rejected_before_any_step():
    # the first array-form call unpacks y0 into the system's components; the
    # package's own solves pass
    # (test_package_solves_match_the_generic_oracle_bit_for_bit)
    rhs = _decay(3)
    for y0 in ([], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        attempt = _counted(rhs.attempt)
        with pytest.raises(ValueError, match="values to unpack"):
            _dop853.solve(rhs._replace(attempt=attempt), 0.0, 1.0, y0, 1e-10, 1e-12)
        assert attempt.calls == 0


def _time_in(message):
    return float(re.search(r"near t = (\S+):", message).group(1))


def _nan_after(tau, monkeypatch):
    """Every system compiled from now on ends with statements that turn the
    derivative of its last component into NaN at times above tau: late is
    exactly 0.0 up to tau and positive after it, where big overflows to inf
    and d + big - big is NaN."""
    system = _dop853.system

    def with_nan(components, statements, constants):
        d = f"d_{components[-1]}"
        return system(components, f"{statements}late = t - {tau!r} + abs(t - {tau!r})\n"
                      f"big = 1e308 * (1e308 * late)\n{d} = {d} + big - big\n", constants)

    monkeypatch.setattr(_dop853, "system", with_nan)


def test_nan_right_hand_side_raises_with_its_time(params, monkeypatch):
    _nan_after(-10.0, monkeypatch)
    with pytest.raises(IntegrationError) as info:
        il.integrate(params)
    # the failing step starts within one step (below 0.01 scaled) of the NaNs
    assert -10.01e-12 < _time_in(str(info.value)) < -10e-12


def test_nan_from_the_start_raises_without_looping():
    rhs = _dop853.system(("a", "b", "c"), "d_a = nan\nd_b = nan\nd_c = nan\n", ("nan",))(math.nan)
    attempt, stages = map(_counted, rhs)
    with pytest.raises(_dop853.StepFailure) as info:
        _dop853.solve(_dop853.Rhs(attempt, stages), 0.0, 1.0, [1.0, 2.0, 3.0], 1e-10, 1e-12)
    assert info.value.t == 0.0 and "not finite" in str(info.value)
    assert stages.calls + attempt.calls <= 100


# y' = -y up to t_star, where late is exactly 0.0; past it, late is
# 2 (t - t_star) > 0 and the square of big = 1e300 * late overflows
_OVERFLOWING_PAST = (("a", "b"), """\
late = t - t_star + abs(t - t_star)
big = 1e300 * late
d_a = big * big - a
d_b = big * big - b
""", ("t_star",))


def test_overflowing_right_hand_side_raises_with_its_time(params):
    # a float product past the range is an inf, which makes the step's
    # error NaN: the first step that samples the right-hand side beyond
    # t_star fails as not finite, at its start
    clean = _dop853.solve(_decay(2), 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
    make = _dop853.system(*_OVERFLOWING_PAST)
    for t_star in (0.0, 0.3, 0.5, 0.9):
        with pytest.raises(_dop853.StepFailure, match="not finite") as info:
            _dop853.solve(make(t_star), 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
        assert info.value.t == clean.t[np.searchsorted(clean.t, t_star, side="right") - 1]
    # at rtol 0.5 the background's first steps diverge until (f^2 - vbar^2)^2
    # in its right-hand side overflows to inf
    with pytest.raises(IntegrationError, match="not finite"):
        il.integrate(params, rtol=0.5)


# two systems that agree with a clean one, bit for bit, up to tau = 0.5 and
# past it ask float arithmetic for the square root of a negative number or a
# division by zero, where the array form gives NaN
_UNDEFINED_PAST = (("d_a = sqrt(tau - t)\n", "d_a = sqrt(abs(tau - t))\n"),
                   ("x = tau - t + abs(tau - t)\nd_a = -a + 0 * (1 / x)\n", "d_a = -a\n"))


@pytest.mark.parametrize("statements, clean", _UNDEFINED_PAST)
def test_a_step_attempt_float_arithmetic_cannot_finish_raises_with_its_time(statements, clean):
    # not a bare ValueError or ZeroDivisionError from the step attempt: a
    # StepFailure at the start of the first step that samples t > tau, which
    # the clean solve reaches too (a rejected attempt may cross tau first)
    tau = 0.5
    rhs = _dop853.system(("a",), statements, ("tau",))(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(rhs.stages(np.array([0.75]), np.array([[1.0]]))[0, 0])
    with pytest.raises(_dop853.StepFailure, match="not finite") as info:
        _dop853.solve(rhs, 0.0, 1.0, [1.0], 1e-10, 1e-12)
    nodes = _dop853.solve(_dop853.system(("a",), clean, ("tau",))(tau), 0.0, 1.0, [1.0],
                          1e-10, 1e-12).t
    assert info.value.t in nodes[nodes < tau][-2:]


def test_a_failing_dense_stage_names_its_step():
    # c14 = 0.2 is no other stage's node, so the array form, made to fail at
    # t_fail, fails at step j's stage k14 alone; the stages of all steps are
    # evaluated after the step loop, and the failure still names step j, not
    # the first step.  A NaN stage, or one whose stage sums overflow, travels
    # through the sums as through float sums, without a numpy warning, to
    # the finite check
    decay = _decay(2)
    clean = _dop853.solve(decay, 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
    j = len(clean.t) // 2
    t_j = clean.t[j].item()
    assert t_j > 0.0
    t_fail = t_j + _dop853.C[14] * (clean.t[j + 1].item() - t_j)
    for value in (math.nan, 1e308):
        def bad_at(t, Y):
            out = decay.stages(t, Y)
            out[:, t == t_fail] = value
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(_dop853.StepFailure, match="dense-output stage is not finite") \
                    as info:
                _dop853.solve(decay._replace(stages=bad_at), 0.0, 1.0, [1.0, 2.0], 1e-10, 1e-12)
        assert info.value.t == t_j


def test_starting_step_underflow_raises():
    # |f/scale| squares past the float range, so 0.01 d0/d1 is zero: a
    # named failure at t0, not a division by zero
    rhs = _dop853.system(("a",), "d_a = 1e200 * a\n", ())()
    with pytest.raises(_dop853.StepFailure, match="starting step") as info:
        _dop853.solve(rhs, 0.0, 1.0, [1.0], 1e-10, 1e-12)
    assert info.value.t == 0.0


def test_nan_in_a_mode_raises_mode_error_with_its_time(background, consts, exit_point,
                                                       monkeypatch):
    _nan_after(exit_point.t_exit / TIME_UNIT, monkeypatch)
    for integrate_mode in (il.integrate_scalar, il.integrate_tensor):
        with pytest.raises(ModeError, match="mode solver failed") as info:
            integrate_mode(background, consts.q_R, consts)
        assert exit_point.t_exit - 0.01e-12 < _time_in(str(info.value)) < exit_point.t_exit


def test_rtol_at_the_floor_is_rejected(params):
    for rtol in (_dop853.RTOL_FLOOR, 1e-16, 0.0, math.nan):
        with pytest.raises(ValueError, match="rtol"):
            _dop853.solve(_decay(1), 0.0, 1.0, [1.0], rtol, 1e-12)
    with pytest.raises(ValueError, match="rtol"):
        il.integrate(params, rtol=_dop853.RTOL_FLOOR)
    with pytest.raises(ValueError, match="atol"):
        _dop853.solve(_decay(1), 0.0, 1.0, [1.0], 1e-10, -1.0)


@pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0), (1.0, 1.0), (1.0, 0.0),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_an_interval_it_cannot_integrate_is_rejected(t0, t1):
    # named before the system runs, not as a one-node solve (NaN), an underflowing
    # starting step (t1 <= t0) or a spent step budget (t1 = inf)
    rhs = _decay(1)
    attempt, stages = map(_counted, rhs)
    with pytest.raises(ValueError, match="finite ends t0 < t1"):
        _dop853.solve(_dop853.Rhs(attempt, stages), t0, t1, [1.0], 1e-10, 1e-12)
    assert attempt.calls == stages.calls == 0


def test_zero_atol_is_rejected(params):
    # every solve has a component that starts at 0 (the e-fold counter), so
    # atol = 0 would divide by a zero error scale in the starting-step rule
    with pytest.raises(ValueError, match="atol must be positive"):
        _dop853.solve(_decay(2), 0.0, 1.0, [0.0, 1.0], 1e-10, 0.0)
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


def _fresh_python(code):
    """What code prints in a new interpreter that imports the package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_numpy_and_no_scipy():
    code = "import json, sys, inflatonlab; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(_fresh_python(code))
    assert "numpy" in modules
    assert not [m for m in modules if m.startswith("scipy")]


def test_import_compiles_no_system():
    # a system takes milliseconds to generate and compile, which the first
    # solve pays; the import, whose time every CLI call pays, compiles none
    code = ("import inflatonlab.cli; from inflatonlab import _dop853; "
            "print(_dop853.system.cache_info().currsize)")
    assert _fresh_python(code) == "0\n"


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
