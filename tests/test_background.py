import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import inflatonlab as il
from inflatonlab import _dop853
from inflatonlab.background import (MAX_MIDPOINT_RESIDUAL, SYSTEM, EndOfInflationNotFound,
                                    IntegrationError, classify_bigbang)
from inflatonlab.cache import load_background, save_background
from inflatonlab.config import ScanConfig
from inflatonlab.constants import FIELD_UNIT, G_NEWTON, TIME_UNIT
from inflatonlab.potential import potential


def test_initial_state_matches_asymptotic_form(params, derived):
    st = il.initial_state(params, -25e-12)
    assert st.phi == pytest.approx(derived.v * math.exp(derived.alpha * -25e-12), rel=1e-14)
    # reference row at t = -25: phi = 2.66e19 within 5%
    assert st.phi == pytest.approx(2.66e19, rel=0.05)
    # construction: phidot/phi = alpha to 1e-12
    assert st.phidot / st.phi == pytest.approx(derived.alpha, rel=1e-12)


def test_initial_state_approaches_limits_far_in_past(params, derived):
    st = il.initial_state(params, -60e-12)
    assert st.phi / derived.v < 1e-2
    assert st.H == pytest.approx(derived.hbar_inf, rel=1e-4)


def test_initial_state_rejects_late_start(params):
    with pytest.raises(ValueError, match="start earlier"):
        il.initial_state(params, -15e-12)


def test_integrate_rejects_bad_span(params):
    with pytest.raises(ValueError):
        il.integrate(params, t_start=-25e-12, t_end=-30e-12)
    # NaN compares false both ways, so it must not slip past the span check
    for span in ({"t_end": math.nan}, {"t_start": math.nan}):
        with pytest.raises(ValueError, match="t_end must exceed t_start"):
            il.integrate(il.PotentialParams(), **span)


def test_golden_midrange_row(background):
    # reference row t = -9e-12: phi = 11.19e19 and H = 2.07e14, both to 3%
    assert background.phi(-9e-12) == pytest.approx(11.19e19, rel=0.03)
    assert background.hubble(-9e-12) == pytest.approx(2.07e14, rel=0.03)


def test_field_relaxes_to_minimum_with_damped_oscillations(background, derived):
    # late times: phi -> v, H -> near zero, oscillation envelope shrinking
    t_late = np.linspace(1e-12, 15e-12, 400)
    phi = background.phi(t_late)
    assert abs(phi[-1] / derived.v - 1) < 1e-2
    dev = np.abs(phi - derived.v)
    # successive oscillation peaks decay
    peaks = [dev[i] for i in range(1, len(dev) - 1)
             if dev[i] >= dev[i - 1] and dev[i] >= dev[i + 1]]
    assert len(peaks) >= 3
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    H = background.hubble(t_late)
    assert np.all(np.diff(H) <= 1e-20)            # H monotone nonincreasing
    assert H[-1] < 1e-3 * background.hubble(-25e-12)


def test_friedmann_constraint_residual(background, params):
    # H is algebraic in (phi, phidot); verify against an independent
    # recomputation through the public accessors at every node
    t = background.grid_times
    H = background.hubble(t)
    rho = 0.5 * background.phidot(t) ** 2 + potential(params, background.phi(t))
    resid = np.abs(H**2 - 8 * np.pi * params.G / 3 * rho) / H**2
    assert resid.max() < 1e-8


def test_hubble_rate_identity_vs_finite_differences(background, params):
    # dH/dt = -4 pi G phidot^2 throughout the inflationary phase
    t = np.linspace(-24e-12, -0.5e-12, 300)
    h = 1e-4 * 1e-12
    fd = (background.hubble(t + h) - background.hubble(t - h)) / (2 * h)
    exact = -4 * np.pi * params.G * background.phidot(t) ** 2
    assert np.max(np.abs(fd - exact) / np.abs(exact)) < 1e-6


def test_interpolation_reproduces_grid_nodes(background):
    t = background.grid_times[100:2000:97]
    f_direct = background.y[0, 100:2000:97] * FIELD_UNIT
    assert np.allclose(background.phi(t), f_direct, rtol=1e-14)


def test_grid_strictly_increasing_and_N_nondecreasing(background):
    assert np.all(np.diff(background.tau) > 0)
    assert np.all(np.diff(background.y[2]) >= 0)


def test_efold_additivity(background):
    t1, t2, t3 = -20e-12, -7e-12, -1e-12
    n12 = background.efolds_from_start(t2) - background.efolds_from_start(t1)
    n23 = background.efolds_from_start(t3) - background.efolds_from_start(t2)
    n13 = background.efolds_from_start(t3) - background.efolds_from_start(t1)
    assert abs((n12 + n23) - n13) < 1e-8


def test_efolds_to_end_contract(background):
    t_I = background.end_of_inflation()
    assert background.efolds_to_end(t_I) == pytest.approx(0.0, abs=1e-10)
    # monotone decreasing toward the end of inflation
    ts = np.linspace(-20e-12, t_I, 50)
    ef = background.efolds_to_end(ts)
    assert np.all(np.diff(ef) < 0)
    with pytest.raises(ValueError):
        background.efolds_to_end(-40e-12)


def test_end_of_inflation_is_first_field_crossing(background, derived):
    t_I = background.end_of_inflation()
    assert background.phi(t_I) == pytest.approx(derived.v, rel=1e-10)
    # monotone growth before the first crossing
    ts = np.linspace(-24e-12, t_I - 1e-15, 300)
    assert np.all(background.phi(ts) < derived.v)
    # with c = v the pure-exponential track crosses the minimum at exactly
    # t = 0; the slow-roll corrections delay that by a fraction of a unit
    assert 0.0 < t_I < 0.5e-12


def test_end_criterion_epsilon_unity(background):
    # cross-check of the phi = v end against the slow-roll end epsilon = 1;
    # the search stops just short of t_I, where V, epsilon's denominator,
    # vanishes
    t_I = background.end_of_inflation()

    # slow_roll_functions takes one field value; first_crossing passes arrays
    epsilon = np.vectorize(lambda phi: il.slow_roll_functions(background.params, phi)[0])

    def eps_minus_one(t):
        return epsilon(background.phi(t)) - 1.0

    t_eps = background.first_crossing(eps_minus_one, background.t_start, t_I - 0.01e-12)
    # shape functions hit unity shortly before the field reaches the minimum
    assert t_eps < t_I
    eps, _ = il.slow_roll_functions(background.params, background.phi(t_eps))
    assert eps == pytest.approx(1.0, rel=1e-6)


def test_end_of_inflation_not_found(params):
    sol = il.integrate(params, t_start=-25e-12, t_end=-10e-12)
    assert sol.t_I is None
    with pytest.raises(EndOfInflationNotFound):
        sol.end_of_inflation()


def test_solution_is_finished_when_built(background, consts, tmp_path, monkeypatch):
    # built without t_I, the solution finds it (and the e-fold count there) at
    # construction, so no query searches again: with the search broken, the
    # end of inflation, the e-folds left and the exit mismatch still answer,
    # on the built solution and on one read back from the cache
    sol = il.BackgroundSolution(params=background.params, t_start=background.t_start,
                                t_end=background.t_end, rtol=background.rtol,
                                atol=background.atol, tau=background.tau, y=background.y,
                                coef=background.coef)
    assert sol.t_I == background.t_I

    def no_search(*args):
        raise AssertionError("a query searched for the end of inflation")

    monkeypatch.setattr(il.BackgroundSolution, "first_crossing", no_search)
    save_background(sol, tmp_path)
    loaded = load_background(sol.params, sol.t_start, sol.t_end, sol.rtol, sol.atol, tmp_path)
    t = np.linspace(-20e-12, background.t_I, 7)
    for s in (sol, loaded):
        assert s.end_of_inflation() == background.t_I
        assert np.array_equal(s.efolds_to_end(t), background.efolds_to_end(t))
        assert np.array_equal(s.log_q_over_aH(consts.q_R_over_aI, t),
                              background.log_q_over_aH(consts.q_R_over_aI, t))


def test_midpoint_residual_check_rejects_a_blind_solve():
    # lambda = 1e-10 starts the field at 3.1e-61 GeV, 1e-80 in scaled units:
    # far below atol, so the steps never resolve it and the dense output's
    # slope of f misses g by order one
    with pytest.raises(IntegrationError, match=r"dense-output residual 9\.96e-01 exceeds 1e-06"):
        il.integrate(il.PotentialParams(lam=1e-10))


def test_step_budget_stops_an_over_long_solve(params, monkeypatch):
    # the default background takes about 3,000 steps: on a budget of 1,000
    # the solve stops by name, long before it would finish
    monkeypatch.setattr(_dop853, "MAX_STEPS", 1000)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="step budget MAX_STEPS = 1000 attempts is spent"):
        il.integrate(params)
    assert time.perf_counter() - start < 1.0


def test_step_budget_binds_nowhere_in_the_scan_box(monkeypatch):
    # the box's costliest corner, 1.2 kappa and 0.8 lambda (4,673 step
    # attempts, 4,467 of them accepted), solves on half the budget
    box = ScanConfig()
    monkeypatch.setattr(_dop853, "MAX_STEPS", _dop853.MAX_STEPS // 2)
    sol = il.integrate(il.PotentialParams(kappa=box.kappa_max, lam=box.lambda_min))
    assert sol.t_I is not None


def test_midpoint_residual_check_rejects_a_misread_coefficient_layout(params, monkeypatch):
    # the f and g rows of every dense-output block swapped: the nodes are
    # right, the polynomials between them are not
    solve = _dop853.solve

    def swapped(*args):
        steps = solve(*args)
        return steps._replace(F=steps.F[:, [1, 0, 2]])

    monkeypatch.setattr(_dop853, "solve", swapped)
    with pytest.raises(IntegrationError, match=r"dense-output residual (\S+) exceeds") as info:
        il.integrate(params)
    # the residual follows the trajectory's last bits (6.0 or 1.24 have been
    # seen), but it stays orders of magnitude above the bound
    residual = float(re.search(r"residual (\S+) exceeds", str(info.value)).group(1))
    assert residual >= 1e5 * MAX_MIDPOINT_RESIDUAL


def test_late_end_time_insensitivity(background):
    # the expansion rate has collapsed after the crossing: the e-fold budget
    # between 3e-12 and 5e-12 is below half an e-fold
    n = background.efolds_from_start(5e-12) - background.efolds_from_start(3e-12)
    assert 0 < n < 0.5


def test_start_time_robustness(params):
    # moving the start from -25 to -30 (x1e-12) changes the mid-range track
    # by far less than 0.1%: the start choice only fixes the time origin
    sol30 = il.integrate(params, t_start=-30e-12, t_end=-10e-12)
    sol25 = il.integrate(params, t_start=-25e-12, t_end=-10e-12)
    for t in (-20e-12, -15e-12, -11e-12):
        assert sol30.phi(t) == pytest.approx(sol25.phi(t), rel=1e-3)
        assert sol30.hubble(t) == pytest.approx(sol25.hubble(t), rel=1e-3)


_BOX = ScanConfig()


def _scaled_background(kin, v4, vbar2, k1, k2, efold):
    """The scaled background equations, written as in the background module's
    docstring: H = sqrt(kin g^2 + v4 (f^2 - vbar2)^2), f' = g,
    g' = -3 (efold H) g + k1 f - k2 f^3 and N' = efold H."""
    def rhs(tau, y):
        f, g = y[0], y[1]
        H = math.sqrt(kin * g * g + v4 * (f * f - vbar2) ** 2)
        return [g, -3 * efold * H * g + k1 * f - k2 * f**3, efold * H]
    return rhs


def test_stored_dense_output_matches_solver(background):
    # pins the method against scipy's DOP853 over whole solves, at the default
    # point and at two corners of the scan box.  The stage sums add in another
    # order than scipy's BLAS calls, which moves step sizes at rounding level,
    # so the step sequences agree in count, not bitwise; the solutions agree
    # to the bounds of test_dense_output_accuracy_before_end.  The stored
    # dense output reproduces every node but the last exactly.
    corners = [il.integrate(il.PotentialParams(kappa=k, lam=lam))
               for k, lam in ((_BOX.kappa_min, _BOX.lambda_max),
                              (_BOX.kappa_max, _BOX.lambda_min))]
    for sol in (background, *corners):
        assert np.array_equal(sol._state(sol.tau[:-1]), sol.y[:, :-1])
        np.testing.assert_allclose(sol._state(sol.tau[-1]), sol.y[:, -1], rtol=1e-15, atol=0)
        ini = il.initial_state(sol.params, sol.t_start)
        y0 = [ini.phi / FIELD_UNIT, ini.phidot * TIME_UNIT / FIELD_UNIT, 0.0]
        ref = solve_ivp(_scaled_background(*sol._coeffs),
                        (sol.t_start / TIME_UNIT, sol.t_end / TIME_UNIT), y0,
                        method="DOP853", rtol=sol.rtol, atol=sol.atol, dense_output=True)
        assert abs(len(sol.tau) - len(ref.t)) <= 0.01 * len(ref.t)
        tau = np.linspace(sol.tau[0], sol.tau[-1], 2001)[1:-1]       # off-node
        f, _, N = sol._state(tau)
        f_ref, _, N_ref = ref.sol(tau)
        assert np.max(np.abs(f / f_ref - 1)) < 5e-12
        assert np.max(np.abs(N - N_ref)) < 2e-10


def test_hubble_is_the_steppers_bit_for_bit(background):
    # _Coeffs.hubble writes EQUATIONS's H in its operation order, so at every
    # node of the default background and of the four corners of the scan box
    # efold * H is the background system's d_N, bit for bit
    corners = [il.integrate(il.PotentialParams(kappa=kappa, lam=lam))
               for kappa in (_BOX.kappa_min, _BOX.kappa_max)
               for lam in (_BOX.lambda_min, _BOX.lambda_max)]
    for sol in (background, *corners):
        coeffs = sol._coeffs
        d_N = coeffs.bind(SYSTEM).stages(sol.tau, sol.y)[2]
        assert (coeffs.efold * coeffs.hubble(sol.y[0], sol.y[1])).tobytes() == d_N.tobytes()


def test_dense_output_accuracy_before_end(background, params):
    # an independent solve in its own variables at rtol 1e-13: phi in units
    # of 1e19 GeV, time in 1e-12 GeV^-1, H = sqrt(8 pi G rho / 3)
    T0, F0 = 1e-12, 1e19

    def rhs(s, y):
        phi, phidot = F0 * y[0], F0 * y[1] / T0
        H = math.sqrt(8 * math.pi * params.G / 3
                      * (0.5 * phidot**2 + potential(params, phi)))
        phiddot = -3 * H * phidot - il.potential_d1(params, phi)
        return [y[1], phiddot * T0**2 / F0, H * T0]

    ini = il.initial_state(params, background.t_start)
    ref = solve_ivp(rhs, (background.t_start / T0, background.t_end / T0),
                    [ini.phi / F0, ini.phidot * T0 / F0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    # off-node times up to t_I, where the steps are shortest
    t = np.linspace(background.t_start, background.end_of_inflation(), 2001)[1:-1]
    phi_ref, _, N_ref = ref.sol(t / T0)
    assert np.max(np.abs(background.phi(t) / (F0 * phi_ref) - 1)) < 5e-12
    assert np.max(np.abs(background.efolds_from_start(t) - N_ref)) < 2e-10



@settings(max_examples=6)
@given(kappa=st.floats(_BOX.kappa_min, _BOX.kappa_max),
       lam=st.floats(_BOX.lambda_min, _BOX.lambda_max))
def test_background_invariants_across_scan_box(kappa, lam):
    # integrate runs its midpoint-residual check and would raise on failure
    sol = il.integrate(il.PotentialParams(kappa=kappa, lam=lam))
    # N never decreases, at the nodes and between them
    mid = 0.5 * (sol.grid_times[1:] + sol.grid_times[:-1])
    t = np.sort(np.concatenate([sol.grid_times, mid]))
    assert np.all(np.diff(sol.efolds_from_start(t)) >= 0)
    assert sol.t_I is not None
    assert sol.phi(sol.t_I) == pytest.approx(sol.derived.v, rel=1e-10)


def test_serialization_round_trip(background):
    sol2 = il.BackgroundSolution.from_arrays(background.to_arrays())
    t = np.linspace(-24e-12, 14e-12, 40)
    assert np.allclose(sol2.phi(t), background.phi(t), rtol=0, atol=0)
    assert np.allclose(sol2.hubble(t), background.hubble(t), rtol=0, atol=0)
    assert sol2.end_of_inflation() == pytest.approx(background.end_of_inflation(),
                                                    rel=1e-12)


def test_classify_bigbang_flat_curvature():
    assert classify_bigbang(0.0, 1e60) == -math.inf


def test_classify_bigbang_positive_curvature():
    assert classify_bigbang(+1.0, 1e60) is None


def test_classify_bigbang_negative_curvature():
    # closed form t = ln(-K/(4 H^2))/(2H), checked against a numeric
    # root of the two-branch scale factor
    rho = 3 / (8 * math.pi * G_NEWTON)        # makes H = 1 GeV
    t_bb = classify_bigbang(-1.0, rho)
    H = 1.0
    assert t_bb == pytest.approx(math.log(1.0 / (4 * H**2)) / (2 * H), rel=1e-12)

    def a(t):
        return math.exp(H * t) + (-1.0 / (4 * H**2)) * math.exp(-H * t)

    assert a(t_bb) == pytest.approx(0.0, abs=1e-12)
    assert a(t_bb + 1e-3) > 0

    with pytest.raises(ValueError):
        classify_bigbang(0.0, -1.0)


@settings(max_examples=400)
@given(K=st.floats(), rho_bar=st.floats())
@example(K=-1.0, rho_bar=math.nan)
@example(K=math.nan, rho_bar=1e60)
@example(K=-math.inf, rho_bar=1e60)
@example(K=-1.0, rho_bar=math.inf)
@example(K=-1e300, rho_bar=1e-300)       # H^2 underflows to zero
@example(K=-5e-324, rho_bar=1e300)       # -K / (4 H^2) underflows to zero
@example(K=-1e10, rho_bar=1e-283)        # -K / (4 H^2) overflows
def test_classify_bigbang_names_bad_inputs(K, rho_bar):
    # every input either classifies or raises a ValueError naming what is
    # wrong; none returns nan, +inf as a "finite" time, or a bare math error
    if not math.isfinite(K):
        with pytest.raises(ValueError, match="K must be finite"):
            classify_bigbang(K, rho_bar)
        return
    if not 0 < rho_bar < math.inf:
        with pytest.raises(ValueError, match="rho_bar must be positive and finite"):
            classify_bigbang(K, rho_bar)
        return
    if K >= 0:
        assert classify_bigbang(K, rho_bar) == (-math.inf if K == 0 else None)
        return
    H2 = 8 * math.pi * G_NEWTON / 3 * rho_bar
    ratio = -K / (4 * H2) if H2 > 1e-300 else math.inf
    if 1e-300 < ratio < 1e300:
        # inside the float range the closed form is a finite time
        t_bb = classify_bigbang(K, rho_bar)
        assert 2 * math.sqrt(H2) * t_bb == pytest.approx(math.log(ratio), rel=1e-12, abs=1e-12)
        return
    try:
        t_bb = classify_bigbang(K, rho_bar)
    except ValueError as exc:
        assert "the time of the zero is not a finite float" in str(exc)
    else:
        assert math.isfinite(t_bb)
