import math

import numpy as np
import pytest

import inflatonlab as il
from inflatonlab.constants import EFOLD_RATE, HUBBLE_UNIT, TIME_UNIT


def test_potential_at_origin_is_vacuum_energy(params):
    # constant term kappa^4 / (4 lambda); order 1e66 GeV^4 at defaults
    v0 = il.potential(params, 0.0)
    assert v0 == params.kappa**4 / (4 * params.lam)
    assert v0 == pytest.approx(1.1741588e66, rel=1e-6)


def test_potential_vanishes_at_minimum(params, derived):
    # machine precision relative to the cancelling 1e66-scale terms
    vac = il.potential(params, 0.0)
    assert il.potential(params, derived.v) == pytest.approx(0.0, abs=4e-16 * vac)
    d1_scale = params.kappa**2 * derived.v
    assert il.potential_d1(params, derived.v) == pytest.approx(0.0, abs=4e-16 * d1_scale)
    # exact closed-form zeros for other couplings too
    for kappa, lam in ((1.0, 0.25), (3.7e5, 2e-3)):
        p = il.PotentialParams(kappa=kappa, lam=lam)
        v = kappa / math.sqrt(lam)
        assert il.potential(p, v) == pytest.approx(0.0, abs=1e-9 * il.potential(p, 0.0))
        assert il.potential_d1(p, v) == pytest.approx(0.0, abs=1e-9 * kappa**3)


def test_first_derivative_is_odd_and_stationary(params, derived):
    assert il.potential_d1(params, 0.0) == 0.0
    phi = 0.3 * derived.v
    assert il.potential_d1(params, -phi) == -il.potential_d1(params, phi)


def test_second_derivative_at_minimum(params, derived):
    # d2V/dphi2 at v: -kappa^2 + 3 lambda v^2 = 2 kappa^2
    assert il.potential_d2(params, derived.v) == pytest.approx(
        2 * params.kappa**2, rel=1e-12)


def test_derivatives_match_finite_differences(params, derived):
    # steps balance truncation against the 1e66-scale cancellation noise:
    # the first difference tolerates a small step, the second needs ~0.02 v
    rng = np.random.default_rng(42)
    for phi in rng.uniform(0.0, 2 * derived.v, size=12):
        h1 = 1e-7 * derived.v
        fd1 = (il.potential(params, phi + h1) - il.potential(params, phi - h1)) / (2 * h1)
        scale1 = max(abs(fd1), params.kappa**2 * derived.v * 1e-3)
        assert abs(il.potential_d1(params, phi) - fd1) / scale1 < 1e-6
        h2 = 0.02 * derived.v
        fd2 = (il.potential(params, phi + h2) - 2 * il.potential(params, phi)
               + il.potential(params, phi - h2)) / h2**2
        # quartic V: the central second difference equals V'' + lambda h^2/2
        # exactly, so subtracting the known truncation leaves pure roundoff
        assert abs(il.potential_d2(params, phi) - (fd2 - params.lam * h2**2 / 2))\
            / params.kappa**2 < 1e-6


def test_derived_constants_values(params, derived):
    # potential minimum: quoted rounded value is within 1%
    assert derived.v == pytest.approx(25.7e19, rel=0.01)
    # limiting expansion rate: reference 2.53e14 reproduced within 3%
    assert derived.hbar_inf == pytest.approx(2.53e14, rel=0.03)
    assert derived.vacuum_energy == pytest.approx(1.1741588e66, rel=1e-6)


def test_alpha_satisfies_defining_quadratic(params, derived):
    a, hb, k2 = derived.alpha, derived.hbar_inf, params.kappa**2
    assert abs(a * a + 3 * hb * a - k2) / k2 < 1e-12


def test_alpha_matches_slow_roll_limit(params, derived):
    # kappa << hbar_inf, so alpha = kappa^2/(3 hbar_inf) up to O((kappa/hbar)^2)
    approx = params.kappa**2 / (3 * derived.hbar_inf)
    assert derived.alpha == pytest.approx(approx, rel=2e-4)
    assert derived.alpha == pytest.approx(9.1111e10, rel=1e-4)


def test_alpha_rationalized_form_beats_textbook_root(params, derived):
    # the textbook subtraction loses ~8 digits; the rationalized form agrees
    # with it only to float cancellation level, and satisfies the quadratic
    hb = derived.hbar_inf
    naive = 0.5 * (-3 * hb + math.sqrt(9 * hb**2 + 4 * params.kappa**2))
    assert naive == pytest.approx(derived.alpha, rel=1e-6)
    resid_naive = abs(naive**2 + 3 * hb * naive - params.kappa**2) / params.kappa**2
    resid_stable = abs(derived.alpha**2 + 3 * hb * derived.alpha
                       - params.kappa**2) / params.kappa**2
    assert resid_stable <= resid_naive


def test_epsilon_scaling_invariance():
    # dimensional consistency: rescaling kappa and phi jointly (so that
    # kappa^2 phi^2 and lambda phi^4 scale identically) while G absorbs the
    # inverse-energy-squared dimension leaves epsilon and delta invariant
    rng = np.random.default_rng(7)
    for _ in range(8):
        kappa = 10 ** rng.uniform(10, 14)
        lam = 10 ** rng.uniform(-16, -12)
        G = 10 ** rng.uniform(-40, -36)
        u = rng.uniform(0.1, 0.9)
        s = rng.uniform(0.5, 2.0)
        p1 = il.PotentialParams(kappa=kappa, lam=lam, G=G)
        p2 = il.PotentialParams(kappa=s * kappa, lam=lam, G=G / s**2)
        e1, d1 = il.slow_roll_functions(p1, u * kappa / math.sqrt(lam))
        e2, d2 = il.slow_roll_functions(p2, u * s * kappa / math.sqrt(lam))
        assert e1 == pytest.approx(e2, rel=1e-10)
        assert d1 == pytest.approx(d2, rel=1e-10)


def test_params_validation():
    with pytest.raises(ValueError):
        il.PotentialParams(kappa=-1.0)
    with pytest.raises(ValueError):
        il.PotentialParams(lam=0.0)
    with pytest.raises(ValueError):
        il.PotentialParams(G=float("nan"))


def test_unit_scales_round_trip():
    assert EFOLD_RATE == TIME_UNIT * HUBBLE_UNIT == 100.0
