import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

import inflatonlab as il
from inflatonlab.variance import (
    PREFACTOR_LITERAL,
    PSDViolation,
    preset_air_mip,
)
from inflatonlab.constants import CM_IN_INV_GEV, KEV_GEV


def quad_overlap(w1, w2):
    """Independent 4D overlap by per-axis adaptive quadrature (the integrand
    factorizes exactly for Gaussian windows)."""
    def axis(l1, c1, l2, c2):
        lo = min(c1, c2) - 10 / min(l1, l2)
        hi = max(c1, c2) + 10 / min(l1, l2)
        val, _ = quad(lambda x: math.exp(-l1**2 * (x - c1) ** 2
                                         - l2**2 * (x - c2) ** 2),
                      lo, hi, epsabs=0, epsrel=1e-12)
        return val

    out = (w1.lambda_t * w1.lambda_s**3 / math.pi**2) * \
          (w2.lambda_t * w2.lambda_s**3 / math.pi**2)
    out *= axis(w1.lambda_t, w1.t_w, w2.lambda_t, w2.t_w)
    for k in range(3):
        out *= axis(w1.lambda_s, w1.x_w[k], w2.lambda_s, w2.x_w[k])
    return out


def test_weight_normalization_by_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(6):
        w = il.WeightFunction(lambda_t=10 ** rng.uniform(-1, 1),
                              lambda_s=10 ** rng.uniform(-1, 1))
        # integral of w against a unit-normalized partner of huge width tends
        # to w's own normalization; do the 4D integral directly instead
        def axis(l, c):
            val, _ = quad(lambda x: math.exp(-l**2 * (x - c) ** 2),
                          c - 12 / l, c + 12 / l, epsabs=0, epsrel=1e-12)
            return val
        total = (w.lambda_t * w.lambda_s**3 / math.pi**2) * axis(w.lambda_t, w.t_w)
        for k in range(3):
            total *= axis(w.lambda_s, w.x_w[k])
        assert total == pytest.approx(1.0, rel=1e-6)


def test_self_overlap_closed_form():
    w = il.WeightFunction(lambda_t=2.0, lambda_s=3.0)
    assert il.weight_overlap(w, w) == pytest.approx(
        2.0 * 3.0**3 / (4 * math.pi**2), rel=1e-12)
    assert il.weight_overlap(w, w) == pytest.approx(quad_overlap(w, w), rel=1e-6)


def test_general_overlap_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(6):
        w1 = il.WeightFunction(t_w=rng.normal(), x_w=tuple(rng.normal(size=3)),
                               lambda_t=10 ** rng.uniform(-0.5, 0.5),
                               lambda_s=10 ** rng.uniform(-0.5, 0.5))
        w2 = il.WeightFunction(t_w=rng.normal(), x_w=tuple(rng.normal(size=3)),
                               lambda_t=10 ** rng.uniform(-0.5, 0.5),
                               lambda_s=10 ** rng.uniform(-0.5, 0.5))
        assert il.weight_overlap(w1, w2) == pytest.approx(quad_overlap(w1, w2),
                                                          rel=1e-6)
        assert il.weight_overlap(w1, w2) == pytest.approx(
            il.weight_overlap(w2, w1), rel=1e-14)


def test_far_separated_overlap_vanishes():
    w1 = il.WeightFunction()
    w2 = il.WeightFunction(t_w=100.0, x_w=(100.0, 0.0, 0.0))
    assert il.weight_overlap(w1, w2) < 1e-300 * il.weight_overlap(w1, w1)


def test_classical_variance_00_closed_form():
    # mu^4 Lt Ls^3 / (8 pi^2), i.e. the quoted Lt Ls^3 mu^4 / (2 (2pi)^2)
    w = il.WeightFunction(lambda_t=1.7, lambda_s=0.8)
    mu = 0.3
    expect = mu**4 * 1.7 * 0.8**3 / (8 * math.pi**2)
    assert il.classical_variance_00(mu, w) == pytest.approx(expect, rel=1e-12)
    assert il.classical_variance_00(0.0, w) == 0.0
    # cubic dependence on the spatial width
    w2 = il.WeightFunction(lambda_t=1.7, lambda_s=1.6)
    assert il.classical_variance_00(mu, w2) == pytest.approx(
        8 * il.classical_variance_00(mu, w), rel=1e-12)


def test_covariance_single_weight_consistency():
    w = il.WeightFunction(lambda_t=1.0, lambda_s=2.0)
    mu = 0.7
    cov = il.covariance_matrix(mu, [w])
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(il.classical_variance_00(mu, w), rel=1e-12)


def test_covariance_far_separated_is_diagonal():
    w1 = il.WeightFunction()
    w2 = il.WeightFunction(t_w=200.0)
    cov = il.covariance_matrix(0.5, [w1, w2])
    assert cov[0, 1] == pytest.approx(0.0, abs=1e-280)


def test_covariance_gram_psd_property():
    # Gram structure: every randomly drawn same-component weight set gives a
    # positive semidefinite matrix (>= 100 draws)
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        weights = [il.WeightFunction(t_w=rng.normal(scale=2),
                                     x_w=tuple(rng.normal(scale=2, size=3)),
                                     lambda_t=10 ** rng.uniform(-0.5, 0.5),
                                     lambda_s=10 ** rng.uniform(-0.5, 0.5))
                   for _ in range(n)]
        cov = il.covariance_matrix(rng.uniform(0.1, 1.0), weights)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)


def test_covariance_mixed_time_space_component_fails_psd():
    # a 0i-selector carries a negative metric sign: such a weight set is
    # rejected, mirroring the positivity requirement on admissible windows
    w = il.WeightFunction(component=(0, 1))
    with pytest.raises(PSDViolation):
        il.covariance_matrix(0.5, [w])


def test_decay_experiment_validation():
    with pytest.raises(ValueError):
        il.DecayExperiment(gamma_q=0.0, t_bar=1.0, rho_0=1.0, dEdx=1.0, b=1.0)


def test_decay_mean_and_variance():
    exp = preset_air_mip()
    x = exp.gamma_q * exp.t_bar
    assert x == pytest.approx(1.0, rel=1e-12)      # t_bar = lifetime
    # (e^-1 - e^-2) = 0.23254 at the lifetime; the order-1e-1 window
    factor = math.exp(-1) - math.exp(-2)
    assert factor == pytest.approx(0.2325442, rel=1e-6)
    assert il.decay_quantum_variance(exp) == pytest.approx(
        exp.delta_rho**2 * factor, rel=1e-12)


def test_decay_variance_limits():
    exp = preset_air_mip()
    early = il.DecayExperiment(exp.gamma_q, 1e-9 * exp.t_bar, exp.rho_0,
                               exp.dEdx, exp.b)
    late = il.DecayExperiment(exp.gamma_q, 1e9 * exp.t_bar, exp.rho_0,
                              exp.dEdx, exp.b)
    assert il.decay_quantum_variance(early) < 1e-8 * il.decay_quantum_variance(exp)
    assert il.decay_quantum_variance(late) < 1e-8 * il.decay_quantum_variance(exp)


def test_sigma_squared_composition_oracle():
    # composing variance / quantum variance with Lt = Ls = 1/b and
    # delta_rho = (dE/dx)/(pi b^2) must reproduce the closed coefficient
    exp = preset_air_mip()
    mu = 1e-11
    w = il.WeightFunction(lambda_t=1 / exp.b, lambda_s=1 / exp.b)
    var_c = il.classical_variance_00(mu, w)
    var_q = il.decay_quantum_variance(exp)
    direct = var_c / var_q
    composed, literal = il.sigma2_per_mu4(exp)
    assert composed * mu**4 == pytest.approx(direct, rel=1e-12)
    # the chain's coefficient is e^2/(8(e-1)); the quoted closed form differs,
    # e^2/(8(e-2))
    e = math.e
    assert composed * exp.dEdx**2 == pytest.approx(e**2 / (8 * (e - 1)), rel=1e-12)
    assert literal / composed == pytest.approx(
        PREFACTOR_LITERAL / (e**2 / (8 * (e - 1))), rel=1e-12)


@pytest.mark.parametrize("dEdx", [1.5e-154, 1e-140, 5e-20, 1e10])
def test_sigma_squared_composed_is_quadratic_in_dEdx(dEdx):
    # the chain runs at unit dE/dx, so no stopping power the config accepts
    # (dE/dx^2 a normal float) underflows it
    exp = dataclasses.replace(preset_air_mip(), dEdx=dEdx)
    composed, _ = il.sigma2_per_mu4(exp)
    assert composed * dEdx**2 == pytest.approx(math.e**2 / (8 * (math.e - 1)), rel=1e-14)


def test_sigma_squared_order_of_magnitude():
    # coefficient ~1e38 GeV^-4 for dE/dx = 5e-20 GeV^2, both prefactors
    composed, literal = il.sigma2_per_mu4(preset_air_mip())
    assert 1e37 < composed < 1e39
    assert 1e37 < literal < 1e39


def test_mu_bound_round_trip_and_scaling():
    exp = preset_air_mip()
    composed, literal = il.sigma2_per_mu4(exp)
    mu_composed, mu_literal = il.mu_bound(exp, 1e-3)
    # at the threshold the bound inverts sigma^2 exactly
    assert composed * mu_composed**4 == pytest.approx(1e-3, rel=1e-10)
    assert literal * mu_literal**4 == pytest.approx(1e-3, rel=1e-10)
    assert il.mu_bound(exp, 4e-3)[0] / mu_composed == pytest.approx(
        math.sqrt(2.0), rel=1e-12)
    # doubling the coefficient scales mu by 2^(-1/4)
    exp2 = il.DecayExperiment(exp.gamma_q, exp.t_bar, exp.rho_0,
                              exp.dEdx / 2**0.5, exp.b)
    assert il.mu_bound(exp2, 1e-3)[0] / mu_composed == pytest.approx(
        2 ** -0.25, rel=1e-12)
    with pytest.raises(ValueError):
        il.mu_bound(exp, -1.0)


def test_kev_per_cm_conversion():
    # 2.76 keV/cm lands on 5.45e-20 GeV^2, consistent with the rounded 5e-20
    assert 2.76 * KEV_GEV / CM_IN_INV_GEV == pytest.approx(5.446e-20, rel=1e-3)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_POSITIVE = NON_FINITE | st.floats(max_value=0.0)
BAD_MU = NON_FINITE | st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.4e77)


def _experiment(**bad):
    fields = dict(gamma_q=1.0, t_bar=1.0, rho_0=1.0, dEdx=1.0, b=1.0)
    return il.DecayExperiment(**{**fields, **bad})


BAD_INPUTS = [
    ("lambda_t", NOT_POSITIVE, lambda v: il.WeightFunction(lambda_t=v)),
    ("lambda_s", NOT_POSITIVE, lambda v: il.WeightFunction(lambda_s=v)),
    ("t_w", NON_FINITE, lambda v: il.WeightFunction(t_w=v)),
    ("x_w", NON_FINITE, lambda v: il.WeightFunction(x_w=(0.0, v, 0.0))),
    *[(name, NOT_POSITIVE, lambda v, name=name: _experiment(**{name: v}))
      for name in ("gamma_q", "t_bar", "rho_0", "dEdx", "b")],
    ("sigma2_max", NOT_POSITIVE, lambda v: il.mu_bound(preset_air_mip(), v)),
    ("mu", BAD_MU, lambda v: il.classical_variance_00(v, il.WeightFunction())),
    ("mu", BAD_MU, lambda v: il.covariance_matrix(v, [il.WeightFunction()])),
]


@pytest.mark.parametrize("name, values, call", BAD_INPUTS,
                         ids=[f"{i}-{entry[0]}" for i, entry in enumerate(BAD_INPUTS)])
@given(data=st.data())
def test_non_finite_or_out_of_range_inputs_are_named(name, values, call, data):
    # NaN passes every `<= 0` test, so each entry point checks the range
    # explicitly and names the input; none returns nan or inf
    with pytest.raises(ValueError, match=name):
        call(data.draw(values))
