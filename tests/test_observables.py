import math
import re

import numpy as np
import pytest

import inflatonlab as il
from inflatonlab.horizon import HorizonExit
from inflatonlab.observables import (
    R_BOUND,
    SlowRollDomainError,
    compare_targets,
)
from inflatonlab.potential import potential

# the published table's exit row (field value and rate); it is not this
# model's pivot crossing -- the slow-roll e-folds from this field value to the
# end of inflation are ~87, not the quoted 115.4 -- but the closed-form shape
# functions reproduce the quoted observables there
ANCHOR_PHI = 21.46e19
ANCHOR_H = 7.75e13


def paper_anchor_exit():
    return HorizonExit(t_exit=-1.48e-12, phi_exit=ANCHOR_PHI, H_exit=ANCHOR_H,
                       residual=0.0, efolds_to_end=115.4,
                       q_over_aI=il.DEFAULT_CONSTANTS.q_R_over_aI)


def test_shape_functions_at_reference_anchor(params):
    eps, delta = il.slow_roll_functions(params, ANCHOR_PHI)
    assert eps == pytest.approx(0.0054, rel=0.10)
    assert delta == pytest.approx(0.0012, rel=0.25)


def test_shape_functions_flat_top(params):
    eps, _ = il.slow_roll_functions(params, 1e15)   # phi -> 0: V' -> 0
    assert eps < 1e-10


def test_shape_functions_domain_error(params, derived):
    # V(v) = 0: the error names the field value
    with pytest.raises(SlowRollDomainError, match=re.escape(f"{derived.v:g}")):
        il.slow_roll_functions(params, derived.v)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_shape_functions_name_a_non_finite_field(params, phi):
    # not (nan, nan), and not "V(phi) vanishes" at phi = +-inf, where V is infinite
    with pytest.raises(ValueError, match=f"phi must be finite, got {phi!r}"):
        il.slow_roll_functions(params, phi)


def test_shape_functions_match_finite_difference_oracle(params, derived):
    # independent evaluation of the shape functions by finite-differencing
    # the potential; the second difference uses a wide step with its exact
    # quartic truncation term removed (cancellation-noise control)
    rng = np.random.default_rng(3)
    for u in rng.uniform(0.2, 0.92, size=6):
        phi = u * derived.v
        h1 = 1e-6 * derived.v
        h2 = 0.02 * derived.v
        V = potential(params, phi)
        Vp = (potential(params, phi + h1) - potential(params, phi - h1)) / (2 * h1)
        Vpp = (potential(params, phi + h2) - 2 * V
               + potential(params, phi - h2)) / h2**2 - params.lam * h2**2 / 2
        pref = 1 / (16 * np.pi * params.G)
        eps_fd = pref * (Vp / V) ** 2
        delta_fd = pref * ((Vp / V) ** 2 - 2 * Vpp / V)
        eps, delta = il.slow_roll_functions(params, phi)
        assert eps == pytest.approx(eps_fd, rel=1e-5)
        assert delta == pytest.approx(delta_fd, rel=1e-5)


def test_report_identities(params, report):
    assert report.r == 16 * report.epsilon
    assert report.n_T == -2 * report.epsilon
    assert report.n_s == 1 - 4 * report.epsilon - 2 * report.delta
    assert report.NT2 / report.NS2 == pytest.approx(4 * report.epsilon, rel=1e-12)


def test_report_at_reference_anchor(params):
    # with the published exit anchor the amplitude and tilts land on the
    # quoted numbers
    rep = il.spectra_report(params, paper_anchor_exit())
    assert rep.n_s == pytest.approx(0.97, abs=0.01)
    assert rep.NS2 == pytest.approx(1.90e-10, rel=0.10)
    assert rep.r == pytest.approx(0.086, rel=0.10)
    # tensor amplitude from the ratio identity: 4 eps NS2 ~ 4.1e-12
    assert rep.NT2 == pytest.approx(4 * rep.epsilon * rep.NS2, rel=1e-12)
    assert rep.NT2 == pytest.approx(4.1e-12, rel=0.15)


def test_classical_gravity_report(params, exit_point):
    rep = il.spectra_report(params, exit_point, gravity=il.GravityMode.CLASSICAL)
    assert rep.r == 0.0
    assert rep.NT2 == 0.0
    quantum = il.spectra_report(params, exit_point, gravity=il.GravityMode.QUANTUM)
    assert rep.NS2 == quantum.NS2          # scalar sector untouched
    assert rep.epsilon == quantum.epsilon


def test_compare_targets_quantum_mode_violates_r_bound(report):
    cmp = compare_targets(report)
    assert cmp["r_bound_violated"]       # central conclusion of the model
    assert cmp["r"] > R_BOUND


def test_compare_targets_classical_mode_satisfies_r_bound(params, exit_point):
    rep = il.spectra_report(params, exit_point, gravity=il.GravityMode.CLASSICAL)
    cmp = compare_targets(rep)
    assert not cmp["r_bound_violated"]


def test_compare_targets_zscores_on_anchor_report(params):
    # the comparator itself: a report carrying the quoted amplitude value is
    # within one sigma of the survey target
    rep = il.spectra_report(params, paper_anchor_exit())
    cmp = compare_targets(rep)
    rec = {r["name"]: r for r in cmp["records"]}
    z_ns2 = (1.90e-10 - 1.93e-10) / 0.12e-10
    assert abs(z_ns2) < 1
    assert rec["NS2"]["z"] == pytest.approx((rep.NS2 - 1.93e-10) / 0.12e-10, rel=1e-12)
    assert rec["n_s"]["z"] == pytest.approx((rep.n_s - 0.966) / 0.003, rel=1e-12)
