"""Shared fixtures: the expensive background solve and its derived products
are computed once per session, next to an independent slow-roll oracle for
the pivot exit."""

import math
from collections import namedtuple
from dataclasses import dataclass

import pytest
from hypothesis import settings
from scipy.optimize import brentq

import inflatonlab as il
from inflatonlab import _dop853

# one Hypothesis profile for the suite: reproducible examples, no timing
# deadline (the solver calls are slow and uneven), no example database on disk
settings.register_profile("inflatonlab", derandomize=True, deadline=None, database=None)
settings.load_profile("inflatonlab")


@dataclass(frozen=True)
class AttractorExit:
    """Pivot-mode horizon exit on the slow-roll attractor, with its observables.

    Built from (kappa, lambda, G) and q_R/a_I alone by ``attractor_exit``;
    ``rate`` is the attractor's growth exponent, so phi(t) = v e^{rate t}.
    """

    v: float
    rate: float
    G: float
    t_exit: float
    phi_exit: float
    H_exit: float
    efolds: float
    epsilon: float
    delta: float
    n_s: float
    NS2: float
    r: float

    def phi(self, t: float) -> float:
        return self.v * math.exp(self.rate * t)

    def efolds_to_end(self, phi: float) -> float:
        return slow_roll_efolds(phi, self.v, self.G)


def slow_roll_efolds(phi: float, v: float, G: float) -> float:
    """Slow-roll e-folds from phi to the end of inflation at phi = v."""
    return 8 * math.pi * G * (v**2 / 4 * math.log(v / phi) - (v**2 - phi**2) / 8)


def attractor_exit(kappa: float, lam: float, G: float, q_over_aI: float) -> AttractorExit:
    """Independent pivot exit on the slow-roll attractor (no package solver).

    For V = lam (phi^2 - v^2)^2 / 4 the slow-roll rate H_sr = sqrt(8 pi G V/3)
    is proportional to v^2 - phi^2, so phidot = -V'/(3 H_sr) = rate * phi with
    the constant rate = kappa^2 / (3 H_sr(0)).  The attractor is therefore the
    exact exponential phi = v e^{rate t}: the quadrature
    t(phi) = ln(phi/v)/rate + int_0^phi [1/phidot - 1/(rate phi')] dphi'
    has a vanishing integrand, and the time origin is fixed by the same
    asymptotic form phi = v e^{alpha t} as the background's initial data
    (rate and alpha differ by 1.2e-4 at the default couplings).  The e-folds
    to the end, 8 pi G int_phi^v V/|V'| dphi', are closed form, and the exit
    solves efolds_to_end(phi) = ln(H_sr(phi) / (q/a_I)).  With
    u = v^2 - phi^2 the shape functions reduce to
    epsilon = phi^2 / (pi G u^2) and delta = 1 / (2 pi G u).
    """
    v = kappa / math.sqrt(lam)
    h_slope = math.sqrt(2 * math.pi * G * lam / 3)   # H_sr = h_slope (v^2 - phi^2)
    rate = kappa**2 / (3 * h_slope * v**2)

    def mismatch(phi):
        return slow_roll_efolds(phi, v, G) - math.log(h_slope * (v**2 - phi**2) / q_over_aI)

    # one sign change in between: the e-folds left fall from hundreds to 0,
    # while ln(H_sr a_I/q) stays near 100 until H_sr itself collapses at v
    phi = brentq(mismatch, 1e-3 * v, (1 - 1e-6) * v, xtol=1e-30, rtol=1e-15)
    u = v**2 - phi**2
    H = h_slope * u
    eps = phi**2 / (math.pi * G * u**2)
    delta = 1 / (2 * math.pi * G * u)
    return AttractorExit(
        v=v, rate=rate, G=G, t_exit=math.log(phi / v) / rate, phi_exit=phi, H_exit=H,
        efolds=slow_roll_efolds(phi, v, G), epsilon=eps, delta=delta,
        n_s=1 - 4 * eps - 2 * delta, NS2=G * H**2 / (4 * math.pi**2 * eps), r=16 * eps)


@pytest.fixture(scope="session")
def params():
    return il.PotentialParams()


@pytest.fixture(scope="session")
def derived(params):
    return il.derive_constants(params)


@pytest.fixture(scope="session")
def background(params):
    return il.integrate(params)


@pytest.fixture(scope="session")
def consts():
    return il.DEFAULT_CONSTANTS


@pytest.fixture(scope="session")
def slow_roll_oracle(params, consts):
    return attractor_exit(params.kappa, params.lam, params.G, consts.q_R_over_aI)


@pytest.fixture(scope="session")
def exit_point(background, consts):
    return il.solve_exit_reference(background, consts)


@pytest.fixture(scope="session")
def report(params, exit_point):
    return il.spectra_report(params, exit_point, gravity=il.GravityMode.QUANTUM)


@pytest.fixture(scope="session")
def scalar_mode(background, consts):
    return il.integrate_scalar(background, consts.q_R, consts)


@pytest.fixture(scope="session")
def tensor_mode(background, consts):
    return il.integrate_tensor(background, consts.q_R, consts)


# one recorded _dop853.solve: its arguments and the Steps it returned; the
# package passes each system bound to its constants as an _dop853.Rhs of its
# step attempt and its array form
Solve = namedtuple("Solve", "rhs t0 t1 y0 rtol atol steps")


@pytest.fixture
def solve_calls(monkeypatch):
    """Every _dop853.solve the package makes during the test, in call order;
    monkeypatch.undo() stops the recording."""
    calls = []
    solve = _dop853.solve

    def recorded(rhs, t0, t1, y0, rtol, atol):
        steps = solve(rhs, t0, t1, y0, rtol, atol)
        calls.append(Solve(rhs, t0, t1, y0, rtol, atol, steps))
        return steps

    monkeypatch.setattr(_dop853, "solve", recorded)
    return calls
