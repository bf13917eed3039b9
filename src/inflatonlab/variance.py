"""Gaussian weight functions, the classical covariance matrix and the decay bound.

The classical variance of a weighted energy-momentum component is built from
overlaps of normalized Gaussian space-time windows

    w(x) = (Lt Ls^3 / pi^2) exp[-Lt^2 (t-t_w)^2 - Ls^2 |x-x_w|^2],

assembled into the covariance matrix

    M0_ij = (mu^4 / 2) integral d4x a^-3(t) gbar gbar f_i f_j,

a Gram matrix (hence positive semidefinite) whenever all selected components
carry the same metric sign.  The decay experiment compares that classical
variance against the two-outcome quantum variance of a particle that either
reaches the detector or does not, which turns a consistency level sigma^2
into an upper bound on mu.

Two prefactors for sigma^2 circulate in the source material and disagree by a
factor ~2.4; both are computed and reported side by side, and the mu bound is
returned for each, so the pair brackets it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import GRAM_PER_CM3_IN_GEV4, checked_mu

_E = math.e
PREFACTOR_LITERAL = _E**2 / (8 * (_E - 2))       # as printed in the closed form


class PSDViolation(RuntimeError):
    """Covariance matrix failed the positive-semidefiniteness check."""


@dataclass(frozen=True)
class WeightFunction:
    """Normalized Gaussian window centered at (t_w, x_w).

    lambda_t / lambda_s are the inverse temporal / spatial widths (GeV);
    component selects which energy-momentum component the window weighs.
    """

    t_w: float = 0.0
    x_w: tuple[float, float, float] = (0.0, 0.0, 0.0)
    lambda_t: float = 1.0
    lambda_s: float = 1.0
    component: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if not (0 < self.lambda_t < math.inf and 0 < self.lambda_s < math.inf):
            raise ValueError("lambda_t and lambda_s must be positive and finite")
        if not all(map(math.isfinite, (self.t_w, *self.x_w))):
            raise ValueError("t_w and x_w must be finite")
        mu, nu = self.component
        if not (0 <= mu <= 3 and 0 <= nu <= 3):
            raise ValueError("component indices must be in 0..3")


def _gauss_1d_overlap(l1, c1, l2, c2):
    """integral exp(-l1^2 (x-c1)^2 - l2^2 (x-c2)^2) dx, closed form."""
    s = l1 * l1 + l2 * l2
    return math.sqrt(math.pi / s) * math.exp(-(l1 * l1 * l2 * l2) * (c1 - c2) ** 2 / s)


def weight_overlap(w1: WeightFunction, w2: WeightFunction) -> float:
    """Closed-form 4D overlap integral of two windows, symmetric in (w1, w2).

    For identical windows this reduces to Lt Ls^3 / (4 pi^2).
    """
    n1 = w1.lambda_t * w1.lambda_s**3 / math.pi**2
    n2 = w2.lambda_t * w2.lambda_s**3 / math.pi**2
    out = n1 * n2 * _gauss_1d_overlap(w1.lambda_t, w1.t_w, w2.lambda_t, w2.t_w)
    for k in range(3):
        out *= _gauss_1d_overlap(w1.lambda_s, w1.x_w[k], w2.lambda_s, w2.x_w[k])
    return out


def classical_variance_00(mu: float, w: WeightFunction) -> float:
    """Classical variance of the 00-weighted density: mu^4 Lt Ls^3 / (8 pi^2)."""
    return 0.5 * checked_mu(mu)**4 * weight_overlap(w, w)


_METRIC_SIGN = (-1.0, 1.0, 1.0, 1.0)


def _metric_factor(ci: tuple[int, int], cj: tuple[int, int]) -> float:
    """gbar gbar contraction of two single-component selectors at a = 1."""
    if set(ci) != set(cj):
        return 0.0
    mu, nu = ci
    return _METRIC_SIGN[mu] * _METRIC_SIGN[nu]


def covariance_matrix(mu: float, weights: Sequence[WeightFunction]) -> np.ndarray:
    """Pairwise-overlap covariance matrix with metric factors, returned once its
    eigenvalues are checked against the PSD floor -1e-10 tr M.

    Uses the flat convention a(t) = 1, so every entry is a closed-form overlap.
    A weight set whose matrix falls below the floor raises PSDViolation.
    """
    checked_mu(mu)
    if len(weights) == 0:
        raise ValueError("need at least one weight function")
    n = len(weights)
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            wi, wj = weights[i], weights[j]
            sign = _metric_factor(wi.component, wj.component)
            if sign == 0.0:
                continue
            M[i, j] = M[j, i] = 0.5 * mu**4 * sign * weight_overlap(wi, wj)
    lowest = np.linalg.eigvalsh(M).min()
    if not lowest >= -1e-10 * max(float(np.trace(M)), 1e-300):
        raise PSDViolation(
            f"covariance matrix has eigenvalue {lowest:.3e} below the PSD floor; "
            "the chosen weight set is invalid")
    return M


# --- decay experiment --------------------------------------------------------

@dataclass(frozen=True)
class DecayExperiment:
    """Two-outcome decay observation in an ionizing medium.

    gamma_q : GeV, quantum decay rate
    t_bar   : GeV^-1, observation time
    rho_0   : GeV^4, medium density
    dEdx    : GeV^2, stopping power at minimum ionization
    b       : GeV^-1, ion-wake radius (sets lambda_t = lambda_s = 1/b)
    """

    gamma_q: float
    t_bar: float
    rho_0: float
    dEdx: float
    b: float

    def __post_init__(self):
        for name in ("gamma_q", "t_bar", "rho_0", "dEdx", "b"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not sys.float_info.min < self.dEdx * self.dEdx < math.inf:   # sigma^2 divides by it
            raise ValueError(f"dEdx^2 must be a normal float, got dEdx = {self.dEdx!r}")

    @property
    def delta_rho(self) -> float:
        """Deposited energy density dE/dx / (pi b^2)."""
        return self.dEdx / (math.pi * self.b**2)


def preset_air_mip() -> DecayExperiment:
    """Minimum-ionizing unit charge in air (rho_0 = 0.0012 g/cm^3).

    The stopping power is the rounded 5e-20 GeV^2 working value; the exact
    keV/cm conversion multiplies by KEV_GEV / CM_IN_INV_GEV from constants
    (2.76 keV/cm = 5.45e-20 GeV^2).  The rate is a muon-scale 3e-19 GeV, and
    b is a micron-scale wake radius; neither enters sigma^2, which depends
    only on dE/dx once t_bar = 1/gamma_q and 1/lambda = b are imposed.
    """
    gamma = 3.0e-19
    return DecayExperiment(
        gamma_q=gamma,
        t_bar=1.0 / gamma,
        rho_0=0.0012 * GRAM_PER_CM3_IN_GEV4,
        dEdx=5e-20,
        b=1e-4 * 5.067730716e13,   # 1 micron in GeV^-1
    )


def decay_quantum_variance(exp: DecayExperiment) -> float:
    """Quantum variance (delta_rho)^2 (e^{-Gamma tbar} - e^{-2 Gamma tbar})."""
    x = exp.gamma_q * exp.t_bar
    return exp.delta_rho**2 * (math.exp(-x) - math.exp(-2 * x))


def sigma2_per_mu4(exp: DecayExperiment) -> tuple[float, float]:
    """Relative weight sigma^2 of the classical to the quantum fluctuation, per
    mu^4: (composed, literal).

    Uses the lambda_t = lambda_s = 1/b, delta_rho = dE/dx / (pi b^2)
    conventions, under which b cancels and sigma^2 = C * mu^4 / (dE/dx)^2.
    The composed C is the window calculus's classical variance over the decay
    quantum variance at unit dE/dx (e^2/(8(e-1)) at t_bar = 1/gamma_q); the
    literal one carries the alternative published prefactor.
    """
    w = WeightFunction(lambda_t=1 / exp.b, lambda_s=1 / exp.b)
    composed = classical_variance_00(1.0, w) / decay_quantum_variance(replace(exp, dEdx=1.0))
    return composed / exp.dEdx**2, PREFACTOR_LITERAL / exp.dEdx**2


def mu_bound(exp: DecayExperiment, sigma2_max: float) -> tuple[float, float]:
    """Upper bound on mu, (composed, literal): sigma^2 = C mu^4 inverted at
    the ceiling sigma2_max."""
    if not 0 < sigma2_max < math.inf:
        raise ValueError("sigma2_max must be positive and finite")
    composed, literal = sigma2_per_mu4(exp)
    return (sigma2_max / composed) ** 0.25, (sigma2_max / literal) ** 0.25
