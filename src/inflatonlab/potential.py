"""Inflaton potential, couplings and the asymptotic constants derived from them.

The potential is the symmetry-breaking quartic

    V(phi) = kappa^4/(4 lambda) - kappa^2 phi^2 / 2 + lambda phi^4 / 4,

whose minimum sits at v = kappa/sqrt(lambda) with V(v) = V'(v) = 0, so the
constant term doubles as the vacuum energy of the phi = 0 state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import G_NEWTON, KAPPA_DEFAULT, LAMBDA_DEFAULT


@dataclass(frozen=True)
class PotentialParams:
    """Couplings of the quartic potential plus the Newton constant.

    kappa : GeV, mass scale of the quadratic term
    lam   : dimensionless quartic coupling
    G     : GeV^-2, Newton constant

    Each field is checked, then stored as a Python float, so a numpy scalar
    passed in never reaches the solvers' per-step arithmetic.
    """

    kappa: float = KAPPA_DEFAULT
    lam: float = LAMBDA_DEFAULT
    G: float = G_NEWTON

    def __post_init__(self):
        for name in ("kappa", "lam", "G"):
            val = getattr(self, name)
            if not math.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
            object.__setattr__(self, name, float(val))


@dataclass(frozen=True)
class DerivedConstants:
    """Asymptotic constants of the background solution.

    v             : GeV, potential minimum kappa/sqrt(lambda)
    hbar_inf      : GeV, limiting expansion rate as t -> -infinity
    alpha         : GeV, growth exponent of the asymptotic solution phi = c e^{alpha t}
    vacuum_energy : GeV^4, kappa^4/(4 lambda)
    """

    v: float
    hbar_inf: float
    alpha: float
    vacuum_energy: float


def potential(params: PotentialParams, phi):
    """V(phi) in GeV^4.  Total function of any finite phi.

    Evaluated in the factored form lambda (phi^2 - v^2)^2 / 4, algebraically
    identical to the three-term sum but free of its 1e66-scale cancellation
    near the minimum (where the sum loses all significant digits).
    """
    v2 = params.kappa**2 / params.lam
    return 0.25 * params.lam * (phi * phi - v2) ** 2


def potential_d1(params: PotentialParams, phi):
    """V'(phi) in GeV^3."""
    return -params.kappa**2 * phi + params.lam * phi**3


def potential_d2(params: PotentialParams, phi):
    """V''(phi) in GeV^2."""
    return -params.kappa**2 + 3 * params.lam * phi**2


def derive_constants(params: PotentialParams) -> DerivedConstants:
    """Compute v, the limiting rate, the growth exponent and the vacuum energy.

    The exponent solves alpha^2 + 3*hbar_inf*alpha - kappa^2 = 0.  It is
    evaluated in the rationalized form

        alpha = 2 kappa^2 / (sqrt(9 hbar_inf^2 + 4 kappa^2) + 3 hbar_inf)

    because the textbook root formula subtracts two nearly equal 1e14-scale
    numbers and loses ~8 digits at the default couplings.
    """
    v = params.kappa / math.sqrt(params.lam)
    try:
        vac = params.kappa**4 / (4 * params.lam)
    except OverflowError:
        raise ValueError(f"kappa^4/(4 lambda) overflows the float range at "
                         f"kappa = {params.kappa!r}") from None
    hbar_inf = math.sqrt(8 * math.pi * params.G / 3 * vac)
    k2 = params.kappa**2
    alpha = 2 * k2 / (math.sqrt(9 * hbar_inf**2 + 4 * k2) + 3 * hbar_inf)
    return DerivedConstants(v=v, hbar_inf=hbar_inf, alpha=alpha, vacuum_energy=vac)

