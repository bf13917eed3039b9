"""Physical constants and unit scalings (natural units, hbar = c = 1, GeV base).

All public APIs of the package take and return quantities in plain GeV
powers.  Internally the solvers rescale time, field and expansion rate so
that the state stays O(1)-O(1e3); the scalings live here so every module
agrees on them, as does the range check on the smearing mass mu.
"""

from __future__ import annotations

import math
import sys

# --- gravity ---------------------------------------------------------------

PLANCK_MASS_GEV = 1.22089e19
"""Planck mass in GeV (hbar = c = 1)."""

G_NEWTON = 1.0 / PLANCK_MASS_GEV**2  # 6.70883e-39 GeV^-2
"""Newton constant in GeV^-2."""

# --- default potential couplings (the fitted benchmark point) ---------------

KAPPA_DEFAULT = 8.38e12       # GeV
LAMBDA_DEFAULT = 1.05e-15     # dimensionless

# --- the smearing mass -------------------------------------------------------


def checked_mu(mu: float) -> float:
    """mu, once it is nonnegative with mu^4 a finite float: the one contract on
    the smearing mass, which the field theory (in GeV) and the toy model
    (dimensionless) both read only through mu^4."""
    if not 0 <= mu <= sys.float_info.max ** 0.25:
        raise ValueError("mu must be nonnegative, with mu^4 a finite float")
    return mu


# --- length / time conversions ----------------------------------------------

HBARC_GEV_M = 1.973269804e-16
"""hbar*c in GeV*m: converts lengths to inverse GeV."""

M_IN_INV_GEV = 1.0 / HBARC_GEV_M          # 1 m in GeV^-1
CM_IN_INV_GEV = 1e-2 * M_IN_INV_GEV       # 1 cm in GeV^-1

MPC_IN_M = 3.0856775814913673e22
MPC_IN_INV_GEV = MPC_IN_M * M_IN_INV_GEV  # 1 Mpc in GeV^-1

GRAM_GEV = 5.609588603e23                 # 1 g in GeV
GRAM_PER_CM3_IN_GEV4 = GRAM_GEV / CM_IN_INV_GEV**3
KEV_GEV = 1e-6


# --- internal scalings -------------------------------------------------------
#
# Raw GeV magnitudes in the inflationary epoch span ~66 decades; the solvers
# work in these units so that times, fields and rates are O(1)-O(1e3).

TIME_UNIT = 1e-12           # GeV^-1
FIELD_UNIT = 1e19           # GeV
HUBBLE_UNIT = 1e14          # GeV
EFOLD_RATE = TIME_UNIT * HUBBLE_UNIT
"""e-folds per scaled time unit per scaled Hubble unit (= 100)."""

TWO_PI = 2.0 * math.pi
