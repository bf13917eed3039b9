"""Horizon-crossing solver and the fixed late-universe constants.

A comoving mode q leaves the horizon when its physical wavenumber q/a(t)
drops to the expansion rate H(t).  With a(t) reconstructed from the e-fold
accumulator, a(t) = a_I exp(-integral_t^{t_I} H dt'), the condition becomes
the logarithmic form

    efolds_to_end(t) = ln( H(t) / (q/a_I) ),

which is what the solver brackets and refines.  The scale factor at the end
of inflation is identified with the last-scattering value a_L.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from .background import BackgroundSolution
from .constants import HUBBLE_UNIT, MPC_IN_INV_GEV

DEFAULT_QR_MPC_INV = 0.05
DEFAULT_Z_L = 1089.0


class NoHorizonExit(RuntimeError):
    """The exit condition has no sign change: not enough inflation in range."""


@dataclass(frozen=True)
class CosmoConstants:
    """Reference wavenumber and last-scattering scale factor.

    q_R : GeV, comoving pivot wavenumber
    a_L : scale factor at last scattering (a(today) = 1)

    Both are checked, then stored as Python floats.
    """

    q_R: float
    a_L: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (*astuple(self), self.q_R_over_aI)):
            raise ValueError("constants and q_R / a_L must be positive and finite")
        object.__setattr__(self, "q_R", float(self.q_R))
        object.__setattr__(self, "a_L", float(self.a_L))

    @property
    def q_R_over_aI(self) -> float:
        """GeV, physical pivot wavenumber at the end of inflation."""
        return self.q_R / self.a_L

    @classmethod
    def from_physical(cls, q_R_mpc_inv: float = DEFAULT_QR_MPC_INV,
                      z_L: float = DEFAULT_Z_L) -> "CosmoConstants":
        return cls(q_R=q_R_mpc_inv / MPC_IN_INV_GEV, a_L=1.0 / (z_L + 1.0))


DEFAULT_CONSTANTS = CosmoConstants.from_physical()


@dataclass(frozen=True)
class HorizonExit:
    """Solved exit point for one mode.

    residual is efolds_to_end(t_exit) - ln(H(t_exit)/(q/a_I)), which the
    solver drives below 1e-6.
    """

    t_exit: float          # GeV^-1
    phi_exit: float        # GeV
    H_exit: float          # GeV
    residual: float
    efolds_to_end: float
    q_over_aI: float       # GeV


def log_q_over_aH(sol: BackgroundSolution, q_over_aI: float, t) -> np.ndarray:
    """ln of q/(a(t) H(t)) = ln(q/a_I) + efolds_to_end(t) - ln H(t); log-space
    because efolds_to_end reaches ~5000.

    Every crossing search calls it at each Brent iteration, so it evaluates
    the stored dense output once, at t alone: the e-fold count and H both come
    from that state, and the count at t_I is the one end_of_inflation caches.
    The value is the one sol.efolds_to_end and sol.hubble give, bit for bit.
    """
    sol.end_of_inflation()
    f, g, N = sol._state(sol._tau_of(t))
    return (math.log(q_over_aI) + (sol._N_I - N)
            - np.log(sol._coeffs.hubble(f, g) * HUBBLE_UNIT))


def solve_exit_general(sol: BackgroundSolution, q_over_aI: float) -> HorizonExit:
    """Find t with efolds_to_end(t) = ln(H(t)/(q/a_I)) by bracketed refinement.

    The bracket is the first sign change of ln(q/(aH)) on the storage grid,
    where the mismatch is smooth and monotone through the crossing.
    """
    if not 0 < q_over_aI < math.inf:       # also false for NaN
        raise ValueError(f"q_over_aI must be positive and finite, got {q_over_aI!r}")
    mismatch = partial(log_q_over_aH, sol, q_over_aI)
    t_exit = sol.first_crossing(mismatch, sol.t_start, sol.end_of_inflation())
    if t_exit is None:
        raise NoHorizonExit(
            f"q/a_I = {q_over_aI:.3e} GeV never satisfies the exit condition; "
            "parameters produce insufficient inflation in range")
    return HorizonExit(
        t_exit=float(t_exit),
        phi_exit=float(sol.phi(t_exit)),
        H_exit=float(sol.hubble(t_exit)),
        residual=float(mismatch(t_exit)),
        efolds_to_end=float(sol.efolds_to_end(t_exit)),
        q_over_aI=float(q_over_aI),
    )


def solve_exit_reference(sol: BackgroundSolution,
                         consts: CosmoConstants = DEFAULT_CONSTANTS) -> HorizonExit:
    """Exit of the pivot mode q_R."""
    return solve_exit_general(sol, consts.q_R_over_aI)
