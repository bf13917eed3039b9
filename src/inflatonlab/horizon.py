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

from .background import BackgroundSolution
from .constants import MPC_IN_INV_GEV

DEFAULT_QR_MPC_INV = 0.05
DEFAULT_Z_L = 1089.0
EXIT_RESIDUAL_MAX = 1e-6    # |residual| of a solved exit stays below it


class NoHorizonExit(RuntimeError):
    """No exit is found: the exit condition has no sign change (not enough
    inflation in range), or the refined root leaves a residual of at least
    EXIT_RESIDUAL_MAX."""


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
        if not z_L > -1:
            raise ValueError(f"z_L must exceed -1, where a_L = 1/(1 + z_L) > 0, got {z_L!r}")
        return cls(q_R=q_R_mpc_inv / MPC_IN_INV_GEV, a_L=1.0 / (z_L + 1.0))


DEFAULT_CONSTANTS = CosmoConstants.from_physical()


@dataclass(frozen=True)
class HorizonExit:
    """Solved exit point for one mode.

    residual is efolds_to_end(t_exit) - ln(H(t_exit)/(q/a_I)), which the
    solver drives below EXIT_RESIDUAL_MAX in magnitude.
    """

    t_exit: float          # GeV^-1
    phi_exit: float        # GeV
    H_exit: float          # GeV
    residual: float
    efolds_to_end: float
    q_over_aI: float       # GeV


def solve_exit_general(sol: BackgroundSolution, q_over_aI: float) -> HorizonExit:
    """Find t with efolds_to_end(t) = ln(H(t)/(q/a_I)) by bracketed refinement.

    The bracket is the first sign change of ln(q/(aH)) on the storage grid,
    where the mismatch is smooth and monotone through the crossing.  Raises
    NoHorizonExit when there is no sign change, or when the root leaves a
    residual of EXIT_RESIDUAL_MAX or more.
    """
    if not 0 < q_over_aI < math.inf:       # also false for NaN
        raise ValueError(f"q_over_aI must be positive and finite, got {q_over_aI!r}")
    mismatch = partial(sol.log_q_over_aH, q_over_aI)
    t_exit = sol.first_crossing(mismatch, sol.t_start, sol.end_of_inflation())
    if t_exit is None:
        raise NoHorizonExit(
            f"q/a_I = {q_over_aI:.3e} GeV never satisfies the exit condition; "
            "parameters produce insufficient inflation in range")
    residual = float(mismatch(t_exit))
    if not abs(residual) < EXIT_RESIDUAL_MAX:      # also true for NaN
        raise NoHorizonExit(
            f"q/a_I = {q_over_aI:.3e} GeV: the exit at t = {t_exit:.6e} GeV^-1 leaves "
            f"a residual of {residual:.3e}, not below {EXIT_RESIDUAL_MAX:g}")
    return HorizonExit(
        t_exit=float(t_exit),
        phi_exit=float(sol.phi(t_exit)),
        H_exit=float(sol.hubble(t_exit)),
        residual=residual,
        efolds_to_end=float(sol.efolds_to_end(t_exit)),
        q_over_aI=float(q_over_aI),
    )


def solve_exit_reference(sol: BackgroundSolution,
                         consts: CosmoConstants = DEFAULT_CONSTANTS) -> HorizonExit:
    """Exit of the pivot mode q_R."""
    return solve_exit_general(sol, consts.q_R_over_aI)
