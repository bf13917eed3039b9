"""Slow-roll functions, primordial spectra and comparison against survey targets.

The spectral report is built from the potential-shape functions at a horizon
exit:

    epsilon = (V'/V)^2 / (16 pi G)
    delta   = (V'^2/V^2 - 2 V''/V) / (16 pi G)

with the amplitude/tilt identities n_s = 1 - 4 eps - 2 delta, n_T = -2 eps,
[N_S]^2 = G H^2 / (4 pi^2 eps), [N_T]^2 = G H^2 / pi^2 and r = 16 eps held
exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .horizon import HorizonExit
from .perturbations import GravityMode
from .potential import PotentialParams, potential, potential_d1, potential_d2


class SlowRollDomainError(ValueError):
    """V(phi) <= 0: outside the slow-roll domain."""


def slow_roll_functions(params: PotentialParams, phi: float) -> tuple[float, float]:
    """(epsilon, delta) at field value phi.  Requires V(phi) > 0.

    The quartic is a perfect square, so "outside the domain" means at (or
    numerically indistinguishable from) the minimum, where V'/V diverges.
    """
    V = potential(params, phi)
    v2 = params.kappa**2 / params.lam
    floor = 1e-13 * 0.25 * params.lam * np.asarray(phi * phi + v2) ** 2
    outside = np.asarray(V) <= floor
    if np.any(outside):
        at = np.asarray(phi, dtype=float)[outside][0]
        raise SlowRollDomainError(f"V(phi) vanishes at phi = {at:g}")
    Vp = potential_d1(params, phi)
    Vpp = potential_d2(params, phi)
    pref = 1.0 / (16 * np.pi * params.G)
    eps = pref * (Vp / V) ** 2
    delta = pref * ((Vp / V) ** 2 - 2 * Vpp / V)
    return eps, delta


@dataclass(frozen=True)
class SlowRollReport:
    """Spectral observables at one horizon exit, as spectra_report builds them:
    epsilon and delta at the exit's field value, and the amplitudes from the
    exit's H, so NT2 / NS2 = 4 epsilon holds by construction with the tensor
    sector on.  The tilts and r follow from epsilon, delta and the gravity mode."""

    epsilon: float
    delta: float
    NS2: float            # scalar amplitude [N_S]^2
    NT2: float            # tensor amplitude [N_T]^2
    exit: HorizonExit
    gravity: GravityMode = GravityMode.QUANTUM

    @property
    def n_s(self) -> float:
        return 1 - 4 * self.epsilon - 2 * self.delta

    @property
    def n_T(self) -> float:
        return -2 * self.epsilon

    @property
    def r(self) -> float:
        """Tensor-to-scalar ratio: zero with the tensor sector off (classical gravity)."""
        return 16 * self.epsilon if self.gravity is GravityMode.QUANTUM else 0.0

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon, "delta": self.delta,
            "n_s": self.n_s, "n_T": self.n_T,
            "NS2": self.NS2, "NT2": self.NT2, "r": self.r,
            "t_exit_gev_inv": self.exit.t_exit, "phi_exit_gev": self.exit.phi_exit,
            "H_exit_gev": self.exit.H_exit, "gravity": self.gravity.value,
        }


def spectra_report(params: PotentialParams, exit: HorizonExit,
                   gravity: GravityMode = GravityMode.QUANTUM) -> SlowRollReport:
    """Populate the full report at a solved exit.

    In classical-gravity mode the tensor sector is switched off: the tensor
    amplitude and r are identically zero while the scalar sector is kept.
    """
    eps, delta = slow_roll_functions(params, exit.phi_exit)
    NS2 = params.G * exit.H_exit**2 / (4 * np.pi**2 * eps)
    NT2 = 0.0 if gravity is GravityMode.CLASSICAL else params.G * exit.H_exit**2 / np.pi**2
    return SlowRollReport(epsilon=eps, delta=delta, NS2=NS2, NT2=NT2, exit=exit,
                          gravity=gravity)


# survey values the report is graded against: (target, sigma) per observable
SURVEY_TARGETS = {"n_s": (0.966, 0.003), "NS2": (1.93e-10, 0.12e-10)}
R_BOUND = 0.032         # upper bound on the tensor-to-scalar ratio r


def compare_targets(report: SlowRollReport) -> dict:
    """Per-observable z-scores against SURVEY_TARGETS plus the tensor-ratio bound
    verdict, as observables.json carries them under "targets"."""
    records = []
    for name, (target, sigma) in SURVEY_TARGETS.items():
        value = getattr(report, name)
        z = (value - target) / sigma
        records.append({"name": name, "value": value, "target": target,
                        "sigma": sigma, "z": z, "within_2sigma": abs(z) <= 2})
    return {"records": records, "r": report.r, "r_bound": R_BOUND,
            "r_bound_violated": report.r >= R_BOUND}
