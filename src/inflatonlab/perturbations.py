"""Newton-gauge perturbation modes on a frozen background.

Scalar sector: the coupled system

    chidd + 3 H chid + (V''(phib) + q^2/a^2) chi = -2 Psi V'(phib) + 4 Psid phibd
    Psid + H Psi = 4 pi G phibd chi

is evolved from WKB data deep inside the horizon, with the energy constraint

    (Hd + q^2/a^2) Psi = 4 pi G (phibdd chi - phibd chid)

monitored along the run.  The curvature amplitude R = -Psi + H chi / phibd
freezes once the mode is far outside the horizon; its plateau value is the
quantity handed to the spectra.

Tensor sector: Ddd + 3 H Dd + (q^2/a^2) D = 0 with the graviton WKB
normalization; the bilinear a^3 (D Dd* - D* Dd) is exactly conserved and is
tracked as an integration-quality gauge.

The classical-gravity switch removes the metric degrees of freedom: tensor
amplitudes are identically zero and the scalar equation loses its Psi source,
which leaves the frozen curvature amplitude essentially unchanged.

Modes are integrated in normalized variables (initial amplitude 1) with the
exact WKB prefactors reattached afterwards, so the stored trajectories carry
physical normalization without ever pushing floats near their range limits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .background import BackgroundSolution
from .constants import TWO_PI
from .horizon import DEFAULT_CONSTANTS, CosmoConstants, log_q_over_aH

DEFAULT_X_START = 100.0   # q/(aH) at which WKB data is imposed
DEFAULT_X_END = 0.01      # q/(aH) at which the mode is declared frozen
FREEZE_RATE_LIMIT = 1e-3  # |dR/dt| < limit * H |R| defines the plateau


class ModeError(RuntimeError):
    """Mode integration could not satisfy its contract."""


class GravityMode(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


# --- shared helpers -----------------------------------------------------------

def _window(sol: BackgroundSolution, q_over_aI: float, x_start: float, x_end: float):
    """Times at which q/(aH) crosses x_start and x_end (log-space brackets)."""
    t_I = sol.end_of_inflation()

    def crossing(level):
        # q/(aH) = level is the exit condition of the wavenumber q/level
        t = sol.first_crossing(partial(log_q_over_aH, sol, q_over_aI / level), sol.t_start, t_I)
        if t is None:
            raise ModeError(
                f"q/(aH) never reaches {level:g} before the end of inflation")
        return t

    t_a = crossing(x_start)
    t_b = crossing(x_end)
    if not t_a < t_b:
        raise ModeError("degenerate mode window")
    return t_a, t_b


def _wkb_phase_rate(sol, t, q_over_aI):
    """-(H + i q/a) — logarithmic time derivative of the WKB mode."""
    H = float(sol.hubble(t))
    q_over_a = q_over_aI * math.exp(float(sol.efolds_to_end(t)))
    return -(H + 1j * q_over_a)


def scalar_initial_data(sol: BackgroundSolution, q: float, t0: float,
                        consts: CosmoConstants = DEFAULT_CONSTANTS):
    """WKB initial values (chi, chidot, psi) for a scalar mode at time t0.

    Valid deep inside the horizon; the accumulated phase convention puts the
    mode real and positive at t0 (only |R| is physical).  Rejects t0 with
    q/(aH) < 100.
    """
    q_over_aI = q / consts.a_L
    H0 = float(sol.hubble(t0))
    q_over_a = q_over_aI * math.exp(float(sol.efolds_to_end(t0)))
    if q_over_a / H0 < DEFAULT_X_START * (1 - 1e-9):
        raise ModeError(f"t0 has q/(aH) = {q_over_a / H0:.1f} < {DEFAULT_X_START:g}; "
                        "not deep enough inside the horizon")
    a0 = q / q_over_a
    chi = 1.0 / (TWO_PI**1.5 * a0 * math.sqrt(2 * q))
    chidot = _wkb_phase_rate(sol, t0, q_over_aI) * chi
    phidot0 = float(sol.phidot(t0))
    psi = 1j * 4 * math.pi * sol.params.G * phidot0 * chi / q_over_a
    return chi, chidot, psi


# --- scalar mode ----------------------------------------------------------------

@dataclass
class ScalarMode:
    """Scalar mode trajectory with frozen curvature amplitude.

    Arrays are in physical normalization: chi in GeV^(-1/2), psi and R in
    GeV^(-3/2), times in GeV^-1.
    """

    q: float
    gravity: str
    t: np.ndarray
    chi: np.ndarray
    chidot: np.ndarray
    psi: np.ndarray
    R: np.ndarray
    q_over_aH: np.ndarray
    R_plateau: complex
    frozen: bool
    constraint_residual_max: float
    t_start: float
    t_end: float


def integrate_scalar(sol: BackgroundSolution, q: float,
                     consts: CosmoConstants = DEFAULT_CONSTANTS,
                     x_start: float = DEFAULT_X_START,
                     x_end: float = DEFAULT_X_END,
                     rtol: float = 1e-10, atol: float = 1e-12,
                     gravity: GravityMode = GravityMode.QUANTUM,
                     n_output: int = 800) -> ScalarMode:
    """Evolve (chi, chidot, Psi) for mode q from q/(aH)=x_start to x_end.

    Psi(t0) is fixed from the energy constraint evaluated on the WKB field
    data, so the constraint holds exactly at the start and its residual stays
    at integration-error level for the whole run.  In classical-gravity mode
    Psi is identically zero and the field equation is source-free.
    """
    scales = sol.scales
    T0, F0, HU = scales.time_unit, scales.field_unit, scales.hubble_unit
    Rrate = scales.efold_rate
    params = sol.params
    q_over_aI = q / consts.a_L

    t_a, t_b = _window(sol, q_over_aI, x_start, x_end)
    tau_a, tau_b = t_a / T0, t_b / T0

    co = sol._coeffs
    K1, K2 = co.k1, co.k2
    FOURPIG_F2 = 4 * math.pi * params.G * F0**2
    lq = math.log(q_over_aI * T0)
    N_I = float(sol.efolds_from_start(sol.end_of_inflation()))

    def bgvals(tau):
        f = float(sol._f(tau))
        g = float(sol._g(tau))
        h = float(sol._coeffs.hubble(f, g))
        Qv = math.exp(lq + N_I - float(sol._N(tau)))   # (q/a) * T0
        return f, g, h, Qv

    f_a, g_a, h_a, Qt0 = bgvals(tau_a)
    W = FOURPIG_F2 * g_a / Qt0      # eta * F0, dimensionless
    gpsi = Qt0 / g_a                # source coefficient of the Psi equation

    def rhs(tau, y):
        c = y[0] + 1j * y[1]
        cp = y[2] + 1j * y[3]
        P = y[4] + 1j * y[5]
        f, g, h, Qv = bgvals(tau)
        if gravity is GravityMode.CLASSICAL:
            cpp = -3 * Rrate * h * cp - (-K1 + 3 * K2 * f * f + Qv * Qv) * c
            return [cp.real, cp.imag, cpp.real, cpp.imag, 0.0, 0.0]
        Pp = -Rrate * h * P + gpsi * g * c
        Vp_s = -K1 * f + K2 * f**3
        cpp = (-3 * Rrate * h * cp
               - (-K1 + 3 * K2 * f * f + Qv * Qv) * c
               - 2 * W * Vp_s * P + 4 * W * g * Pp)
        return [cp.real, cp.imag, cpp.real, cpp.imag, Pp.real, Pp.imag]

    # normalized initial data: c = 1, c' = -(H + i q/a) scaled, P from the constraint
    c0 = 1.0 + 0j
    cp0 = -(Rrate * h_a + 1j * Qt0)
    if gravity is GravityMode.CLASSICAL:
        P0 = 0j
    else:
        fpp_a = -3 * Rrate * h_a * g_a + K1 * f_a - K2 * f_a**3
        P0 = gpsi * (fpp_a * c0 - g_a * cp0) / (-FOURPIG_F2 * g_a**2 + Qt0 * Qt0)

    y0 = [c0.real, c0.imag, cp0.real, cp0.imag, P0.real, P0.imag]
    msol = solve_ivp(rhs, (tau_a, tau_b), y0, method="DOP853",
                     rtol=rtol, atol=atol, dense_output=True)
    if not msol.success:
        raise ModeError(f"scalar mode solver failed: {msol.message}")

    taus = np.linspace(tau_a, tau_b, n_output)
    Y = msol.sol(taus)
    c = Y[0] + 1j * Y[1]
    cp = Y[2] + 1j * Y[3]
    P = Y[4] + 1j * Y[5]

    bgv = np.array([bgvals(t) for t in taus])
    f_t, g_t, h_t, Qv_t = bgv.T

    # physical normalization
    a0 = q / (q_over_aI * math.exp(N_I - float(sol._N(tau_a))))
    chi0 = 1.0 / (TWO_PI**1.5 * a0 * math.sqrt(2 * q))
    eta = W / F0
    chi = chi0 * c
    chidot = chi0 * cp / T0
    psi = eta * chi0 * P
    Rcurv = (chi0 / F0) * (-W * P + Rrate * (h_t / g_t) * c)

    # energy-constraint residual, normalized by the largest participating term
    if gravity is GravityMode.CLASSICAL:
        res_max = 0.0
    else:
        fpp_t = -3 * Rrate * h_t * g_t + K1 * f_t - K2 * f_t**3
        term_psi = (-FOURPIG_F2 * g_t**2 + Qv_t**2) * P
        term_field = -gpsi * (fpp_t * c - g_t * cp)
        res = np.abs(term_psi + term_field) / np.maximum(np.abs(term_psi), np.abs(term_field))
        res_max = float(res.max())

    # plateau detection on the curvature amplitude; the extraction window is
    # restricted to |phidot| above 1e-6 of its running maximum (removable
    # singularity of chi/phidot near the oscillation phase, never reached here).
    # Without the metric degree of freedom the super-horizon combination
    # H chi/phidot keeps an adiabatic drift of order epsilon*H, so the
    # classical branch gets a freeze allowance scaled to that drift.
    gmax = np.maximum.accumulate(np.abs(g_t))
    valid = np.abs(g_t) > 1e-6 * gmax
    dR = np.gradient(Rcurv, taus)
    rate = np.abs(dR) / (Rrate * h_t * np.abs(Rcurv))
    limit = FREEZE_RATE_LIMIT if gravity is GravityMode.QUANTUM else 10 * FREEZE_RATE_LIMIT
    frozen = bool(valid[-1] and rate[-1] < limit)
    if not frozen:
        raise ModeError("curvature amplitude did not reach its plateau before "
                        "the end of inflation")
    R_plateau = complex(Rcurv[-1])

    x_t = Qv_t / (Rrate * h_t)
    return ScalarMode(
        q=q, gravity=gravity.value,
        t=taus * T0, chi=chi, chidot=chidot, psi=psi, R=Rcurv,
        q_over_aH=x_t, R_plateau=R_plateau, frozen=frozen,
        constraint_residual_max=res_max, t_start=t_a, t_end=t_b,
    )


# --- tensor mode -----------------------------------------------------------------

@dataclass
class TensorMode:
    """Tensor mode trajectory with frozen amplitude and Wronskian drift."""

    q: float
    gravity: str
    t: np.ndarray
    D: np.ndarray
    Ddot: np.ndarray
    q_over_aH: np.ndarray
    D_plateau: complex
    frozen: bool
    wronskian_drift: float
    t_start: float
    t_end: float


def integrate_tensor(sol: BackgroundSolution, q: float,
                     consts: CosmoConstants = DEFAULT_CONSTANTS,
                     x_start: float = DEFAULT_X_START,
                     x_end: float = DEFAULT_X_END,
                     rtol: float = 1e-10, atol: float = 1e-12,
                     gravity: GravityMode = GravityMode.QUANTUM,
                     n_output: int = 800) -> TensorMode:
    """Evolve the tensor amplitude D_q through horizon exit.

    In classical-gravity mode the tensor sector carries no quantum amplitude
    and the returned mode is identically zero.
    """
    scales = sol.scales
    T0 = scales.time_unit
    Rrate = scales.efold_rate
    q_over_aI = q / consts.a_L
    t_a, t_b = _window(sol, q_over_aI, x_start, x_end)

    if gravity is GravityMode.CLASSICAL:
        taus = np.linspace(t_a / T0, t_b / T0, n_output)
        zeros = np.zeros(n_output, dtype=complex)
        N_I = float(sol.efolds_from_start(sol.end_of_inflation()))
        Qv = (q_over_aI * T0) * np.exp(N_I - sol._N(taus))
        x_t = Qv / (Rrate * sol._coeffs.hubble(sol._f(taus), sol._g(taus)))
        return TensorMode(q=q, gravity=gravity.value, t=taus * T0,
                          D=zeros, Ddot=zeros, q_over_aH=x_t,
                          D_plateau=0j, frozen=True, wronskian_drift=0.0,
                          t_start=t_a, t_end=t_b)

    tau_a, tau_b = t_a / T0, t_b / T0
    lq = math.log(q_over_aI * T0)
    N_I = float(sol.efolds_from_start(sol.end_of_inflation()))

    def bgvals(tau):
        f = float(sol._f(tau))
        g = float(sol._g(tau))
        h = float(sol._coeffs.hubble(f, g))
        Qv = math.exp(lq + N_I - float(sol._N(tau)))
        return h, Qv

    h_a, Qt0 = bgvals(tau_a)

    def rhs(tau, y):
        d = y[0] + 1j * y[1]
        dp = y[2] + 1j * y[3]
        h, Qv = bgvals(tau)
        dpp = -3 * Rrate * h * dp - Qv * Qv * d
        return [dp.real, dp.imag, dpp.real, dpp.imag]

    dp0 = -(Rrate * h_a + 1j * Qt0)
    msol = solve_ivp(rhs, (tau_a, tau_b), [1.0, 0.0, dp0.real, dp0.imag],
                     method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    if not msol.success:
        raise ModeError(f"tensor mode solver failed: {msol.message}")

    taus = np.linspace(tau_a, tau_b, n_output)
    Y = msol.sol(taus)
    d = Y[0] + 1j * Y[1]
    dp = Y[2] + 1j * Y[3]
    bgv = np.array([bgvals(t) for t in taus])
    h_t, Qv_t = bgv.T

    # conserved bilinear in normalized variables: atilde^3 Im(conj(d) d'),
    # measured at the solver's own accepted nodes (interpolation-free)
    dn = msol.y[0] + 1j * msol.y[1]
    dpn = msol.y[2] + 1j * msol.y[3]
    atilde3 = np.exp(3.0 * (sol._N(msol.t) - float(sol._N(tau_a))))
    w = atilde3 * (np.conj(dn) * dpn).imag
    drift = float(np.max(np.abs(w / w[0] - 1.0)))

    a0 = q / (q_over_aI * math.exp(N_I - float(sol._N(tau_a))))
    amp0 = math.sqrt(16 * math.pi * sol.params.G) / (TWO_PI**1.5 * math.sqrt(2 * q) * a0)
    D = amp0 * d
    Ddot = amp0 * dp / T0

    dD = np.gradient(D, taus)
    rate = np.abs(dD) / (Rrate * h_t * np.abs(D))
    frozen = bool(rate[-1] < FREEZE_RATE_LIMIT)
    if not frozen:
        raise ModeError("tensor amplitude did not reach its plateau before "
                        "the end of inflation")

    return TensorMode(
        q=q, gravity=gravity.value, t=taus * T0, D=D, Ddot=Ddot,
        q_over_aH=Qv_t / (Rrate * h_t), D_plateau=complex(D[-1]),
        frozen=frozen, wronskian_drift=drift, t_start=t_a, t_end=t_b,
    )


def tensor_wronskian(sol: BackgroundSolution, mode: TensorMode,
                     consts: CosmoConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Physical conserved bilinear a^3 (D Ddot* - D* Ddot) along the trajectory.

    Equals i 16 pi G / (2 pi)^3 for a correctly normalized quantum mode.
    """
    a = consts.a_L * np.exp(-sol.efolds_to_end(mode.t))
    return a**3 * (mode.D * np.conj(mode.Ddot) - np.conj(mode.D) * mode.Ddot)


def vector_mode_decay(sol: BackgroundSolution, c_j: float, t,
                      consts: CosmoConstants = DEFAULT_CONSTANTS):
    """Vector-mode amplitude c_j / a(t)^2 (pure dilution, no dynamics)."""
    a = consts.a_L * np.exp(-sol.efolds_to_end(t))
    return c_j / a**2
