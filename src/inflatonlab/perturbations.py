"""Newton-gauge perturbation modes on a co-evolved background.

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

Classical gravity is zero metric coupling: Psi's couplings vanish, so Psi
stays zero and the field equation loses its source, which leaves the frozen
curvature amplitude essentially unchanged; tensor amplitudes are zero.

Each mode carries its own background: (phi, phidot) and the e-folds n since
the window start t_a ride along in the mode's ODE state.  They are seeded
once from the stored solution at t_a and advanced by the same equations the
background solve uses, so the coefficients a mode sees solve the background
ODE to the mode's own tolerance, and q/a = (q/a)(t_a) e^{-n} needs no lookup.
Modes and background go through the same DOP853 stepper (_dop853), whose
right-hand sides take and return plain floats; the stored trajectory is
sampled from the mode's own dense output.  Modes solve at their background's
tolerances (sol.rtol, sol.atol) over q/(aH) from X_START to X_END.

The mode right-hand sides close over Python floats only (q is read as a
float, whatever its type) and carry each complex mode variable as a (real,
imaginary) pair: the coefficients are real, so both parts obey the same real
equations, written with the operation order of the complex form and so
rounded as it rounds them.

Modes are integrated in normalized variables (initial amplitude 1) with the
exact WKB prefactors reattached afterwards, so the stored trajectories carry
physical normalization without ever pushing floats near their range limits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _dop853
from .background import BackgroundSolution
from .constants import FIELD_UNIT, TIME_UNIT, TWO_PI
from .horizon import DEFAULT_CONSTANTS, CosmoConstants, log_q_over_aH

X_START = 100.0   # q/(aH) at which WKB data is imposed
X_END = 0.01      # q/(aH) at which the mode is declared frozen
FREEZE_RATE_LIMIT = 1e-3  # |dR/dt| < limit * H |R| defines the plateau
N_OUTPUT = 800            # samples stored per mode trajectory


class ModeError(RuntimeError):
    """Mode integration could not satisfy its contract."""


class GravityMode(enum.Enum):
    QUANTUM = "quantum"
    CLASSICAL = "classical"


# --- shared helpers -----------------------------------------------------------

class _Window(NamedTuple):
    """Mode window, the scaled background seed at its start and the WKB start."""

    t_a: float          # GeV^-1
    t_b: float
    seed: list          # scaled (f, g, n = 0) at t_a
    rates: list         # scaled background rates (f', g', n') at t_a
    Qt0: float          # (q/a) * time_unit at t_a
    a0: float           # a(t_a), with a(t_I) = a_L
    wkb: complex        # c'/c = -(H + i q/a) at t_a, scaled; read by both modes


def _window(sol: BackgroundSolution, q: float, consts: CosmoConstants) -> _Window:
    """Times at which q/(aH) crosses X_START and X_END, and the data at the first;
    q is read as a float, so every number in the window is one."""
    q = float(q)
    if not 0 < q < math.inf:                # also false for NaN
        raise ValueError(f"q must be positive and finite, got {q!r}")
    q_over_aI = q / consts.a_L
    t_I = sol.end_of_inflation()

    def crossing(level):
        # ln(q/(aH)) - ln(level) changes sign
        log_level = math.log(level)
        t = sol.first_crossing(lambda t: log_q_over_aH(sol, q_over_aI, t) - log_level,
                               sol.t_start, t_I)
        if t is None:
            raise ModeError(
                f"q/(aH) never reaches {level:g} before the end of inflation")
        return t

    t_a = crossing(X_START)
    t_b = crossing(X_END)
    if not t_a < t_b:
        raise ModeError("degenerate mode window")
    try:
        q_over_a = q_over_aI * math.exp(float(sol.efolds_to_end(t_a)))
    except OverflowError:
        raise ModeError(f"a_I/a at the window start overflows the float range; "
                        f"q = {q:g} GeV is too small") from None
    f, g, _ = sol._state(t_a / TIME_UNIT)
    seed = [float(f), float(g), 0.0]
    # background derivatives (f', g', n') = (g, phi double-dot, 100 h), scaled
    rates = sol._coeffs.rhs(t_a / TIME_UNIT, seed)
    Qt0 = q_over_a * TIME_UNIT
    return _Window(t_a, t_b, seed, rates, Qt0, q / q_over_a, -(rates[2] + 1j * Qt0))


class _Run(NamedTuple):
    """One mode solved across its window and sampled at N_OUTPUT times."""

    taus: np.ndarray    # scaled sample times
    z: np.ndarray       # complex mode variables, one row each
    bg: np.ndarray      # carried background rows (f, g, n)
    rates: np.ndarray   # background rate rows (f', g', n')
    x: np.ndarray       # q/(aH)
    z_nodes: np.ndarray  # z and n at the solver's accepted steps
    n_nodes: np.ndarray


def _evolve(sol: BackgroundSolution, rhs, w: _Window, z0: list, what: str) -> _Run:
    """Integrate one mode with its background across the scaled window, at
    the tolerances the background was solved with.

    The mode variables z0 start complex and travel as (real, imaginary)
    float pairs ahead of the background (f, g, n); rhs works on that state
    and closes over floats only, so every number it reads is a float.
    """
    tau_a, tau_b = w.t_a / TIME_UNIT, w.t_b / TIME_UNIT
    y0 = [part for z in z0 for part in (z.real, z.imag)] + w.seed
    try:
        steps = _dop853.solve(rhs, tau_a, tau_b, y0, sol.rtol, sol.atol)
    except _dop853.StepFailure as exc:
        raise ModeError(f"{what} mode solver failed near t = {exc.t * TIME_UNIT:g}: "
                        f"{exc}") from None
    m = 2 * len(z0)

    def split(Y):
        return Y[0:m:2] + 1j * Y[1:m:2], Y[m:]

    taus = np.linspace(tau_a, tau_b, N_OUTPUT)
    z, bg = split(_dop853.evaluate(steps.t, steps.y, steps.F, taus))
    z_nodes, bg_nodes = split(steps.y)
    rates = np.array([sol._coeffs.rhs(tau, y) for tau, y in zip(taus.tolist(), bg.T.tolist())]).T
    return _Run(taus, z, bg, rates, w.Qt0 * np.exp(-bg[2]) / rates[2], z_nodes, bg_nodes[2])


def _wkb_scale(num: float, den: float, q: float) -> float:
    """num / den, the prefactor that restores mode q's physical normalization;
    ModeError where den, which carries a sqrt(2q), underflowed to zero."""
    if den == 0.0:
        raise ModeError(f"a sqrt(2q) underflows to zero; q = {q:g} GeV is too small")
    return num / den


def _check_finite(q: float, *arrays: np.ndarray) -> None:
    """Raise ModeError unless every physical array of mode q is finite."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise ModeError(f"physical normalization overflows; q = {q:g} GeV is too small")


def _check_frozen(amplitude: np.ndarray, run: _Run, limit: float, what: str) -> None:
    """Raise ModeError unless |d amplitude/dt| < limit * H |amplitude| at the
    window's end; a limit of 0 fails every amplitude."""
    rate = abs(np.gradient(amplitude, run.taus)[-1]) / (run.rates[2][-1] * abs(amplitude[-1]))
    if not rate < limit:
        raise ModeError(f"{what} did not reach its plateau before the end of inflation")


# --- scalar mode ----------------------------------------------------------------

@dataclass
class ScalarMode:
    """Scalar mode trajectory with frozen curvature amplitude.

    Arrays are in physical normalization: chi in GeV^(-1/2), psi and R in
    GeV^(-3/2), times in GeV^-1.
    """

    q: float
    t: np.ndarray
    chi: np.ndarray
    chidot: np.ndarray
    psi: np.ndarray
    R: np.ndarray
    q_over_aH: np.ndarray
    R_plateau: complex
    constraint_residual_max: float
    t_start: float
    t_end: float


def integrate_scalar(sol: BackgroundSolution, q: float,
                     consts: CosmoConstants = DEFAULT_CONSTANTS,
                     gravity: GravityMode = GravityMode.QUANTUM) -> ScalarMode:
    """Evolve (chi, chidot, Psi) for mode q from q/(aH) = X_START to X_END.

    Psi(t0) is fixed from the energy constraint evaluated on the WKB field
    data, so the constraint holds exactly at the start and its residual stays
    at integration-error level for the whole run.  In classical-gravity mode
    Psi's couplings are zero: Psi stays zero and the field equation is source-free.
    """
    T0, F0 = TIME_UNIT, FIELD_UNIT
    co = sol._coeffs
    K1, K2 = co.k1, co.k2
    FOURPIG_F2 = 4 * math.pi * sol.params.G * F0**2

    w = _window(sol, q, consts)
    Qt0 = w.Qt0
    g_a = w.seed[1]
    quantum = gravity is GravityMode.QUANTUM
    W = FOURPIG_F2 * g_a / Qt0 if quantum else 0.0    # eta * F0, dimensionless
    gpsi = Qt0 / g_a if quantum else 0.0             # source coefficient of the Psi equation

    def rhs(tau, y):
        # (c, c', P) as real pairs; the complex form is
        # P' = -N' P + gpsi g c,  c'' = -3 N' c' - m c - 2 W V' P + 4 W g P'
        c_r, c_i, cp_r, cp_i, P_r, P_i, f, g, n = y
        bg = co.rhs(tau, y[6:])
        Np = bg[2]
        Qv = Qt0 * math.exp(-n)
        src = gpsi * g
        Pp_r = -Np * P_r + src * c_r
        Pp_i = -Np * P_i + src * c_i
        Vp_s = -K1 * f + K2 * f**3
        damp = -3 * Np
        mass = -K1 + 3 * K2 * f * f + Qv * Qv
        k_P = 2 * W * Vp_s
        k_Pp = 4 * W * g
        return [cp_r, cp_i,
                damp * cp_r - mass * c_r - k_P * P_r + k_Pp * Pp_r,
                damp * cp_i - mass * c_i - k_P * P_i + k_Pp * Pp_i,
                Pp_r, Pp_i, *bg]

    # normalized initial data: c = 1, c' = WKB start, P from the constraint
    P0 = gpsi * (w.rates[1] - g_a * w.wkb) / (-FOURPIG_F2 * g_a**2 + Qt0 * Qt0)
    run = _evolve(sol, rhs, w, [1.0 + 0j, w.wkb, P0], "scalar")
    c, cp, P = run.z
    g_t = run.bg[1]
    _, gp_t, Np_t = run.rates

    # physical normalization
    chi0 = _wkb_scale(1.0, TWO_PI**1.5 * w.a0 * math.sqrt(2 * q), q)
    with np.errstate(over="ignore", invalid="ignore"):   # _check_finite names the failure
        chi = chi0 * c
        chidot = chi0 * cp / T0
        psi = (W / F0) * chi0 * P
        Rcurv = (chi0 / F0) * (-W * P + (Np_t / g_t) * c)
    _check_finite(q, chi, chidot, psi, Rcurv)

    # energy-constraint residual, normalized by the largest participating term;
    # both terms vanish identically under classical gravity
    res_max = 0.0
    if quantum:
        term_psi = (-FOURPIG_F2 * g_t**2 + (Qt0 * np.exp(-run.bg[2]))**2) * P
        term_field = -gpsi * (gp_t * c - g_t * cp)
        res = np.abs(term_psi + term_field) / np.maximum(np.abs(term_psi), np.abs(term_field))
        res_max = float(res.max())

    # the plateau test is trusted only while |phidot| stays above 1e-6 of its
    # maximum (removable singularity of chi/phidot near the oscillation
    # phase, never reached here).  Without the metric degree of freedom the
    # super-horizon combination H chi/phidot keeps an adiabatic drift of
    # order epsilon*H, so the classical branch gets a freeze allowance scaled
    # to that drift.
    limit = FREEZE_RATE_LIMIT if quantum else 10 * FREEZE_RATE_LIMIT
    trusted = abs(g_t[-1]) > 1e-6 * np.abs(g_t).max()
    _check_frozen(Rcurv, run, limit if trusted else 0.0, "curvature amplitude")

    return ScalarMode(
        q=q, t=run.taus * T0, chi=chi, chidot=chidot, psi=psi, R=Rcurv,
        q_over_aH=run.x, R_plateau=complex(Rcurv[-1]),
        constraint_residual_max=res_max, t_start=w.t_a, t_end=w.t_b,
    )


# --- tensor mode -----------------------------------------------------------------

@dataclass
class TensorMode:
    """Tensor mode trajectory with frozen amplitude and Wronskian drift."""

    q: float
    t: np.ndarray
    D: np.ndarray
    Ddot: np.ndarray
    q_over_aH: np.ndarray
    D_plateau: complex
    wronskian_drift: float
    t_start: float
    t_end: float


def integrate_tensor(sol: BackgroundSolution, q: float,
                     consts: CosmoConstants = DEFAULT_CONSTANTS,
                     gravity: GravityMode = GravityMode.QUANTUM) -> TensorMode:
    """Evolve the tensor amplitude D_q through horizon exit.

    In classical-gravity mode the tensor sector carries no quantum amplitude
    and the returned mode is identically zero.
    """
    T0 = TIME_UNIT
    co = sol._coeffs
    w = _window(sol, q, consts)

    if gravity is GravityMode.CLASSICAL:
        t = np.linspace(w.t_a / T0, w.t_b / T0, N_OUTPUT) * T0
        zeros = np.zeros(N_OUTPUT, dtype=complex)
        x_t = np.exp(log_q_over_aH(sol, q / consts.a_L, t))
        return TensorMode(q=q, t=t, D=zeros, Ddot=zeros, q_over_aH=x_t,
                          D_plateau=0j, wronskian_drift=0.0,
                          t_start=w.t_a, t_end=w.t_b)

    Qt0 = w.Qt0

    def rhs(tau, y):
        # (d, d') as real pairs of d'' = -3 N' d' - Qv^2 d
        d_r, d_i, dp_r, dp_i, _, _, n = y
        bg = co.rhs(tau, y[4:])
        Qv = Qt0 * math.exp(-n)
        damp = -3 * bg[2]
        mass = Qv * Qv
        return [dp_r, dp_i, damp * dp_r - mass * d_r, damp * dp_i - mass * d_i, *bg]

    run = _evolve(sol, rhs, w, [1.0 + 0j, w.wkb], "tensor")
    d, dp = run.z

    # conserved bilinear in normalized variables: (a/a0)^3 Im(conj(d) d'),
    # measured at the solver's own accepted nodes (interpolation-free)
    dn, dpn = run.z_nodes
    wr = np.exp(3.0 * run.n_nodes) * (np.conj(dn) * dpn).imag
    drift = float(np.max(np.abs(wr / wr[0] - 1.0)))

    amp0 = _wkb_scale(math.sqrt(16 * math.pi * sol.params.G),
                      TWO_PI**1.5 * math.sqrt(2 * q) * w.a0, q)
    with np.errstate(over="ignore", invalid="ignore"):   # _check_finite names the failure
        D = amp0 * d
        Ddot = amp0 * dp / T0
    _check_finite(q, D, Ddot)
    _check_frozen(D, run, FREEZE_RATE_LIMIT, "tensor amplitude")

    return TensorMode(
        q=q, t=run.taus * T0, D=D, Ddot=Ddot,
        q_over_aH=run.x, D_plateau=complex(D[-1]),
        wronskian_drift=drift, t_start=w.t_a, t_end=w.t_b,
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
