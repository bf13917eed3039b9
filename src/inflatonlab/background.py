"""Background evolution of the inflaton-Friedmann system.

The dynamical state is (phi, phidot) only: the expansion rate follows
algebraically from the energy constraint

    H^2 = (8 pi G / 3) (phidot^2/2 + V(phi)),

and ln a is accumulated by quadrature of H, so no exponentially growing
variable ever enters the ODE state.  Integration starts from the asymptotic
solution phi = v e^{alpha t}, valid while phi is far below the minimum, and
runs through the end of inflation into the damped-oscillation phase.

The solution is stored once, as the solver produced it: the state at the
accepted steps of the package's DOP853 stepper (_dop853, the method of
scipy's solve_ivp written out over plain floats) plus each step's
7th-degree dense-output polynomial (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.6).  Every query between steps evaluates that polynomial, and
crossings are refined by Brent's method on it.

Internally everything is scaled (time/1e-12 GeV^-1, field/1e19 GeV,
H/1e14 GeV); the public accessors speak GeV.  With f the scaled field,
g = df/dtau and N the e-fold count, the system is

    H = sqrt(kin g^2 + v4 (f^2 - vbar2)^2),
    f' = g,   g' = -3 (100 H) g + k1 f - k2 f^3,   N' = 100 H,

written once, as the statements EQUATIONS: the stepper runs them as
written at each stage of its step, and the mode systems of perturbations
run them first, on the background each mode carries.  The factored potential keeps H^2
nonnegative and cancellation-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _dop853
from .constants import EFOLD_RATE, FIELD_UNIT, G_NEWTON, HUBBLE_UNIT, TIME_UNIT
from .potential import DerivedConstants, PotentialParams, derive_constants, potential

DEFAULT_T_START = -25e-12   # GeV^-1
DEFAULT_T_END = 15e-12      # GeV^-1
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# asymptotic initial data is trusted only while phi stays well below the minimum
MAX_START_FIELD_FRACTION = 0.15

# largest relative gap between the dense output's slope of f and the stored g
MAX_MIDPOINT_RESIDUAL = 1e-6

# Brent tolerances shared by every crossing search on the stored background
CROSSING_XTOL = 1e-24       # GeV^-1
CROSSING_RTOL = 1e-15
BRENT_MAXITER = 100


class IntegrationError(RuntimeError):
    """Integration failed (step-size underflow, non-finite state, bad residual)."""


class EndOfInflationNotFound(RuntimeError):
    """The solution never meets the end-of-inflation criterion in range."""


@dataclass(frozen=True)
class BackgroundState:
    """Instantaneous background state, all in GeV powers."""

    phi: float
    phidot: float
    H: float


# the scaled background equations of the module docstring in +, -, *, /
# and sqrt, as _dop853.system reads them, with the coefficients of _Coeffs;
# f3 is shared with the scalar mode's V'
EQUATIONS = """\
u2 = f * f - vbar2
H = sqrt(kin * g * g + v4 * (u2 * u2))
f3 = f * f * f
d_f = g
d_g = -3 * efold * H * g + k1 * f - k2 * f3
d_N = efold * H
"""


class _Coeffs(NamedTuple):
    """Scaled ODE coefficients for one parameter set, named as EQUATIONS reads them."""

    kin: float
    v4: float
    vbar2: float      # (v/F0)^2
    k1: float
    k2: float
    efold: float      # 100

    @classmethod
    def of(cls, params: PotentialParams) -> "_Coeffs":
        T0, F0, HU = TIME_UNIT, FIELD_UNIT, HUBBLE_UNIT
        pref = 8 * math.pi * params.G / 3
        return cls(kin=pref * F0**2 / (2 * T0**2 * HU**2),
                   v4=pref * (params.lam * F0**4 / 4) / HU**2,
                   vbar2=params.kappa**2 / params.lam / F0**2,
                   k1=params.kappa**2 * T0**2,
                   k2=params.lam * F0**2 * T0**2,
                   efold=EFOLD_RATE)

    def hubble(self, f, g):
        """Scaled H at arrays of (f, g), by EQUATIONS's formula in its
        operation order: at every state it has the bits of the stepper's H."""
        u2 = f * f - self.vbar2
        return np.sqrt(self.kin * g * g + self.v4 * (u2 * u2))

    def bind(self, system: tuple, *constants) -> _dop853.Rhs:
        """The right-hand side of a system of with_background, such as SYSTEM,
        with these coefficients and then constants bound."""
        return _dop853.system(*system)(*self, *constants)


def with_background(components: tuple, equations: str, constants: tuple) -> tuple:
    """The _dop853 system of equations over components carried ahead of the
    background (f, g, N), which EQUATIONS advance first; the constants
    follow _Coeffs's."""
    return components + ("f", "g", "N"), EQUATIONS + equations, _Coeffs._fields + constants


SYSTEM = with_background((), "", ())      # the background alone


def _brentq(fn, xpre: float, xcur: float) -> float:
    """Root of fn between xpre and xcur, where fn has opposite signs.

    A port of the zeroin iteration in scipy's brentq.c (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4): inverse quadratic
    interpolation or the secant step where it is short enough, bisection
    otherwise, until the bracket is below CROSSING_XTOL + CROSSING_RTOL |x|.
    """
    def value(x):
        v = float(fn(x))
        if math.isnan(v):
            raise ValueError(f"the crossing function is NaN at t = {x!r}")
        return v

    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("the crossing function has the same sign at both ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (CROSSING_XTOL + CROSSING_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} iterations")


@dataclass
class BackgroundSolution:
    """Integrated background: the solver's accepted steps and dense output,
    held as _dop853.solve returned them.

    tau holds the accepted steps (the storage nodes) and y[:, i] the scaled
    state (f, g, N) there: f = phi / field_unit, g = df/dtau, N the e-folds
    from the start.  coef[:, :, i], of shape (7, 3), is step i's DOP853
    dense-output coefficient block for (f, g, N), in the layout of
    _dop853.Steps.F (scipy's): with x the fraction of the step, the state is
    y_i + x (F0 + (1 - x) (F1 + x (F2 + ...))).
    Arrays live in scaled units; accessor methods take/return GeV.

    The solution is finished when built: the end of inflation t_I is found
    once, unless it was given, together with the e-fold count there.
    """

    params: PotentialParams
    t_start: float                    # GeV^-1
    t_end: float                      # GeV^-1
    rtol: float
    atol: float
    tau: np.ndarray                   # scaled times, strictly increasing
    y: np.ndarray                     # (3, nodes) scaled (f, g, N)
    coef: np.ndarray                  # (7, 3, steps) dense-output coefficients
    t_I: float | None = None          # end of inflation (GeV^-1); None if not in range
    derived: DerivedConstants = field(init=False)             # from params
    _coeffs: _Coeffs = field(init=False, repr=False)          # from params
    _N_I: float | None = field(init=False, repr=False)        # e-folds from start to t_I

    # -- construction helpers -------------------------------------------------

    def __post_init__(self):
        self.derived = derive_constants(self.params)
        self._coeffs = _Coeffs.of(self.params)
        if np.any(np.diff(self.tau) <= 0):
            raise IntegrationError("time grid is not strictly increasing")
        if self.coef.shape != (7, 3, len(self.tau) - 1):
            raise IntegrationError(f"dense-output coefficients have shape {self.coef.shape}")
        if self.t_I is None:
            self.t_I = self.first_crossing(lambda t: self.phi(t) - self.derived.v,
                                           self.t_start, self.t_end)
        self._N_I = None if self.t_I is None else self.efolds_from_start(self.t_I)

    # -- scaled-space evaluation ----------------------------------------------

    def _tau_of(self, t):
        tau = np.asarray(t, dtype=float) / TIME_UNIT
        lo, hi = self.tau[0], self.tau[-1]
        if np.any(tau < lo - 1e-9) or np.any(tau > hi + 1e-9):
            raise ValueError(f"t outside solution range [{lo}, {hi}] (scaled)")
        return np.clip(tau, lo, hi)

    def _state(self, tau):
        """(f, g, N) at scaled times, shape (3,) + tau.shape, from the dense
        output of the step holding each time; every node but the last is
        reproduced exactly."""
        return _dop853.evaluate(self.tau, self.y, self.coef, tau)

    # -- public accessors (GeV in, GeV out) -----------------------------------

    def phi(self, t):
        return self._state(self._tau_of(t))[0] * FIELD_UNIT

    def phidot(self, t):
        return self._state(self._tau_of(t))[1] * FIELD_UNIT / TIME_UNIT

    def hubble(self, t):
        # H from the constraint, never interpolated directly
        f, g, _ = self._state(self._tau_of(t))
        return self._coeffs.hubble(f, g) * HUBBLE_UNIT

    def efolds_from_start(self, t):
        return self._state(self._tau_of(t))[2]

    @property
    def grid_times(self) -> np.ndarray:
        """Storage nodes in GeV^-1."""
        return self.tau * TIME_UNIT

    def first_crossing(self, fn, t_lo: float, t_hi: float) -> float | None:
        """First root of fn(t) in [t_lo, t_hi], or None without a sign change.

        fn takes GeV^-1 and must accept arrays: it is evaluated once on the
        storage nodes in the interval, and the first sign change is refined
        by Brent's method (_brentq).
        """
        grid = self.grid_times
        grid = grid[(grid >= t_lo) & (grid <= t_hi)]
        idx = np.flatnonzero(np.diff(np.sign(fn(grid))))
        if idx.size == 0:
            return None
        i = idx[0]
        return _brentq(fn, float(grid[i]), float(grid[i + 1]))

    # -- end of inflation and e-fold bookkeeping ------------------------------

    def end_of_inflation(self) -> float:
        """Time of the end of inflation: the first t with phi(t) = v."""
        if self.t_I is None:
            raise EndOfInflationNotFound(
                f"phi never reaches v in [{self.t_start:g}, {self.t_end:g}]")
        return self.t_I

    def efolds_to_end(self, t):
        """Integral of H dt' from t to the end of inflation."""
        self.end_of_inflation()
        return self._N_I - self.efolds_from_start(t)

    def log_q_over_aH(self, q_over_aI: float, t):
        """ln of q/(a(t) H(t)) = ln(q/a_I) + efolds_to_end(t) - ln H(t); log-space
        because efolds_to_end reaches ~5000.

        Every crossing search calls it at each Brent iteration, so it evaluates
        the stored dense output once, at t alone: the e-fold count and H both
        come from that state, and the count at t_I is the one cached with t_I.
        The value is the one efolds_to_end and hubble give, bit for bit.
        """
        self.end_of_inflation()
        f, g, N = self._state(self._tau_of(t))
        return (math.log(q_over_aI) + (self._N_I - N)
                - np.log(self._coeffs.hubble(f, g) * HUBBLE_UNIT))

    # -- serialization ---------------------------------------------------------

    CACHE_FORMAT = 5

    def to_arrays(self) -> dict:
        return {
            "format": np.array([self.CACHE_FORMAT]),
            "meta": np.array([self.params.kappa, self.params.lam, self.params.G,
                              self.t_start, self.t_end, self.rtol, self.atol,
                              np.nan if self.t_I is None else self.t_I]),
            "tau": self.tau, "y": self.y, "coef": self.coef,
        }

    @classmethod
    def from_arrays(cls, d: dict) -> "BackgroundSolution":
        if int(d["format"][0]) != cls.CACHE_FORMAT:
            raise ValueError("incompatible cache format")
        meta = d["meta"]
        params = PotentialParams(kappa=meta[0], lam=meta[1], G=meta[2])
        t_I = None if math.isnan(float(meta[7])) else float(meta[7])
        return cls(
            params=params, t_start=float(meta[3]), t_end=float(meta[4]),
            rtol=float(meta[5]), atol=float(meta[6]),
            tau=d["tau"], y=d["y"], coef=d["coef"], t_I=t_I,
        )


# -- operations ----------------------------------------------------------------

def initial_state(params: PotentialParams, t_start: float) -> BackgroundState:
    """Asymptotic initial data phi = v e^{alpha t}, phidot = alpha phi.

    Rejects start times at which the linearized form is no longer trustworthy
    (phi above 15% of the potential minimum).
    """
    der = derive_constants(params)
    phi = der.v * math.exp(der.alpha * t_start)
    if phi > MAX_START_FIELD_FRACTION * der.v:
        raise ValueError(
            f"t_start={t_start:g} gives phi/v={phi / der.v:.3f} > "
            f"{MAX_START_FIELD_FRACTION}; start earlier"
        )
    phidot = der.alpha * phi
    H = math.sqrt(8 * math.pi * params.G / 3 * (0.5 * phidot**2 + potential(params, phi)))
    return BackgroundState(phi=phi, phidot=phidot, H=H)


def integrate(params: PotentialParams,
              t_start: float = DEFAULT_T_START,
              t_end: float = DEFAULT_T_END,
              rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL) -> BackgroundSolution:
    """Integrate the self-contained (phi, phidot) system with adaptive steps.

    H is evaluated algebraically from the constraint at every step and the
    e-fold count is carried as a quadrature variable.  The post-inflation
    oscillation (period ~0.5e-12 GeV^-1) is resolved, not stiff-suppressed.
    The accepted steps and their dense output are stored as they are; t_I
    is None when phi never reaches v in range.
    """
    if not t_start < t_end:         # also false when either end is NaN
        raise ValueError("t_end must exceed t_start")
    ini = initial_state(params, t_start)
    rhs = _Coeffs.of(params).bind(SYSTEM)
    y0 = [ini.phi / FIELD_UNIT, ini.phidot * TIME_UNIT / FIELD_UNIT, 0.0]

    try:
        steps = _dop853.solve(rhs, t_start / TIME_UNIT, t_end / TIME_UNIT, y0, rtol, atol)
    except _dop853.StepFailure as exc:
        raise IntegrationError(f"solver failed near t = {exc.t * TIME_UNIT:g}: {exc}") from None

    bg = BackgroundSolution(
        params=params, t_start=t_start, t_end=t_end, rtol=rtol, atol=atol,
        tau=steps.t, y=steps.y, coef=steps.F,
    )
    _check_midpoint_residual(bg)
    return bg


def _check_midpoint_residual(bg: BackgroundSolution) -> None:
    """Abort if the dense output disagrees with the ODE at step midpoints.

    Guards against silently accepting a corrupted solve or a misread
    coefficient layout: the slope of the stored f polynomial must match the
    stored g.  The check covers the inflationary phase, which feeds every
    downstream consumer (horizon exit, modes, e-fold count).
    """
    vbar = bg.derived.v / FIELD_UNIT
    inside = bg.y[0] < vbar
    last = len(bg.tau) - 1 if np.all(inside) else int(np.argmax(~inside))
    mid = 0.5 * (bg.tau[: last - 1] + bg.tau[1:last])
    mid = mid[:: max(1, len(mid) // 200)]
    g = bg._state(mid)[1]
    # d(f)/dtau must equal g; compare the central-difference slope of f with g
    eps = 1e-7
    slope = (bg._state(mid + eps)[0] - bg._state(mid - eps)[0]) / (2 * eps)
    scale = np.maximum(np.abs(g), np.max(np.abs(bg.y[1, :last])) * 1e-3)
    worst = float(np.max(np.abs(slope - g) / scale))
    if worst > MAX_MIDPOINT_RESIDUAL:
        raise IntegrationError(f"dense-output residual {worst:.2e} "
                               f"exceeds {MAX_MIDPOINT_RESIDUAL:g}")


def classify_bigbang(K: float, rho_bar: float) -> float | None:
    """Time (GeV^-1) of the zero of the constant-density scale factor for curvature K.

    The general solution a(t) = e^{Ht} + (K / 4 H^2) e^{-Ht}, normalized to
    a_bar = 1, with H = sqrt(8 pi G rho_bar / 3) has no zero for K > 0 (None
    is returned), a zero only at t -> -infinity for K = 0 (-math.inf), and a
    single finite zero for K < 0 at t = ln(-K / (4 H^2)) / (2H).

    Raises ValueError for a non-finite K, for a rho_bar that is not positive
    and finite, and for a K < 0 whose zero time is not a finite float (H^2
    underflowing to zero, or the logarithm's argument leaving the float range).
    """
    if not math.isfinite(K):
        raise ValueError(f"K must be finite, got {K!r}")
    if not 0 < rho_bar < math.inf:
        raise ValueError(f"rho_bar must be positive and finite, got {rho_bar!r}")
    if K == 0:
        return -math.inf
    if K > 0:
        return None
    H = math.sqrt(8 * math.pi * G_NEWTON / 3 * rho_bar)
    try:
        t_bb = math.log(-K / (4 * H**2)) / (2 * H)
    except (ValueError, ZeroDivisionError):     # H^2 or the ratio underflows to zero
        t_bb = math.nan
    if not math.isfinite(t_bb):
        raise ValueError(f"K = {K!r}, rho_bar = {rho_bar!r}: "
                         "the time of the zero is not a finite float")
    return t_bb
