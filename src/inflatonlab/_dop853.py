"""The explicit Runge-Kutta method DOP853 with its dense output.

Dormand & Prince's 8th-order method with the 5th/3rd-order error estimate
and the 7th-degree continuous extension (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4-II.6), written out as scipy's solve_ivp(method="DOP853")
runs it: the same tableau, initial-step rule, error norm, step-size control
and minimum-step test.  Only forward integration and scalar tolerances are
supported, which is all the package uses.

The right-hand side takes and returns plain Python floats, and each stage is
written out as one statement, as in Hairer's dop853.f: a comprehension over the
components whose stage sum names the nonzero coefficients of its tableau row,
left to right.  Skipping the structural zeros drops only 0.0 * k terms, which
are exact for finite k, so every sum rounds as the full row would.  On the
3-component background this costs less than one numpy product per stage.
The three extra dense-output stages serve accepted steps only, so they are
left out of the step loop: after the last step, each one's input is formed
for all steps at once, as one numpy expression in its stage line's order
(elementwise, so it rounds as the float sums do), and the dense-output blocks
of all steps follow as arrays.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import partial
from typing import NamedTuple

import numpy as np

RTOL_FLOOR = 100 * sys.float_info.epsilon    # rtol must exceed it: double precision gives no more

SAFETY = 0.9           # step-size control, as in scipy
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 8   # the error estimate is of order 7
MAX_STEPS = 100_000       # step attempts per solve, accepted or rejected: Hairer's NMAX

# the tableau of scipy.integrate._ivp.dop853_coefficients, bit for bit:
# C[s] and A[s] (the first s coefficients of row s) for the 16 stages, of
# which 0-11 make the step, 12 is the derivative at its end and 13-15 serve
# the dense output only
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
     0.7777777777777778)
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
B = A[12]       # the 8th-order weights
# error weights over stages 0-12
E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
      1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
      -0.022355307863886294, 0.0)
E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
      0.02265179219836082, 0.0)
# rows 3-6 of the dense-output block, over all 16 stages
D = np.array([
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
])
# the coefficients by name for the stage lines below, structural zeros as _;
# the stage lines skip those zeros
_, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _, c13, c14, c15 = C
a10, = A[1]
a20, a21 = A[2]
a30, _, a32 = A[3]
a40, _, a42, a43 = A[4]
a50, _, _, a53, a54 = A[5]
a60, _, _, a63, a64, a65 = A[6]
a70, _, _, a73, a74, a75, a76 = A[7]
a80, _, _, a83, a84, a85, a86, a87 = A[8]
a90, _, _, a93, a94, a95, a96, a97, a98 = A[9]
a100, _, _, a103, a104, a105, a106, a107, a108, a109 = A[10]
a110, _, _, a113, a114, a115, a116, a117, a118, a119, a1110 = A[11]
a130, _, _, _, _, _, a136, a137, a138, a139, a1310, a1311, a1312 = A[13]
a140, _, _, _, _, a145, a146, a147, _, _, a1410, a1411, a1412, a1413 = A[14]
a150, _, _, _, _, a155, a156, a157, a158, _, _, _, a1512, a1513, a1514 = A[15]
b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = B
e50, _, _, _, _, e55, e56, e57, e58, e59, e510, e511, _ = E5
e30, _, _, _, _, e35, e36, e37, e38, e39, e310, e311, _ = E3


class StepFailure(ArithmeticError):
    """The integration cannot continue; t is the time it stopped at."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class Steps(NamedTuple):
    """Accepted steps with their dense output.

    y[:, i] is the state at t[i]; F[:, :, i] is step i's dense-output block:
    with x the fraction of the step, the state is
    y[:, i] + x (F0 + (1 - x) (F1 + x (F2 + ...))).
    """

    t: np.ndarray      # (m + 1,)
    y: np.ndarray      # (n, m + 1)
    F: np.ndarray      # (7, n, m)


def _rms(values, n: int) -> float:
    return math.sqrt(sum(v * v for v in values)) / n ** 0.5


def _initial_step(fun, t0: float, y0: list, f0: list, span: float,
                  rtol: float, atol: float) -> float:
    """Hairer, Norsett & Wanner's starting step, sec. II.4."""
    n = len(y0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms((v / s for v, s in zip(y0, scale)), n)
    d1 = _rms((v / s for v, s in zip(f0, scale)), n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0:      # d0/d1 underflows: the right-hand side outgrows the state
        raise StepFailure("the starting step underflows to zero", t0)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms(((b - a) / s for a, b, s in zip(f0, f1, scale)), n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _step(fun, t: float, y: list, f: list, h: float):
    """One step of size h from y, with f = fun(t, y).

    Returns y_new and the list K of the stages k0 ... k12, each a list over
    the components; k0 is f and k12 = fun(t + h, y_new).
    """
    k0 = f
    k1 = fun(t + c1 * h, [v + (a10 * x0) * h for v, x0 in zip(y, k0)])
    k2 = fun(t + c2 * h, [v + (a20 * x0 + a21 * x1) * h for v, x0, x1 in zip(y, k0, k1)])
    k3 = fun(t + c3 * h, [v + (a30 * x0 + a32 * x2) * h for v, x0, x2 in zip(y, k0, k2)])
    k4 = fun(t + c4 * h, [v + (a40 * x0 + a42 * x2 + a43 * x3) * h
                          for v, x0, x2, x3 in zip(y, k0, k2, k3)])
    k5 = fun(t + c5 * h, [v + (a50 * x0 + a53 * x3 + a54 * x4) * h
                          for v, x0, x3, x4 in zip(y, k0, k3, k4)])
    k6 = fun(t + c6 * h, [v + (a60 * x0 + a63 * x3 + a64 * x4 + a65 * x5) * h
                          for v, x0, x3, x4, x5 in zip(y, k0, k3, k4, k5)])
    k7 = fun(t + c7 * h, [v + (a70 * x0 + a73 * x3 + a74 * x4 + a75 * x5 + a76 * x6) * h
                          for v, x0, x3, x4, x5, x6 in zip(y, k0, k3, k4, k5, k6)])
    k8 = fun(t + c8 * h, [v + (a80 * x0 + a83 * x3 + a84 * x4 + a85 * x5 + a86 * x6
                               + a87 * x7) * h
                          for v, x0, x3, x4, x5, x6, x7 in zip(y, k0, k3, k4, k5, k6, k7)])
    k9 = fun(t + c9 * h, [v + (a90 * x0 + a93 * x3 + a94 * x4 + a95 * x5 + a96 * x6
                               + a97 * x7 + a98 * x8) * h
                          for v, x0, x3, x4, x5, x6, x7, x8
                          in zip(y, k0, k3, k4, k5, k6, k7, k8)])
    k10 = fun(t + c10 * h, [v + (a100 * x0 + a103 * x3 + a104 * x4 + a105 * x5 + a106 * x6
                                 + a107 * x7 + a108 * x8 + a109 * x9) * h
                            for v, x0, x3, x4, x5, x6, x7, x8, x9
                            in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)])
    k11 = fun(t + c11 * h, [v + (a110 * x0 + a113 * x3 + a114 * x4 + a115 * x5 + a116 * x6
                                 + a117 * x7 + a118 * x8 + a119 * x9 + a1110 * x10) * h
                            for v, x0, x3, x4, x5, x6, x7, x8, x9, x10
                            in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)])
    y_new = [v + h * (b0 * x0 + b5 * x5 + b6 * x6 + b7 * x7 + b8 * x8 + b9 * x9
                      + b10 * x10 + b11 * x11)
             for v, x0, x5, x6, x7, x8, x9, x10, x11
             in zip(y, k0, k5, k6, k7, k8, k9, k10, k11)]
    return y_new, [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, fun(t + h, y_new)]


def _dense_stages(fun, t_nodes: np.ndarray, y_nodes: np.ndarray, K13: np.ndarray) -> np.ndarray:
    """The 16 stages (m, n, 16) of m accepted steps from their stages k0 ... k12,
    K13 (m, n, 13): the dense-output stages k13 ... k15 are appended, each
    evaluated for all steps in turn, with fun called once per step on floats.

    Raises StepFailure at the start of the step whose stage overflows.
    """
    t, h = t_nodes[:-1], np.diff(t_nodes)
    y, h_col = y_nodes[:, :-1].T, h[:, None]
    x0, _, _, _, _, x5, x6, x7, x8, x9, x10, x11, x12 = np.moveaxis(K13, 2, 0)

    def stage(c, x):
        k = []
        for t_j, h_j, x_j in zip(t.tolist(), h.tolist(), x.tolist()):
            try:
                k.append(fun(t_j + c * h_j, x_j))
            except OverflowError:   # fun raised it, as float ** does past the float range
                raise StepFailure("a right-hand side value overflows", t_j) from None
        return np.array(k).reshape(x.shape)

    # an inf or NaN in a stage input passes silently, as in the float sums of
    # the step loop, and reaches the finite check on the dense output
    quiet = partial(np.errstate, over="ignore", invalid="ignore")
    with quiet():
        x = y + (a130 * x0 + a136 * x6 + a137 * x7 + a138 * x8 + a139 * x9
                 + a1310 * x10 + a1311 * x11 + a1312 * x12) * h_col
    x13 = stage(c13, x)
    with quiet():
        x = y + (a140 * x0 + a145 * x5 + a146 * x6 + a147 * x7
                 + a1410 * x10 + a1411 * x11 + a1412 * x12 + a1413 * x13) * h_col
    x14 = stage(c14, x)
    with quiet():
        x = y + (a150 * x0 + a155 * x5 + a156 * x6 + a157 * x7 + a158 * x8
                 + a1512 * x12 + a1513 * x13 + a1514 * x14) * h_col
    x15 = stage(c15, x)
    return np.dstack((K13, x13, x14, x15))


def _error_norm(y: list, y_new: list, K: list, h: float, rtol: float, atol: float) -> float:
    """The step's error relative to the tolerances: DOP853's 5th-order
    estimate, damped by its 3rd-order one."""
    k0, _, _, _, _, k5, k6, k7, k8, k9, k10, k11, _ = K
    e5 = e3 = 0.0
    for v, v_new, x0, x5, x6, x7, x8, x9, x10, x11 in zip(y, y_new, k0, k5, k6, k7, k8,
                                                           k9, k10, k11):
        scale = atol + max(abs(v), abs(v_new)) * rtol
        r5 = (e50 * x0 + e55 * x5 + e56 * x6 + e57 * x7 + e58 * x8 + e59 * x9
              + e510 * x10 + e511 * x11) / scale
        r3 = (e30 * x0 + e35 * x5 + e36 * x6 + e37 * x7 + e38 * x8 + e39 * x9
              + e310 * x10 + e311 * x11) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0 and e3 == 0:
        return 0.0
    return h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _dense_output(t_nodes: np.ndarray, y_nodes: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """The dense-output blocks F (7, n, m) of m steps from their 16 stages (m, n, 16)."""
    h = np.diff(t_nodes)
    dy = np.diff(y_nodes, axis=1)
    f_old, f_new = stages[:, :, 0].T, stages[:, :, 12].T
    F = np.empty((7,) + dy.shape)
    F[0] = dy
    F[1] = h * f_old - dy
    F[2] = 2 * dy - h * (f_new + f_old)
    F[3:] = h * np.einsum("ds,mns->dnm", D, stages)
    return F


def solve(fun, t0: float, t1: float, y0, rtol: float, atol: float) -> Steps:
    """Integrate y' = fun(t, y) from t0 to t1 > t0.

    fun takes a time and a list of floats and returns a list of floats.  The
    times, tolerances and y0 are read as floats, so fun sees plain floats
    whatever numeric types the caller passes.  The step loop keeps each
    accepted step's stages k0 ... k12; the three dense-output stages of every
    step are evaluated after the last step (_dense_stages), so a failure in
    one of them is raised only then, still at the start of its step.
    Raises ValueError for a tolerance the error test cannot resolve, and
    StepFailure when a stage is not finite, fun overflows, the step size
    falls below ten float spacings or the solve would take more than
    MAX_STEPS step attempts.
    """
    if not rtol > RTOL_FLOOR:
        raise ValueError(f"rtol must exceed {RTOL_FLOOR:g}, got {rtol!r}")
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol!r}")
    n = len(y0)
    t, t1, rtol, atol = float(t0), float(t1), float(rtol), float(atol)
    y = [float(v) for v in y0]
    ts, ys, ks = array("d", [t]), array("d", y), array("d")
    budget = MAX_STEPS
    try:
        f = fun(t, y)
        h_abs = _initial_step(fun, t, y, f, t1 - t, rtol, atol)
        while t < t1:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StepFailure("the step size fell below ten float spacings", t)
                budget -= 1
                if budget < 0:
                    raise StepFailure(f"the step budget MAX_STEPS = {MAX_STEPS} attempts "
                                      "is spent", t)
                t_new = min(t + h_abs, t1)
                h = h_abs = t_new - t
                y_new, K = _step(fun, t, y, f, h)
                error = _error_norm(y, y_new, K, h, rtol, atol)
                if error < 1:
                    factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR,
                                                               SAFETY * error ** ERROR_EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                if math.isnan(error):
                    raise StepFailure("a right-hand side value is not finite", t)
                h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
                rejected = True
            for col in zip(*K):
                ks.extend(col)
            ts.append(t_new)
            ys.extend(y_new)
            t, y, f = t_new, y_new, K[12]
    except OverflowError:   # fun raised it, as float ** does past the float range
        raise StepFailure("a right-hand side value overflows", t) from None

    t_nodes, y_nodes = np.array(ts), np.array(ys).reshape(-1, n).T
    K13 = np.frombuffer(ks).reshape(-1, n, 13)
    F = _dense_output(t_nodes, y_nodes, _dense_stages(fun, t_nodes, y_nodes, K13))
    finite = np.isfinite(F).all(axis=(0, 1))
    if not finite.all():
        raise StepFailure("a dense-output stage is not finite", t_nodes[np.argmin(finite)])
    return Steps(t_nodes, y_nodes, F)


def evaluate(t_nodes: np.ndarray, y_nodes: np.ndarray, F: np.ndarray, t) -> np.ndarray:
    """The dense output at times t, shape (n,) + t.shape.

    Each time is evaluated on the step that holds it, in the nested form of
    scipy's Dop853DenseOutput; every node but the last is reproduced exactly.
    """
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, len(t_nodes) - 2)
    x = (t - t_nodes[i]) / (t_nodes[i + 1] - t_nodes[i])
    y = np.zeros((len(y_nodes),) + t.shape)
    for k, c in enumerate(F[::-1, :, i]):
        y += c
        y *= x if k % 2 == 0 else 1 - x
    return y + y_nodes[:, i]
