"""The explicit Runge-Kutta method DOP853 with its dense output.

Dormand & Prince's 8th-order method with the 5th/3rd-order error estimate
and the 7th-degree continuous extension (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4-II.6), written out as scipy's solve_ivp(method="DOP853")
runs it: the same tableau, initial-step rule, error norm, step-size control
and minimum-step test.  Only forward integration and scalar tolerances are
supported, which is all the package uses.

A right-hand side is a system written once, as straight-line Python
statements in +, -, *, /, unary minus, sqrt and abs over named state
components and named constants (see _system_source), and system() compiles
two functions that run that one text as written: the step attempt,
straight-line code per component that runs the statements at every stage,
as Hairer's dop853.f writes out its stage arithmetic; and the array form
stages(t, Y), over arrays of states.  Each stage sum of the attempt names
the nonzero coefficients of its tableau row, left to right, as float
literals.  Skipping the structural zeros drops only 0.0 * k terms, which are
exact for finite k, so every sum rounds as the full row would; a stage input
the statements never read is not formed.

The three extra dense-output stages serve accepted steps only, so they are
left out of the step loop: after the last step, each one's input is formed
for all steps at once, as one numpy sum over its tableau row in the order
of the attempt's sums (elementwise, so it rounds as the float sums do), and
the stage itself is one call of the array form.  That rounds each operation
as the attempt does: +, -, *, /, unary minus, sqrt and abs are correctly
rounded in numpy as on floats, and numpy makes no fused multiply-add across
separate operations.  So every stage has the bits the attempt's float
statements would give it, and the dense-output blocks of all steps follow as
arrays.  The derivatives at a single state, which the starting-step rule
needs, are one column of the array form (derivatives).
"""

from __future__ import annotations

import ast
import math
import re
import sys
from array import array
from functools import cache, partial
from typing import Callable, NamedTuple

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
    """Hairer, Norsett & Wanner's starting step, sec. II.4.  Raises
    StepFailure at t0 unless the derivatives f0 and those at the trial state
    are finite: an inf or NaN there would make the step zero or NaN."""
    def finite(f):
        if not all(map(math.isfinite, f)):
            raise StepFailure("a right-hand side value is not finite", t0)

    finite(f0)
    n = len(y0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms((v / s for v, s in zip(y0, scale)), n)
    d1 = _rms((v / s for v, s in zip(f0, scale)), n)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not h0 > 0:      # d0/d1 underflows: the right-hand side outgrows the state
        raise StepFailure("the starting step underflows to zero", t0)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    finite(f1)
    d2 = _rms(((b - a) / s for a, b, s in zip(f0, f1, scale)), n) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


class Rhs(NamedTuple):
    """A right-hand side in the two forms solve uses: attempt(t_n, y_n, f_n,
    h, rtol, atol) makes one step with the system's statements run on floats
    at each of its stages, and stages(t, Y) returns the derivatives (n, m) at
    the m states of the columns of Y (n, m) and the times t (m,), each bit as
    the attempt's statements give it (see _system_source)."""

    attempt: Callable
    stages: Callable


def derivatives(stages, t: float, y) -> list:
    """The derivatives at state y and time t as floats: one column of stages."""
    return stages(np.array([t]), np.array(y, dtype=float)[:, None])[:, 0].tolist()


# the names the generated code binds or reads: no component or constant may
# take them and no statement may assign them
_GENERATED = re.compile(r"t|h|rtol|atol|t_n|y_n|f_n|y_new|scale|e5|e3|error|make|attempt"
                        r"|stages|Rhs|Y|out|quiet|sqrt|abs|max|np_sqrt|np_empty"
                        r"|(y|u|r5|r3|k\d+)_\d+")

# what a statement may hold: calls of _FUNCTIONS on one argument, names,
# number literals, +, -, *, / and unary minus, each correctly rounded on
# floats (math.sqrt, abs) and in numpy (numpy's sqrt and abs) alike
_FUNCTIONS = ("sqrt", "abs")
_NODES = (ast.Call, ast.Name, ast.Constant, ast.Load, ast.BinOp, ast.Add, ast.Sub, ast.Mult,
          ast.Div, ast.UnaryOp, ast.USub)
_NAMED = {ast.IfExp: "a conditional expression", ast.Compare: "a comparison",
          ast.BoolOp: "and/or"}

# numpy's errstate for the array form and the dense-stage sums: an inf or NaN
# passes silently, as through float arithmetic, to the finite check
_quiet = partial(np.errstate, divide="ignore", over="ignore", invalid="ignore")


def _parse(components: tuple, statements: str, constants: tuple) -> set:
    """The names the statements read.

    Raises ValueError unless the components and constants are distinct and
    none takes a name of _GENERATED, which the generated code binds or
    reads (t among them); every statement assigns names; every name is read
    after it is bound (as t, a component, a constant, one of _FUNCTIONS or
    by an earlier statement); the statements hold only names, number
    literals, +, -, *, /, unary minus and calls of _FUNCTIONS on one
    argument, which round alike on floats and in numpy (no a ** b, and no
    conditional expression, comparison or and/or, which the array form
    cannot run as the attempt does); no statement assigns a component, a
    constant or a name of _GENERATED; and every derivative d_<component> is
    assigned.
    """
    if len(set(components + constants)) < len(components + constants):
        raise ValueError(f"the components {components} and constants {constants} must be "
                         "distinct")
    for kind, names in (("component", components), ("constant", constants)):
        for name in names:
            if _GENERATED.fullmatch(name):
                raise ValueError(f"the {kind} {name!r} is a name the generated code uses")
    def malformed(message, node):
        return ValueError(f"{message}: {ast.get_source_segment(statements, node)!r}")

    bound = {"t", *components, *constants, *_FUNCTIONS}
    reads = set()
    for node in ast.parse(statements).body:
        if not isinstance(node, ast.Assign):
            raise malformed("a statement must be an assignment", node)
        for part in ast.walk(node.value):
            if isinstance(part, ast.Pow):
                raise malformed("write a ** b as products", node)
            if isinstance(part, ast.Call):
                if not (isinstance(part.func, ast.Name) and part.func.id in _FUNCTIONS
                        and len(part.args) == 1):
                    raise malformed(f"a statement may call only {', '.join(_FUNCTIONS)}, "
                                    "each on one argument", node)
            elif not isinstance(part, _NODES) or (isinstance(part, ast.Constant)
                                                  and not isinstance(part.value, (int, float))):
                what = _NAMED.get(type(part), f"a {type(part).__name__}")
                raise malformed(f"a statement may use only +, -, *, /, unary minus, "
                                f"{' and '.join(_FUNCTIONS)}, not {what}", node)
            if isinstance(part, ast.Name):
                if part.id not in bound:
                    raise ValueError(f"the statements read {part.id!r} before assigning it")
                reads.add(part.id)
        for target in node.targets:
            for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                if not isinstance(name, ast.Name):
                    raise malformed("a statement may assign names only", node)
                if name.id in components or name.id in constants or _GENERATED.fullmatch(name.id):
                    raise ValueError(f"the statements assign {name.id!r}, a name the "
                                     "generated code uses")
                bound.add(name.id)
    unassigned = [f"d_{c}" for c in components if f"d_{c}" not in bound]
    if unassigned:
        raise ValueError(f"the statements leave {', '.join(unassigned)} unassigned")
    return reads


def _system_source(components: tuple, statements: str, constants: tuple) -> str:
    """The source of make(*constants) -> Rhs for a system of ODEs.

    The system is written once, as assignment statements over t, the
    components and the constants in +, -, *, /, unary minus, sqrt and abs
    (see _parse): each assigns a local or the derivative d_<component> of a
    component.  make binds the constants (closure cells) and returns the Rhs
    of two functions, each of which runs the statements as written, line for
    line.

    attempt(t_n, y_n, f_n, h, rtol, atol) makes one step of size h from
    y_n, with f_n the derivatives at (t_n, y_n), and returns y_new, the
    stages K and the step's error relative to the tolerances: DOP853's
    5th-order estimate, damped by its 3rd-order one.  K holds the stages
    k0 ... k12 of component 0, then those of component 1 and so on, as solve
    stores them; k0 is f_n and k12 the derivative at (t_n + h, y_new).  The
    attempt is straight-line code, one scalar per component and stage.  Each
    of stages 1-11 and k12 assigns each component the statements read its
    stage input (y_i + (sum) * h, or u_i, the new state, at k12), assigns t
    the stage time (t_n + C[s] * h) if the statements read t, runs the
    statements and copies each d_<c> to k<s>_<i>.  Each stage, update and
    error sum names the nonzero entries of its tableau row, left to right, as
    float literals; the squares of the error norm are summed left to right,
    so they round as a += loop from 0.0 does.

    stages(t, Y) is the array form: it binds sqrt to numpy's (abs is
    Python's, which numpy answers with its own), unpacks the rows of Y into
    the components and runs the statements.  Each of their operations is
    correctly rounded in numpy as on floats, so every value at each state has
    the bits the attempt's statements give it.  It differs only where float
    arithmetic raises: a zero divisor or the square root of a negative number
    gives an inf or NaN instead, quietly.  Only the system and the tableau
    enter the source.
    """
    reads = _parse(components, statements, constants)
    comps = range(len(components))

    def written(indent):
        return [indent + line for line in statements.splitlines()]

    def stage(s, inputs, time):
        return [*(f"        {c} = {inputs[i]}" for i, c in enumerate(components) if c in reads),
                *([f"        t = {time}"] if "t" in reads else []),
                *written("        "),
                *(f"        k{s}_{i} = d_{c}" for i, c in enumerate(components))]

    def row_sum(row, i):
        return " + ".join(f"{a!r} * k{s}_{i}" for s, a in enumerate(row) if a)

    def targets(names):     # trailing commas, so that one component unpacks too
        return "".join(f"{name}, " for name in names)

    def squares(name):
        return " + ".join(f"{name}_{i} * {name}_{i}" for i in comps)

    lines = [f"def make({', '.join(constants)}):",
             "    def attempt(t_n, y_n, f_n, h, rtol, atol):",
             f"        {targets(f'y_{i}' for i in comps)}= y_n",
             f"        {targets(f'k0_{i}' for i in comps)}= f_n"]
    for s in range(1, 12):
        lines += stage(s, [f"y_{i} + ({row_sum(A[s], i)}) * h" for i in comps],
                       f"t_n + {C[s]!r} * h")
    lines += [f"        u_{i} = y_{i} + h * ({row_sum(B, i)})" for i in comps]
    lines.append(f"        y_new = [{targets(f'u_{i}' for i in comps)}]")
    for i in comps:
        lines += [f"        scale = atol + max(abs(y_{i}), abs(u_{i})) * rtol",
                  f"        r5_{i} = ({row_sum(E5, i)}) / scale",
                  f"        r3_{i} = ({row_sum(E3, i)}) / scale"]
    K = "".join(f"k{s}_{i}, " for i in comps for s in range(13))
    lines += [f"        e5 = {squares('r5')}",
              f"        e3 = {squares('r3')}",
              "        error = 0.0 if e5 == 0 and e3 == 0 else "
              f"h * e5 / sqrt((e5 + 0.01 * e3) * {len(components)})",
              *stage(12, [f"u_{i}" for i in comps], "t_n + h"),
              f"        return y_new, ({K}), error",
              "",
              "    def stages(t, Y):",
              "        sqrt = np_sqrt",
              "        out = np_empty(Y.shape)",
              "        with quiet():",
              f"            {targets(components)}= Y",
              *written("            "),
              *(f"            out[{i}] = d_{c}" for i, c in enumerate(components)),
              "        return out",
              "",
              "    return Rhs(attempt, stages)"]
    return "\n".join(lines) + "\n"


@cache
def system(components: tuple, statements: str, constants: tuple):
    """The factory make(*constants) -> Rhs of _system_source, compiled, with
    math.sqrt in the attempt and numpy's sqrt in the array form.

    Generating and compiling takes a few milliseconds, so it is done on the
    first solve of each system and kept; a solve binds its own constants by
    calling the factory, which takes microseconds.  The cache holds code
    that depends on the system's text alone, never a result: a solve
    returns the same bits whether the code was compiled for it or before it.
    """
    namespace = {"sqrt": math.sqrt, "Rhs": Rhs, "quiet": _quiet, "np_sqrt": np.sqrt,
                 "np_empty": np.empty}
    source = _system_source(components, statements, constants)
    exec(compile(source, f"<_dop853 system {', '.join(components)}>", "exec"), namespace)
    return namespace["make"]


def _dense_stages(stages, t_nodes: np.ndarray, y_nodes: np.ndarray,
                  K13: np.ndarray) -> np.ndarray:
    """The 16 stages (m, n, 16) of m accepted steps from their stages k0 ... k12,
    K13 (m, n, 13): the dense-output stages k13 ... k15 are appended, each
    one call of the array form stages (see Rhs) for all steps at once.  Each
    stage input sums the nonzero entries of its tableau row left to right,
    as the attempt's stage sums do.  An inf or NaN in a stage input or a
    stage passes silently, as through the float sums of the step loop, to
    the finite check on the dense output (see solve).
    """
    t, h = t_nodes[:-1], np.diff(t_nodes)
    y, h_col = y_nodes[:, :-1].T, h[:, None]
    ks = list(np.moveaxis(K13, 2, 0))
    with _quiet():
        for s in range(13, 16):
            # lazy, so one product at a time is live, as in a written-out sum
            terms = (a * k for a, k in zip(A[s], ks) if a)
            ks.append(stages(t + C[s] * h, (y + sum(terms, next(terms)) * h_col).T).T)
    return np.dstack((K13, *ks[13:]))


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


def solve(rhs, t0: float, t1: float, y0, rtol: float, atol: float) -> Steps:
    """Integrate the system y' = f(t, y) from t0 to t1 > t0.

    rhs is an Rhs, made by a system's factory (see system).  The times,
    tolerances and y0 are read as floats, so the system sees plain floats
    whatever numeric types the caller passes.  The step loop keeps each
    accepted step's stages k0 ... k12; the three dense-output stages of
    every step are evaluated after the last step (_dense_stages), so a
    failure in one of them is raised only then, still at the start of its
    step.  Raises ValueError unless t0 and t1 are finite with t0 < t1 or for
    a tolerance the error test cannot resolve, before the system is
    evaluated, and for a y0 whose length is not the system's, when the array
    form first unpacks it; and StepFailure when a stage is not finite (a
    value past the float range is an inf) or float arithmetic cannot form it
    (a zero divisor or the square root of a negative number, where the array
    form gives an inf or NaN), the step size falls below ten float spacings
    or the solve would take more than MAX_STEPS step attempts.
    """
    if not rtol > RTOL_FLOOR:
        raise ValueError(f"rtol must exceed {RTOL_FLOOR:g}, got {rtol!r}")
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol!r}")
    n = len(y0)
    t, t1, rtol, atol = float(t0), float(t1), float(rtol), float(atol)
    if not (math.isfinite(t) and math.isfinite(t1) and t < t1):
        raise ValueError(f"the interval must have finite ends t0 < t1, got {t!r} and {t1!r}")
    y = [float(v) for v in y0]
    ts, ys, ks = array("d", [t]), array("d", y), array("d")
    attempt, stages = rhs
    fun = partial(derivatives, stages)
    budget = MAX_STEPS
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
            try:
                y_new, K, error = attempt(t, y, f, h, rtol, atol)
            except (ValueError, ZeroDivisionError) as exc:     # an inf or NaN in the array form
                raise StepFailure(f"a right-hand side value is not finite ({exc})", t) from exc
            if error < 1:
                factor = MAX_FACTOR if error == 0 else min(MAX_FACTOR,
                                                           SAFETY * error ** ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            if math.isnan(error):
                raise StepFailure("a right-hand side value is not finite", t)
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
        ks.extend(K)
        ts.append(t_new)
        ys.extend(y_new)
        t, y, f = t_new, y_new, K[12::13]

    t_nodes, y_nodes = np.array(ts), np.array(ys).reshape(-1, n).T
    K13 = np.frombuffer(ks).reshape(-1, n, 13)
    F = _dense_output(t_nodes, y_nodes, _dense_stages(stages, t_nodes, y_nodes, K13))
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
