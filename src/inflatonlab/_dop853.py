"""The explicit Runge-Kutta method DOP853 with its dense output.

Dormand & Prince's 8th-order method with the 5th/3rd-order error estimate
and the 7th-degree continuous extension (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4-II.6), written out as scipy's solve_ivp(method="DOP853")
runs it: the same tableau, initial-step rule, error norm, step-size control
and minimum-step test.  Only forward integration and scalar tolerances are
supported, which is all the package uses.

A right-hand side is a system written once, as straight-line Python
statements over named state components and named constants (see
_system_source), and system() compiles three functions from that one text:
the plain fun(t, y), on lists of floats; the step attempt, straight-line
code written out per component with the statements inlined at every stage,
as Hairer's dop853.f does its stage arithmetic; and the array form
stages(t, Y), the statements over arrays of states.  Each stage sum of the
attempt names the nonzero coefficients of its tableau row, left to right, as
float literals.  Skipping the structural zeros drops only 0.0 * k terms,
which are exact for finite k, so every sum rounds as the full row would; a
stage input the statements never read is not formed.  A plain callable is the one-statement
system that calls it, so every solve takes the same path.

The three extra dense-output stages serve accepted steps only, so they are
left out of the step loop: after the last step, each one's input is formed
for all steps at once, as one numpy expression in its stage line's order
(elementwise, so it rounds as the float sums do), and the stage itself is
one call of the array form.  That rounds each operation as fun does: +, -,
*, /, unary minus, sqrt and abs are correctly rounded in numpy as on
floats, and numpy makes no fused multiply-add across separate operations,
while ** and exp call Python's pow and math.exp once per element, because
numpy's own power and exp round differently from libm's.  So every stage
has the bits fun would give it, and the dense-output blocks of all steps
follow as arrays.
"""

from __future__ import annotations

import ast
import copy
import math
import re
import sys
from array import array
from collections import Counter
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
# the dense-output stages' coefficients by name, structural zeros as _; their
# stage lines in _dense_stages skip those zeros
c13, c14, c15 = C[13:]
a130, _, _, _, _, _, a136, a137, a138, a139, a1310, a1311, a1312 = A[13]
a140, _, _, _, _, a145, a146, a147, _, _, a1410, a1411, a1412, a1413 = A[14]
a150, _, _, _, _, a155, a156, a157, a158, _, _, _, a1512, a1513, a1514 = A[15]


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


class Rhs(NamedTuple):
    """A right-hand side in the three forms solve uses: fun(t, y) returns the
    derivatives at one state as a list of floats, attempt(t, y, f, h, rtol,
    atol) makes one step with fun's statements written into it, and
    stages(t, Y) returns the derivatives (n, m) at the m states of the
    columns of Y (n, m) and the times t (m,), each bit as fun returns it
    (see _system_source)."""

    fun: Callable
    attempt: Callable
    stages: Callable


# the names the generated code binds or calls: no constant may take them and
# no statement may assign them
_GENERATED = re.compile(r"t|y|f|h|rtol|atol|y_new|scale|e5|e3|error|make|rhs|attempt|stages|Rhs"
                        r"|Y|out|quiet|each|sqrt|exp|abs|max|np_sqrt|np_abs|np_empty|libm_pow"
                        r"|libm_exp|(y|u|x|r5|r3|k\d+)_\d+")

# numpy's errstate for the array form and the dense-stage sums: an inf or NaN
# passes silently, as through float arithmetic, to the finite check
_quiet = partial(np.errstate, divide="ignore", over="ignore", invalid="ignore")

# numpy's power and exp round differently from libm's pow and exp, which
# Python's ** and math.exp call, so the array form calls those per element
_POW, _EXP = np.frompyfunc(pow, 2, 1), np.frompyfunc(math.exp, 1, 1)


def _libm_pow(a, b):
    return np.asarray(_POW(a, b), dtype=float)


def _libm_exp(a):
    return np.asarray(_EXP(a), dtype=float)


def _each(fun, t, y):
    """The values (n, m) of a plain callable fun at times t (m,) and
    component rows y (n of (m,)), with fun called once per state on floats."""
    states = np.transpose(y).tolist()
    return np.array([fun(t_j, y_j) for t_j, y_j in zip(t.tolist(), states)], dtype=float).T


def _assigned(node: ast.Assign):
    """The names an assignment binds; a statement binds names only."""
    for target in node.targets:
        for name in target.elts if isinstance(target, ast.Tuple) else [target]:
            if not isinstance(name, ast.Name):
                raise ValueError(f"a statement may assign names only: {ast.unparse(node)!r}")
            yield name.id


def _parse(components: tuple, statements: str, constants: tuple):
    """The statements' syntax trees and how often each name is read.

    Raises ValueError unless every statement is an assignment, every name is
    read after it is bound (as t, a component, a constant, sqrt, exp, abs or
    by an earlier statement), no statement assigns t, a component, a
    constant or a name of _GENERATED, and every derivative d_<component> is
    assigned.
    """
    if len(set(components)) < len(components) or "t" in components:
        raise ValueError(f"the components {components} must be distinct and not t")
    for name in constants:
        if name in components or _GENERATED.fullmatch(name):
            raise ValueError(f"the constant {name!r} is a component or a name the generated "
                             "code uses")
    body = ast.parse(statements).body
    bound = {"t", *components, *constants, "sqrt", "exp", "abs"}
    reads = Counter()
    for node in body:
        if not isinstance(node, ast.Assign):
            raise ValueError(f"a statement must be an assignment: {ast.unparse(node)!r}")
        for name in ast.walk(node.value):
            if isinstance(name, ast.Name):
                if name.id not in bound:
                    raise ValueError(f"the statements read {name.id!r} before assigning it")
                reads[name.id] += 1
        for name in _assigned(node):
            if name == "t" or name in components or name in constants \
                    or _GENERATED.fullmatch(name):
                raise ValueError(f"the statements assign {name!r}, a name the generated "
                                 "code uses")
            bound.add(name)
    unassigned = [f"d_{c}" for c in components if f"d_{c}" not in bound]
    if unassigned:
        raise ValueError(f"the statements leave {', '.join(unassigned)} unassigned")
    return body, reads


class _ArrayForm(ast.NodeTransformer):
    """Rewrites a statement to run over arrays of states, each operation
    rounded as on floats: a ** b becomes libm_pow(a, b), sqrt, exp and abs
    become np_sqrt, libm_exp and np_abs, and a call of a constant (a plain
    callable's fun) becomes each(fun, ...), which calls it once per state.
    The arithmetic operators stay: numpy's are IEEE correctly rounded, as
    Python's are."""

    _NAMES = {"sqrt": "np_sqrt", "exp": "libm_exp", "abs": "np_abs"}

    def __init__(self, constants: tuple):
        self.constants = constants

    def visit_Name(self, node):
        return ast.Name(self._NAMES.get(node.id, node.id), node.ctx)

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("libm_pow", ast.Load()), [node.left, node.right], [])
        return node

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id in self.constants:
            node.args.insert(0, node.func)
            node.func = ast.Name("each", ast.Load())
        return self.generic_visit(node)


def _system_source(components: tuple, statements: str, constants: tuple) -> str:
    """The source of make(*constants) -> Rhs for a system of ODEs.

    The system is written once, as assignment statements over t, the
    components and the constants: each assigns a local or the derivative
    d_<component> of a component.  make binds the constants (closure cells)
    and returns the Rhs of three functions.  rhs(t, y) unpacks y into the
    components, runs the statements and returns the derivatives in
    component order.  attempt(t, y, f, h, rtol, atol) makes one step of size
    h from y, with f = rhs(t, y), and returns y_new, the stages K and the
    step's error relative to the tolerances: DOP853's 5th-order estimate,
    damped by its 3rd-order one.  K holds the stages k0 ... k12 of component
    0, then those of component 1 and so on, as solve stores them; k0 is f
    and k12 the derivative at (t + h, y_new).

    The attempt is straight-line code, one scalar per component and stage,
    with the statements written out at stages 1-11 and at k12.  There they
    are renamed at the positions of their names in the syntax tree, so
    nothing else in them changes: d_<c> becomes k<s>_<i>, t the stage time
    (t + C[s] * h) and a component its stage input (y_i + (sum) * h).  A
    stage input is formed only for the components the statements read; one
    read once is formed where it is read, one read more often is assigned to
    x_i first, and the stage time is formed only where t is read.  Each
    stage, update and error sum names the nonzero entries of its tableau
    row, left to right, as float literals; the squares of the error norm
    are summed left to right, so they round as a += loop from 0.0 does.

    stages(t, Y) is the array form: it unpacks the rows of Y into the
    components and runs the statements as _ArrayForm rewrites them, so every
    value at each state has the bits rhs gives it.  It differs only where
    rhs raises on floats: a zero divisor or the square root of a negative
    number gives an inf or NaN instead, quietly.  Only the system and the
    tableau enter the source.
    """
    body, reads = _parse(components, statements, constants)
    comps = range(len(components))
    text = statements.encode()      # the tree's column offsets count bytes
    line_starts = [0]
    for line in text.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))

    def offset(line, col):
        return line_starts[line - 1] + col

    # each statement's span in text and the spans of the names it holds
    spans = [(offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset),
              sorted((offset(name.lineno, name.col_offset),
                      offset(name.end_lineno, name.end_col_offset), name.id)
                     for name in ast.walk(node) if isinstance(name, ast.Name)))
             for node in body]

    def written(names):
        """The statements' lines with each name of names replaced by its text."""
        lines = []
        for start, end, holes in spans:
            parts, at = [], start
            for hole_start, hole_end, name in holes:
                parts += [text[at:hole_start].decode(), names.get(name, name)]
                at = hole_end
            parts.append(text[at:end].decode())
            lines.append("        " + "".join(parts))
        return lines

    def stage(s, inputs, time):
        names = {f"d_{c}": f"k{s}_{i}" for i, c in enumerate(components)}
        names.update(inputs, t=f"({time})")
        return written(names)

    def row_sum(row, i):
        return " + ".join(f"{a!r} * k{s}_{i}" for s, a in enumerate(row) if a)

    def targets(names):     # trailing commas, so that one component unpacks too
        return "".join(f"{name}, " for name in names)

    def squares(name):
        return " + ".join(f"{name}_{i} * {name}_{i}" for i in comps)

    lines = [f"def make({', '.join(constants)}):",
             "    def rhs(t, y):",
             f"        {targets(components)}= y",
             *written({}),
             f"        return [{', '.join(f'd_{c}' for c in components)}]",
             "",
             "    def attempt(t, y, f, h, rtol, atol):",
             f"        {targets(f'y_{i}' for i in comps)}= y",
             f"        {targets(f'k0_{i}' for i in comps)}= f"]
    for s in range(1, 12):
        inputs = {}
        for i, c in enumerate(components):
            stage_input = f"y_{i} + ({row_sum(A[s], i)}) * h"
            if reads[c] == 1:
                inputs[c] = f"({stage_input})"
            elif reads[c] > 1:
                lines.append(f"        x_{i} = {stage_input}")
                inputs[c] = f"x_{i}"
        lines += stage(s, inputs, f"t + {C[s]!r} * h")
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
              *stage(12, {c: f"u_{i}" for i, c in enumerate(components)}, "t + h"),
              f"        return y_new, ({K}), error",
              "",
              "    def stages(t, Y):",
              "        out = np_empty(Y.shape)",
              "        with quiet():",
              f"            {targets(components)}= Y"]
    array_form = _ArrayForm(constants)
    lines += [f"            {ast.unparse(array_form.visit(copy.deepcopy(node)))}" for node in body]
    lines += [f"            out[{i}] = d_{c}" for i, c in enumerate(components)]
    lines += ["        return out",
              "",
              "    return Rhs(rhs, attempt, stages)"]
    return "\n".join(lines) + "\n"


@cache
def system(components: tuple, statements: str, constants: tuple):
    """The factory make(*constants) -> Rhs of _system_source, compiled.

    Generating and compiling takes a few milliseconds, so it is done on the
    first solve of each system and kept; a solve binds its own constants by
    calling the factory, which takes microseconds.  The cache holds code
    that depends on the system's text alone, never a result: a solve
    returns the same bits whether the code was compiled for it or before it.
    """
    namespace = {"sqrt": math.sqrt, "exp": math.exp, "Rhs": Rhs, "quiet": _quiet,
                 "np_sqrt": np.sqrt, "np_abs": np.abs, "np_empty": np.empty,
                 "libm_pow": _libm_pow, "libm_exp": _libm_exp, "each": _each}
    source = _system_source(components, statements, constants)
    exec(compile(source, f"<_dop853 system {', '.join(components)}>", "exec"), namespace)
    return namespace["make"]


def _callable_system(n: int) -> tuple:
    """The system of a plain callable fun(t, y) of n components: the one
    statement d_y_0, ..., d_y_<n-1>, = fun(t, [y_0, ..., y_<n-1>]), with
    fun its constant."""
    components = tuple(f"y_{i}" for i in range(n))
    derivatives = "".join(f"d_{c}, " for c in components)
    return components, f"{derivatives}= fun(t, [{', '.join(components)}])", ("fun",)


def _dense_stages(stages, t_nodes: np.ndarray, y_nodes: np.ndarray,
                  K13: np.ndarray) -> np.ndarray:
    """The 16 stages (m, n, 16) of m accepted steps from their stages k0 ... k12,
    K13 (m, n, 13): the dense-output stages k13 ... k15 are appended, each
    one call of the array form stages (see Rhs) for all steps at once.

    Raises StepFailure at the start of the step whose stage overflows.
    """
    t, h = t_nodes[:-1], np.diff(t_nodes)
    y, h_col = y_nodes[:, :-1].T, h[:, None]
    x0, _, _, _, _, x5, x6, x7, x8, x9, x10, x11, x12 = np.moveaxis(K13, 2, 0)

    def stage(c, x):
        times = t + c * h
        try:
            return stages(times, x.T).T
        except OverflowError:   # ** or exp raised it past the float range
            for j in range(len(t)):     # the failing step, found state by state
                try:
                    stages(times[j:j + 1], x[j:j + 1].T)
                except OverflowError:
                    raise StepFailure("a right-hand side value overflows", t[j].item()) from None
            raise

    # an inf or NaN in a stage input passes silently, as in the float sums of
    # the step loop, and reaches the finite check on the dense output
    with _quiet():
        x = y + (a130 * x0 + a136 * x6 + a137 * x7 + a138 * x8 + a139 * x9
                 + a1310 * x10 + a1311 * x11 + a1312 * x12) * h_col
        x13 = stage(c13, x)
        x = y + (a140 * x0 + a145 * x5 + a146 * x6 + a147 * x7
                 + a1410 * x10 + a1411 * x11 + a1412 * x12 + a1413 * x13) * h_col
        x14 = stage(c14, x)
        x = y + (a150 * x0 + a155 * x5 + a156 * x6 + a157 * x7 + a158 * x8
                 + a1512 * x12 + a1513 * x13 + a1514 * x14) * h_col
        x15 = stage(c15, x)
    return np.dstack((K13, x13, x14, x15))


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
    """Integrate y' = fun(t, y) from t0 to t1 > t0.

    rhs is an Rhs, made by a system's factory (see system), or a plain
    callable fun, which goes through the one-statement system of
    _callable_system: its attempt calls fun once per stage, and its array
    form once per state.  fun takes a time and a list of floats and returns
    a list of floats.  The times, tolerances and y0 are read as floats, so
    fun sees plain floats whatever numeric types the caller passes.  The
    step loop keeps each accepted step's stages k0 ... k12; the three
    dense-output stages of every step are evaluated after the last step
    (_dense_stages), so a failure in one of them is raised only then, still
    at the start of its step.  Raises ValueError unless t0 and t1 are
    finite with t0 < t1, for a tolerance the error test cannot resolve, an
    empty y0, or a first fun value whose length is not len(y0), all before
    fun is called; and StepFailure when a stage is not finite, the
    right-hand side overflows, the step size falls below ten float spacings
    or the solve would take more than MAX_STEPS step attempts.
    """
    if not rtol > RTOL_FLOOR:
        raise ValueError(f"rtol must exceed {RTOL_FLOOR:g}, got {rtol!r}")
    if not atol > 0:
        raise ValueError(f"atol must be positive, got {atol!r}")
    n = len(y0)
    if not n:
        raise ValueError("y0 must have at least one component")
    t, t1, rtol, atol = float(t0), float(t1), float(rtol), float(atol)
    if not (math.isfinite(t) and math.isfinite(t1) and t < t1):
        raise ValueError(f"the interval must have finite ends t0 < t1, got {t!r} and {t1!r}")
    y = [float(v) for v in y0]
    ts, ys, ks = array("d", [t]), array("d", y), array("d")
    if not isinstance(rhs, Rhs):    # fun stays itself, so that its length is checked
        rhs = system(*_callable_system(n))(rhs)._replace(fun=rhs)
    fun, attempt, stages = rhs
    budget = MAX_STEPS
    try:
        f = fun(t, y)
        if len(f) != n:
            raise ValueError(f"fun returns {len(f)} components for a state of {n}")
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
                y_new, K, error = attempt(t, y, f, h, rtol, atol)
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
    except OverflowError:   # the right-hand side raised it, as float ** does past the float range
        raise StepFailure("a right-hand side value overflows", t) from None

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
