"""Finite-dimensional realization of the macroscopic-probability postulate.

A model is an N-dimensional Hilbert space carrying a Hamiltonian, a set of
self-adjoint "macroscopic" observables A_j, one positive weight operator C_j
per observable, a smearing mass mu and an initial density matrix W.  The
central object is the superoperator kernel

    K(xi) W = (1/2) { i sum_j xi_j A_j - (mu^4/2) sum_j xi_j^2 C_j , W },

whose time-ordered exponential, interleaved with the Hamiltonian flow and
realized as a product of constant-coupling slices, generates the
characteristic function

    Phi(k) = Tr{ G[k] W }.

Fourier inversion of Phi yields the joint probability density of the smeared
observables; conditioning that density on observed values reduces the state.

Sign conventions: the kernel couples +i xi_j A_j, the inversion uses
exp(-i k.theta), and moments are (-i d/dk)^n Phi at 0.  This is the unique
assignment under which the density of a sharp observable peaks at its
eigenvalue, the mean equals Tr(A W), and marginalization integrates to one;
the source equations carry one sign slip among these three and are
reconciled here.

Every slice map is a two-sided matrix exponential.  A whole k-grid of them
is taken at once by scaling and squaring with the [13/13] Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26(4):1179, 2005), batched over the
stack in blocks of EXPM_BLOCK matrices.  The scaling is Higham's 1-norm
rule; the refinement of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl.
31(3):970, 2009), which can save squarings, is not used.  Each product of
two stacks is one np.matvec call over the columns of its right factor
(_matmul), with no per-matrix BLAS dispatch as `@` makes: the matrices are
small (N <= 4 in the battery and the CLI's default model) and the stacks
long, so that dispatch would cost more than the arithmetic.

Most of a k-grid need not be exponentiated at all.  The generators of both
factors of a slice map have the Hermitian part -(mu^4/4) sum_j xi_j^2 C_j,
so each factor has spectral norm at most exp(-(mu^4/4) dt sum_j xi_j^2
lam_min(C_j)) (a logarithmic-norm bound).  With ||E_l W E_r||_1 <=
||E_l||_2 ||W||_1 ||E_r||_2 and |Tr X| <= ||X||_1,

    |Phi(k)| <= ||G[k] W||_1
             <= ||W||_1 exp(-(mu^4/2) sum_s dt_s sum_j k_j^2 w_sj^2 lam_min(C_j)),

the same Gaussian damping auto_k_grid sizes the grid by.  characteristic_fn
and reduce_state evaluate only the k-points where this bound reaches
SKIP_TOL and take the others as exactly zero.  characteristic_fn always
evaluates indices 0, 1 and -1 of every axis longer than one point -- the
grid faces and the k -> -k mirrors of the upper faces -- so the edge-decay
self-check and the Hermitian symmetry Phi(-k) = conj Phi(k) compare measured values.

Everything is dimensionless; mu plays the role of a mass in the field
theory but enters the toy only through mu^4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
K_TAIL = 1e-10          # |Phi| bound at the k-grid edges: grid design and inversion check
MIN_K_POINTS = 64       # smallest k-grid per observable
CF_MOMENT_STEP = 1e-3   # central-difference step in k for the moments of Phi
EXPM_BLOCK = 1024       # matrices per block of the stacked exponential: bounds its temporaries
SKIP_TOL = 1e-12        # k-points whose proven |Phi| bound is below this are not evaluated
Template = Sequence[tuple[float, Sequence[float]]]   # (duration, weight row)


class InsufficientDecay(RuntimeError):
    """|Phi| has not decayed below threshold at the k-grid edge (mu too small)."""


def _checked_operator(M, name: str, dim: int, psd: bool = False) -> np.ndarray:
    """M as a complex array, checked dim x dim, finite, self-adjoint and, with psd, PSD."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (dim, dim):
        raise ValueError(f"{name} has shape {M.shape}, which differs from the model's {dim} x {dim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.max(np.abs(M - M.conj().T)) > HERMITICITY_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} is not self-adjoint within {HERMITICITY_TOL:g}")
    if psd and np.linalg.eigvalsh(M).min() < -1e-10:
        raise ValueError(f"{name} is not positive semidefinite")
    return M


@dataclass(frozen=True)
class ToyModel:
    """Hilbert-space model of the postulate's ingredients, its operators held as
    checked complex arrays of the Hamiltonian's dim x dim shape."""

    hamiltonian: np.ndarray
    observables: tuple[np.ndarray, ...]
    weight_ops: tuple[np.ndarray, ...]
    mu: float
    initial_state: np.ndarray

    def __post_init__(self):
        dim = len(self.hamiltonian)
        if dim == 0:
            raise ValueError("hamiltonian is 0 x 0: the model needs at least one dimension")
        H = _checked_operator(self.hamiltonian, "hamiltonian", dim)
        if not self.observables:
            raise ValueError("the model needs at least one observable")
        if len(self.observables) != len(self.weight_ops):
            raise ValueError("need one weight operator per observable")
        obs = tuple(_checked_operator(A, f"observable {j}", dim)
                    for j, A in enumerate(self.observables))
        wops = tuple(_checked_operator(C, f"weight op {j}", dim, psd=True)
                     for j, C in enumerate(self.weight_ops))
        W = _checked_operator(self.initial_state, "initial state", dim, psd=True)
        if abs(np.trace(W).real - 1.0) > 1e-12 or abs(np.trace(W).imag) > 1e-12:
            raise ValueError("initial state must have unit trace")
        if not 0 <= self.mu <= sys.float_info.max ** 0.25:
            raise ValueError("mu must be nonnegative, with mu^4 a finite float")
        for name, value in (("hamiltonian", H), ("observables", obs),
                            ("weight_ops", wops), ("initial_state", W)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.hamiltonian)

    @property
    def mu4(self) -> float:
        return self.mu**4

    @property
    def n_obs(self) -> int:
        return len(self.observables)


def two_level_model(c1: float = 1.0, c2: float = 1.0, mu: float = 0.8) -> ToyModel:
    """Two-level benchmark: A = diag(+1,-1), diagonal weight op, mixed state.

    With zero Hamiltonian and a single unit-length slice this model has the
    closed-form characteristic function

        Phi(k) = (e^{ik - mu^4 c1 k^2/2} + e^{-ik - mu^4 c2 k^2/2}) / 2

    and density p = N(+1, mu^4 c1)/2 + N(-1, mu^4 c2)/2.
    """
    return ToyModel(
        hamiltonian=np.zeros((2, 2)),
        observables=(np.diag([1.0, -1.0]),),
        weight_ops=(np.diag([c1, c2]),),
        mu=mu,
        initial_state=np.eye(2) / 2,
    )


def random_model(seed: int, dim: int | None = None, n_obs: int = 1,
                 random_psd_weights: bool = False) -> ToyModel:
    """Randomized model in the positivity-safe class used by the test battery.

    Weight operators are c0*I + c1*A^2 (or a floored random PSD matrix when
    random_psd_weights is set) and mu^4 stays at O(1), so the Gaussian
    smearing dominates the k-space tails.  The Hamiltonian is rescaled to
    keep ||[H, A_j]|| <= mu^4 lam_min(C_j): the kernel carries no
    double-commutator decoherence, so once the Hamiltonian rotation of an
    observable outruns the smearing variance (empirically at about three
    times this cap) the inverted density develops genuine negative lobes
    and the postulate's positivity claim stops holding.
    """
    rng = np.random.default_rng(seed)
    if dim is None:
        dim = int(rng.integers(2, 5))

    def herm():
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (X + X.conj().T) / 2

    H = herm()
    obs, wops = [], []
    for _ in range(n_obs):
        A = herm()
        if random_psd_weights:
            X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            C = X @ X.conj().T / dim + 0.3 * np.eye(dim)
        else:
            C = rng.uniform(0.5, 1.5) * np.eye(dim) + rng.uniform(0.0, 0.5) * (A @ A)
        obs.append(A)
        wops.append(C)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    W = X @ X.conj().T
    W /= np.trace(W).real
    mu = float(rng.uniform(0.3, 1.0)) ** 0.25

    cap = min(mu**4 * np.linalg.eigvalsh(C).min() for C in wops)
    rot = max(np.linalg.norm(H @ A - A @ H, 2) for A in obs)
    if rot > cap:
        H = H * (cap / rot)
    return ToyModel(hamiltonian=H, observables=tuple(obs), weight_ops=tuple(wops),
                    mu=mu, initial_state=W)


def pointer_random_model(seed: int) -> ToyModel:
    """Random model in the pointer sector: [H, A] = [W, A] = [C, A] = 0.

    Sharp-outcome conditioning produces an exactly positive reduced state
    only on this sector.  Off it, the conditioning kernel acts as a Hadamard
    multiplier with indefinite sign structure on the observable's
    off-diagonal coherences, and the conditioned operator acquires genuine
    negative eigenvalues of order |W_offdiag| * spectrum^2 / smearing
    variance -- a sharp boundary of the reduction postulate that the
    reduction property test documents rather than hides.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    V = np.linalg.qr(X)[0]                          # random common eigenbasis
    a = np.sort(rng.uniform(-1.5, 1.5, size=dim))
    h = rng.uniform(-1.0, 1.0, size=dim)
    c = rng.uniform(0.4, 1.6, size=dim)
    w = rng.uniform(0.05, 1.0, size=dim)
    w /= w.sum()
    mu = float(rng.uniform(0.3, 1.0)) ** 0.25
    diag = lambda d: V @ np.diag(d) @ V.conj().T
    return ToyModel(hamiltonian=diag(h), observables=(diag(a),), weight_ops=(diag(c),),
                    mu=mu, initial_state=diag(w))


# --- kernel and propagation -----------------------------------------------------

def _coupling_operator(model: ToyModel, xi) -> np.ndarray:
    """Y = i sum xi_j A_j - (mu^4/2) sum xi_j^2 C_j, for xi of shape (..., n_obs)."""
    xi = np.asarray(xi, dtype=float)
    Y = np.zeros(xi.shape[:-1] + (model.dim, model.dim), dtype=complex)
    for j, (A, C) in enumerate(zip(model.observables, model.weight_ops)):
        x = xi[..., j, None, None]
        Y += 1j * x * A
        Y -= 0.5 * model.mu4 * x * x * C
    return Y


# Pade-13 numerator coefficients b_0..b_13 and the 1-norm up to which the
# approximant alone has backward error below the unit roundoff (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A) -> np.ndarray:
    """Matrix exponential of every matrix of a stack, shape (..., N, N).

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26(4):1179, 2005).  Each matrix gets its own scaling
    2^-s with s the least power bringing its 1-norm below _THETA13, and is
    squared s times.  The flattened stack goes through in blocks of
    EXPM_BLOCK matrices; every operation acts on one matrix at a time, so the
    result for a matrix does not depend on the stack or the blocking.
    """
    A = np.asarray(A, dtype=complex)
    flat = A.reshape((-1,) + A.shape[-2:])
    out = np.empty_like(flat)
    for lo in range(0, len(flat), EXPM_BLOCK):
        out[lo:lo + EXPM_BLOCK] = _expm_block(flat[lo:lo + EXPM_BLOCK])
    return out.reshape(A.shape)


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over stacks of matrices, broadcast as `@` broadcasts, in one
    np.matvec call: A times each column of B."""
    return np.swapaxes(np.matvec(A[..., None, :, :], np.swapaxes(B, -1, -2)), -1, -2)


def _expm_block(A: np.ndarray) -> np.ndarray:
    """_expm of a flat stack, shape (M, N, N)."""
    norm = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norm)):
        raise FloatingPointError("non-finite entries in a generator")
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    A = A * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    ident = np.eye(A.shape[-1])
    A2 = _matmul(A, A)
    A4 = _matmul(A2, A2)
    A6 = _matmul(A4, A2)
    U = _matmul(A, _matmul(A6, b[13] * A6 + b[11] * A4 + b[9] * A2)
                + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (_matmul(A6, b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    # r = (V - U)^-1 (V + U), written so that a zero generator gives I exactly
    E = ident + 2 * np.linalg.solve(V - U, U)
    for j in range(int(s.max(initial=0))):
        more = np.flatnonzero(s > j)
        Em = E[more]
        E[more] = _matmul(Em, Em)
    return E


def _slice_factors(model: ToyModel, xi, dt: float):
    """(E_left, E_right), stacked on a leading axis of two, with
    W -> E_left W E_right for one constant slice.

    The generator splits into commuting left- and right-multiplication parts,
    so the slice map is exactly a two-sided matrix exponential; no Trotter
    error is incurred within a constant-coupling slice.  A stack of couplings
    xi, shape (..., n_obs), gives stacks of factors, shape (..., N, N).  Both
    generators go through one call of _expm, the Pade-13 scaling-and-squaring
    exponential, which takes the stack EXPM_BLOCK matrices at a time: for
    small matrices each of its products costs mostly per call, so one call
    on both factors costs less than two, and a matrix's result does not
    depend on the stack it sits in.
    """
    H = model.hamiltonian
    Y = _coupling_operator(model, xi)
    return _expm(dt * np.stack((-1j * H + 0.5 * Y, 1j * H + 0.5 * Y)))


def evolve_density(model: ToyModel, template: Template, kvecs, W: np.ndarray) -> np.ndarray:
    """G[k] W for every coupling vector k of a stack, shape (..., n_obs).

    Slice s of the template couples xi = k * w_s; all k-points advance
    together through the slices, later slices acting on the left.  Returns
    the evolved operators, shape (..., N, N); W may itself be a stack that
    broadcasts against the k-points.  This is the only construction of the
    slice-ordered map: Phi, the moments and the reduced state all read it.
    """
    template = _template_for(model, template)
    kvecs = np.asarray(kvecs, dtype=float)
    if kvecs.shape[-1:] != (model.n_obs,):
        raise ValueError(f"expected {model.n_obs} couplings per k-point, got shape {kvecs.shape}")
    W = np.asarray(W, dtype=complex)
    for dt, wrow in template:
        El, Er = _slice_factors(model, kvecs * np.asarray(wrow, dtype=float), dt)
        W = _matmul(_matmul(El, W), Er)
    if not np.all(np.isfinite(W)):
        raise FloatingPointError("non-finite entries during propagation")
    return W


# --- characteristic function and density -----------------------------------------

def _template_for(model: ToyModel, template: Template | None) -> Template:
    """The template, once each slice has a positive duration and one weight
    per observable; None gives one unit slice of unit weights."""
    if template is None:
        return ((1.0, (1.0,) * model.n_obs),)
    for s, (dt, wrow) in enumerate(template):
        if not (dt > 0 and len(wrow) == model.n_obs):
            raise ValueError(f"slice {s} is ({dt!r}, {wrow!r}): it needs a positive duration "
                             f"and {model.n_obs} weight(s), one per observable")
    return template


def _spacing(grid: np.ndarray, ax: int) -> float:
    """Spacing of grid axis `ax`, read off its first two points."""
    if len(grid) < 2:
        raise ValueError(f"grid axis {ax} has {len(grid)} point(s); a spacing needs two")
    return float(grid[1] - grid[0])


@dataclass(frozen=True)
class CharacteristicFunction:
    """Sampled Phi(k) = Tr{G[k] W} on centered uniform k-grids (one per observable)."""

    k_grids: tuple[np.ndarray, ...]
    samples: np.ndarray            # complex, shape = grid lengths
    template: Template

    def __post_init__(self):
        center = tuple(len(g) // 2 for g in self.k_grids)
        for ax, (g, c) in enumerate(zip(self.k_grids, center)):
            if len(g) == 0:
                raise ValueError(f"k-grid axis {ax} is empty")
            if abs(g[c]) > 1e-12:
                raise ValueError("k-grids must be centered on zero")
        if abs(self.samples[center] - 1.0) > 1e-10:
            raise ValueError(f"Phi(0) = {self.samples[center]:.12f} != 1")

    @property
    def dk(self) -> tuple[float, ...]:
        return tuple(_spacing(g, ax) for ax, g in enumerate(self.k_grids))

    def edge_decay(self) -> float:
        """Largest |Phi| on any face of the grid."""
        worst = 0.0
        for ax in range(self.samples.ndim):
            sl = [slice(None)] * self.samples.ndim
            for edge in (0, -1):
                sl[ax] = edge
                worst = max(worst, float(np.max(np.abs(self.samples[tuple(sl)]))))
        return worst


def characteristic_fn(model: ToyModel, template: Template | None,
                      k_grids: Sequence[np.ndarray]) -> CharacteristicFunction:
    """Sample Phi over the outer product of per-observable k-grids.

    The template assigns each slice a duration and a weight row w_s; slice s
    couples xi_j = k_j * w_sj, so the template is the discrete analog of the
    weight profile that smears each observable in time.

    Samples whose proven decay bound (module docstring) is below SKIP_TOL
    are exactly zero; the true |Phi| there is smaller still.  Indices 0, 1
    and -1 of every axis of more than one point, the grid faces and their
    k -> -k mirrors, are always evaluated.
    """
    k_grids = [np.asarray(g, dtype=float) for g in k_grids]
    if len(k_grids) != model.n_obs:
        raise ValueError("need one k-grid per observable")
    template = _template_for(model, template)
    kvecs = _k_mesh(k_grids)
    faces = np.zeros(kvecs.shape[:-1], dtype=bool)
    for ax in range(faces.ndim):
        if faces.shape[ax] > 1:
            edge = np.moveaxis(faces, ax, 0)
            edge[:2] = edge[-1] = True
    mask, W = _evolve_significant(model, template, kvecs, faces)
    samples = np.zeros(kvecs.shape[:-1], dtype=complex)
    samples[mask] = np.trace(W, axis1=-2, axis2=-1)
    return CharacteristicFunction(k_grids=tuple(k_grids), samples=samples, template=template)


def _k_mesh(k_grids: Sequence[np.ndarray]) -> np.ndarray:
    """Outer product of per-observable grids as k-vectors, shape (*lengths, n_obs)."""
    return np.stack(np.meshgrid(*k_grids, indexing="ij"), axis=-1)


def _smearing(model: ToyModel, template: Template) -> list[tuple[float, np.ndarray]]:
    """Per observable j: (sum_s dt_s w_sj^2, eigenvalues of C_j), the Gaussian damping."""
    out = []
    for j, C in enumerate(model.weight_ops):
        try:
            wsum = sum(dt * wrow[j] ** 2 for dt, wrow in template)
        except OverflowError:       # a float power raises where a product gives inf
            wsum = math.inf
        out.append((wsum, np.linalg.eigvalsh(C)))
    return out


def _decay_bound(model: ToyModel, template: Template, kvecs: np.ndarray) -> np.ndarray:
    """The module docstring's bound on ||G[k] W||_1 / ||W||_1, shape kvecs.shape[:-1]."""
    rate = np.array([0.5 * model.mu4 * wsum * lam[0] for wsum, lam in _smearing(model, template)])
    return np.exp(-np.sum(np.square(kvecs) * rate, axis=-1))


def _evolve_significant(model: ToyModel, template: Template, kvecs: np.ndarray,
                        always=False) -> tuple[np.ndarray, np.ndarray]:
    """(mask, G[k] W) for the k-points of a stack that the decay bound cannot rule out.

    The mask, shape kvecs.shape[:-1], marks the points whose _decay_bound
    reaches SKIP_TOL, and those marked in `always`; they are evolved as one
    stack and returned in C order, shape (count, N, N).
    """
    # a NaN bound (k = 0 against an overflowed weight sum) rules nothing out
    mask = always | ~(_decay_bound(model, template, kvecs) < SKIP_TOL)
    return mask, evolve_density(model, template, kvecs[mask], model.initial_state)


def _finite(j: int, name: str, value: float) -> float:
    if not math.isfinite(value):
        raise InsufficientDecay(f"observable {j}: {name} overflows the float range")
    return value


def auto_k_grid(model: ToyModel, template: Template | None = None,
                max_points: int = 4096) -> list[np.ndarray]:
    """Per-observable centered k-grids sized so |Phi| < K_TAIL at the edges.

    Extent from the guaranteed Gaussian damping exp(-mu^4 k^2 sum_s dt w^2
    lam_min(C)/2); spacing from the spectral support of the smeared
    observable plus Gaussian tails (conjugate sampling relation).
    """
    template = _template_for(model, template)
    grids = []
    for j, (A, (wsum, lam)) in enumerate(zip(model.observables, _smearing(model, template))):
        wsum = _finite(j, "the weight sum dt w^2", wsum)
        wabs = sum(dt * abs(wrow[j]) for dt, wrow in template)
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        damping = model.mu4 * wsum * lam_min
        if not damping > 0:     # mu = 0, a zero weight sum or a singular C_j
            raise InsufficientDecay(f"observable {j} has no k-space damping; grid-based "
                                    "inversion needs mu^4 sum_s dt w^2 lam_min(C) > 0")
        # design for a tenth of the target tail: the power-of-two grid rounding
        # leaves the positive edge one dk short of the nominal extent
        k_max = _finite(j, "k_max", math.sqrt(2 * math.log(10.0 / K_TAIL) / damping))
        a_max = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        theta_max = _finite(j, "theta_max",
                            wabs * a_max + 8 * math.sqrt(model.mu4 * wsum * lam_max) + 1.0)
        dk = math.pi / theta_max
        points = _finite(j, "the point count", 2 * k_max / dk)
        M = max(MIN_K_POINTS, 2 ** math.ceil(math.log2(points)))
        if M > max_points:
            raise InsufficientDecay(f"observable {j} would need 2^{M.bit_length() - 1} "
                                    f"k-points (> {max_points}); mu too small")
        grids.append((np.arange(M) - M // 2) * dk)
    return grids


@dataclass(frozen=True)
class DensitySamples:
    """Probability density on centered theta-grids; each axis's moments are read
    off that axis's marginal."""

    theta_grids: tuple[np.ndarray, ...]
    p: np.ndarray                # real
    imag_residual: float         # max |Im| discarded by the inversion

    @property
    def dtheta(self) -> tuple[float, ...]:
        return tuple(_spacing(t, ax) for ax, t in enumerate(self.theta_grids))

    def cell(self) -> float:
        return math.prod(self.dtheta)

    def normalization(self) -> float:
        return float(np.sum(self.p) * self.cell())

    def min_value(self) -> float:
        return float(np.min(self.p))

    def mean(self) -> np.ndarray:
        marginals = [marginalize(self, [ax]) for ax in range(self.p.ndim)]
        return np.array([float(np.dot(m.p, m.theta_grids[0]) * m.dtheta[0]) for m in marginals])

    def variance(self) -> np.ndarray:
        marginals = [marginalize(self, [ax]) for ax in range(self.p.ndim)]
        second = [float(np.sum(m.p * th * th) * m.dtheta[0])
                  for m in marginals for th in m.theta_grids]
        return np.array(second) - self.mean()**2


def _invert_axis(arr: np.ndarray, dk: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of the centered inverse transform sum_n Phi_n exp(-i k_n theta_m) dk/2pi."""
    M = arr.shape[axis]
    n = np.arange(M)
    shape = [1] * arr.ndim
    shape[axis] = M
    signs = ((-1.0) ** n).reshape(shape)
    f = np.fft.fft(arr * signs, axis=axis)
    phase = ((-1.0) ** n).reshape(shape) * np.exp(-1j * np.pi * M / 2)
    out = dk / (2 * np.pi) * phase * f
    dtheta = 2 * np.pi / (M * dk)
    theta = (n - M // 2) * dtheta
    return out, theta


def invert_to_density(cf: CharacteristicFunction) -> DensitySamples:
    """Discrete Fourier inversion of Phi on conjugate centered theta-grids.

    Requires |Phi| to have decayed below K_TAIL at every grid edge, which the
    mu^4-Gaussian damping guarantees for a wide enough grid; otherwise the
    periodized density would alias.  Each k-axis needs an even point count
    with zero at index len // 2; on an odd count the transform is no inverse.
    """
    for ax, g in enumerate(cf.k_grids):
        if len(g) % 2:
            raise ValueError(f"k-grid axis {ax} has an odd point count ({len(g)})")
    decay = cf.edge_decay()
    if decay > K_TAIL:
        raise InsufficientDecay(
            f"|Phi| = {decay:.2e} at the k-grid edge exceeds {K_TAIL:g}; "
            "mu too small for this grid")
    arr = cf.samples.astype(complex)
    thetas = []
    for ax, dk in enumerate(cf.dk):
        arr, theta = _invert_axis(arr, dk, ax)
        thetas.append(theta)
    imag_res = float(np.max(np.abs(arr.imag)))
    return DensitySamples(theta_grids=tuple(thetas), p=arr.real, imag_residual=imag_res)


def density(model: ToyModel) -> DensitySamples:
    """Convenience pipeline: auto grid -> characteristic function -> density."""
    return invert_to_density(characteristic_fn(model, None, auto_k_grid(model)))


def cf_moments(model: ToyModel) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments from central differences of Phi at k = 0.

    mean_j = -i dPhi/dk_j,  second_ij = - d2 Phi / dk_i dk_j.
    """
    n = model.n_obs
    h = CF_MOMENT_STEP
    # Phi on the stencil {-h, 0, h}^n, indexed by the step signs plus one;
    # every point of a three-point axis is a face, so none is skipped
    samples = characteristic_fn(model, None, [np.array([-h, 0.0, h])] * n).samples

    def phi(steps):
        return complex(samples[tuple(steps + 1)])

    mean = np.empty(n)
    second = np.empty((n, n))
    e = np.eye(n, dtype=int)
    for j in range(n):
        mean[j] = (-1j * (phi(e[j]) - phi(-e[j])) / (2 * h)).real
    p0 = phi(np.zeros(n, dtype=int))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                d2 = (phi(e[i]) - 2 * p0 + phi(-e[i])) / h**2
            else:
                d2 = (phi(e[i] + e[j]) - phi(e[i] - e[j])
                      - phi(e[j] - e[i]) + phi(-(e[i] + e[j]))) / (4 * h**2)
            second[i, j] = second[j, i] = (-d2).real
    return mean, second


def marginalize(ds: DensitySamples, keep: Sequence[int]) -> DensitySamples:
    """Integrate out every axis not listed in `keep` (order preserved)."""
    keep = sorted(keep)
    drop = [ax for ax in range(ds.p.ndim) if ax not in keep]
    p = ds.p
    for ax in sorted(drop, reverse=True):
        p = p.sum(axis=ax) * ds.dtheta[ax]
    return DensitySamples(
        theta_grids=tuple(ds.theta_grids[ax] for ax in keep),
        p=p,
        imag_residual=ds.imag_residual,
    )


# --- state reduction ---------------------------------------------------------

@dataclass(frozen=True)
class ReducedState:
    """Conditioned density matrix after observing theta_bar on the past window."""

    W_c: np.ndarray
    p_past: float                 # joint density of the observed values
    hermiticity_defect: float
    min_eigenvalue: float
    trace_defect: float


def reduce_state(model: ToyModel, template: Template | None,
                 theta_bar: Sequence[float],
                 k_grids: Sequence[np.ndarray] | None = None) -> ReducedState:
    """Condition the state on observed smeared values for the past window.

    Fourier-inverts the operator-valued numerator at theta_bar:

        W_num = prod_j (dk_j/2pi) sum_k exp(-i k.theta_bar) G[k] W,
        W_c   = W_num / Tr W_num,

    where Tr W_num is the past density at theta_bar.  Conditioning on an
    outcome whose density underflows raises.  The sum leaves out the
    k-points whose proven bound ||G[k] W||_1 (module docstring) is below
    SKIP_TOL.

    W_c is always hermitian and trace one, and the Bayes identity
    (conditional future density times past density equals the joint) holds
    for any model.  Positivity of W_c under sharp conditioning, however,
    holds on the pointer sector ([H, A] = [W, A] = 0); see
    pointer_random_model for the boundary.
    """
    template = _template_for(model, template)
    if k_grids is None:
        k_grids = auto_k_grid(model, template)
    k_grids = [np.asarray(g, dtype=float) for g in k_grids]
    theta_bar = np.asarray(theta_bar, dtype=float)
    if len(theta_bar) != model.n_obs:
        raise ValueError("theta_bar length mismatch")
    cell = math.prod(_spacing(g, ax) / (2 * np.pi) for ax, g in enumerate(k_grids))
    kvecs = _k_mesh(k_grids).reshape(-1, len(k_grids))
    mask, Wk = _evolve_significant(model, template, kvecs)
    kvecs = kvecs[mask]
    # vecdot takes one dot product per k-point and the sum adds the k-points
    # in grid order; a matrix-vector product or tensordot rounds differently
    Wnum = np.sum(np.exp(-1j * np.vecdot(kvecs, theta_bar))[:, None, None] * Wk, axis=0)
    Wnum *= cell
    p_past = float(np.trace(Wnum).real)
    if p_past < 1e-12:
        raise ValueError(f"conditioning on a measure-zero outcome (p = {p_past:.3e})")
    Wc = Wnum / np.trace(Wnum)
    herm = float(np.max(np.abs(Wc - Wc.conj().T)))
    eig = np.linalg.eigvalsh(0.5 * (Wc + Wc.conj().T))
    return ReducedState(W_c=Wc, p_past=p_past,
                        hermiticity_defect=herm,
                        min_eigenvalue=float(eig.min()),
                        trace_defect=float(abs(np.trace(Wc) - 1.0)))
