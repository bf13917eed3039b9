"""Property battery for the probability-postulate model.

Each property is a standalone check over randomized small models (dims 2-4)
or over the analytic two-level benchmark.  The command-line front end prints
one line per property; the test suite asserts them individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import toymodel as tm


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: worst {self.worst:.3e} "
                f"(tolerance {self.tolerance:.1e}) {self.detail}")


def _random_suite(n_seeds: int, dims=(2, 3, 4)):
    for s in range(n_seeds):
        dim = dims[s % len(dims)]
        yield s, tm.random_model(seed=s, dim=dim,
                                 random_psd_weights=(s % 5 == 4))


def _single_view(model: tm.ToyModel, index: int) -> tm.ToyModel:
    """One-observable view of a model."""
    return replace(model, observables=model.observables[index:index + 1],
                   weight_ops=model.weight_ops[index:index + 1])


def _mirror_indices(M: int) -> np.ndarray:
    """Indices c -+ j of a centered even axis of M >= 64 points, c = M // 2, for
    j = 1, M/8, M/4 and M/2 - 1; index i holds k, index M - i holds -k.

    The pairs run from next to k = 0, where |Phi| is near one, to the grid
    faces (indices 1 and -1).  The faces alone would be no check: |Phi| is
    below K_TAIL there, and so is what a broken slice factor makes of it.
    """
    j = np.array([1, M // 8, M // 4, M // 2 - 1])
    return M // 2 + np.concatenate((-j, j))


def _symmetry_defect(group) -> float:
    """max |conj Phi(k) - Phi(-k)| over (model, k, Phi(-k)) triples of one
    dimension, on the unit slice.  Phi(k) is recomputed with each factor
    exponentiated from its own generator, the right one from iH + Y(k)/2
    rather than read as the adjoint of the left one at -k, so the stored
    Phi(-k) is compared with an independent value; one _expm call takes
    every generator of the group.
    """
    gens = []
    for model, k, _ in group:
        iH = 1j * model.hamiltonian
        half_Y = 0.5 * tm._coupling_operator(model, k[:, None])
        gens += [-iH + half_Y, iH + half_Y]
    E = tm._expm(np.stack(gens))
    worst = 0.0
    for (model, _, mirrored), El, Er in zip(group, E[0::2], E[1::2]):
        phi = np.trace(El @ model.initial_state @ Er, axis1=-2, axis2=-1)
        worst = max(worst, float(np.max(np.abs(np.conj(phi) - mirrored))))
    return worst


@lru_cache(maxsize=4)
def _sweep_stats(n_seeds: int) -> tuple[float, float, float, tuple]:
    """One pass over the random suite: (norm_worst, herm_worst, pos_worst, fails)."""
    norm_worst = 0.0
    pos_worst = 0.0
    failures = []
    by_dim = {}
    for s, model in _random_suite(n_seeds):
        (grid,) = tm.auto_k_grid(model)
        cf = tm.characteristic_fn(model, None, [grid])
        idx = _mirror_indices(len(grid))
        by_dim.setdefault(model.dim, []).append((model, grid[idx], cf.samples[len(grid) - idx]))
        ds = tm.invert_to_density(cf)
        norm_worst = max(norm_worst, abs(ds.normalization() - 1.0))
        mn = ds.min_value()
        pos_worst = min(pos_worst, mn)
        if mn <= -1e-8:
            failures.append(s)
    herm_worst = max(_symmetry_defect(group) for group in by_dim.values())
    return norm_worst, herm_worst, pos_worst, tuple(failures)


def check_normalization(n_seeds: int = 50) -> PropertyResult:
    """|integral p - 1| < 1e-6 for every random model."""
    worst = _sweep_stats(n_seeds)[0]
    return PropertyResult("normalization", worst < 1e-6, worst, 1e-6)


def check_hermitian_symmetry(n_seeds: int = 50) -> PropertyResult:
    """Phi(-k) = conj(Phi(k)) to 1e-10, the sampled Phi(-k) against Phi(k)
    recomputed from both generators, at four mirror pairs of each grid."""
    worst = _sweep_stats(n_seeds)[1]
    return PropertyResult("hermitian-symmetry", worst < 1e-10, worst, 1e-10)


def check_positivity(n_seeds: int = 50) -> PropertyResult:
    """min p > -1e-8 for every random model (numerical probe of positivity)."""
    _, _, worst, failures = _sweep_stats(n_seeds)
    detail = f"negative at seeds {list(failures)}" if failures else ""
    return PropertyResult("positivity", worst > -1e-8, worst, -1e-8, detail)


def check_composition(n_seeds: int = 25) -> PropertyResult:
    """A constant slice of duration dt1 + dt2 equals dt1 followed by dt2, to 1e-10.

    Both sides run evolve_density, the path behind Phi, at k = (1, 1) on
    every matrix unit, so the whole slice map is compared.  The split is
    exact, so this reads the semigroup property of the Pade-13 exponentials.
    """
    worst = 0.0
    for s in range(n_seeds):
        model = tm.random_model(seed=1000 + s, dim=2 + s % 3, n_obs=2)
        rng = np.random.default_rng(2000 + s)
        dt1, dt2 = rng.uniform(0.2, 0.8, size=2).tolist()
        w = rng.normal(size=2).tolist()
        k = np.ones(2)
        units = np.eye(model.dim**2, dtype=complex).reshape(-1, model.dim, model.dim)
        whole = tm.evolve_density(model, ((dt1 + dt2, w),), k, units)
        first = tm.evolve_density(model, ((dt1, w),), k, units)
        split = tm.evolve_density(model, ((dt2, w),), k, first)
        worst = max(worst, float(np.max(np.abs(whole - split))))
    return PropertyResult("composition", worst < 1e-10, worst, 1e-10)


def check_two_level_oracle() -> PropertyResult:
    """Sampled Phi matches the closed form; density matches the Gaussian mixture."""
    c1, c2, mu = 0.7, 1.3, 0.8
    model = tm.two_level_model(c1=c1, c2=c2, mu=mu)
    grids = tm.auto_k_grid(model)
    cf = tm.characteristic_fn(model, None, grids)
    k = grids[0]
    mu4 = mu**4
    exact = 0.5 * (np.exp(1j * k - mu4 * c1 * k**2 / 2)
                   + np.exp(-1j * k - mu4 * c2 * k**2 / 2))
    err_cf = float(np.max(np.abs(cf.samples - exact)))
    ds = tm.invert_to_density(cf)
    th = ds.theta_grids[0]
    s1, s2 = mu4 * c1, mu4 * c2
    mixture = (0.5 / math.sqrt(2 * math.pi * s1) * np.exp(-(th - 1) ** 2 / (2 * s1))
               + 0.5 / math.sqrt(2 * math.pi * s2) * np.exp(-(th + 1) ** 2 / (2 * s2)))
    err_p = float(np.max(np.abs(ds.p - mixture)))
    worst = max(err_cf, err_p)
    return PropertyResult("two-level-oracle", worst < 1e-8, worst, 1e-8)


def check_moment_identities() -> PropertyResult:
    """Mean and variance identities on the analytic two-level benchmark.

    The quadrature mean equals the quantum mean (zero) and the derivative
    moments of Phi; the variance decomposes as mu^4 <C> plus the quantum
    variance of the observable (unity for sigma_z in the mixed state).
    """
    c1, c2, mu = 0.9, 1.1, 0.8
    model = tm.two_level_model(c1=c1, c2=c2, mu=mu)
    ds = tm.density(model)
    mean_q = ds.mean()[0]
    var_q = ds.variance()[0]
    mean_d, second_d = tm.cf_moments(model)
    var_expected = mu**4 * (c1 + c2) / 2 + 1.0   # classical + quantum variance
    worst = max(
        abs(mean_q),
        abs(mean_d[0]),
        abs(var_q - var_expected) / var_expected,
        abs(second_d[0, 0] - var_expected) / var_expected,
    )
    return PropertyResult("moment-identities", worst < 1e-6, worst, 1e-6)


def check_mu_to_zero_variance() -> PropertyResult:
    """As mu -> 0 the variance reduces to the pure quantum variance."""
    worst = 0.0
    for mu in (0.5, 0.35, 0.25):
        model = tm.two_level_model(c1=1.0, c2=1.0, mu=mu)
        ds = tm.density(model)
        worst = max(worst, abs(ds.variance()[0] - 1.0 - mu**4))
    return PropertyResult("mu-to-zero-variance", worst < 1e-6, worst, 1e-6,
                          "variance residual after removing the mu^4 term")


def check_marginalization(n_seeds: int = 6) -> PropertyResult:
    """Each observable's marginal equals the density recomputed with it alone, to 1e-5.

    Dropping observable i sets k_i to zero, so Phi is read on each k-axis
    alone (the other grid is {0}), inverted in 1-D and compared with the
    one-observable view's density on the same grid.
    """
    worst = 0.0
    for s in range(n_seeds):
        full = tm.random_model(seed=3000 + s, dim=2, n_obs=2)
        grids = tm.auto_k_grid(full, max_points=256)
        for j, axes in enumerate(([grids[0], np.zeros(1)], [np.zeros(1), grids[1]])):
            cf = tm.characteristic_fn(full, None, axes)
            marg = tm.invert_to_density(replace(cf, k_grids=(grids[j],),
                                                samples=cf.samples.ravel()))
            ds1 = tm.invert_to_density(
                tm.characteristic_fn(_single_view(full, j), None, [grids[j]]))
            worst = max(worst, float(np.max(np.abs(marg.p - ds1.p))))
    return PropertyResult("marginalization", worst < 1e-5, worst, 1e-5)


def _bayes_defect(seed: int, theta1: float) -> float:
    """Defect of the Bayes identity p(t2 | t1) p(t1) = p(t1, t2), relative to
    p(t1), for a past window on observable 0 and a future one on observable 1.

    By linearity Tr(G_future[k2] p(t1) W_c) = sum_k1 exp(-i k1 t1)
    Phi_joint(k1, k2) dk1/2pi, read at k2 in g2[::len(g2) // 8], zero included.
    """
    model = tm.random_model(seed=seed, dim=2, n_obs=2)
    joint_template = ((0.5, (1.0, 0.0)), (0.5, (0.0, 1.0)))
    g1, g2 = tm.auto_k_grid(model, joint_template, max_points=256)
    k2 = g2[::len(g2) // 8]
    red = tm.reduce_state(_single_view(model, 0), ((0.5, (1.0,)),), [theta1], k_grids=[g1])
    future = tm.evolve_density(_single_view(model, 1), ((0.5, (1.0,)),), k2[:, None],
                               red.p_past * red.W_c)
    phi = tm.characteristic_fn(model, joint_template, [g1, k2]).samples
    rhs = np.exp(-1j * g1 * theta1) @ phi * (g1[1] - g1[0]) / (2 * np.pi)
    return float(np.max(np.abs(np.trace(future, axis1=-2, axis2=-1) - rhs))) / red.p_past


def check_reduction(n_seeds: int = 12) -> PropertyResult:
    """Contract of the conditioned state, to 1e-10.

    General random models: trace one and hermitian (these hold for any
    model).  Pointer-sector random models: minimum eigenvalue nonnegative
    (sharp-conditioning positivity holds exactly on that sector and
    genuinely fails off it; the generator docstrings carry the boundary).
    Two-level benchmark: sharp conditioning concentrates the state on the
    matching eigenstate with the analytic Gaussian weights.  Eight
    two-observable models: the Bayes identity, exactly in k-space
    (_bayes_defect), at a past outcome drawn in [-1, 1].
    """
    worst = 0.0
    for _, model in _random_suite(n_seeds, dims=(2, 3)):
        red = tm.reduce_state(_single_view(model, 0), None, [0.3])
        worst = max(worst, red.trace_defect, red.hermiticity_defect)
    for s in range(n_seeds):
        model = tm.pointer_random_model(seed=5000 + s)
        red = tm.reduce_state(model, None, [0.3])
        worst = max(worst, red.trace_defect, -red.min_eigenvalue,
                    red.hermiticity_defect)

    mu = 0.7
    bench = tm.two_level_model(c1=1.0, c2=1.0, mu=mu)
    red = tm.reduce_state(bench, None, [0.95])
    s2 = mu**4
    w1 = math.exp(-(0.95 - 1) ** 2 / (2 * s2))
    w2 = math.exp(-(0.95 + 1) ** 2 / (2 * s2))
    expect = w1 / (w1 + w2)
    got = red.W_c[0, 0].real
    worst = max(worst, abs(got - expect))
    detail = f"plus-state weight {got:.6f} vs analytic {expect:.6f}"

    rng = np.random.default_rng(4000)
    for s in range(8):
        worst = max(worst, _bayes_defect(4000 + s, rng.uniform(-1.0, 1.0)))
    return PropertyResult("reduction", worst < 1e-10, worst, 1e-10, detail)


BATTERY = (
    check_normalization,
    check_hermitian_symmetry,
    check_positivity,
    check_composition,
    check_two_level_oracle,
    check_moment_identities,
    check_mu_to_zero_variance,
    check_marginalization,
    check_reduction,
)

_SEEDED = {check_normalization, check_hermitian_symmetry, check_positivity}


def run_battery(n_seeds: int = 50) -> list[PropertyResult]:
    """Run the nine properties in BATTERY order.  n_seeds sizes only the random
    sweep that the _SEEDED properties share; the others run fixed seeds."""
    return [fn(n_seeds) if fn in _SEEDED else fn() for fn in BATTERY]
