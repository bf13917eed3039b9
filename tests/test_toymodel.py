import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import inflatonlab.toymodel as tm
from inflatonlab import toy_battery


def test_model_validation():
    H, A, C, W = np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2) / 2
    with pytest.raises(ValueError, match="self-adjoint"):
        tm.ToyModel(hamiltonian=np.array([[0, 1], [0, 0]]), observables=(A,),
                    weight_ops=(C,), mu=0.5, initial_state=W)
    with pytest.raises(ValueError, match="positive semidefinite"):
        tm.ToyModel(hamiltonian=H, observables=(A,), weight_ops=(-C,), mu=0.5, initial_state=W)
    with pytest.raises(ValueError, match="unit trace"):
        tm.ToyModel(hamiltonian=H, observables=(A,), weight_ops=(C,), mu=0.5,
                    initial_state=2 * W)
    # every operator takes the Hamiltonian's shape, checked at construction
    for name, shape in (("hamiltonian", (2, 3)), ("observable 0", (3, 3)),
                        ("weight op 0", (3, 3)), ("initial state", (3, 3))):
        ops = {"hamiltonian": H, "observable 0": A, "weight op 0": C, "initial state": W}
        ops[name] = np.eye(*shape) / shape[0]
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}, which")):
            tm.ToyModel(hamiltonian=ops["hamiltonian"], observables=(ops["observable 0"],),
                        weight_ops=(ops["weight op 0"],), mu=0.5,
                        initial_state=ops["initial state"])
    # a model without dimensions or without observables is rejected by name
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="hamiltonian is 0 x 0"):
        tm.ToyModel(hamiltonian=empty, observables=(empty,), weight_ops=(empty,), mu=0.5,
                    initial_state=empty)
    with pytest.raises(ValueError, match="at least one observable"):
        tm.ToyModel(hamiltonian=H, observables=(), weight_ops=(), mu=0.5, initial_state=W)
    model = tm.ToyModel(hamiltonian=H, observables=(A,), weight_ops=(C,), mu=0.5,
                        initial_state=W)
    assert model.dim == 2
    assert all(M.dtype == complex for M in (model.hamiltonian, *model.observables,
                                            *model.weight_ops, model.initial_state))


def test_model_rejects_non_finite_operators():
    # NaN and inf compare False against the self-adjointness tolerance, so
    # finiteness is its own named check on every operator
    ops = {"hamiltonian": np.zeros((2, 2)), "observable 0": np.eye(2),
           "weight op 0": np.eye(2), "initial state": np.eye(2) / 2}
    for name in ops:
        for bad in (np.nan, np.inf):
            M = ops[name].astype(complex)
            M[0, 0] = bad
            given = {**ops, name: M}
            with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
                tm.ToyModel(hamiltonian=given["hamiltonian"],
                            observables=(given["observable 0"],),
                            weight_ops=(given["weight op 0"],), mu=0.5,
                            initial_state=given["initial state"])

def _sides(X, Z):
    """W -> X W + W Z as an N^2 x N^2 matrix on the row-major vec of W."""
    eye = np.eye(len(X))
    return np.kron(X, eye) + np.kron(eye, Z.T)


def _kernel_matrix(model, xi):
    """K(xi) W = (Y W + W Y) / 2 with Y the coupling operator."""
    Y = tm._coupling_operator(model, xi)
    return 0.5 * _sides(Y, Y)


def _liouvillian(model):
    """Hamiltonian flow L_H W = -i [H, W]."""
    return -1j * _sides(model.hamiltonian, -model.hamiltonian)


def _apply_kernel(model, xi, W):
    """K(xi) W from the kernel's matrix form."""
    W = np.asarray(W, dtype=complex)
    return (_kernel_matrix(model, xi) @ W.reshape(-1)).reshape(W.shape)


def _window_mean(model):
    """Exact average of Tr(A W(t)) over the unit window, W(t) = e^{-iHt} W e^{iHt}.

    In H's eigenbasis Tr(A W(t)) = sum_mn A_nm W_mn e^{-i w_mn t} with
    w_mn = E_m - E_n, and e^{-i w t} averages to e^{-i w/2} sinc(w/2).
    """
    E, V = np.linalg.eigh(model.hamiltonian)
    A = V.conj().T @ model.observables[0] @ V
    W = V.conj().T @ model.initial_state @ V
    w = E[:, None] - E[None, :]
    return float(np.sum(A.T * W * np.exp(-0.5j * w) * np.sinc(w / (2 * np.pi))).real)


def test_apply_kernel_zero_coupling():
    model = tm.two_level_model()
    out = _apply_kernel(model, [0.0], model.initial_state)
    assert np.max(np.abs(out)) == 0.0


def test_apply_kernel_trace_identity():
    # cyclicity: Tr K(xi) W = i xi Tr(A W) - (mu^4/2) xi^2 Tr(C W)
    rng = np.random.default_rng(0)
    for s in range(6):
        model = tm.random_model(seed=100 + s, dim=3)
        W = model.initial_state
        xi = float(rng.normal())
        tr = np.trace(_apply_kernel(model, [xi], W))
        expect = (1j * xi * np.trace(model.observables[0] @ W)
                  - 0.5 * model.mu4 * xi**2 * np.trace(model.weight_ops[0] @ W))
        assert tr == pytest.approx(expect, rel=1e-12)


def test_apply_kernel_adjoint_symmetry():
    # K(W)^dagger equals K(W) with the i-term sign flipped, for hermitian W
    model = tm.random_model(seed=9, dim=3)
    W = model.initial_state
    xi = 0.7
    K = _apply_kernel(model, [xi], W)
    A, C = model.observables[0], model.weight_ops[0]
    Y_flipped = -1j * xi * A - 0.5 * model.mu4 * xi**2 * C
    K_flipped = 0.5 * (Y_flipped @ W + W @ Y_flipped)
    assert np.allclose(K.conj().T, K_flipped, atol=1e-12)


def test_apply_kernel_dimension_mismatch():
    # the coupling count is checked where the k-points enter, in evolve_density
    model = tm.two_level_model()
    with pytest.raises(ValueError, match="couplings"):
        tm.evolve_density(model, ((1.0, (1.0,)),), [0.1, 0.2], model.initial_state)


def _slice_map(model, template, k):
    """The map W -> G[k] W as an N^2 x N^2 matrix on the row-major vec of W,
    assembled from evolve_density on the N^2 matrix units."""
    n2 = model.dim**2
    units = np.eye(n2, dtype=complex).reshape(n2, model.dim, model.dim)
    return tm.evolve_density(model, template, k, units).reshape(n2, n2).T


def test_empty_schedule_is_identity():
    model = tm.random_model(seed=3, dim=3)
    G = _slice_map(model, [], [1.0])
    assert np.allclose(G, np.eye(9), atol=0)


def test_propagator_matches_generator_exponential():
    # one constant slice: the slice map equals expm of L_H + K as one matrix
    from scipy.linalg import expm
    model = tm.random_model(seed=4, dim=2)
    xi = [0.6]
    dt = 0.8
    G_fast = _slice_map(model, [(dt, [1.0])], xi)
    M = _liouvillian(model) + _kernel_matrix(model, xi)
    assert np.allclose(G_fast, expm(dt * M), atol=1e-12)


def _norm1(X):
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _toy_generators(model, xi, dt, h_scale=1.0):
    """The slice generators dt (-+ i h_scale H + Y/2), stacked, shape (2, N, N)."""
    iH = 1j * h_scale * np.asarray(model.hamiltonian)
    Y = tm._coupling_operator(model, xi)
    return dt * np.stack([-iH + 0.5 * Y, iH + 0.5 * Y])


def _scipy_error(got, A):
    """Largest 1-norm relative error of a stack of exponentials against scipy's
    exponential of each generator of A."""
    from scipy.linalg import expm
    ref = np.stack([expm(a) for a in A.reshape((-1,) + A.shape[-2:])])
    return float(np.max(_norm1(np.reshape(got, ref.shape) - ref) / _norm1(ref)))


def _expm_error(A):
    """Largest 1-norm relative error of the stacked exponential against scipy's."""
    return _scipy_error(tm._expm(A), A)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8), n_obs=st.integers(1, 2),
       xi=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2),
       dt=st.floats(0.01, 2.0))
def test_expm_matches_scipy_on_toy_generators(seed, dim, n_obs, xi, dt):
    model = tm.random_model(seed=seed, dim=dim, n_obs=n_obs)
    assert _expm_error(_toy_generators(model, xi[:n_obs], dt)) <= 1e-13


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 4),
       xi=st.floats(-3.0, 3.0), log_norm=st.floats(1.0, 3.0))
def test_expm_matches_scipy_at_large_norm(seed, dim, xi, log_norm):
    # a Hamiltonian rescaled to 1-norm 10..1000, so each matrix is squared up
    # to eight times; the exponential's relative condition number is at least
    # its generator's norm, so past norm 100 two backward-stable methods
    # agree to about 1e-15 ||A||_1 rather than to a fixed 1e-13
    model = tm.random_model(seed=seed, dim=dim)
    scale = 10.0**log_norm / _norm1(np.asarray(model.hamiltonian))
    A = _toy_generators(model, [xi], 1.0, h_scale=scale)
    assert _expm_error(A) <= 1e-13 * max(1.0, float(np.max(_norm1(A))) / 100)


@settings(max_examples=30)
@given(dim=st.integers(1, 4), re=st.floats(-30.0, 5.0), im=st.floats(-50.0, 50.0))
def test_expm_zero_and_diagonal(dim, re, im):
    # the zero generator gives the identity exactly; a diagonal one the
    # entrywise exponential of its diagonal
    assert np.array_equal(tm._expm(np.zeros((dim, dim))), np.eye(dim))
    d = (re + 1j * im) * np.linspace(1.0, 0.5, dim)
    got = tm._expm(np.diag(d))
    assert np.max(np.abs(got - np.diag(np.exp(d)))) <= 1e-13 * np.max(np.abs(np.exp(d)))
    assert _expm_error(np.diag(d)) <= 1e-13


@settings(max_examples=10)
@given(dim=st.integers(2, 4), a=st.integers(0, 3), b=st.integers(1, 3))
def test_expm_keeps_the_input_shape(dim, a, b):
    model = tm.random_model(seed=dim, dim=dim)
    xi = np.linspace(-2.0, 2.0, a * b).reshape(a, b, 1)
    A = _toy_generators(model, xi, 0.7)
    assert tm._expm(A).shape == A.shape == (2, a, b, dim, dim)
    single = _toy_generators(model, [0.5], 0.7)[0]
    assert tm._expm(single).shape == single.shape == (dim, dim)


@settings(max_examples=3)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8))
def test_expm_stack_is_bitwise_the_single_matrices(seed, dim):
    # a stack one block and three matrices long: the blocking and the
    # neighbours in the stack leave every result bit unchanged, also past
    # the dims the battery uses, which a user's toy.hamiltonian can reach
    model = tm.random_model(seed=seed, dim=dim, n_obs=2)
    xi = np.random.default_rng(seed).uniform(-6.0, 6.0, size=(tm.EXPM_BLOCK + 3, 2))
    A = _toy_generators(model, xi, 0.9)[0]
    stacked = tm._expm(A)
    assert np.array_equal(stacked, np.stack([tm._expm(a) for a in A]))


@settings(max_examples=20)
@given(dim=st.integers(1, 4), where=st.integers(0, 63),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, 1j * np.inf]))
def test_expm_rejects_non_finite_generators(dim, where, bad):
    A = np.zeros((3, dim, dim), dtype=complex)
    A.reshape(-1)[where % A.size] = bad
    with pytest.raises(FloatingPointError):
        tm._expm(A)


def _pairing_stacks(model, h, dk):
    """Coupling stacks, shape (..., n_obs), that _slice_factors pairs with
    their mirrors in different ways, each with a label."""
    n = model.n_obs
    even = (np.arange(8) - 4) * dk
    zero_row = np.stack([even, np.zeros_like(even)], axis=-1)[:, :n]
    mesh = tm._k_mesh([even] * n)
    yield "centered even grid", mesh
    yield "odd stencil", tm._k_mesh([np.array([-h, 0.0, h])] * n)
    yield "single k", np.full(n, h)
    yield "{0} axis", zero_row if n == 2 else np.zeros((1, 1))
    weights = np.zeros(n)
    weights[0] = 1.0
    yield "zero template weight", mesh * weights
    signed = np.zeros((3, n))
    signed[0, 0], signed[2, -1] = -0.0, h
    yield "-0.0 and +0.0", signed


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 4), n_obs=st.integers(1, 2),
       h=st.floats(0.01, 4.0), dk=st.floats(0.05, 1.5), dt=st.floats(0.05, 1.5))
def test_paired_right_factor_matches_its_own_exponential(seed, dim, n_obs, h, dk, dt):
    # E_r(xi), read as the adjoint of E_l(-xi), equals the exponential of the
    # right generator dt (iH + Y/2), and E_l that of dt (-iH + Y/2)
    model = tm.random_model(seed=seed, dim=dim, n_obs=n_obs)
    iH = 1j * model.hamiltonian
    for label, xi in _pairing_stacks(model, h, dk):
        El, Er = tm._slice_factors(model, xi, dt)
        half_Y = 0.5 * tm._coupling_operator(model, xi)
        assert El.shape == Er.shape == np.shape(xi)[:-1] + (dim, dim), label
        assert _scipy_error(El, dt * (-iH + half_Y)) <= 1e-13, label
        assert _scipy_error(Er, dt * (iH + half_Y)) <= 1e-13, label


def test_a_centered_grid_takes_one_exponential_per_mirror_pair(monkeypatch):
    # M points, none skipped by the decay bound: the couplings and their
    # mirrors are M + 1 distinct values, -M/2 dk .. M/2 dk
    model = tm.random_model(seed=3, dim=3)
    M = 64
    grid = (np.arange(M) - M // 2) * 0.05
    assert np.all(tm._decay_bound(model, ((1.0, (1.0,)),), grid[:, None]) >= tm.SKIP_TOL)
    counted = []
    expm = tm._expm

    def counting(A):
        counted.append(len(A))
        return expm(A)

    monkeypatch.setattr(tm, "_expm", counting)
    tm.characteristic_fn(model, None, [grid])
    assert counted == [M + 1]


def test_model_stores_the_hermitian_part_of_each_operator():
    # an operator within HERMITICITY_TOL of self-adjoint is accepted and
    # stored as (M + M^dagger)/2, exactly self-adjoint
    model = tm.random_model(seed=11, dim=3)
    skew = 1e-14 * np.array([[1j, 1, 0], [-1, 0, 2j], [0, 2j, -1j]])
    given = {"hamiltonian": model.hamiltonian + skew,
             "observables": (model.observables[0] + skew,),
             "weight_ops": (model.weight_ops[0] + skew,),
             "initial_state": model.initial_state + skew}
    stored = tm.ToyModel(mu=model.mu, **given)
    for name, M in given.items():
        M = M[0] if isinstance(M, tuple) else M
        kept = getattr(stored, name)
        kept = kept[0] if isinstance(kept, tuple) else kept
        assert np.array_equal(kept, (M + M.conj().T) / 2), name
        assert np.array_equal(kept, kept.conj().T), name
    # an exactly self-adjoint operator is stored bit for bit, and one with
    # entries near the float range stays finite
    for H in (model.hamiltonian, np.full((3, 3), 1.5e308)):
        kept = tm.ToyModel(hamiltonian=H, observables=model.observables,
                           weight_ops=model.weight_ops, mu=model.mu,
                           initial_state=model.initial_state).hamiltonian
        assert np.array_equal(kept, H)


def test_trace_preservation_at_zero_coupling():
    model = tm.random_model(seed=5, dim=4)
    W1 = tm.evolve_density(model, [(1.3, [1.0])], [0.0], model.initial_state)
    assert np.trace(W1) == pytest.approx(1.0, rel=1e-12)
    # unitary flow also preserves the spectrum
    assert np.allclose(np.linalg.eigvalsh(W1),
                       np.linalg.eigvalsh(model.initial_state), atol=1e-10)


def test_batched_evolution_matches_single_points():
    # a stack of k-points evolved at once equals the single-point evolutions
    model = tm.random_model(seed=8, dim=3, n_obs=2)
    template = ((0.6, (1.0, 0.5)), (0.4, (0.3, 1.0)))
    kvecs = np.random.default_rng(1).normal(size=(7, 2))
    stacked = tm.evolve_density(model, template, kvecs, model.initial_state)
    single = np.stack([tm.evolve_density(model, template, k, model.initial_state)
                       for k in kvecs])
    assert stacked.shape == (7, 3, 3)
    assert np.array_equal(stacked, single)
    with pytest.raises(ValueError):
        tm.evolve_density(model, template, kvecs[:, :1], model.initial_state)
    with pytest.raises(ValueError):
        tm.evolve_density(model, ((1.0, (1.0,)),), kvecs, model.initial_state)


def test_characteristic_fn_center_normalization():
    model = tm.random_model(seed=7)
    cf = tm.characteristic_fn(model, None, tm.auto_k_grid(model))
    center = len(cf.k_grids[0]) // 2
    assert cf.samples[center] == pytest.approx(1.0, abs=1e-12)


def test_insufficient_decay_raises():
    model = tm.two_level_model(mu=0.45)
    narrow = np.linspace(-4, 4, 64)  # far too narrow for this mu
    cf = tm.characteristic_fn(model, None, [narrow - narrow[len(narrow) // 2]])
    with pytest.raises(tm.InsufficientDecay):
        tm.invert_to_density(cf)
    with pytest.raises(tm.InsufficientDecay, match="mu"):
        tm.auto_k_grid(tm.two_level_model(mu=0.0))


def test_inversion_rejects_an_odd_axis():
    # the centered transform inverts only an even axis: on 129 points of the
    # two-level model's auto spacing it would return a density off by 0.029
    # (normalization 0.966) without complaint; on 128 it is exact to 3e-14
    model = tm.two_level_model()
    auto = tm.auto_k_grid(model)[0]
    grid = (np.arange(129) - 64) * (auto[1] - auto[0])
    cf = tm.characteristic_fn(model, None, [grid])
    assert len(grid) == 129 and cf.edge_decay() < tm.K_TAIL
    with pytest.raises(ValueError, match="k-grid axis 0 has an odd point count"):
        tm.invert_to_density(cf)


def test_one_point_axis_has_no_spacing():
    model = tm.two_level_model()
    cf = tm.characteristic_fn(model, None, [np.zeros(1)])
    with pytest.raises(ValueError, match="grid axis 0 has 1 point"):
        cf.dk
    with pytest.raises(ValueError, match="grid axis 0 has 1 point"):
        tm.reduce_state(model, None, [0.3], k_grids=[np.zeros(1)])
    with pytest.raises(ValueError, match="odd point count"):
        tm.invert_to_density(cf)


def test_empty_k_axis_is_named():
    with pytest.raises(ValueError, match="k-grid axis 0 is empty"):
        tm.characteristic_fn(tm.two_level_model(), None, [np.zeros(0)])
    model = tm.random_model(seed=3, n_obs=2)
    with pytest.raises(ValueError, match="k-grid axis 1 is empty"):
        tm.characteristic_fn(model, None, [np.zeros(1), np.zeros(0)])


def test_a_zero_k_row_is_skipped_by_the_decay_bound(monkeypatch):
    # a one-point axis has no faces, so a k_2 = 0 row hands evolve_density
    # only the points the bound keeps and the faces of the k_1 axis
    model = tm.random_model(seed=3000, dim=2, n_obs=2)
    axes = [tm.auto_k_grid(model, max_points=256)[0], np.zeros(1)]
    handed = []
    evolve = tm.evolve_density

    def counting(model, template, kvecs, W):
        handed.append(len(kvecs))
        return evolve(model, template, kvecs, W)

    monkeypatch.setattr(tm, "evolve_density", counting)
    tm.characteristic_fn(model, None, axes)
    bound = tm._decay_bound(model, ((1.0, (1.0, 1.0)),), tm._k_mesh(axes))[:, 0]
    kept = bound >= tm.SKIP_TOL
    kept[[0, 1, -1]] = True
    assert handed == [np.count_nonzero(kept)]
    assert handed[0] < len(axes[0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 4), n_obs=st.integers(1, 2))
def test_auto_k_grid_axes_pass_the_spacing_rule(seed, dim, n_obs):
    # at least two points, an even count with zero at len // 2, and uniform
    model = tm.random_model(seed=seed, dim=dim, n_obs=n_obs)
    for ax, g in enumerate(tm.auto_k_grid(model)):
        dk = tm._spacing(g, ax)
        assert dk > 0 and len(g) % 2 == 0 and g[len(g) // 2] == 0
        assert np.allclose(np.diff(g), dk, rtol=1e-12, atol=0)


def test_two_level_density_is_gaussian_mixture():
    res = toy_battery.check_two_level_oracle()
    assert res.passed, res.line()


def test_density_even_symmetry():
    # symmetric two-level state: the density is even in theta
    model = tm.two_level_model(c1=1.0, c2=1.0, mu=0.8)
    ds = tm.density(model)
    p = ds.p
    assert np.max(np.abs(p[1:] - p[1:][::-1])) < 1e-12


def test_moments_against_quantum_expectation():
    # <theta> equals the window-averaged Heisenberg expectation of A
    model = tm.random_model(seed=12, dim=3)
    ds = tm.density(model)
    mean_q = _window_mean(model)
    assert ds.mean()[0] == pytest.approx(mean_q, abs=2e-4)
    mean_d, _ = tm.cf_moments(model)
    assert ds.mean()[0] == pytest.approx(mean_d[0], abs=1e-6)


def test_cf_moments_of_a_commuting_two_observable_model():
    # H = 0 with diagonal A_j, C_j and W = diag(w): Phi(k) is a weighted sum of
    # Gaussians, so the mean is sum w a_j, the cross moment sum w a_1 a_2 and
    # the diagonal moment sum w (a_j^2 + mu^4 c_j); the cross moment is the
    # only check of the mixed-derivative stencil
    a = np.array([[0.7, -0.4, 1.1], [-0.9, 0.5, 0.3]])
    c = np.array([[0.6, 1.2, 0.8], [1.0, 0.4, 1.5]])
    w = np.array([0.5, 0.3, 0.2])
    model = tm.ToyModel(hamiltonian=np.zeros((3, 3)), observables=tuple(map(np.diag, a)),
                        weight_ops=tuple(map(np.diag, c)), mu=0.9, initial_state=np.diag(w))
    mean, second = tm.cf_moments(model)
    assert np.allclose(mean, a @ w, rtol=0, atol=1e-6)
    expected = (a * w) @ a.T + np.diag(model.mu4 * c @ w)
    assert np.allclose(second, expected, rtol=0, atol=1e-6)


def test_marginalize_order_independence():
    model = tm.random_model(seed=31, dim=2, n_obs=2)
    grids = tm.auto_k_grid(model, max_points=256)
    ds = tm.invert_to_density(tm.characteristic_fn(model, None, grids))
    m0 = tm.marginalize(tm.marginalize(ds, keep=[0, 1]), keep=[0])
    m1 = tm.marginalize(ds, keep=[0])
    assert np.allclose(m0.p, m1.p, atol=1e-14)
    # integrating out everything leaves total mass one
    assert ds.normalization() == pytest.approx(1.0, abs=1e-10)


def test_marginal_is_the_inverse_of_the_zero_k_row():
    # the 2-D inverse summed over theta_i is exactly the 1-D inverse of the
    # k_i = 0 row, and the density's moments are read off those marginals
    model = tm.random_model(seed=31, dim=2, n_obs=2)
    grids = tm.auto_k_grid(model, max_points=256)
    cf = tm.characteristic_fn(model, None, grids)
    ds = tm.invert_to_density(cf)
    for keep, row in ((0, cf.samples[:, len(grids[1]) // 2]),
                      (1, cf.samples[len(grids[0]) // 2, :])):
        ds1 = tm.invert_to_density(tm.CharacteristicFunction(
            k_grids=(grids[keep],), samples=row, template=cf.template))
        assert np.max(np.abs(tm.marginalize(ds, keep=[keep]).p - ds1.p)) <= 1e-14
        assert ds.mean()[keep] == pytest.approx(ds1.mean()[0], abs=1e-13)
        assert ds.variance()[keep] == pytest.approx(ds1.variance()[0], abs=1e-13)


@pytest.mark.parametrize("by, smeared", [(0, 1), (1, 0)])
def test_marginalization_fails_on_a_leaking_kernel(monkeypatch, by, smeared):
    # a kernel that also smears one observable by the other's xi, so the
    # smearing acts where the smeared observable's own xi is zero
    exact = tm._coupling_operator

    def leaky(model, xi):
        Y = exact(model, xi)
        if model.n_obs == 2:
            x = np.asarray(xi, dtype=float)[..., by, None, None]
            Y = Y - 0.05 * model.mu4 * x * x * np.asarray(model.weight_ops[smeared], dtype=complex)
        return Y

    monkeypatch.setattr(tm, "_coupling_operator", leaky)
    res = toy_battery.check_marginalization()
    assert not res.passed and res.worst > 1e-2, res.line()


def test_composition_fails_on_a_truncated_pade_numerator(monkeypatch):
    monkeypatch.setattr(tm, "_PADE13", tm._PADE13[:12] + (0.0, 0.0))
    res = toy_battery.check_composition()
    assert not res.passed, res.line()


def test_reduction_fails_on_a_conjugated_conditioning_phase(monkeypatch):
    # exp(+i k.theta) in reduce_state conditions on -theta instead; the
    # two-level weight alone is off by less than one
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b: -vecdot(a, b))
    res = toy_battery.check_reduction()
    assert not res.passed and res.worst > 1.0, res.line()


def test_reduction_fails_on_reversed_slice_order(monkeypatch):
    # only the joint template has two slices, so only the Bayes identity sees it
    exact = tm.evolve_density
    monkeypatch.setattr(tm, "evolve_density",
                        lambda model, template, kvecs, W: exact(model, template[::-1], kvecs, W))
    res = toy_battery.check_reduction()
    assert not res.passed and res.worst > 1e-2, res.line()


def test_bayes_identity_holds_beyond_the_battery_seeds():
    rng = np.random.default_rng(0)
    for seed in range(32):
        theta1 = rng.uniform(-1.0, 1.0)
        assert toy_battery._bayes_defect(seed, theta1) < 1e-10, (seed, theta1)


def test_reduce_state_flat_conditioning_is_unitary_evolution():
    # integrating the conditioned state over all outcomes returns the
    # propagated unconditional state: sum over the theta-grid of W_num;
    # grid-edge outcomes with underflowed density are skipped (they carry
    # less than 1e-12 each of the unit mass)
    model = tm.pointer_random_model(seed=77)
    grids = tm.auto_k_grid(model)
    k = grids[0]
    dk = k[1] - k[0]
    dtheta = 2 * np.pi / (len(k) * dk)
    theta = (np.arange(len(k)) - len(k) // 2) * dtheta
    acc = np.zeros((model.dim, model.dim), dtype=complex)
    for th in theta:
        try:
            red = tm.reduce_state(model, None, [th], k_grids=grids)
        except ValueError:
            continue
        acc += red.W_c * red.p_past * dtheta
    expected = tm.evolve_density(model, [(1.0, [1.0])], [0.0], model.initial_state)
    assert np.allclose(acc, expected, atol=1e-8)


def test_reduce_state_sharp_two_level():
    res = toy_battery.check_reduction(n_seeds=4)
    assert res.passed, res.line()


def test_reduce_state_measure_zero_outcome():
    # a fine explicit k-grid keeps the discrete-transform period far beyond
    # the conditioning point, so the outcome really has no support
    model = tm.two_level_model(mu=0.45)
    k = (np.arange(4096) - 2048) * 0.05
    with pytest.raises(ValueError, match="measure-zero"):
        tm.reduce_state(model, None, [60.0], k_grids=[k])


def test_property_battery_smoke():
    # the full 50-seed battery runs in the acceptance suite; a thinned run
    # here keeps the per-module suite quick
    results = toy_battery.run_battery(n_seeds=9)
    for r in results:
        assert r.passed, r.line()


@settings(max_examples=20)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 4), n_obs=st.integers(1, 2))
def test_random_model_cf_normalized_and_hermitian(seed, dim, n_obs):
    # Phi(0) = 1 and Phi(-k) = conj Phi(k) for any model in the random class
    model = tm.random_model(seed=seed, dim=dim, n_obs=n_obs)
    try:
        grids = tm.auto_k_grid(model, max_points=64 if n_obs == 2 else 4096)
    except tm.InsufficientDecay:
        assume(False)
    from scipy.linalg import expm
    phi = tm.characteristic_fn(model, None, grids).samples
    center = tuple(len(g) // 2 for g in grids)
    assert abs(phi[center] - 1.0) < 1e-10
    # at the battery's mirror pairs of each axis, Phi(k) from scipy's
    # exponential of each of the two generators matches the sample at k, and
    # its conjugate the sample at -k
    idx = np.ix_(*(toy_battery._mirror_indices(len(g)) for g in grids))
    mirror = tuple(len(g) - i for g, i in zip(grids, idx))
    kvecs = tm._k_mesh(grids)[idx].reshape(-1, n_obs)
    iH = 1j * model.hamiltonian
    oracle = []
    for Y in tm._coupling_operator(model, kvecs):
        El, Er = expm(-iH + 0.5 * Y), expm(iH + 0.5 * Y)
        oracle.append(np.trace(El @ model.initial_state @ Er))
    oracle = np.reshape(oracle, phi[idx].shape)
    assert np.max(np.abs(oracle - phi[idx])) < 1e-12
    assert np.max(np.abs(np.conj(oracle) - phi[mirror])) < 1e-10


def test_hermitian_symmetry_fails_on_an_unmirrored_right_factor(monkeypatch):
    # the right factor read as the adjoint of the left one at +xi, not -xi
    exact = tm._slice_factors

    def unmirrored(model, xi, dt):
        El, _ = exact(model, xi, dt)
        return El, np.conj(np.swapaxes(El, -1, -2))

    monkeypatch.setattr(tm, "_slice_factors", unmirrored)
    toy_battery._sweep_stats.cache_clear()
    try:
        res = toy_battery.check_hermitian_symmetry(n_seeds=3)
    finally:
        toy_battery._sweep_stats.cache_clear()
    assert not res.passed and res.worst > 1e-2, res.line()


def _full_phi(model, template, grids):
    """Phi on the whole grid, every k-point evolved: the oracle of the skip."""
    W = tm.evolve_density(model, template, tm._k_mesh(grids), model.initial_state)
    return np.trace(W, axis1=-2, axis2=-1)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["random", "psd", "pointer"]),
       dim=st.integers(2, 4), n_obs=st.integers(1, 2),
       slices=st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(-1.5, 1.5),
                                 st.floats(-1.5, 1.5)), min_size=1, max_size=3))
def test_decay_bound_holds_on_the_full_grid(seed, kind, dim, n_obs, slices):
    # |Phi(k)| <= exp(-(mu^4/2) sum_j k_j^2 sum_s dt_s w_sj^2 lam_min(C_j)) at
    # every point, for any model class and any multi-slice template; the
    # Hamiltonian of every model here is non-zero
    if kind == "pointer":
        model = tm.pointer_random_model(seed)
    else:
        model = tm.random_model(seed, dim=dim, n_obs=n_obs, random_psd_weights=kind == "psd")
    template = tuple((dt, w[:model.n_obs]) for dt, *w in slices)
    grids = [np.linspace(-12.0, 12.0, 33)] * model.n_obs
    phi = _full_phi(model, template, grids)
    bound = tm._decay_bound(model, template, tm._k_mesh(grids))
    assert np.all(np.abs(phi) <= bound + 4 * np.finfo(float).eps)


def _skip_cases():
    """(model, template, grids): the battery's marginalization models, 1-observable
    random and pointer models, and a two-slice template with a Hamiltonian."""
    for s in range(6):
        model = tm.random_model(seed=3000 + s, dim=2, n_obs=2)
        yield model, None, tm.auto_k_grid(model, max_points=256)
    for s in range(4):
        model = tm.random_model(seed=s, dim=2 + s % 3, random_psd_weights=s % 2 == 1)
        yield model, None, tm.auto_k_grid(model)
        model = tm.pointer_random_model(seed=5000 + s)
        yield model, None, tm.auto_k_grid(model)
    model = tm.random_model(seed=4321, dim=3, n_obs=2)
    template = ((0.5, (1.0, 0.2)), (0.7, (-0.4, 1.0)))
    yield model, template, tm.auto_k_grid(model, template, max_points=256)


def test_skipped_k_points_match_the_full_grid():
    # evaluated samples are bitwise the full evaluation's; skipped ones are 0
    # where the full |Phi| is at most SKIP_TOL; the faces and their k -> -k
    # mirrors are evaluated, so the edge-decay self-check is unchanged
    skipped = total = 0
    for model, template, grids in _skip_cases():
        cf = tm.characteristic_fn(model, template, grids)
        full = _full_phi(model, cf.template, grids)
        evaluated = cf.samples != 0
        assert np.array_equal(cf.samples[evaluated], full[evaluated])
        assert np.all(np.abs(full[~evaluated]) <= tm.SKIP_TOL)
        for ax in range(full.ndim):
            for edge in (0, 1, -1):
                assert np.all(np.take(evaluated, edge, axis=ax))
        oracle = tm.CharacteristicFunction(cf.k_grids, full, cf.template)
        assert cf.edge_decay() == oracle.edge_decay()
        skipped += np.count_nonzero(~evaluated)
        total += full.size
    assert skipped > total / 3       # the skip is not vacuous on these grids


def test_reduce_state_skip_matches_the_full_numerator():
    # the conditioned state from the skipped sum agrees with the one from
    # every k-point to 1e-10, and so do its trace and hermiticity defects
    cases = [(tm.pointer_random_model(seed=5000 + s), None, 0.3) for s in range(6)]
    cases += [(tm.random_model(seed=s, dim=2 + s % 2), None, 0.3) for s in range(4)]
    cases += [(tm.two_level_model(c1=1.0, c2=1.0, mu=0.7), None, 0.95),
              (tm.random_model(seed=4321, dim=2), ((0.5, (1.0,)), (0.4, (-0.6,))), -0.2)]
    for model, template, theta in cases:
        template = template or ((1.0, (1.0,)),)
        grids = tm.auto_k_grid(model, template)
        red = tm.reduce_state(model, template, [theta], k_grids=grids)
        kvecs = tm._k_mesh(grids).reshape(-1, 1)
        Wk = tm.evolve_density(model, template, kvecs, model.initial_state)
        Wnum = np.sum(np.exp(-1j * kvecs[:, 0] * theta)[:, None, None] * Wk, axis=0)
        Wc = Wnum / np.trace(Wnum)
        assert np.max(np.abs(red.W_c - Wc)) < 1e-10
        assert abs(red.trace_defect - abs(np.trace(Wc) - 1.0)) < 1e-10
        assert abs(red.hermiticity_defect - np.max(np.abs(Wc - Wc.conj().T))) < 1e-10


def test_skip_keeps_k_zero_when_the_weight_sum_overflows():
    # dt w^2 overflows, so the bound is NaN at k = 0 (0 * inf): that point is
    # still evaluated, and every other one is bounded by exp(-inf) = 0
    model = tm.two_level_model()
    k = (np.arange(64) - 32) * 0.1
    with np.errstate(invalid="ignore"):
        red = tm.reduce_state(model, ((1.0, (1e200,)),), [0.0], k_grids=[k])
    assert np.allclose(red.W_c, model.initial_state, rtol=0, atol=1e-15)
