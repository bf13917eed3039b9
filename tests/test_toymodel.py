import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import inflatonlab.toymodel as tm
from inflatonlab import toy_battery


def test_model_validation():
    with pytest.raises(ValueError, match="self-adjoint"):
        tm.ToyModel(dim=2, hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex),
                    observables=(np.eye(2, dtype=complex),),
                    weight_ops=(np.eye(2, dtype=complex),),
                    mu=0.5, initial_state=np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="positive semidefinite"):
        tm.ToyModel(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                    observables=(np.eye(2, dtype=complex),),
                    weight_ops=(-np.eye(2, dtype=complex),),
                    mu=0.5, initial_state=np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="unit trace"):
        tm.ToyModel(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                    observables=(np.eye(2, dtype=complex),),
                    weight_ops=(np.eye(2, dtype=complex),),
                    mu=0.5, initial_state=np.eye(2, dtype=complex))


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
    model = tm.two_level_model()
    with pytest.raises(ValueError, match="couplings"):
        _kernel_matrix(model, [0.1, 0.2])


def test_empty_schedule_is_identity():
    model = tm.random_model(seed=3, dim=3)
    G = tm.propagate(model, [])
    assert np.allclose(G, np.eye(9), atol=0)


def test_propagator_matches_generator_exponential():
    # one constant slice: the slice map equals expm of L_H + K as one matrix
    from scipy.linalg import expm
    model = tm.random_model(seed=4, dim=2)
    xi = [0.6]
    dt = 0.8
    G_fast = tm.propagate(model, [(dt, xi)])
    M = _liouvillian(model) + _kernel_matrix(model, xi)
    assert np.allclose(G_fast, expm(dt * M), atol=1e-12)


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


def test_marginalize_order_independence():
    model = tm.random_model(seed=31, dim=2, n_obs=2)
    grids = tm.auto_k_grid(model, max_points=256)
    ds = tm.invert_to_density(tm.characteristic_fn(model, None, grids))
    m0 = tm.marginalize(tm.marginalize(ds, keep=[0, 1]), keep=[0])
    m1 = tm.marginalize(ds, keep=[0])
    assert np.allclose(m0.p, m1.p, atol=1e-14)
    # integrating out everything leaves total mass one
    assert ds.normalization() == pytest.approx(1.0, abs=1e-10)


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
    phi = tm.characteristic_fn(model, None, grids).samples
    center = tuple(len(g) // 2 for g in grids)
    assert abs(phi[center] - 1.0) < 1e-10
    # centered even grids: entries 1..M-1 of each axis mirror onto themselves
    inner = phi[(slice(1, None),) * n_obs]
    mirrored = inner[(slice(None, None, -1),) * n_obs]
    assert np.max(np.abs(inner - np.conj(mirrored))) < 1e-10
