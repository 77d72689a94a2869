import dataclasses

import numpy as np
import pytest

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    Dims,
    ModelParams,
    SampleBatch,
    TestFunction,
    TypeVector,
    evaluate_JN,
    fpk_residual,
    simulate_augmented,
    simulate_particles,
)
from mfresnet.errors import Diverged, GridMismatch, ScalarConfigRequired
from mfresnet.rng import noise_table
from mfresnet import sde
from mfresnet.sde import euler_noise
from mfresnet.trainer import _adjoint_gradient


def _quiet_type(p):
    return TypeVector(epsilon=np.zeros((p.dims.d, p.dims.p)),
                      gamma=np.zeros(p.dims.l),
                      sigma=np.zeros((p.dims.q, p.dims.p)))


def _scalar_batch(*x0):
    """Scalar samples starting at x0 with label 0 and no exogenous input."""
    n = len(x0)
    return SampleBatch(np.array(x0, dtype=float)[:, None], np.zeros((n, 1)), np.zeros((n, 0)))


def test_simulation_requires_one_step_per_control_interval(scalar_params, scalar_law):
    samples, types = scalar_law.sample(3, 0)
    theta = ControlGrid.zeros(scalar_params.T, 8)
    with pytest.raises(GridMismatch):
        simulate_particles(scalar_params, theta, samples, types, 16, 0)


def test_simulation_requires_the_model_horizon(scalar_params, scalar_law):
    samples, types = scalar_law.sample(3, 0)
    theta = ControlGrid.zeros(2.0 * scalar_params.T, 8)
    with pytest.raises(GridMismatch):
        simulate_particles(scalar_params, theta, samples, types, 8, 0)


def test_ensemble_records_its_control_and_batch_statistic(coupled_params, coupled_law):
    """The ensemble carries the control that drove it, and eta at every node
    including the last is the batch mean of rho over the particles there."""
    samples, types = coupled_law.sample(4, 3)
    theta = ControlGrid.zeros(coupled_params.T, 6)
    ens = simulate_particles(coupled_params, theta, samples, types, 6, 2)
    assert ens.theta is theta
    assert np.array_equal(ens.t_grid, theta.t_grid) and ens.dt == theta.dt
    expected = [np.mean(coupled_params.rho_value(ens.X[:, k])) for k in range(7)]
    assert np.array_equal(ens.eta, expected)


def test_zero_drift_zero_noise_is_constant(scalar_params):
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="zero"))
    samples = _scalar_batch(0.7, -0.2)
    ens = simulate_particles(p, ControlGrid.zeros(p.T, 8), samples, _quiet_type(p), 8, 0)
    assert np.allclose(ens.X, ens.X[:, :1, :])


def test_constant_drift_is_linear_in_time(scalar_params):
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="constant", c=0.5))
    samples = _scalar_batch(1.0)
    ens = simulate_particles(p, ControlGrid.zeros(p.T, 10), samples, _quiet_type(p), 10, 0)
    assert np.allclose(ens.X[0, :, 0], 1.0 + 0.5 * ens.t_grid)


def test_affine_drift_matches_explicit_recursion(scalar_params):
    """Independent oracle: for f = theta1 x + theta2 without noise the Euler
    recursion has the closed form x_{k+1} = (1 + theta1 dt) x_k + theta2 dt."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="affine"))
    n_steps = 16
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([0.8 * np.ones_like(t), -0.3 * np.ones_like(t)], axis=1))
    samples = _scalar_batch(1.2)
    ens = simulate_particles(p, theta, samples, _quiet_type(p), n_steps, 0)
    dt = p.T / n_steps
    x = 1.2
    for k in range(n_steps):
        x = (1.0 + 0.8 * dt) * x + (-0.3) * dt
    assert abs(ens.X[0, -1, 0] - x) < 1e-14


def test_no_diffusion_draws_no_noise(coupled_params, coupled_law, monkeypatch):
    """A type vector without diffusion draws no noise table, and its paths
    have the bytes of paths driven by the table it would have drawn."""
    p = coupled_params
    samples, types = coupled_law.sample(30, 2)
    quiet = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                       sigma=np.zeros_like(types.sigma))
    t = np.linspace(0.0, p.T, 9)
    theta = ControlGrid(p.T, np.stack([np.cos(t), 0.5 - t], axis=1))
    drawn = simulate_particles(p, theta, samples, quiet, 8, 2, noise=euler_noise(p, 30, 8, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a noise table was drawn")

    monkeypatch.setattr(sde, "noise_table", refuse)
    still = simulate_particles(p, theta, samples, quiet, 8, 2)
    assert not quiet.diffuses
    assert still.X.tobytes() == drawn.X.tobytes()
    assert still.Z.tobytes() == drawn.Z.tobytes()
    assert still.eta.tobytes() == drawn.eta.tobytes()


def test_input_only_diffusion_draws_noise(coupled_params, coupled_law, monkeypatch):
    """A type vector with no state diffusion but a nonzero input diffusion
    diffuses: simulate_particles draws its noise table once, and the
    increments move every exogenous input at every step."""
    p = coupled_params
    samples, types = coupled_law.sample(30, 2)
    input_only = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma, sigma=types.sigma)
    quiet = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                       sigma=np.zeros_like(types.sigma))
    assert types.sigma.any() and input_only.diffuses
    t = np.linspace(0.0, p.T, 9)
    theta = ControlGrid(p.T, np.stack([np.cos(t), 0.5 - t], axis=1))
    still = simulate_particles(p, theta, samples, quiet, 8, 2)
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(args)
        return noise_table(*args, **kwargs)

    monkeypatch.setattr(sde, "noise_table", counted)
    ens = simulate_particles(p, theta, samples, input_only, 8, 2)
    assert len(drawn) == 1
    assert (ens.Z[:, 1:] != still.Z[:, 1:]).all()
    table = simulate_particles(p, theta, samples, input_only, 8, 2, noise=euler_noise(p, 30, 8, 2))
    assert ens.Z.tobytes() == table.Z.tobytes()
    assert ens.X.tobytes() == table.X.tobytes()


def test_drift_without_batch_coupling_never_evaluates_rho(scalar_params, scalar_law, monkeypatch):
    """A drift with eta_weight 0 does not read the batch statistic: a batch of
    two scalar problems simulates, is costed and is differentiated without
    rho or its gradient, and its ensemble records no eta."""
    def refuse(self, x):
        raise AssertionError("the batch function was evaluated")

    monkeypatch.setattr(ModelParams, "rho_value", refuse)
    monkeypatch.setattr(ModelParams, "rho_grad", refuse)
    p = scalar_params
    samples = SampleBatch.stack([scalar_law.sample(20, s)[0] for s in (1, 2)])
    theta = ControlGrid.zeros(p.T, 8)
    batch = theta.with_values(np.stack([theta.values + 0.5, theta.values - 0.5]))
    ens = simulate_particles(p, batch, samples, scalar_law.type_vector, 8, [1, 2])
    assert ens.eta is None and ens.problems([1]).eta is None
    assert all(np.isfinite(bd.total) for bd in evaluate_JN(ens, p))
    assert np.isfinite(_adjoint_gradient(ens, p)).all()


def test_particle_id_keyed_noise_gives_partition_invariance(scalar_params, scalar_law):
    samples, types = scalar_law.sample(4, 11)
    theta = ControlGrid.zeros(scalar_params.T, 8)
    full = simulate_particles(scalar_params, theta, samples, types, 8, 5)
    # resimulating only the last particle on the noise keyed by its id, 3, matches exactly
    last = SampleBatch(samples.x0[3:], samples.y0[3:], samples.z0[3:])
    noise = noise_table(5, [3], 8, theta.dt, scalar_params.dims.p).transpose(1, 2, 0)
    sub = simulate_particles(scalar_params, theta, last, types, 8, 5, noise=noise)
    assert np.array_equal(full.X[3], sub.X[0])


@pytest.mark.parametrize("seed", [5, [5, 6, 7]], ids=["one-seed", "three-seeds"])
def test_euler_noise_is_the_stacked_transposed_noise_table(coupled_params, seed):
    """euler_noise fills its (n_steps, p, rows) table a block of particles at
    a time; with a last block shorter than the others it still holds the
    bytes of each seed's whole noise_table, stacked and transposed."""
    p = coupled_params
    n = sde._NOISE_BLOCK + 300
    tables = [noise_table(s, np.arange(n), 6, p.T / 6, p.dims.p) for s in sde.problem_seeds(seed)]
    expected = np.concatenate(tables).transpose(1, 2, 0)
    noise = euler_noise(p, n, 6, seed)
    assert noise.shape == expected.shape and noise.flags.c_contiguous
    assert noise.tobytes() == expected.tobytes()


def test_diffusion_increment_has_the_bytes_of_the_row_major_einsum():
    """The Euler step's increment of one node, its coefficients contracted
    with the node's (p, rows) noise, gives the bytes of
    np.einsum("dp,np->nd", coef, node) on the row-major node, signed zeros
    included: at p = 1..8 noise dimensions, d = 1..3 and N = 1, 2, 3 and 6400
    rows, with a zero column of coefficients and zeros of both signs in the
    noise.  In-order column sums differ from einsum from 3 columns on."""
    rng = np.random.default_rng(21)
    for p in range(1, 9):
        for d in (1, 2, 3):
            for n in (1, 2, 3, 6400):
                coef = rng.normal(size=(d, p)) * 10.0 ** rng.uniform(-3, 3, size=(d, p))
                coef[:, rng.integers(p)] = 0.0
                node = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, size=(n, p))
                node[rng.random(node.shape) < 0.2] = -0.0
                got = sde._diffusion(coef, np.ascontiguousarray(node.T))
                assert got.shape == (d, n), (p, d, n)
                expected = np.einsum("dp,np->nd", coef, node)
                assert np.ascontiguousarray(got.T).tobytes() == expected.tobytes(), (p, d, n)


def test_a_zero_increment_moves_a_negative_zero_state_to_positive_zero():
    """A state of -0.0 under a -0.0 drift and a zero state diffusion steps to
    +0.0, as adding einsum's increment, which starts from +0.0, gives; only
    the exogenous input diffuses."""
    p = ModelParams(activation=ActivationSpec(kind="constant", c=-0.0), rho="zero", phi="decay",
                    dims=Dims(d=1, q=1, p=1, m=2, l=1))
    tv = TypeVector(epsilon=np.zeros((1, 1)), gamma=np.array([0.5]), sigma=np.array([[0.3]]))
    n = 50
    samples = SampleBatch(np.full((n, 1), -0.0), np.zeros((n, 1)), np.full((n, 1), 0.2))
    theta = ControlGrid.zeros(p.T, 4)
    ens = simulate_particles(p, theta, samples, tv, 4, 3)
    noise = euler_noise(p, n, 4, 3)
    expected = (samples.x0 + np.full((n, 1), -0.0) * theta.dt) + np.einsum("dp,np->nd", tv.epsilon, noise[0].T)
    assert np.signbit(samples.x0 + np.full((n, 1), -0.0) * theta.dt).all() and (noise[0] < 0).any()
    assert ens.X[:, 1].tobytes() == expected.tobytes()
    assert not np.signbit(ens.X[:, 1:]).any()


def test_state_and_input_share_the_increment(coupled_params, coupled_law):
    """Both equations of a particle are driven by the same Brownian path."""
    samples, types = coupled_law.sample(3, 2)
    n_steps = 6
    theta = ControlGrid.zeros(coupled_params.T, n_steps)
    ens = simulate_particles(coupled_params, theta, samples, types, n_steps, 9)
    dt = ens.dt
    table = noise_table(9, np.arange(3), n_steps, dt, coupled_params.dims.p)
    for k in range(n_steps):
        xk, zk = ens.X[:, k], ens.Z[:, k]
        eta = float(np.mean(coupled_params.rho_value(xk)))
        f = coupled_params.activation.drift(theta.values[k], zk, xk, eta)
        dx_noise = ens.X[:, k + 1] - xk - f * dt
        dz_noise = ens.Z[:, k + 1] - zk - coupled_params.phi_value(ens.type_vector.gamma, zk) * dt
        assert np.allclose(dx_noise, np.einsum("dp,np->nd", ens.type_vector.epsilon, table[:, k]), atol=1e-12)
        assert np.allclose(dz_noise, np.einsum("qp,np->nq", ens.type_vector.sigma, table[:, k]), atol=1e-12)


def test_batch_coupling_feeds_the_drift(coupled_params, coupled_law):
    """Changing one particle's start changes every other particle's path."""
    samples, types = coupled_law.sample(4, 1)
    theta = ControlGrid.zeros(coupled_params.T, 8)
    base = simulate_particles(coupled_params, theta, samples, types, 8, 2)
    x0 = samples.x0.copy()
    x0[0] += 0.5
    moved = dataclasses.replace(samples, x0=x0)
    bumped = simulate_particles(coupled_params, theta, moved, types, 8, 2)
    assert not np.allclose(base.X[1], bumped.X[1])


def test_limit_sde_decouples_without_batch_coupling(scalar_params, scalar_law):
    """With no batch statistic in the drift the paths are independent: adding
    more paths never changes existing ones."""
    draws_small = scalar_law.sample(3, 7)
    draws_big = scalar_law.sample(6, 7)
    theta = ControlGrid.zeros(scalar_params.T, 8)
    small = simulate_particles(scalar_params, theta, *draws_small, 8, 1)
    big = simulate_particles(scalar_params, theta, *draws_big, 8, 1)
    assert np.array_equal(big.X[:3], small.X)


def test_augmented_requires_scalar_configuration(coupled_params, coupled_law):
    theta = ControlGrid.zeros(coupled_params.T, 4)
    with pytest.raises(ScalarConfigRequired):
        simulate_augmented(coupled_params, theta, coupled_law.sample(2, 0), 4, 0)


def test_augmented_state_matches_particle_state(scalar_params, scalar_law):
    """The third component is the plain state path under the same seed."""
    draws = scalar_law.sample(5, 3)
    n_steps = 12
    t = np.linspace(0.0, scalar_params.T, n_steps + 1)
    theta = ControlGrid(scalar_params.T, np.stack([0.4 * np.ones_like(t), 0.1 * np.ones_like(t)], axis=1))
    aug, _, _, _ = simulate_augmented(scalar_params, theta, draws, n_steps, 8)
    ens = simulate_particles(scalar_params, theta, draws[0], draws[1], n_steps, 8)
    assert np.allclose(aug.X[:, :, 0], ens.X[:, :, 0], atol=1e-14)


def test_augmented_recursions(scalar_params, scalar_law):
    """First and second components follow their defining Euler recursions."""
    draws = scalar_law.sample(4, 5)
    n_steps = 10
    t = np.linspace(0.0, scalar_params.T, n_steps + 1)
    theta = ControlGrid(scalar_params.T, np.stack([0.6 * np.ones_like(t), -0.2 * np.ones_like(t)], axis=1))
    ens, X1, X2, _ = simulate_augmented(scalar_params, theta, draws, n_steps, 8)
    X3, Y0 = ens.X[:, :, 0], ens.y0[:, 0]
    dt = t[1] - t[0]
    act = scalar_params.activation
    for k in range(n_steps):
        u = X3[:, k] * 0.6 - 0.2
        dfdx = act._g_prime(u) * 0.6
        assert np.allclose(X1[:, k + 1], X1[:, k] + dfdx * dt, atol=1e-12)
        expected = X2[:, k] + np.exp(X1[:, k]) * (X3[:, k] - Y0) * dt
        assert np.allclose(X2[:, k + 1], expected, atol=1e-12)


def test_augmented_divergence_names_the_first_step_of_x1_or_x2(scalar_params):
    """A state path that stays finite while exp(X1) overflows raises Diverged
    at the first node of X2 that is not finite: under the affine drift X1
    grows by theta_0 dt a step and the state stays at its fixed point 0."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="affine"), k_theta=1e9)
    n_steps = 64
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([1e4 * np.ones_like(t), np.zeros_like(t)], axis=1))
    dt = t[1] - t[0]
    x1, first = 0.0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(np.exp(x1)):
            x1, first = x1 + 1e4 * dt, first + 1
        with pytest.raises(Diverged) as exc:
            simulate_augmented(p, theta, (_scalar_batch(0.0, 0.0), _quiet_type(p)), n_steps, 5)
    assert 1 < first < n_steps
    assert (exc.value.seed, exc.value.step, exc.value.particle) == (5, first, 0)


def test_divergence_raises(scalar_params):
    """Diverged names the seed, the first grid step that is not finite and
    the row of the particle there; a particle at the fixed point 0 stays finite."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="affine"),
                            k_theta=1e9)
    n_steps = 64
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([1e8 * np.ones_like(t), np.zeros_like(t)], axis=1))
    samples = _scalar_batch(0.0, 1.0)
    dt = t[1] - t[0]
    x, first = 1.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(x):
            x, first = x + (1e8 * x) * dt, first + 1
        with pytest.raises(Diverged) as exc:
            simulate_particles(p, theta, samples, _quiet_type(p), n_steps, 3)
    assert 0 < first < n_steps
    assert (exc.value.seed, exc.value.step, exc.value.particle) == (3, first, 1)


def test_stream_diverges_where_the_simulation_does_and_stops_there(scalar_params, monkeypatch):
    """A diverging stream raises the Diverged of simulate_particles on the
    same inputs, with its seed, step and particle, before it hands out the
    node that is not finite: both passes evaluate the drift at the nodes
    before that one only, not at all 64 steps, so a diverged simulation or
    residual stops early."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="affine"),
                            k_theta=1e9)
    n_steps = 64
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([1e8 * np.ones_like(t), np.zeros_like(t)], axis=1))
    samples = _scalar_batch(0.0, 1.0)
    drifts = []
    drift = ActivationSpec.drift

    def counted(self, *args):
        drifts.append(1)
        return drift(self, *args)

    monkeypatch.setattr(ActivationSpec, "drift", counted)
    phi = TestFunction(terms=((1.0, 0, 0),), d=1, q=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Diverged) as stored:
            simulate_particles(p, theta, samples, _quiet_type(p), n_steps, 3)
        assert len(drifts) == stored.value.step
        drifts.clear()
        with pytest.raises(Diverged) as streamed:
            for _ in sde.stream_particles(p, theta, samples, _quiet_type(p), n_steps, 3).nodes:
                pass
        assert len(drifts) == stored.value.step
        drifts.clear()
        with pytest.raises(Diverged) as residual:
            fpk_residual(sde.stream_particles(p, theta, samples, _quiet_type(p), n_steps, 3), phi, p)
    assert 0 < stored.value.step < n_steps
    assert len(drifts) == stored.value.step
    for exc in (streamed, residual):
        assert (exc.value.seed, exc.value.step, exc.value.particle) == (3, stored.value.step, 1)


@pytest.mark.parametrize("model", ["coupled", "scalar"])
def test_stored_and_streamed_nodes_are_the_same_bytes(model, request):
    """euler_nodes given buffers and given none hands out byte-identical
    (x, z, f, phi) at every node, the last one included, and a stored node
    is the slab it was written to."""
    p, law = (request.getfixturevalue(f"{model}_{name}") for name in ("params", "law"))
    samples, types = law.sample(7, 4)
    n_steps = 6
    theta = ControlGrid(p.T, np.random.default_rng(0).uniform(-1.0, 1.0, (n_steps + 1, 2)))
    X, Z = np.empty((n_steps + 1, p.dims.d, 7)), np.empty((n_steps + 1, p.dims.q, 7))
    E = np.empty((1, n_steps + 1)) if p.activation.eta_weight else None
    stored = [tuple(a.copy() for a in node)
              for node in sde.euler_nodes(p, theta, samples, types, n_steps, 3, out=(X, Z, E))]
    streamed = list(sde.euler_nodes(p, theta, samples, types, n_steps, 3))
    assert len(stored) == len(streamed) == n_steps + 1
    for k, (a, b) in enumerate(zip(stored, streamed)):
        assert np.array_equal(a[0], X[k]) and np.array_equal(a[1], Z[k]), k
        for u, v in zip(a, b):
            assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), k


def test_divergence_in_a_batch_names_the_problem_and_its_row(scalar_params):
    """In a batch, Diverged reports the seed of the problem that diverged and
    the particle's row within that problem, not its row in the stack."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="affine"),
                            k_theta=1e9)
    n_steps = 64
    values = np.zeros((2, n_steps + 1, 2))
    values[1, :, 0] = 1e8
    samples = _scalar_batch(0.5, 0.7, 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Diverged) as batch:
            simulate_particles(p, ControlGrid(p.T, values), samples,
                               _quiet_type(p), n_steps, [3, 8])
        with pytest.raises(Diverged) as alone:
            simulate_particles(p, ControlGrid(p.T, values[1]), _scalar_batch(0.0, 1.0),
                               _quiet_type(p), n_steps, 8)
    assert (batch.value.seed, batch.value.particle) == (8, 1)
    assert batch.value.step == alone.value.step

