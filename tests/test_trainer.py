import dataclasses
import hashlib

import numpy as np
import pytest

from mfresnet import ActivationSpec, ControlGrid, Dims, SampleBatch, TrainConfig, TypeVector, evaluate_JN, simulate_particles, train, trainer
from mfresnet.cli import gradcheck_case_error
from mfresnet.errors import ConfigInvalid, NoDescentProgress, NonPositiveWeight
from mfresnet.fpk import solve_tridiagonal
from mfresnet.rng import split_seed
from mfresnet.trainer import (
    _adjoint_gradient,
    _trapezoid_weights,
    replication_noise,
    value_and_gradient,
)

from conftest import dirac_law, in_box


def _control_cost_directional(theta, direction, p):
    w = _trapezoid_weights(theta.t_grid)
    l2 = 2.0 * p.lambda1 * float(np.sum(w[:, None] * theta.values * direction))
    dthe = np.diff(theta.values, axis=0)
    ddir = np.diff(direction, axis=0)
    h1 = 2.0 * p.lambda2 * float(np.sum(dthe * ddir) / theta.dt)
    return l2 + h1


def forward_sensitivity(ensemble, direction, p):
    """Directional derivative of the pathwise sampled objective at the control
    that drove the ensemble: the oracle the adjoint gradient is checked against.

    Propagates per-particle variational states through the Euler recursion,
    including the batch coupling term (each particle's sensitivity feeds the
    empirical batch statistic seen by every other particle), then chains
    into the terminal, running and control costs.
    """
    theta = ensemble.theta
    assert direction.shape == theta.values.shape, "direction must live on the control grid"
    dt = ensemble.dt
    n_steps = ensemble.n_steps
    n = ensemble.n_particles
    w = _trapezoid_weights(ensemble.t_grid)

    err = ensemble.X - ensemble.y0[:, None, :]
    phi = np.zeros_like(ensemble.X[:, 0])    # (N, d), zero at t=0
    running = 0.0
    act = p.activation
    for k in range(n_steps):
        # running-state contribution at node k (phi holds the node-k state)
        running += w[k] * np.sum(err[:, k] * phi)
        xk = ensemble.X[:, k]
        zk = ensemble.Z[:, k]
        eta = float(np.mean(p.rho_value(xk)))
        dfdx, dftheta, dfeta = act.drift_partials(theta.values[k], zk, xk, eta)
        deta = float(np.mean(np.sum(p.rho_grad(xk) * phi, axis=1)))
        phi = phi + dt * (dfdx * phi + np.einsum("ndm,m->nd", dftheta, direction[k]) + dfeta * deta)
    running += w[n_steps] * np.sum(err[:, -1] * phi)

    terminal = (2.0 * p.alpha / n) * float(np.sum(err[:, -1] * phi))
    running_state = (2.0 * p.beta / n) * float(running)
    return terminal + running_state + _control_cost_directional(theta, direction, p)


def _setup(p, law, n, n_steps, seed):
    samples, types = law.sample(n, seed)
    gen = np.random.default_rng(seed)
    theta = ControlGrid(p.T, gen.uniform(-1, 1, size=(n_steps + 1, 2)))
    direction = gen.uniform(-1, 1, size=(n_steps + 1, 2))
    return samples, types, theta, direction


def test_train_config_validation():
    with pytest.raises(NonPositiveWeight):
        TrainConfig(step_size=0.0)
    with pytest.raises(NonPositiveWeight):
        TrainConfig(replications=0)
    for bad in ({"max_iters": "5"}, {"max_iters": -1}, {"n_intervals": 2.5}, {"replications": 1.5},
                {"step_floor": "a"}, {"step_floor": 0.0}, {"fd_epsilon": float("inf")},
                {"armijo_c": "a"}, {"armijo_c": 0.0}, {"armijo_c": 1.0}, {"armijo_c": float("nan")}):
        with pytest.raises(ConfigInvalid):
            TrainConfig(**bad)
    TrainConfig(max_iters=0)


def test_forward_sensitivity_matches_finite_differences(coupled_params, coupled_law):
    p = coupled_params
    samples, types, theta, direction = _setup(p, coupled_law, 6, 12, 1)
    ens = simulate_particles(p, theta, samples, types, 12, 1)
    analytic = forward_sensitivity(ens, direction, p)
    h = 1e-6
    up = theta.with_values(theta.values + h * direction)
    dn = theta.with_values(theta.values - h * direction)
    fd = (evaluate_JN(simulate_particles(p, up, samples, types, 12, 1), p).total
          - evaluate_JN(simulate_particles(p, dn, samples, types, 12, 1), p).total) / (2 * h)
    assert analytic == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("rho", ["tanh_mean", "mean", "zero"])
@pytest.mark.parametrize("kind", ["sigmoid", "affine"])
def test_adjoint_is_dual_to_forward_sensitivity(coupled_params, coupled_law, rho, kind):
    """The reverse-sweep gradient contracted with any direction reproduces the
    forward directional derivative to machine precision, for every batch
    function and for a bounded and the affine nonlinearity."""
    p = dataclasses.replace(coupled_params, rho=rho,
                            activation=dataclasses.replace(coupled_params.activation, kind=kind))
    samples, types, theta, direction = _setup(p, coupled_law, 5, 10, 4)
    noises = replication_noise(p, 5, 10, 4, 1)
    _, [grad] = value_and_gradient(p, theta.with_values(theta.values[None]), samples, types, [4], noises)
    ens = simulate_particles(p, theta, samples, types, 10, 4, noise=noises[0])
    forward = forward_sensitivity(ens, direction, p)
    assert float(np.sum(grad * direction)) == pytest.approx(forward, rel=1e-10)


def test_randomized_gradient_checks():
    """Same randomized battery the command line exposes, tighter tolerance."""
    for case in range(5):
        rel, _, _, _ = gradcheck_case_error(case, 2024)
        assert rel < 1e-6


@pytest.mark.parametrize("m", [1, 3])
def test_constant_drift_trains_with_any_number_of_weights(scalar_params, scalar_law, m):
    """A constant drift reads no weight, so the model takes any m; its
    gradient is the control-cost gradient, component by component, and
    training from the zero control stops at once."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="constant", c=0.5),
                            dims=Dims(d=1, q=0, p=1, m=m, l=0))
    samples, tv = scalar_law.sample(6, 3)
    theta = ControlGrid(p.T, np.random.default_rng(m).uniform(-1.0, 1.0, size=(9, m)))
    grad = _adjoint_gradient(simulate_particles(p, theta, samples, tv, 8, 4), p)
    assert grad.shape == (9, m)
    for k in range(9):
        for j in range(m):
            unit = np.zeros((9, m))
            unit[k, j] = 1.0
            assert grad[k, j] == pytest.approx(_control_cost_directional(theta, unit, p), rel=1e-10, abs=1e-14)
    result = train(p, samples, tv, TrainConfig(n_intervals=8, max_iters=5), 5)
    assert result.theta_star.values.shape == (9, m) and not result.theta_star.values.any()
    assert len(result.history) == 1 and result.grad_norm_final == 0.0


def test_precondition_solves_the_control_hessian(scalar_params):
    p = scalar_params
    n = 9
    theta = ControlGrid.zeros(p.T, n - 1)
    w = _trapezoid_weights(theta.t_grid)
    dt = theta.dt
    dense = np.diag(2.0 * p.lambda1 * w)
    stiff = np.zeros((n, n))
    for k in range(n - 1):
        stiff[k, k] += 1.0
        stiff[k + 1, k + 1] += 1.0
        stiff[k, k + 1] -= 1.0
        stiff[k + 1, k] -= 1.0
    dense += 2.0 * p.lambda2 * stiff / dt
    rng = np.random.default_rng(0)
    g = rng.normal(size=(n, 2))
    s = solve_tridiagonal(trainer._precondition_band(p, theta), g)
    assert np.allclose(dense @ s, g, atol=1e-10)


def test_training_decreases_the_objective(scalar_params, scalar_law):
    samples, types = scalar_law.sample(64, 5)
    cfg = TrainConfig(n_intervals=16, max_iters=40)
    result = train(scalar_params, samples, types, cfg, split_seed(5, "t"))
    totals = [bd.total for bd in result.history]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert totals[-1] < totals[0]
    assert in_box(result.theta_star, scalar_params.k_theta)


def test_training_stays_in_a_binding_box(scalar_params, scalar_law):
    """The box is the model's: under a k_theta small enough to bind, every
    trained value lies in [-k_theta, k_theta] and some value reaches it."""
    p = dataclasses.replace(scalar_params, k_theta=0.05)
    samples, types = scalar_law.sample(64, 5)
    result = train(p, samples, types, TrainConfig(n_intervals=16, max_iters=40), split_seed(5, "t"))
    assert in_box(result.theta_star, p.k_theta)
    assert np.any(np.abs(result.theta_star.values) == p.k_theta)


def test_training_is_deterministic(scalar_params, scalar_law):
    samples, types = scalar_law.sample(32, 9)
    cfg = TrainConfig(n_intervals=8, max_iters=15)
    r1 = train(scalar_params, samples, types, cfg, 77)
    r2 = train(scalar_params, samples, types, cfg, 77)
    assert np.array_equal(r1.theta_star.values, r2.theta_star.values)
    assert r1.history[-1].total == r2.history[-1].total


def test_replication_average(scalar_params, scalar_law):
    """The averaged value equals the mean of the per-replication values."""
    samples, types = scalar_law.sample(16, 1)
    theta = ControlGrid.zeros(scalar_params.T, 8)
    noises = replication_noise(scalar_params, 16, 8, 3, 3)
    [avg], _ = value_and_gradient(scalar_params, theta.with_values(theta.values[None]), samples, types, [3], noises)
    singles = []
    for noise in noises:
        ens = simulate_particles(scalar_params, theta, samples, types, 8, 3, noise=noise)
        singles.append(evaluate_JN(ens, scalar_params).total)
    assert avg.total == pytest.approx(float(np.mean(singles)), rel=1e-12)


def test_accepted_candidate_gives_the_final_value_and_gradient(scalar_params, scalar_law):
    """train takes each accepted step's value and gradient from the line-search
    candidate's own simulations; a fresh evaluation at the result agrees
    exactly, averaged over two replications."""
    samples, types = scalar_law.sample(24, 3)
    cfg = TrainConfig(n_intervals=8, max_iters=6, replications=2)
    result = train(scalar_params, samples, types, cfg, 41)
    assert len(result.history) > 1
    [value], [grad] = value_and_gradient(scalar_params, result.theta_star.with_values(result.theta_star.values[None]),
                                         samples, types, [41], replication_noise(scalar_params, 24, 8, 41, 2))
    assert value == result.history[-1]
    assert float(np.linalg.norm(grad)) == result.grad_norm_final


def test_batch_training_matches_each_problem_alone(coupled_params, coupled_law):
    """Training B problems as one batch gives each problem the bytes of its own
    run, although they stop at different iterations: each keeps its own
    samples, noise, batch statistic, line search and stop."""
    p = coupled_params
    cfg = TrainConfig(n_intervals=8, max_iters=12, replications=2, grad_tol=0.05)
    draws = [coupled_law.sample(6, s) for s in (3, 4, 5)]
    seeds = [103, 104, 105]
    alone = [train(p, samples, types, cfg, seed) for (samples, types), seed in zip(draws, seeds)]
    assert len({len(r.history) for r in alone}) > 1
    batch = train(p, SampleBatch.stack([s for s, _ in draws]), draws[0][1], cfg, seeds)
    for b, r in enumerate(alone):
        assert batch.theta_star.values[b].tobytes() == r.theta_star.values.tobytes()
        assert [bd.total for bd in batch.history[b]] == [bd.total for bd in r.history]
        assert batch.grad_norm_final[b] == r.grad_norm_final


def test_line_search_floor_names_the_problem(scalar_params):
    """NoDescentProgress names the seed and iteration of the problem whose
    line search failed; a problem that starts stationary never searches."""
    quiet = TypeVector(epsilon=np.array([[0.0]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    at_label, off_label = dirac_law([1.0], [1.0], quiet), dirac_law([1.0], [0.0], quiet)
    cfg = TrainConfig(n_intervals=8, step_size=1e-15)
    samples = SampleBatch.stack([at_label.sample(4, 0)[0], off_label.sample(4, 0)[0]])
    with pytest.raises(NoDescentProgress) as batch:
        train(scalar_params, samples, quiet, cfg, [21, 22])
    with pytest.raises(NoDescentProgress) as alone:
        train(scalar_params, *off_label.sample(4, 0), cfg, 22)
    assert (batch.value.seed, batch.value.iteration) == (alone.value.seed, alone.value.iteration) == (22, 0)


def _batched_ensemble(p, law, n, seeds, n_steps):
    """A batch of problems, one per seed, simulated under random controls."""
    draws = [law.sample(n, s) for s in seeds]
    values = np.random.default_rng(seeds[0]).uniform(-1.0, 1.0, size=(len(seeds), n_steps + 1, 2))
    theta = ControlGrid(p.T, values)
    return simulate_particles(p, theta, SampleBatch.stack([s for s, _ in draws]), draws[0][1], n_steps, seeds)


def _batched_gradient_digest(p, law, n, seeds, n_steps=12):
    """sha256 of the adjoint gradient of a batch of problems, one per seed,
    under random controls."""
    ens = _batched_ensemble(p, law, n, seeds, n_steps)
    return hashlib.sha256(_adjoint_gradient(ens, p).tobytes()).hexdigest()


def test_adjoint_gradient_bytes_are_pinned(scalar_params, scalar_law, coupled_params, coupled_law):
    """Byte pins for the reverse sweep with and without the batch coupling
    term: the scalar model (eta_weight 0, coupling skipped) and the coupled
    model (eta_weight 0.4), each a batch of two problems.  Both digests were
    recorded from the sweep that evaluated the coupling term for every drift."""
    assert _batched_gradient_digest(scalar_params, scalar_law, 30, [11, 12]) == (
        "3a311cc0da912f02abd0fb114efba1598fc2b61802b1ebd536818877ec561f3b")
    assert _batched_gradient_digest(coupled_params, coupled_law, 10, [13, 14]) == (
        "c4198645d5643c0b99939e212f98bd69e9e25f9232306f008ba6e35d357007be")


@pytest.mark.parametrize("rows, calls", [(200, 2), (4096, 32), (4800, 32)])
def test_adjoint_takes_the_drift_partials_by_node_blocks(scalar_params, scalar_law, monkeypatch, rows, calls):
    """A sweep of 32 steps takes the drift partials of up to _BLOCK_ROWS
    (row, node) pairs per call: two calls for 200 rows (20 nodes and 12), one
    per node from 4096 rows on."""
    ens = _batched_ensemble(scalar_params, scalar_law, rows // 4, [1, 2, 3, 4], 32)
    spec = type(scalar_params.activation)
    partials = spec.drift_partials
    seen = []

    def counted(self, theta, z, x, eta):
        seen.append(x.shape[0])
        return partials(self, theta, z, x, eta)

    monkeypatch.setattr(spec, "drift_partials", counted)
    _adjoint_gradient(ens, scalar_params)
    assert len(seen) == calls and sum(seen) == 32


@pytest.mark.parametrize("block_rows", [7 * 40, 10**6])
def test_adjoint_bytes_do_not_depend_on_the_node_blocks(coupled_params, coupled_law, monkeypatch, block_rows):
    """Ragged blocks of 7 nodes and one block of all 12 give the gradient of
    one node per call byte for byte, batch coupling term included."""
    ens = _batched_ensemble(coupled_params, coupled_law, 20, [5, 6], 12)
    monkeypatch.setattr(trainer, "_BLOCK_ROWS", 1)  # one node per call
    per_node = _adjoint_gradient(ens, coupled_params).tobytes()
    monkeypatch.setattr(trainer, "_BLOCK_ROWS", block_rows)
    assert _adjoint_gradient(ens, coupled_params).tobytes() == per_node
