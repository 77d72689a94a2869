"""Finite-sample training: the discrete adjoint gradient and projected
gradient descent with Armijo backtracking.

Gradients differentiate the discretized system exactly (including the batch
coupling term), so central finite differences with common random numbers
are the ground truth they are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDescentProgress, NonPositiveWeight
from .objective import CostBreakdown, evaluate_JN
from .params import ControlGrid, ModelParams, project_to_box, require_int, require_positive
from .rng import split_seed
from .sde import ParticleEnsemble, euler_noise, simulate_particles


@dataclass(frozen=True)
class TrainConfig:
    n_intervals: int = 32
    max_iters: int = 200
    step_size: float = 1.0
    shrink: float = 0.5
    armijo_c: float = 1e-4
    grad_tol: float = 1e-6
    replications: int = 1
    fd_epsilon: float = 1e-5
    step_floor: float = 1e-14

    def __post_init__(self):
        if self.step_size <= 0 or self.grad_tol <= 0:
            raise NonPositiveWeight("step_size and grad_tol must be positive")
        if self.replications < 1:
            raise NonPositiveWeight("replications must be >= 1")
        if not (0.0 < self.shrink < 1.0):
            raise NonPositiveWeight("shrink must lie in (0, 1)")
        require_int("train.n_intervals", self.n_intervals, 1)
        require_int("train.replications", self.replications, 1)
        require_int("train.max_iters", self.max_iters, 0)
        require_positive("train.step_floor", self.step_floor)
        require_positive("train.fd_epsilon", self.fd_epsilon)


@dataclass(frozen=True)
class TrainResult:
    theta_star: ControlGrid
    history: list            # accepted CostBreakdown per iteration, index 0 = initial point
    grad_norm_final: float

    @property
    def final_value(self):
        return self.history[-1].total


def _trapezoid_weights(t_grid):
    dt = t_grid[1] - t_grid[0]
    w = np.full(t_grid.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _adjoint_gradient(ensemble: ParticleEnsemble, p: ModelParams) -> np.ndarray:
    """Exact gradient of the pathwise objective w.r.t. the values of the
    control that drove the ensemble.

    Reverse sweep of the Euler recursion, including the batch coupling term
    (each particle's state feeds the empirical batch statistic seen by every
    other particle), chained into the terminal, running and control costs.
    """
    theta = ensemble.theta
    dt = ensemble.dt
    n = ensemble.n_particles
    w = _trapezoid_weights(ensemble.t_grid)
    err = ensemble.X - ensemble.y0[:, None, :]
    act = p.activation

    grad = np.zeros_like(theta.values)
    adj = (2.0 * p.alpha / n) * err[:, -1] + w[-1] * (2.0 * p.beta / n) * err[:, -1]
    for k in range(ensemble.n_steps - 1, -1, -1):
        xk = ensemble.X[:, k]
        zk = ensemble.Z[:, k]
        dfdx, dftheta, dfeta = act.drift_partials(theta.values[k], zk, xk, ensemble.eta[k])
        grad[k] += dt * np.einsum("ndm,nd->m", dftheta, adj)
        coupling = float(np.sum(dfeta * adj)) / n
        adj = (w[k] * (2.0 * p.beta / n) * err[:, k]
               + adj + dt * (dfdx * adj + coupling * p.rho_grad(xk)))

    # control costs
    grad += 2.0 * p.lambda1 * w[:, None] * theta.values
    dthe = np.diff(theta.values, axis=0) / dt
    grad[:-1] -= 2.0 * p.lambda2 * dthe
    grad[1:] += 2.0 * p.lambda2 * dthe
    return grad


def _replicate(p, theta, samples, type_vector, seed, noises):
    """Simulate theta under each noise table: the averaged cost and the ensembles."""
    parts = np.zeros(4)
    ensembles = []
    for noise in noises:
        ens = simulate_particles(p, theta, samples, type_vector, theta.n_intervals, seed, noise=noise)
        bd = evaluate_JN(ens, p)
        parts += np.array([bd.terminal, bd.running_state, bd.control_l2, bd.control_h1])
        ensembles.append(ens)
    return CostBreakdown.from_parts(*(parts / len(noises))), ensembles


def _mean_gradient(ensembles, p):
    return sum(_adjoint_gradient(ens, p) for ens in ensembles) / len(ensembles)


def value_and_gradient(p, theta, samples, type_vector, seed, replications=1, noises=None):
    """Objective and gradient averaged over noise replications (common random
    numbers: the same noise tables are reused for every theta)."""
    if noises is None:
        noises = replication_noise(p, len(samples), theta.n_intervals, seed, replications)
    value, ensembles = _replicate(p, theta, samples, type_vector, seed, noises)
    return value, _mean_gradient(ensembles, p)


def replication_noise(p, n_particles, n_steps, seed, replications):
    """One noise table per replication for particles 0..n_particles-1."""
    return [euler_noise(p, n_particles, n_steps, split_seed(seed, f"rep{r}"))
            for r in range(replications)]


def _precondition(theta: ControlGrid, p: ModelParams, grad: np.ndarray) -> np.ndarray:
    """Solve M s = grad with M the control-cost Hessian (SPD tridiagonal).

    The quadratic penalty dominates the curvature and its stiffness grows
    like 1/dt^2, so plain gradient steps crawl on fine grids; scaling by M
    makes the step size mesh-independent while keeping descent directions.
    """
    import scipy.linalg

    n = theta.t_grid.size
    dt = theta.dt
    w = _trapezoid_weights(theta.t_grid)
    r = 2.0 * p.lambda2 / dt
    ab = np.zeros((3, n))
    ab[1, :] = 2.0 * p.lambda1 * w + 2.0 * r
    ab[1, 0] -= r
    ab[1, -1] -= r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    return scipy.linalg.solve_banded((1, 1), ab, grad)


def train(p: ModelParams, samples, type_vector, cfg: TrainConfig, seed) -> TrainResult:
    """Projected gradient descent with Armijo backtracking on the sampled
    objective (replications averaged with common random numbers).

    Starts from the zero control, so the accepted history is non-increasing
    from the feasible zero-control value.  Each line-search candidate is
    simulated once; the accepted one's ensembles give the next gradient.
    """
    theta = ControlGrid.zeros(p.T, cfg.n_intervals, m=p.dims.m, k_theta=p.k_theta)
    noises = replication_noise(p, len(samples), cfg.n_intervals, seed, cfg.replications)

    current, grad = value_and_gradient(p, theta, samples, type_vector, seed, noises=noises)
    history = [current]
    gnorm = float(np.linalg.norm(grad))
    for _ in range(cfg.max_iters):
        if gnorm < cfg.grad_tol:
            break
        direction = _precondition(theta, p, grad)
        step = cfg.step_size
        while step >= cfg.step_floor:
            cand = project_to_box(theta.with_values(theta.values - step * direction))
            move = cand.values - theta.values
            cand_val, ensembles = _replicate(p, cand, samples, type_vector, seed, noises)
            if cand_val.total <= current.total + cfg.armijo_c * float(np.sum(grad * move)):
                break
            step *= cfg.shrink
        else:
            raise NoDescentProgress(
                f"line search floor reached at grad_norm={gnorm:.3e}")
        theta, current = cand, cand_val
        history.append(current)
        grad = _mean_gradient(ensembles, p)
        del ensembles
        gnorm = float(np.linalg.norm(grad))
    return TrainResult(theta_star=theta, history=history, grad_norm_final=gnorm)
