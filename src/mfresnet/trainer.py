"""Finite-sample training: the discrete adjoint gradient and projected
gradient descent with Armijo backtracking.

Gradients differentiate the discretized system exactly (including the batch
coupling term), so central finite differences with common random numbers
are the ground truth they are tested against.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoDescentProgress, NonPositiveWeight
from .fpk import check_band, solve_tridiagonal
from .objective import CostBreakdown, evaluate_JN
from .params import ControlGrid, ModelParams, SampleBatch, project_to_box, require_int
from .rng import split_seed
from .sde import (
    ParticleEnsemble,
    control_nodes,
    euler_noise,
    problem_rows,
    problem_seeds,
    simulate_particles,
)


# The line search: each starts at FIRST_STEP and shrinks it by SHRINK until a
# candidate meets Armijo's condition with constant ARMIJO_C, and ends as
# NoDescentProgress once the step is below STEP_FLOOR, so one search makes at
# most 47 candidates (0.5**47 < 1e-14); a problem stops at gradient norm GRAD_TOL.
FIRST_STEP, SHRINK, ARMIJO_C, GRAD_TOL, STEP_FLOOR = 1.0, 0.5, 1e-4, 1e-6, 1e-14


@dataclass(frozen=True)
class TrainConfig:
    n_intervals: int = 32
    max_iters: int = 200
    replications: int = 1

    def __post_init__(self):
        require_int("train.replications", self.replications, None)
        if self.replications < 1:
            raise NonPositiveWeight(f"train.replications must be >= 1, got {self.replications!r}")
        require_int("train.n_intervals", self.n_intervals, 1)
        require_int("train.max_iters", self.max_iters, 0)


@dataclass(frozen=True)
class TrainResult:
    """The trained control, the accepted costs and the final gradient norm;
    for a batch, B controls, one history and one norm per problem."""

    theta_star: ControlGrid
    history: list            # accepted CostBreakdown per iteration, index 0 = initial point
    grad_norm_final: float


# Most (row, node) pairs whose drift partials one call of the adjoint sweep
# takes: small batches share a call over many nodes, which saves the per-call
# cost, and from B*N >= 4096 on each node gets its own call, so the partials
# (nodes, B, N, d, 2) hold at most 4096 pairs, or one node's if that is more.
_BLOCK_ROWS = 4096


def _trapezoid_weights(t_grid):
    dt = t_grid[1] - t_grid[0]
    w = np.full(t_grid.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _adjoint_gradient(ensemble: ParticleEnsemble, p: ModelParams) -> np.ndarray:
    """Exact gradient of the pathwise objective w.r.t. the values of the
    control that drove the ensemble, shaped like them: one gradient per
    problem of a batch.

    Reverse sweep of the Euler recursion, including the batch coupling term
    (each particle's state feeds the empirical batch statistic seen by every
    other particle of its problem) when the drift reads it, chained into the
    terminal, running and control costs.
    """
    theta = ensemble.theta
    b, n, s, dt = theta.n_problems, ensemble.n_particles, theta.n_intervals, theta.dt
    w = _trapezoid_weights(theta.t_grid)
    # node-major (S+1, B, N, .) copies of the ensemble's paths (at d = 1, views of its buffers):
    # the gradient's einsum groups its sum by layout
    X = np.ascontiguousarray(np.moveaxis(ensemble.X.reshape(b, n, s + 1, -1), 2, 0))
    Z = np.ascontiguousarray(np.moveaxis(ensemble.Z.reshape(b, n, s + 1, -1), 2, 0))
    err = X - ensemble.y0.reshape(b, n, -1)
    eta = None if ensemble.eta is None else ensemble.eta.reshape(b, s + 1).T[:, :, None, None]
    values = theta.values.reshape(b, s + 1, -1)
    # weight j at every node, (m, S+1, B, 1, 1): a block of nodes is a slice
    weights = np.moveaxis(control_nodes(theta), 1, 0)
    act = p.activation
    per_block = max(1, _BLOCK_ROWS // (b * n))

    grad = np.zeros_like(values)
    adj = (2.0 * p.alpha / n) * err[-1] + w[-1] * (2.0 * p.beta / n) * err[-1]
    for stop in range(s, 0, -per_block):
        start = max(0, stop - per_block)
        nodes = slice(start, stop)
        dfdx, dftheta, dfeta = act.drift_partials(weights[:, nodes], Z[nodes], X[nodes],
                                                  None if eta is None else eta[nodes])
        for i in range(stop - start - 1, -1, -1):
            k = start + i
            grad[:, k] += dt * np.einsum("bndm,bnd->bm", dftheta[i], adj)
            step = dfdx[i] * adj
            if eta is not None:
                coupling = np.sum((dfeta[i] * adj).reshape(b, -1), axis=1)[:, None, None] / n
                step = step + coupling * p.rho_grad(X[k])
            adj = w[k] * (2.0 * p.beta / n) * err[k] + adj + dt * step

    # control costs
    grad += 2.0 * p.lambda1 * w[:, None] * values
    dthe = np.diff(values, axis=1) / dt
    grad[:, :-1] -= 2.0 * p.lambda2 * dthe
    grad[:, 1:] += 2.0 * p.lambda2 * dthe
    return grad.reshape(theta.values.shape)


def _replicate(p, theta, samples, type_vector, seeds, noises):
    """Simulate the batch of controls theta under each noise table: each
    problem's averaged cost and the ensembles."""
    parts = np.zeros((theta.n_problems, 4))
    ensembles = []
    for noise in noises:
        ens = simulate_particles(p, theta, samples, type_vector, theta.n_intervals, seeds, noise=noise)
        parts += [[bd.terminal, bd.running_state, bd.control_l2, bd.control_h1] for bd in evaluate_JN(ens, p)]
        ensembles.append(ens)
    return [CostBreakdown.from_parts(*row) for row in parts / len(noises)], ensembles


def _mean_gradient(ensembles, p):
    return sum(_adjoint_gradient(ens, p) for ens in ensembles) / len(ensembles)


def value_and_gradient(p, theta, samples, type_vector, seeds, noises):
    """One objective and one gradient per problem of a batch of B controls,
    (B, S+1, m) node values with one seed per problem, averaged over the
    noise tables of the replications, as replication_noise draws them (common
    random numbers: the same tables are reused for every theta)."""
    values, ensembles = _replicate(p, theta, samples, type_vector, seeds, noises)
    return values, _mean_gradient(ensembles, p)


def replication_noise(p, n_particles, n_steps, seed, replications):
    """One noise table per replication for particles 0..n_particles-1 of each
    problem, stacked over the problems of a sequence of seeds."""
    return [euler_noise(p, n_particles, n_steps, [split_seed(s, f"rep{r}") for s in problem_seeds(seed)])
            for r in range(replications)]


def _precondition_band(p: ModelParams, theta: ControlGrid) -> np.ndarray:
    """The band of the control-cost Hessian M (SPD tridiagonal) on theta's
    grid, in solve_tridiagonal's layout: train steps along M^-1 grad.

    The quadratic penalty dominates the curvature and its stiffness grows
    like 1/dt^2, so plain gradient steps crawl on fine grids; scaling by M
    makes the step size mesh-independent while keeping descent directions.
    """
    dt = np.float64(theta.dt)   # a step that rounds to zero divides to inf, for check_band to see
    w = _trapezoid_weights(theta.t_grid)
    r = 2.0 * p.lambda2 / dt
    ab = np.zeros((3, theta.t_grid.size))
    ab[1, :] = 2.0 * p.lambda1 * w + 2.0 * r
    ab[1, 0] -= r
    ab[1, -1] -= r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    return ab


def train(p: ModelParams, samples, type_vector, cfg: TrainConfig, seed) -> TrainResult:
    """Projected gradient descent with Armijo backtracking on the sampled
    objective (replications averaged with common random numbers).

    Starts from the zero control, so the accepted history is non-increasing
    from the feasible zero-control value.  Each line-search candidate is
    simulated once; the accepted one's ensembles give the next gradient.

    A sequence of B seeds trains B independent problems in lockstep, their N
    samples each stacked as row blocks of `samples`.  Each problem keeps its
    own control, noise, step, acceptance and stop.  Each round simulates the
    current candidate of every problem still running in one call, and the
    problems that accepted get one batched adjoint sweep.  The result holds
    the B controls and one history per problem.  Before any draw, raises
    ConfigInvalid, as check_band says, when the preconditioner's band on the
    grid is not finite and dominant.
    """
    seeds = problem_seeds(seed)
    n = len(samples) // len(seeds)
    zero = ControlGrid.zeros(p.T, cfg.n_intervals, m=p.dims.m)
    band = check_band(_precondition_band, p, zero)
    values = np.zeros((len(seeds),) + zero.values.shape)
    noises = replication_noise(p, n, cfg.n_intervals, seeds, cfg.replications)

    current, grad = value_and_gradient(p, zero.with_values(values.copy()), samples, type_vector, seeds, noises)
    history = [[bd] for bd in current]
    gnorm = [float(np.linalg.norm(g)) for g in grad]
    direction = np.empty_like(values)
    step = np.empty(len(seeds))

    def proceeds(b):
        """Start problem b's next line search, unless it has stopped."""
        if len(history[b]) > cfg.max_iters or gnorm[b] < GRAD_TOL:
            return False
        direction[b] = solve_tridiagonal(band, grad[b])
        step[b] = FIRST_STEP
        return True

    active = [b for b in range(len(seeds)) if proceeds(b)]
    while active:
        for b in active:
            if step[b] < STEP_FLOOR:
                raise NoDescentProgress(f"line search floor reached at grad_norm={gnorm[b]:.3e}",
                                        seed=seeds[b], iteration=len(history[b]) - 1)
        rows = slice(None) if len(active) == len(seeds) else problem_rows(active, n)
        subset_noises = noises if len(active) == len(seeds) else [np.take(nz, rows, axis=-1) for nz in noises]
        cand = project_to_box(zero.with_values(values[active] - step[active, None, None] * direction[active]), p.k_theta)
        cand_vals, ensembles = _replicate(
            p, cand, SampleBatch(samples.x0[rows], samples.y0[rows], samples.z0[rows]), type_vector,
            [seeds[b] for b in active], subset_noises)
        accepted = []
        for i, b in enumerate(active):
            move = cand.values[i] - values[b]
            if cand_vals[i].total <= history[b][-1].total + ARMIJO_C * float(np.sum(grad[b] * move)):
                accepted.append(i)
            else:
                step[b] *= SHRINK
        if accepted:
            new_grad = _mean_gradient([ens.problems(accepted) for ens in ensembles], p)
            for i, g in zip(accepted, new_grad):
                b = active[i]
                values[b] = cand.values[i]
                history[b].append(cand_vals[i])
                grad[b] = g
                gnorm[b] = float(np.linalg.norm(g))
        del ensembles
        active = [b for i, b in enumerate(active) if i not in accepted or proceeds(b)]
    if isinstance(seed, numbers.Integral):
        return TrainResult(theta_star=zero.with_values(values[0]), history=history[0],
                           grad_norm_final=gnorm[0])
    return TrainResult(theta_star=zero.with_values(values), history=history, grad_norm_final=gnorm)
