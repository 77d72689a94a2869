"""Euler-Maruyama simulation of the interacting particle system (which,
driven by draws from the initial law, is also the limiting SDE) and of the
augmented system used by the limiting first-order condition.

One Brownian path drives both the state and the exogenous input of a
particle (the two equations share the increment), and every particle's
noise stream is keyed by a stable identifier so that results do not depend
on evaluation order or worker partitioning.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ScalarConfigRequired, GridMismatch
from .params import ControlGrid, ModelParams, SampleBatch, TypeVector
from .rng import noise_table


@dataclass(frozen=True)
class ParticleEnsemble:
    """N simulated trajectories plus everything needed to reproduce them."""

    t_grid: np.ndarray        # (S+1,)
    X: np.ndarray             # (N, S+1, d)
    Z: np.ndarray             # (N, S+1, q)
    y0: np.ndarray            # (N, d) labels
    eps: np.ndarray           # (N, d, p), read-only broadcast of the shared type vector
    gamma: np.ndarray         # (N, l), likewise
    sigma: np.ndarray         # (N, q, p), likewise
    seed: int
    particle_ids: np.ndarray  # (N,)

    @property
    def n_particles(self):
        return self.X.shape[0]

    @property
    def n_steps(self):
        return self.X.shape[1] - 1

    @property
    def dt(self):
        return float(self.t_grid[1] - self.t_grid[0])


@dataclass(frozen=True)
class AugmentedEnsemble:
    """Paths of the (log-sensitivity, discounted-error, state) triple plus labels."""

    t_grid: np.ndarray  # (S+1,)
    X1: np.ndarray      # (M, S+1) integral of the state-derivative of the drift
    X2: np.ndarray      # (M, S+1) accumulated weighted tracking error
    X3: np.ndarray      # (M, S+1) state
    Y0: np.ndarray      # (M,)
    seed: int


def _check_grids(p: ModelParams, theta: ControlGrid, n_steps: int):
    if n_steps < 1:
        raise GridMismatch("need at least one simulation step")
    if abs(theta.horizon - p.T) > 1e-12 * max(1.0, p.T):
        raise GridMismatch("control horizon differs from the model horizon")


def simulate_particles(
    p: ModelParams,
    theta: ControlGrid,
    samples: SampleBatch,
    type_vector: TypeVector,
    n_steps: int,
    seed: int,
    particle_ids=None,
    noise=None,
) -> ParticleEnsemble:
    """Euler-Maruyama for the N-particle system with batch coupling.

    The state step uses the drift evaluated at (t_k, theta(t_k), Z_k, X_k,
    mean_j rho(X_k^j)); the exogenous input uses the decay drift; both use
    the same Brownian increment of the particle.  All particles share
    `type_vector`, so the ensemble's eps, gamma and sigma are broadcast views.
    Driven by M draws from the initial law this is the limiting SDE, its batch
    statistic approximated by the empirical mean over the M paths.
    """
    _check_grids(p, theta, n_steps)
    n = len(samples)
    eps, gamma, sigma = (np.broadcast_to(a, (n,) + a.shape) for a in
                         (type_vector.epsilon, type_vector.gamma, type_vector.sigma))
    if particle_ids is None:
        particle_ids = np.arange(n)
    particle_ids = np.asarray(particle_ids)
    t_grid = np.linspace(0.0, p.T, n_steps + 1)
    dt = t_grid[1] - t_grid[0]
    if noise is None:
        noise = noise_table(seed, particle_ids, n_steps, dt, p.dims.p)
    theta_nodes = theta.value_at(t_grid)

    X = np.empty((n, n_steps + 1, p.dims.d))
    Z = np.empty((n, n_steps + 1, p.dims.q))
    X[:, 0] = samples.x0
    Z[:, 0] = samples.z0
    act = p.activation
    for k in range(n_steps):
        xk = X[:, k]
        zk = Z[:, k]
        eta = float(np.mean(p.rho_value(xk)))
        f = act.drift(t_grid[k], theta_nodes[k], zk, xk, eta)
        dw = noise[:, k]
        X[:, k + 1] = xk + f * dt + np.einsum("ndp,np->nd", eps, dw)
        if p.dims.q:
            Z[:, k + 1] = zk + p.phi_value(gamma, zk) * dt + np.einsum("nqp,np->nq", sigma, dw)
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Z)):
        raise GridMismatch("trajectories diverged; reduce the step size")
    return ParticleEnsemble(
        t_grid=t_grid, X=X, Z=Z, y0=samples.y0, eps=eps, gamma=gamma, sigma=sigma,
        seed=int(seed), particle_ids=particle_ids,
    )


def augmented_noise(p: ModelParams, n_paths, n_steps, seed) -> np.ndarray:
    """The noise table simulate_augmented draws for n_paths paths under seed."""
    t_grid = np.linspace(0.0, p.T, n_steps + 1)
    return noise_table(seed, np.arange(n_paths), n_steps, t_grid[1] - t_grid[0], p.dims.p)


def simulate_augmented(p: ModelParams, theta: ControlGrid, init_draws, n_steps, seed, *,
                       noise=None) -> AugmentedEnsemble:
    """Euler scheme for the augmented triple behind the limiting gradient.

    X1 integrates the state-derivative of the drift along the path, X2
    accumulates exp(X1) * (state - label), X3 is the scalar state itself.
    X2's weight uses +X1 in the exponent so that exp(X1(s) - X1(t)) can be
    reassembled later; the difference form keeps the exponentials bounded at
    the horizons used here.  `init_draws` is what InitialLaw.sample returns;
    `noise` defaults to augmented_noise(p, M, n_steps, seed).
    """
    if not p.is_scalar_two_weight():
        raise ScalarConfigRequired("augmented system requires the scalar two-weight configuration")
    _check_grids(p, theta, n_steps)
    samples, type_vector = init_draws
    m = len(samples)
    t_grid = np.linspace(0.0, p.T, n_steps + 1)
    dt = t_grid[1] - t_grid[0]
    if noise is None:
        noise = augmented_noise(p, m, n_steps, seed)
    eps = np.broadcast_to(type_vector.epsilon[0], (m, p.dims.p))
    theta_nodes = theta.value_at(t_grid)

    X1 = np.zeros((m, n_steps + 1))
    X2 = np.zeros((m, n_steps + 1))
    X3 = np.empty((m, n_steps + 1))
    X3[:, 0] = samples.x0[:, 0]
    y = samples.y0[:, 0]
    act = p.activation
    none_z = np.zeros((m, 0))
    for k in range(n_steps):
        x = X3[:, k][:, None]
        f, dfdx, _, _, _ = act.drift_partials(t_grid[k], theta_nodes[k], none_z, x, 0.0)
        X1[:, k + 1] = X1[:, k] + dfdx[:, 0] * dt
        X2[:, k + 1] = X2[:, k] + np.exp(X1[:, k]) * (X3[:, k] - y) * dt
        X3[:, k + 1] = X3[:, k] + f[:, 0] * dt + np.einsum("np,np->n", eps, noise[:, k])
    if not (np.all(np.isfinite(X1)) and np.all(np.isfinite(X2)) and np.all(np.isfinite(X3))):
        raise GridMismatch("augmented trajectories diverged; reduce the step size")
    return AugmentedEnsemble(t_grid=t_grid, X1=X1, X2=X2, X3=X3, Y0=y, seed=int(seed))


def dump_trajectories(ensemble: ParticleEnsemble, path):
    """Columnar CSV dump: one row per (t, particle)."""
    d = ensemble.X.shape[2]
    q = ensemble.Z.shape[2]
    header = ["t", "particle_id"] + [f"x{j}" for j in range(d)] + [f"z{j}" for j in range(q)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, t in enumerate(ensemble.t_grid):
            for i in range(ensemble.n_particles):
                row = [repr(float(t)), int(ensemble.particle_ids[i])]
                row += [repr(float(v)) for v in ensemble.X[i, k]]
                row += [repr(float(v)) for v in ensemble.Z[i, k]]
                writer.writerow(row)
