"""Euler-Maruyama simulation of the interacting particle system (which,
driven by draws from the initial law, is also the limiting SDE), and the
augmented paths of the limiting first-order condition built from it.

One Brownian path drives both the state and the exogenous input of a
particle (the two equations share the increment).  Particle i is row i,
and its noise stream is keyed by i, so results do not depend on evaluation
order or worker partitioning.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, GridMismatch, ScalarConfigRequired
from .params import ControlGrid, ModelParams, SampleBatch, TypeVector
from .rng import noise_table


@dataclass(frozen=True)
class ParticleEnsemble:
    """The record of one forward pass: N simulated trajectories (particle i
    is row i), the control that drove them and the batch statistic they saw."""

    theta: ControlGrid        # the control, on the simulation grid
    X: np.ndarray             # (N, S+1, d)
    Z: np.ndarray             # (N, S+1, q)
    eta: np.ndarray           # (S+1,) batch statistic mean_j rho(X_k^j) at each node
    y0: np.ndarray            # (N, d) labels
    eps: np.ndarray           # (N, d, p), read-only broadcast of the shared type vector
    gamma: np.ndarray         # (N, l), likewise
    sigma: np.ndarray         # (N, q, p), likewise

    @property
    def n_particles(self):
        return self.X.shape[0]

    @property
    def n_steps(self):
        return self.X.shape[1] - 1

    @property
    def t_grid(self):
        return self.theta.t_grid

    @property
    def dt(self):
        return self.theta.dt


def _check_finite(seed, *paths):
    """Raise Diverged at the first (step, row) where a path (N, S+1, ...) is not finite."""
    if all(np.isfinite(a).all() for a in paths):
        return
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(2, a.ndim))) for a in paths])
    step, row = np.argwhere(~finite.T)[0]
    raise Diverged("trajectories diverged; reduce the step size",
                   seed=int(seed), step=int(step), particle=int(row))


def euler_noise(p: ModelParams, n_paths, n_steps, seed) -> np.ndarray:
    """The increments simulate_particles draws when given no noise: (N, n_steps, p)
    for particles 0..n_paths-1."""
    return noise_table(seed, np.arange(n_paths), n_steps, p.T / n_steps, p.dims.p)


def simulate_particles(
    p: ModelParams,
    theta: ControlGrid,
    samples: SampleBatch,
    type_vector: TypeVector,
    n_steps: int,
    seed: int,
    noise=None,
) -> ParticleEnsemble:
    """Euler-Maruyama for the N-particle system with batch coupling, one step
    per interval of the control grid.

    The state step uses the drift evaluated at (theta(t_k), Z_k, X_k,
    mean_j rho(X_k^j)); the exogenous input uses the decay drift; both use
    the same Brownian increment of the particle.  All particles share
    `type_vector`, so the ensemble's eps, gamma and sigma are broadcast views.
    Driven by M draws from the initial law this is the limiting SDE, its batch
    statistic approximated by the empirical mean over the M paths.  Raises
    GridMismatch unless n_steps is the control's interval count and its
    horizon is p.T, and Diverged if a path is not finite at the end.
    """
    if n_steps != theta.n_intervals:
        raise GridMismatch(f"simulation needs one step per control interval: "
                           f"n_steps={n_steps}, control intervals={theta.n_intervals}")
    if abs(theta.horizon - p.T) > 1e-12 * max(1.0, p.T):
        raise GridMismatch("control horizon differs from the model horizon")
    n = len(samples)
    eps, gamma, sigma = (np.broadcast_to(a, (n,) + a.shape) for a in
                         (type_vector.epsilon, type_vector.gamma, type_vector.sigma))
    dt = theta.dt
    if noise is None:
        noise = euler_noise(p, n, n_steps, seed)

    X = np.empty((n, n_steps + 1, p.dims.d))
    Z = np.empty((n, n_steps + 1, p.dims.q))
    eta = np.empty(n_steps + 1)
    X[:, 0] = samples.x0
    Z[:, 0] = samples.z0
    act = p.activation
    for k in range(n_steps):
        xk = X[:, k]
        zk = Z[:, k]
        eta[k] = np.mean(p.rho_value(xk))
        f = act.drift(theta.values[k], zk, xk, eta[k])
        dw = noise[:, k]
        X[:, k + 1] = xk + f * dt + np.einsum("ndp,np->nd", eps, dw)
        if p.dims.q:
            Z[:, k + 1] = zk + p.phi_value(gamma, zk) * dt + np.einsum("nqp,np->nq", sigma, dw)
    eta[-1] = np.mean(p.rho_value(X[:, -1]))
    _check_finite(seed, X, Z)
    return ParticleEnsemble(theta=theta, X=X, Z=Z, eta=eta, y0=samples.y0,
                            eps=eps, gamma=gamma, sigma=sigma)


def simulate_augmented(p: ModelParams, theta: ControlGrid, init_draws, n_steps, seed, *,
                       noise=None):
    """The augmented triple behind the limiting gradient, from one particle simulation.

    Returns (ens, X1, X2, dtheta_f).  The state X3 is ens.X[:, :, 0] (with no
    batch coupling the M paths run independently).  X1 (M, S+1) integrates
    the state-derivative of the drift along it and X2 (M, S+1) accumulates
    exp(X1) * (state - label), both as left-point Euler sums from 0; dtheta_f
    (M, S+1, 2) is the drift's theta-gradient at every node.  X2's weight uses
    +X1 in the exponent so that exp(X1(s) - X1(t)) can be reassembled later;
    the difference form keeps the exponentials bounded at the horizons used
    here.  `init_draws` is what InitialLaw.sample returns; `noise` defaults to
    euler_noise for particles 0..M-1 under seed.
    """
    if not p.is_scalar_two_weight():
        raise ScalarConfigRequired("augmented system requires the scalar two-weight configuration")
    ens = simulate_particles(p, theta, *init_draws, n_steps, seed, noise=noise)
    x3 = ens.X[:, :, 0]
    # The drift acts coordinate by coordinate, so the depth axis can stand in
    # for the state axis: one call gives the partials at every (path, node).
    dfdx, dtheta_f, _ = p.activation.drift_partials(theta.values.T, None, x3, 0.0)
    X1 = np.zeros_like(x3)
    X2 = np.zeros_like(x3)
    np.cumsum(dfdx[:, :-1] * ens.dt, axis=1, out=X1[:, 1:])
    np.cumsum(np.exp(X1[:, :-1]) * (x3[:, :-1] - ens.y0[:, :1]) * ens.dt, axis=1, out=X2[:, 1:])
    _check_finite(seed, X1, X2)
    return ens, X1, X2, dtheta_f


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
                row = [repr(float(t)), i]
                row += [repr(float(v)) for v in ensemble.X[i, k]]
                row += [repr(float(v)) for v in ensemble.Z[i, k]]
                writer.writerow(row)
