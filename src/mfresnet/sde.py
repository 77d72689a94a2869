"""Euler-Maruyama simulation of the interacting particle system (which,
driven by draws from the initial law, is also the limiting SDE), and the
augmented paths of the limiting first-order condition built from it.

One Brownian path drives both the state and the exogenous input of a
particle (the two equations share the increment).  Particle i is row i,
and its noise stream is keyed by i, so results do not depend on evaluation
order or worker partitioning; paths and noise are stored node-major, node
k one contiguous (coordinates, rows) slab.  A batch of independent problems
stacks their particles as row blocks; particle i of each problem draws
stream i under that problem's seed, so its paths do not depend on its batch.

The one Euler loop, euler_nodes, checks each node and hands the nodes out
in order, each with its drifts: simulate_particles stores them all, and
stream_particles hands each one on without storing it.
"""
from __future__ import annotations

import collections
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged, GridMismatch, ScalarConfigRequired
from .params import ControlGrid, ModelParams, SampleBatch, TypeVector
from .rng import noise_table


@dataclass(frozen=True)
class ParticleEnsemble:
    """The record of one forward pass: N simulated trajectories (particle i
    is row i; X and Z are views of node-major, coordinate-major buffers
    (S+1, d, rows), so X[:, k].T is contiguous), the control that drove
    them and the batch statistic they saw.

    A batch of B independent problems is one ensemble: theta holds the B
    controls, problem b is the row block b*N .. (b+1)*N - 1 and eta has one
    row per problem, or is None for a drift that ignores it (eta_weight == 0)."""

    theta: ControlGrid        # the control, on the simulation grid
    X: np.ndarray             # (B*N, S+1, d)
    Z: np.ndarray             # (B*N, S+1, q)
    eta: np.ndarray | None    # (S+1,), or (B, S+1): batch statistic mean_j rho(X_k^j) at each node
    y0: np.ndarray            # (B*N, d) labels
    type_vector: TypeVector   # shared by every particle of every problem

    @property
    def n_problems(self):
        return self.theta.n_problems

    @property
    def n_particles(self):
        """Particles per problem."""
        return self.X.shape[0] // self.n_problems

    @property
    def n_steps(self):
        return self.X.shape[1] - 1

    @property
    def t_grid(self):
        return self.theta.t_grid

    @property
    def dt(self):
        return self.theta.dt

    def problems(self, idx):
        """The batch of problems idx (increasing indices) of a batched ensemble, gathered along the buffers' row axis."""
        if len(idx) == self.n_problems:
            return self
        rows = problem_rows(idx, self.n_particles)
        X, Z = (np.take(a.transpose(1, 2, 0), rows, axis=-1).transpose(2, 0, 1) for a in (self.X, self.Z))
        return ParticleEnsemble(theta=self.theta.with_values(self.theta.values[idx]), X=X, Z=Z,
                                eta=None if self.eta is None else self.eta[idx],
                                y0=self.y0[rows], type_vector=self.type_vector)


def problem_seeds(seed):
    """The seeds of a batch of problems: an integer seed is one problem."""
    return [seed] if isinstance(seed, numbers.Integral) else list(seed)


def problem_rows(idx, n):
    """Rows of the problems idx in a stack of blocks of n rows each."""
    return (np.asarray(idx)[:, None] * n + np.arange(n)).ravel()


def control_nodes(theta: ControlGrid):
    """theta's node values as (S+1, m, B, 1, 1): entry [k][j] is weight j of
    each problem at node k, shaped to broadcast over a (B, N, d) block of
    particles."""
    values = theta.values.reshape(theta.n_problems, theta.n_intervals + 1, theta.m)
    return np.moveaxis(values, 0, -1)[..., None, None]


def _diverged(seeds, *paths, first_step=0):
    """The Diverged error of the first (step, row) where a path (B*N, nodes,
    ...), its nodes from first_step on, is not finite, naming the seed of
    the row's problem and its row within it; some node must not be."""
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(2, a.ndim))) for a in paths])
    step, row = np.argwhere(~finite.T)[0]
    problem, particle = divmod(int(row), paths[0].shape[0] // len(seeds))
    return Diverged("trajectories diverged; reduce the step size",
                    seed=int(seeds[problem]), step=first_step + int(step), particle=particle)


_NOISE_BLOCK = 1024  # particles per noise_table call: the block held beside the table is 1.6 MiB at S=100, p=2


def euler_noise(p: ModelParams, n_paths, n_steps, seed) -> np.ndarray:
    """The increments simulate_particles draws when given no noise, node-major
    and coordinate-major: (n_steps, p, N) for particles 0..n_paths-1, row i
    of noise_table at [:, :, i]; for a sequence of seeds, one such block of
    rows per seed, stacked.  Streams are keyed by particle id, so the table
    is filled block by block."""
    seeds = problem_seeds(seed)
    out = np.empty((n_steps, p.dims.p, len(seeds), n_paths))
    for b, s in enumerate(seeds):
        for start in range(0, n_paths, _NOISE_BLOCK):
            ids = np.arange(start, min(start + _NOISE_BLOCK, n_paths))
            out[:, :, b, start:start + len(ids)] = noise_table(s, ids, n_steps, p.T / n_steps, p.dims.p).transpose(1, 2, 0)
    return out.reshape(n_steps, p.dims.p, len(seeds) * n_paths)


def _diffusion(coef, noise_k):
    """np.einsum("dp,np->nd", coef, noise_k.T) with its bytes, coordinate-major:
    the (d, rows) increment of one node's (p, rows) noise.  Up to 2 columns
    einsum adds the products in order to +0.0 (so a -0.0 product gives
    +0.0), and so do the column sums here; from 3 it groups them by layout,
    and is called on a row-major copy of the node."""
    if coef.shape[1] > 2:
        return np.einsum("dp,np->nd", coef, np.ascontiguousarray(noise_k.T)).T
    inc = coef[:, :1] * noise_k[0]
    for j in range(1, coef.shape[1]):
        inc += coef[:, j:j + 1] * noise_k[j]
    inc += 0.0
    return inc


def euler_nodes(p: ModelParams, theta: ControlGrid, samples: SampleBatch, type_vector: TypeVector,
                n_steps: int, seed, noise=None, out=None):
    """Euler-Maruyama for the N-particle system with batch coupling, one step
    per interval of the control grid, node by node: yields (x_k, z_k, f_k,
    phi_k) for k = 0..n_steps, coordinate-major, with x_k (d, B*N) and z_k
    (q, B*N), which it does not touch again, and f_k (d, B*N) and phi_k
    (q, B*N) the drift and the exogenous drift at node k, which step k uses.

    The state step uses the drift evaluated at (theta(t_k), Z_k, X_k,
    eta_k), eta_k each problem's batch statistic mean_j rho(X_k^j) (computed
    only for a drift that reads it, eta_weight != 0); the exogenous input
    uses the decay drift; both use the same Brownian increment of the
    particle.  All particles share `type_vector`; when it does not diffuse,
    no increment is drawn or contracted and `noise` is not read.  Driven by
    M draws from the initial law this is the limiting SDE, its batch
    statistic approximated by the empirical mean over the M paths.

    B independent problems run as one batch when theta holds B controls and
    `seed` is a sequence of B seeds: `samples` and each node of the `noise`
    (n_steps, p, B*N) stack the problems' N rows each as contiguous blocks,
    and each problem has its own control, noise and batch statistic.  Before
    the first node, raises GridMismatch unless n_steps is the control's
    interval count and its horizon is p.T, and DimensionMismatch unless the
    seeds and rows split into the control's problems and the noise has that
    shape.

    Every node is checked before its batch statistic and drifts are
    evaluated: one that is not finite raises Diverged, naming the seed of
    its problem, the step and the particle's row within the problem, so a
    diverged pass stops where it diverges.  Given `out` = (X, Z, E),
    buffers (n_steps+1, d, B*N) and (n_steps+1, q, B*N) and E (B,
    n_steps+1) or None, node k is written into the slabs X[k] and Z[k] and
    yielded as them, and eta_k into E[:, k]; otherwise each node is a new array.
    """
    if n_steps != theta.n_intervals:
        raise GridMismatch(f"simulation needs one step per control interval: "
                           f"n_steps={n_steps}, control intervals={theta.n_intervals}")
    if abs(theta.horizon - p.T) > 1e-12 * max(1.0, p.T):
        raise GridMismatch("control horizon differs from the model horizon")
    seeds = problem_seeds(seed)
    rows = len(samples)
    b = theta.n_problems
    if len(seeds) != b or rows % b:
        raise DimensionMismatch(f"{b} problems need one seed each and equal row blocks, "
                                f"got {len(seeds)} seeds for {rows} rows")
    n = rows // b
    d, q = p.dims.d, p.dims.q
    dt = theta.dt
    diffuses = type_vector.diffuses
    if noise is None and diffuses:
        noise = euler_noise(p, n, n_steps, seeds)
    if diffuses and np.shape(noise) != (n_steps, p.dims.p, rows):
        raise DimensionMismatch(f"noise must be node-major {(n_steps, p.dims.p, rows)}, got {np.shape(noise)}")

    act = p.activation
    coupled = act.eta_weight != 0.0
    X, Z, E = (None, None, None) if out is None else out
    if X is None:
        x, z = (np.array(a.T, dtype=float, order="C") for a in (samples.x0, samples.z0))
    else:
        X[0], Z[0] = samples.x0.T, samples.z0.T
        x, z = X[0], Z[0]
    nodes = control_nodes(theta)
    eps, gamma, sigma = type_vector.epsilon, type_vector.gamma, type_vector.sigma
    for k in range(n_steps + 1):
        if not (np.isfinite(x).all() and (not q or np.isfinite(z).all())):
            raise _diverged(seeds, x.T[:, None], z.T[:, None], first_step=k)
        eta_k = None
        if coupled:
            eta_k = np.mean(p.rho_value(x.T).reshape(b, n), axis=1)
            if E is not None:
                E[:, k] = eta_k
        # the row-major drifts on transposed views: numpy keeps the coordinate-major layout
        f = act.drift(nodes[k], z.T.reshape(b, n, q), x.T.reshape(b, n, d),
                      None if eta_k is None else eta_k[:, None, None]).reshape(rows, d).T
        phid = p.phi_value(gamma, z.T).T if q else z
        yield x, z, f, phid
        if k == n_steps:
            return
        x = np.add(x, f * dt, out=None if X is None else X[k + 1])
        if diffuses:
            x += _diffusion(eps, noise[k])
        if q:
            z = np.add(z, phid * dt, out=None if Z is None else Z[k + 1])
            if diffuses:
                z += _diffusion(sigma, noise[k])


def simulate_particles(p: ModelParams, theta: ControlGrid, samples: SampleBatch, type_vector: TypeVector,
                       n_steps: int, seed, noise=None) -> ParticleEnsemble:
    """The ensemble of euler_nodes (which see for the dynamics, a batch of
    problems and the checks of the inputs and of each node), every node
    stored; it carries `type_vector` as it is."""
    rows, b = len(samples), theta.n_problems
    # euler_nodes writes each node as one contiguous (coordinates, rows) slab
    X = np.empty((theta.n_intervals + 1, p.dims.d, rows))
    Z = np.empty((theta.n_intervals + 1, p.dims.q, rows))
    eta = np.empty((b, theta.n_intervals + 1)) if p.activation.eta_weight != 0.0 else None
    nodes = euler_nodes(p, theta, samples, type_vector, n_steps, seed, noise, (X, Z, eta))
    collections.deque(nodes, maxlen=0)   # run the loop; every node is already in the buffers
    if eta is not None:
        eta = eta.reshape(theta.values.shape[:-2] + (n_steps + 1,))
    return ParticleEnsemble(theta=theta, X=X.transpose(2, 0, 1), Z=Z.transpose(2, 0, 1), eta=eta,
                            y0=samples.y0, type_vector=type_vector)


@dataclass(frozen=True)
class ParticleStream:
    """One problem's Euler pass handed out node by node, for a consumer that
    reads each node once and in order: `nodes` yields (x_k (d, N), z_k (q, N),
    f_k (d, N), phi_k (q, N)) for k = 0..S, the states and the drift and
    exogenous drift at node k, coordinate-major, driven by the control
    `theta`, every particle of type `type_vector`.  No node is stored."""

    theta: ControlGrid
    type_vector: TypeVector
    n_particles: int
    nodes: Iterator

    @property
    def X(self):
        """A zero-width (N, S+1, 0) array where a stored ensemble holds its
        states, for code that sizes an ensemble by X.shape (the benchmark
        tracer counts the residual's atoms so).  It holds no state."""
        return np.empty((self.n_particles, self.theta.n_intervals + 1, 0))


def stream_particles(p: ModelParams, theta: ControlGrid, samples: SampleBatch,
                     type_vector: TypeVector, n_steps: int, seed) -> ParticleStream:
    """The nodes of euler_nodes (which see) as a ParticleStream."""
    return ParticleStream(theta, type_vector, len(samples) // theta.n_problems,
                          euler_nodes(p, theta, samples, type_vector, n_steps, seed))


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
    x3 = np.ascontiguousarray(ens.X[:, :, 0])  # (M, S+1) row-major: the path sums run along rows
    # The drift acts coordinate by coordinate, so the depth axis can stand in
    # for the state axis: one call gives the partials at every (path, node).
    dfdx, dtheta_f, _ = p.activation.drift_partials(theta.values.T, None, x3, 0.0)
    X1 = np.zeros_like(x3)
    X2 = np.zeros_like(x3)
    np.cumsum(dfdx[:, :-1] * ens.dt, axis=1, out=X1[:, 1:])
    np.cumsum(np.exp(X1[:, :-1]) * (x3[:, :-1] - ens.y0[:, :1]) * ens.dt, axis=1, out=X2[:, 1:])
    if not (np.isfinite(X1).all() and np.isfinite(X2).all()):
        raise _diverged([seed], X1, X2)
    return ens, X1, X2, dtheta_f

