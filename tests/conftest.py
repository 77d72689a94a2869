"""Fixtures, and the oracles and helpers that several test modules share."""
import itertools
import math

import numpy as np
import pytest

from mfresnet import (
    ActivationSpec,
    Dims,
    InitialLaw,
    ModelParams,
    TypeVector,
    estimate_G,
)
from mfresnet.errors import SizeMismatch
from mfresnet.fpk import neumann_derivatives
from mfresnet.sde import ParticleStream


def in_box(theta, k_theta):
    """Whether every control value lies in the model's box [-k_theta, k_theta]."""
    return bool(np.all(np.abs(theta.values) <= k_theta + 1e-15))


def dirac_law(x0, y0, type_vector, z0=()):
    """The point-mass initial law: every sample equals (x0, y0, z0)."""
    z0 = np.asarray(z0, dtype=float)
    return InitialLaw("dirac", x0, x0, y0, y0, z0, z0, type_vector)


def node_drifts(ens, p, k):
    """The drift (N, d) and exogenous drift (N, q) of a one-problem ensemble
    at node k, from its control, batch statistic and states there."""
    eta = None if ens.eta is None else ens.eta[k]
    z = ens.Z[:, k]
    return (p.activation.drift(ens.theta.values[k], z, ens.X[:, k], eta),
            p.phi_value(ens.type_vector.gamma, z))


def streamed(ens, p):
    """A stored ensemble's nodes, in order, as the ParticleStream that
    fpk_residual reads: (X[:, k], Z[:, k]) and their drifts at node k
    (node_drifts), each transposed to coordinate-major, for k = 0..S, with
    the ensemble's control and type vector."""
    nodes = ((ens.X[:, k].T, ens.Z[:, k].T, *(a.T for a in node_drifts(ens, p, k)))
             for k in range(ens.n_steps + 1))
    return ParticleStream(ens.theta, ens.type_vector, ens.n_particles, nodes)


def wasserstein2_exact_small(a, b):
    """Exact W2 between two equal-size clouds of <= 8 equally weighted points
    by brute-force assignment; the oracle the quantile coupling is tested against."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape != b.shape:
        raise SizeMismatch("clouds must have identical shapes")
    n = a.shape[0]
    if n > 8:
        raise SizeMismatch("exact assignment limited to 8 points")
    pair_cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)  # (n, n)
    perms = np.array(list(itertools.permutations(range(n))))
    costs = pair_cost[np.arange(n), perms].sum(axis=1)
    return math.sqrt(float(costs.min()) / n)


def spearman_negative_p_enumerated(values):
    """Spearman rank correlation of values against their index and its exact
    one-sided p-value, by a loop over the n! rankings that compares each
    ranking's rho with a float tolerance; the oracle the library's integer
    count is tested against."""
    values = np.asarray(values, dtype=float)
    n = values.size
    ranks = np.argsort(np.argsort(values))

    def rho(r):
        idx = np.arange(n)
        d = np.asarray(r) - idx
        return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))

    observed = rho(ranks)
    count = 0
    total = 0
    for perm in itertools.permutations(range(n)):
        total += 1
        if rho(perm) <= observed + 1e-12:
            count += 1
    return observed, count / total


def residual_first_order(theta, p, law, n_paths, seed):
    """Convergence certificate of the limit solver: interior sup-norm of
    lambda1 theta - lambda2 D2 theta - G(theta) plus the boundary derivative
    magnitudes."""
    G = estimate_G(theta, p, law, n_paths, seed)
    v = theta.values
    h = theta.dt
    d2 = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
    interior = p.lambda1 * v[1:-1] - p.lambda2 * d2 - G.values[1:-1]
    d0, dT = neumann_derivatives(theta)
    return float(np.max(np.abs(interior)) + np.max(d0) + np.max(dT))


def _affine_euler_moments(theta, law):
    """Exact moments of the Euler scheme X_{k+1} = a_k X_k + b_k + eps dW_k of
    the affine drift (g(u) = u, d = 1), a_k = 1 + theta1_k dt, b_k =
    theta2_k dt, from a uniform or point-mass initial law with Y independent
    of X_0 and of the noise: E X_k, E X_k^2, E Y and E Y^2."""
    v, dt = theta.values, theta.dt
    a, b = 1.0 + v[:-1, 0] * dt, v[:-1, 1] * dt
    noise = dt * float(np.sum(law.type_vector.epsilon ** 2))

    def first_two(lo, hi):
        return (lo + hi) / 2.0, (lo * lo + lo * hi + hi * hi) / 3.0

    m, s = (np.empty(theta.n_intervals + 1) for _ in range(2))
    m[0], s[0] = first_two(float(law.x_low[0]), float(law.x_high[0]))
    for k in range(theta.n_intervals):
        m[k + 1] = a[k] * m[k] + b[k]
        s[k + 1] = a[k] * a[k] * s[k] + 2.0 * a[k] * b[k] * m[k] + b[k] * b[k] + noise
    return (m, s) + first_two(float(law.y_low[0]), float(law.y_high[0]))


def affine_exact_residual(theta, law):
    """The exact expected weak-form residual path E R_k of the Euler scheme of
    the affine drift f = theta1_k x + theta2_k (d = 1, q = 0, no batch
    coupling) for diagnose-fpk's test function phi = x^2 + 0.5 x on its
    plateau, the path whose sample mean fpk_residual estimates.  E<mu_k, phi>
    and E<mu_k, A phi>, with A phi = f phi' + eps^2 phi'' / 2 = f (2x + 0.5)
    + eps^2, are linear in E X_k and E X_k^2 (_affine_euler_moments), so E R_k
    does not depend on N; it is the trapezoid rule over the same nodes."""
    m, s, _, _ = _affine_euler_moments(theta, law)
    v = theta.values
    mean_phi = s + 0.5 * m
    mean_gen = (2.0 * v[:, 0] * s + (0.5 * v[:, 0] + 2.0 * v[:, 1]) * m + 0.5 * v[:, 1]
                + float(np.sum(law.type_vector.epsilon ** 2)))
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * theta.dt * (mean_gen[1:] + mean_gen[:-1]))])
    return mean_phi - mean_phi[0] - cumint


def affine_controls(n_intervals):
    """Three controls for the affine oracle: zero, a smooth path and a rough one."""
    t = np.linspace(0.0, 1.0, n_intervals + 1)
    smooth = np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1)
    rough = np.random.default_rng(n_intervals).uniform(-1.0, 1.0, size=(n_intervals + 1, 2))
    return {"zero": np.zeros((n_intervals + 1, 2)), "smooth": smooth, "rough": rough}


def affine_exact_Jd(theta, p, law):
    """The exact limiting objective of the Euler-discretized affine model at
    theta, the value evaluate_Jd estimates: alpha E|X_S - Y|^2 plus beta
    times the trapezoid of E|X_k - Y|^2, plus the control costs."""
    m, s, my, sy = _affine_euler_moments(theta, law)
    err = s - 2.0 * m * my + sy
    v, t = theta.values, theta.t_grid
    control = (p.lambda1 * np.trapezoid(np.sum(v * v, axis=1), t)
               + p.lambda2 * float(np.sum(np.diff(v, axis=0) ** 2)) / theta.dt)
    return float(p.alpha * err[-1] + p.beta * np.trapezoid(err, t) + control)


def affine_exact_G(theta, p, law):
    """The exact first-order right-hand side G(theta) of the Euler-discretized
    affine model, the (S+1, 2) node values estimate_G estimates.  There
    X1_k = sum_{i<k} theta1_i dt is deterministic, so at node k the weight
    is -sum_{j>=k} c_kj (X_j - Y), with c_kj = beta exp(X1_j - X1_k) dt for
    j < S plus alpha exp(X1_S - X1_k) at j = S, and grad_theta f = (X_k, 1);
    G needs only the two-time moments E X_j X_k = a_{j-1} E X_{j-1} X_k +
    b_{j-1} E X_k for j > k."""
    m, s, my, _ = _affine_euler_moments(theta, law)
    v, dt, n = theta.values, theta.dt, theta.n_intervals
    a, b = 1.0 + v[:-1, 0] * dt, v[:-1, 1] * dt
    x1 = np.concatenate([[0.0], np.cumsum(v[:-1, 0] * dt)])
    G = np.empty((n + 1, 2))
    for k in range(n + 1):
        c = p.beta * dt * np.exp(x1[k:] - x1[k])
        c[-1] = p.alpha * np.exp(x1[n] - x1[k])
        cross = np.empty(n + 1 - k)   # E X_j X_k for j = k..S
        cross[0] = s[k]
        for j in range(k, n):
            cross[j + 1 - k] = a[j] * cross[j - k] + b[j] * m[k]
        G[k, 0] = -float(np.sum(c * (cross - my * m[k])))
        G[k, 1] = -float(np.sum(c * (m[k:] - my)))
    return G


@pytest.fixture
def scalar_params():
    """Scalar two-weight configuration with moderate costs."""
    return ModelParams(
        activation=ActivationSpec(kind="tanh"),
        rho="tanh_mean", phi="decay",
        alpha=1.0, beta=1.0, lambda1=0.1, lambda2=0.1,
        T=1.0, dims=Dims(d=1, q=0, p=1, m=2, l=0), K=10.0, k_theta=5.0,
    )


@pytest.fixture
def scalar_law():
    tv = TypeVector(epsilon=np.array([[0.3]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    return InitialLaw.uniform(
        x_low=[0.5], x_high=[1.5], y_low=[-0.5], y_high=[0.5], type_vector=tv,
    )


@pytest.fixture
def quiet_scalar_law():
    """Same marginals, zero diffusion: the dynamics are deterministic per sample."""
    tv = TypeVector(epsilon=np.array([[0.0]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    return InitialLaw.uniform(
        x_low=[0.5], x_high=[1.5], y_low=[-0.5], y_high=[0.5], type_vector=tv,
    )


@pytest.fixture
def coupled_params():
    """Multidimensional configuration with exogenous input and batch coupling."""
    return ModelParams(
        activation=ActivationSpec(kind="sigmoid", z_weight=0.3, eta_weight=0.4),
        rho="tanh_mean", phi="decay",
        alpha=1.2, beta=0.7, lambda1=0.2, lambda2=0.15,
        T=1.0, dims=Dims(d=2, q=2, p=2, m=2, l=2), K=10.0, k_theta=5.0,
    )


@pytest.fixture
def coupled_law():
    tv = TypeVector(
        epsilon=0.2 * np.ones((2, 2)),
        gamma=np.array([0.5, 1.0]),
        sigma=0.15 * np.ones((2, 2)),
    )
    return InitialLaw.uniform(
        x_low=[-1.0, -1.0], x_high=[1.0, 1.0],
        y_low=[-1.0, -1.0], y_high=[1.0, 1.0],
        z_low=[-0.5, -0.5], z_high=[0.5, 0.5],
        type_vector=tv,
    )
