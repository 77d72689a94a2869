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


def in_box(theta, k_theta):
    """Whether every control value lies in the model's box [-k_theta, k_theta]."""
    return bool(np.all(np.abs(theta.values) <= k_theta + 1e-15))


def dirac_law(x0, y0, type_vector, z0=()):
    """The point-mass initial law: every sample equals (x0, y0, z0)."""
    z0 = np.asarray(z0, dtype=float)
    return InitialLaw("dirac", x0, x0, y0, y0, z0, z0, type_vector)


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
