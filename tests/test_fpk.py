import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    Dims,
    FixedPointConfig,
    GridFunction,
    ModelParams,
    TypeVector,
    estimate_G,
    fixed_point_solve,
    solve_neumann_bvp,
    trainer,
)
from mfresnet.cli import _nonoise_law, default_law
from mfresnet.errors import ScalarConfigRequired, NoConvergence
from mfresnet.fpk import neumann_derivatives, solve_tridiagonal
from mfresnet.rng import noise_table
from mfresnet.sde import euler_noise
from mfresnet.trainer import _trapezoid_weights, replication_noise, value_and_gradient

from conftest import affine_controls, affine_exact_G, dirac_law, residual_first_order


def _grid_function(values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return GridFunction(values=values, std_errors=np.zeros_like(values))


def _bvp_model(T, lambda1, lambda2):
    """A model whose horizon and weights are the BVP's."""
    return ModelParams(T=T, lambda1=lambda1, lambda2=lambda2)


# ---------------------------------------------------------------------------
# boundary value problem
# ---------------------------------------------------------------------------

def _bvp_band(t, lambda1, lambda2):
    """The ghost-node Neumann matrix that solve_neumann_bvp builds on grid t,
    in solve_banded's (3, n) layout."""
    h = t[1] - t[0]
    r = lambda2 / (h * h)
    ab = np.zeros((3, t.size))
    ab[1, :] = lambda1 + 2.0 * r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    ab[0, 1] = -2.0 * r
    ab[2, -2] = -2.0 * r
    return ab


def _precondition_band(t, lambda1, lambda2):
    """The control-cost Hessian that the trainer's preconditioner builds on grid t."""
    w = _trapezoid_weights(t)
    r = 2.0 * lambda2 / float(t[1] - t[0])
    ab = np.zeros((3, t.size))
    ab[1, :] = 2.0 * lambda1 * w + 2.0 * r
    ab[1, 0] -= r
    ab[1, -1] -= r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    return ab


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3, 9, 33, 129])
def test_tridiagonal_solve_has_solve_banded_bytes_on_library_matrices(n):
    """The solve that replaced scipy.linalg.solve_banded gives its bytes on
    both library matrices, with one and two right-hand-side columns, and so
    do the BVP solve and the preconditioner that call it."""
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 1.0, n)
    for lambda1, lambda2 in ((0.1, 0.1), (0.2, 0.15), (1.0, 1e-3), (3.0, 7.0)):
        for ab in (_bvp_band(t, lambda1, lambda2), _precondition_band(t, lambda1, lambda2)):
            for rhs in (rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=(n, 2))):
                assert _same_bytes(solve_tridiagonal(ab, rhs), scipy.linalg.solve_banded((1, 1), ab, rhs))
        G = _grid_function(rng.normal(size=(n, 2)))
        assert _same_bytes(solve_neumann_bvp(G, _bvp_model(1.0, lambda1, lambda2)).values,
                           scipy.linalg.solve_banded((1, 1), _bvp_band(t, lambda1, lambda2), G.values))
        grad = rng.normal(size=(n, 2))
        p = ModelParams(lambda1=lambda1, lambda2=lambda2)
        band = trainer._precondition_band(p, ControlGrid.zeros(1.0, n - 1))
        assert _same_bytes(solve_tridiagonal(band, grad),
                           scipy.linalg.solve_banded((1, 1), _precondition_band(t, lambda1, lambda2), grad))


def test_tridiagonal_solve_has_solve_banded_bytes_when_it_pivots():
    """General tridiagonals give solve_banded's bytes too.  The first one
    interchanges rows 0 and 1 (its subdiagonal entry outweighs the
    diagonal), so the fill-in of a row interchange is exercised; the second
    ties them, which takes no interchange; most of the random ones pivot
    somewhere as well."""
    rng = np.random.default_rng(11)
    pivots = np.array([[0.0, 1.0, 2.0, -1.0],
                       [0.1, 3.0, -0.5, 2.0],
                       [4.0, 1.0, 3.0, 0.0]])
    ties = np.array([[0.0, 3.0, 1.0, 2.0],
                     [1.0, 0.5, 2.0, 1.0],
                     [-1.0, 0.7, 3.0, 0.0]])
    bands = [pivots, ties] + [rng.normal(size=(3, n)) for n in (2, 3, 5, 17, 64) for _ in range(20)]
    for ab in bands:
        n = ab.shape[1]
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 2)), rng.normal(size=(n, 3))):
            assert _same_bytes(solve_tridiagonal(ab, rhs), scipy.linalg.solve_banded((1, 1), ab, rhs))


def test_bvp_constant_source_is_exact():
    theta = solve_neumann_bvp(_grid_function(np.full(17, 3.0)), _bvp_model(1.0, 0.5, 0.2))
    assert np.allclose(theta.values, 6.0, atol=1e-12)


def test_bvp_manufactured_solution_second_order():
    """theta(t) = cos(pi t / T) satisfies the equation with source
    (lambda1 + lambda2 pi^2 / T^2) cos(pi t / T) and zero end derivatives."""
    T, lam1, lam2 = 2.0, 0.7, 0.3
    factor = lam1 + lam2 * (math.pi / T) ** 2
    errs = []
    for n in (32, 64, 128, 256):
        t = np.linspace(0.0, T, n + 1)
        exact = np.cos(math.pi * t / T)
        theta = solve_neumann_bvp(_grid_function(factor * exact), _bvp_model(T, lam1, lam2))
        errs.append(np.max(np.abs(theta.values[:, 0] - exact)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 3.5 < r < 4.5


def test_bvp_discrete_maximum_principle():
    """A nonnegative source yields a nonnegative solution (inverse positivity
    of the diagonally dominant operator)."""
    rng = np.random.default_rng(4)
    src = rng.uniform(0.0, 1.0, size=(33, 2))
    theta = solve_neumann_bvp(_grid_function(src), _bvp_model(1.0, 0.3, 0.4))
    assert np.all(theta.values >= -1e-12)


def test_neumann_derivatives_vanish_for_even_profile():
    t = np.linspace(0.0, 1.0, 101)
    c = ControlGrid(1.0, np.stack([np.cos(math.pi * t), np.cos(math.pi * t)], axis=1))
    d0, dT = neumann_derivatives(c)
    assert np.max(d0) < 1e-3 and np.max(dT) < 1e-3


# ---------------------------------------------------------------------------
# G estimator
# ---------------------------------------------------------------------------

def _dirac_noise_free_law():
    tv = TypeVector(epsilon=np.zeros((1, 1)), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    return dirac_law(x0=[1.2], y0=[0.3], type_vector=tv)


def _theta_profile(t):
    """A smooth control on the uniform grid t of [0, t[-1]]."""
    vals = np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1)
    return ControlGrid(t[-1], vals)


def _g_oracle(p, t_nodes, x0, y):
    """High-accuracy quadrature of the defining expectation for the
    deterministic point-mass case, independent of the Euler estimator."""

    def theta_fun(t):
        return 0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2

    def rhs(t, s):
        x, _a = s
        t1, t2 = theta_fun(t)
        u = t1 * x + t2
        return [np.tanh(u), (1.0 - np.tanh(u) ** 2) * t1]

    sol = solve_ivp(rhs, [0.0, p.T], [x0, 0.0], dense_output=True, rtol=1e-11, atol=1e-12)
    s_f = np.linspace(0.0, p.T, 4001)
    xs, a_s = sol.sol(s_f)
    integrand = np.exp(a_s) * (xs - y)
    h = s_f[1] - s_f[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (integrand[1:] + integrand[:-1]))])
    tail = cum[-1] - np.interp(t_nodes, s_f, cum)
    x_t = np.interp(t_nodes, s_f, xs)
    a_t = np.interp(t_nodes, s_f, a_s)
    x_term, a_term = sol.y[0, -1], sol.y[1, -1]
    t1, t2 = theta_fun(t_nodes)
    gp = 1.0 - np.tanh(t1 * x_t + t2) ** 2
    w = -p.beta * np.exp(-a_t) * tail - p.alpha * np.exp(a_term - a_t) * (x_term - y)
    return np.stack([w * gp * x_t, w * gp], axis=1)


@pytest.mark.parametrize("control", ["zero", "smooth", "rough"])
def test_estimate_g_is_within_4_se_of_the_exact_affine_g(control):
    """estimate_G on the affine model estimates the exact G of its Euler
    scheme (tests/conftest.py) within 4 standard errors at every node and
    weight, at M = 20000 paths; without noise, from a point mass, it is the
    exact G up to rounding."""
    p = ModelParams(activation=ActivationSpec(kind="affine"))
    law = default_law()
    theta = ControlGrid(p.T, affine_controls(16)[control])
    G = estimate_G(theta, p, law, 20000, 37)
    assert np.all(np.abs(G.values - affine_exact_G(theta, p, law)) <= 4.0 * G.std_errors)
    point = dirac_law([0.8], [0.1], _nonoise_law(law).type_vector)
    assert np.allclose(estimate_G(theta, p, point, 3, 37).values, affine_exact_G(theta, p, point),
                       rtol=1e-12, atol=1e-14)


def test_estimate_g_matches_quadrature_oracle(scalar_params):
    p = scalar_params
    law = _dirac_noise_free_law()
    errs = []
    for n_steps in (100, 200, 400):
        t = np.linspace(0.0, p.T, n_steps + 1)
        theta = _theta_profile(t)
        G = estimate_G(theta, p, law, 4, 0)
        oracle = _g_oracle(p, t, 1.2, 0.3)
        errs.append(np.max(np.abs(G.values - oracle)))
    assert errs[-1] < 0.006
    # first-order convergence of the Euler estimator
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.3)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)


def test_estimate_g_agrees_with_adjoint_route(scalar_params):
    """Independent derivation check: back out G from the exact discrete
    gradient of the one-path noiseless objective and compare on the interior
    nodes (the two boundary nodes carry different discrete quadrature)."""
    p = scalar_params
    law = _dirac_noise_free_law()
    samples, types = law.sample(1, 0)
    diffs = []
    for n_steps in (100, 200, 400):
        t = np.linspace(0.0, p.T, n_steps + 1)
        theta = _theta_profile(t)
        _, [grad] = value_and_gradient(p, theta.with_values(theta.values[None]), samples, types, [0],
                                       replication_noise(p, 1, n_steps, 0, 1))
        w = _trapezoid_weights(t)
        h1g = np.zeros_like(theta.values)
        d = np.diff(theta.values, axis=0) / theta.dt
        h1g[:-1] -= 2.0 * p.lambda2 * d
        h1g[1:] += 2.0 * p.lambda2 * d
        implied = -(grad - 2.0 * p.lambda1 * w[:, None] * theta.values - h1g) / (2.0 * w[:, None])
        G = estimate_G(theta, p, law, 2, 0)
        diffs.append(np.max(np.abs(implied[1:-1] - G.values[1:-1])))
    assert diffs[-1] < 0.005
    assert diffs[0] > diffs[1] > diffs[2]


def test_estimate_g_requires_scalar_configuration(coupled_params, coupled_law):
    theta = ControlGrid.zeros(1.0, 8)
    with pytest.raises(ScalarConfigRequired):
        estimate_G(theta, coupled_params, coupled_law, 4, 0)


def test_estimate_g_std_errors_shrink(scalar_params, scalar_law):
    theta = ControlGrid.zeros(scalar_params.T, 16)
    small = estimate_G(theta, scalar_params, scalar_law, 200, 1)
    big = estimate_G(theta, scalar_params, scalar_law, 3200, 1)
    assert np.mean(big.std_errors) < 0.5 * np.mean(small.std_errors)


def test_estimate_g_uses_given_draws_and_noise(scalar_params, scalar_law):
    """Draws and noise passed in give exactly the estimate drawn internally
    under the same seed, and the noise passed in is the noise used."""
    p = scalar_params
    t = np.linspace(0.0, p.T, 17)
    theta = _theta_profile(t)
    own = estimate_G(theta, p, scalar_law, 300, 7)
    draws = scalar_law.sample(300, 7)
    given = estimate_G(theta, p, scalar_law, 300, 7, draws=draws, noise=euler_noise(p, 300, 16, 7))
    assert np.array_equal(own.values, given.values)
    assert np.array_equal(own.std_errors, given.std_errors)
    other = estimate_G(theta, p, scalar_law, 300, 7, draws=draws, noise=euler_noise(p, 300, 16, 8))
    assert not np.array_equal(own.values, other.values)


def _augmented_recursion_G(theta, p, draws, n_steps, noise):
    """G from the per-step Euler recursion of the augmented triple
    (X1, X2, X3), with the drift's theta-gradient taken from the state path
    afterwards: an estimator written without simulate_particles."""
    samples, tv = draws
    m = len(samples)
    t = np.linspace(0.0, p.T, n_steps + 1)
    dt = t[1] - t[0]
    nodes = theta.values
    eps = np.broadcast_to(tv.epsilon[0], (m, p.dims.p))
    act = p.activation
    X1 = np.zeros((m, n_steps + 1))
    X2 = np.zeros((m, n_steps + 1))
    X3 = np.empty((m, n_steps + 1))
    X3[:, 0] = samples.x0[:, 0]
    y = samples.y0[:, 0]
    for k in range(n_steps):
        f = act.drift(nodes[k], np.zeros((m, 0)), X3[:, k][:, None], 0.0)
        dfdx, _, _ = act.drift_partials(nodes[k], np.zeros((m, 0)), X3[:, k][:, None], 0.0)
        X1[:, k + 1] = X1[:, k] + dfdx[:, 0] * dt
        X2[:, k + 1] = X2[:, k] + np.exp(X1[:, k]) * (X3[:, k] - y) * dt
        X3[:, k + 1] = X3[:, k] + f[:, 0] * dt + np.einsum("np,np->n", eps, noise[:, k])
    if act.kind == "zero":
        gp = np.zeros_like(X3)
    else:
        gp = act._g_prime(X3 * nodes[:, 0][None, :] + nodes[:, 1][None, :])
    dtheta_f = np.stack([gp * X3, gp], axis=-1)
    weight = (
        -p.beta * np.exp(-X1) * (X2[:, -1][:, None] - X2)
        - p.alpha * np.exp(X1[:, -1][:, None] - X1) * (X3[:, -1] - y)[:, None]
    )
    integrand = weight[:, :, None] * dtheta_f
    values = np.mean(integrand, axis=0)
    if m == 1:
        return values, np.zeros_like(values)
    return values, np.std(integrand, axis=0, ddof=1) / math.sqrt(m)


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "gaussian", "affine", "zero"])
def test_estimate_g_equals_augmented_recursion(scalar_params, scalar_law, kind):
    """estimate_G, built on the particle simulation and cumulative sums, gives
    exactly the bytes of the per-step augmented recursion, for every scalar
    activation, one to many paths, and a three-dimensional noise."""
    tv3 = TypeVector(epsilon=np.array([[0.2, -0.1, 0.15]]), gamma=np.zeros(0), sigma=np.zeros((0, 3)))
    law3 = dataclasses.replace(scalar_law, type_vector=tv3)
    p1 = dataclasses.replace(scalar_params, activation=ActivationSpec(kind=kind))
    p3 = dataclasses.replace(p1, dims=Dims(d=1, q=0, p=3, m=2, l=0))
    for p, law, n_steps, m in ((p1, scalar_law, 32, 400), (p1, scalar_law, 16, 300),
                               (p1, scalar_law, 8, 1), (p3, law3, 16, 200)):
        t = np.linspace(0.0, p.T, n_steps + 1)
        theta = _theta_profile(t)
        G = estimate_G(theta, p, law, m, 4)
        noise = noise_table(4, np.arange(m), n_steps, t[1] - t[0], p.dims.p)
        values, std_errors = _augmented_recursion_G(theta, p, law.sample(m, 4), n_steps, noise)
        assert np.array_equal(G.values, values), (kind, p.dims.p, n_steps, m)
        assert np.array_equal(G.std_errors, std_errors), (kind, p.dims.p, n_steps, m)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_deterministic_and_certified(scalar_params, scalar_law):
    cfg = FixedPointConfig(mc_paths=2000, outer_iters=100)
    th1, trace1 = fixed_point_solve(scalar_params, scalar_law, cfg, 5)
    th2, trace2 = fixed_point_solve(scalar_params, scalar_law, cfg, 5)
    assert np.array_equal(th1.values, th2.values)
    assert trace1 == trace2
    assert trace1[-1] < cfg.outer_tol
    res = residual_first_order(th1, scalar_params, scalar_law, 2000, 5)
    assert res < 1.0


def test_fixed_point_no_convergence_carries_trace(scalar_params, scalar_law):
    cfg = FixedPointConfig(mc_paths=500, outer_iters=2)
    with pytest.raises(NoConvergence) as exc:
        fixed_point_solve(scalar_params, scalar_law, cfg, 5)
    assert len(exc.value.trace) == 2


def test_fixed_point_solution_in_box(scalar_params, scalar_law):
    p = dataclasses.replace(scalar_params, k_theta=0.2)
    cfg = FixedPointConfig(mc_paths=2000, outer_iters=100)
    theta, _ = fixed_point_solve(p, scalar_law, cfg, 5)
    assert np.max(np.abs(theta.values)) <= 0.2 + 1e-12
