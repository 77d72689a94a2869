import dataclasses
import math

import numpy as np
import pytest

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    CostBreakdown,
    Dims,
    InitialLaw,
    ModelParams,
    SampleBatch,
    TypeVector,
    evaluate_Jd,
    evaluate_JN,
    simulate_particles,
)
from mfresnet.cli import _nonoise_law, default_law
from mfresnet.objective import control_costs

from conftest import affine_controls, affine_exact_Jd, dirac_law


def loss(p, x, y):
    """Terminal loss alpha * |x - y|^2."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(p.alpha * np.sum(diff * diff))


def _frozen_setup(scalar_params):
    """Zero drift, zero noise, point mass at (x0, y0) = (1, 0): the state
    never moves, so every cost term is available in closed form."""
    p = dataclasses.replace(scalar_params, activation=ActivationSpec(kind="zero"))
    tv = TypeVector(epsilon=np.zeros((1, 1)), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    law = dirac_law(x0=[1.0], y0=[0.0], type_vector=tv)
    return p, law


def test_loss_is_scaled_squared_error(scalar_params):
    assert loss(scalar_params, [2.0], [0.5]) == pytest.approx(scalar_params.alpha * 2.25)


def test_cost_breakdown_total():
    bd = CostBreakdown.from_parts(1.0, 2.0, 3.0, 4.0)
    assert bd.total == 10.0


def test_sampled_objective_closed_form(scalar_params):
    p, law = _frozen_setup(scalar_params)
    samples, types = law.sample(4, 0)
    theta = ControlGrid.zeros(p.T, 8)
    ens = simulate_particles(p, theta, samples, types, 8, 0)
    bd = evaluate_JN(ens, p)
    assert bd.terminal == pytest.approx(p.alpha)
    assert bd.running_state == pytest.approx(p.beta * p.T)
    assert bd.control_l2 == 0.0 and bd.control_h1 == 0.0
    assert bd.total == pytest.approx(p.alpha + p.beta * p.T)


def test_control_costs_constant_path(scalar_params):
    p, law = _frozen_setup(scalar_params)
    samples, types = law.sample(1, 0)
    n = 8
    t = np.linspace(0.0, p.T, n + 1)
    theta = ControlGrid(p.T, np.stack([2.0 * np.ones_like(t), np.zeros_like(t)], axis=1))
    ens = simulate_particles(p, theta, samples, types, n, 0)
    bd = evaluate_JN(ens, p)
    assert bd.control_l2 == pytest.approx(p.lambda1 * 4.0 * p.T)
    assert bd.control_h1 == 0.0


def test_limit_objective_matches_closed_form(scalar_params):
    p, law = _frozen_setup(scalar_params)
    theta = ControlGrid.zeros(p.T, 16)
    est, se = evaluate_Jd(theta, p, law, 64, 3)
    assert est == pytest.approx(p.alpha + p.beta * p.T)
    assert se == 0.0


def test_limit_objective_equals_sampled_for_shared_draws(scalar_params, scalar_law):
    """For the decoupled drift the limiting estimator over M draws is exactly
    the sampled objective of the M-particle system with the same seed."""
    theta = ControlGrid.zeros(scalar_params.T, 8)
    seed = 17
    est, _ = evaluate_Jd(theta, scalar_params, scalar_law, 32, seed)
    samples, types = scalar_law.sample(32, seed)
    ens = simulate_particles(scalar_params, theta, samples, types, 8, seed)
    assert est == pytest.approx(evaluate_JN(ens, scalar_params).total, rel=1e-12)


def _squared_error_oracle(ens):
    """|X - Y|^2 per particle and node by numpy's sum over the state axis, at any d,
    on the row-major X the library's bytes come from."""
    err = np.ascontiguousarray(ens.X) - ens.y0[:, None, :]
    return np.sum(err * err, axis=2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_objectives_have_the_bytes_of_the_summed_state_error(d):
    """evaluate_JN (on a batch of two problems) and evaluate_Jd give the bytes
    of the state-axis sum at every d, including d = 1, which skips it."""
    p = ModelParams(dims=Dims(d=d, q=0, p=d, m=2, l=0))
    tv = TypeVector(epsilon=0.3 * np.eye(d), gamma=np.zeros(0), sigma=np.zeros((0, d)))
    law = InitialLaw.uniform(x_low=[-1.0] * d, x_high=[1.0] * d, y_low=[-0.5] * d, y_high=[0.5] * d,
                             type_vector=tv)
    t = np.linspace(0.0, p.T, 9)
    values = np.random.default_rng(d).uniform(-1.0, 1.0, size=(2, 9, 2))
    batch = ControlGrid(p.T, values)
    ens = simulate_particles(p, batch, SampleBatch.stack([law.sample(12, s)[0] for s in (5, 6)]), tv, 8, [5, 6])
    sq = np.mean(_squared_error_oracle(ens).reshape(2, 12, -1), axis=1)
    expected = np.stack([p.alpha * sq[:, -1], p.beta * np.trapezoid(sq, t, axis=-1)], axis=1)
    costs = evaluate_JN(ens, p)
    assert np.array([[bd.terminal, bd.running_state] for bd in costs]).tobytes() == expected.tobytes()

    theta = ControlGrid(p.T, values[0])
    ens = simulate_particles(p, theta, *law.sample(40, 7), 8, 7)
    sq = _squared_error_oracle(ens)
    per_path = p.alpha * sq[:, -1] + p.beta * np.trapezoid(sq, t, axis=1)
    l2_cost, h1_cost = control_costs(theta, p)
    expected = np.array([np.mean(per_path) + l2_cost + h1_cost, np.std(per_path, ddof=1) / math.sqrt(40)])
    assert np.array(evaluate_Jd(theta, p, law, 40, 7)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("control", ["zero", "smooth", "rough"])
def test_limit_objective_is_within_4_se_of_the_exact_affine_value(control):
    """evaluate_Jd on the affine model estimates the exact discrete limit
    objective of its Euler scheme (tests/conftest.py) within 4 standard
    errors at M = 20000 paths; without noise, from a point mass, it is the
    exact value up to rounding."""
    p = ModelParams(activation=ActivationSpec(kind="affine"))
    law = default_law()
    theta = ControlGrid(p.T, affine_controls(16)[control])
    exact = affine_exact_Jd(theta, p, law)
    estimate, se = evaluate_Jd(theta, p, law, 20000, 31)
    assert abs(estimate - exact) <= 4.0 * se
    point = dirac_law([0.8], [0.1], _nonoise_law(law).type_vector)
    assert evaluate_Jd(theta, p, point, 3, 31)[0] == pytest.approx(affine_exact_Jd(theta, p, point), rel=1e-12)
