import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    Dims,
    ModelParams,
    TypeVector,
    control_h1_norms,
    project_to_box,
)
from mfresnet.cli import ExperimentConfig
from mfresnet.errors import (
    BoundViolation,
    ConfigInvalid,
    DimensionMismatch,
    NonPositiveWeight,
)
from mfresnet.params import check_law, check_type, sum_last

from conftest import dirac_law, in_box


# ---------------------------------------------------------------------------
# dims and validation
# ---------------------------------------------------------------------------

def test_dims_validate_rejects_bad_values():
    with pytest.raises(DimensionMismatch):
        Dims(d=0)
    with pytest.raises(DimensionMismatch):
        Dims(q=-1)
    with pytest.raises(DimensionMismatch):
        Dims(q=3, l=2)
    with pytest.raises(ConfigInvalid):
        Dims(p=True)
    with pytest.raises(ConfigInvalid):
        Dims(d=1.5)
    Dims(q=3, l=1)
    Dims(q=3, l=3)


def test_validate_params_rejects_nonpositive_weights(scalar_params):
    for name in ("alpha", "beta", "lambda1", "lambda2", "T"):
        with pytest.raises(NonPositiveWeight):
            dataclasses.replace(scalar_params, **{name: 0.0})
    for name in ("K", "k_theta"):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(BoundViolation):
                dataclasses.replace(scalar_params, **{name: bad})
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(scalar_params, **{name: True})


def test_validate_params_rejects_bad_wiring():
    act = ActivationSpec(kind="tanh", z_weight=0.5)
    with pytest.raises(DimensionMismatch):
        ModelParams(activation=act, dims=Dims(d=1, q=0, p=1, m=2, l=0))


def test_check_sample_and_type_bounds(scalar_params, scalar_law):
    assert check_law(scalar_params, scalar_law) is scalar_law
    with pytest.raises(BoundViolation):
        check_law(scalar_params, dataclasses.replace(scalar_law, x_high=[100.0]))
    with pytest.raises(DimensionMismatch):
        check_law(scalar_params, dataclasses.replace(scalar_law, x_low=[1.0, 2.0], x_high=[1.5, 2.5]))
    with pytest.raises(ConfigInvalid):
        check_law(scalar_params, dataclasses.replace(scalar_law, y_low=[0.6]))
    tv = TypeVector(epsilon=np.array([[0.3]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    assert check_type(scalar_params, tv) is tv
    with pytest.raises(BoundViolation):
        check_type(scalar_params, TypeVector(epsilon=np.array([[100.0]]),
                                             gamma=np.zeros(0), sigma=np.zeros((0, 1))))


# ---------------------------------------------------------------------------
# activation family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "gaussian", "affine"])
def test_g_prime_matches_finite_differences(kind):
    act = ActivationSpec(kind=kind)
    u = np.linspace(-3.0, 3.0, 41)
    h = 1e-6
    fd = (act._g(u + h) - act._g(u - h)) / (2.0 * h)
    assert np.max(np.abs(fd - act._g_prime(u))) < 1e-8


def g_prime_sup(act):
    """Closed-form sup of |g'| for each activation kind."""
    return {
        "tanh": 1.0,
        "sigmoid": 0.25,
        "gaussian": math.sqrt(2.0 / math.e),
        "affine": 1.0,
        "zero": 0.0,
        "constant": 0.0,
    }[act.kind]


def lipschitz_constant(act, x_bound, k_theta):
    """Lipschitz constant of f in (theta, x, z, eta) jointly, valid for
    |x| <= x_bound coordinatewise and |theta| <= k_theta coordinatewise."""
    if act.kind in ("constant", "zero"):
        return 0.0
    return g_prime_sup(act) * max(
        x_bound + 1.0,           # theta direction: |x| for theta_1 plus 1 for theta_2
        abs(k_theta),            # x direction
        abs(act.z_weight),
        abs(act.eta_weight),
    )


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "gaussian", "affine"])
def test_g_prime_sup_is_an_upper_bound(kind):
    act = ActivationSpec(kind=kind)
    u = np.linspace(-10.0, 10.0, 2001)
    assert np.max(np.abs(act._g_prime(u))) <= g_prime_sup(act) + 1e-12


def test_drift_partials_match_finite_differences():
    act = ActivationSpec(kind="tanh", z_weight=0.3, eta_weight=0.4)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 2))
    z = rng.normal(size=(5, 3))
    theta = np.array([0.7, -0.2])
    eta = 0.3
    dfdx, dftheta, dfeta = act.drift_partials(theta, z, x, eta)
    h = 1e-6
    # state derivative (diagonal)
    for r in range(2):
        xp = x.copy(); xp[:, r] += h
        xm = x.copy(); xm[:, r] -= h
        fd = (act.drift(theta, z, xp, eta) - act.drift(theta, z, xm, eta)) / (2 * h)
        assert np.allclose(fd[:, r], dfdx[:, r], atol=1e-7)
        off = np.delete(fd, r, axis=1)
        assert np.max(np.abs(off)) < 1e-7
    # control derivatives
    for j in range(2):
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        fd = (act.drift(tp, z, x, eta) - act.drift(tm, z, x, eta)) / (2 * h)
        assert np.allclose(fd, dftheta[:, :, j], atol=1e-7)
    # batch statistic derivative
    fd = (act.drift(theta, z, x, eta + h) - act.drift(theta, z, x, eta - h)) / (2 * h)
    assert np.allclose(fd, dfeta, atol=1e-7)


@pytest.mark.parametrize("kind", ["sigmoid", "gaussian"])
def test_saturated_activation_is_finite_and_silent(kind):
    """Far out, sigmoid's exp(-u) and gaussian's u * u overflow to inf, where
    g is 0 (or 1) and g' is 0: the drift and its partials stay finite and
    print no overflow warning, which the test run would turn into a failure."""
    act = ActivationSpec(kind=kind)
    x = np.array([[800.0], [-800.0], [1e200], [-1e200]])
    f = act.drift(np.array([1.0, 0.0]), None, x, 0.0)
    assert np.all(np.isfinite(f)) and np.all((f == 0.0) | (f == 1.0))
    for table in act.drift_partials(np.array([1.0, 0.0]), None, x, 0.0):
        assert np.all(table == 0.0)


def test_zero_and_constant_kinds():
    x = np.ones((3, 2))
    z = np.zeros((3, 0))
    zero = ActivationSpec(kind="zero")
    const = ActivationSpec(kind="constant", c=0.7)
    assert np.all(zero.drift(np.zeros(2), z, x, 0.0) == 0.0)
    assert np.all(const.drift(np.zeros(2), z, x, 0.0) == 0.7)
    assert lipschitz_constant(zero, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("n", range(1, 10))
def test_sum_last_has_the_bytes_of_numpy(n):
    """sum_last and sum_last / n give np.sum's and np.mean's bytes over the
    last axis, on magnitudes from 1e-5 to 1e5 of both signs, for contiguous
    and strided arrays of two and three axes; so do both batch functions.
    On a column-major array, where np.sum adds in order, they give the
    bytes of its row-major copy."""
    gen = np.random.default_rng(n)
    full = gen.normal(size=(40, 3, 2 * n)) * 10.0 ** gen.uniform(-5, 5, size=(40, 3, 2 * n))
    for a in (full[:, :, :n], full[:, :, ::2], full[:, 0, :n].copy(), full[::3, 1, n:]):
        assert sum_last(a).tobytes() == np.sum(a, axis=-1).tobytes()
        assert (sum_last(a) / n).tobytes() == np.mean(a, axis=-1).tobytes()
    x = full[:, 0, :n].copy()
    assert ModelParams(rho="mean").rho_value(x).tobytes() == np.mean(x, axis=1).tobytes()
    assert ModelParams(rho="tanh_mean").rho_value(x).tobytes() == np.mean(np.tanh(x), axis=1).tobytes()
    for a in (full[:, :, :n], full[:, 0, :n], full[::3, 1, n:]):
        column_major = np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1)
        assert sum_last(column_major).tobytes() == np.sum(a, axis=-1).tobytes()
        assert (sum_last(column_major) / n).tobytes() == np.mean(a, axis=-1).tobytes()
    x_cm = np.asfortranarray(x)
    assert ModelParams(rho="mean").rho_value(x_cm).tobytes() == np.mean(x, axis=1).tobytes()
    assert ModelParams(rho="tanh_mean").rho_value(x_cm).tobytes() == np.mean(np.tanh(x), axis=1).tobytes()


def eval_drift(p, theta, z, x, eta):
    """Pointwise drift: theta (m,), z (q,), x (d,), eta scalar -> (d,)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    z = np.asarray(z, dtype=float).reshape(1, -1)
    return p.activation.drift(np.asarray(theta, dtype=float), z, x, float(eta))[0]


def test_eval_drift_matches_batched(scalar_params):
    theta = np.array([0.5, -0.3])
    out = eval_drift(scalar_params, theta, [], [0.8], 0.0)
    expected = np.tanh(0.5 * 0.8 - 0.3)
    assert np.allclose(out, [expected])


# ---------------------------------------------------------------------------
# control grid
# ---------------------------------------------------------------------------

def test_control_grid_interpolation():
    t = np.linspace(0.0, 1.0, 5)
    vals = np.stack([t, 2 * t], axis=1)
    c = ControlGrid(1.0, vals)
    assert c.n_intervals == 4 and c.horizon == 1.0
    assert c.t_grid.tobytes() == t.tobytes()
    slopes = np.diff(c.values, axis=0) / c.dt
    assert np.allclose(slopes, np.tile([1.0, 2.0], (4, 1)))


def test_control_grid_values_are_one_path_or_a_batch():
    """values is (M+1, m) or (B, M+1, m) with M >= 1; every other shape,
    one-node paths and batches included, is refused."""
    for shape in ((), (3,), (1, 2), (3, 1, 2), (1, 1, 3, 2)):
        with pytest.raises(DimensionMismatch):
            ControlGrid(1.0, np.zeros(shape))
    assert ControlGrid(1.0, np.zeros((2, 2))).n_intervals == 1
    assert ControlGrid(1.0, np.zeros((3, 2, 2))).n_problems == 3


def test_project_to_box_clamps():
    c = ControlGrid(1.0, np.array([[3.0, -3.0], [0.5, 0.0], [1.0, 1.0]]))
    proj = project_to_box(c, 1.0)
    assert in_box(proj, 1.0)
    assert np.allclose(proj.values, [[1.0, -1.0], [0.5, 0.0], [1.0, 1.0]])
    # already-feasible grids are returned unchanged
    assert project_to_box(proj, 1.0) is proj


def test_control_h1_norms_linear_path():
    t = np.linspace(0.0, 2.0, 9)
    c = ControlGrid(2.0, np.stack([3.0 * t, np.zeros_like(t)], axis=1))
    l2_sq, h1_sq = control_h1_norms(c)
    # trapezoid rule is exact-ish for t^2 up to the standard h^2 correction
    assert abs(l2_sq - 24.0) < 0.6
    assert abs(h1_sq - 18.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20), st.floats(0.1, 5.0))
def test_h1_norms_nonnegative_and_zero_for_constant(n_nodes, horizon):
    t = np.linspace(0.0, horizon, n_nodes)
    c = ControlGrid(horizon, np.full((n_nodes, 2), 0.7))
    l2_sq, h1_sq = control_h1_norms(c)
    assert l2_sq >= 0.0 and h1_sq == 0.0
    assert abs(l2_sq - 2 * 0.49 * horizon) < 1e-9


# ---------------------------------------------------------------------------
# serialization and initial laws
# ---------------------------------------------------------------------------

def _config_roundtrip(d):
    return ExperimentConfig.from_dict(json.loads(json.dumps(d, indent=2, sort_keys=True)))


def test_model_params_roundtrip(coupled_params, coupled_law):
    d = ExperimentConfig(model=coupled_params, initial_law=coupled_law).to_dict()
    again = ExperimentConfig.from_dict(d).model
    assert again == coupled_params
    assert _config_roundtrip(d).model == coupled_params


def test_initial_law_roundtrip_and_determinism(coupled_params, coupled_law):
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law)
    again = _config_roundtrip(cfg.to_dict()).initial_law
    s1, t1 = again.sample(7, 42)
    s2, t2 = coupled_law.sample(7, 42)
    assert len(s1) == len(s2) == 7
    assert np.array_equal(s1.x0, s2.x0)
    assert np.array_equal(s1.y0, s2.y0)
    assert np.array_equal(s1.z0, s2.z0)
    assert t1.norm() == t2.norm()


def test_uniform_law_respects_bounds(coupled_law):
    samples, _ = coupled_law.sample(200, 3)
    x = samples.x0
    z = samples.z0
    assert np.all(x >= -1.0) and np.all(x <= 1.0)
    assert np.all(z >= -0.5) and np.all(z <= 0.5)


def test_dirac_law_is_constant():
    """The point-mass law, read back through the config route."""
    tv = TypeVector(epsilon=np.array([[0.1]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    cfg = ExperimentConfig(initial_law=dirac_law(x0=[1.0], y0=[0.5], type_vector=tv))
    law = _config_roundtrip(cfg.to_dict()).initial_law
    assert law.kind == "dirac"
    samples, _ = law.sample(5, 0)
    assert len(samples) == 5
    for x0, y0 in zip(samples.x0, samples.y0):
        assert np.array_equal(x0, [1.0])
        assert np.array_equal(y0, [0.5])
