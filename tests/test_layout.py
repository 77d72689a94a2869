"""Ensembles are stored node-major and, within a node, coordinate-major.
Every consumer of an ensemble gives the bytes it gives on the same
trajectories stored row-major, and every node of a trajectory and of the
Euler noise is one contiguous (coordinates, rows) slab."""
import dataclasses

import numpy as np
import pytest

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    Dims,
    InitialLaw,
    ModelParams,
    SampleBatch,
    TestFunction,
    TypeVector,
    estimate_G,
    evaluate_JN,
    evaluate_Jd,
    fpk_residual,
    objective,
    sde,
    simulate_particles,
)
from mfresnet.cli import _trajectory_lines
from mfresnet.errors import DimensionMismatch
from mfresnet.rng import noise_table
from mfresnet.sde import euler_noise
from mfresnet.trainer import _adjoint_gradient

from conftest import streamed

N_STEPS = 10


def _row_major(ens):
    return dataclasses.replace(ens, X=np.ascontiguousarray(ens.X), Z=np.ascontiguousarray(ens.Z))


def _case(d, q, diffuses):
    """A model with batch coupling (and input coupling at q > 0), except at
    d = 1, q = 0, where it is the scalar two-weight configuration."""
    coupled = (d, q) != (1, 0)
    p = ModelParams(activation=ActivationSpec(kind="tanh", z_weight=0.3 if q else 0.0,
                                              eta_weight=0.4 if coupled else 0.0),
                    rho="tanh_mean", phi="decay", alpha=1.2, beta=0.7, lambda1=0.2, lambda2=0.15,
                    T=1.0, dims=Dims(d=d, q=q, p=2, m=2, l=q), K=10.0, k_theta=5.0)
    scale = 0.3 if diffuses else 0.0
    tv = TypeVector(epsilon=scale * np.linspace(0.5, 1.0, 2 * d).reshape(d, 2), gamma=np.linspace(0.5, 1.0, q),
                    sigma=scale * np.linspace(-1.0, 0.5, 2 * q).reshape(q, 2))
    law = InitialLaw.uniform(x_low=[-1.0] * d, x_high=[1.0] * d, y_low=[-0.5] * d, y_high=[0.5] * d,
                             z_low=[-0.5] * q, z_high=[0.5] * q, type_vector=tv)
    values = np.random.default_rng(10 * d + q).uniform(-1.0, 1.0, size=(2, N_STEPS + 1, 2))
    return p, law, values


def _assert_node_slabs(ens):
    for k in range(ens.theta.n_intervals + 1):
        assert ens.X[:, k].T.flags.c_contiguous and ens.Z[:, k].T.flags.c_contiguous, k


@pytest.mark.parametrize("diffuses", [True, False])
@pytest.mark.parametrize("q", [0, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_consumers_give_the_bytes_of_a_row_major_ensemble(d, q, diffuses, monkeypatch):
    p, law, values = _case(d, q, diffuses)
    samples = SampleBatch.stack([law.sample(12, s)[0] for s in (5, 6)])
    ens = simulate_particles(p, ControlGrid(p.T, values), samples, law.type_vector, N_STEPS, [5, 6])
    rows = _row_major(ens)
    _assert_node_slabs(ens)
    _assert_node_slabs(ens.problems([1]))
    for noise in (euler_noise(p, 12, N_STEPS, 5), euler_noise(p, 12, N_STEPS, [5, 6])):
        assert all(noise[k].flags.c_contiguous for k in range(N_STEPS))

    def costs(e):
        return np.array([dataclasses.astuple(bd) for bd in evaluate_JN(e, p)]).tobytes()

    assert costs(ens) == costs(rows)
    assert _adjoint_gradient(ens, p).tobytes() == _adjoint_gradient(rows, p).tobytes()
    sub = ens.problems([1])
    assert _adjoint_gradient(sub, p).tobytes() == _adjoint_gradient(_row_major(sub), p).tobytes()
    assert "".join(_trajectory_lines(sub)) == "".join(_trajectory_lines(_row_major(sub)))

    one = simulate_particles(p, ControlGrid(p.T, values[0]), law.sample(30, 7)[0], law.type_vector, N_STEPS, 7)
    cross = (0, d) if q else tuple(range(d))
    phi = TestFunction(terms=((1.0, 0, 0), (0.5, *cross)),
                       d=d, q=q, r_plateau=0.8, r_support=1.6)
    sup, res, _ = fpk_residual(streamed(one, p), phi, p)
    sup_rows, res_rows, _ = fpk_residual(streamed(_row_major(one), p), phi, p)
    assert sup == sup_rows and res.tobytes() == res_rows.tobytes()

    theta = ControlGrid(p.T, values[0])
    node_major_Jd = evaluate_Jd(theta, p, law, 30, 7)
    node_major_G = estimate_G(theta, p, law, 30, 7) if p.is_scalar_two_weight() else None
    simulate = sde.simulate_particles
    monkeypatch.setattr(objective, "simulate_particles", lambda *a, **kw: _row_major(simulate(*a, **kw)))
    monkeypatch.setattr(sde, "simulate_particles", lambda *a, **kw: _row_major(simulate(*a, **kw)))
    assert np.array(evaluate_Jd(theta, p, law, 30, 7)).tobytes() == np.array(node_major_Jd).tobytes()
    if node_major_G is not None:
        G = estimate_G(theta, p, law, 30, 7)
        assert G.values.tobytes() == node_major_G.values.tobytes()
        assert G.std_errors.tobytes() == node_major_G.std_errors.tobytes()


def test_noise_of_another_shape_is_refused():
    """A row-major noise_table (rows, n_steps, p) is not read as node-major noise."""
    p, law, values = _case(2, 2, True)
    samples = law.sample(12, 5)[0]
    theta = ControlGrid(p.T, values[0])
    table = noise_table(5, np.arange(12), N_STEPS, theta.dt, p.dims.p)
    with pytest.raises(DimensionMismatch, match="node-major"):
        simulate_particles(p, theta, samples, law.type_vector, N_STEPS, 5, noise=table)
    ens = simulate_particles(p, theta, samples, law.type_vector, N_STEPS, 5, noise=table.transpose(1, 2, 0))
    assert ens.X.tobytes() == simulate_particles(p, theta, samples, law.type_vector, N_STEPS, 5).X.tobytes()


def test_seeds_of_another_count_are_refused():
    """One control is one problem: two seeds for it end as DimensionMismatch."""
    p, law, values = _case(2, 2, True)
    samples = law.sample(6, 5)[0]
    with pytest.raises(DimensionMismatch, match="1 problems need one seed each"):
        simulate_particles(p, ControlGrid(p.T, values[0]), samples, law.type_vector, N_STEPS, [1, 2])
