import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfresnet import (
    ActivationSpec,
    ControlGrid,
    ModelParams,
    TestFunction,
    TypeVector,
    fpk_residual,
    simulate_particles,
    wasserstein2_1d,
)
from mfresnet import measures
from mfresnet.cli import (
    ExperimentConfig,
    _diagnose_unit,
    _nonoise_law,
    _reference_theta,
    _residual_test_function,
    default_law,
)
from mfresnet.errors import DimensionMismatch, SizeMismatch
from mfresnet.measures import generator_apply_batch
from mfresnet.rng import split_seed
from mfresnet.sde import stream_particles

from conftest import affine_controls, affine_exact_residual, dirac_law, node_drifts, streamed, wasserstein2_exact_small


# ---------------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------------

clouds = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-50, 50), min_size=n, max_size=n),
        st.lists(st.floats(-50, 50), min_size=n, max_size=n),
    )
)


@settings(max_examples=200, deadline=None)
@given(clouds)
def test_quantile_coupling_matches_exact_assignment(ab):
    a, b = ab
    fast = wasserstein2_1d(a, b)
    exact = wasserstein2_exact_small(a, b)
    assert abs(fast - exact) < 1e-9 * max(1.0, exact)


def test_w2_simple_translations():
    assert wasserstein2_1d([0.0, 1.0], [2.0, 3.0]) == pytest.approx(2.0)
    assert wasserstein2_1d([0.0], [5.0]) == pytest.approx(5.0)


def test_w2_atom_duplication_invariance():
    """Doubling every atom of a cloud leaves its empirical measure, and so
    its distance to any other cloud, unchanged."""
    b = np.array([0.3, 1.7, -2.0])
    base = wasserstein2_1d(np.array([0.0, 1.0]), b)
    doubled = wasserstein2_1d(np.array([0.0, 0.0, 1.0, 1.0]), b)
    assert doubled == pytest.approx(base, abs=1e-12)


def test_exact_small_rejects_large_or_mismatched():
    with pytest.raises(SizeMismatch):
        wasserstein2_exact_small(np.zeros(9), np.zeros(9))
    with pytest.raises(SizeMismatch):
        wasserstein2_exact_small(np.zeros(3), np.zeros(4))


def test_exact_small_multidimensional():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    # optimal pairing sends (1,0) to (1,0) and (0,0) to (0,1)
    assert wasserstein2_exact_small(a, b) == pytest.approx(math.sqrt(0.5))


triples = st.integers(2, 6).flatmap(
    lambda n: st.tuples(*(st.lists(st.floats(-20, 20), min_size=n, max_size=n)
                          for _ in range(3)))
)


@settings(max_examples=200, deadline=None)
@given(triples)
def test_w2_metric_axioms(abc):
    a, b, c = abc
    dab = wasserstein2_1d(a, b)
    dba = wasserstein2_1d(b, a)
    dac = wasserstein2_1d(a, c)
    dcb = wasserstein2_1d(c, b)
    assert dab == pytest.approx(dba, abs=1e-10)
    assert wasserstein2_1d(a, a) == pytest.approx(0.0, abs=1e-10)
    assert dab <= dac + dcb + 1e-9


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def coordinate_test_function(d, q, axes=(0,), r_plateau=10.0, r_support=20.0):
    """phi = the product of the coordinates w_i, i in axes, times the cutoff."""
    return TestFunction(terms=((1.0, *axes),), d=d, q=q,
                        r_plateau=r_plateau, r_support=r_support)


def constant_test_function(d, q, r_plateau=10.0, r_support=20.0):
    """phi = 1 on the plateau (all derivatives vanish there)."""
    return TestFunction(terms=((1.0,),), d=d, q=q,
                        r_plateau=r_plateau, r_support=r_support)


def _rich_phi():
    """A quadratic in (x, z) at d = q = 2 with x-x, z-z and x-z cross terms,
    squares, a linear term and a constant; plateau 2, support 5."""
    terms = (
        (1.0, 0, 0),
        (0.5, 0, 2),
        (-0.7, 0, 1),
        (0.3, 2, 3),
        (0.4, 3, 3),
        (-0.2, 1),
        (0.15,),
    )
    return TestFunction(terms=terms, d=2, q=2, r_plateau=2.0, r_support=5.0)


def test_test_function_degree_cap():
    """A term is a real coefficient, not a bool, and at most two axes, each an
    integer, not a bool, in [0, d+q); anything else is refused naming the term,
    -1 too, which numpy would index."""
    for term in ((1.0, 0, 0, 1), (1.0, 2), (1.0, -1), (1.0, 0.5), (1.0, True), (), ("a", 0), (True, 0)):
        with pytest.raises(SizeMismatch, match=re.escape(repr(term))):
            TestFunction(terms=(term,), d=1, q=1)


@pytest.mark.parametrize("params, law", [("scalar_params", "scalar_law"), ("coupled_params", "coupled_law")])
def test_diagnose_test_function_is_pinned(request, params, law):
    """diagnose-fpk's phi on the plateau is x0^2 + 0.5 x0, plus 0.5 x0 z0 when
    q > 0, added in that order, and its Hessian the constant with 2 at [0, 0]
    and 0.5 at [0, d] and [d, 0]."""
    p, law = request.getfixturevalue(params), request.getfixturevalue(law)
    d, m = p.dims.d, p.dims.d + p.dims.q
    w = np.random.default_rng(3).uniform(-1.0, 1.0, (5, m))
    dv = _residual_test_function(ExperimentConfig(model=p, initial_law=law)).derivs(w)
    x0 = w[:, 0]
    val = (np.zeros(5) + 1.0 * x0**2) + 0.5 * x0
    hess = np.zeros((m, m))
    hess[0, 0] = 2.0
    if m > d:
        val = val + 0.5 * (x0 * w[:, d])
        hess[0, d] = hess[d, 0] = 0.5
    assert dv["val"].tobytes() == val.tobytes()
    for key, rows, cols in (("dxx", slice(d), slice(d)), ("dzz", slice(d, m), slice(d, m)),
                            ("dzx", slice(d, m), slice(d))):
        assert np.array_equal(dv[key], np.broadcast_to(hess[rows, cols], dv[key].shape)), key


@pytest.mark.parametrize("r_plateau, r_support", [pytest.param(1e200, 2e200, id="1e+200"),
                                                   pytest.param(1e-320, 2e-320, id="1e-320"), (2.0, 1.0), (1.0, 1.0)])
def test_test_function_refuses_radii_whose_squares_overflow_or_vanish(r_plateau, r_support):
    """r_support**2 - r_plateau**2 is nan for huge radii (where ** raises
    OverflowError) and 0 for tiny ones (where the residual would be 0); a
    plateau that does not lie inside the support is refused as such."""
    match = "need 0 < r_plateau < r_support" if r_plateau >= r_support else None
    with pytest.raises(SizeMismatch, match=match):
        TestFunction(terms=((1.0, 0),), d=1, q=0,
                     r_plateau=r_plateau, r_support=r_support)


@pytest.mark.parametrize("point", [
    ([0.3, -0.2], [0.1, 0.5]),        # inside the plateau
    ([2.5, 1.0], [1.0, -1.5]),        # in the cutoff transition shell
])
def test_derivatives_match_finite_differences(point):
    phi = _rich_phi()
    x, z = point
    x = np.array([x]); z = np.array([z])
    dv = phi.derivs(np.concatenate([x, z], axis=1))
    h = 1e-5

    def val(xx, zz):
        return float(phi.derivs(np.concatenate([xx, zz], axis=1))["val"][0])

    for i in range(2):
        xp = x.copy(); xp[0, i] += h
        xm = x.copy(); xm[0, i] -= h
        assert dv["dx"][0, i] == pytest.approx((val(xp, z) - val(xm, z)) / (2 * h), abs=1e-6)
        assert dv["dxx"][0, i, i] == pytest.approx(
            (val(xp, z) + val(xm, z) - 2 * val(x, z)) / h**2, abs=1e-4)
    for k in range(2):
        zp = z.copy(); zp[0, k] += h
        zm = z.copy(); zm[0, k] -= h
        assert dv["dz"][0, k] == pytest.approx((val(x, zp) - val(x, zm)) / (2 * h), abs=1e-6)
        assert dv["dzz"][0, k, k] == pytest.approx(
            (val(x, zp) + val(x, zm) - 2 * val(x, z)) / h**2, abs=1e-4)
        for i in range(2):
            xpp = x.copy(); xpp[0, i] += h
            xmm = x.copy(); xmm[0, i] -= h
            cross = (val(xpp, zp) - val(xpp, zm) - val(xmm, zp) + val(xmm, zm)) / (4 * h * h)
            assert dv["dzx"][0, k, i] == pytest.approx(cross, abs=1e-4)
    # off-diagonal state Hessian via four-point stencil
    xa = x.copy(); xa[0, 0] += h; xa[0, 1] += h
    xb = x.copy(); xb[0, 0] += h; xb[0, 1] -= h
    xc = x.copy(); xc[0, 0] -= h; xc[0, 1] += h
    xd = x.copy(); xd[0, 0] -= h; xd[0, 1] -= h
    cross = (val(xa, z) - val(xb, z) - val(xc, z) + val(xd, z)) / (4 * h * h)
    assert dv["dxx"][0, 0, 1] == pytest.approx(cross, abs=1e-4)
    # off-diagonal input Hessian (the z0 z1 term) via the same stencil
    za = z.copy(); za[0, 0] += h; za[0, 1] += h
    zb = z.copy(); zb[0, 0] += h; zb[0, 1] -= h
    zc = z.copy(); zc[0, 0] -= h; zc[0, 1] += h
    zd = z.copy(); zd[0, 0] -= h; zd[0, 1] -= h
    cross = (val(x, za) - val(x, zb) - val(x, zc) + val(x, zd)) / (4 * h * h)
    assert dv["dzz"][0, 0, 1] == pytest.approx(cross, abs=1e-4)
    np.testing.assert_allclose(dv["dxx"], dv["dxx"].transpose(0, 2, 1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dv["dzz"], dv["dzz"].transpose(0, 2, 1), rtol=0, atol=1e-12)


def test_block_derivs_equal_per_node_tables():
    """A node-major block gives the bytes of one table per node, on the
    plateau, in the cutoff shell and beyond it."""
    phi = _rich_phi()   # plateau 2, support 5
    n_nodes, n = 3, 6
    rng = np.random.default_rng(3)
    w = rng.normal(size=(n_nodes * n, 4))
    radii = np.tile([0.5, 1.5, 2.5, 3.5, 4.5, 6.0], n_nodes)
    w *= (radii / np.linalg.norm(w, axis=1))[:, None]
    assert {"plateau", "shell", "beyond"} == {
        "plateau" if r <= 2.0 else "shell" if r < 5.0 else "beyond" for r in radii}
    block = phi.derivs(w)
    for k in range(n_nodes):
        rows = slice(k * n, (k + 1) * n)
        node = phi.derivs(w[rows])
        for key, table in node.items():
            assert block[key][rows].tobytes() == table.tobytes(), (k, key)


def test_block_derivs_are_coordinate_major(coupled_params, coupled_law, monkeypatch):
    """The tables of a joint block keep each coordinate contiguous: every
    column of dx and dz, on the plateau and across the cutoff, with and
    without a Hessian, every (i, j) entry of dxx, dzz and dzx across the
    cutoff, and every column of the atoms fpk_residual gathers.  On a block
    wholly on the plateau each Hessian entry is the constant broadcast over
    the rows.  Below 3 rows the Hessian blocks are views of one row-major
    table, the layout whose einsum bytes the diffusion traces keep there."""
    phi = _rich_phi()   # plateau 2, support 5
    gen = np.random.default_rng(4)
    across = gen.uniform(-3.0, 3.0, size=(21, 4))
    assert phi._bump(0.4 * across, False)[0] is None and phi._bump(across, False)[0] is not None
    for w in (across, 0.4 * across, np.asfortranarray(across)):
        on_plateau = phi._bump(w, False)[0] is None
        for second in (True, False):
            dv = phi.derivs(w, second=second)
            for key in ("dx", "dz", "dxx", "dzz", "dzx") if second else ("dx", "dz"):
                for entry in np.ndindex(dv[key].shape[1:]):
                    column = dv[key][(slice(None),) + entry]
                    if on_plateau and key not in ("dx", "dz"):
                        assert column.strides == (0,), (key, entry)
                    else:
                        assert column.flags.c_contiguous, (key, entry, second)
    for rows in (1, 2):
        dv = phi.derivs(across[:rows])
        for key in ("dxx", "dzz", "dzx"):
            assert dv[key].strides == (16 * 8, 4 * 8, 8), (rows, key)
    gathered = []
    derivs = TestFunction.derivs

    def recorded(self, w, **kw):
        gathered.append(w)
        return derivs(self, w, **kw)

    monkeypatch.setattr(TestFunction, "derivs", recorded)
    monkeypatch.setattr(measures, "_BLOCK_ROWS", 4096)  # 13 nodes of 300 rows per block
    p = coupled_params
    samples, types = coupled_law.sample(300, 4)
    fpk_residual(streamed(simulate_particles(p, ControlGrid.zeros(p.T, 20), samples, types, 20, 4), p), phi, p)
    assert len(gathered) == 2
    for w in gathered:
        for col in range(w.shape[1]):
            assert w[:, col].flags.c_contiguous, col


def test_plateau_block_gives_the_general_path_bytes(monkeypatch):
    """A block that lies all on the plateau takes the quadratic's own table,
    with the bytes of the general path forced through the cutoff; one atom
    in the shell, or a NaN radius, takes the general path."""
    phi = _rich_phi()   # plateau 2, support 5
    w = np.random.default_rng(8).uniform(-0.99, 0.99, size=(21, 4))
    assert phi._bump(w, True)[0] is None
    for off_plateau in (3.0, math.nan):
        w_off = w.copy()
        w_off[5, 1] = off_plateau
        assert phi._bump(w_off, True)[0] is not None
    fast = phi.derivs(w)
    monkeypatch.setattr(TestFunction, "_bump", lambda self, w, second: (
        np.ones(w.shape[0]), np.empty(0, dtype=np.intp), None, None))
    general = phi.derivs(w)
    assert fast.keys() == general.keys()
    for key, table in general.items():
        assert fast[key].tobytes() == table.tobytes(), key


def test_cutoff_support():
    phi = coordinate_test_function(1, 0, r_plateau=1.0, r_support=2.0)
    far = phi.derivs(np.array([[5.0]]))["val"]
    assert far[0] == 0.0
    near = phi.derivs(np.array([[0.5]]))["val"]
    assert near[0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_diffusion_trace_matches_einsum():
    """The generator's diffusion traces give np.einsum's bytes for every
    subscript, with h a strided view of a row-major Hessian and a contiguous
    copy; at 1 and 2 rows, where einsum groups the sum over p otherwise,
    einsum itself is called.  From 3 rows the coordinate-major view derivs
    returns gives the bytes of einsum on the row-major one.  From 3 rows a
    constant Hessian broadcast over the rows, as derivs returns on the
    plateau (below 3 rows it returns a row-major copy), gives the bytes of
    einsum on the row-major table of that constant."""
    rng = np.random.default_rng(15)

    def spread(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)

    for rows in (1, 2, 3, 7, 4096, 8193, 20000):
        for d in (1, 2, 3):
            for q in (1, 2, 3):
                h = spread(rows, d + q, d + q)
                h_cm = np.moveaxis(np.moveaxis(h, 0, -1).copy(), -1, 0)
                constant = np.broadcast_to(spread(d + q, d + q), h.shape)
                table = constant.copy()
                returned = constant if rows >= 3 else table
                for n_noise in (1, 2, 3):
                    eps, sigma = spread(d, n_noise), spread(q, n_noise)
                    for subscripts, a, b, block in (("kp,lp,nkl->n", sigma, sigma, np.s_[:, d:, d:]),
                                                    ("dp,qp,nqd->n", eps, sigma, np.s_[:, d:, :d]),
                                                    ("dp,ep,nde->n", eps, eps, np.s_[:, :d, :d])):
                        hab = h[block]
                        for view in (hab, np.ascontiguousarray(hab)):
                            expected = np.einsum(subscripts, a, b, view)
                            got = measures._diffusion_trace(subscripts, a, b, view)
                            assert got.tobytes() == expected.tobytes(), (subscripts, rows, d, q, n_noise)
                        if rows >= 3:
                            got = measures._diffusion_trace(subscripts, a, b, h_cm[block])
                            assert got.tobytes() == np.einsum(subscripts, a, b, hab).tobytes()
                        got = measures._diffusion_trace(subscripts, a, b, returned[block])
                        expected = np.einsum(subscripts, a, b, table[block])
                        assert got.tobytes() == expected.tobytes(), (subscripts, rows, d, q, n_noise)


def generator_apply(phi, e, theta_val, eta, p):
    """Generator at a single atom e = (type_vector, y, z, x)."""
    tv, _y, z, x = e
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    z = np.asarray(z, dtype=float).reshape(1, -1)
    dv = phi.derivs(np.concatenate([x, z], axis=1))
    f = p.activation.drift(np.asarray(theta_val, dtype=float), z, x, float(eta))
    out = generator_apply_batch(dv, f, p.phi_value(tv.gamma, z), tv)
    return float(out[0])


def test_generator_on_linear_function(scalar_params):
    """For phi = x on the plateau the generator is just the drift."""
    phi = coordinate_test_function(1, 0)
    tv = TypeVector(epsilon=np.array([[0.4]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    theta_val = np.array([0.7, -0.1])
    e = (tv, np.array([0.0]), np.zeros(0), np.array([0.8]))
    out = generator_apply(phi, e, theta_val, 0.0, scalar_params)
    assert out == pytest.approx(math.tanh(0.7 * 0.8 - 0.1))


def test_generator_second_order_terms(coupled_params):
    """phi = x0^2 on the plateau: A phi = 2 x0 f_0 + |eps row 0|^2."""
    p = coupled_params
    phi = coordinate_test_function(2, 2, axes=(0, 0))
    tv = TypeVector(epsilon=0.2 * np.ones((2, 2)), gamma=np.array([0.5, 1.0]),
                    sigma=0.1 * np.ones((2, 2)))
    x = np.array([0.6, -0.3])
    z = np.array([0.2, 0.1])
    theta_val = np.array([0.5, 0.2])
    eta = 0.25
    out = generator_apply(phi, (tv, np.zeros(2), z, x), theta_val, eta, p)
    f = p.activation.drift(theta_val, z[None], x[None], eta)[0]
    expected = 2.0 * x[0] * f[0] + float(np.sum(tv.epsilon[0] ** 2))
    assert out == pytest.approx(expected, rel=1e-12)


def test_generator_cross_term_matches_ito_expansion():
    """phi = x z with zero drifts isolates the mixed second-order term.  The
    one-step expectation of the product increment is eps sigma dt exactly
    (E[dW^2] = dt), so the generator value must be eps sigma with a unit
    coefficient."""
    from mfresnet import Dims, ModelParams

    p = ModelParams(activation=ActivationSpec(kind="zero"), rho="zero", phi="zero",
                    dims=Dims(d=1, q=1, p=1, m=2, l=1))
    eps, sig = 0.7, 0.4
    phi = TestFunction(terms=((1.0, 0, 1),), d=1, q=1,
                       r_plateau=10.0, r_support=20.0)
    tv = TypeVector(epsilon=np.array([[eps]]), gamma=np.array([0.0]),
                    sigma=np.array([[sig]]))
    out = generator_apply(phi, (tv, np.zeros(1), np.array([0.3]), np.array([0.5])),
                          np.zeros(2), 0.0, p)
    assert out == pytest.approx(eps * sig, rel=1e-12)
    # Monte Carlo confirmation of the Ito constant
    law = dirac_law(x0=[0.5], y0=[0.0], z0=[0.3], type_vector=tv)
    samples, types = law.sample(200000, 0)
    theta = ControlGrid.zeros(p.T, 1)
    ens = simulate_particles(p, theta, samples, types, 1, 12)
    inc = ens.X[:, 1, 0] * ens.Z[:, 1, 0] - ens.X[:, 0, 0] * ens.Z[:, 0, 0]
    dt = ens.theta.dt
    se = np.std(inc, ddof=1) / math.sqrt(inc.size)
    assert abs(np.mean(inc) - eps * sig * dt) < 4.0 * se


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

def test_residual_vanishes_for_constant_function(scalar_params, scalar_law):
    samples, types = scalar_law.sample(20, 1)
    theta = ControlGrid.zeros(scalar_params.T, 16)
    ens = simulate_particles(scalar_params, theta, samples, types, 16, 1)
    phi = constant_test_function(1, 0)
    sup, res, _ = fpk_residual(streamed(ens, scalar_params), phi, scalar_params)
    assert sup < 1e-14
    assert res.shape == (17,)


def test_residual_is_discretization_bias_without_noise(scalar_params, quiet_scalar_law):
    """With zero diffusion the residual is pure Euler and quadrature error and
    shrinks as the step count grows."""
    phi = coordinate_test_function(1, 0, axes=(0, 0), r_plateau=8.0, r_support=16.0)
    sups = []
    for n_steps in (16, 64, 256):
        samples, types = quiet_scalar_law.sample(50, 2)
        t = np.linspace(0.0, scalar_params.T, n_steps + 1)
        theta = ControlGrid(scalar_params.T, np.stack([0.5 * np.ones_like(t), 0.1 * np.ones_like(t)], axis=1))
        ens = simulate_particles(scalar_params, theta, samples, types, n_steps, 2)
        sup, _, _ = fpk_residual(streamed(ens, scalar_params), phi, scalar_params)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-3


def test_coupled_residual_bytes_are_pinned(coupled_params, coupled_law):
    """Byte pin for the d=2, q=2 residual path: the z blocks, the mixed
    state/input block and the cutoff shell all enter, which the scalar
    scripts/ config never reaches.  The digest was recorded from the earlier
    per-block derivative code, so the joint (x, z) calculus reproduces it."""
    p = coupled_params
    t = np.linspace(0.0, p.T, 21)
    theta = ControlGrid(p.T, np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1))
    samples, types = coupled_law.sample(200, 7)
    ens = simulate_particles(p, theta, samples, types, 20, 7)
    phi = TestFunction(terms=((1.0, 0, 0), (0.5, 0), (0.5, 0, 2), (0.5, 2, 3)),
                       d=2, q=2, r_plateau=1.0, r_support=2.0)
    _, res, _ = fpk_residual(streamed(ens, p), phi, p)
    assert hashlib.sha256(res.tobytes()).hexdigest() == (
        "228f89fa2e69b0c899c801b440aa73b758a796dcb8dfed8209f743dfddbdf0b7")


def _quadratic_phi(d, q, r_plateau, r_support):
    """A quadratic test function whose gradient and Hessian reach every
    coordinate of w = (x, z): a square per coordinate, a product of each
    neighbouring pair, one linear term and a constant."""
    m = d + q
    terms = [(0.1 * (j + 1), j, j) for j in range(m)]
    terms += [((-1) ** j * 0.2, j, j + 1) for j in range(m - 1)]
    terms += [(-0.3, m // 2), (0.25,)]
    return TestFunction(terms=tuple(terms), d=d, q=q, r_plateau=r_plateau, r_support=r_support)


def _pinned_model(d, q, n_steps):
    """The model, initial law and control of the residual byte pins: a
    sigmoid drift coupled to z (when q > 0) and to eta, two noise
    dimensions."""
    from mfresnet import Dims, InitialLaw, ModelParams

    p = ModelParams(activation=ActivationSpec(kind="sigmoid", z_weight=0.3 if q else 0.0, eta_weight=0.4),
                    rho="tanh_mean", phi="decay", dims=Dims(d=d, q=q, p=2, m=2, l=q))
    gen = np.random.default_rng(d * 10 + q)
    tv = TypeVector(epsilon=gen.uniform(0.05, 0.25, size=(d, 2)), gamma=gen.uniform(0.3, 1.2, size=q),
                    sigma=gen.uniform(0.05, 0.2, size=(q, 2)))
    law = InitialLaw.uniform(x_low=[-1.0] * d, x_high=[1.0] * d, y_low=[-1.0] * d, y_high=[1.0] * d,
                             z_low=[-0.5] * q, z_high=[0.5] * q, type_vector=tv)
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1))
    return p, law, theta


@pytest.mark.parametrize("d, q, r_plateau, r_support, digest", [
    (3, 2, 0.9, 1.4,
     "009f297e3f41218803ec692912d5c26e248dedead00e8ed0b459f08a120d471c"),
    (2, 3, 0.8, 1.3,
     "65857d9ff20fb720aafc278a1388f3ddd3f18947e265b191c5ef25234c4ada7d"),
    (5, 4, 1.2, 1.8,
     "60c473d6bcabc4779ddf703a65c7e7e42f1e6b0d310e908e93ef3a7ec947df4f"),
    (9, 0, 1.5, 2.1,
     "5e5a26ca06d8b1b3d44e1ae95dca7da42ca425adabdd139b4fe365b22e583484"),
])
def test_residual_bytes_are_pinned_across_dimensions(d, q, r_plateau, r_support, digest):
    """Byte pins for the residual where a sum over d, q or d+q has 3 or more
    entries, so that its grouping could depend on the layout of the tables:
    a sigmoid drift coupled to z (when q > 0) and to eta, two noise
    dimensions, atoms on the plateau, in the cutoff shell and beyond.  The
    digests were recorded from the general-polynomial test function that
    preceded the quadratic one."""
    p, law, theta = _pinned_model(d, q, 20)
    samples, types = law.sample(300, 5)
    ens = simulate_particles(p, theta, samples, types, 20, 5)
    r = np.linalg.norm(np.concatenate([ens.X, ens.Z], axis=2), axis=2)
    assert np.any(r <= r_plateau) and np.any((r > r_plateau) & (r < r_support)) and np.any(r >= r_support)
    _, res, _ = fpk_residual(streamed(ens, p), _quadratic_phi(d, q, r_plateau, r_support), p)
    assert hashlib.sha256(res.tobytes()).hexdigest() == digest


def _residual_per_node(path, phi, p):
    """The residual path from one derivative table per node."""
    t_grid = path.theta.t_grid
    mean_phi = np.empty(t_grid.size)
    mean_gen = np.empty(t_grid.size)
    for k in range(t_grid.size):
        xk, zk = path.X[:, k], path.Z[:, k]
        dv = phi.derivs(np.concatenate([xk, zk], axis=1))
        mean_phi[k] = np.mean(dv["val"])
        mean_gen[k] = np.mean(generator_apply_batch(dv, *node_drifts(path, p, k), path.type_vector))
    dt = t_grid[1] - t_grid[0]
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * dt * (mean_gen[1:] + mean_gen[:-1]))])
    return mean_phi - mean_phi[0] - cumint


def _assert_blocks_equal_per_node_loop(p, law, n, n_steps):
    """fpk_residual on a diffusing ensemble of n particles over n_steps steps,
    with atoms on the plateau, in the shell and beyond, gives the bytes of
    the per-node loop."""
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1))
    samples, types = law.sample(n, 4)
    ens = simulate_particles(p, theta, samples, types, n_steps, 4)
    phi = dataclasses.replace(_rich_phi(), r_plateau=0.8, r_support=1.6)
    r = np.linalg.norm(np.concatenate([ens.X, ens.Z], axis=2), axis=2)
    assert np.any(r <= 0.8) and np.any((r > 0.8) & (r < 1.6)) and np.any(r >= 1.6)
    sup, res, _ = fpk_residual(streamed(ens, p), phi, p)
    expected = _residual_per_node(ens, phi, p)
    assert res.tobytes() == expected.tobytes()
    assert sup == np.max(np.abs(expected))


def test_residual_blocks_equal_per_node_loop(coupled_params, coupled_law, monkeypatch):
    """The node blocks of fpk_residual, the last one partial, give the bytes
    of a per-node loop, with atoms on the plateau, in the shell and beyond."""
    monkeypatch.setattr(measures, "_BLOCK_ROWS", 4096)  # 13 nodes of 300 rows per block
    n, n_steps = 300, 20
    assert (n_steps + 1) % (measures._BLOCK_ROWS // n) != 0
    _assert_blocks_equal_per_node_loop(coupled_params, coupled_law, n, n_steps)


def test_residual_blocks_of_the_shipped_size_equal_per_node_loop(coupled_params, coupled_law):
    """At the shipped block size a block holds several nodes and the last
    one is partial, and the residual keeps the bytes of the per-node loop."""
    n, n_steps = 300, 100
    per_block = measures._BLOCK_ROWS // n
    assert 1 < per_block < n_steps + 1 and (n_steps + 1) % per_block != 0
    _assert_blocks_equal_per_node_loop(coupled_params, coupled_law, n, n_steps)


def test_residual_block_memory_is_bounded(coupled_params, coupled_law):
    """One residual call on an N = 6400, 100-step ensemble of the
    fpk-coupled-w2 model peaks at 2.64 MiB of allocations (tracemalloc,
    numpy 2.4) with blocks of 12800 rows, 2 nodes each, all on the plateau.
    A per-atom plateau Hessian took it to 5.97 MiB, and blocks of 24576 rows
    that evaluated the drifts again to 8.50 MiB.  The bound adds 25% to
    2.64 MiB; blocks of 65536 rows peaked at 28.3 MiB."""
    p = coupled_params
    cfg = ExperimentConfig(model=p, initial_law=coupled_law, phi_radius=12.0)
    samples, types = coupled_law.sample(6400, 2)
    ens = simulate_particles(p, _reference_theta(p, 100), samples, types, 100, 2)
    phi = _residual_test_function(cfg)
    tracemalloc.start()
    try:
        fpk_residual(streamed(ens, p), phi, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2.64 * 2**20, peak / 2**20


@pytest.mark.parametrize("d, q, r_plateau, r_support, n_steps, diffuses", [
    (3, 2, 0.9, 1.4, 20, True),
    (2, 3, 0.8, 1.3, 20, True),
    (5, 4, 1.2, 1.8, 20, True),
    (9, 0, 1.5, 2.1, 20, True),
    (2, 3, 0.8, 1.3, 100, True),    # shipped blocks of 42 nodes: 42 + 42 + 17
    (3, 2, 0.9, 1.4, 20, False),
])
def test_streamed_residual_gives_the_per_node_bytes(d, q, r_plateau, r_support, n_steps, diffuses):
    """fpk_residual fed straight from the Euler generator, no node stored,
    gives the bytes of the per-node loop over the stored ensemble of the
    same inputs: at the four (d, q) pairs of the byte pins, at the shipped
    block size with a partial last block, and on a type vector with no
    diffusion."""
    p, law, theta = _pinned_model(d, q, n_steps)
    samples, types = law.sample(300, 5)
    if not diffuses:
        types = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                           sigma=np.zeros_like(types.sigma))
    if n_steps == 100:
        per_block = measures._BLOCK_ROWS // 300
        assert 1 < per_block < n_steps + 1 and (n_steps + 1) % per_block != 0
    phi = _quadratic_phi(d, q, r_plateau, r_support)
    sup, res, _ = fpk_residual(stream_particles(p, theta, samples, types, n_steps, 5), phi, p)
    expected = _residual_per_node(simulate_particles(p, theta, samples, types, n_steps, 5), phi, p)
    assert res.tobytes() == expected.tobytes()
    assert sup == np.max(np.abs(expected))


@pytest.mark.parametrize("d, q", [(1, 0), (2, 2)])
@pytest.mark.parametrize("diffuses", [True, False])
def test_residual_returns_the_last_node_states(d, q, diffuses):
    """The states fpk_residual returns are those it read at the last node,
    (d, N), with the bytes of the stored ensemble's X[:, -1].T on the same
    inputs, after residual blocks of 42, 42 and 17 nodes, with and without
    diffusion; the array owns its data."""
    p, law, theta = _pinned_model(d, q, 100)
    samples, types = law.sample(300, 6)
    if not diffuses:
        types = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                           sigma=np.zeros_like(types.sigma))
    _, _, x_last = fpk_residual(stream_particles(p, theta, samples, types, 100, 6), _quadratic_phi(d, q, 0.9, 1.4), p)
    expected = simulate_particles(p, theta, samples, types, 100, 6).X[:, -1].T
    assert x_last.shape == expected.shape == (d, 300) and x_last.base is None
    assert x_last.tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("params, law", [("scalar_params", "scalar_law"), ("coupled_params", "coupled_law")])
def test_diagnose_unit_returns_the_first_row_of_the_last_node(request, params, law):
    """A diagnose-fpk unit returns its residual and the first coordinate of
    its ensemble's last node, with the bytes of the stored ensemble of the
    same inputs, in the noisy and the no-noise case."""
    p, law = request.getfixturevalue(params), request.getfixturevalue(law)
    cfg = ExperimentConfig(model=p, initial_law=law, n_steps=6, seed=9)
    for label in ("noisy", "nonoise"):
        sup, cloud = _diagnose_unit(cfg, label, 7, 1)
        run_seed = split_seed(cfg.seed, f"diag-{label}-7-1")
        samples, tv = (law if label == "noisy" else _nonoise_law(law)).sample(7, split_seed(run_seed, "data"))
        ens = simulate_particles(p, _reference_theta(p, 6), samples, tv, 6, run_seed)
        assert cloud.tobytes() == ens.X[:, -1, 0].tobytes(), label
        assert sup == fpk_residual(streamed(ens, p), _residual_test_function(cfg), p)[0], label


def _affine_residual_case(n_steps, quiet):
    """The affine model, diagnose-fpk's test function at d = 1, the smooth
    control of affine_controls on n_steps intervals and the default initial
    law, without diffusion when quiet."""
    p = ModelParams(activation=ActivationSpec(kind="affine"))
    law = _nonoise_law(default_law()) if quiet else default_law()
    theta = ControlGrid(p.T, affine_controls(n_steps)["smooth"])
    return p, _residual_test_function(ExperimentConfig(model=p)), theta, law


@pytest.mark.parametrize("quiet", [False, True])
def test_seed_mean_residual_is_the_exact_affine_residual(quiet):
    """On the affine drift the mean of fpk_residual's path over 20 seeds of
    N = 4000 particles on 50 steps lies within 6 standard errors of the exact
    expected path (affine_exact_residual) at every node after the first,
    where both are 0, with diffusion (eps = 0.3) and without.  The bound was
    set from 40 other sets of 20 seeds, measured before this one was fixed:
    their largest deviation over the nodes read 0.94 to 4.22 SE (median 2.0)
    with diffusion and 0.10 to 3.22 SE (median 1.3) without."""
    p, phi, theta, law = _affine_residual_case(50, quiet)
    paths = []
    for s in range(20):
        seed = split_seed(2028, f"affine-residual-{s}")
        samples, tv = law.sample(4000, split_seed(seed, "data"))
        paths.append(fpk_residual(stream_particles(p, theta, samples, tv, 50, seed), phi, p)[1])
    paths = np.array(paths)[:, 1:]
    se = np.std(paths, axis=0, ddof=1) / math.sqrt(20)
    deviation = np.abs(np.mean(paths, axis=0) - affine_exact_residual(theta, law)[1:]) / se
    assert np.max(deviation) <= 6.0, np.max(deviation)


def test_exact_affine_residual_has_an_o_dt_floor():
    """Without diffusion, from a point mass, fpk_residual's path is the exact
    one up to rounding, on 50 and 200 steps.  The exact sup, the floor that
    does not fall with N, is the O(dt) weak bias of the Euler step under the
    trapezoid rule: 0.03762 on 50 steps and 0.00935 on 200, a quarter."""
    floors = []
    for n_steps in (50, 200):
        p, phi, theta, law = _affine_residual_case(n_steps, False)
        point = dirac_law([0.8], [0.1], _nonoise_law(law).type_vector)
        samples, tv = point.sample(3, 1)
        _, res, _ = fpk_residual(stream_particles(p, theta, samples, tv, n_steps, 1), phi, p)
        assert np.allclose(res, affine_exact_residual(theta, point), rtol=0.0, atol=1e-14)
        floors.append(np.max(np.abs(affine_exact_residual(theta, law))))
    assert floors == pytest.approx([0.03762, 0.00935], abs=5e-6)
    assert floors[1] / floors[0] == pytest.approx(0.25, rel=0.01)


@pytest.mark.parametrize("noisy, measured_mib", [(True, 12.90), (False, 3.14)])
def test_diagnose_unit_memory_is_bounded(coupled_params, coupled_law, noisy, measured_mib):
    """One diagnose-fpk unit at N = 6400 over 100 steps of the fpk-coupled-w2
    model streams its Euler nodes into the residual, so it holds its noise
    table (10 MiB, drawn into place a block of particles at a time) and one
    residual block, never X and Z.  Its allocations peak at 12.90 MiB with
    noise and 3.14 MiB without (tracemalloc, numpy 2.4, the first unit in a
    process, residual blocks of 12800 rows).  A per-atom plateau Hessian
    took them to 16.23 and 3.34 MiB, blocks of 24576 rows that evaluated the
    drifts again to 18.86 and 4.41 MiB, storing the paths first to 31.74 and
    23.84 MiB, and a noise table transposed from a particle-major copy to
    21.04 MiB with noise.  The bound adds 25%."""
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law, n_steps=100, phi_radius=12.0)
    tracemalloc.start()
    try:
        _diagnose_unit(cfg, "noisy" if noisy else "nonoise", 6400, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * measured_mib * 2**20, peak / 2**20


def test_residual_without_diffusion_equals_full_generator(coupled_params, coupled_law, monkeypatch):
    """On an ensemble whose type vector has no diffusion, fpk_residual skips
    the generator's second-order terms and still gives the bytes of the
    per-node loop, made to evaluate them."""
    p = coupled_params
    n_steps = 20
    t = np.linspace(0.0, p.T, n_steps + 1)
    theta = ControlGrid(p.T, np.stack([0.6 * np.cos(np.pi * t), 0.3 * np.sin(np.pi * t) - 0.2], axis=1))
    samples, types = coupled_law.sample(300, 4)
    quiet = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                       sigma=np.zeros_like(types.sigma))
    ens = simulate_particles(p, theta, samples, quiet, n_steps, 4)
    phi = dataclasses.replace(_rich_phi(), r_plateau=0.8, r_support=1.6)
    sup, res, _ = fpk_residual(streamed(ens, p), phi, p)
    monkeypatch.setattr(TypeVector, "diffuses", property(lambda tv: True))
    expected = _residual_per_node(ens, phi, p)
    assert res.tobytes() == expected.tobytes()
    assert sup == np.max(np.abs(expected))


def test_residual_without_diffusion_builds_no_hessian(coupled_params, coupled_law, monkeypatch):
    """Without diffusion the generator reads no second derivative, and
    fpk_residual neither allocates nor fills a Hessian, of the quadratic or
    of the cutoff: its tables have no Hessian key.  With diffusion it builds
    both; on a block wholly on the plateau the Hessian is the quadratic's
    constant one broadcast over the rows, not a filled (rows, m, m) table."""
    p = coupled_params
    theta = ControlGrid.zeros(p.T, 10)
    samples, types = coupled_law.sample(300, 4)
    quiet = TypeVector(epsilon=np.zeros_like(types.epsilon), gamma=types.gamma,
                       sigma=np.zeros_like(types.sigma))
    tables, hessians = [], []
    derivs, bump = TestFunction.derivs, TestFunction._bump

    def recorded_derivs(self, w, **kw):
        tables.append(derivs(self, w, **kw))
        return tables[-1]

    def recorded_bump(self, *args):
        out = bump(self, *args)
        hessians.append(out[3])
        return out

    monkeypatch.setattr(TestFunction, "derivs", recorded_derivs)
    monkeypatch.setattr(TestFunction, "_bump", recorded_bump)
    shell = dataclasses.replace(_rich_phi(), r_plateau=0.8, r_support=1.6)
    plateau = dataclasses.replace(_rich_phi(), r_plateau=50.0, r_support=100.0)
    constant = np.array([[2.0, -0.7, 0.5, 0.0], [-0.7, 0.0, 0.0, 0.0],
                         [0.5, 0.0, 0.0, 0.3], [0.0, 0.0, 0.3, 0.8]])   # _rich_phi's Hessian
    for phi, type_vector, builds in ((shell, quiet, False), (shell, types, True), (plateau, types, True)):
        tables.clear()
        hessians.clear()
        fpk_residual(streamed(simulate_particles(p, theta, samples, type_vector, 10, 4), p), phi, p)
        # one block: one table and one _bump, whose shell holds atoms unless on the plateau
        assert len(tables) == 1 and ({"dxx", "dzz", "dzx"} <= tables[0].keys()) == builds
        assert [h is not None for h in hessians] == [builds and phi is shell]
    for key, block in (("dxx", np.s_[:2, :2]), ("dzz", np.s_[2:, 2:]), ("dzx", np.s_[2:, :2])):
        assert tables[0][key].strides[0] == 0 and np.array_equal(tables[0][key][0], constant[block]), key


def test_residual_refuses_a_stream_that_ends_early(coupled_params, coupled_law):
    """A stream is read once: a second residual on it finds no nodes and
    ends as DimensionMismatch, as does a stream that stops one node short."""
    p = coupled_params
    samples, types = coupled_law.sample(40, 3)
    theta = ControlGrid.zeros(p.T, 10)
    stream = stream_particles(p, theta, samples, types, 10, 3)
    fpk_residual(stream, _rich_phi(), p)
    with pytest.raises(DimensionMismatch, match="after 0 of its 11 nodes"):
        fpk_residual(stream, _rich_phi(), p)
    short = streamed(simulate_particles(p, theta, samples, types, 10, 3), p)
    short = dataclasses.replace(short, nodes=itertools.islice(short.nodes, 10))
    with pytest.raises(DimensionMismatch, match="after 10 of its 11 nodes"):
        fpk_residual(short, _rich_phi(), p)


def test_residual_refuses_a_batched_ensemble(coupled_params, coupled_law):
    """fpk_residual takes the ensemble of one problem: a batch of two ends as
    DimensionMismatch, not as a numpy broadcasting error."""
    p = coupled_params
    samples, types = coupled_law.sample(40, 3)
    theta = ControlGrid.zeros(p.T, 10)
    batch = theta.with_values(np.zeros((2,) + theta.values.shape))
    ens = simulate_particles(p, batch, samples, types, 10, [3, 4])
    assert (ens.theta.n_problems, ens.n_particles) == (2, 20)
    with pytest.raises(DimensionMismatch):
        fpk_residual(streamed(ens, p), _rich_phi(), p)
