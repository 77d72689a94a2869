"""The one-dimensional Wasserstein-2 distance, the generator of the state
dynamics, and the weak-form FPK residual of a simulated ensemble's
empirical measure, read node by node from a stream.

Test functions are time-free quadratics in the state and exogenous input
multiplied by a C^2 radial cutoff whose plateau is meant to cover the
simulated support, so that all derivatives are available in closed form,
the Hessian is constant on the plateau, and plateau-covered cases are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SizeMismatch
from .params import ModelParams, TypeVector, sum_last
from .sde import ParticleStream


# ---------------------------------------------------------------------------
# Wasserstein-2 distance
# ---------------------------------------------------------------------------

def wasserstein2_1d(a, b) -> float:
    """Quadratic Wasserstein distance between two equally weighted point
    clouds on the line.

    Quantile coupling (exact in one dimension): sort both supports and
    integrate squared quantile differences over the common mass axis.
    """
    a = np.sort(np.asarray(a, dtype=float).reshape(-1), kind="stable")
    b = np.sort(np.asarray(b, dtype=float).reshape(-1), kind="stable")
    cw_a = np.cumsum(np.full(a.size, 1.0 / a.size))
    cw_b = np.cumsum(np.full(b.size, 1.0 / b.size))
    cuts = np.sort(np.concatenate([cw_a, cw_b]))
    cuts[-1] = 1.0
    seg = np.diff(np.concatenate([[0.0], cuts]))
    mid = cuts - 0.5 * seg
    qa = a[np.minimum(np.searchsorted(cw_a, mid), a.size - 1)]
    qb = b[np.minimum(np.searchsorted(cw_b, mid), b.size - 1)]
    return float(math.sqrt(max(np.sum(seg * (qa - qb) ** 2), 0.0)))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def check_cutoff_radii(r_plateau, r_support, error):
    """Raise error unless 0 < r_plateau < r_support and r_support**2 -
    r_plateau**2, the scale of the cutoff's transition, is finite and
    positive.  The squares are products of Python floats, which overflow to
    inf where ** raises OverflowError, and tiny radii square to 0."""
    if not 0 < r_plateau < r_support:
        raise error(f"need 0 < r_plateau < r_support, got {r_plateau!r} and {r_support!r}")
    lo, hi = float(r_plateau), float(r_support)
    scale = hi * hi - lo * lo
    if not (math.isfinite(scale) and scale > 0.0):
        raise error(f"r_support**2 - r_plateau**2 must be finite and positive, got {scale!r} "
                    f"from the radii {r_plateau!r} and {r_support!r}")


@dataclass(frozen=True)
class TestFunction:
    """Quadratic-times-cutoff test function with closed-form derivatives.

    terms: tuple of (coeff, *axes), the axes indexing w = (x, z): (c,) is a
    constant, (c, i) the linear term c w_i and (c, i, j) the product c w_i w_j.
    The cutoff equals 1 where |(x,z)|^2 <= r_plateau^2 and 0 where it
    exceeds r_support^2, with a C^2 quintic transition in between.
    """

    terms: tuple
    d: int
    q: int
    r_plateau: float = 10.0
    r_support: float = 20.0

    def __post_init__(self):
        m = self.d + self.q
        for coeff, *axes in self.terms:
            if len(axes) > 2 or not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < m for i in axes):
                raise SizeMismatch(f"a term takes at most two integer axes in [0, {m}), got {(coeff, *axes)!r}")
        check_cutoff_radii(self.r_plateau, self.r_support, SizeMismatch)

    def _bump(self, w, second):
        """Value of the radial cutoff at the rows of w, the indices of the
        rows in its transition shell, and its gradient and, if second,
        Hessian at those rows (None if there are none; elsewhere both
        vanish).  The value is None when every row lies on the plateau,
        where the cutoff is 1; a NaN radius is not on it.  The cutoff is
        1 - S(u), S(u) = 6u^5 - 15u^4 + 10u^3, at u = (|w|^2 - r_plateau^2)
        / (r_support^2 - r_plateau^2); S'' is evaluated only if second."""
        r2 = sum_last(w * w)
        lo2 = self.r_plateau**2
        hi2 = self.r_support**2
        denom = hi2 - lo2
        u = (r2 - lo2) / denom
        if (u <= 0.0).all():
            return None, None, None, None
        b = np.where(u <= 0.0, 1.0, 0.0)
        shell = np.flatnonzero((u > 0.0) & (u < 1.0))
        if not shell.size:
            return b, shell, None, None
        us = u[shell]
        ws = w[shell]
        b[shell] = 1.0 - (6.0 * us**5 - 15.0 * us**4 + 10.0 * us**3)
        psi1 = -(30.0 * us**4 - 60.0 * us**3 + 30.0 * us**2)
        grad = psi1[:, None] * 2.0 * ws / denom
        if not second:
            return b, shell, grad, None
        psi2 = -(120.0 * us**3 - 180.0 * us**2 + 60.0 * us)
        hess = (psi2[:, None, None] * 4.0 * ws[:, :, None] * ws[:, None, :] / denom**2
                + psi1[:, None, None] * (2.0 / denom) * np.eye(w.shape[1])[None])
        return b, shell, grad, hess

    def derivs(self, w, *, second=True):
        """The derivative table the generator needs at the atoms w = (x, z)
        (N,d+q): val, dx (N,d), dz (N,q), dxx (N,d,d), dzz (N,q,q), dzx (N,q,d).

        The blocks are views of one coordinate-major (N,d+q) gradient and (N,d+q,d+q)
        Hessian, each coordinate contiguous; below 3 rows, where einsum's bytes
        depend on it (_diffusion_trace), the Hessian is row-major.  Without second
        no Hessian is allocated or filled, and the table has no dxx, dzz or dzx.
        On the cutoff's plateau the table is the quadratic's own, its Hessian the
        constant one broadcast over the rows.  Each term adds to the value, the
        gradient and the Hessian in term order."""
        rows, m = w.shape
        val = np.zeros(rows)
        g = np.zeros((m, rows)).T
        hess = np.zeros((m, m))
        for coeff, *axes in self.terms:
            if not axes:
                val += coeff
            elif len(axes) == 1:
                val += coeff * w[:, axes[0]]
                g[:, axes[0]] += coeff
            elif axes[0] == axes[1]:
                i = axes[0]
                val += coeff * w[:, i] ** 2
                g[:, i] += coeff * (2 * w[:, i])
                hess[i, i] += coeff * 2.0
            else:
                i, j = axes
                val += coeff * (w[:, i] * w[:, j])
                g[:, i] += coeff * w[:, j]
                g[:, j] += coeff * w[:, i]
                hess[i, j] += coeff
                hess[j, i] += coeff
        b, shell, bg, bh = self._bump(w, second)
        if b is None:
            h = np.broadcast_to(hess, (rows, m, m)) if second else None
        else:
            pval, pg = val, g
            val = pval * b
            g = pg * b[:, None]
            h = (hess[:, :, None] * b).transpose(2, 0, 1) if second else None
            if shell.size:
                pgs = pg[shell]
                g[shell] += pval[shell, None] * bg
                if second:
                    h[shell] = (h[shell]
                                + pgs[:, :, None] * bg[:, None, :]
                                + bg[:, :, None] * pgs[:, None, :]
                                + pval[shell, None, None] * bh)
        d = self.d
        table = {"val": val, "dx": g[:, :d], "dz": g[:, d:]}
        if second:
            h = h.copy() if h.shape[0] < 3 else h
            table.update(dxx=h[:, :d, :d], dzz=h[:, d:, d:], dzx=h[:, d:, :d])
        return table


# ---------------------------------------------------------------------------
# generator and FPK residual
# ---------------------------------------------------------------------------

# Most atoms in one derivative table of the residual (at least one node's):
# bounds its temporaries, one coordinate-major (rows, d+q, d+q) Hessian off
# the plateau being 1.6 MiB at d+q = 4.  At N = 6400 a block holds 2 nodes;
# a noisy and a quiet unit in series there took a median 212 ms, against
# 219 ms with blocks of 6400 rows and 225 ms with 24576 (15 rounds, 2 vCPUs).
_BLOCK_ROWS = 12800


def _diffusion_trace(subscripts, a, b, h):
    """np.einsum(subscripts, a, b, h) with its bytes on a row-major h, for the
    diffusion traces "ip,jp,nij->n" and "ip,jp,nji->n": the sum over i, j and
    p of a[i, p] b[j, p] h[:, i, j], h's first axis paired with a or b as the
    subscripts say.  From zero, the terms (a b) h are added one at a time in
    einsum's order, h's two axes in turn with p innermost, whatever h's
    layout, a constant broadcast over the rows included: numpy reduces a
    C-ordered (i, j, p, rows) table of them along its outer axis in order,
    in two calls where a loop would make two per term.
    Below 3 rows einsum groups the sum over p otherwise, and is called itself
    on the row-major h that derivs returns there."""
    if h.shape[0] < 3:
        return np.einsum(subscripts, a, b, h)
    if subscripts[9] != subscripts[0]:
        a, b = b, a
    ab = (a[:, None, :] * b[None, :, :])[..., None]
    terms = np.multiply(ab, h.transpose(1, 2, 0)[:, :, None, :], order="C")
    return np.add.reduce(terms.reshape(-1, h.shape[0]), axis=0, initial=0.0)


def _dot_rows(a, b):
    """np.einsum("nd,nd->n", a, b) with its bytes on row-major a and b; from 3 columns they depend on layout."""
    rows = (np.ascontiguousarray(a), np.ascontiguousarray(b)) if a.shape[1] > 2 else (a, b)
    return np.einsum("nd,nd->n", *rows)


def generator_apply_batch(dv: dict, f, phid, type_vector: TypeVector) -> np.ndarray:
    """Generator applied to a test function at each atom, vectorized:
    returns (N,).  dv is the function's derivative table at the atoms
    (TestFunction.derivs), and f (N, d) and phid (N, q) the drift and the
    exogenous drift there, as the Euler step evaluated them.  Every atom
    shares type_vector; without diffusion its second-order terms vanish and
    are skipped, and dv needs no Hessian.  The diffusion traces are sums of
    one small product per term (_diffusion_trace), which give the bytes of
    the three-operand einsums they stand for.

    Sum of the drift and exogenous-drift first-order terms and the
    diffusion second-order terms; the test function does not depend on
    time.  The mixed state/input term carries a unit coefficient: the two
    off-diagonal Hessian blocks of the joint diffusion are equal, and
    folding them into one trace leaves no factor one half (checked against
    the Ito expansion in the tests).
    """
    q = phid.shape[1]
    out = _dot_rows(f, dv["dx"])
    if q:
        out = out + _dot_rows(phid, dv["dz"])
    if not type_vector.diffuses:
        return out
    eps, sigma = type_vector.epsilon, type_vector.sigma
    if q:
        out = out + 0.5 * _diffusion_trace("kp,lp,nkl->n", sigma, sigma, dv["dzz"])
        out = out + _diffusion_trace("dp,qp,nqd->n", eps, sigma, dv["dzx"])
    out = out + 0.5 * _diffusion_trace("dp,ep,nde->n", eps, eps, dv["dxx"])
    return out


def fpk_residual(path: ParticleStream, phi: TestFunction, p: ModelParams):
    """Weak-form residual R(t) = <mu(t), phi> - <mu(0), phi> -
    trapezoid integral of <mu(s), A phi>, with mu(t) the uniformly
    weighted atoms of the streamed ensemble at node t and the generator A
    taken with the drifts that the stream's Euler step evaluated at each
    node; returns (sup |R|, R path, the states x_S (d, N) read at the last
    node, which the result owns).

    Each node is read once, in order: the atoms of up to _BLOCK_ROWS // N
    nodes form one node-major table w = (x, z), row k*N + i holding particle
    i at the block's node k, so each per-node mean runs along the last axis
    of a (nodes, N) array.  It is the transposed view of a (2(d+q), nodes,
    N) gather of the nodes' coordinate-major states and drifts, each
    coordinate contiguous, and only one block is held at a time.  Without
    diffusion no Hessian is built.  Takes one problem's stream; a batch, or
    a stream that ends early (one already read), raises DimensionMismatch."""
    theta = path.theta
    if theta.n_problems > 1:
        raise DimensionMismatch(f"fpk_residual takes the ensemble of one problem, got {theta.n_problems}")
    t_grid = theta.t_grid
    n_nodes = t_grid.size
    n = path.n_particles
    d = p.dims.d
    m = d + p.dims.q
    second = path.type_vector.diffuses
    per_block = max(1, _BLOCK_ROWS // n)
    mean_phi = np.empty(n_nodes)
    mean_gen = np.empty(n_nodes)
    nodes = iter(path.nodes)
    for k0 in range(0, n_nodes, per_block):
        block = slice(k0, min(k0 + per_block, n_nodes))
        nk = block.stop - k0
        w = np.empty((2 * m, nk, n))  # x, z, f, phi
        for j in range(nk):
            node = next(nodes, None)
            if node is None:
                raise DimensionMismatch(f"the stream ended after {k0 + j} of its {n_nodes} nodes")
            w[:d, j], w[d:m, j], w[m:m + d, j], w[m + d:, j] = node
        w = w.reshape(2 * m, nk * n).T
        dv = phi.derivs(w[:, :m], second=second)
        gen = generator_apply_batch(dv, w[:, m:m + d], w[:, m + d:], path.type_vector)
        mean_phi[block] = np.mean(dv["val"].reshape(nk, n), axis=-1)
        mean_gen[block] = np.mean(gen.reshape(nk, n), axis=-1)
    cumint = np.concatenate([[0.0], np.cumsum(0.5 * theta.dt * (mean_gen[1:] + mean_gen[:-1]))])
    residual = mean_phi - mean_phi[0] - cumint
    return float(np.max(np.abs(residual))), residual, w[-n:, :d].T.copy()
