"""Limiting control problem in the scalar two-weight configuration.

The optimal depth-weight path is characterized by lambda1 * theta -
lambda2 * theta'' = G(theta) with zero-derivative boundary conditions,
where G is an expectation over the augmented paths.  We estimate G by
Monte Carlo over paths of the particle simulation, invert the Neumann
operator with a tridiagonal solve, and iterate the damped fixed-point map
with frozen per-iteration seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, NoConvergence, NonPositiveWeight, ScalarConfigRequired
from .params import ControlGrid, InitialLaw, ModelParams, project_to_box, require_int, require_real
from .sde import euler_noise, simulate_augmented


@dataclass(frozen=True)
class GridFunction:
    """Node values of a vector function on the control grid, with MC errors."""

    values: np.ndarray     # (M+1, m)
    std_errors: np.ndarray  # (M+1, m)


@dataclass(frozen=True)
class FixedPointConfig:
    damping: float = 0.25
    mc_paths: int = 4096
    outer_iters: int = 60
    outer_tol: float = 1e-3
    n_intervals: int = 32

    def __post_init__(self):
        require_real("fixed_point.damping", self.damping, 0.0, error=NonPositiveWeight)
        if self.damping > 1.0:
            raise NonPositiveWeight(f"fixed_point.damping must lie in (0, 1], got {self.damping!r}")
        require_int("fixed_point.mc_paths", self.mc_paths, None)
        if self.mc_paths < 1:
            raise NonPositiveWeight(f"fixed_point.mc_paths must be >= 1, got {self.mc_paths!r}")
        require_int("fixed_point.outer_iters", self.outer_iters, 1)
        require_int("fixed_point.n_intervals", self.n_intervals, 1)
        require_real("fixed_point.outer_tol", self.outer_tol, 0.0)


def estimate_G(theta: ControlGrid, p: ModelParams, law: InitialLaw,
               n_paths: int, seed, *, draws=None, noise=None) -> GridFunction:
    """Monte Carlo estimate of the first-order-condition right-hand side.

    Per path and node t: -(beta) * exp(-X1(t)) (X2(T) - X2(t)) grad_theta f
    - (alpha) * exp(X1(t) - X1(T)) (X3(T) - Y) grad_theta f, averaged over
    paths, with per-node standard errors.  The alpha/beta scaling matches
    the sampled objective so the trainer and this solver target the same
    minimum (the bare characterization corresponds to alpha = 1).  `draws`
    and `noise` default to law.sample and euler_noise for paths 0..M-1 under
    seed.  Requires the scalar two-weight configuration.  G lives on the
    control's grid.
    """
    if draws is None:
        draws = law.sample(n_paths, seed)
    ens, X1, X2, dtheta_f = simulate_augmented(p, theta, draws, theta.n_intervals, seed, noise=noise)
    x3 = ens.X[:, :, 0]
    weight = (
        -p.beta * np.exp(-X1) * (X2[:, -1][:, None] - X2)
        - p.alpha * np.exp(X1[:, -1][:, None] - X1) * (x3[:, -1] - ens.y0[:, 0])[:, None]
    )
    integrand = weight[:, :, None] * dtheta_f    # (M, S+1, 2)
    values = np.mean(integrand, axis=0)
    if n_paths > 1:
        std_errors = np.std(integrand, axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        std_errors = np.zeros_like(values)
    return GridFunction(values=values, std_errors=std_errors)


def solve_tridiagonal(ab, rhs) -> np.ndarray:
    """Solve a tridiagonal system given in the (3, n) band layout of
    scipy.linalg.solve_banded((1, 1), ab, rhs): superdiagonal ab[0, 1:],
    diagonal ab[1], subdiagonal ab[2, :-1].  rhs is (n,) or (n, k).

    LAPACK dgtsv's arithmetic, so the result has solve_banded's bytes:
    elimination with partial pivoting, the fill-in of an interchange kept
    in dl, then back substitution, one right-hand-side column at a time.
    In Python floats this beats per-row numpy calls at these sizes.  Both
    library matrices are strictly diagonally dominant (check_band refuses a
    model whose band is not, in floating point), so no pivot is zero.
    """
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    n = len(d)
    rhs = np.asarray(rhs, dtype=float)
    fact = [0.0] * (n - 1)
    swap = [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact[i] = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact[i] * du[i]
            dl[i] = 0.0
        else:
            swap[i] = True
            fact[i] = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact[i] * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact[i] * dl[i]
            du[i] = temp
    cols = rhs.reshape(n, -1).T.tolist()
    for b in cols:
        for i in range(n - 1):
            if swap[i]:
                b[i], b[i + 1] = b[i + 1], b[i] - fact[i] * b[i + 1]
            else:
                b[i + 1] = b[i + 1] - fact[i] * b[i]
        b[n - 1] = b[n - 1] / d[n - 1]
        if n > 1:
            b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return np.array(cols).T.reshape(rhs.shape)   # column-major, as solve_banded returns it


def solve_neumann_bvp(G: GridFunction, p: ModelParams) -> ControlGrid:
    """Solve the model's lambda1 theta - lambda2 theta'' = G with theta'(0) =
    theta'(T) = 0 on the grid of [0, T] with one node per row of G.

    Central second differences with symmetric ghost nodes at the ends; the
    tridiagonal system is strictly diagonally dominant, since lambda1 > 0.
    The path is not clamped into the model's box.
    """
    grid = ControlGrid(p.T, G.values)
    return grid.with_values(solve_tridiagonal(_neumann_band(p, grid), G.values))


def _neumann_band(p: ModelParams, grid: ControlGrid) -> np.ndarray:
    """The band of solve_neumann_bvp's operator on grid, in solve_tridiagonal's layout."""
    h = np.float64(grid.dt)   # a square that rounds to zero divides to inf, for check_band to see
    r = p.lambda2 / (h * h)
    ab = np.zeros((3, grid.n_intervals + 1))
    ab[1, :] = p.lambda1 + 2.0 * r
    ab[0, 1:] = -r
    ab[2, :-1] = -r
    ab[0, 1] = -2.0 * r   # ghost closure at t=0
    ab[2, -2] = -2.0 * r  # ghost closure at t=T
    return ab


def check_band(band, p: ModelParams, grid: ControlGrid) -> np.ndarray:
    """Return band(p, grid), the tridiagonal matrix that a solver builds on
    grid from the model, after raising ConfigInvalid unless it is finite
    and, in floating point, strictly diagonally dominant, as
    solve_tridiagonal needs.  It is not finite when T is so small that the
    grid step (or its square) rounds to zero, or lambda1 or lambda2 so large
    that an entry overflows, and not dominant when lambda1 is lost in the
    rounding beside lambda2 / step^2."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ab = band(p, grid)
        off = np.zeros(ab.shape[1])
        off[:-1] += np.abs(ab[0, 1:])
        off[1:] += np.abs(ab[2, :-1])
        ok = np.isfinite(ab).all() and (ab[1] > off).all()
    if not ok:
        raise ConfigInvalid(f"T={p.T!r}, lambda1={p.lambda1!r} and lambda2={p.lambda2!r} on {grid.n_intervals} "
                            f"intervals give a {band.__name__.strip('_').replace('_', ' ')} that is not finite "
                            f"and strictly diagonally dominant")
    return ab


def neumann_derivatives(theta: ControlGrid):
    """One-sided second-order derivative magnitudes at both ends, per component."""
    v = theta.values
    h = theta.dt
    d0 = np.abs(-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    dT = np.abs(3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d0, dT


def fixed_point_solve(p: ModelParams, law: InitialLaw, cfg: FixedPointConfig, seed):
    """Damped fixed-point iteration theta <- (1-eta) theta + eta P[BVP(G(theta))]
    from the zero control.

    The map is deterministic: its law sample and noise are drawn once, from
    seed, for all iterations.  On convergence the
    returned path is the full (undamped) image of the last iterate, so it
    satisfies the discrete characterization up to the change tolerance and
    Monte Carlo noise.  Raises NoConvergence (carrying the change trace)
    otherwise, and ScalarConfigRequired, before it draws anything, unless p
    is the scalar two-weight configuration, and ConfigInvalid, as check_band
    says, when the Neumann band on its grid is not finite and dominant.
    """
    if not p.is_scalar_two_weight():
        raise ScalarConfigRequired("the limit problem requires the scalar two-weight configuration")
    theta = ControlGrid.zeros(p.T, cfg.n_intervals, m=p.dims.m)
    check_band(_neumann_band, p, theta)
    draws = law.sample(cfg.mc_paths, seed)
    noise = euler_noise(p, cfg.mc_paths, cfg.n_intervals, seed)
    trace = []
    for _ in range(cfg.outer_iters):
        G = estimate_G(theta, p, law, cfg.mc_paths, seed, draws=draws, noise=noise)
        cand = project_to_box(solve_neumann_bvp(G, p), p.k_theta)
        new_values = (1.0 - cfg.damping) * theta.values + cfg.damping * cand.values
        change = float(np.max(np.abs(new_values - theta.values)))
        trace.append(change)
        if change < cfg.outer_tol:
            return cand, trace
        theta = theta.with_values(new_values)
    raise NoConvergence(f"no convergence in {cfg.outer_iters} iterations", trace)

