"""Domain types: dimensions, activations, control paths, model parameters.

Everything here is immutable after validation and safe to share read-only
across threads.  The drift family implemented by :class:`ActivationSpec` is

    f_r(theta, z, x, eta) = g(theta_1 * x_r + theta_2 + w_z * mean(z) + w_eta * eta)

applied coordinatewise, with g a bounded-derivative scalar nonlinearity.
The scalar case (d=1, q=0, w_z = w_eta = 0) is the configuration in which
the limiting control problem has a closed characterization (see fpk.py).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import BoundViolation, ConfigInvalid, DimensionMismatch, NonPositiveWeight
from .rng import make_generator

_ACTIVATION_KINDS = ("tanh", "sigmoid", "gaussian", "zero", "constant", "affine")
_RHO_KINDS = ("tanh_mean", "mean", "zero")
_PHI_KINDS = ("decay", "zero")


def sum_last(a):
    """np.sum(a, axis=-1) with its bytes on a row-major a.  Below 8 entries
    numpy adds the entries in order, so a short axis is summed column by
    column, without the reduction's per-call cost; from 8 on numpy's
    pairwise sum differs from that (and a column-major np.sum adds in
    order), so np.sum sums a C-ordered a.  At one entry the result is a view."""
    n = a.shape[-1]
    if not 0 < n < 8:
        return np.sum(np.ascontiguousarray(a), axis=-1)
    out = a[..., 0]
    for j in range(1, n):
        out = out + a[..., j]
    return out


def require_int(name, value, low, high=sys.maxsize):
    """Raise ConfigInvalid unless value is an integer, not a bool, in [low, high], a bound that
    is None being absent; high defaults to numpy's largest size (never converts value)."""
    if (isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low)
            or (high is not None and value > high)):
        raise ConfigInvalid(f"{name} must be an integer{'' if low is None else f' >= {low}'}"
                            f"{'' if high is None else f' <= {high}'}, got {value!r}")


def require_real(name, value, low=-math.inf, high=math.inf, error=ConfigInvalid):
    """Raise ConfigInvalid unless value is a real, not a bool, and error unless
    it is finite and in the open interval (low, high) (never converts it); an
    int too large for a float is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigInvalid(f"{name} must be a real, got {value!r}")
    if not (abs(value) <= sys.float_info.max and low < value < high):
        raise error(f"{name} must be a finite real in ({low}, {high}), got {value!r}")


@dataclass(frozen=True)
class Dims:
    """State dimensions: d state, q exogenous input, p noise, m control, l decay parameters."""

    d: int = 1
    q: int = 0
    p: int = 1
    m: int = 2
    l: int = 0

    def __post_init__(self):
        for name, low in (("d", 1), ("q", 0), ("p", 1), ("m", 1), ("l", 0)):
            require_int(f"dims.{name}", getattr(self, name), None)
            if getattr(self, name) < low:
                raise DimensionMismatch(f"dims.{name} must be >= {low}")
        if self.q > 0 and self.l not in (1, self.q):
            raise DimensionMismatch("decay parameter length l must be 1 or q")


@dataclass(frozen=True)
class TypeVector:
    """Per-sample noise parameters (state diffusion, decay rate, input diffusion)."""

    epsilon: np.ndarray  # (d, p)
    gamma: np.ndarray    # (l,)
    sigma: np.ndarray    # (q, p)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", np.atleast_2d(np.asarray(self.epsilon, dtype=float)))
        object.__setattr__(self, "gamma", np.atleast_1d(np.asarray(self.gamma, dtype=float)))
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim < 2:
            sig = sig.reshape((-1, 1))
        object.__setattr__(self, "sigma", sig)

    @property
    def diffuses(self):
        """Whether any Brownian increment moves a path (epsilon or sigma nonzero)."""
        return bool(self.epsilon.any() or self.sigma.any())

    def norm(self):
        return math.sqrt(
            float(np.sum(self.epsilon ** 2) + np.sum(self.gamma ** 2) + np.sum(self.sigma ** 2))
        )


@dataclass(frozen=True)
class SampleBatch:
    """N (input, label, exogenous-input) triples, one row per sample."""

    x0: np.ndarray  # (N, d)
    y0: np.ndarray  # (N, d)
    z0: np.ndarray  # (N, q)

    def __len__(self):
        return self.x0.shape[0]

    @classmethod
    def stack(cls, batches):
        """The samples of several problems as one batch, one row block each."""
        return cls(*(np.concatenate(block) for block in zip(*((s.x0, s.y0, s.z0) for s in batches))))


@dataclass(frozen=True)
class ActivationSpec:
    """Scalar nonlinearity plus wiring coefficients for the drift family."""

    kind: str = "tanh"
    c: float = 0.0           # value for kind="constant"
    z_weight: float = 0.0    # coupling of mean(z) into the pre-activation
    eta_weight: float = 0.0  # coupling of the batch statistic into the pre-activation

    def __post_init__(self):
        if self.kind not in _ACTIVATION_KINDS:
            raise DimensionMismatch(f"unknown activation kind {self.kind!r}")
        for name in ("c", "z_weight", "eta_weight"):
            require_real(f"activation.{name}", getattr(self, name))

    # -- scalar nonlinearity ------------------------------------------------
    def _g(self, u):
        if self.kind == "tanh":
            return np.tanh(u)
        if self.kind == "sigmoid":
            with np.errstate(over="ignore"):   # exp(-u) is inf below u ~ -709, and g then 0
                return 1.0 / (1.0 + np.exp(-u))
        if self.kind == "gaussian":
            with np.errstate(over="ignore"):   # u * u is inf above |u| ~ 1.3e154, and g then 0
                return np.exp(-u * u)
        return u

    def _g_prime(self, u):
        g = self._g(u)
        if self.kind == "tanh":
            return 1.0 - g * g
        if self.kind == "sigmoid":
            return g * (1.0 - g)
        if self.kind == "gaussian":
            return -2.0 * u * g
        return np.ones_like(u)

    def _preactivation(self, theta, z, x, eta):
        # x: (..., d); z: (..., q) or None; theta[j] and eta broadcast against x
        u = theta[0] * x + theta[1]
        if self.z_weight != 0.0 and z is not None and z.shape[-1] > 0:
            u = u + self.z_weight * (sum_last(z) / z.shape[-1])[..., None]
        if self.eta_weight != 0.0:
            u = u + self.eta_weight * eta
        return u

    # -- drift and partials, vectorized over particles ----------------------
    def drift(self, theta, z, x, eta):
        """f(theta, z, x, eta) for a batch: x (..., d) -> (..., d).  The
        weights theta[j] and eta are scalars or broadcast against x, e.g.
        (B, 1, 1) for B problems of N particles each, x (B, N, d)."""
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.c)
        return self._g(self._preactivation(theta, z, x, eta))

    def drift_partials(self, theta, z, x, eta):
        """Return (df_dx_diag, df_dtheta, df_deta).

        df_dx_diag: (..., d) diagonal of the state Jacobian (cross terms vanish);
        df_dtheta: (..., d, m) for the m weights theta[0..m-1]; df_deta: (..., d).
        """
        if self.kind in ("zero", "constant"):
            zeros = np.zeros_like(x)
            return zeros, np.zeros(x.shape + (len(theta),)), zeros
        gp = self._g_prime(self._preactivation(theta, z, x, eta))
        dtheta = np.stack([gp * x, gp], axis=-1)
        return gp * theta[0], dtheta, gp * self.eta_weight


@dataclass(frozen=True)
class ControlGrid:
    """Piecewise-linear weight path by its values at the nodes of the uniform
    grid of [0, horizon], one row per node (the box is the model's); or a batch
    of B such paths on one grid, one per independent problem.  values of any
    other rank, or with fewer than two nodes, is a DimensionMismatch."""

    horizon: float
    values: np.ndarray   # (M+1, m), or (B, M+1, m) for a batch

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (2, 3) or v.shape[-2] < 2:
            raise DimensionMismatch("values must be (M+1, m) or (B, M+1, m), one row per grid node, M >= 1")
        object.__setattr__(self, "values", v)

    @cached_property
    def t_grid(self):
        return np.linspace(0.0, self.horizon, self.values.shape[-2])

    @property
    def dt(self):
        return float(self.t_grid[1] - self.t_grid[0])

    @property
    def m(self):
        return self.values.shape[-1]

    @property
    def n_problems(self):
        """B for a batch of B paths, 1 for a single path."""
        return self.values.shape[0] if self.values.ndim == 3 else 1

    @property
    def n_intervals(self):
        return self.values.shape[-2] - 1

    def with_values(self, values):
        return replace(self, values=values)

    @classmethod
    def zeros(cls, horizon, n_intervals, m=2):
        return cls(horizon, np.zeros((n_intervals + 1, m)))


def project_to_box(c: ControlGrid, k_theta: float) -> ControlGrid:
    """Coordinatewise clamp of the weight path into the model's box
    [-k_theta, k_theta]; c itself when it already lies there."""
    clipped = np.clip(c.values, -k_theta, k_theta)
    if np.array_equal(clipped, c.values):
        return c
    return c.with_values(clipped)


def control_h1_norms(c: ControlGrid):
    """(trapezoid of |theta|^2, exact integral of |theta'|^2 for the
    piecewise-linear representative); one value per path of a batch."""
    sq = np.sum(c.values ** 2, axis=-1)
    l2_sq = np.trapezoid(sq, c.t_grid, axis=-1)
    dv = np.diff(c.values, axis=-2)
    h1_semi_sq = np.sum(dv ** 2, axis=(-2, -1)) / c.dt
    return l2_sq, h1_semi_sq


@dataclass(frozen=True)
class ModelParams:
    """Full model specification: drift family, batch/decay functions, cost weights."""

    activation: ActivationSpec = field(default_factory=ActivationSpec)
    rho: str = "tanh_mean"
    phi: str = "decay"
    alpha: float = 1.0
    beta: float = 1.0
    lambda1: float = 0.1
    lambda2: float = 0.1
    T: float = 1.0
    dims: Dims = field(default_factory=Dims)
    K: float = 10.0        # compact support bound for samples and type vectors
    k_theta: float = 5.0   # half-width of the control box

    def __post_init__(self):
        """Check positivity of weights and bounds, and the wiring against the dims."""
        if self.rho not in _RHO_KINDS:
            raise DimensionMismatch(f"unknown batch function {self.rho!r}")
        if self.phi not in _PHI_KINDS:
            raise DimensionMismatch(f"unknown exogenous drift {self.phi!r}")
        for name in ("alpha", "beta", "lambda1", "lambda2", "T"):
            require_real(name, getattr(self, name), 0.0, error=NonPositiveWeight)
        for name in ("K", "k_theta"):
            require_real(name, getattr(self, name), 0.0, error=BoundViolation)
        if self.activation.kind not in ("zero", "constant") and self.dims.m != 2:
            raise DimensionMismatch("the scalar-nonlinearity drift family uses m=2 control weights")
        if self.activation.z_weight != 0.0 and self.dims.q == 0:
            raise DimensionMismatch("z_weight wiring requires q >= 1")

    # -- batch function rho and its gradient --------------------------------
    def rho_value(self, x):
        """rho applied rowwise: x (N,d) -> (N,)."""
        if self.rho == "zero":
            return np.zeros(x.shape[0])
        if self.rho == "mean":
            return sum_last(x) / x.shape[1]
        return sum_last(np.tanh(x)) / x.shape[1]

    def rho_grad(self, x):
        """Gradient of rho rowwise: (..., d)."""
        d = x.shape[-1]
        if self.rho == "zero":
            return np.zeros_like(x)
        if self.rho == "mean":
            return np.full_like(x, 1.0 / d)
        t = np.tanh(x)
        return (1.0 - t * t) / d

    # -- exogenous drift phi(gamma, z) ---------------------------------------
    def phi_value(self, gamma, z):
        """phi rowwise: gamma (l,), z (N,q) -> (N,q)."""
        if self.phi == "zero" or z.shape[1] == 0:
            return np.zeros_like(z)
        return -gamma * z

    def is_scalar_two_weight(self):
        """Scalar state, two control weights, no exogenous input, no batch coupling."""
        a = self.activation
        return (
            self.dims.d == 1
            and self.dims.m == 2
            and self.dims.q == 0
            and a.kind in ("tanh", "sigmoid", "gaussian", "zero", "affine")
            and a.z_weight == 0.0
            and a.eta_weight == 0.0
        )


def check_type(p: ModelParams, t: TypeVector) -> TypeVector:
    if t.epsilon.shape != (p.dims.d, p.dims.p):
        raise DimensionMismatch("epsilon must be (d, p)")
    if t.sigma.shape != (p.dims.q, p.dims.p) and not (p.dims.q == 0 and t.sigma.size == 0):
        raise DimensionMismatch("sigma must be (q, p)")
    if t.gamma.shape != (p.dims.l,):
        raise DimensionMismatch("gamma must be (l,)")
    if not np.all(np.isfinite(t.epsilon)) or not np.all(np.isfinite(t.gamma)) or not np.all(np.isfinite(t.sigma)):
        raise BoundViolation("type vector entries must be finite")
    if t.norm() > p.K:
        raise BoundViolation(f"type vector norm {t.norm():.3g} exceeds K={p.K}")
    return t


@dataclass(frozen=True)
class InitialLaw:
    """Sampling recipe for i.i.d. training data, plus the shared type vector.

    kind="uniform": coordinates of (x0, y0, z0) drawn uniformly from the given
    per-block intervals (a sub-box of the support box).
    kind="dirac": every sample equals the point (x_low, y_low, z_low).
    """

    kind: str
    x_low: np.ndarray
    x_high: np.ndarray
    y_low: np.ndarray
    y_high: np.ndarray
    z_low: np.ndarray
    z_high: np.ndarray
    type_vector: TypeVector

    def __post_init__(self):
        for name in ("x_low", "x_high", "y_low", "y_high", "z_low", "z_high"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.kind not in ("uniform", "dirac"):
            raise ConfigInvalid(f"unknown initial law kind {self.kind!r}")

    @classmethod
    def uniform(cls, x_low, x_high, y_low, y_high, type_vector, z_low=(), z_high=()):
        return cls("uniform", x_low, x_high, y_low, y_high, z_low, z_high, type_vector)

    def sample(self, n, seed):
        """Draw n samples deterministically from seed; returns (SampleBatch, type vector)."""
        gen = make_generator(seed, "initial-law")
        d = self.x_low.size
        q = self.z_low.size
        if self.kind == "dirac":
            x = np.tile(self.x_low, (n, 1))
            y = np.tile(self.y_low, (n, 1))
            z = np.tile(self.z_low, (n, 1))
        else:
            x = gen.uniform(self.x_low, self.x_high, size=(n, d))
            y = gen.uniform(self.y_low, self.y_high, size=(n, d))
            z = gen.uniform(self.z_low, self.z_high, size=(n, q)) if q else np.zeros((n, 0))
        return SampleBatch(x, y, z), self.type_vector


def check_law(p: ModelParams, law: InitialLaw) -> InitialLaw:
    """Check the law's bounds against the dims and the support box, and its type vector."""
    for block, size in (("x", p.dims.d), ("y", p.dims.d), ("z", p.dims.q)):
        low, high = getattr(law, f"{block}_low"), getattr(law, f"{block}_high")
        if low.shape != (size,) or high.shape != (size,):
            raise DimensionMismatch(f"initial law {block} bounds must have length {size}")
        if not np.all(low <= high):
            raise ConfigInvalid(f"initial law needs {block}_low <= {block}_high")
        if np.any(np.abs(high) > p.K) or np.any(np.abs(low) > p.K):
            raise BoundViolation(f"initial law {block} bounds outside the support box [-{p.K}, {p.K}]")
    check_type(p, law.type_vector)
    return law
