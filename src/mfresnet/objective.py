"""Sampled and limiting objective values.

The sampled objective is pathwise (one noise realization); averaging over
replications with common random numbers is the caller's loop.  The limiting
objective is a Monte Carlo estimate over draws from the initial law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ControlGrid, InitialLaw, ModelParams, control_h1_norms, sum_last
from .sde import ParticleEnsemble, simulate_particles


@dataclass(frozen=True)
class CostBreakdown:
    terminal: float
    running_state: float
    control_l2: float
    control_h1: float
    total: float

    @classmethod
    def from_parts(cls, terminal, running_state, control_l2, control_h1):
        parts = (float(terminal), float(running_state), float(control_l2), float(control_h1))
        return cls(*parts, total=float(sum(parts)))


def control_costs(theta: ControlGrid, p: ModelParams):
    l2_sq, h1_sq = control_h1_norms(theta)
    return p.lambda1 * l2_sq, p.lambda2 * h1_sq


def _squared_error(ensemble: ParticleEnsemble):
    """|X(t_k) - Y|^2 per particle and node, (rows, S+1)."""
    err = np.subtract(ensemble.X, ensemble.y0[:, None, :], order="C")  # row-major, as the means' bytes need
    return sum_last(err * err)


def evaluate_JN(ensemble: ParticleEnsemble, p: ModelParams):
    """Pathwise sampled objective for one simulated ensemble and the control
    that drove it; for a batched ensemble, a list with one per problem.

    Terminal and running state costs average over each problem's particles;
    the running integral uses the trapezoid rule on the simulation grid.
    """
    sq = _squared_error(ensemble).reshape(ensemble.theta.n_problems, ensemble.n_particles, -1)
    sq = np.mean(sq, axis=1)                             # (B, S+1)
    terminal = p.alpha * sq[:, -1]
    running = p.beta * np.trapezoid(sq, ensemble.theta.t_grid, axis=-1)
    l2_cost, h1_cost = control_costs(ensemble.theta, p)
    costs = [CostBreakdown.from_parts(*parts)
             for parts in zip(terminal, running, np.ravel(l2_cost), np.ravel(h1_cost))]
    return costs if ensemble.theta.values.ndim == 3 else costs[0]


def evaluate_Jd(theta: ControlGrid, p: ModelParams, law: InitialLaw, n_paths, seed):
    """Monte Carlo estimate of the limiting objective and its standard error.

    Per path: alpha |X(T) - Y|^2 + beta * trapezoid of |X(t) - Y|^2; the
    deterministic control costs are added outside the average and do not
    contribute to the standard error.
    """
    samples, type_vector = law.sample(n_paths, seed)
    ens = simulate_particles(p, theta, samples, type_vector, theta.n_intervals, seed)
    sq = _squared_error(ens)                             # (M, S+1)
    per_path = p.alpha * sq[:, -1] + p.beta * np.trapezoid(sq, theta.t_grid, axis=1)
    l2_cost, h1_cost = control_costs(theta, p)
    estimate = float(np.mean(per_path) + l2_cost + h1_cost)
    std_error = float(np.std(per_path, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return estimate, std_error
