"""Mean-field stochastic control view of deep residual network training.

Simulates the interacting particle training dynamics, trains the depth
weight path on finite samples, solves the limiting control problem through
its first-order characterization, and provides the empirical-measure
diagnostics used to check convergence as the sample size grows.
"""

from .fpk import (
    FixedPointConfig,
    GridFunction,
    estimate_G,
    fixed_point_solve,
    solve_neumann_bvp,
)
from .measures import TestFunction, fpk_residual, wasserstein2_1d
from .objective import CostBreakdown, evaluate_Jd, evaluate_JN
from .params import (
    ActivationSpec,
    ControlGrid,
    Dims,
    InitialLaw,
    ModelParams,
    SampleBatch,
    TypeVector,
    control_h1_norms,
    project_to_box,
)
from .rng import make_generator, split_seed
from .sde import simulate_augmented, simulate_particles
from .trainer import TrainConfig, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
