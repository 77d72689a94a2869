"""Mean-field stochastic control view of deep residual network training.

Simulates the interacting particle training dynamics, trains the depth
weight path on finite samples, solves the limiting control problem through
its first-order characterization, and provides the empirical-measure
diagnostics used to check convergence as the sample size grows.
"""

from . import errors
from .fpk import (
    FixedPointConfig,
    GridFunction,
    estimate_G,
    fixed_point_solve,
    residual_first_order,
    solve_neumann_bvp,
)
from .measures import (
    EmpiricalMeasurePath,
    TestFunction,
    empirical_path,
    fpk_residual,
    generator_apply,
    wasserstein2_1d,
    wasserstein2_exact_small,
)
from .objective import CostBreakdown, evaluate_Jd, evaluate_JN, loss
from .params import (
    ActivationSpec,
    ControlGrid,
    Dims,
    InitialLaw,
    ModelParams,
    SampleBatch,
    TypeVector,
    control_h1_norms,
    eval_drift,
    project_to_box,
    validate_params,
)
from .rng import brownian_increments, make_generator, split_seed
from .sde import (
    AugmentedEnsemble,
    ParticleEnsemble,
    simulate_augmented,
    simulate_particles,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    forward_sensitivity,
    gradient_JN,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
