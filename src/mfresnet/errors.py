"""Exception types shared across the package."""
import copyreg


class MfresnetError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt from its message and fields without __init__, whose keyword-only
        # fields a pickle cannot pass, so that an error raised in a worker reaches the parent
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NonPositiveWeight(MfresnetError):
    """A cost weight (alpha, beta, lambda1, lambda2) or the horizon is not positive."""


class BoundViolation(MfresnetError):
    """A sample or type vector falls outside the compact support bound K."""


class DimensionMismatch(MfresnetError):
    """Array shapes are inconsistent with the declared dimensions."""


class GridMismatch(MfresnetError):
    """A control's interval count or horizon does not match the simulation."""


class ScalarConfigRequired(MfresnetError):
    """Operation requires the scalar-state two-parameter configuration (d=1, m=2, no exogenous input, no batch coupling)."""


class ConfigInvalid(MfresnetError):
    """Experiment or evaluation configuration is invalid."""


class NoDescentProgress(MfresnetError):
    """Backtracking line search hit its floor without finding a descent step;
    carries the seed of the problem and the training iteration (the number
    of steps it had accepted)."""

    def __init__(self, message, *, seed, iteration):
        super().__init__(f"{message} (seed {seed}, iteration {iteration})")
        self.seed, self.iteration = seed, iteration


class Diverged(MfresnetError):
    """A simulated path stopped being finite; carries the seed of its problem,
    the first grid step with a non-finite value and the particle (its row
    within the problem) there."""

    def __init__(self, message, *, seed, step, particle):
        super().__init__(f"{message} (seed {seed}, step {step}, particle {particle})")
        self.seed, self.step, self.particle = seed, step, particle


class NoConvergence(MfresnetError):
    """Fixed-point iteration did not reach its tolerance; carries the change trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


class SizeMismatch(MfresnetError):
    """A test function's term has over two axes or an axis not an integer in [0, d+q), or its
    cutoff radii are not 0 < r_plateau < r_support with r_support**2 - r_plateau**2 finite and > 0."""


class GradCheckFailed(MfresnetError):
    """The derivative check suite exceeded its error budget."""


class WorkerLost(MfresnetError):
    """A worker process that runs a plan's units ended, killed by a signal say, before it returned its unit."""
