"""Experiment runner: configuration ingestion, hierarchical seed management,
and the headline experiments (simulate / train / solve-limit / gamma /
diagnose-fpk / gradcheck).

Every experiment is a pure function of (config, seeds): reruns produce
byte-identical CSV outputs regardless of the worker count, because each
unit of work owns a seed derived from the root seed and results are
written in a fixed order.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import operator
import os
import sys
import typing

import numpy as np

from .errors import ConfigInvalid, GradCheckFailed, MfresnetError, WorkerLost
from .fpk import FixedPointConfig, check_band, estimate_G, fixed_point_solve, neumann_derivatives
from .measures import (
    TestFunction,
    check_cutoff_radii,
    fpk_residual,
    wasserstein2_1d,
)
from .objective import evaluate_Jd, evaluate_JN
from .params import (
    ActivationSpec,
    ControlGrid,
    Dims,
    InitialLaw,
    ModelParams,
    SampleBatch,
    TypeVector,
    check_law,
    require_int,
    require_real,
)
from .rng import make_generator, split_seed
from .sde import euler_noise, simulate_particles, stream_particles
from .trainer import TrainConfig, _adjoint_gradient, _precondition_band, train


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# The most doubles one path table may hold (2 GiB): a command whose config
# asks it for a larger one is refused before any work (_plan).
MAX_TABLE_DOUBLES = 2**28
MAX_UNITS = 2**16         # units of one function a plan may list; more are refused before any is listed
REFERENCE_PATHS = 20000   # paths of the reference cloud of the W2 columns, at most
GRADCHECK_SAMPLES, GRADCHECK_INTERVALS = 16, (8, 16, 32, 64)   # a random gradcheck case's sizes, drawn from these


def default_law() -> InitialLaw:
    tv = TypeVector(epsilon=np.array([[0.3]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    return InitialLaw.uniform(x_low=[0.5], x_high=[1.5], y_low=[-0.5], y_high=[0.5], type_vector=tv)


def _from_json_data(cls, data):
    """Build the dataclass cls from a JSON object, its dataclass-typed fields
    recursively; the constructors convert and check every value, and refuse
    a missing or unknown key with TypeError."""
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{cls.__name__} needs a JSON object, got {data!r}")
    types = typing.get_type_hints(cls)
    return cls(**{key: _from_json_data(types[key], value) if dataclasses.is_dataclass(types.get(key)) else value
                  for key, value in data.items()})


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams = dataclasses.field(default_factory=ModelParams)
    initial_law: InitialLaw = dataclasses.field(default_factory=default_law)
    seed: int = 20240815
    out: str = "results"
    workers: int = 1           # checked, not hashed; the most processes _run_units runs a plan's units on
    n_particles: int = 100
    n_steps: int = 32
    n_list: tuple = (50, 200, 800, 3200)
    n_draws: int = 10
    m_paths: int = 100000
    seeds_per_n: int = 6
    phi_radius: float = 12.0
    dump_trajectories: bool = False
    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    fixed_point: FixedPointConfig = dataclasses.field(default_factory=FixedPointConfig)

    def __post_init__(self):
        try:
            n_list = () if any(isinstance(n, bool) for n in self.n_list) else tuple(map(operator.index, self.n_list))
        except TypeError:
            n_list = ()
        if not n_list or n_list[0] < 1 or n_list[-1] > sys.maxsize or list(n_list) != sorted(set(n_list)):
            raise ConfigInvalid(f"n_list must be strictly increasing integers in [1, {sys.maxsize}], got {self.n_list!r}")
        object.__setattr__(self, "n_list", n_list)
        for name in ("n_particles", "n_steps", "n_draws", "seeds_per_n", "m_paths", "workers"):
            require_int(name, getattr(self, name), 1)
        require_real("phi_radius", self.phi_radius, 0.0)
        check_cutoff_radii(self.phi_radius, 2.0 * self.phi_radius, ConfigInvalid)
        require_int("seed", self.seed, None, None)
        if not (isinstance(self.out, str) and self.out):
            raise ConfigInvalid(f"out must be a non-empty path, got {self.out!r}")
        if not isinstance(self.dump_trajectories, bool):
            raise ConfigInvalid(f"dump_trajectories must be true or false, got {self.dump_trajectories!r}")
        check_law(self.model, self.initial_law)

    def to_dict(self):
        """The config as JSON data: every dataclass field, arrays as lists."""
        return json.loads(json.dumps(dataclasses.asdict(self), default=np.ndarray.tolist))

    def config_hash(self):
        d = self.to_dict()
        # execution details do not change the results and are not hashed
        for key in ("workers", "out", "dump_trajectories"):
            d.pop(key, None)
        d["fixed_point"].update(seed=0, seed_policy="fixed")  # retired keys at their one value: no hash changes
        payload = json.dumps(d, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d):
        """Build and check a config; a missing or unknown key at any level or
        a value of the wrong type ends as ConfigInvalid."""
        try:
            return _from_json_data(cls, d)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"malformed config: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_json(cls, path):
        """Read a config file; an unreadable file or one that is not JSON
        ends as ConfigInvalid."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {type(exc).__name__}: {exc}") from exc
        return cls.from_dict(d)


def _write_atomic(path, lines):
    """Stream the lines, each with its line ending, into path.tmp and rename it to path."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def _csv_lines(cfg, columns, rows):
    yield f"# config_hash={cfg.config_hash()}\n"
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def _trajectory_lines(ens):
    """One row per (t, particle), as csv.writer writes them: no field needs quoting, CRLF line ends."""
    yield ",".join(["t", "particle_id"] + [f"x{j}" for j in range(ens.X.shape[2])]
                   + [f"z{j}" for j in range(ens.Z.shape[2])]) + "\r\n"
    for k, t in enumerate(ens.t_grid):
        for i in range(ens.n_particles):
            yield ",".join([repr(float(t)), str(i)] + [repr(float(v)) for v in (*ens.X[i, k], *ens.Z[i, k])]) + "\r\n"


def _serve_units(k, links, units):
    """A worker's loop: run the unit of each index that arrives on the child
    end of links[k] and send back (result, None) or (None, the exception),
    until the parent is gone.  It first closes every other end it inherited,
    so that each pipe end has one owner and the parent's death ends its pipe."""
    conn = links[k][1]
    for end in set(itertools.chain.from_iterable(links)) - {conn}:
        end.close()
    try:
        while True:
            fn, args, _ = units[conn.recv()]
            try:
                reply = fn(*args), None
            except Exception as exc:
                reply = None, exc
            conn.send(reply)
    except (EOFError, OSError):   # the parent is gone
        pass


def _run_units(units, workers):
    """fn(*args) for every (fn, args, tables) unit of a plan, results in plan
    order.  With min(workers, usable cores, units) > 1 processes, forked
    workers, each with a pipe of its own, are sent the index of the next unit
    when idle, and the results are read in plan order, so the error raised is
    the one a serial run raises first.  Fork, because a spawn or forkserver
    worker (Python 3.14's Linux default) imports numpy again (~0.1 s); numpy's
    OpenBLAS stops its threads at a fork, and this package starts none.  Each
    pipe end has one owner, so a worker's death, idle or mid-reply, ends its
    pipe and raises WorkerLost; every worker is killed and reaped before this
    returns.  A result should own its arrays, so a finished unit frees its buffers."""
    processes = min(workers, len(os.sched_getaffinity(0)), len(units))
    if processes <= 1:
        return [fn(*args) for fn, args, _ in units]
    import multiprocessing.connection

    ctx = multiprocessing.get_context("fork")
    links = [ctx.Pipe() for _ in range(processes)]
    workers = {conn: ctx.Process(target=_serve_units, args=(k, links, units)) for k, (conn, _) in enumerate(links)}
    todo, running, replies, results = iter(range(len(units))), {}, {}, []
    try:
        for conn, worker in workers.items():
            worker.start()
            running[conn] = next(todo)
            conn.send(running[conn])
        for _, child_end in links:
            child_end.close()
        for i, (fn, _, _) in enumerate(units):
            while i not in replies:
                for conn in multiprocessing.connection.wait(list(workers)):
                    try:   # an idle worker's pipe is ready at its end only
                        replies[running.pop(conn)] = conn.recv()
                        if (j := next(todo, None)) is not None:
                            running[conn] = j
                            conn.send(j)
                    except (EOFError, OSError):
                        (worker := workers[conn]).join()
                        raise WorkerLost(f"worker process {worker.pid} ended with exit code {worker.exitcode} "
                                         f"before unit {i} of {len(units)} ({fn.__name__}) returned") from None
            result, error = replies.pop(i)
            if error is not None:
                raise error
            results.append(result)
        return results
    finally:
        for worker in workers.values():
            if worker.pid is not None:
                worker.kill()
                worker.join()
        for conn in itertools.chain.from_iterable(links):
            conn.close()


def _reference_theta(p: ModelParams, n_intervals: int) -> ControlGrid:
    t = np.linspace(0.0, p.T, n_intervals + 1)
    values = np.zeros((n_intervals + 1, p.dims.m))
    values[:, 0] = 0.6 * np.cos(np.pi * t / p.T)
    if p.dims.m > 1:
        values[:, 1] = 0.3 * np.sin(np.pi * t / p.T) - 0.2
    return ControlGrid(p.T, values)


def _nonoise_law(law: InitialLaw) -> InitialLaw:
    tv = law.type_vector
    quiet = TypeVector(epsilon=np.zeros_like(tv.epsilon), gamma=tv.gamma,
                       sigma=np.zeros_like(tv.sigma))
    return dataclasses.replace(law, type_vector=quiet)


def _reference_cloud(cfg, theta, label):
    """Terminal first coordinates of min(m_paths, REFERENCE_PATHS) paths drawn from the initial law
    under theta (None: the reference control on n_steps), sorted once, the reference for the W2 columns."""
    theta = _reference_theta(cfg.model, cfg.n_steps) if theta is None else theta
    samples, tv = cfg.initial_law.sample(min(cfg.m_paths, REFERENCE_PATHS), split_seed(cfg.seed, label))
    ens = simulate_particles(cfg.model, theta, samples, tv, theta.n_intervals,
                             split_seed(cfg.seed, f"{label}-sim"))
    return np.sort(ens.X[:, -1, 0], kind="stable")


SPEARMAN_MAX_N = 8


def spearman_negative_p(values):
    """Spearman rank correlation of values against their index, with the
    exact one-sided p-value (probability of a correlation at least as
    negative under random ranking).  rho = 1 - 6 S / (n (n^2 - 1)) falls as
    the integer sum S of squared rank differences grows, so p is the share
    of the n! rankings, one row each of a permutation table, whose S is at
    least the observed one."""
    values = np.asarray(values, dtype=float)
    n = values.size
    idx = np.arange(n)
    observed = int(np.sum((np.argsort(np.argsort(values)) - idx) ** 2))
    perms = np.array(list(itertools.permutations(range(n))))
    null = np.sum((perms - idx) ** 2, axis=1)
    return 1.0 - 6.0 * observed / (n * (n * n - 1)), int(np.count_nonzero(null >= observed)) / len(perms)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _simulate_unit(cfg):
    samples, tv = cfg.initial_law.sample(cfg.n_particles, split_seed(cfg.seed, "simulate-draw"))
    theta = _reference_theta(cfg.model, cfg.n_steps)
    return simulate_particles(cfg.model, theta, samples, tv, cfg.n_steps, split_seed(cfg.seed, "simulate"))


def run_simulate(cfg: ExperimentConfig, units):
    [ens] = _run_units(units, cfg.workers)
    bd = evaluate_JN(ens, cfg.model)
    rows = [(bd.terminal, bd.running_state, bd.control_l2, bd.control_h1, bd.total)]
    outputs = {
        "cost.csv": _csv_lines(cfg, ["terminal", "running_state", "control_l2", "control_h1", "total"], rows),
    }
    if cfg.dump_trajectories:
        outputs["trajectories.csv"] = _trajectory_lines(ens)
    summary = [
        f"simulated {cfg.n_particles} particles over {cfg.n_steps} steps",
        f"pathwise objective {bd.total!r}",
    ]
    return outputs, summary, {"ensemble": ens, "breakdown": bd}


def _train_unit(cfg):
    samples, tv = cfg.initial_law.sample(cfg.n_particles, split_seed(cfg.seed, "train-draw"))
    return train(cfg.model, samples, tv, cfg.train, split_seed(cfg.seed, "train"))


def run_train(cfg: ExperimentConfig, units):
    [result] = _run_units(units, cfg.workers)
    hist_rows = [
        (i, bd.total, bd.terminal, bd.running_state, bd.control_l2, bd.control_h1)
        for i, bd in enumerate(result.history)
    ]
    theta_rows = [
        (float(t),) + tuple(float(v) for v in vals)
        for t, vals in zip(result.theta_star.t_grid, result.theta_star.values)
    ]
    m = result.theta_star.m
    outputs = {
        "history.csv": _csv_lines(cfg, ["iter", "total", "terminal", "running_state", "control_l2", "control_h1"], hist_rows),
        "theta.csv": _csv_lines(cfg, ["t"] + [f"theta{j}" for j in range(m)], theta_rows),
    }
    summary = [
        f"trained on {cfg.n_particles} samples, {len(result.history) - 1} accepted steps",
        f"final objective {result.history[-1].total!r}, final grad norm {result.grad_norm_final!r}",
    ]
    return outputs, summary, {"result": result}


def _solve_limit_unit(cfg):
    """The fixed point θ* with its trace, G at θ*, and J_d at θ* with its standard error."""
    theta_star, trace = fixed_point_solve(cfg.model, cfg.initial_law, cfg.fixed_point, split_seed(cfg.seed, "fpk"))
    G = estimate_G(theta_star, cfg.model, cfg.initial_law, cfg.fixed_point.mc_paths, split_seed(cfg.seed, "limit-G"))
    jd, jd_se = evaluate_Jd(theta_star, cfg.model, cfg.initial_law, cfg.m_paths, split_seed(cfg.seed, "limit-jd"))
    return theta_star, trace, G, jd, jd_se


def run_solve_limit(cfg: ExperimentConfig, units):
    [(theta_star, trace, G, jd, jd_se)] = _run_units(units, cfg.workers)
    m = theta_star.m
    theta_rows = [
        (float(t),) + tuple(float(v) for v in vals) + tuple(float(g) for g in gv)
        for t, vals, gv in zip(theta_star.t_grid, theta_star.values, G.values)
    ]
    trace_rows = list(enumerate(map(float, trace)))
    outputs = {
        "theta_star.csv": _csv_lines(
            cfg, ["t"] + [f"theta{j}" for j in range(m)] + [f"G{j}" for j in range(m)], theta_rows),
        "trace.csv": _csv_lines(cfg, ["iter", "sup_change"], trace_rows),
    }
    d0, dT = neumann_derivatives(theta_star)
    summary = [
        f"fixed point reached in {len(trace)} iterations (last change {trace[-1]!r})",
        f"limit objective estimate {jd!r} +/- {jd_se!r}",
        f"boundary derivative magnitudes {float(np.max(d0))!r}, {float(np.max(dT))!r}",
    ]
    return outputs, summary, {"theta_star": theta_star, "trace": trace, "jd": jd, "jd_se": jd_se}


def _random_gradcheck_case(case_idx, root_seed):
    gen = make_generator(root_seed, f"gradcheck-case-{case_idx}")
    d = int(gen.integers(1, 4))
    q = int(gen.integers(0, 3))
    p_noise = int(gen.integers(1, 3))
    n_samples = int(gen.integers(1, GRADCHECK_SAMPLES + 1))
    n_intervals = int(gen.choice(GRADCHECK_INTERVALS))
    kind = str(gen.choice(["tanh", "sigmoid", "gaussian"]))
    act = ActivationSpec(
        kind=kind,
        z_weight=float(gen.uniform(-0.5, 0.5)) if q else 0.0,
        eta_weight=float(gen.uniform(-0.5, 0.5)),
    )
    p = ModelParams(
        activation=act, rho="tanh_mean", phi="decay",
        alpha=float(gen.uniform(0.5, 2.0)), beta=float(gen.uniform(0.5, 2.0)),
        lambda1=float(gen.uniform(0.05, 0.5)), lambda2=float(gen.uniform(0.05, 0.5)),
        T=1.0, dims=Dims(d=d, q=q, p=p_noise, m=2, l=q), K=10.0, k_theta=5.0,
    )
    tv = TypeVector(
        epsilon=gen.uniform(-0.4, 0.4, size=(d, p_noise)),
        gamma=gen.uniform(0.1, 1.0, size=q),
        sigma=gen.uniform(-0.4, 0.4, size=(q, p_noise)),
    )
    law = InitialLaw.uniform(
        x_low=np.full(d, -1.0), x_high=np.full(d, 1.0),
        y_low=np.full(d, -1.0), y_high=np.full(d, 1.0),
        z_low=np.full(q, -0.5), z_high=np.full(q, 0.5), type_vector=tv,
    )
    case_seed = split_seed(root_seed, f"gradcheck-sim-{case_idx}")
    samples, tv = law.sample(n_samples, case_seed)
    theta = ControlGrid(p.T, gen.uniform(-1.0, 1.0, size=(n_intervals + 1, 2)))
    direction = gen.uniform(-1.0, 1.0, size=(n_intervals + 1, 2))
    return p, samples, tv, theta, direction, n_intervals, case_seed


def gradcheck_case_error(case_idx, root_seed, fd_epsilon=1e-5):
    """Relative error between the adjoint gradient that train uses, contracted
    with a random direction, and a common-random-number central finite
    difference (three simulations of one noise table), for one randomized configuration."""
    p, samples, tv, theta, direction, n_steps, case_seed = _random_gradcheck_case(case_idx, root_seed)
    noise = euler_noise(p, len(samples), n_steps, case_seed)
    ens = simulate_particles(p, theta, samples, tv, n_steps, case_seed, noise=noise)
    analytic = float(np.sum(_adjoint_gradient(ens, p) * direction))
    h = fd_epsilon
    up = theta.with_values(theta.values + h * direction)
    dn = theta.with_values(theta.values - h * direction)
    j_up = evaluate_JN(simulate_particles(p, up, samples, tv, n_steps, case_seed, noise=noise), p).total
    j_dn = evaluate_JN(simulate_particles(p, dn, samples, tv, n_steps, case_seed, noise=noise), p).total
    fd = (j_up - j_dn) / (2.0 * h)
    rel = abs(analytic - fd) / max(abs(fd), 1e-12)
    return rel, analytic, fd, case_seed


def run_gradcheck(cfg: ExperimentConfig, units):
    rows = [(c, case_seed, analytic, fd, rel)
            for c, (rel, analytic, fd, case_seed) in enumerate(_run_units(units, cfg.workers))]
    worst = max([0.0] + [row[4] for row in rows])
    outputs = {
        "gradcheck.csv": _csv_lines(cfg, ["case", "case_seed", "directional_derivative", "central_fd", "rel_error"], rows),
    }
    summary = [f"gradcheck over {len(rows)} configurations, worst relative error {worst!r}"]
    if worst > 1e-3:
        raise GradCheckFailed(f"worst relative error {worst:.3e} exceeds 1e-3")
    return outputs, summary, {"worst": worst, "rows": rows}


def _gamma_unit(cfg, n):
    """Train the n_draws sampled problems of size n as one batch: per draw
    min J_N, the trained node values (n_draws, S+1, m) and the terminal
    first coordinates."""
    p = cfg.model
    draw_seeds = [split_seed(cfg.seed, f"gamma-{n}-{draw}") for draw in range(cfg.n_draws)]
    batches, type_vectors = zip(*(cfg.initial_law.sample(n, split_seed(s, "data")) for s in draw_seeds))
    samples, tv = SampleBatch.stack(batches), type_vectors[0]
    result = train(p, samples, tv, cfg.train, [split_seed(s, "train") for s in draw_seeds])
    ens = simulate_particles(p, result.theta_star, samples, tv, result.theta_star.n_intervals,
                             [split_seed(s, "terminal") for s in draw_seeds])
    clouds = [cloud.copy() for cloud in ens.X[:, -1, 0].reshape(cfg.n_draws, n)]
    return [history[-1].total for history in result.history], result.theta_star.values, clouds


def _gamma_limit(cfg):
    """gamma's limit on the training grid: θ*, J_d at θ* with its standard error, and the reference cloud."""
    p = cfg.model
    # the band that train checks, checked here before the limit's work
    check_band(_precondition_band, p, ControlGrid.zeros(p.T, cfg.train.n_intervals, m=p.dims.m))
    fp_cfg = dataclasses.replace(cfg.fixed_point, n_intervals=cfg.train.n_intervals)
    theta_star, _ = fixed_point_solve(p, cfg.initial_law, fp_cfg, split_seed(cfg.seed, "fpk"))
    jd, jd_se = evaluate_Jd(theta_star, p, cfg.initial_law, cfg.m_paths, split_seed(cfg.seed, "jd"))
    return theta_star, jd, jd_se, _reference_cloud(cfg, theta_star, "ref-cloud")


def run_gamma(cfg: ExperimentConfig, units):
    """Value and minimizer convergence of the sampled problem to the limit."""
    (theta_star, jd, jd_se, ref_cloud), *results = _run_units(units, cfg.workers)
    rows = []
    for n, draws in zip(cfg.n_list, results):
        for draw, (min_jn, values, cloud) in enumerate(zip(*draws)):
            sup_diff = float(np.max(np.abs(values - theta_star.values)))
            w2 = wasserstein2_1d(cloud, ref_cloud)
            rows.append((n, draw, min_jn, abs(min_jn - jd), sup_diff, w2))
    outputs = {
        "gamma.csv": _csv_lines(cfg, ["N", "draw", "min_JN", "abs_gap", "theta_supnorm_diff", "w2_terminal"], rows),
    }
    mean_gap = [float(np.mean([r[3] for r in rows if r[0] == n])) for n in cfg.n_list]
    rho, pval = spearman_negative_p(mean_gap)
    first_n, last_n = cfg.n_list[0], cfg.n_list[-1]
    diffs_first = [r[4] for r in rows if r[0] == first_n]
    diffs_last = [r[4] for r in rows if r[0] == last_n]
    frac_smaller = float(np.mean([dl < df for df, dl in zip(diffs_first, diffs_last)]))
    summary = [
        f"limit objective {jd!r} +/- {jd_se!r}",
        "mean |min_JN - Jd| per N: " + ", ".join(f"{n}:{g!r}" for n, g in zip(cfg.n_list, mean_gap)),
        f"spearman rho {rho!r}, one-sided p {pval!r}",
        f"fraction of draws with smaller theta gap at N={last_n} vs N={first_n}: {frac_smaller!r}",
    ]
    return outputs, summary, {
        "rows": rows, "mean_gap": mean_gap, "rho": rho, "pval": pval,
        "frac_smaller": frac_smaller, "jd": jd, "jd_se": jd_se, "theta_star": theta_star,
    }


def _residual_test_function(cfg):
    p = cfg.model
    d, q = p.dims.d, p.dims.q
    terms = ((1.0, 0, 0), (0.5, 0)) + (((0.5, 0, d),) if q else ())
    return TestFunction(terms=terms, d=d, q=q,
                        r_plateau=cfg.phi_radius, r_support=2.0 * cfg.phi_radius)


def _diagnose_unit(cfg, label, n, seed_idx):
    """The sup FPK residual of one ensemble under the reference control and
    its terminal first coordinates; the "nonoise" case draws from the
    initial law without diffusion.  The Euler nodes stream straight into
    the residual, so the unit holds its noise table and one residual block,
    never a whole path."""
    p = cfg.model
    law = cfg.initial_law if label == "noisy" else _nonoise_law(cfg.initial_law)
    run_seed = split_seed(cfg.seed, f"diag-{label}-{n}-{seed_idx}")
    samples, tv = law.sample(n, split_seed(run_seed, "data"))
    stream = stream_particles(p, _reference_theta(p, cfg.n_steps), samples, tv, cfg.n_steps, run_seed)
    sup_res, _, x_last = fpk_residual(stream, _residual_test_function(cfg), p)
    return sup_res, x_last[0].copy()


def run_diagnose_fpk(cfg: ExperimentConfig, units):
    """Residual decay of the empirical measure against the limiting equation."""
    results = _run_units(units, cfg.workers)
    # W2 is taken in one dimension only: _plan lists a reference cloud first for d = 1, none (a nan column) for d > 1
    ref_cloud = results.pop(0) if units[0][0] is _reference_cloud else None
    rows = []
    for (_, (_, label, n, s), _), (sup_res, cloud) in zip(units[-len(results):], results):
        w2 = float("nan") if ref_cloud is None else wasserstein2_1d(cloud, ref_cloud)
        rows.append((label, n, s, sup_res, w2))
    outputs = {
        "diagnose_fpk.csv": _csv_lines(cfg, ["case", "N", "seed", "sup_residual", "w2_terminal"], rows),
    }
    mean_res = [float(np.mean([r[3] for r in rows if r[0] == "noisy" and r[1] == n])) for n in cfg.n_list]
    with np.errstate(divide="ignore"):   # a zero residual's logarithm is -inf, and the slope nan
        slope = float(np.polyfit(np.log(np.asarray(cfg.n_list, dtype=float)), np.log(mean_res), 1)[0])
    mean_res_quiet = [float(np.mean([r[3] for r in rows if r[0] == "nonoise" and r[1] == n])) for n in cfg.n_list]
    summary = [
        "seed-mean sup residual per N: " + ", ".join(f"{n}:{v!r}" for n, v in zip(cfg.n_list, mean_res)),
        f"log-log slope {slope!r}",
        "no-noise control per N: " + ", ".join(f"{n}:{v!r}" for n, v in zip(cfg.n_list, mean_res_quiet)),
    ]
    return outputs, summary, {"rows": rows, "slope": slope,
                              "mean_res": mean_res, "mean_res_quiet": mean_res_quiet}


EXPERIMENTS = {
    "simulate": run_simulate,
    "train": run_train,
    "solve-limit": run_solve_limit,
    "gamma": run_gamma,
    "diagnose-fpk": run_diagnose_fpk,
    "gradcheck": run_gradcheck,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _plan(kind, cfg):
    """The units of the command kind in run order, each (fn, args, tables): a module-level function, its
    picklable arguments, sized by nothing in cfg, and the path tables it may build, each as (paths field, paths,
    (grid field, intervals)), train's replications as one table.  A config that the command cannot run, or
    whose plan would list over MAX_UNITS units, is ConfigInvalid before any unit is listed; so is one with a
    table over MAX_TABLE_DOUBLES doubles, or on a model grid whose step has no finite reciprocal, before it runs."""
    reps, m_paths, mc = cfg.train.replications, cfg.m_paths, cfg.fixed_point.mc_paths
    steps, grid, fixed = (("n_steps", cfg.n_steps), ("train.n_intervals", cfg.train.n_intervals),
                          ("fixed_point.n_intervals", cfg.fixed_point.n_intervals))
    if kind == "simulate":
        units = [(_simulate_unit, (cfg,), [("n_particles", cfg.n_particles, steps)])]
    elif kind == "train":
        units = [(_train_unit, (cfg,), [("n_particles * train.replications", cfg.n_particles * reps, grid)])]
    elif kind == "solve-limit":
        if fixed[1] < 2:
            raise ConfigInvalid(f"fixed_point.n_intervals = {fixed[1]}, under the 2 that the boundary derivatives need")
        units = [(_solve_limit_unit, (cfg,), [("fixed_point.mc_paths", mc, fixed), ("m_paths", m_paths, fixed)])]
    elif kind == "gamma":
        if not 2 <= len(cfg.n_list) <= SPEARMAN_MAX_N:
            raise ConfigInvalid(f"gamma takes 2 to {SPEARMAN_MAX_N} sample sizes in n_list (its exact Spearman "
                                f"test ranks them and enumerates n! rankings), got {len(cfg.n_list)}")
        units = [(_gamma_limit, (cfg,), [("fixed_point.mc_paths", mc, grid), ("m_paths", m_paths, grid)])] + [
            (_gamma_unit, (cfg, n), [("n_draws * n_list * train.replications", cfg.n_draws * n * reps, grid)])
            for n in cfg.n_list]
    elif kind == "diagnose-fpk":
        if len(cfg.n_list) < 2:
            raise ConfigInvalid(f"diagnose-fpk fits its slope through 2 or more n_list sizes, got {len(cfg.n_list)}")
        if 2 * len(cfg.n_list) * cfg.seeds_per_n > MAX_UNITS:
            raise ConfigInvalid(f"seeds_per_n = {cfg.seeds_per_n} seeds for each of the {len(cfg.n_list)} n_list "
                                f"sizes, in 2 cases, make more units than MAX_UNITS = {MAX_UNITS}")
        cloud = [(_reference_cloud, (cfg, None, "diag-ref"),
                  [(f"min(m_paths, {REFERENCE_PATHS})", min(m_paths, REFERENCE_PATHS), steps)])]
        units = (cloud if cfg.model.dims.d == 1 else []) + [
            (_diagnose_unit, (cfg, label, n, s), [("n_list", n, steps)])
            for label in ("noisy", "nonoise") for n in cfg.n_list for s in range(cfg.seeds_per_n)]
    else:   # gradcheck's cases set their own T = 1
        units = [(gradcheck_case_error, (c, cfg.seed, cfg.train.fd_epsilon),
                  [("GRADCHECK_SAMPLES", GRADCHECK_SAMPLES, ("GRADCHECK_INTERVALS", s)) for s in GRADCHECK_INTERVALS])
                 for c in range(20)]
    T, width = cfg.model.T, max(cfg.model.dims.d, cfg.model.dims.q, cfg.model.dims.p, cfg.model.dims.m)
    for name, paths, (grid_name, intervals) in (table for _, _, tables in units for table in tables):
        if kind != "gradcheck" and ((step := T / intervals) == 0.0 or 1.0 / step == float("inf")):
            raise ConfigInvalid(f"T = {T!r} on {grid_name} = {intervals} intervals makes a step of {step!r}, "
                                f"which has no finite reciprocal")
        if (doubles := paths * (intervals + 1) * width) > MAX_TABLE_DOUBLES:
            raise ConfigInvalid(f"{name} = {paths} paths on {grid_name} = {intervals} intervals make a table of "
                                f"{doubles} doubles (paths x (intervals + 1) x max(d, q, p, m) = {width}), "
                                f"over MAX_TABLE_DOUBLES = {MAX_TABLE_DOUBLES}")
    return units


def run_experiment(kind: str, cfg: ExperimentConfig):
    """Run one experiment on its plan (_plan), after the making of cfg.out,
    and stream each of its outputs, summary.txt last, into name.tmp, renamed
    to name when written."""
    units = _plan(kind, cfg)
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"out = {cfg.out!r} cannot be made a directory: {type(exc).__name__}: {exc}") from exc
    outputs, summary, payload = EXPERIMENTS[kind](cfg, units)
    header = [f"experiment: {kind}", f"config_hash: {cfg.config_hash()}", f"seed: {cfg.seed}"]
    outputs["summary.txt"] = [f"{line}\n" for line in header + summary]
    for name, lines in outputs.items():
        _write_atomic(os.path.join(cfg.out, name), lines)
    return payload, "".join(outputs["summary.txt"])


def build_parser():
    parser = argparse.ArgumentParser(prog="mfresnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("config", nargs="?", help="JSON experiment configuration (defaults used if omitted)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--workers", type=int, default=None,
                        help="the most processes a command's units run on, capped by the usable cores")
        sp.add_argument("--n-list", default=None, help="comma-separated sample sizes")
        sp.add_argument("--dump-trajectories", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
        try:
            n_list = None if args.n_list is None else [int(n) for n in args.n_list.split(",")]
        except ValueError:
            raise ConfigInvalid(f"--n-list takes comma-separated integers, got {args.n_list!r}") from None
        overrides = {"seed": args.seed, "out": args.out, "workers": args.workers, "n_list": n_list,
                     "dump_trajectories": args.dump_trajectories or None}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        _, summary_text = run_experiment(args.command, cfg)
    except MfresnetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(summary_text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
