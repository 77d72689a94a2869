"""Acceptance suite: one test per release criterion, each with an
independently computed oracle and a single printed pass line.

The experiments are deterministic in their seeds, so every run of this file
makes the same pass/fail decisions.
"""
import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from mfresnet import (
    ControlGrid,
    FixedPointConfig,
    GridFunction,
    InitialLaw,
    ModelParams,
    TrainConfig,
    TypeVector,
    control_h1_norms,
    estimate_G,
    fixed_point_solve,
    solve_neumann_bvp,
    train,
    wasserstein2_1d,
)
from mfresnet.cli import (
    ExperimentConfig,
    default_law,
    gradcheck_case_error,
    run_experiment,
)
from mfresnet.fpk import neumann_derivatives
from mfresnet.rng import split_seed

from conftest import residual_first_order, wasserstein2_exact_small


def _pass(line):
    print(f"PASS {line}")


# ---------------------------------------------------------------------------
# criterion 1: exact discrete gradients against finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_matches_finite_differences():
    """The adjoint gradient contracted with a random direction agrees with
    central finite differences to a relative error of 1e-4 on 20 randomized configurations (dimensions,
    nonlinearities, couplings, grids and noise levels all varied)."""
    worst = 0.0
    for case in range(20):
        rel, _, _, _ = gradcheck_case_error(case, 987)
        worst = max(worst, rel)
    assert worst <= 1e-4
    _pass(f"criterion 1: worst gradient relative error {worst:.3e} <= 1e-4 over 20 configs")


# ---------------------------------------------------------------------------
# criterion 2: second-order convergence of the boundary value solver
# ---------------------------------------------------------------------------

def test_criterion_2_bvp_second_order_convergence():
    T, lam1, lam2 = 1.0, 0.4, 0.2
    factor = lam1 + lam2 * (math.pi / T) ** 2
    errs = []
    for n in (40, 80, 160, 320):
        t = np.linspace(0.0, T, n + 1)
        exact = np.cos(math.pi * t / T)
        src = GridFunction(values=(factor * exact)[:, None], std_errors=np.zeros((n + 1, 1)))
        theta = solve_neumann_bvp(src, ModelParams(T=T, lambda1=lam1, lambda2=lam2))
        errs.append(float(np.max(np.abs(theta.values[:, 0] - exact))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 3.5 <= r <= 4.5
    _pass("criterion 2: manufactured-solution error ratios "
          + ", ".join(f"{r:.3f}" for r in ratios) + " all in [3.5, 4.5]")


# ---------------------------------------------------------------------------
# criterion 3: weak-form residual decay of the empirical measure
# ---------------------------------------------------------------------------

def _unit_noise_law():
    tv = TypeVector(epsilon=np.array([[1.0]]), gamma=np.zeros(0), sigma=np.zeros((0, 1)))
    return InitialLaw.uniform(x_low=[0.5], x_high=[1.5], y_low=[-0.5], y_high=[0.5],
                              type_vector=tv)


def test_criterion_3_fpk_residual_slope(tmp_path):
    """Seed-averaged sup residuals over N in {100, 400, 1600, 6400} decay with
    a log-log slope in [-0.65, -0.35]; the noise-free control sits at the
    discretization floor, well below the stochastic signal."""
    cfg = ExperimentConfig(
        model=ModelParams(), initial_law=_unit_noise_law(),
        seed=2, out=str(tmp_path / "diag"), workers=4,
        n_list=(100, 400, 1600, 6400), seeds_per_n=8, n_steps=200, m_paths=4000,
    )
    payload, _ = run_experiment("diagnose-fpk", cfg)
    slope = payload["slope"]
    assert -0.65 <= slope <= -0.35
    for noisy, quiet in zip(payload["mean_res"], payload["mean_res_quiet"]):
        assert quiet < 0.5 * noisy
    _pass(f"criterion 3: residual log-log slope {slope:.3f} in [-0.65, -0.35], "
          f"noise-free control below half the stochastic residual at every N")


# ---------------------------------------------------------------------------
# criterion 4: convergence of values and minimizers to the limit
# ---------------------------------------------------------------------------

def test_criterion_4_gamma_convergence(tmp_path):
    cfg = ExperimentConfig(
        model=ModelParams(), initial_law=default_law(),
        seed=3, out=str(tmp_path / "gamma"), workers=4,
        n_list=(50, 200, 800, 3200), n_draws=10, m_paths=100000,
        fixed_point=FixedPointConfig(mc_paths=20000, outer_iters=200),
    )
    payload, _ = run_experiment("gamma", cfg)
    assert payload["pval"] < 0.05
    assert payload["frac_smaller"] >= 0.8
    _pass(f"criterion 4: mean |min J_N - J_limit| decreasing "
          f"(one-sided Spearman p {payload['pval']:.4f} < 0.05), minimizer gap "
          f"smaller at N=3200 than N=50 for {payload['frac_smaller']:.0%} of draws (>= 80%)")


# ---------------------------------------------------------------------------
# criterion 5: fixed-point certificate
# ---------------------------------------------------------------------------

def test_criterion_5_fixed_point_certificate():
    """The returned path satisfies the first-order characterization up to the
    tolerance amplified by the operator norm plus Monte Carlo noise, and the
    one-sided boundary derivatives are second-order small relative to the
    solution's curvature scale C = sup |second difference|."""
    p, law = ModelParams(), default_law()
    cfg = FixedPointConfig(mc_paths=20000, outer_iters=200, n_intervals=32)
    theta, _ = fixed_point_solve(p, law, cfg, 123)
    dt = theta.dt
    cert_seed = split_seed(123, "certificate")
    G = estimate_G(theta, p, law, cfg.mc_paths, cert_seed)
    residual = residual_first_order(theta, p, law, cfg.mc_paths, cert_seed)
    bound = cfg.outer_tol * (p.lambda1 + p.lambda2 / dt**2) + 3.0 * float(np.max(G.std_errors))
    assert residual <= bound
    C = float(np.max(np.abs(np.diff(theta.values, n=2, axis=0)))) / dt**2
    d0, dT = neumann_derivatives(theta)
    deriv_bound = 10.0 * C * dt**2
    assert float(np.max(d0)) <= deriv_bound
    assert float(np.max(dT)) <= deriv_bound
    _pass(f"criterion 5: residual {residual:.4f} <= certificate bound {bound:.4f}, "
          f"boundary derivatives {float(np.max(d0)):.2e}/{float(np.max(dT)):.2e} "
          f"<= 10 C dt^2 = {deriv_bound:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: Wasserstein distance correctness
# ---------------------------------------------------------------------------

def test_criterion_6_wasserstein_oracle_and_axioms():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-10.0, 10.0, size=n)
        b = rng.uniform(-10.0, 10.0, size=n)
        worst = max(worst, abs(wasserstein2_1d(a, b) - wasserstein2_exact_small(a, b)))
    assert worst <= 1e-12
    tri_slack = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a, b, c = (rng.uniform(-10.0, 10.0, size=n) for _ in range(3))
        dab, dba = wasserstein2_1d(a, b), wasserstein2_1d(b, a)
        assert abs(dab - dba) <= 1e-12
        assert wasserstein2_1d(a, a) <= 1e-12
        tri_slack = max(tri_slack, dab - wasserstein2_1d(a, c) - wasserstein2_1d(c, b))
    assert tri_slack <= 1e-12
    _pass(f"criterion 6: quantile coupling matches brute-force assignment on 1000 "
          f"instances (worst gap {worst:.2e} <= 1e-12); metric axioms hold on 1000 triples")


# ---------------------------------------------------------------------------
# criterion 7: energy sandwich for the trained control
# ---------------------------------------------------------------------------

def test_criterion_7_energy_bounds():
    """min(lambda1, lambda2) ||theta*||_{H1}^2 <= J_N(theta*) <= J_N(0)."""
    p, law = ModelParams(), default_law()
    samples, types = law.sample(400, split_seed(31, "data"))
    result = train(p, samples, types, TrainConfig(), split_seed(31, "train"))
    l2_sq, h1_sq = control_h1_norms(result.theta_star)
    energy = min(p.lambda1, p.lambda2) * (l2_sq + h1_sq)
    j_star = result.history[-1].total
    j_zero = result.history[0].total
    assert energy <= j_star <= j_zero
    _pass(f"criterion 7: {energy:.4f} <= J_N(theta*) = {j_star:.4f} <= J_N(0) = {j_zero:.4f}")


# ---------------------------------------------------------------------------
# criterion 8: determinism across worker counts
# ---------------------------------------------------------------------------

def _output_hashes(out_dir):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(pathlib.Path(out_dir).iterdir())}


def test_criterion_8_worker_count_invariance(tmp_path):
    gamma_base = dict(
        seed=9, n_list=(50, 200), n_draws=2, m_paths=4000,
        fixed_point=FixedPointConfig(mc_paths=4000, outer_iters=200),
    )
    diag_base = dict(seed=9, n_list=(100, 400), seeds_per_n=2, n_steps=100, m_paths=4000)
    for kind, base in (("gamma", gamma_base), ("diagnose-fpk", diag_base)):
        hashes = []
        for workers in (1, 2, 8):
            cfg = ExperimentConfig(
                model=ModelParams(), initial_law=default_law(),
                out=str(tmp_path / f"{kind}-{workers}"), workers=workers, **base)
            run_experiment(kind, cfg)
            hashes.append(_output_hashes(cfg.out))
        assert hashes[0] == hashes[1] == hashes[2]
    _pass("criterion 8: gamma and diagnose-fpk outputs byte-identical under 1, 2 and 8 workers")
