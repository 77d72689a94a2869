import contextlib
import copy
import csv
import dataclasses
import inspect
import io
import json
import math
import multiprocessing
import multiprocessing.connection
import operator
import os
import pathlib
import pickle
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfresnet.cli as cli
import mfresnet.fpk as fpk
import mfresnet.objective as objective
import mfresnet.sde as sde
import mfresnet.trainer as trainer
from mfresnet import ControlGrid, FixedPointConfig, ModelParams, TrainConfig
from mfresnet.cli import (
    EXPERIMENTS,
    SPEARMAN_MAX_N,
    ExperimentConfig,
    _plan,
    default_law,
    gradcheck_case_error,
    main,
    run_experiment,
    spearman_negative_p,
)
from mfresnet.errors import (BoundViolation, ConfigInvalid, DimensionMismatch, Diverged, GradCheckFailed, MfresnetError,
                             NoConvergence, NoDescentProgress, WorkerLost)
from mfresnet.fpk import check_band
from mfresnet.rng import split_seed

from conftest import spearman_negative_p_enumerated


def _small_cfg(tmp_path, **overrides):
    cfg = ExperimentConfig(model=ModelParams(), initial_law=default_law(),
                           out=str(tmp_path / "out"), seed=5)
    return dataclasses.replace(cfg, **overrides)


def _default_section(name):
    """One section of the default config as JSON data."""
    return ExperimentConfig().to_dict()[name]


def test_config_roundtrip(tmp_path):
    cfg = _small_cfg(tmp_path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.config_hash() == cfg.config_hash()


def test_config_checks_itself_when_built_in_code(scalar_law):
    """A config built in code, or changed by dataclasses.replace, is checked
    like one read from JSON, with the same error types."""
    with pytest.raises(BoundViolation):
        ExperimentConfig(initial_law=dataclasses.replace(scalar_law, x_high=[100.0]))
    wide = dataclasses.replace(ModelParams(), dims=dataclasses.replace(ModelParams().dims, d=2))
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(ExperimentConfig(), model=wide)
    with pytest.raises(ConfigInvalid):
        dataclasses.replace(ExperimentConfig(), seed=True)


def test_config_fields_cannot_be_assigned():
    """The config is frozen, so no field can change past its checks."""
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_particles = 0
    assert cfg.n_particles == 100


PINNED_HASHES = {
    None: "8a309a0042bc2abc",
    "scripts/coupled_simulation.json": "3e74183a79f1658c",
    "scripts/fpk_diagnostic.json": "c3d66014bbd626a9",
    "scripts/gamma_experiment.json": "158ca995f380527f",
    "benchmarks/workloads/gamma-ladder.json": "2a638d794be32b5a",
    "benchmarks/workloads/fpk-coupled-w2.json": "e41595e0c3a73878",
    "benchmarks/workloads/fpk-scalar.json": "b00bc0271bcc885a",
    "benchmarks/workloads/limit-solve.json": "cf55da49e16e75e4",
}
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_config_hash_is_pinned():
    """The hash of the default config and of every committed config, as
    recorded in the CSV headers and digests of earlier runs."""
    for path, expected in PINNED_HASHES.items():
        cfg = ExperimentConfig() if path is None else ExperimentConfig.from_json(ROOT / path)
        assert cfg.config_hash() == expected, path


def test_partial_model_section_takes_the_default_model():
    """A model section that leaves out every key runs the problem of a config
    with no model section: the model has one set of defaults."""
    partial = ExperimentConfig.from_dict({"model": {"dims": {}}})
    whole = ExperimentConfig.from_dict({})
    assert partial.model == whole.model == ModelParams()
    assert partial.to_dict() == whole.to_dict()
    assert partial.config_hash() == whole.config_hash()


def _leaf_paths(data, path=()):
    """The path (keys, then list indices) of every leaf of JSON data."""
    if isinstance(data, dict):
        return [leaf for key, value in data.items() for leaf in _leaf_paths(value, path + (key,))]
    if isinstance(data, list):
        return [leaf for i, value in enumerate(data) for leaf in _leaf_paths(value, path + (i,))]
    return [path]


def _with_leaf_changed(cfg, path):
    """A copy of cfg with the leaf at path changed, set past the checks."""
    cfg = copy.deepcopy(cfg)
    owner, names = cfg, list(path)
    while dataclasses.is_dataclass(getattr(owner, names[0])):
        owner = getattr(owner, names.pop(0))
    name, index = names[0], tuple(names[1:])
    value = getattr(owner, name)
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, str):
        value = value + "x"
    elif isinstance(value, tuple):
        value = tuple(v + 1 if i == index[0] else v for i, v in enumerate(value))
    elif isinstance(value, np.ndarray):
        value = value.copy()
        value[index] += 1.0
    else:
        value = value + 1
    object.__setattr__(owner, name, value)
    return cfg


def test_config_hash_reads_every_leaf():
    """Changing any one leaf value of the config tree changes the hash, unless
    it is an execution detail (workers, out, dump_trajectories)."""
    for cfg in (ExperimentConfig(), ExperimentConfig.from_json(ROOT / "scripts/coupled_simulation.json")):
        paths = _leaf_paths(cfg.to_dict())
        assert len(paths) > 40
        for path in paths:
            changed = _with_leaf_changed(cfg, path)
            assert changed.to_dict() != cfg.to_dict(), path
            if path[0] in ("workers", "out", "dump_trajectories"):
                assert changed.config_hash() == cfg.config_hash(), path
            else:
                assert changed.config_hash() != cfg.config_hash(), path


def _leaf(data, path):
    for key in path:
        data = data[key]
    return data


# the path of every numeric field (not a list entry) of the default config: top level, train, fixed_point,
# model, activation and dims
NUMERIC_FIELDS = [path for path in _leaf_paths(ExperimentConfig().to_dict())
                  if all(isinstance(key, str) for key in path)
                  and type(_leaf(ExperimentConfig().to_dict(), path)) in (int, float)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NUMERIC_FIELDS),
       st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf])))
def test_a_bad_numeric_field_is_refused_by_name(path, value):
    """A string, None, a bool, nan or an infinity in place of any one numeric
    field of the default config either builds a config or ends as an
    MfresnetError whose message names the field: never as a bare TypeError
    from comparing the value with a bound."""
    assert len(NUMERIC_FIELDS) == 31
    data = ExperimentConfig().to_dict()
    _leaf(data, path[:-1])[path[-1]] = value
    try:
        ExperimentConfig.from_dict(data)
    except MfresnetError as exc:
        assert re.search(rf"\b{path[-1]}\b", str(exc)) and "TypeError" not in str(exc), (path, value, exc)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"not_a_key": 1})


def test_config_hash_ignores_execution_details(tmp_path):
    a = _small_cfg(tmp_path, workers=1)
    b = _small_cfg(tmp_path, workers=8, out=str(tmp_path / "elsewhere"))
    assert a.config_hash() == b.config_hash()
    c = _small_cfg(tmp_path, seed=6)
    assert c.config_hash() != a.config_hash()


def test_spearman_exact_p_values():
    rho, p = spearman_negative_p([4.0, 3.0, 2.0, 1.0])
    assert rho == pytest.approx(-1.0)
    assert p == pytest.approx(1.0 / 24.0)
    rho_up, p_up = spearman_negative_p([1.0, 2.0, 3.0, 4.0])
    assert rho_up == pytest.approx(1.0)
    assert p_up == pytest.approx(1.0)
    # the integer count gives the enumeration's (rho, p) exactly, ties included
    gen = np.random.default_rng(17)
    for n in range(2, SPEARMAN_MAX_N + 1):
        for values in (gen.integers(0, n, size=n).astype(float), gen.normal(size=n)):
            assert repr(spearman_negative_p(values)) == repr(spearman_negative_p_enumerated(values)), values


def test_simulate_writes_outputs(tmp_path):
    cfg = _small_cfg(tmp_path, n_particles=10, n_steps=8, dump_trajectories=True)
    run_experiment("simulate", cfg)
    out = pathlib.Path(cfg.out)
    for name in ("cost.csv", "summary.txt", "trajectories.csv"):
        assert (out / name).exists()
    assert not list(out.glob("*.tmp"))
    header = (out / "cost.csv").read_text().splitlines()[0]
    assert header == f"# config_hash={cfg.config_hash()}"


def test_dump_trajectories_roundtrip(tmp_path, coupled_params, coupled_law):
    """trajectories.csv reads back as the ensemble's states, and has the
    bytes csv.writer writes for its rows: CRLF line ends, no quoting."""
    cfg = _small_cfg(tmp_path, model=coupled_params, initial_law=coupled_law,
                     n_particles=3, n_steps=5, dump_trajectories=True)
    payload, _ = run_experiment("simulate", cfg)
    ens = payload["ensemble"]
    path = pathlib.Path(cfg.out) / "trajectories.csv"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3
    for row in rows:
        k = int(round(float(row["t"]) / ens.theta.dt))
        i = int(row["particle_id"])
        assert float(row["x0"]) == ens.X[i, k, 0]
        assert float(row["z1"]) == ens.Z[i, k, 1]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "particle_id", "x0", "x1", "z0", "z1"])
    for k, t in enumerate(ens.theta.t_grid):
        for i in range(ens.n_particles):
            writer.writerow([repr(float(t)), i] + [repr(float(v)) for v in ens.X[i, k]]
                            + [repr(float(v)) for v in ens.Z[i, k]])
    assert path.read_bytes() == expected.getvalue().encode()


def test_train_outputs_and_history(tmp_path):
    cfg = _small_cfg(tmp_path, n_particles=20, train=TrainConfig(n_intervals=8, max_iters=10))
    payload, _ = run_experiment("train", cfg)
    hist = (pathlib.Path(cfg.out) / "history.csv").read_text().splitlines()
    assert len(hist) == len(payload["result"].history) + 2  # hash + header rows
    totals = [float(line.split(",")[1]) for line in hist[2:]]
    assert totals == sorted(totals, reverse=True)


def test_main_cli_roundtrip(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    json.dump({"n_particles": 10, "n_steps": 8}, open(cfgfile, "w"))
    code = main(["simulate", str(cfgfile), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert code == 0
    assert "experiment: simulate" in capsys.readouterr().out


def test_main_reports_domain_errors(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    model = _default_section("model")
    model["activation"]["z_weight"] = 0.5  # invalid wiring with q = 0
    law = _default_section("initial_law")
    law["x_low"], law["x_high"] = [0.5, 0.5], [1.5, 1.5]  # a d=2 law under the d=1 model
    law["y_low"], law["y_high"] = [-0.5, -0.5], [0.5, 0.5]
    for bad in ({"model": model}, {"initial_law": law}):
        cfgfile.write_text(json.dumps(bad))
        code = main(["simulate", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "DimensionMismatch" in capsys.readouterr().err
    # bad sample sizes, from the config file or from --n-list
    small = {"n_list": [5, 10], "n_draws": 1, "seeds_per_n": 1, "m_paths": 50, "n_steps": 4,
             "train": {"n_intervals": 4, "max_iters": 2}, "fixed_point": {"mc_paths": 50}}
    bad_sizes = [
        ("gamma", {}, ["--n-list", "50,abc"]),
        ("gamma", {"n_list": [0, 50]}, []),
        ("diagnose-fpk", {"n_list": [0, 50]}, []),
        ("gamma", {"n_list": [50, 50]}, []),
        ("gamma", {"n_list": [50.5, 200]}, []),
        ("gamma", {"n_list": [True, 50]}, []),
        ("gamma", {"n_list": "12"}, []),
        ("gamma", {"n_list": ["5", "10"]}, []),
        ("gamma", {"n_list": [50, 10**400]}, []),
        ("diagnose-fpk", {}, ["--n-list", "50,20"]),
        # one size gives no log-log slope
        ("diagnose-fpk", {"n_list": [20]}, []),
        ("gamma", {"n_draws": 0}, []),
        ("diagnose-fpk", {"seeds_per_n": 0}, []),
        ("simulate", {"n_particles": 0}, []),
        ("gamma", {"m_paths": 0}, []),
        ("simulate", {"n_steps": 0}, []),
    ]
    for command, bad, flags in bad_sizes:
        cfgfile.write_text(json.dumps({**small, **bad}))
        code = main([command, str(cfgfile), "--out", str(tmp_path / "o")] + flags)
        err = capsys.readouterr().err
        assert code == 1, (command, bad, flags)
        assert "ConfigInvalid" in err and "Traceback" not in err, (command, bad, flags, err)
    # malformed values and costs without bound, each refused before any work
    activation = dict(_default_section("model"), activation={"kind": "tanh", "gain": 2.0})
    eta_weight = dict(_default_section("model"),
                      activation=dict(_default_section("model")["activation"], eta_weight="a"))
    law = _default_section("initial_law")
    type_vector = dict(law, type_vector=dict(law["type_vector"], foo=1))
    model = _default_section("model")

    def with_type(**entries):
        return {"initial_law": dict(law, type_vector=dict(law["type_vector"], **entries))}
    coupled = dict(json.loads((ROOT / "scripts/coupled_simulation.json").read_text()),
                   fixed_point={"mc_paths": 400000})
    malformed = [
        ("train", {"train": {"foo": 1}}, "ConfigInvalid"),
        ("train", {"fixed_point": {"bar": 2}}, "ConfigInvalid"),
        ("gradcheck", {"model": activation}, "ConfigInvalid"),
        ("train", {"seed": "abc"}, "ConfigInvalid"),
        ("train", {"train": {"n_intervals": "8"}}, "ConfigInvalid"),
        ("gradcheck", {"workers": "2"}, "ConfigInvalid"),
        ("solve-limit", {"fixed_point": {"mc_paths": 0}}, "NonPositiveWeight"),
        ("solve-limit", {"fixed_point": {"damping": 0}}, "NonPositiveWeight"),
        ("solve-limit", {"fixed_point": {"damping": 1.5}}, "NonPositiveWeight"),
        ("train", {"train": {"max_iters": "5"}}, "ConfigInvalid"),
        ("train", {"train": {"n_intervals": 2.5}}, "ConfigInvalid"),
        ("solve-limit", {"fixed_point": {"outer_iters": "3"}}, "ConfigInvalid"),
        ("train", {"train": {"step_floor": "a"}}, "unexpected keyword argument 'step_floor'"),
        ("solve-limit", {"fixed_point": {"n_intervals": -5}}, "ConfigInvalid"),
        ("diagnose-fpk", {"phi_radius": "x"}, "ConfigInvalid"),
        # radii whose squares overflow, or round to zero
        ("diagnose-fpk", {"phi_radius": 1e200}, "ConfigInvalid"),
        ("diagnose-fpk", {"phi_radius": 1e-320}, "ConfigInvalid"),
        # integers too large for a float, or for a numpy size, each named
        ("diagnose-fpk", {"phi_radius": 10**400}, "ConfigInvalid: phi_radius"),
        ("simulate", {"n_particles": 10**400}, "ConfigInvalid: n_particles"),
        ("simulate", {"model": dict(_default_section("model"), dims={"d": 10**400})}, "ConfigInvalid: dims.d"),
        ("train", {"model": dict(_default_section("model"), alpha=10**400)}, "NonPositiveWeight: alpha"),
        ("train", {"train": {"armijo_c": "a"}}, "unexpected keyword argument 'armijo_c'"),
        ("simulate", {"model": eta_weight}, "ConfigInvalid"),
        # booleans are not numbers here
        ("simulate", {"n_particles": True}, "ConfigInvalid"),
        ("train", {"train": {"max_iters": True}}, "ConfigInvalid"),
        ("diagnose-fpk", {"phi_radius": True}, "ConfigInvalid"),
        ("simulate", {"seed": True}, "ConfigInvalid"),
        ("simulate", {"model": dict(_default_section("model"), alpha=True)}, "ConfigInvalid"),
        ("simulate", {"model": dict(_default_section("model"), dims={"p": True})}, "ConfigInvalid"),
        ("solve-limit", {"fixed_point": {"damping": True}}, "ConfigInvalid"),
        ("simulate", {"dump_trajectories": "no"}, "ConfigInvalid"),
        # a value of the wrong type, checked before any bound is compared with it
        ("train", {"train": {"shrink": "0.5"}}, "unexpected keyword argument 'shrink'"),
        ("train", {"train": {"replications": "2"}}, "ConfigInvalid: train.replications"),
        ("solve-limit", {"fixed_point": {"mc_paths": "9"}}, "ConfigInvalid: fixed_point.mc_paths"),
        ("train", {"train": {"shrink": None}}, "unexpected keyword argument 'shrink'"),
        ("train", {"train": {"replications": None}}, "ConfigInvalid: train.replications"),
        ("solve-limit", {"fixed_point": {"mc_paths": None}}, "ConfigInvalid: fixed_point.mc_paths"),
        # an output directory that is not a non-empty path
        ("simulate", {"out": 5}, "ConfigInvalid"),
        ("simulate", {"out": ""}, "ConfigInvalid"),
        # JSON NaN, which every comparison with a bound lets through
        ("train", {"train": {"step_size": math.nan}}, "unexpected keyword argument 'step_size'"),
        ("train", {"train": {"grad_tol": math.nan}}, "unexpected keyword argument 'grad_tol'"),
        ("solve-limit", {"fixed_point": {"damping": math.nan}}, "NonPositiveWeight"),
        ("simulate", {"model": dict(_default_section("model"), K=math.nan)}, "BoundViolation"),
        ("train", {"model": dict(_default_section("model"), k_theta=math.nan)}, "BoundViolation"),
        # an unknown key inside the type vector
        ("simulate", {"initial_law": type_vector}, "ConfigInvalid"),
        # an unknown kind, a control width or a type vector that does not fit the model, and a model that is not
        # a JSON object
        ("simulate", {"model": dict(model, activation=dict(model["activation"], kind="relu"))},
         "DimensionMismatch: unknown activation kind"),
        ("simulate", {"model": dict(model, rho="max")}, "DimensionMismatch: unknown batch function"),
        ("simulate", {"model": dict(model, phi="grow")}, "DimensionMismatch: unknown exogenous drift"),
        ("simulate", {"model": dict(model, dims=dict(model["dims"], m=3))},
         "DimensionMismatch: the scalar-nonlinearity drift family uses m=2"),
        ("simulate", with_type(epsilon=[[0.3, 0.3]]), "DimensionMismatch: epsilon must be (d, p)"),
        ("simulate", with_type(gamma=[0.5]), "DimensionMismatch: gamma must be (l,)"),
        ("simulate", with_type(sigma=[[0.1]]), "DimensionMismatch: sigma must be (q, p)"),
        ("simulate", with_type(epsilon=[[math.nan]]), "BoundViolation: type vector entries must be finite"),
        ("simulate", {"initial_law": dict(law, kind="normal")}, "ConfigInvalid: unknown initial law kind"),
        ("simulate", {"model": None}, "ConfigInvalid: ModelParams needs a JSON object"),
        # the retired fixed-point seed and seed policy are unknown keys, at the values once accepted too
        ("solve-limit", {"fixed_point": {"seed_policy": "bogus"}}, "unexpected keyword argument 'seed_policy'"),
        ("solve-limit", {"fixed_point": {"seed_policy": "refresh"}}, "unexpected keyword argument 'seed_policy'"),
        ("solve-limit", {"fixed_point": {"seed_policy": "fixed"}}, "unexpected keyword argument 'seed_policy'"),
        ("solve-limit", {"fixed_point": {"seed": "a", "mc_paths": 50, "outer_iters": 2}},
         "unexpected keyword argument 'seed'"),
        ("solve-limit", {"fixed_point": {"seed": 5}}, "unexpected keyword argument 'seed'"),
        ("solve-limit", {"fixed_point": {"seed": 0}}, "unexpected keyword argument 'seed'"),
        # the retired line-search settings are unknown keys, among them a shrink and a first step that made
        # a search of millions of candidates
        ("train", {"train": {"shrink": 0.999999}},
         "ConfigInvalid: malformed config: TypeError: TrainConfig.__init__() got an unexpected keyword argument 'shrink'"),
        ("train", {"train": {"step_size": 1e300}},
         "ConfigInvalid: malformed config: TypeError: TrainConfig.__init__() got an unexpected keyword argument "
         "'step_size'"),
        # a model outside the limit problem, refused before the fixed point draws its paths
        ("solve-limit", coupled, "ScalarConfigRequired"),
        ("gamma", coupled, "ScalarConfigRequired"),
        # a grid step whose square rounds to zero, or a lambda2 so large that a solver's band overflows
        ("solve-limit", {"model": {"T": 1e-300}}, "ConfigInvalid: T=1e-300, lambda1=0.1 and lambda2=0.1 on 32"),
        ("solve-limit", {"model": {"lambda2": 1e308}}, "ConfigInvalid: T=1.0, lambda1=0.1 and lambda2=1e+308"),
        ("train", {"model": {"lambda2": 1e308}}, "ConfigInvalid: T=1.0, lambda1=0.1 and lambda2=1e+308"),
        # a Neumann band that is finite on the training grid and a preconditioner band that is not
        ("gamma", {"model": {"T": 40, "lambda2": 1e308}}, "ConfigInvalid: T=40, lambda1=0.1 and lambda2=1e+308 on 32"),
        # finite bands in which lambda1 is lost beside lambda2 / step^2, so that the matrix is singular
        ("solve-limit", {"model": {"T": 40, "lambda2": 1e308}}, "ConfigInvalid: T=40, lambda1=0.1 and lambda2=1e+308"),
        ("solve-limit", {"model": {"lambda2": 1e20}}, "ConfigInvalid: T=1.0, lambda1=0.1 and lambda2=1e+20 on 32"),
        ("train", {"model": {"lambda2": 1e20}}, "ConfigInvalid: T=1.0, lambda1=0.1 and lambda2=1e+20 on 32"),
        # a horizon whose grid step is 0, or so small that its reciprocal overflows, refused before any draw
        ("simulate", {"model": {"T": 5e-324}}, "ConfigInvalid: T = 5e-324 on n_steps = 32"),
        ("simulate", {"model": {"T": 1e-320}}, "ConfigInvalid: T = 1e-320 on n_steps = 32"),
        ("diagnose-fpk", {"model": {"T": 5e-324}}, "ConfigInvalid: T = 5e-324 on n_steps = 32"),
        ("diagnose-fpk", {"model": {"T": 1e-320}}, "ConfigInvalid: T = 1e-320 on n_steps = 32"),
        # a path table over the budget, refused before the first (small) size runs
        ("simulate", {"n_particles": 10**12}, "ConfigInvalid: n_particles"),
        ("solve-limit", {"fixed_point": {"mc_paths": 10**12}}, "ConfigInvalid: fixed_point.mc_paths"),
        ("diagnose-fpk", {"n_list": [10, 10**12]}, "ConfigInvalid: n_list"),
        # a plan of more units than MAX_UNITS, refused before it is listed
        ("diagnose-fpk", {"n_list": [5, 10], "seeds_per_n": 10**12, "n_steps": 4, "m_paths": 50},
         "ConfigInvalid: seeds_per_n"),
        # boundary derivatives of one interval, refused before the fixed point runs
        ("solve-limit", {"fixed_point": {"n_intervals": 1}}, "ConfigInvalid: fixed_point.n_intervals"),
    ]
    for command, bad, error in malformed:
        cfgfile.write_text(json.dumps(bad))
        start = time.perf_counter()
        code = main([command, str(cfgfile), "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0, (command, bad)
        err = capsys.readouterr().err
        assert code == 1, (command, bad)
        assert error in err and "Traceback" not in err, (command, bad, err)
        assert err.count("\n") == 1, (command, bad, err)
    # gamma reads no fixed_point.n_intervals and takes no boundary derivative, so one interval is valid there
    _plan("gamma", ExperimentConfig.from_dict({"fixed_point": {"n_intervals": 1}, "train": {"n_intervals": 1}}))
    # damping 1 is the undamped map, and valid
    assert ExperimentConfig.from_dict({"fixed_point": {"damping": 1.0}}).fixed_point.damping == 1.0
    # a config file that is not JSON, and one that does not exist
    cfgfile.write_text("{not json")
    for path in (cfgfile, tmp_path / "missing.json"):
        code = main(["train", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1, path
        assert "ConfigInvalid" in err and "Traceback" not in err, (path, err)


def test_an_out_that_cannot_be_a_directory_ends_before_any_unit_runs(tmp_path, capsys, monkeypatch):
    """--out naming an existing file, or a path under one, ends as
    ConfigInvalid naming out, with exit 1 and one stderr line, before any
    unit runs; the file is left as it was."""
    ran = []
    monkeypatch.setattr(cli, "_simulate_unit", ran.append)
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    for out in (existing, existing / "sub"):
        code = main(["simulate", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"ConfigInvalid: out = {str(out)!r} ") and err.count("\n") == 1, err
    assert ran == [] and existing.read_text() == "kept\n"


def test_run_experiment_builds_each_plan_once(tmp_path, monkeypatch):
    """run_experiment builds the plan of each of the six commands once and
    hands that list to the command, whose units run on it; an out that
    cannot be made a directory still ends after the plan, before any unit runs."""
    planned, ran = [], []
    plan, run_units = cli._plan, cli._run_units
    monkeypatch.setattr(cli, "_plan", lambda kind, cfg: planned.append((kind, plan(kind, cfg))) or planned[-1][1])
    monkeypatch.setattr(cli, "_run_units", lambda units, workers: ran.append(units) or run_units(units, workers))
    cfg = _small_cfg(tmp_path, n_list=(5, 10), n_draws=2, seeds_per_n=1, m_paths=50, n_steps=4, n_particles=6,
                     fixed_point=FixedPointConfig(mc_paths=50, n_intervals=4),
                     train=TrainConfig(n_intervals=4, max_iters=2))
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    for kind in EXPERIMENTS:
        with pytest.raises(ConfigInvalid, match=r"^out = .* cannot be made a directory"):
            run_experiment(kind, dataclasses.replace(cfg, out=str(existing)))
        assert [k for k, _ in planned] == [kind] and ran == [], kind
        planned.clear()
        run_experiment(kind, cfg)
        assert [k for k, _ in planned] == [kind] and len(ran) == 1 and ran[0] is planned[0][1], kind
        planned.clear()
        ran.clear()
    assert existing.read_text() == "kept\n"


def test_a_zero_residual_gives_a_nan_slope_without_a_warning(tmp_path, capsys):
    """diagnose-fpk with no drift and no noise has a zero residual at every
    N: its log-log slope is nan, and the logarithm of zero warns nothing."""
    law = {"kind": "uniform", "x_low": [0.5], "x_high": [1.5], "y_low": [-0.5], "y_high": [0.5],
           "z_low": [], "z_high": [], "type_vector": {"epsilon": [[0.0]], "gamma": [], "sigma": []}}
    cfgfile = tmp_path / "zero.json"
    cfgfile.write_text(json.dumps({"model": {"activation": {"kind": "zero"}}, "initial_law": law,
                                   "n_list": [10, 20], "seeds_per_n": 1, "n_steps": 8, "m_paths": 50}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["diagnose-fpk", str(cfgfile), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 0 and err == "", err
    assert "seed-mean sup residual per N: 10:0.0, 20:0.0\nlog-log slope nan\n" in out, out


def test_cost_bound_refuses_only_tables_over_the_budget():
    """A path table of exactly MAX_TABLE_DOUBLES doubles is accepted and one
    more path is refused, naming the fields; so are the replications that
    train holds at once, and a fixed point that gamma runs on the training grid."""
    n = cli.MAX_TABLE_DOUBLES // (32 * 2)   # 31 intervals give 32 nodes, 2 = max(d, q, p, m)
    _plan("simulate", ExperimentConfig(n_particles=n, n_steps=31))
    with pytest.raises(ConfigInvalid, match=r"^n_particles = .* on n_steps = 31"):
        _plan("simulate", ExperimentConfig(n_particles=n + 1, n_steps=31))
    with pytest.raises(ConfigInvalid, match=r"^n_particles \* train.replications = 100000000 paths"):
        _plan("train", ExperimentConfig.from_dict({"train": {"replications": 10**6}}))
    with pytest.raises(ConfigInvalid, match=r"^fixed_point.mc_paths = .* on train.n_intervals = 10000"):
        _plan("gamma", ExperimentConfig.from_dict({"train": {"n_intervals": 10000},
                                                   "fixed_point": {"mc_paths": 20000}}))


@pytest.mark.parametrize("kind, bad, field", [
    ("simulate", {"n_steps": 10**12}, "n_steps"),
    ("diagnose-fpk", {"n_steps": 10**12}, "n_steps"),
    ("train", {"train": {"n_intervals": 10**12}}, "train.n_intervals"),
    ("gamma", {"train": {"n_intervals": 10**12}}, "train.n_intervals"),
    ("solve-limit", {"fixed_point": {"n_intervals": 10**12}}, "fixed_point.n_intervals"),
    ("gamma", {"n_draws": 10**12}, "n_draws"),
    ("diagnose-fpk", {"n_list": [5, 10**12]}, "n_list"),
    ("simulate", {"n_particles": 10**12}, "n_particles"),
])
def test_plan_builds_nothing_sized_by_the_config(kind, bad, field):
    """The plan refuses a grid or a path count of 10**12 as ConfigInvalid
    naming its field, before it builds anything of that size: a unit
    argument sized by the config (a reference control on n_steps, say)
    would end in MemoryError instead."""
    with pytest.raises(ConfigInvalid, match=rf"(^|on ){re.escape(field)}\b"):
        _plan(kind, ExperimentConfig.from_dict(bad))


def test_cost_bound_reads_only_the_tables_of_its_command():
    """Each command is held to the tables it builds: 7000 steps are cheap for
    simulate's 100 particles, though diagnose-fpk's W2 cloud on that grid is
    over the budget, and 1400 training intervals are cheap for train, which
    reads no m_paths, though gamma's limit cost of m_paths on them is not."""
    long_run = ExperimentConfig(n_steps=7000)
    _plan("simulate", long_run)
    with pytest.raises(ConfigInvalid, match=r"^min\(m_paths, 20000\) = 20000 paths on n_steps = 7000"):
        _plan("diagnose-fpk", long_run)
    fine_train = ExperimentConfig.from_dict({"train": {"n_intervals": 1400}})
    _plan("train", fine_train)
    with pytest.raises(ConfigInvalid, match=r"^m_paths = 100000 paths on train.n_intervals = 1400"):
        _plan("gamma", fine_train)
    for kind in ("solve-limit", "gradcheck"):
        _plan(kind, long_run)
        _plan(kind, fine_train)


def test_simulate_runs_a_grid_that_other_commands_could_not_afford(tmp_path, capsys):
    """The long simulate run is not refused on another command's table."""
    cfgfile = tmp_path / "long.json"
    cfgfile.write_text(json.dumps({"n_steps": 7000}))
    assert main(["simulate", str(cfgfile), "--out", str(tmp_path / "o")]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("path", sorted([*ROOT.glob("scripts/*.json"), *ROOT.glob("benchmarks/workloads/*.json")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_shipped_configs_pass_the_cost_and_band_checks(path):
    """Every committed config loads, each path table that any command would
    build from it fits MAX_TABLE_DOUBLES, and the Neumann and preconditioner
    bands on both of its grids are finite: neither check refuses a shipped config."""
    cfg = ExperimentConfig.from_json(path)
    for kind in EXPERIMENTS:
        _plan(kind, cfg)
    for n_intervals in (cfg.train.n_intervals, cfg.fixed_point.n_intervals):
        grid = ControlGrid.zeros(cfg.model.T, n_intervals, m=cfg.model.dims.m)
        check_band(fpk._neumann_band, cfg.model, grid)
        check_band(trainer._precondition_band, cfg.model, grid)


def test_gamma_rejects_long_n_list_at_once(tmp_path, capsys):
    """The exact Spearman test ranks the sample sizes and enumerates n!
    rankings, so gamma refuses fewer than two or more than eight sample
    sizes before doing any work."""
    for n_list in ("1,2,3,4,5,6,7,8,9", "20"):
        start = time.perf_counter()
        code = main(["gamma", "--out", str(tmp_path / "o"), "--n-list", n_list])
        assert time.perf_counter() - start < 1.0, n_list
        assert code == 1, n_list
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and "Traceback" not in err, (n_list, err)


def test_diagnose_fpk_simulates_once_per_unit_when_d_exceeds_one(tmp_path, monkeypatch,
                                                                 coupled_params, coupled_law):
    """W2 is one-dimensional, so a d=2 run writes nan there and simulates no
    reference ensemble: one Euler pass per (case, N, seed) unit."""
    calls = []
    euler = sde.euler_nodes

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return euler(*args, **kwargs)

    monkeypatch.setattr(sde, "euler_nodes", counting)
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law, out=str(tmp_path / "d"),
                           n_list=(5, 10), seeds_per_n=2, n_steps=4, m_paths=50)
    payload, _ = run_experiment("diagnose-fpk", cfg)
    assert len(payload["rows"]) == 8
    assert sorted(calls) == [5] * 4 + [10] * 4
    assert all(np.isnan(row[4]) for row in payload["rows"])


def test_run_units_returns_results_in_unit_order(monkeypatch):
    """_run_units calls each unit's function on the unit's arguments and
    returns the results in unit order, in series and on two processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for workers in (1, 2):
        assert cli._run_units([(operator.mul, (u, u + 1), []) for u in range(6)], workers) == [0, 2, 6, 12, 20, 30]
        assert cli._run_units([], workers) == []


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block, which a hang would otherwise never leave, after seconds."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_numerical_errors_survive_a_pickle_round_trip():
    """Diverged, NoDescentProgress, NoConvergence and GradCheckFailed rebuild from their
    pickle with their message and fields, so that an error raised in a worker
    process reaches the parent."""
    for exc in (Diverged("paths diverged", seed=3, step=4, particle=5),
                NoDescentProgress("no descent", seed=[3, 8], iteration=7),
                NoConvergence("no convergence", [0.5, 0.25]),
                GradCheckFailed("over budget", case=15, case_seed=2526832195972704490)):
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc) and again.args == exc.args and vars(again) == vars(exc), exc
        assert str(again) == str(exc)


def _diverging_unit(seed):
    raise Diverged("paths diverged", seed=seed, step=2, particle=1)


def test_a_worker_error_reaches_the_parent(monkeypatch):
    """A unit that raises Diverged in a worker process raises the same
    Diverged, with its fields, in the parent, and does not hang it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    units = [(operator.neg, (1,), []), (_diverging_unit, (7,), []), (operator.neg, (2,), [])]
    with _deadline(20), pytest.raises(Diverged) as exc:
        cli._run_units(units, 2)
    assert (exc.value.seed, exc.value.step, exc.value.particle) == (7, 2, 1)
    assert str(exc.value) == "paths diverged (seed 7, step 2, particle 1)"
    assert multiprocessing.active_children() == []


def _killed_unit(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_ends_the_run(tmp_path, capsys, monkeypatch):
    """A unit whose worker process a signal kills raises WorkerLost in the
    parent, naming the first unit not returned, where a multiprocessing
    Pool would wait for ever; main ends with exit 1 and one stderr line, and
    no worker is left running."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    units = [(_killed_unit, (), []), (operator.neg, (1,), []), (operator.neg, (2,), [])]
    with _deadline(20), pytest.raises(WorkerLost, match=r"exit code -9 before unit 0 of 3 \(_killed_unit\) returned$"):
        cli._run_units(units, 2)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(cli, "_diagnose_unit", _killed_unit)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_list": [5, 10], "seeds_per_n": 2, "n_steps": 4, "m_paths": 50}))
    with _deadline(20):
        code = main(["diagnose-fpk", str(cfgfile), "--out", str(tmp_path / "o"), "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("WorkerLost: worker process ") and err.count("\n") == 1, err
    assert multiprocessing.active_children() == []


def test_a_worker_killed_while_idle_ends_the_run(monkeypatch):
    """A worker killed while it waits for its next unit, where a signal from
    outside may well find it, ends the run as WorkerLost too, naming the
    unit still running, and no worker is left.  (A multiprocessing Pool hung
    here: the dead worker held the lock of the task queue, which the Pool's
    terminate waits for.)  The second worker started runs unit 1 and is then
    idle."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def kill_idle():
        os.kill(max(child.pid for child in multiprocessing.active_children()), signal.SIGKILL)

    timer = threading.Timer(0.5, kill_idle)
    timer.start()
    try:
        with _deadline(20), pytest.raises(WorkerLost, match=r"before unit 0 of 2 \(sleep\) returned$"):
            cli._run_units([(time.sleep, (10,), []), (operator.neg, (1,), [])], 2)
    finally:
        timer.join()
    assert multiprocessing.active_children() == []


def _unit_killed_in_its_reply():
    """A 4 MiB array, whose reply the worker dies in: the next send over
    1 MiB writes its 4-byte length header and half its payload, and then the
    worker SIGKILLs itself.  (multiprocessing writes a reply over 16 KiB in
    two writes, header then payload.)"""
    def send_half_and_die(self, buf):
        if len(buf) > 2**20:
            self._send(struct.pack("!i", len(buf)))
            self._send(buf[:len(buf) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        send_bytes(self, buf)

    send_bytes = multiprocessing.connection.Connection._send_bytes
    multiprocessing.connection.Connection._send_bytes = send_half_and_die
    return np.zeros(2**19)


def test_a_worker_killed_in_its_reply_ends_the_run(monkeypatch):
    """A worker killed halfway through writing its reply ends the run as
    WorkerLost, naming its unit, and no worker is left: the worker owns the
    only copy of its pipe end, so the parent's read of the payload meets the
    end of the pipe instead of waiting for ever."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    units = [(_unit_killed_in_its_reply, (), []), (operator.neg, (1,), [])]
    with _deadline(20), pytest.raises(WorkerLost, match=r"exit code -9 before unit 0 of 2 \(_unit_killed_in_its_reply\)"):
        cli._run_units(units, 2)
    assert multiprocessing.active_children() == []


def _processes_running(marker):
    """The ids of the processes whose command line holds marker."""
    found = []
    for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if marker.encode() in cmdline.read_bytes():
                found.append(int(cmdline.parent.name))
        except OSError:   # the process ended while it was read
            pass
    return found


def test_workers_end_when_their_parent_is_killed():
    """The worker processes of a parent that is killed end on their own:
    each closes its copies of the parent's pipe ends, so the parent's death
    ends its pipe.  A fresh interpreter runs two units on two workers, the
    first of which kills it."""
    marker = f"mfresnet-orphan-check-{os.getpid()}-{time.monotonic_ns()}"
    code = (f"# {marker}\nimport operator, os, signal\nfrom mfresnet import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli._run_units([(os.kill, (os.getpid(), signal.SIGKILL), []), (operator.neg, (1,), [])], 2)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(pathlib.Path(cli.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL, timeout=60)
    assert run.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 10
    try:
        while _processes_running(marker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _processes_running(marker) == []
    finally:
        for pid in _processes_running(marker):
            os.kill(pid, signal.SIGKILL)


def test_an_error_in_a_worker_ends_main_as_in_series(tmp_path, capsys, monkeypatch):
    """A config whose paths diverge ends main with exit 1 and the one stderr
    line of a serial run at --workers 2 too: no traceback and no hang."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_list": [5, 10], "seeds_per_n": 2, "n_steps": 4, "m_paths": 50,
                                   "model": {"activation": {"kind": "affine"}, "T": 1e100}}))
    errors = []
    for workers in ("1", "2"):
        with _deadline(60), np.errstate(over="ignore", invalid="ignore"):
            code = main(["diagnose-fpk", str(cfgfile), "--out", str(tmp_path / "o"), "--workers", workers])
        errors.append(capsys.readouterr().err)
        assert code == 1, workers
    assert errors[0] == errors[1] and errors[0].startswith("Diverged: ") and errors[0].count("\n") == 1, errors


def test_a_pooled_run_leaves_no_worker_behind(tmp_path, monkeypatch, coupled_params, coupled_law):
    """After a diagnose-fpk on two worker processes no child process is left
    running: a benchmark would count a leftover worker as a failure."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law, out=str(tmp_path / "d"), workers=2,
                           n_list=(5, 10), seeds_per_n=2, n_steps=4, m_paths=50)
    with _deadline(60):
        run_experiment("diagnose-fpk", cfg)
    assert multiprocessing.active_children() == []


def test_one_worker_imports_no_multiprocessing(tmp_path):
    """A diagnose-fpk at --workers 1, in a fresh interpreter, runs its units
    in series and never imports multiprocessing."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n_list": [5, 10], "seeds_per_n": 2, "n_steps": 4, "m_paths": 50}))
    argv = ["diagnose-fpk", str(cfgfile), "--out", str(tmp_path / "o"), "--workers", "1"]
    code = f"import sys; from mfresnet.cli import main; code = main({argv!r}); print(code, 'multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(pathlib.Path(cli.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False"


def test_run_units_starts_at_most_one_process_per_core_and_unit(monkeypatch):
    """workers = 10**6 asks the fork context for no more processes than the
    usable cores, nor more than the plan has units, and one unit runs in
    series; a fake Process records each process asked for and starts none."""
    class Asked(Exception):
        pass

    asked = []

    class Process:
        pid = None

        def __init__(self, *args, **kwargs):
            asked.append(1)

        def start(self):
            raise Asked

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", Process)
    for cores in (len(os.sched_getaffinity(0)), 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: set(range(cores)))
        for n_units in (1, 3, 20):
            asked.clear()
            units = [(operator.neg, (u,), []) for u in range(n_units)]
            expected = min(cores, n_units)
            if expected == 1:
                assert cli._run_units(units, 10**6) == [-u for u in range(n_units)]
            else:
                with pytest.raises(Asked):
                    cli._run_units(units, 10**6)
            assert len(asked) == (expected if expected > 1 else 0), (cores, n_units)


def test_diagnose_fpk_bytes_do_not_depend_on_workers(tmp_path, capsys, coupled_params, coupled_law):
    """diagnose-fpk writes the same bytes at --workers 1 and --workers 4."""
    cfgfile = tmp_path / "cfg.json"
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law, n_list=(5, 10), seeds_per_n=2,
                           n_steps=4, m_paths=50)
    cfgfile.write_text(json.dumps(cfg.to_dict()))
    written = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        assert main(["diagnose-fpk", str(cfgfile), "--out", str(out), "--workers", workers]) == 0
        written.append((out / "diagnose_fpk.csv").read_bytes())
    capsys.readouterr()
    assert written[0] == written[1]


def _leaves(result):
    """A unit result as a flat list, each array as its dtype, shape and bytes
    and each other value by repr, so that two results compare byte for byte
    however their objects share references (an array unpickled from a
    config does not share its dtype object with a new array)."""
    if dataclasses.is_dataclass(result):
        return _leaves([getattr(result, field.name) for field in dataclasses.fields(result)])
    if isinstance(result, np.ndarray):
        return [(result.dtype.str, result.shape, result.tobytes())]
    if isinstance(result, (list, tuple)):
        return [(type(result).__name__, len(result))] + [leaf for item in result for leaf in _leaves(item)]
    return [repr(result)]


def test_units_are_picklable_module_level_functions(tmp_path, monkeypatch):
    """Every command hands _run_units module-level functions and tuples of
    picklable arguments, so that the units could run in worker processes
    under any start method: both survive pickling, and each unpickled
    function on its first unpickled arguments gives the bytes of the result
    computed in this process, which survives pickling too."""
    calls = []
    run_units = cli._run_units

    def recording(units, workers):
        results = run_units(units, workers)
        calls.append((units, list(results)))
        return results

    monkeypatch.setattr(cli, "_run_units", recording)
    cfg = _small_cfg(tmp_path, n_list=(5, 10), n_draws=2, seeds_per_n=1, m_paths=50, n_steps=4, n_particles=6,
                     fixed_point=FixedPointConfig(mc_paths=50, n_intervals=4),
                     train=TrainConfig(n_intervals=4, max_iters=2))
    for kind in EXPERIMENTS:
        run_experiment(kind, cfg)
    assert [[fn.__name__ for fn in dict.fromkeys(fn for fn, _, _ in units)] for units, _ in calls] == [
        ["_simulate_unit"], ["_train_unit"], ["_solve_limit_unit"], ["_gamma_limit", "_gamma_unit"],
        ["_reference_cloud", "_diagnose_unit"], ["gradcheck_case_error"]]
    replayed = set()
    for units, results in calls:
        units_again = pickle.loads(pickle.dumps(units))
        assert len(units_again) == len(units) == len(results)
        for (fn, _, _), (fn_again, args_again, _), result in zip(units, units_again, results):
            assert vars(sys.modules[fn.__module__]).get(fn.__qualname__) is fn and fn_again is fn
            if fn not in replayed:
                replayed.add(fn)
                assert _leaves(fn_again(*args_again)) == _leaves(pickle.loads(pickle.dumps(result))), fn.__name__
    assert len(replayed) == 8


def test_each_plan_lists_every_table_its_units_build(tmp_path, monkeypatch):
    """Every Euler table that a command builds, stored, streamed or drawn as
    noise, is built inside a unit of the command's plan and fits a table
    that the unit lists: the same intervals and at least as many paths as
    rows.  So the cost bound, which reads the plans, bounds what each
    command runs."""
    calls, current = [], [None]

    def wrap(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            rows = (bound["n_paths"] * len(sde.problem_seeds(bound["seed"])) if name == "euler_noise"
                    else len(bound["samples"]))
            calls.append((kind, name, rows, bound["n_steps"], current[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, sde, objective, trainer, fpk):
        for name in ("simulate_particles", "stream_particles", "euler_noise"):
            if hasattr(module, name):
                wrap(module, name)
    run_units = cli._run_units

    def entered(fn, tables):
        def unit(*args):
            current[0] = tables
            try:
                return fn(*args)
            finally:
                current[0] = None
        return unit

    monkeypatch.setattr(cli, "_run_units", lambda units, workers: run_units(
        [(entered(fn, tables), args, tables) for fn, args, tables in units], workers))
    # a distinct grid and path count for every field the plans read
    cfg = _small_cfg(tmp_path, n_list=(5, 7), n_draws=2, seeds_per_n=1, m_paths=45, n_steps=5, n_particles=6,
                     fixed_point=FixedPointConfig(mc_paths=40, n_intervals=6),
                     train=TrainConfig(n_intervals=3, max_iters=2, replications=2))
    for kind in EXPERIMENTS:
        run_experiment(kind, cfg)
    assert {call[0] for call in calls} == set(EXPERIMENTS)
    for kind, name, rows, intervals, tables in calls:
        assert tables is not None, (kind, name, rows, intervals)
        assert any(grid == intervals and paths >= rows for _, paths, (_, grid) in tables), (
            kind, name, rows, intervals, tables)


def test_unit_results_own_their_data(tmp_path):
    """The reference cloud, every cloud a gamma or diagnose-fpk unit returns
    and the trained node values of a gamma unit own their data, so that a
    finished unit frees its trajectory buffer before the others finish."""
    cfg = _small_cfg(tmp_path, n_draws=2, m_paths=50, n_steps=4,
                     train=TrainConfig(n_intervals=4, max_iters=2))
    clouds = [cli._reference_cloud(cfg, cli._reference_theta(cfg.model, 4), "ref")]
    _, values, gamma_clouds = cli._gamma_unit(cfg, 5)
    clouds += gamma_clouds
    clouds.append(cli._diagnose_unit(cfg, "noisy", 5, 0)[1])
    assert len(clouds) == 4
    assert all(cloud.base is None for cloud in clouds)
    assert values.shape == (2, 5, cfg.model.dims.m) and values.base is None


def test_gamma_trains_the_draws_of_each_sample_size_as_one_batch(tmp_path, monkeypatch):
    """Every training simulation of gamma carries all draws of one N that are
    still training, and the terminal ensembles of one N are one simulation."""
    calls = []

    def counting(module):
        simulate = module.simulate_particles

        def wrapper(p, theta, samples, type_vector, n_steps, seed, noise=None):
            calls.append((module.__name__, len(samples), seed))
            return simulate(p, theta, samples, type_vector, n_steps, seed, noise)
        monkeypatch.setattr(module, "simulate_particles", wrapper)

    counting(cli)
    counting(trainer)
    cfg = _small_cfg(tmp_path, n_list=(5, 10), n_draws=3, m_paths=50,
                     fixed_point=FixedPointConfig(mc_paths=50),
                     train=TrainConfig(n_intervals=4, max_iters=20))
    run_experiment("gamma", cfg)
    draws = {n: [split_seed(cfg.seed, f"gamma-{n}-{draw}") for draw in range(cfg.n_draws)]
             for n in cfg.n_list}
    train_seeds = {n: [split_seed(s, "train") for s in seeds] for n, seeds in draws.items()}
    training = [(rows, seed) for name, rows, seed in calls if name == "mfresnet.trainer"]
    # each training simulation holds draws of one N, N samples each
    assert all(rows % len(seed) == 0 and set(seed) <= set(train_seeds[rows // len(seed)])
               for rows, seed in training)
    for n in cfg.n_list:
        rounds = [seed for rows, seed in training if rows // len(seed) == n]
        assert len(rounds) > 1 and rounds[0] == train_seeds[n]
        # a draw that trains in a round has trained in every round before it
        assert all(set(later) <= set(earlier) for earlier, later in zip(rounds, rounds[1:]))
        terminal = [seed for name, rows, seed in calls
                    if name == "mfresnet.cli" and rows == n * cfg.n_draws]
        assert terminal == [[split_seed(s, "terminal") for s in draws[n]]]


def test_gradcheck_draws_one_noise_table_per_case(monkeypatch):
    """The adjoint run and the two finite-difference runs of a case share
    one noise table, drawn once under the case's seed."""
    seeds = []
    table = sde.noise_table

    def counted(root_seed, *args):
        seeds.append(root_seed)
        return table(root_seed, *args)

    monkeypatch.setattr(sde, "noise_table", counted)
    cases = range(4)
    case_seeds = [gradcheck_case_error(c, 11)[3] for c in cases]
    assert seeds == case_seeds


def test_gradcheck_cli(tmp_path, capsys):
    code = main(["gradcheck", "--out", str(tmp_path / "gc"), "--seed", "11"])
    assert code == 0
    rows = (tmp_path / "gc" / "gradcheck.csv").read_text().splitlines()
    assert len(rows) == 22
    worst = max(float(r.split(",")[-1]) for r in rows[2:])
    assert worst < 1e-6


def test_gradcheck_failure_names_its_worst_case(tmp_path, capsys, monkeypatch):
    """A gradcheck over its error budget exits 1 with one stderr line that
    names the case with the worst error and its case_seed, from which
    gradcheck_case_error gives that error again; it writes no CSV."""
    monkeypatch.setattr(cli, "GRADCHECK_STEP", 0.5)
    code = main(["gradcheck", "--out", str(tmp_path / "gc"), "--seed", "11"])
    err = capsys.readouterr().err
    found = re.fullmatch(r"GradCheckFailed: worst relative error (\S+) exceeds 1e-3 "
                         r"\(case (\d+), case_seed (\d+)\)\n", err)
    assert code == 1 and found, err
    errors = [gradcheck_case_error(c, 11) for c in range(20)]
    case = max(range(20), key=lambda c: errors[c][0])
    assert int(found[2]) == case and int(found[3]) == errors[case][3] and found[1] == f"{errors[case][0]:.3e}"
    assert not (tmp_path / "gc" / "gradcheck.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    runs = [("simulate", {}, ["cost.csv"]),
            ("solve-limit", {"m_paths": 500, "fixed_point": FixedPointConfig(mc_paths=300, n_intervals=8)},
             ["theta_star.csv", "trace.csv"])]
    for command, overrides, names in runs:
        outs = []
        for run in ("a", "b"):
            cfg = _small_cfg(tmp_path, n_particles=10, n_steps=8, out=str(tmp_path / command / run), **overrides)
            run_experiment(command, cfg)
            outs.append([(pathlib.Path(cfg.out) / name).read_bytes() for name in names])
        assert outs[0] == outs[1], command
