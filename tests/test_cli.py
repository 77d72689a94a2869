import json
import pathlib
import time

import numpy as np
import pytest

import mfresnet.cli as cli
from mfresnet.cli import (
    ExperimentConfig,
    default_law,
    default_model,
    main,
    run_experiment,
    spearman_negative_p,
)
from mfresnet.errors import ConfigInvalid


def _small_cfg(tmp_path, **overrides):
    cfg = ExperimentConfig(model=default_model(), initial_law=default_law(),
                           out=str(tmp_path / "out"), seed=5)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_config_roundtrip(tmp_path):
    cfg = _small_cfg(tmp_path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.config_hash() == cfg.config_hash()


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


def test_simulate_writes_outputs(tmp_path):
    cfg = _small_cfg(tmp_path, n_particles=10, n_steps=8, dump_trajectories=True)
    run_experiment("simulate", cfg)
    out = pathlib.Path(cfg.out)
    for name in ("cost.csv", "summary.txt", "trajectories.csv"):
        assert (out / name).exists()
    assert not list(out.glob("*.tmp"))
    header = (out / "cost.csv").read_text().splitlines()[0]
    assert header == f"# config_hash={cfg.config_hash()}"


def test_train_outputs_and_history(tmp_path):
    cfg = _small_cfg(tmp_path, n_particles=20)
    cfg.train = type(cfg.train)(n_intervals=8, max_iters=10)
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
    model = default_model().to_dict()
    model["activation"]["z_weight"] = 0.5  # invalid wiring with q = 0
    law = default_law().to_dict()
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
        ("diagnose-fpk", {}, ["--n-list", "50,20"]),
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
    activation = dict(default_model().to_dict(), activation={"kind": "tanh", "gain": 2.0})
    malformed = [
        ("train", {"train": {"foo": 1}}, "ConfigInvalid"),
        ("train", {"fixed_point": {"bar": 2}}, "ConfigInvalid"),
        ("gradcheck", {"model": activation}, "ConfigInvalid"),
        ("train", {"seed": "abc"}, "ConfigInvalid"),
        ("train", {"train": {"n_intervals": "8"}}, "ConfigInvalid"),
        ("gradcheck", {"workers": "2"}, "ConfigInvalid"),
        ("train", {"n_particles": 20, "train": {"n_intervals": 4, "shrink": 1.0, "step_size": 1e9}},
         "NonPositiveWeight"),
        ("solve-limit", {"fixed_point": {"mc_paths": 0}}, "NonPositiveWeight"),
        ("train", {"train": {"max_iters": "5"}}, "ConfigInvalid"),
        ("train", {"train": {"n_intervals": 2.5}}, "ConfigInvalid"),
        ("solve-limit", {"fixed_point": {"outer_iters": "3"}}, "ConfigInvalid"),
        ("train", {"train": {"step_floor": "a"}}, "ConfigInvalid"),
        ("solve-limit", {"fixed_point": {"n_intervals": -5}}, "ConfigInvalid"),
        ("diagnose-fpk", {"phi_radius": "x"}, "ConfigInvalid"),
    ]
    for command, bad, error in malformed:
        cfgfile.write_text(json.dumps(bad))
        start = time.perf_counter()
        code = main([command, str(cfgfile), "--out", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0, (command, bad)
        err = capsys.readouterr().err
        assert code == 1, (command, bad)
        assert error in err and "Traceback" not in err, (command, bad, err)
    # a config file that is not JSON, and one that does not exist
    cfgfile.write_text("{not json")
    for path in (cfgfile, tmp_path / "missing.json"):
        code = main(["train", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1, path
        assert "ConfigInvalid" in err and "Traceback" not in err, (path, err)


def test_gamma_rejects_long_n_list_at_once(tmp_path, capsys):
    """The exact Spearman test enumerates n! rankings, so gamma refuses more
    than eight sample sizes before doing any work."""
    start = time.perf_counter()
    code = main(["gamma", "--out", str(tmp_path / "o"), "--n-list", "1,2,3,4,5,6,7,8,9"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "ConfigInvalid" in capsys.readouterr().err


def test_diagnose_fpk_simulates_once_per_unit_when_d_exceeds_one(tmp_path, monkeypatch,
                                                                 coupled_params, coupled_law):
    """W2 is one-dimensional, so a d=2 run writes nan there and simulates no
    reference ensemble: one simulation per (case, N, seed) unit."""
    calls = []
    simulate = cli.simulate_particles

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_particles", counting)
    cfg = ExperimentConfig(model=coupled_params, initial_law=coupled_law, out=str(tmp_path / "d"),
                           n_list=(5, 10), seeds_per_n=2, n_steps=4, m_paths=50)
    payload, _ = run_experiment("diagnose-fpk", cfg)
    assert len(payload["rows"]) == 8
    assert sorted(calls) == [5] * 4 + [10] * 4
    assert all(np.isnan(row[4]) for row in payload["rows"])


def test_gradcheck_cli(tmp_path, capsys):
    code = main(["gradcheck", "--out", str(tmp_path / "gc"), "--seed", "11"])
    assert code == 0
    rows = (tmp_path / "gc" / "gradcheck.csv").read_text().splitlines()
    assert len(rows) == 22
    worst = max(float(r.split(",")[-1]) for r in rows[2:])
    assert worst < 1e-6


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = _small_cfg(tmp_path, n_particles=10, n_steps=8, out=str(tmp_path / "a"))
    cfg2 = _small_cfg(tmp_path, n_particles=10, n_steps=8, out=str(tmp_path / "b"))
    run_experiment("simulate", cfg1)
    run_experiment("simulate", cfg2)
    a = (pathlib.Path(cfg1.out) / "cost.csv").read_bytes()
    b = (pathlib.Path(cfg2.out) / "cost.csv").read_bytes()
    assert a == b
