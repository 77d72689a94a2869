"""Fast self-check of the benchmark (about half a minute).

    python3 benchmarks/selfcheck.py

At tiny sizes, runs every workload once untraced and once traced through
run.py and checks that:
- the last output line has exactly the keys correct, attempted, failed and
  metrics, with every run passing the CSV byte check;
- the untraced run reports every end-to-end metric of BENCHMARK.json and the
  traced run every per-layer metric, each with its unit;
- a layer that does not run on a workload reports zero calls, and every
  other traced layer reports some;
- the tracing overhead, the wrappers' own measured cost, is above zero;
- run.py fails without printing a result in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TRAINER = ["trainer.train", "trainer.value_and_gradient", "objective.evaluate_JN"]
FPK = ["fpk.fixed_point_solve", "fpk.estimate_G", "fpk.solve_neumann_bvp",
       "sde.simulate_augmented", "objective.evaluate_Jd"]
IDLE = {
    "gamma-ladder": ["measures.fpk_residual"],
    "limit-solve": TRAINER + ["measures.fpk_residual", "measures.wasserstein2_1d"],
    "fpk-scalar": TRAINER + FPK,
    "fpk-coupled-w2": TRAINER + FPK + ["measures.wasserstein2_1d"],
}


def result_of(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_metrics(where, result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, (where, result)
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec}, (where, sorted(set(got) ^ {m["name"] for m in spec}))
    for m in spec:
        assert got[m["name"]]["unit"] == m["unit"], (where, m["name"])
        assert isinstance(got[m["name"]]["value"], (int, float)), (where, m["name"])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base = [sys.executable, os.path.join(run.HERE, "run.py"), "--size", "tiny", "--seconds", "1"]
    for name in run.WORKLOADS:
        plain = result_of(base + ["--workload", name, "--seed", "0", "--trace", "0"], run.ROOT)
        check_metrics(f"{name} untraced", plain, bench["end_to_end"])
        for metric, entry in plain["metrics"].items():
            assert entry["value"] > 0, (name, metric)
        traced = result_of(base + ["--workload", name, "--seed", "0", "--trace", "1"], run.ROOT)
        check_metrics(f"{name} traced", traced, bench["per_layer"])
        calls = {m[:-len(".calls")]: v["value"] for m, v in traced["metrics"].items()
                 if m.endswith(".calls")}
        idle = set(IDLE[name])
        for layer, n in calls.items():
            if layer in idle:
                assert n == 0, f"{name}: {layer} ran {n} times but should not run"
            elif layer != "cli.run_experiment":
                assert n > 0, f"{name}: {layer} never ran"
        if "trainer.train" in idle:
            for metric in ("trainer.accepted_steps", "trainer.armijo_backtracks",
                           "trainer.sims_per_accepted_step"):
                assert traced["metrics"][metric]["value"] == 0, (name, metric)
        assert traced["metrics"]["trace.overhead_share"]["value"] > 0, name
        print(f"ok {name}: untraced wall {plain['metrics']['wall_s']['value']:.3f} s, "
              f"traced {len(traced['metrics'])} layer metrics, idle layers report 0 calls")

    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, ".work")) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", "limit-solve", "--seed", "0",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok: without the program's sources run.py fails and prints no result")


if __name__ == "__main__":
    main()
