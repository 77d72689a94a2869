"""Repeat the benchmark over seeds and record a baseline with its spread.

    python3 benchmarks/baseline.py

For each workload in BENCHMARK.json, runs run.py untraced once per seed
0..RUNS-1; for every workload of run.py, runs it traced once (seed 0); all
for BENCHMARK.json's run_seconds.  Two derived counts of the traced runs are
compared with the seed code's profile.  For every end-to-end
metric it records the median of the per-run values and their spread, the
distance between the first and third quartile over the median (the figure
BENCHMARK.json's bounds are set against).  Writes the machine block, those
figures and the traced per-layer metrics to benchmarks/BENCH_baseline.json.
"""
import json
import os
import subprocess
import sys

import run

RUNS = 10

# Derived counts compared with a profile of the seed code: about 61
# simulations for 17 accepted steps in train, and the fixed-seed fixed point
# drawing the same noise at every iteration.  A change that removes that
# work moves them out of range on purpose, so they are reported, not gated.
SANITY = {
    "gamma-ladder": {"trainer.sims_per_accepted_step": (3.0, 4.2)},
    "limit-solve": {"rng.noise_table.redundant_ratio": (0.5, 1.0)},
}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{cmd} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    repeated = {w["name"] for w in bench["workloads"]}
    doc = {"machine": run.machine_block(), "run_seconds": seconds, "runs": RUNS,
           "workloads": {}}
    for workload in run.WORKLOADS:
        entry = {"attempted": 0, "failed": 0}
        results = [one_run(workload, seed, seconds, 0) for seed in range(RUNS)] \
            if workload in repeated else []
        for metric in bench["end_to_end"] if results else []:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = run.quartiles(values)
            entry.setdefault("end_to_end", {})[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values}
            print(f"{workload:15s} {metric['name']:12s} median {med:9.4f}  spread {(q3 - q1) / med:.4f}"
                  f"  (bound {metric['bound']})", flush=True)
        traced = one_run(workload, 0, seconds, 1)
        results.append(traced)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for metric, (low, high) in SANITY.get(workload, {}).items():
            value = entry["per_layer"][metric]
            entry.setdefault("sanity", {})[metric] = {"value": value, "range": [low, high],
                                                      "ok": low <= value <= high}
            print(f"{workload:15s} sanity {metric} = {value:.4f} in [{low}, {high}]: "
                  f"{'ok' if low <= value <= high else 'FAILED'}", flush=True)
        entry["attempted"] = sum(r["attempted"] for r in results)
        entry["failed"] = sum(r["failed"] for r in results)
        print(f"{workload:15s} {entry['failed']} failed of {entry['attempted']} children", flush=True)
        doc["workloads"][workload] = entry
    with open(os.path.join(run.HERE, "BENCH_baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    failed = [w for w, e in doc["workloads"].items() if e["failed"]]
    if failed:
        sys.exit(f"failed runs on {failed}")


if __name__ == "__main__":
    main()
