"""mfresnet benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is one mfresnet CLI
command on a config in benchmarks/workloads/.  This script runs it as child
processes, one at a time (a closed loop with a single client), until the
time budget is spent, and never with more workers than this process may
use cores.  Every child is one operation: it fails when it exits non-zero,
imports mfresnet from elsewhere than this checkout's src/, or writes any CSV
that differs by sha256 from the reference recorded from the seed code
(benchmarks/references.json).

--seed picks the program seed from the workload's pool of recorded seeds;
the program receives it only as `--seed`.  With --trace 0 the children run
untraced and the end-to-end metrics are reported as medians over children.
With --trace 1 untraced and traced children alternate; the per-layer
metrics come from the traced ones (medians over children), the tracing
overhead included.

A readable report goes to standard output first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""
import argparse
import copy
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> mfresnet command; the config is benchmarks/workloads/<name>.json
WORKLOADS = {
    "gamma-ladder": "gamma",
    "limit-solve": "solve-limit",
    "fpk-scalar": "diagnose-fpk",
    "fpk-coupled-w2": "diagnose-fpk",
}

# Program seeds besides the config's own.  Benchmark seed n runs program
# seed POOL[n % len(POOL)], where POOL = [config seed] + EXTRA_SEEDS.
EXTRA_SEEDS = [101, 202, 303, 404, 505, 606, 707]

# Overrides for --size tiny, used by the self-check (pool: config seed only).
TINY = {
    "gamma-ladder": {"n_list": [20, 40], "n_draws": 2, "m_paths": 2000,
                     "train": {"max_iters": 10}, "fixed_point": {"mc_paths": 500}},
    "limit-solve": {"m_paths": 2000, "fixed_point": {"mc_paths": 500}},
    "fpk-scalar": {"n_list": [50, 100], "seeds_per_n": 1, "n_steps": 50, "m_paths": 500},
    "fpk-coupled-w2": {"n_list": [50, 100], "seeds_per_n": 1, "n_steps": 50, "m_paths": 500},
}

# A child this slow is killed and counted as failed, so a run ends in time.
CHILD_TIMEOUT_S = 120


def _merge(base, overrides):
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def workload_config(name, size):
    with open(os.path.join(HERE, "workloads", f"{name}.json")) as fh:
        cfg = json.load(fh)
    return _merge(cfg, TINY[name]) if size == "tiny" else cfg


def seed_pool(cfg, size):
    return [cfg["seed"]] + (EXTRA_SEEDS if size == "full" else [])


def available_cores():
    return len(os.sched_getaffinity(0))


def csv_digests(out_dir):
    digests = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def src_line_count():
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def src_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine_block():
    """Cores, CPU, last-level cache, toolchain versions and source provenance."""
    import numpy
    import scipy

    cpuinfo = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpuinfo.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": available_cores(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpuinfo.get("model name", "unknown"),
        "last_level_cache": cpuinfo.get("cache size", "unknown"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest(),
        "src_lines": src_line_count(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def run_child(argv, work_dir, index, mode):
    """One child process in mode run or trace; returns its record."""
    out_dir = os.path.join(work_dir, f"out{index}")
    trace_file = os.path.join(work_dir, f"spans{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "",
           trace_file if mode == "trace" else mode, "--"] + argv + ["--out", out_dir]
    spawn_clock = time.monotonic()
    cmd[2] = repr(spawn_clock)
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:   # subprocess.run has killed and reaped it
        proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or "", f"timed out after {exc.timeout} s")
    record = {"mode": mode, "returncode": proc.returncode, "total_s": time.monotonic() - spawn_clock}
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        record["stderr"] = proc.stderr[-2000:]
    record["csv_sha256"] = csv_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    if mode == "trace" and os.path.exists(trace_file):
        from tracer import layer_metrics

        with open(trace_file) as fh:
            record["layers"] = layer_metrics(json.load(fh))
        os.remove(trace_file)
    return record


def child_ok(record, expected):
    """Exit code 0, the checkout's own sources and CSV bytes equal to the
    reference."""
    return (record["returncode"] == 0 and record.get("exit_code") == 0
            and record.get("module_file", "").startswith(SRC + os.sep)
            and record["csv_sha256"] == expected)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mfresnet", "cli.py")):
        sys.exit(f"error: no mfresnet sources under {SRC}; run from a source checkout")
    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)["csv_sha256"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    cfg = workload_config(args.workload, args.size)
    pool = seed_pool(cfg, args.size)
    program_seed = pool[args.seed % len(pool)]
    expected = references[args.workload][args.size][str(program_seed)]
    workers = min(cfg["workers"], available_cores())

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        argv = [WORKLOADS[args.workload], config_path, "--seed", str(program_seed),
                "--workers", str(workers)]
        # compile bytecode and warm the file cache before timing
        subprocess.run([sys.executable, "-c", "import mfresnet.cli"], env=child_env(),
                       cwd=ROOT, check=True)

        start = time.monotonic()
        children = []
        while True:
            need = {"run"} | ({"trace"} if args.trace else set())
            need -= {c["mode"] for c in children}
            # start another child only if it should end by about the deadline
            longest = max((c["total_s"] for c in children), default=0.0)
            if not need and time.monotonic() - start + longest / 2 > args.seconds:
                break
            mode = "trace" if args.trace and len(children) % 2 == 1 else "run"
            children.append(run_child(argv, work_dir, len(children), mode))
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(not child_ok(c, expected) for c in children)
    plain = [c for c in children if c["mode"] == "run" and "wall_s" in c]
    traced = [c for c in children if c["mode"] == "trace" and "layers" in c]
    if not plain or (args.trace and not traced):
        for c in children:
            sys.stderr.write(c.get("stderr", ""))
        sys.exit("error: no child completed a timed run")

    def median_of(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median(c["layers"][n] for c in traced) for n in names}
        metrics["cli.cpu_util"] = statistics.median(c["cpu_s"] / c["wall_s"] for c in plain)
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
    else:
        metrics = {key: median_of(plain, key) for key in ("wall_s", "setup_s", "peak_rss_mb")}

    print(f"workload {args.workload} ({args.size}): mfresnet {WORKLOADS[args.workload]}, "
          f"program seed {program_seed}, workers {workers}, "
          f"{len(children)} children ({len(traced)} traced) "
          f"in {elapsed:.1f} s, {failed} failed")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        values = [c[key] for c in plain]
        q1, q2, q3 = quartiles(values)
        print(f"  {key:12s} median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  (n={len(values)} untraced)")
    print(json.dumps({"correct": failed == 0, "attempted": len(children), "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in spec}}))


if __name__ == "__main__":
    main()
