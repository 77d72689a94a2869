"""Record the reference CSV digests that the benchmark checks outputs against.

    python3 benchmarks/record_references.py

Runs every workload once, untraced, at every program seed of its pool, at
the full sizes and at the self-check's tiny sizes, and writes the sha256 of each CSV to benchmarks/references.json.  Run it only
on code whose outputs are known to be right (the references are the
program's correctness check); a change that alters output bytes on purpose
records them again and says so.
"""
import json
import os
import sys
import tempfile

import run


def main():
    source = {k: v for k, v in run.machine_block().items()
              if k in ("git_commit", "src_sha256", "src_lines", "python", "numpy", "scipy")}
    doc = {"source": source, "csv_sha256": {}}
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    for name, command in run.WORKLOADS.items():
        for size in ("full", "tiny"):
            cfg = run.workload_config(name, size)
            table = doc["csv_sha256"].setdefault(name, {}).setdefault(size, {})
            with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, ".work")) as work:
                config_path = os.path.join(work, "config.json")
                with open(config_path, "w") as fh:
                    json.dump(cfg, fh)
                for seed in run.seed_pool(cfg, size):
                    argv = [command, config_path, "--seed", str(seed),
                            "--workers", str(min(cfg["workers"], run.available_cores()))]
                    rec = run.run_child(argv, work, 0, "run")
                    if rec["returncode"] != 0 or rec.get("exit_code") != 0 or not rec["csv_sha256"]:
                        sys.exit(f"{name} {size} seed {seed} failed: {rec.get('stderr', '')}")
                    table[str(seed)] = rec["csv_sha256"]
                    print(f"{name} {size} seed {seed}: {rec['wall_s']:.2f} s", flush=True)
    with open(os.path.join(run.HERE, "references.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
