#!/usr/bin/env bash
# Reproduce the headline experiments. Outputs land in results/<name>/.
# Every run is deterministic in the config seed; extra arguments such as
# --workers N are passed to every command (its units run on up to N worker
# processes, and no output byte changes). The run ends by checking the CSVs against the
# digests in scripts/outputs.sha256.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python3 -m mfresnet gradcheck --out results/gradcheck --seed 11 "$@"
python3 -m mfresnet simulate scripts/coupled_simulation.json --out results/simulate "$@"
python3 -m mfresnet train scripts/gamma_experiment.json --out results/train "$@"
python3 -m mfresnet solve-limit scripts/gamma_experiment.json --out results/solve_limit "$@"
python3 -m mfresnet gamma scripts/gamma_experiment.json --out results/gamma "$@"
python3 -m mfresnet diagnose-fpk scripts/fpk_diagnostic.json --out results/diagnose_fpk "$@"

echo "all experiments written to results/"
sha256sum -c scripts/outputs.sha256
