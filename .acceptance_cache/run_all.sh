#!/bin/bash
# Acceptance learning runs (criteria 6 and 7), criterion-6 runs first, as
# tests/test_acceptance.py lists them (--runs: one line a run, its name, then
# scenario, algo, agents, episodes, seed).
# Runs from the repository root (this script's parent directory) against the
# source tree, so samarl need not be installed.
cd "$(dirname "${BASH_SOURCE[0]}")/.." || exit 1
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
run() {
  local name=$1 scenario=$2 algo=$3 n=$4 eps=$5 seed=$6
  local out=".acceptance_cache/${name}"
  if [ -f "${out}/metrics.csv" ] && [ -d "${out}/ckpt_final" ]; then
    echo "skip ${name} (cached)"; return 0
  fi
  echo "start ${name} $(date +%H:%M:%S)"
  python3 -m samarl.cli train --scenario "$scenario" --algo "$algo" \
    --agents "$n" --episodes "$eps" --seed "$seed" --out "$out" \
    > ".acceptance_cache/logs/${name}.log" 2>&1
  echo "done  ${name} $(date +%H:%M:%S)"
}
export -f run
runs=$(python3 tests/test_acceptance.py --runs) || exit 1
printf '%s\n' "$runs" | xargs -P 2 -I{} bash -c 'run {}'
echo "ALL RUNS COMPLETE $(date +%H:%M:%S)"
