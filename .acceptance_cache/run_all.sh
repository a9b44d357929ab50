#!/bin/bash
# Acceptance learning runs (criteria 6 and 7), criterion-6 runs first.
# Runs from the repository root (this script's parent directory) against the
# source tree, so samarl need not be installed.
cd "$(dirname "${BASH_SOURCE[0]}")/.." || exit 1
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
run() {
  local scenario=$1 algo=$2 n=$3 eps=$4 seed=$5
  local name="${scenario}_${algo}_n${n}_e${eps}_s${seed}"
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
printf '%s\n' \
  "coop_nav sa-matd3 3 60000 0" \
  "coop_nav maddpg 3 60000 0" \
  "coop_nav sa-matd3 3 60000 1" \
  "coop_nav maddpg 3 60000 1" \
  "coop_nav sa-matd3 3 60000 2" \
  "coop_nav maddpg 3 60000 2" \
  "coop_nav sa-matd3 5 30000 0" \
  "coop_nav maddpg 5 30000 0" \
  "coop_nav sa-matd3 5 30000 1" \
  "coop_nav maddpg 5 30000 1" \
  "coop_nav sa-matd3 5 30000 2" \
  "coop_nav maddpg 5 30000 2" \
  "coop_nav sa-matd3 5 100000 0" \
  "coop_nav maddpg 5 100000 0" \
  "coop_nav sa-matd3 5 100000 1" \
  "coop_nav maddpg 5 100000 1" \
  "coop_nav sa-matd3 5 100000 2" \
  "coop_nav maddpg 5 100000 2" \
| xargs -P 2 -I{} bash -c 'run {}'
echo "ALL RUNS COMPLETE $(date +%H:%M:%S)"
