#!/bin/sh
# Per-layer host time for every workload: one traced run each through
# run.py --trace 1, which builds the -pg -static copy, checks it against
# an untraced run and folds gprof's flat profile by src/ module.
#
#   sh benchmark/trace_layers.sh [SEED] [SECONDS]
#
# Prints each workload's per-layer result line; the layer tables and
# chrome-trace spans land in .bench_build/trace/.
set -e
cd "$(dirname "$0")/.."
for w in tcp_bulk tls_rx_lossy storage_rw flows_many; do
    printf '%s ' "$w"
    python3 benchmark/run.py --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-10}" --trace 1 | tail -n 1
done
