#!/usr/bin/env bash
# Runs every workload, untraced and then traced, one process each, from the
# repository root: every output checked, every metric printed with its unit.
#
# usage: perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for workload in cluster_batch frontend_sparse cluster_churn; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
