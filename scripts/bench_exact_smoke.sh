#!/usr/bin/env bash
# Prints the benchmark's exact gates (`compare::EXACT` in
# morphtree-benchmark/src/compare.rs) for every workload at smoke scale,
# seed 1, as one sorted JSON object keyed by workload. These traced values
# depend only on the seed and the code, so CI diffs them against the
# committed results/bench-exact-smoke-seed1.json. A change that means to
# move one of these counts regenerates that file with:
#
#   scripts/bench_exact_smoke.sh > results/bench-exact-smoke-seed1.json
set -euo pipefail

exact='[
  "sim.speedup_vs_sc64",
  "metadata.traffic_per_data_access",
  "metadata.cache_hit_rate",
  "sim.dram_row_hit_rate",
  "functional.macs_per_read",
  "functional.macs_per_write",
  "functional.otp_per_write",
  "functional.reencryptions_per_write",
  "persist.replayed_txns",
  "persist.verified_lines"
]'

for workload in read_wide rw_hot serve_batch recover_bounded sim_sweep; do
  # The last stdout line is the run's result object.
  cargo run --release --quiet --offline --manifest-path morphtree-benchmark/Cargo.toml \
    --bin morphtree-benchmark -- \
    --workload "$workload" --seed 1 --scale smoke --seconds 0 --trace 1 \
    | tail -n 1 \
    | jq --arg w "$workload" --argjson exact "$exact" \
      '{($w): (.metrics | with_entries(select(.key | IN($exact[]))) | map_values(.value))}'
done | jq -S -s add
