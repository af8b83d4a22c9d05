#!/usr/bin/env bash
# Regenerate every paper figure at full budget and print them in the
# `=== <bin> ===` format of results/figures_full.txt.
#
#   scripts/figures.sh > results/figures_full.txt          # re-baseline
#   scripts/figures.sh | diff -u results/figures_full.txt - # golden check
#
# Timing lines go to stderr; stdout is the figure text only.
set -euo pipefail

BINS=(
  fig07_repb_table
  fig08_throughput_vs_range
  fig09_repb_vs_throughput
  fig10_repb_vs_range
  fig11a_cancellation_snr
  fig11b_ber_vs_symbol_rate
  fig12a_trace_throughput_cdf
  fig12b_wifi_impact
  fig13a_client_cdf
  fig13b_client_snr
  headline_comparison
  ablations
)

cd "$(dirname "$0")/.."
build_args=()
for b in "${BINS[@]}"; do
  build_args+=(--bin "$b")
done
cargo build --release --quiet -p backfi-bench "${build_args[@]}" >&2

dir="${CARGO_TARGET_DIR:-target}/release"
for b in "${BINS[@]}"; do
  start=$(date +%s)
  echo "=== $b ==="
  "$dir/$b"
  echo
  echo "$b: $(( $(date +%s) - start )) s" >&2
done
