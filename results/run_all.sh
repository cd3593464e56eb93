#!/bin/sh
# Regenerates every figure and the headline table at reduced scale with
# 3 seeds. churn_figures writes Figs. 4, 5, 7, 8 and 10 and
# headline_claims.csv from one run of the churn grid.
set -e
cd "$(dirname "$0")/.."
echo "== churn_figures =="
cargo run --release -p rom-bench --bin churn_figures -- --seeds 3 --out results 2>/dev/null
for fig in fig06_member_disruptions fig09_member_delay fig11_switching_interval \
           fig12_starving_vs_size fig13_starving_vs_buffer fig14_rost_cer; do
  echo "== $fig =="
  cargo run --release -p rom-bench --bin "$fig" -- --seeds 3 > "results/$fig.csv" 2>/dev/null
done
echo ALL_FIGURES_DONE
