#!/bin/sh
# Regenerates every reduced-scale table of results/ with 3 seeds:
# churn_figures writes Figs. 4-11, headline_claims.csv and ablations A2
# and A3 from one sweep of the churn configurations, cer_figures writes
# Figs. 12 and 13 and ablation A1 from one sweep of the CER streaming
# configurations, and fig14_rost_cer prints Fig. 14.
set -e
cd "$(dirname "$0")/.."
for writer in churn_figures cer_figures; do
  echo "== $writer =="
  cargo run --release -p rom-bench --bin "$writer" -- --seeds 3 --out results 2>/dev/null
done
echo "== fig14_rost_cer =="
cargo run --release -p rom-bench --bin fig14_rost_cer -- --seeds 3 > results/fig14_rost_cer.csv 2>/dev/null
echo ALL_FIGURES_DONE
