#!/bin/sh
# Tour of the graphda command line: generate data, train the method and the
# source-only arm, evaluate, export, then replay both runs from their
# manifests and check the bytes match.
# Usage: sh demos/cli_walkthrough.sh [workdir]
set -e

out=${1:-/tmp/graphda_demo}
rm -rf "$out"
mkdir -p "$out/data"

echo "== gen: synthetic source/target pair with a 45 degree shift =="
graphda gen --out "$out/data" --per-class 150 --seed 11

echo
echo "== train: short run, percentile-derived graph threshold =="
graphda train \
    --source "$out/data/source.hda" \
    --target "$out/data/target.hda" \
    --labels "$out/data/target_labels.hda" \
    --out "$out/run" \
    --epochs 20 --batch 64 --threshold-percentile 20 --warmup 2 \
    --hidden 32 --phi-dim 32 --backbone-hidden 32

echo
echo "== train the source-only arm: no graph, no pseudo-labels, classification loss only =="
graphda train \
    --source "$out/data/source.hda" \
    --target "$out/data/target.hda" \
    --labels "$out/data/target_labels.hda" \
    --out "$out/floor" \
    --epochs 20 --batch 64 --no-gnn --no-pseudo --loss-weights 0,0,1 \
    --hidden 32 --phi-dim 32 --backbone-hidden 32

echo
echo "== eval: score the final checkpoint (also appends a CSV row) =="
graphda eval \
    --checkpoint "$out/run/checkpoint_final.hdap" \
    --target "$out/data/target.hda" \
    --labels "$out/data/target_labels.hda" \
    --out "$out/run/eval.csv" \
    --json

echo
echo "== export: embeddings + edge statistics for plotting =="
graphda export \
    --checkpoint "$out/run/checkpoint_final.hdap" \
    --source "$out/data/source.hda" \
    --target "$out/data/target.hda" \
    --labels "$out/data/target_labels.hda" \
    --out "$out/run/export"

echo
echo "== replay: the manifest's config lines as a config file give the same bytes =="
for run in run floor; do
    sed -n 's/^config\.//p' "$out/$run/manifest.txt" > "$out/$run.cfg"
    graphda train \
        --source "$out/data/source.hda" \
        --target "$out/data/target.hda" \
        --labels "$out/data/target_labels.hda" \
        --out "$out/replay_$run" \
        --config "$out/$run.cfg"
    cmp "$out/$run/metrics.csv" "$out/replay_$run/metrics.csv"
    cmp "$out/$run/checkpoint_final.hdap" "$out/replay_$run/checkpoint_final.hdap"
    echo "$run: metrics.csv and checkpoint_final.hdap replayed byte for byte"
done

echo
echo "== artifacts =="
find "$out" -type f | sort
