#!/bin/sh
# Full pipeline on the controller environment: demonstrations, policy,
# saliency predictor, a short rollout, and the scheduling benchmark.
# Everything lands in runs/pipeline. Takes a few minutes; the training
# budget matches the one the test suite certifies.
set -e

OUT=${1:-runs/pipeline}
mkdir -p "$OUT"

python3 -m streampolicy.cli gen-data \
    --env controller --episodes 600 --seed 11 --out "$OUT/demos.bin"

python3 -m streampolicy.cli train-policy \
    --data "$OUT/demos.bin" --out "$OUT/policy.ckpt" \
    --iterations 16000 --batch-size 128 --lr 2e-3 --lr-schedule cosine \
    --seed 0 --log-every 1000

python3 -m streampolicy.cli train-predictor \
    --data "$OUT/demos.bin" --out "$OUT/predictor.ckpt" --seed 0

python3 -m streampolicy.cli rollout \
    --policy "$OUT/policy.ckpt" --env controller --episodes 10 --seed 1000 \
    --step-cap 60 --profile reference \
    --trace-csv "$OUT/rollout_trace.csv" --trace-json "$OUT/rollout_trace.json"

python3 -m streampolicy.cli bench \
    --policy "$OUT/policy.ckpt" --predictor "$OUT/predictor.ckpt" \
    --env controller --episodes 200 --seed 2000 --step-cap 42 \
    --eo naive,random,anao,adaptive --n-eo 3 --target-rate 0.85 \
    --profile zero --out-dir "$OUT/bench" --traces

echo "artifacts in $OUT"
