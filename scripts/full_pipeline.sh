#!/usr/bin/env bash
# End-to-end CLI walkthrough: generate five synthetic datasets, train one
# model per dataset, compute the transferability matrix, train the
# representation extractor, assemble a zoo, then run every command that
# reads the zoo: forecast a fresh series, embed it (raw and PCA-projected)
# and run the evaluation harness on the five datasets. Ends by printing
# the sha256 of every file it writes (artifacts, outputs and the
# synthesized CSVs), so two commits can be compared.
#
# Always runs this checkout's source, never an installed `zoocast`, so the
# digests belong to the commit the script came from.
set -euo pipefail

SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"
export PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}"
zoocast() { python3 -m zoocast.cli "$@"; }

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
echo "working in $WORK"
cd "$WORK"

declare -a DATA MODELS
i=0
for args in "sine 12" "sawtooth 9" "trend_sine 18" "sine 5" "random_walk 12"; do
    set -- $args
    kind=$1 period=$2
    csv="$kind-p$period.csv"
    zoocast synth --kind "$kind" --period "$period" --noise 0.05 --seed "$i" --out "$csv"
    zoocast train-ptm --data "$csv" --out "$kind-p$period.model.json"
    DATA[$i]="$csv"
    MODELS[$i]="$kind-p$period.model.json"
    i=$((i + 1))
done

datasets=$(IFS=,; echo "${DATA[*]}")
models=$(IFS=,; echo "${MODELS[*]}")

zoocast transfer-matrix --datasets "$datasets" --out tm.json
zoocast train-extractor --datasets "$datasets" --transfer-matrix tm.json --out extractor.json
zoocast build-zoo --models "$models" --data "$datasets" --extractor extractor.json --out zoo

zoocast synth --kind sine --period 12 --noise 0.05 --length 100 --seed 99 --out query.csv
zoocast forecast --zoo zoo --input query.csv --horizon 24 --top-k 1 --out forecast
zoocast embed --zoo zoo --input query.csv --out embed.csv
zoocast embed --zoo zoo --input query.csv --pca 2 --out embed-pca2.csv

zoocast benchmark --zoo zoo --datasets "$datasets" --out report.json

echo "forecast written to $WORK/forecast/forecast.csv"
head -5 forecast/forecast.csv

echo "artifact digests:"
sha256sum tm.json "${MODELS[@]}" extractor.json zoo/extractor.json zoo/zoo.json \
    forecast/forecast.csv forecast/provenance.json embed.csv embed-pca2.csv report.json \
    "${DATA[@]}" query.csv
