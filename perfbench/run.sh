#!/usr/bin/env bash
# Builds the control-loop benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-rig --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
# The benchmark measures the default lockstep engine.
unset CAPES_PIPELINE

go build -C "$root/perfbench" -o "$out/capes-perfbench" .
exec "$out/capes-perfbench" -spans-dir "$out/spans" "$@"
