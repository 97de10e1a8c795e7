#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchledger/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the ledger rows go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
mkdir -p "$GOTMPDIR"

(cd "$root/benchledger" && go build -o "$out/benchledger" .)
exec "$out/benchledger" -ledger "$out/ledger" "$@"
