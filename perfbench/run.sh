#!/usr/bin/env bash
# Builds the benchmark and the shipped cmd/serve daemon from this checkout,
# then runs the benchmark with the given arguments. Everything the build
# and the runs write stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --p99-limit 20ms --workload paper-grid --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
(cd "$root" && go build -o "$build/bin/serve" ./cmd/serve)
exec "$build/bin/perfbench" -root "$root" -serve-bin "$build/bin/serve" "$@"
