#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-design-point --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -a a.json -b b.json
#
# Every build and run artefact stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout: the Go build cache, temp files and
# telemetry are redirected there too.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -f testdata/golden_simresults.json ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench.bin" .)
if [[ "${1:-}" == compare ]]; then
	exec "$build/perfbench.bin" "$@"
fi
exec "$build/perfbench.bin" --work-dir "$build/perfbench" "$@"
