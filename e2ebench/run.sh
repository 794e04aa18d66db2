#!/usr/bin/env bash
# End-to-end dlserve benchmark launcher. Run from the repository root:
#
#   bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 25 --trace 0
#
# It builds cmd/dlserve and the benchmark binary from this checkout into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/dlserve ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the repository root (cmd/dlserve or e2ebench/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/dlserve" ./cmd/dlserve
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -dlserve "$build/dlserve" -workdir "$build" -root "$root" "$@"
