#!/usr/bin/env bash
# Builds gnnserve and the benchmark from the source tree it is run in,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ts-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, snapshots, daemon logs, span files) stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gnnserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gnnserve and perfbench/ not found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out"
root=$(pwd)
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" XDG_CONFIG_HOME="$root/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/gnnserve" ./cmd/gnnserve
(cd perfbench && go build -o "../$out/perfbench" .)

commit=unknown
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$out/perfbench" -gnnserve "$out/gnnserve" -work "$out" -commit "$commit" "$@"
