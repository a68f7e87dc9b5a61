#!/usr/bin/env bash
# Builds cmd/thesaurus and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig13-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, the binaries, the per-run scratch
# directories and the traced runs' span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/thesaurus || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/thesaurus and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/runs" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off GOTELEMETRY=off

go build -o "$out/bin/thesaurus" ./cmd/thesaurus
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
