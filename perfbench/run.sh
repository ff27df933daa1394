#!/usr/bin/env bash
# Builds ptrack-serve and the benchmark from source into .bench_build/
# and runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload live-binary --seed 1 --seconds 24 --trace 0
#
# Every build and run file stays inside the checkout: the Go build cache,
# module cache, temporary files and tool configuration are redirected
# into .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

go build -o "$out/bin/ptrack-serve" ./cmd/ptrack-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/ptrack-serve" -out "$out/perfbench" "$@"
