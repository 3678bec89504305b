#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#   bash perfbench/run.sh --workload bigfile --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and the run's scratch files all stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no msync sources in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
