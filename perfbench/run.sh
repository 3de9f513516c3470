#!/usr/bin/env bash
# Builds the MITS benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, module cache and
# temporary files all live under .bench_build/ in the checkout, so the
# benchmark reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
