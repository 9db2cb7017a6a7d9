#!/usr/bin/env bash
# Builds cmd/itagd and the e2ebench load generator from this checkout's sources,
# then runs it. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload tagging --seed 1 --seconds 38 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, data
# directories, span dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
mkdir -p "$out/bin" "$HOME"
(cd "$here" && go build -o "$out/bin/itagd" itag/cmd/itagd && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -itagd "$out/bin/itagd" -work "$out/run" "$@"
