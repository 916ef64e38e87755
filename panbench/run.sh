#!/usr/bin/env bash
# Builds the panbench binary from the sources of this checkout and runs it
# with the given flags. The binary, the Go build caches, the toolchain's
# temporary files and its config directory stay inside the checkout, under
# .bench_build/; traced runs write their spans to .bench_out/. The build
# never touches the network.
#
#   bash panbench/run.sh --workload repro-8d --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/panbench" .)
cd "$root"
exec "$out/panbench" "$@"
