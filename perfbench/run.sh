#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments.  Build cache, binary and outputs stay under
# .bench_build/ at the repository root; nothing is fetched (the module
# has no dependencies beyond the repository itself).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out/perfbench" "$@"
