#!/usr/bin/env bash
# Builds the bench from the checkout it sits in and runs it there. Build
# cache, toolchain temporaries, binaries and run scratch all stay under
# <checkout>/.bench_build, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/scenarios" ]; then
	echo "bench: $root is not a checkout of the repository (no go.mod, no cmd/scenarios): nothing to measure" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
