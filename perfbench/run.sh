#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload closed-paper --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's work files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

# The commit is a host fact of every result; a checkout that is not the
# top of a git work tree reports "unknown".
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$PWD" ]; then
	commit=$(git rev-parse HEAD)
	git diff --quiet HEAD -- || commit="$commit+dirty"
fi
exec "$out/perfbench" -workdir "$out/perfbench-work" -commit "$commit" "$@"
