#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload, e.g.
#
#   bash hotgbench/run.sh --workload lexer-ho --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result. Everything the build
# and the run write stays under .bench_build/hotgbench in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build/hotgbench
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd hotgbench && go build -o "$out/hotgbench" .) >&2
# Freed heap pages are returned with MADV_FREE rather than MADV_DONTNEED, so
# the pages of one search's garbage are reused by the next without a fresh
# page fault, some 75,000 of them per campaign. On a virtual machine a fault
# costs whatever the host's memory load makes it cost.
export GODEBUG=madvdontneed=0${GODEBUG:+,$GODEBUG}
exec "$out/hotgbench" "$@"
