#!/usr/bin/env bash
# Builds the benchmark and tcd from the source tree it sits in, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-count --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Every build product, Go cache entry, temporary file and persist directory
# lives under .bench_build/ in the current directory.
set -eu
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config" "$out/bin" "$out/run"
# XDG_CONFIG_HOME keeps the go command's own state (env file, telemetry
# counters) inside the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The benchmark module imports tc2d through a relative replace: outside a
# checkout of the repository this build fails, and so does the run.
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/" . tc2d/cmd/tcd) >&2
# Provenance: the commit, or a hash of the Go sources outside a git checkout.
if [ -e "$root/.git" ] && PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	PERFBENCH_COMMIT=tree-$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi
export PERFBENCH_COMMIT
exec "$out/bin/perfbench" -tcd "$out/bin/tcd" -workdir "$out/run" \
	-record "$out/records.jsonl" -spec "$root/BENCHMARK.json" "$@"
