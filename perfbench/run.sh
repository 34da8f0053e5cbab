#!/usr/bin/env bash
# Builds permserve, permrouter and the benchmark driver from source, then
# runs the driver with this script's arguments. Run it from the repository
# root:
#
#	bash perfbench/run.sh --workload sift-napp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binaries, the
# generated index files and the span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# With telemetry on (its default is "local"), the first go command of the
# day starts a detached sidecar that outlives this script. "go telemetry
# off" is the one go command that never starts it; it writes its setting
# under $XDG_CONFIG_HOME, so every later go command here stays alone.
go telemetry off
go build -o "$out/bin/" ./cmd/permserve ./cmd/permrouter
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
