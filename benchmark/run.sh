#!/usr/bin/env bash
# Builds simbench from source and runs it; this is the command of
# BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload sel_index --seed 1 --seconds 14 --trace 0
#
# Everything the build and the run write (Go's build and module caches,
# its telemetry counters, the binary, the data directories, trace files)
# stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal/core ]]; then
	echo "run.sh: $root holds no SimDB source (go.mod, internal/core): nothing to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
# With a fresh config directory the go command would start its detached
# telemetry sidecar ("go" re-executed in a session of its own), which
# outlives this script. Mode "off" is what `go telemetry off` writes.
echo off > "$out/config/go/telemetry/mode"
go build -o "$out/simbench" ./benchmark/cmd/simbench
exec "$out/simbench" -workdir "$out/run" "$@"
