#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (cmd/mpcd, cmd/mpcrun)
# from this checkout, then runs one workload:
#
#   bash mpcbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or
# writes stays under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mpcd || ! -d cmd/mpcrun || ! -d mpcbench ]]; then
	echo "mpcbench: run from the root of an mpclogic checkout" >&2
	exit 2
fi

# Fall back to the official Go distribution's default install location.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/mpcd ./cmd/mpcrun ./mpcbench
exec "$build/bin/mpcbench" -bin "$build/bin" -work "$build/work" "$@"
