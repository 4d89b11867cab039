#!/usr/bin/env bash
# Builds picola's commands and the perfbench harness from this checkout,
# then runs the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd" ]]; then
	echo "perfbench: run from the root of a picola checkout" >&2
	exit 2
fi
out=$root/.bench_build
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/" ./cmd/tables ./cmd/batch ./cmd/picola
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
