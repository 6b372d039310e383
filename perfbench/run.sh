#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload host-gzip --seed 1 --seconds 15 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a run reads and
# writes only inside the checkout. Fails (nonzero, no result line) when the
# surrounding repository is missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no repository at $root (go.mod missing)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/perfbench" --commit "$commit" "$@"
