#!/usr/bin/env bash
# Builds the perfbench binary from the sources of this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload navigate --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache and the generated datasets all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. A failed build exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
work="${CARGO_TARGET_DIR:-.bench_build}"
case "$work" in
/*) ;;
*) work="$root/$work" ;;
esac
mkdir -p "$work/tmp" "$work/config"

# Keep the go command's cache, temporary files and telemetry in the
# checkout too.
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" --work "$work" "$@"
