#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run from the repository root, e.g.
#
#   bash e2ebench/run.sh --workload race-1024 --seed 1 --seconds 35 --trace 0
#
# The build cache, the go command's temporary files, config and telemetry
# (XDG_CONFIG_HOME), GOPATH and the binary live under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside
# the checkout. The build needs the repository's own module one level up;
# without it the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/e2ebench" -commit "$commit" -out "$build/e2ebench-out" "$@"
