#!/usr/bin/env bash
# Builds the perfsuite benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfsuite/run.sh --workload pair-L --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, module cache,
# temporary files, the binary, journals, span files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# never touches the network: the only dependency is the parent module,
# replaced by the checkout itself. Without the repository's sources next to
# perfsuite/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export GOFLAGS=

# The commit measured, for the -repeat report. Only a git repository rooted
# at the checkout counts; outside one (or without git) it stays "unknown".
revision=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$(pwd -P)" ]; then
	revision=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" --no-optional-locks status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		revision="$revision-modified"
	fi
fi

(cd "$root/perfsuite" && go build -buildvcs=false -ldflags "-X main.revision=$revision" -o "$out/perfsuite" .)
exec "$out/perfsuite" -tmp "$out/tmp" "$@"
