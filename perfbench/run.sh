#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-local --seed 1 --seconds 20 --trace 0
#
# With --all in place of --workload, it runs every workload in turn, each
# in its own process (peak_rss_mb is per process), prints each result
# line and exits non-zero if any workload fails:
#
#   bash perfbench/run.sh --all --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" \
    GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
if [ "${1:-}" != --all ]; then
    exec "$out/perfbench" -workdir "$out/work" "$@"
fi
shift
rc=0
for w in ingest-local ingest-cluster-r2 restore-seek; do
    echo "== $w"
    "$out/perfbench" -workdir "$out/work" --workload "$w" "$@" || rc=1
done
exit $rc
