#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload compare-10k --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and trace files stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
# The Go runtime hands freed heap pages back with MADV_DONTNEED by default.
# On a virtual machine that returns such pages to its host, the next job
# faults them in again at a cost set by the host's other tenants. MADV_FREE
# keeps them with the process unless the machine runs short of memory.
GODEBUG=madvdontneed=0 exec "$out/perfbench" -trace-dir "$out" "$@"
