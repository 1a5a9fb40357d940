#!/usr/bin/env bash
# The benchmark's single entry point: build, run one workload (or all
# four, one process each), check its outputs, print every metric by name
# with its unit.
#
#   benchmark/run.sh [--workload ddos-h|flood-rrl|sharded-k2|serve-udp]
#                    [--seed N] [--trace [0|1]] [--smoke]
#
# `--seconds S` is accepted, because the benchmark driver passes it, and
# changes nothing: work per run is fixed. Run from anywhere; paths
# resolve against the checkout that holds this script. Building is not
# part of any reported time. Span files and generated inputs go under
# benchmark/out/ only.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# A relative CARGO_TARGET_DIR is taken against the checkout root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

workloads=(ddos-h flood-rrl sharded-k2 serve-udp)
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--workload" ]]; then
        workloads=("${args[i + 1]:-}")
    fi
done

# Two shards, or a server and its client, need two cores to mean anything.
for w in "${workloads[@]}"; do
    if [[ "$w" == sharded-k2 || "$w" == serve-udp ]] && (($(nproc) < 2)); then
        echo "run.sh: $w needs at least 2 cores, nproc says $(nproc)" >&2
        exit 3
    fi
done

# The harness and the live server it drives, both from the repository's
# sources, against the registry crates the root Cargo.lock pins. Where
# those cannot be had without a network, the stand-ins under
# benchmark/vendor/ are patched in instead, and the run says so.
build() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml "$@"
}
if [[ ! -f Cargo.lock || ! -d crates ]]; then
    echo "run.sh: $PWD is not a checkout of the repository (no Cargo.lock, no crates/)" >&2
    exit 4
fi
cp Cargo.lock benchmark/Cargo.lock
if ! build 2>/dev/null 1>&2; then
    echo "run.sh: registry crates do not resolve offline;" \
        "building against the stand-ins in benchmark/vendor/" >&2
    rm benchmark/Cargo.lock
    build --config benchmark/vendor/offline.toml 1>&2
fi

# No dike-serve of this checkout outlives the run, however it ends.
harness=""
reap() {
    [[ -z "$harness" ]] || kill "$harness" 2>/dev/null || true
    pkill -KILL -f "^$target/release/dike-serve " 2>/dev/null || true
}
trap reap EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# One process per workload: each reports its own peak resident set.
status=0
for w in "${workloads[@]}"; do
    "$target/release/dike-benchmark" "$@" --workload "$w" &
    harness=$!
    wait "$harness" || status=$?
    harness=""
done
exit "$status"
