#!/usr/bin/env bash
# Extended torture campaign for the FAB reproduction — the slow, thorough
# sweep that is too expensive for the per-merge gate (tools/ci.sh stage 7).
#
#   ./tools/nightly.sh            # fixed seed base (reproducible)
#   SEED_BASE=time ./tools/nightly.sh   # fresh seeds every night
#   RUNS=100000 ./tools/nightly.sh      # widen the sweep
#
# Phases:
#   1. 50k-campaign sweep     — deterministic fault campaigns over fab-simnet,
#                               strict-linearizability + invariant probes,
#                               every seed run twice (determinism gate)
#   2. socket differential    — the first DIFF_RUNS plans replayed on a real
#                               fab-net loopback TCP cluster
#   3. mutation smoke         — rebuild with each `fab_mutation` variant and
#                               prove the suite catches the planted bug
#                               within 500 seeds
#   4. thread sanitizer       — fab-runtime + fab-net test suites under
#                               -Zsanitizer=thread (data-race detection on
#                               the real threads);
#                               requires a nightly toolchain with rust-src,
#                               skipped with a notice otherwise
#   5. coverage (optional)    — line-coverage summary when cargo-llvm-cov
#                               is installed
#
# Failing seeds are auto-minimized and written to target/torture/*.seed;
# replay one with `cargo run -p fab-torture -- --replay <file>` (see TESTING.md).
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-50000}"
SEED_BASE="${SEED_BASE:-fixed}"
DIFF_RUNS="${DIFF_RUNS:-20}"

# Plain cargo where the registry crates resolve, tools/offline.sh's stand-ins
# where they do not (the probe tools/ci.sh uses).
if cargo metadata --offline --format-version 1 > /dev/null 2>&1; then
    CARGO=cargo
else
    CARGO=tools/offline.sh
fi

run() {
    echo
    echo "==> $*"
    "$@"
}

# Phase 1+2: the big sweep, with the socket differential piggybacked on the
# first DIFF_RUNS plans.
run $CARGO run --release -q -p fab-torture -- \
    --runs "$RUNS" \
    --seed-base "$SEED_BASE" \
    --check-determinism \
    --differential "$DIFF_RUNS"

# Phase 3: planted-bug detection. The variants are the `check-cfg` values in
# the workspace Cargo.toml and the `#[cfg(fab_mutation = ...)]` gates in
# crates/core/src/replica.rs; `--expect-violation` exits non-zero when 500
# seeds all run clean. Builds in target/mutation so the pristine cache from
# phase 1 survives.
for variant in skip_ord_persist accept_stale_order skip_write_append read_ignores_ord; do
    run env RUSTFLAGS="--cfg fab_mutation=\"$variant\"" CARGO_TARGET_DIR=target/mutation \
        $CARGO run --release -q -p fab-torture -- \
        --runs 500 --seed-base fixed --expect-violation \
        --artifact-dir "target/mutation/torture-$variant" \
        --bench-out "target/mutation/BENCH_torture_$variant.json"
done

# Phase 4: ThreadSanitizer over the two crates that run brick threads
# (fab-store has had none since the event loop became the committer).
# -Zsanitizer=thread needs a nightly toolchain and a rebuilt std
# (-Zbuild-std, hence rust-src); on stable-only machines the phase skips
# with a notice rather than failing the whole night. It is the one check of
# those threads on the real weak-memory execution.
if rustup toolchain list 2> /dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly 2> /dev/null \
        | grep -q 'rust-src (installed)'; then
    TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
    run env RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test -q -Zbuild-std --target "$TSAN_TARGET" \
        -p fab-runtime -p fab-net
else
    echo
    echo "==> tsan skipped: needs a nightly toolchain with rust-src" \
         "(rustup toolchain install nightly && rustup component add rust-src --toolchain nightly)"
fi

# Phase 5: coverage summary (informational).
if command -v cargo-llvm-cov > /dev/null 2>&1; then
    run cargo llvm-cov --workspace --summary-only
else
    echo
    echo "==> coverage skipped: cargo-llvm-cov not installed"
fi

echo
echo "nightly.sh: extended torture campaign passed (${RUNS} runs, seed base ${SEED_BASE})"
