#!/usr/bin/env bash
# Full local CI gate for the FAB reproduction workspace.
#
# Runs every check the project treats as merge-blocking, in the order
# cheapest-feedback-first. Any failure aborts the run (set -e) and the
# script exits non-zero, so it can be dropped into any CI runner as-is:
#
#   ./tools/ci.sh
#
# Stages:
#   1. release build          — the code must compile with optimizations
#   2. test suite             — workspace unit + integration tests
#   3. bench compile          — bench targets must keep building
#   4. protocol static lints  — `cargo xtask analyze` (L1–L6, zero tolerance),
#                               then `cargo xtask loc`: the per-crate non-test
#                               line counts simplicity PRs quote (informational)
#   5. clippy                 — workspace lint wall, warnings are errors
#   6. loopback cluster       — n=5 TCP bricks, kill/restart mid-workload,
#                               strict-linearizability check (wall-clock capped);
#                               then the cross-substrate conformance script
#                               (sim, threads and TCP must answer alike)
#   7. torture campaigns      — 500 deterministic fault campaigns from a fixed
#                               seed base, each seed run twice (determinism
#                               gate), plus the sim-vs-sockets differential
#                               test (the 50k sweep and mutation smoke live in
#                               tools/nightly.sh; see TESTING.md)
#   8. metrics overhead gate  — loopback test: bounded n=5/m=3 durable-write
#                               runs asserting metrics-on throughput stays
#                               within 10% of metrics-off (regression
#                               tripwire for the observability overhead,
#                               not a benchmark — that is stage 12)
#   9. loom model checking    — exhaustive interleaving suite for the
#                               transport buffer pool, built with --cfg
#                               loom (swaps std sync primitives for the
#                               workspace model checker; see TESTING.md
#                               tier 6; fab-obs's pair counter: stage 11)
#  10. brick repair e2e        — n=5/m=3 loopback cluster: kill a brick, wipe
#                               its store, rebuild it through the admin
#                               repair protocol with a mid-repair
#                               orchestrator crash (durable-cursor resume);
#                               the same test asserts the throttle engaged
#                               and foreground I/O stayed live and bounded
#  11. observability           — fab-obs unit suite, the loom no-tear model
#                               check of the pair counter, and the loopback
#                               stats e2e (kill/restart must surface as
#                               reconnects + recovered reads in
#                               AdminOp::StatsSnapshot replies)
#  12. repository benchmark    — `benchmark/` is a workspace of its own, so
#                               no earlier stage notices when a crate API
#                               change breaks it: its unit tests, then a
#                               `--smoke` pass over every workload. The only
#                               stage that boots a cluster to measure speed
#
# Optional: when `cargo-llvm-cov` is installed, COVERAGE=1 ./tools/ci.sh
# appends a line-coverage summary after the gates (informational, non-gating).
set -euo pipefail
cd "$(dirname "$0")/.."

# Where the registry crates resolve, plain cargo; where they do not, the same
# commands through tools/offline.sh's stand-ins. Observed, not an option.
# (`cargo xtask` and benchmark/ are dependency-free workspaces of their own
# and need neither.)
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

run $CARGO build --release
run $CARGO test -q
run $CARGO bench --no-run
run cargo xtask analyze
run cargo xtask loc
run $CARGO clippy --workspace --all-targets -- -D warnings

# Stage 6: the multi-process-shaped integration test is `#[ignore]`d so plain
# `cargo test` stays fast; run it here as its own stage under a hard timeout
# (a deadlocked transport must fail CI, not hang it).
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_cluster_survives_kill_and_restart
run timeout 300 $CARGO test -q -p fab-net --test conformance -- --include-ignored

# Stage 7: bounded torture campaigns. A fixed seed base keeps the gate
# reproducible; --check-determinism runs every seed twice and compares
# stats + violation kinds. The socket differential test is also `#[ignore]`d
# (it binds TCP listeners), so it runs here under its own timeout.
run $CARGO run --release -q -p fab-torture -- \
    --runs 500 --seed-base fixed --check-determinism
run timeout 300 $CARGO test -q -p fab-torture --lib differential -- --ignored

# Stage 8: observability overhead gate. Bounded metrics-off / metrics-on
# durable-write runs over real loopback TCP; fails if the fab-obs registries
# cost more than 10% of throughput (three attempts). Numbers come from the
# repository benchmark (stage 12, benchmark/README.md), not from here.
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    metrics_cost_under_ten_percent_of_write_rate

# Stage 9: exhaustive model checking of the concurrency kernels. --cfg loom
# swaps fab-net's sys module onto the in-tree `loom` model checker; a
# separate target dir keeps the differently-cfg'd artifacts from thrashing
# the main cache. The suite is an exhaustive DFS over schedules, so a hang
# means state-space blowup — the hard timeout fails CI instead.
run timeout 300 env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    $CARGO test -q -p fab-net --test loom

# Stage 10: decentralized rebuild, end to end. The loopback test replaces a
# brick's disk and proves the admin-driven repair restores every stripe —
# including a node-0 crash mid-repair with the rebuild resuming from its
# durable cursor — and asserts the throttle actually engaged and both
# foreground clients kept completing operations (p99 < 5 s) meanwhile.
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_kill_wipe_repair_rebuilds

# Stage 11: observability. The fab-obs unit suite covers the instruments and
# registry; the loom suite exhausts interleavings of the packed pair counter
# (two halves in one word must never tear); the loopback e2e drives a real
# n=5/m=3 cluster through a kill/restart and asserts the metrics visible in
# AdminOp::StatsSnapshot replies reconcile with what the client observed.
run timeout 300 $CARGO test -q -p fab-obs --lib
run timeout 300 env RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    $CARGO test -q -p fab-obs --test loom
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_stats_snapshot_reconciles_over_loopback

# Stage 12: the repository benchmark (BENCHMARK.json) builds from its own
# manifest against the crates' `pub` items; keep it compiling, its checks
# passing, and every workload runnable end to end.
run timeout 300 cargo test --release --offline --manifest-path benchmark/Cargo.toml
run timeout 300 cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- --smoke

# Informational line-coverage summary (requires `cargo llvm-cov`; opt-in so
# the default gate stays fast and works in toolchains without the component).
if [[ "${COVERAGE:-0}" = "1" ]]; then
    if command -v cargo-llvm-cov > /dev/null 2>&1; then
        run cargo llvm-cov --workspace --summary-only
    else
        echo
        echo "==> coverage skipped: cargo-llvm-cov not installed" \
             "(cargo install cargo-llvm-cov)"
    fi
fi

echo
echo "ci.sh: all gates passed"
