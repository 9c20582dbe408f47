#!/usr/bin/env bash
# Full local CI gate for the FAB reproduction workspace.
#
# Runs every check the project treats as merge-blocking, in the order
# cheapest-feedback-first. A failing command is recorded and the run goes on
# to the next one, so one red stage never hides the stages behind it; the
# script ends with the list of what failed and exits non-zero if anything
# did, so it can be dropped into any CI runner as-is:
#
#   ./tools/ci.sh
#
# Stages:
#   1. release build          — the code must compile with optimizations
#   2. test suite             — workspace unit + integration tests
#   3. bench compile          — bench targets must keep building
#   4. protocol static lints  — `cargo xtask analyze` (L1b, L4, L6, L8, L9:
#                               the rules that need to know the protocol; zero
#                               tolerance), the tool's own tests (each rule
#                               against a planted bug in real source), then
#                               `cargo xtask loc`: the per-crate non-test line
#                               counts simplicity PRs quote (informational)
#   5. clippy                 — workspace lint wall, warnings are errors; it
#                               carries rules L1 (no-panic), L2 (determinism),
#                               L3 (unsafe-audit) and L5 (no-as-truncation):
#                               clippy.toml + one deny attribute per scoped
#                               crate root or module head (DESIGN.md §6)
#   6. loopback cluster       — n=5 TCP bricks, kill/restart mid-workload,
#                               strict-linearizability check (wall-clock capped);
#                               then the cross-substrate conformance script
#                               (sim, threads and TCP must answer alike)
#   7. torture campaigns      — 500 deterministic fault campaigns from a fixed
#                               seed base, each seed run twice (determinism
#                               gate); a replay of every minimized plan in
#                               crates/torture/corpus/ (each must still
#                               reproduce its violation until ROADMAP item 1
#                               closes the hole); plus the sim-vs-sockets
#                               differential test (the 50k sweep and mutation
#                               smoke live in tools/nightly.sh; see TESTING.md)
#   8. metrics overhead gate  — loopback test: bounded n=5/m=3 durable-write
#                               runs asserting metrics-on throughput stays
#                               within 10% of metrics-off (regression
#                               tripwire for the observability overhead,
#                               not a benchmark — that is stage 11)
#   9. brick repair e2e        — n=5/m=3 loopback cluster: kill a brick, wipe
#                               its store, rebuild it through the admin
#                               repair protocol with a mid-repair
#                               orchestrator crash (durable-cursor resume);
#                               the same test asserts the throttle engaged
#                               and foreground I/O stayed live and bounded
#  10. observability           — fab-obs suites (instruments, registry, the
#                               pair counter's no-tear thread races) and the
#                               loopback stats e2e (kill/restart must surface
#                               as reconnects + recovered reads in
#                               AdminOp::StatsSnapshot replies)
#  11. repository benchmark    — `benchmark/` is a workspace of its own, so
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

failed=()
run() {
    echo
    echo "==> [stage $stage] $*"
    "$@" || failed+=("stage $stage: $*")
}

stage=1 run $CARGO build --release
stage=2 run $CARGO test -q
stage=3 run $CARGO bench --no-run
stage=4 run cargo xtask analyze
stage=4 run cargo test -q --manifest-path tools/xtask/Cargo.toml
stage=4 run cargo xtask loc
stage=5 run $CARGO clippy --workspace --all-targets -- -D warnings

# Stage 6: the multi-process-shaped integration test is `#[ignore]`d so plain
# `cargo test` stays fast; run it here as its own stage under a hard timeout
# (a deadlocked transport must fail CI, not hang it).
stage=6
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_cluster_survives_kill_and_restart
run timeout 300 $CARGO test -q -p fab-net --test conformance -- --include-ignored

# Stage 7: bounded torture campaigns. A fixed seed base keeps the gate
# reproducible; --check-determinism runs every seed twice and compares
# stats + violation kinds. The corpus holds the minimized plans of the seeds
# that gate reports (ROADMAP item 1): each must keep reproducing, so a change
# that merely moves the schedule cannot pass for a fix; item 1's PR drops
# --expect-violation. The socket differential test is also `#[ignore]`d (it
# binds TCP listeners), so it runs here under its own timeout.
stage=7
run $CARGO run --release -q -p fab-torture -- \
    --runs 500 --seed-base fixed --check-determinism
for plan in crates/torture/corpus/*.seed; do
    run $CARGO run --release -q -p fab-torture -- --replay "$plan" --expect-violation
done
run timeout 300 $CARGO test -q -p fab-torture --lib differential -- --ignored

# Stage 8: observability overhead gate. Bounded metrics-off / metrics-on
# durable-write runs over real loopback TCP; fails if the fab-obs registries
# cost more than 10% of throughput (three attempts). Numbers come from the
# repository benchmark (stage 11, benchmark/README.md), not from here.
stage=8
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    metrics_cost_under_ten_percent_of_write_rate

# Stage 9: decentralized rebuild, end to end. The loopback test replaces a
# brick's disk and proves the admin-driven repair restores every stripe —
# including a node-0 crash mid-repair with the rebuild resuming from its
# durable cursor — and asserts the throttle actually engaged and both
# foreground clients kept completing operations (p99 < 5 s) meanwhile.
stage=9
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_kill_wipe_repair_rebuilds

# Stage 10: observability. The fab-obs suites cover the instruments and
# registry, and race real threads on the packed pair counter (two halves in
# one word must never tear); the loopback e2e drives a real n=5/m=3 cluster
# through a kill/restart and asserts the metrics visible in
# AdminOp::StatsSnapshot replies reconcile with what the client observed.
stage=10
run timeout 300 $CARGO test -q -p fab-obs
run timeout 300 $CARGO test -q -p fab-net --test loopback -- --ignored \
    five_brick_stats_snapshot_reconciles_over_loopback

# Stage 11: the repository benchmark (BENCHMARK.json) builds from its own
# manifest against the crates' `pub` items; keep it compiling, its checks
# passing, and every workload runnable end to end.
stage=11
run timeout 300 cargo test --release --offline --manifest-path benchmark/Cargo.toml
run timeout 300 cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- --smoke

# Informational line-coverage summary (requires `cargo llvm-cov`; opt-in so
# the default gate stays fast and works in toolchains without the component).
if [[ "${COVERAGE:-0}" = "1" ]]; then
    if command -v cargo-llvm-cov > /dev/null 2>&1; then
        stage=coverage run cargo llvm-cov --workspace --summary-only
    else
        echo
        echo "==> coverage skipped: cargo-llvm-cov not installed" \
             "(cargo install cargo-llvm-cov)"
    fi
fi

echo
if ((${#failed[@]})); then
    echo "ci.sh: FAILED:"
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "ci.sh: all gates passed"
