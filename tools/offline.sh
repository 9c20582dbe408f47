#!/usr/bin/env bash
# Run cargo on this workspace where crates.io is unreachable.
#
#   tools/offline.sh build --release --workspace --all-targets
#   tools/offline.sh test -q --workspace
#   tools/offline.sh bench --no-run
#
# The two registry crates the workspace names (`bytes`, `crossbeam`) are
# patched to the API-compatible stand-ins the repository benchmark already
# builds against (benchmark/stubs/*, read-only here). The patch table lives
# in a generated file under target/, so no tracked file changes and a
# machine with network access keeps using the real crates by calling cargo
# directly.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cfg="$root/target/offline.toml"
mkdir -p "$root/target"
{
    echo "[patch.crates-io]"
    for c in bytes crossbeam; do
        echo "$c = { path = \"$root/benchmark/stubs/$c\" }"
    done
} > "$cfg"
sub="$1"
shift
exec cargo "$sub" --config "$cfg" --offline "$@"
