#!/usr/bin/env bash
# Builds the release binaries the benchmark drives (`bbs`, `repro`) and the
# benchmark itself, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a checkout; both builds go to $CARGO_TARGET_DIR
# (default: target/ at the checkout root), so the benchmark binary lands
# next to the binaries it drives. The benchmark is its own cargo
# workspace, so the root manifest needs no edits.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f tests/golden/repro_cap256.txt ]]; then
    echo "perfbench: $root is not a checkout of the repository" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path Cargo.toml --bin bbs --bin repro --bin fig12_speedup >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
