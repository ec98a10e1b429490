#!/usr/bin/env bash
# Builds the benchmark and fg-serve from this checkout, then runs one
# workload:
#
#   bash e2ebench/run.sh --workload wire-decide --seed 1 --seconds 8 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default:
# the repository's target/); build output goes to stderr, so the last line
# of stdout is the run's JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p fg-serve --bin fg-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/e2ebench" --serve-bin "$target/release/fg-serve" --out "$here/out" "$@"
