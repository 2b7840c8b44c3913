#!/usr/bin/env bash
# Runs the full set twice with the same code and seed and compares the
# second set against the first: every end-to-end metric within its bound,
# every simulated or counted metric equal. Arguments go to both runs
# (`./repeat.sh --quick` is the smoke version).
set -euo pipefail
cd "$(dirname "$0")"
target="${CARGO_TARGET_DIR:-../target/benchmark}"
cargo build --release --offline --manifest-path Cargo.toml --target-dir "$target"
bin="$target/release/benchmark"
"$bin" "$@" --out out/repeat-a.json
"$bin" "$@" --out out/repeat-b.json
"$bin" compare out/repeat-a.json out/repeat-b.json
