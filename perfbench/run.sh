#!/usr/bin/env bash
# Builds the release `nuspi` binary and the benchmark from source, then
# runs one benchmark run. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload lint-cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/core || ! -f perfbench/Cargo.toml ]]; then
  echo "perfbench: run from the root of a nuspi checkout" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p nuspi --bin nuspi >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_COMMIT=unknown
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [[ "$top" == "$PWD" ]]; then
  PERFBENCH_COMMIT="$(git rev-parse HEAD)"
fi
export PERFBENCH_RUSTC PERFBENCH_COMMIT

exec "$CARGO_TARGET_DIR/release/perfbench" --nuspi "$CARGO_TARGET_DIR/release/nuspi" "$@"
