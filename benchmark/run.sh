#!/usr/bin/env bash
# Builds the program under test and the benchmark, then runs the
# benchmark. BENCHMARK.json's `command` is `bash benchmark/run.sh`; run
# it from the repository root (the script moves there itself).
#
#   bash benchmark/run.sh --workload run_compute --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 [--quick]
#   bash benchmark/run.sh --compare A.json B.json
#
# Both builds happen here, and the benchmark then runs as a child of this
# shell (no `exec`: a process keeps the resource usage of the children it
# has waited for across exec, and would inherit rustc's). Its own
# children are only ever `cubemm` processes, so its RUSAGE_CHILDREN
# high-water mark is theirs alone.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
  echo "error: $PWD is not the cubemm repository (no Cargo.toml and crates/cli next to benchmark/): nothing to build and measure" >&2
  exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p cubemm-cli 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

case "$CARGO_TARGET_DIR" in
  /*) bin_dir="$CARGO_TARGET_DIR/release" ;;
  *) bin_dir="$PWD/$CARGO_TARGET_DIR/release" ;;
esac
export CUBEMM_BIN="$bin_dir/cubemm"
export CUBEMM_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export CUBEMM_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
"$bin_dir/cubemm-benchmark" "$@"
