#!/usr/bin/env bash
# Profile the simulator hot path.
#
# Builds Release with IQ_PROFILE=ON (frame pointers + DWARF symbols, see
# CMakeLists.txt) so stacks unwind cleanly, then profiles the deterministic
# Table-1 scenario sweep (bench_table1_basic: event loop, codec, RUDP state
# machines — the canonical end-to-end hot path):
#   - with perf(1) available: `perf record -g` and print the top of the
#     report;
#   - without perf: preload the in-tree SIGPROF sampler (scripts/pcsample.cpp)
#     into PROFILE_RUNS runs (default 20) of the same binary, then print the
#     top symbols by self share (scripts/pcsample_report.py, nm symbolization).
#     The binary is not instrumented, so unlike gprof the shares carry no
#     call-counting bias.
# Usage: scripts/profile.sh [perf.data-output-path]
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=build-profile
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release -DIQ_PROFILE=ON
cmake --build "$build_dir" -j --target bench_table1_basic
bench="$build_dir/bench/bench_table1_basic"

if command -v perf >/dev/null 2>&1; then
  out="${1:-$build_dir/perf.data}"
  perf record -g --output "$out" -- "$bench"
  perf report --stdio --input "$out" | head -n 40
  echo "full profile: perf report --input $out"
else
  echo "perf(1) not found; sampling with scripts/pcsample.cpp instead" >&2
  shim="$build_dir/pcsample.so"
  "${CXX:-c++}" -O2 -shared -fPIC -o "$shim" scripts/pcsample.cpp
  samples="$build_dir/pcsample"
  rm -rf "$samples" && mkdir -p "$samples"
  for i in $(seq 1 "${PROFILE_RUNS:-20}"); do
    PCSAMPLE_OUT="$samples/run$i.txt" LD_PRELOAD="$PWD/$shim" \
      "$bench" >/dev/null
  done
  python3 scripts/pcsample_report.py "$samples"/run*.txt
fi
