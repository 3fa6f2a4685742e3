#!/usr/bin/env bash
# Repo verification, exactly the two tiers ROADMAP.md names:
#
#   tier-1             full build + full ctest in build/
#   concurrency pass   -DROTA_SANITIZE=thread build in build-tsan/ + ctest -L tsan
#
# plus, on request, a memory-safety pass:
#
#   asan               -DROTA_SANITIZE=address (ASan + UBSan) build in
#                      build-asan/ + the full ctest
#
# Usage: scripts/verify.sh [tier1|tsan|asan|all]     (default: all = tier1 + tsan)
#
# Optional perf gate (not part of tier-1; needs an >= 8-cpu host to be
# meaningful): ROTA_VERIFY_BENCH=1 scripts/verify.sh additionally runs
# bench/e15_throughput with --check-baseline against the stored
# BENCH_admission_throughput.json and fails on an 8-lane speedup regression.
set -euo pipefail

cd "$(dirname "$0")/.."
mode="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

tier1() {
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}"
}

tsan() {
  echo "== concurrency pass: thread-sanitized tsan-labeled suite =="
  cmake -B build-tsan -S . -DROTA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${jobs}"
  ctest --test-dir build-tsan -L tsan --output-on-failure -j "${jobs}"
}

asan() {
  echo "== memory-safety pass: address+UB-sanitized full test suite =="
  cmake -B build-asan -S . -DROTA_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${jobs}"
  ctest --test-dir build-asan --output-on-failure -j "${jobs}"
}

bench_gate() {
  echo "== perf gate: e15 8-lane speedup vs stored baseline =="
  ./build/bench/e15_throughput /tmp/e15_latest.json --force \
      --check-baseline=BENCH_admission_throughput.json
  echo "== perf gate: artifact diff (parity + <=10% throughput drop) =="
  scripts/bench_gate.py BENCH_admission_throughput.json /tmp/e15_latest.json
}

case "${mode}" in
  tier1) tier1 ;;
  tsan) tsan ;;
  asan) asan ;;
  all) tier1; tsan ;;
  *) echo "usage: $0 [tier1|tsan|asan|all]" >&2; exit 2 ;;
esac

if [[ "${ROTA_VERIFY_BENCH:-0}" == "1" && ( "${mode}" == "tier1" || "${mode}" == "all" ) ]]; then
  bench_gate
fi

echo "verify: OK (${mode})"
