#!/usr/bin/env bash
# Full verification: static analysis, tier-1 build + tests, the invariant
# stress tests under ASan/UBSan (-DVREC_SANITIZE=address, which also turns
# the VREC_DCHECK invariant layer on), and the concurrency tests under
# ThreadSanitizer (-DVREC_SANITIZE=thread). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== lint: vrec_lint + clang-tidy ==="
./scripts/lint.sh

echo "=== tsa: Clang thread-safety analysis (compile-time lock discipline) ==="
# Auto-skips without clang++; otherwise proves every guarded member is only
# touched under its lock, with a compile-fail probe keeping the stage honest.
./scripts/tsa.sh

echo "=== tier-1: build + full test suite ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "=== content fast path: release smoke (equivalence + prune counters) ==="
# The bench exits non-zero unless every query reproduces the reference
# oracle's top-K bit for bit, both prune counters are nonzero (bounds
# fired), and the pool/bound counters fired.
./build/bench/bench_content_scoring --smoke 1 10 build/BENCH_content.json

echo "=== social fast path: release smoke (equivalence + skip counters) ==="
# Exits non-zero unless every social mode reproduces the reference oracle's
# top-K bit for bit AND the skip counters fired (cardinality bound pruned
# merges, posting walk skipped disjoint-audience records). The >= 2x SAR
# scoring-stage gate is advisory under --smoke.
./build/bench/bench_social_scoring --smoke build/BENCH_social.json

echo "=== simd-off: scalar-fallback build reproduces the vectorized results ==="
# -DVREC_SIMD=OFF compiles the same loop bodies without the omp-simd
# pragmas. The engine-vs-oracle equivalence suites and the bench's
# bit-for-bit gate must still pass — proving the pragmas only changed
# instruction scheduling, never values, and that the scalar fallback path
# stays healthy.
cmake -B build-nosimd -S . -DVREC_SIMD=OFF >/dev/null
cmake --build build-nosimd -j "$JOBS" --target vrec_tests bench_content_scoring
(cd build-nosimd && ctest --output-on-failure -j "$JOBS" \
  -R 'FastPathEquivalence|SocialFastPath|OracleDifferential|PreparedPool|HistogramPool|SimdKernel')
./build-nosimd/bench/bench_content_scoring --smoke 1 10 \
  build-nosimd/BENCH_content.json

echo "=== serving: micro-batching smoke against a live loopback server ==="
# Exits non-zero unless concurrent queries actually coalesce (mean batch
# size > 1), every request is answered, and the shards=1 fleet reproduces
# the plain engine bit for bit (the bench's shard sweep).
./build/bench/bench_server_throughput --smoke build/BENCH_server.json

echo "=== shard equivalence: scatter-gather vs single box, bit for bit ==="
# The loopback-style suite under saturating candidate admission: every
# social mode, fusion rule, and post-mutation state, with shards {1,2,4}
# compared bit-for-bit against the single-box engine — in-process AND over
# the VRS1 wire (each shard behind its own loopback RecommendServer).
(cd build && ctest --output-on-failure -j "$JOBS" \
  -R 'Sharded|Partitioner|QueryTimingAggregation|ValidateShardOptions')

echo "=== snapshot: save/load equivalence + mmap cold-start smoke ==="
# The full suite above already runs the Snapshot tests; this stage re-runs
# them (and the oracle differential test, whose mutation sequences include
# mmap and stream reloads) by name so a persistence regression is called
# out as its own failure, then drives the cold-start bench: save, mmap-load, stream-load,
# every by-id query bit-for-bit vs the never-saved engine, bytes_mapped > 0
# (the zero-copy pool adoption actually engaged). The >= 10x restore
# speedup gate is advisory under --smoke.
(cd build && ctest --output-on-failure -j "$JOBS" -R 'Snapshot|OracleDifferential')
./build/bench/bench_snapshot --smoke build/BENCH_snapshot.json

echo "=== asan: invariant stress + wire decoders under Address+UBSanitizer ==="
# The DCHECK layer is live here: every engine mutation re-audits itself via
# VREC_DCHECK_OK(CheckInvariants()) while ASan/UBSan watch the internals,
# and the StatusOr misuse death tests become active. Wire runs here because
# its adversarial decoder tests (bit flips, forged counts, truncation) are
# exactly what ASan/UBSan catch.
cmake -B build-asan -S . -DVREC_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" --target vrec_tests
(cd build-asan && ctest --output-on-failure -j "$JOBS" \
  -R 'InvariantStress|Status|DynamicsFixture|Wire')

echo "=== fuzz: 30s libFuzzer smoke over the wire decoders + snapshot loader ==="
# Coverage-guided complement to the hand-written adversarial Wire and
# SnapshotRobustness tests above; auto-skips without clang++ (libFuzzer
# needs it).
./scripts/fuzz_smoke.sh

echo "=== tsan: concurrency + serving tests under ThreadSanitizer ==="
cmake -B build-tsan -S . -DVREC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target vrec_tests
(cd build-tsan && ctest --output-on-failure -j "$JOBS" \
  -R 'Concurrency|ThreadPool|ServerLoopback|MicroBatcher|Reactor|ResultCache|Sync|Sharded')

echo "verify: OK"
