#!/usr/bin/env bash
# CI entry point.
# Usage: ./ci.sh [--no-sanitize]   — perfbench unit tests, then the full
#                                    build+test matrix
#        ./ci.sh lint              — static-analysis gate only:
#                                    gdp_lint self-test + repo scan, the
#                                    compare_reports.py self-test, and the
#                                    Clang -Werror=thread-safety build when a
#                                    clang++ is available (CI pins one; local
#                                    GCC-only machines skip it with a notice).
#        ./ci.sh bench-smoke       — build bench_thm2_theta, run its store
#                                    section with GDP_OBS=1 at threads 1 and
#                                    4, validate both BENCH_thm2_theta.json
#                                    reports against the obs run-report
#                                    schema, require equal deterministic
#                                    planes (1M-state explore) and diff both
#                                    against bench/baselines/thm2_theta_d.json
#                                    (exact on the deterministic plane,
#                                    timing ratios printed); then rerun it
#                                    with the timeline plane and heartbeats on
#                                    (GDP_OBS_TIMELINE / GDP_OBS_PROGRESS) and
#                                    validate TRACE_thm2_theta.json plus the
#                                    stderr heartbeat stream.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

lint_pass() {
  echo "=== lint: gdp_lint self-test (seeded fixtures) ==="
  python3 tools/lint/gdp_lint.py --self-test tests/lint_fixtures
  echo "=== lint: gdp_lint repo scan ==="
  python3 tools/lint/gdp_lint.py src tests bench examples
  echo "=== lint: compare_reports self-test (fixture run reports) ==="
  python3 tools/obs/compare_reports.py --self-test tests/obs_fixtures

  local clangxx=""
  for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 clang++-16; do
    if command -v "$c" >/dev/null 2>&1; then clangxx="$c"; break; fi
  done
  if [[ -n "${clangxx}" ]]; then
    echo "=== lint: ${clangxx} -Werror=thread-safety build ==="
    cmake -B build/thread-safety -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER="${clangxx}" -DGDP_THREAD_SAFETY=ON
    cmake --build build/thread-safety -j "${JOBS}"
  else
    echo "=== lint: no clang++ found — skipping the thread-safety build" \
         "(the static-analysis CI job runs it with a pinned clang) ==="
  fi
  echo "=== lint green ==="
}

if [[ "${1:-}" == "lint" ]]; then
  lint_pass
  exit 0
fi

# Smoke-test the observability pipeline end to end: section (d) of
# bench_thm2_theta (capped exploration into the chunked store) must emit a
# run report that validates against the versioned schema.
if [[ "${1:-}" == "bench-smoke" ]]; then
  echo "=== bench-smoke: configure + build bench_thm2_theta ==="
  cmake -B build/bench-smoke -S . -DCMAKE_BUILD_TYPE=Release -DGDP_BUILD_TESTS=OFF \
    -DGDP_BUILD_EXAMPLES=OFF
  cmake --build build/bench-smoke -j "${JOBS}" --target bench_thm2_theta
  echo "=== bench-smoke: run section (d) with GDP_OBS=1 at threads 1 and 4 ==="
  ( cd build/bench-smoke/bench && GDP_OBS=1 ./bench_thm2_theta 1 d && \
    mv BENCH_thm2_theta.json BENCH_thm2_theta_t1.json && \
    GDP_OBS=1 ./bench_thm2_theta 4 d )
  echo "=== bench-smoke: validate the run reports against the obs schema ==="
  python3 tools/obs/validate_report.py build/bench-smoke/bench/BENCH_thm2_theta_t1.json
  python3 tools/obs/validate_report.py build/bench-smoke/bench/BENCH_thm2_theta.json
  echo "=== bench-smoke: the deterministic plane must not depend on the thread count ==="
  python3 - build/bench-smoke/bench/BENCH_thm2_theta_t1.json \
    build/bench-smoke/bench/BENCH_thm2_theta.json <<'PY'
import json, sys
t1, t4 = (json.load(open(path))["deterministic"] for path in sys.argv[1:3])
if t1 != t4:
    for table in sorted(set(t1) | set(t4)):
        a, b = t1.get(table, {}), t4.get(table, {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                print(f"{table}.{name}: threads=1 {a.get(name)} threads=4 {b.get(name)}")
    sys.exit("deterministic plane differs between threads=1 and threads=4")
print("deterministic plane identical at threads 1 and 4")
PY
  echo "=== bench-smoke: diff both reports against the committed baseline ==="
  # Exact on the deterministic plane (exit 1 on any difference); the timing
  # ratios are printed for reading only. Re-record the baseline with
  # GDP_OBS=1 ./bench_thm2_theta 4 d when a change moves the deterministic
  # plane on purpose, and say why in CHANGES.md.
  for report in BENCH_thm2_theta_t1.json BENCH_thm2_theta.json; do
    python3 tools/obs/compare_reports.py bench/baselines/thm2_theta_d.json \
      "build/bench-smoke/bench/${report}"
  done
  echo "=== bench-smoke: rerun with the timeline plane + 50ms heartbeats ==="
  ( cd build/bench-smoke/bench && \
    GDP_OBS=1 GDP_OBS_TIMELINE=1 GDP_OBS_PROGRESS=50 ./bench_thm2_theta 0 d \
      2> obs_heartbeats.ndjson )
  echo "=== bench-smoke: require at least one heartbeat line ==="
  grep -c '"gdp_obs_heartbeat"' build/bench-smoke/bench/obs_heartbeats.ndjson
  echo "=== bench-smoke: validate + summarize the trace ==="
  python3 tools/obs/summarize_trace.py build/bench-smoke/bench/TRACE_thm2_theta.json
  echo "=== bench-smoke green ==="
  exit 0
fi

SANITIZE=1
[[ "${1:-}" == "--no-sanitize" ]] && SANITIZE=0

# The benchmark's own tests (the comparer and the pin check): stdlib Python,
# no build needed. No bytecode is written, so perfbench/ stays as committed.
echo "=== perfbench: unit tests ==="
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'

run_pass() {
  local name="$1"; shift
  echo "=== ${name}: configure ==="
  cmake -B "build/${name}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "build/${name}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "build/${name}" --output-on-failure -j "${JOBS}"
}

run_pass release -DCMAKE_BUILD_TYPE=Release

# Debug pass keeps the GDP_DCHECK invariants live (NDEBUG strips them in
# Release and RelWithDebInfo).
run_pass debug -DCMAKE_BUILD_TYPE=Debug

if [[ "${SANITIZE}" == 1 ]]; then
  run_pass asan-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGDP_SANITIZE=ON

  # Chunked-store pass with spill forced on: every ChunkedModel the store
  # suite builds goes file-backed (tiny chunks, mmap reads), so ASan walks
  # the mapping lifetimes and chunk-seam arithmetic.
  echo "=== asan-ubsan: forced-spill chunked-store pass (ctest -L store) ==="
  GDP_TEST_FORCE_SPILL=1 ctest --test-dir build/asan-ubsan --output-on-failure -L store

  # Same suite again under a tight residency budget (2 chunks hot, 128
  # states per chunk): the chunk-native verdict kernels now run through the
  # LRU fault/evict path constantly, so ASan sees madvise-dropped pages
  # refaulting mid-sweep — the exact out-of-core access pattern.
  echo "=== asan-ubsan: bounded-resident forced-spill pass (ctest -L store) ==="
  GDP_TEST_FORCE_SPILL=1 GDP_TEST_MAX_RESIDENT_CHUNKS=2 GDP_TEST_CHUNK_STATES=128 \
    ctest --test-dir build/asan-ubsan --output-on-failure -L store

  # TSan pass over the threaded subsystems only (the parallel model checker,
  # the campaign runner and the obs registry); ASan and TSan cannot share a
  # build tree.
  echo "=== tsan: configure ==="
  cmake -B build/tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGDP_SANITIZE_THREAD=ON \
    -DGDP_BUILD_BENCH=OFF -DGDP_BUILD_EXAMPLES=OFF
  echo "=== tsan: build ==="
  cmake --build build/tsan -j "${JOBS}" \
    --target test_mdp_par test_exp test_key test_quant test_store test_obs
  echo "=== tsan: ctest (test_mdp_par + test_exp + test_key + test_quant + test_store + test_obs) ==="
  ctest --test-dir build/tsan --output-on-failure \
    -R 'test_mdp_par|test_exp|test_key|test_quant|test_store|test_obs'
fi

echo "=== CI green ==="
