#!/usr/bin/env bash
# CI gate: static analysis (hbsp-lint + clang-tidy), plain build + full
# ctest, then sanitizer builds + the tier1 suite to guard the thread pool,
# the parallel sweep engine and the metrics registry.
#
#   ci/check.sh                 # everything: lint + plain + all sanitizers
#   CONFIG=plain ci/check.sh    # one leg only (the GitHub Actions matrix
#   CONFIG=tsan  ci/check.sh    #   runs each leg as its own job)
#   CONFIG=asan  ci/check.sh
#   CONFIG=ubsan ci/check.sh    # standalone strict UBSan (no recover)
#   CONFIG=lint  ci/check.sh    # hbsp-lint + clang-tidy-vs-baseline, no tests
#   CONFIG=svc   ci/check.sh    # serving-layer smoke: svc tests + load_gen
#                               #   tally vs its golden at two shard/thread
#                               #   shapes
#   CONFIG=relperf ci/check.sh  # Release: perf_snapshot twice (process-level
#                               #   counter determinism) + warm-cache timing
#                               #   + perfbench/determinism.py, its lines
#                               #   diffed against ci/perfbench_determinism.txt
#                               #   + one traced perfbench run per workload
#   JOBS=8 ci/check.sh          # parallel build/test width
#
# Each configuration builds into its own tree (build-ci, build-ci-tsan,
# build-ci-asan, build-ci-ubsan, build-ci-lint) so the developer's ./build
# is never touched.
#
# Test tiers: every test is labelled tier1 or slow (tests/CMakeLists.txt).
# The plain leg runs the full suite plus the end-to-end determinism and
# golden-drift checks; the sanitizer legs run `ctest -L tier1` — instrumented
# builds are ~10x slower and their value is concurrency coverage, which the
# tier1 set (thread pool, sweep engine, obs registry) already provides.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CONFIG="${CONFIG:-all}"

# Static analysis: the hbsp-lint layering DAG + determinism rules always
# run (stdlib python3 only); the clang-tidy differential gate runs when a
# clang-tidy binary is available (CI installs one; run_clang_tidy.py skips
# cleanly otherwise). JSON findings land in build-ci-lint/lint-report/ so CI
# can upload them as an artifact.
lint_leg() {
  local report_dir=build-ci-lint/lint-report
  mkdir -p "${report_dir}"

  echo "== hbsp-lint (layering DAG + determinism zones)"
  python3 tools/hbsp_lint/hbsp_lint.py --json "${report_dir}/hbsp_lint.json"

  echo "== clang-tidy vs committed baseline"
  cmake -B build-ci-lint -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  python3 tools/hbsp_lint/run_clang_tidy.py \
    --build-dir build-ci-lint --jobs "${JOBS}" \
    --json "${report_dir}/clang_tidy.json"
}

run_suite() {
  local dir="$1"
  local label="$2"
  shift 2
  echo "== configure ${dir} ($*)"
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "== build ${dir}"
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "== ctest ${dir}${label:+ (-L ${label})}"
  ctest --test-dir "${dir}" -j "${JOBS}" --output-on-failure \
    ${label:+-L "${label}"}
}

plain_leg() {
  run_suite build-ci "" -DHBSPK_WERROR=ON

  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  # The headline determinism claim, end to end on the real binary: the
  # Fig 3(a) CSV must be byte-identical at 1 and 4 threads.
  local fig3a=build-ci/bench/fig3a_gather_root
  "${fig3a}" --threads 1 --csv "${tmp}/t1.csv" >/dev/null
  "${fig3a}" --threads 4 --csv "${tmp}/t4.csv" >/dev/null
  cmp "${tmp}/t1.csv" "${tmp}/t4.csv"
  echo "fig3a CSV byte-identical at 1 and 4 threads"

  # Same claim for the fault-injection path: the chaos sweep draws every
  # fault plan from (master seed, grid position), so its CSV must also be
  # byte-identical at any thread count.
  local chaos=build-ci/bench/chaos_sweep
  "${chaos}" --threads 1 --csv "${tmp}/c1.csv" >/dev/null
  "${chaos}" --threads 4 --csv "${tmp}/c4.csv" >/dev/null
  cmp "${tmp}/c1.csv" "${tmp}/c4.csv"
  echo "chaos_sweep CSV byte-identical at 1 and 4 threads"

  # A CSV that cannot be written must fail the run: /dev/full accepts the
  # open and refuses the bytes, so only a checked close catches it.
  local bench
  for bench in "${fig3a}" "${chaos}"; do
    if "${bench}" --csv /dev/full >/dev/null 2>&1; then
      echo "${bench} --csv /dev/full exited 0" >&2
      return 1
    fi
  done
  echo "fig3a and chaos_sweep fail on an unwritable CSV"

  # A numeric flag must parse whole and in range: junk must not run as 0
  # (seed 0, noise 0, an unbounded admission queue), and a negative noise
  # sigma is not a sigma.
  local bad
  for bad in "bench/fig3b_gather_balance --noise abc" \
    "bench/fig3b_gather_balance --noise -1" "bench/chaos_sweep --seed abc" \
    "bench/load_gen --capacity abc"; do
    # ${bad} is split on purpose into binary, flag and value.
    if build-ci/${bad} >/dev/null 2>&1; then
      echo "${bad} exited 0" >&2
      return 1
    fi
  done
  echo "fig3b_gather_balance, chaos_sweep and load_gen refuse bad numbers"

  # The same claim for the span-tracing layer: the exported virtual-time
  # trace sorts spans by content (never by arrival thread), so the JSON must
  # be byte-identical at any worker count — and schema/semantically valid.
  "${fig3a}" --threads 1 --grid small --trace-out "${tmp}/trace1.json" \
    >/dev/null
  "${fig3a}" --threads 4 --grid small --trace-out "${tmp}/trace4.json" \
    >/dev/null
  cmp "${tmp}/trace1.json" "${tmp}/trace4.json"
  python3 ci/validate_trace.py "${tmp}/trace1.json"
  echo "fig3a virtual trace byte-identical at 1 and 4 threads"

  # The simulator's per-processor spans, end to end on trace_explorer: its
  # export is virtual-only, so two runs of one case must write byte-identical
  # JSON that validates; a negative problem size must be refused.
  local explorer=build-ci/examples/trace_explorer
  local case machine collective
  for case in campus:gather wan:broadcast; do
    machine="${case%%:*}"
    collective="${case#*:}"
    "${explorer}" --machine "${machine}" --collective "${collective}" \
      --out "${tmp}/${machine}_a.json" >/dev/null
    "${explorer}" --machine "${machine}" --collective "${collective}" \
      --out "${tmp}/${machine}_b.json" >/dev/null
    cmp "${tmp}/${machine}_a.json" "${tmp}/${machine}_b.json"
    python3 ci/validate_trace.py "${tmp}/${machine}_a.json"
  done
  if "${explorer}" --kbytes -5 --out "${tmp}/negative.json" \
    >/dev/null 2>&1; then
    echo "trace_explorer accepted --kbytes -5" >&2
    return 1
  fi
  echo "trace_explorer detail traces deterministic and valid; --kbytes -5 refused"

  # Golden drift: regenerate every pinned CSV, trace JSON and load_gen tally
  # into a temp dir and diff against the committed files. A behaviour change
  # that forgot to run ci/regen_goldens.sh (and review the new tables) fails
  # here.
  BUILD_DIR=build-ci OUT_DIR="${tmp}/golden" JOBS="${JOBS}" \
    ci/regen_goldens.sh >/dev/null
  local golden drift=0
  for golden in tests/golden/*.csv tests/golden/*_trace.json \
    tests/golden/*.tally; do
    if ! diff -u "${golden}" "${tmp}/golden/$(basename "${golden}")"; then
      drift=1
    fi
  done
  if [ "${drift}" -ne 0 ]; then
    echo "golden drift: regenerate with ci/regen_goldens.sh and commit" >&2
    return 1
  fi
  echo "goldens match regenerated tables and traces"
}

# Serving-layer smoke leg: builds the svc-labelled tests plus the load
# generator, runs them, then drives one fixed-seed load_gen schedule at
# (1 shard, 1 thread) and (8 shards, 4 threads) and requires both
# deterministic tally blocks byte-identical to tests/golden/load_gen.tally
# (written by ci/regen_goldens.sh): shard/thread invariance, and response
# content pinned, end to end on the real binary. The sanitizer legs
# additionally run the same tests via their tier1 label.
svc_leg() {
  run_suite build-ci-svc svc -DHBSPK_WERROR=ON

  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  echo "== build load_gen"
  cmake --build build-ci-svc -j "${JOBS}" --target load_gen >/dev/null

  local gen=build-ci-svc/bench/load_gen
  "${gen}" --qps 200 --duration 0.5 --expired 0.1 --capacity 8 \
    --shards 1 --threads 1 --tally "${tmp}/s1.tally" >/dev/null
  "${gen}" --qps 200 --duration 0.5 --expired 0.1 --capacity 8 \
    --shards 8 --threads 4 --tally "${tmp}/s8.tally" >/dev/null
  cmp tests/golden/load_gen.tally "${tmp}/s1.tally"
  cmp tests/golden/load_gen.tally "${tmp}/s8.tally"
  echo "load_gen tally at (1 shard, 1 thread) and (8 shards, 4 threads) matches tests/golden/load_gen.tally"
}

# Release-mode scenario-throughput leg: runs the perf_snapshot basket twice
# in fresh processes and requires byte-identical counters (each run is
# cache-cold at rep 0, so totals must agree run-to-run, not just
# thread-to-thread), then gates the warm-cache speedup and runs the repo
# benchmark's determinism check and its traced path. Timing snapshots land
# in build-ci-relperf/ for CI to upload as artifacts.
relperf_leg() {
  local dir=build-ci-relperf
  echo "== configure ${dir} (Release)"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "== build perf_snapshot"
  cmake --build "${dir}" -j "${JOBS}" --target perf_snapshot >/dev/null

  echo "== perf_snapshot run A"
  "${dir}/bench/perf_snapshot" --threads 4 --out "${dir}/BENCH_relperf_a.json"
  # Run B records spans (wall scopes, request lifecycles, every sim span):
  # diffing its counters against the untraced run A proves tracing enabled
  # perturbs no counter, not merely tracing compiled-in-but-off.
  echo "== perf_snapshot run B (traced)"
  "${dir}/bench/perf_snapshot" --threads 4 --out "${dir}/BENCH_relperf_b.json" \
    --trace-out "${dir}/BENCH_relperf_trace.json"

  echo "== schema validation"
  python3 ci/validate_bench.py "${dir}/BENCH_relperf_a.json" ci/bench_schema.json
  python3 ci/validate_trace.py "${dir}/BENCH_relperf_trace.json"

  echo "== run-to-run counter determinism (untraced A vs traced B)"
  python3 ci/diff_bench_counters.py \
    "${dir}/BENCH_relperf_a.json" "${dir}/BENCH_relperf_b.json"

  echo "== warm-cache speedup"
  python3 ci/check_timing.py "${dir}/BENCH_relperf_a.json"

  # The compute-once contract end to end on the repo benchmark: output
  # digests and cold-cycle plancache.*/scenario.* hit and miss counts must
  # match at 1 vs 4 threads and differ between seeds 1 and 2.
  echo "== perfbench determinism"
  python3 perfbench/determinism.py --seconds 1 | tee "${dir}/perfbench_determinism.out"

  # The same lines pinned against the committed ones, so an output that
  # moves fails here even when it moves alike at every thread count and
  # seed. Only the indented "deterministic:" lines are pinned; the
  # "threads 1 vs N" lines name the host's core count. After checking why a
  # line moved, re-pin with
  #   python3 perfbench/determinism.py --seconds 1 \
  #     | grep '^    deterministic' > ci/perfbench_determinism.txt
  echo "== perfbench determinism lines vs ci/perfbench_determinism.txt"
  grep '^    deterministic' "${dir}/perfbench_determinism.out" \
    | diff ci/perfbench_determinism.txt -

  # perfbench's traced path, which every per-layer number comes from: each
  # workload, run once at --trace 1, must end correct with no failures,
  # report exactly BENCHMARK.json's per_layer metrics and write a valid
  # trace.
  echo "== perfbench traced runs"
  python3 ci/check_perfbench_traced.py
}

case "${CONFIG}" in
  all)
    lint_leg
    plain_leg
    svc_leg
    run_suite build-ci-tsan tier1 -DHBSP_SANITIZE=thread
    run_suite build-ci-asan tier1 -DHBSP_SANITIZE=address
    run_suite build-ci-ubsan tier1 -DHBSP_SANITIZE=undefined
    relperf_leg
    ;;
  lint)  lint_leg ;;
  plain) plain_leg ;;
  svc)   svc_leg ;;
  tsan)  run_suite build-ci-tsan tier1 -DHBSP_SANITIZE=thread ;;
  asan)  run_suite build-ci-asan tier1 -DHBSP_SANITIZE=address ;;
  ubsan) run_suite build-ci-ubsan tier1 -DHBSP_SANITIZE=undefined ;;
  relperf) relperf_leg ;;
  *)
    echo "unknown CONFIG '${CONFIG}' (want all|lint|plain|svc|tsan|asan|ubsan|relperf)" >&2
    exit 2
    ;;
esac

echo "ci/check.sh: ${CONFIG} green"
