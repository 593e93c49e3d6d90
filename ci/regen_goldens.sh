#!/usr/bin/env bash
# Rebuilds every golden under tests/golden/ (CSVs, trace JSON, the load_gen
# tally) in one command, so a deliberate change to the simulator, the
# planners, the service or the seed-splitting scheme updates all pins
# consistently (then review the diff and commit).
#
#   ci/regen_goldens.sh             # build into ./build and regenerate
#   BUILD_DIR=build-ci ci/regen_goldens.sh
#   OUT_DIR=/tmp/goldens ci/regen_goldens.sh   # write elsewhere (drift check)
#
# Every sweep golden is produced by the corresponding bench binary at
# --threads 8 — the same tables at any thread count, which is the point of
# pinning them. CI's golden-drift step regenerates into a temp OUT_DIR and
# diffs against the committed files, so a behaviour change that forgot to
# re-pin fails; the svc leg compares its load_gen tallies with the pinned one.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-tests/golden}"
JOBS="${JOBS:-$(nproc)}"

mkdir -p "${OUT_DIR}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target fig3a_gather_root fig3b_gather_balance fig4a_bcast_root \
  fig4b_bcast_balance chaos_sweep load_gen >/dev/null

for figure in fig3a:fig3a_gather_root fig3b:fig3b_gather_balance \
  fig4a:fig4a_bcast_root fig4b:fig4b_bcast_balance; do
  "${BUILD_DIR}/bench/${figure#*:}" --threads 8 \
    --csv "${OUT_DIR}/${figure%%:*}.csv" >/dev/null
  echo "regenerated ${OUT_DIR}/${figure%%:*}.csv"
done

# Virtual-time trace goldens use the small 3x3 grid so the committed JSON
# stays reviewable (~18 KB). Byte-identical at any --threads by design —
# the trace determinism suite and CI's trace gate both lean on that.
"${BUILD_DIR}/bench/fig3a_gather_root" --threads 8 --grid small \
  --trace-out "${OUT_DIR}/fig3a_trace.json" >/dev/null
echo "regenerated ${OUT_DIR}/fig3a_trace.json"

"${BUILD_DIR}/bench/fig4a_bcast_root" --threads 8 --grid small \
  --trace-out "${OUT_DIR}/fig4a_trace.json" >/dev/null
echo "regenerated ${OUT_DIR}/fig4a_trace.json"

"${BUILD_DIR}/bench/chaos_sweep" --threads 8 \
  --csv "${OUT_DIR}/chaos_sweep.csv" >/dev/null
echo "regenerated ${OUT_DIR}/chaos_sweep.csv"

# The service's response content: the deterministic tally (outcomes plus a
# checksum of every completed response's content fingerprint) of the svc
# leg's fixed-seed load_gen run. The same at any shard and thread count.
"${BUILD_DIR}/bench/load_gen" --qps 200 --duration 0.5 --expired 0.1 \
  --capacity 8 --shards 1 --threads 1 --tally "${OUT_DIR}/load_gen.tally" \
  >/dev/null
echo "regenerated ${OUT_DIR}/load_gen.tally"

if [ "${OUT_DIR}" = "tests/golden" ]; then
  git --no-pager diff --stat -- tests/golden || true
fi
