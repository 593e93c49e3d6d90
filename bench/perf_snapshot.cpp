// Perf snapshot driver: runs a fixed workload basket and emits
// BENCH_<pr>.json — the machine-readable performance record the CI perf
// gate (ci/perf_gate.sh) validates and diffs across PRs.
//
// The basket exercises every instrumented layer:
//   fig3a / fig4a    the §5 root-placement sweeps (sim + planners + sweep)
//   chaos            the fault-rate × loss grid (faults + retry transport)
//   resilience       one degraded-mode re-planning run (advisor + replans)
//   micro_sim        a BM-style loop re-running one gather schedule
//   micro_planner    a BM-style loop re-planning gather/broadcast
//   micro_advisor    a BM-style loop of full advise() calls
//   service          a seeded load run against the svc advisory service
//                    (coalescing, admission control, deadline shedding)
//
// Each workload runs --reps times (default 5) with the global plan and
// scenario caches cleared once up front: repetition 0 is the cold pass,
// repetitions 1.. run against warm caches. Every repetition resets the
// metrics registry first; the snapshot and wall_seconds in the JSON are the
// cold pass's (byte-identical to a standalone run), and the "timing" object
// carries cold vs median/min/max warm monotonic-clock seconds — the wall-time
// half of the perf gate (ci/check_timing.py).
//
// Counters are deterministic totals (byte-identical at any --threads);
// gauges, histograms and timings carry the wall-clock/scheduling side.
// Counters are exact-matched by the gate, timings are ratio-gated.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "collectives/resilience.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/cluster_sim.hpp"
#include "obs/metrics.hpp"
#include "svc/load_harness.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"
#include "util/units.hpp"

// Resolved build configuration, stamped into the snapshot's "meta" block by
// bench/CMakeLists.txt. check_timing.py refuses to gate timings unless the
// block says Release with no sanitizer.
#ifndef HBSPK_BUILD_TYPE
#define HBSPK_BUILD_TYPE "unknown"
#endif
#ifndef HBSPK_SANITIZE
#define HBSPK_SANITIZE ""
#endif

namespace {

using namespace hbsp;

struct TimingStats {
  std::int64_t reps = 1;
  double cold_seconds = 0.0;         ///< repetition 0, cache-cold
  double warm_median_seconds = 0.0;  ///< median of repetitions 1..reps-1
  double warm_min_seconds = 0.0;
  double warm_max_seconds = 0.0;
};

struct WorkloadResult {
  std::string name;
  double wall_seconds = 0.0;  ///< == timing.cold_seconds (back-compat field)
  TimingStats timing;
  obs::MetricsSnapshot snapshot;  ///< cold repetition's metrics
};

WorkloadResult run_workload(const std::string& name, std::int64_t reps,
                            const std::function<void()>& body) {
  auto& registry = obs::Registry::global();
  // Cold start: both process-wide caches empty, exactly like a fresh
  // process. Repetitions after the first then measure the warm path.
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();

  WorkloadResult result;
  result.name = name;
  // With --trace-out the recorder is live: every span this workload records
  // (wall rep spans here, virtual sim spans below) lands under its name.
  const obs::TraceContext trace_context{name};
  std::vector<double> warm;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    registry.reset();
    const auto start = std::chrono::steady_clock::now();
    {
      const obs::WallScope rep_span{"bench/" + name, name,
                                    obs::SpanKind::kOther, {{"rep", rep}}};
      body();
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (rep == 0) {
      result.wall_seconds = wall;
      result.timing.cold_seconds = wall;
      result.snapshot = registry.snapshot();
    } else {
      warm.push_back(wall);
    }
  }
  // With --reps 1 there is no warm pass; report the cold time so the fields
  // stay populated (the gate's warm-vs-cold check needs reps >= 2 anyway).
  if (warm.empty()) warm.push_back(result.timing.cold_seconds);
  std::sort(warm.begin(), warm.end());
  const std::size_t mid = warm.size() / 2;
  result.timing.reps = reps;
  result.timing.warm_median_seconds =
      warm.size() % 2 == 1 ? warm[mid] : 0.5 * (warm[mid - 1] + warm[mid]);
  result.timing.warm_min_seconds = warm.front();
  result.timing.warm_max_seconds = warm.back();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("out", "output JSON path (default BENCH_3.json)")
      .allow("pr", "PR number stamped into the snapshot (default 3)")
      .allow("threads", "sweep worker threads (default 1)")
      .allow("iters", "micro-loop iterations (default 40)")
      .allow("reps", "repetitions per workload: 1 cold + reps-1 warm (default 5)")
      .allow("table", "also print the per-workload metric tables")
      .allow("trace-out",
             "record spans and write the Chrome trace to this JSON path");
  cli.validate();

  const std::string out_path = cli.get("out", "BENCH_3.json");
  const auto pr = cli.get_int("pr", 3);
  const int threads = static_cast<int>(cli.get_positive_int("threads", 1));
  const auto iters = cli.get_positive_int("iters", 40);
  const auto reps = cli.get_positive_int("reps", 5);
  const bool print_tables = cli.get_bool("table", false);
  const bool tracing = cli.has("trace-out");
  if (tracing) {
    obs::TraceRecorder::global().clear();
    obs::TraceRecorder::global().set_enabled(true);
  }

  exp::SweepRunner runner{threads};
  std::vector<WorkloadResult> results;

  const exp::FigureConfig fig{};
  results.push_back(run_workload(
      "fig3a", reps, [&] { (void)exp::gather_root_experiment(fig, runner); }));
  results.push_back(run_workload("fig4a", reps, [&] {
    (void)exp::broadcast_root_experiment(fig, runner);
  }));

  const exp::ChaosConfig chaos{};
  results.push_back(
      run_workload("chaos", reps, [&] { (void)exp::chaos_sweep(chaos, runner); }));

  results.push_back(run_workload("resilience", reps, [&] {
    // The chaos bench's demo scenario: drop the fastest machine mid-gather
    // with 2% message loss, forcing at least one advisor re-plan round.
    const MachineTree tree = make_paper_testbed(chaos.p, chaos.g, chaos.L);
    faults::FaultPlan plan;
    plan.drops.push_back({tree.coordinator_pid(tree.root()), 5e-3});
    plan.message_loss_probability = 0.02;
    plan.loss_seed = chaos.master_seed;
    (void)coll::run_with_replanning(tree, coll::CollectiveKind::kGather,
                                    util::ints_in_kbytes(chaos.kbytes),
                                    chaos.sim, plan);
  }));

  results.push_back(run_workload("micro_sim", reps, [&] {
    const MachineTree tree = make_paper_testbed(10);
    const CommSchedule schedule = coll::plan_gather(tree, 250000, {});
    sim::ClusterSim sim{tree, sim::SimParams{}};
    for (std::int64_t i = 0; i < iters; ++i) (void)sim.run(schedule);
  }));

  results.push_back(run_workload("micro_planner", reps, [&] {
    const MachineTree tree = make_paper_testbed(10);
    for (std::int64_t i = 0; i < iters; ++i) {
      (void)coll::plan_gather(tree, 250000, {});
      (void)coll::plan_broadcast(tree, 250000, {});
    }
  }));

  results.push_back(run_workload("micro_advisor", reps, [&] {
    const MachineTree tree = make_paper_testbed(8);
    for (std::int64_t i = 0; i < iters; ++i) {
      (void)coll::advise(tree, coll::CollectiveKind::kGather, 250000);
      (void)coll::advise(tree, coll::CollectiveKind::kBroadcast, 250000);
    }
  }));

  results.push_back(run_workload("service", reps, [&] {
    // One deterministic load run against the embedded advisory service:
    // 200 open-loop arrivals in 20-request windows against a 12-slot
    // admission queue, 1/8 of them carrying already-expired deadlines. The
    // svc.* counters (requests, coalesced, both shed families, completed)
    // are pure functions of the seed and mix, so the gate exact-matches
    // them across thread counts and runs like every other counter.
    svc::LoadConfig load;
    load.mode = svc::LoadMode::kOpenLoop;
    load.threads = threads;
    load.shards = 4;
    load.queue_capacity = 12;
    load.qps = 400.0;
    load.duration = 0.5;
    load.expired_fraction = 0.125;
    (void)svc::run_load(load);
  }));

  // Assemble BENCH_<pr>.json. Workload order is fixed by the basket above;
  // every map inside a snapshot is name-sorted, so two runs with equal
  // counters produce byte-identical "counters" objects.
  std::string json = "{\n";
  json += "  \"schema_version\": 3,\n";
  json += "  \"bench\": \"perf_snapshot\",\n";
  json += "  \"meta\": {\n";
  json += "    \"build_type\": \"" + obs::json_escape(HBSPK_BUILD_TYPE) +
          "\",\n";
  json += "    \"sanitizer\": \"" + obs::json_escape(HBSPK_SANITIZE) + "\"\n";
  json += "  },\n";
  json += "  \"pr\": " + std::to_string(pr) + ",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"iters\": " + std::to_string(iters) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    json += "    {\n";
    json += "      \"name\": \"" + obs::json_escape(r.name) + "\",\n";
    json += "      \"wall_seconds\": " + obs::json_number(r.wall_seconds) +
            ",\n";
    json += "      \"timing\": {\n";
    json += "        \"reps\": " + std::to_string(r.timing.reps) + ",\n";
    json += "        \"cold_seconds\": " +
            obs::json_number(r.timing.cold_seconds) + ",\n";
    json += "        \"warm_median_seconds\": " +
            obs::json_number(r.timing.warm_median_seconds) + ",\n";
    json += "        \"warm_min_seconds\": " +
            obs::json_number(r.timing.warm_min_seconds) + ",\n";
    json += "        \"warm_max_seconds\": " +
            obs::json_number(r.timing.warm_max_seconds) + "\n";
    json += "      },\n";
    json += "      \"metrics\": " + obs::snapshot_json(r.snapshot, 6) + "\n";
    json += i + 1 < results.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";

  util::write_text_file(out_path, json);

  if (tracing) {
    auto& recorder = obs::TraceRecorder::global();
    recorder.set_enabled(false);
    const obs::TraceSnapshot snapshot = recorder.snapshot();
    obs::write_chrome_trace(snapshot, cli.get("trace-out", ""));
    obs::self_time_table(snapshot).print();
    std::printf("perf_snapshot: %zu spans -> %s\n", snapshot.spans.size(),
                cli.get("trace-out", "").c_str());
  }

  if (print_tables) {
    for (const WorkloadResult& r : results) {
      obs::metrics_table(r.snapshot,
                         r.name + " (" + obs::json_number(r.wall_seconds) +
                             " s wall)")
          .print();
    }
  }
  std::printf(
      "perf_snapshot: %zu workloads -> %s (threads=%d, iters=%lld, reps=%lld)\n",
      results.size(), out_path.c_str(), threads,
      static_cast<long long>(iters), static_cast<long long>(reps));
  return 0;
}
