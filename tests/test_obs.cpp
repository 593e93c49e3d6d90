// Tests for the obs metrics layer: registry semantics, the order-independent
// shard merge that makes counters safe to CI-gate across thread counts, and
// the reconciliation between the simulator's counters and the schedule's own
// message accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "collectives/schedule_replay.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/scenario_cache.hpp"
#include "faults/injector.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/hbsplib.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp {
namespace {

using obs::MetricsSnapshot;
using obs::Registry;

/// The chaos config every thread-count test shares: small but non-trivial,
/// with both slowdowns and message loss active.
exp::ChaosConfig small_chaos() {
  exp::ChaosConfig config;
  config.fault_rates = {0.0, 2.0};
  config.loss_probs = {0.0, 0.05};
  config.p = 4;
  config.kbytes = 200;
  return config;
}

/// Counters of a snapshot as a name -> value map, for exact comparison.
std::map<std::string, std::uint64_t> counter_map(const MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> map;
  for (const obs::CounterValue& c : snap.counters) map[c.name] = c.value;
  return map;
}

TEST(ObsRegistry, CounterAccumulatesAcrossHandles) {
  Registry registry;
  registry.counter("events").add(3);
  registry.counter("events").increment();
  auto handle = registry.counter("events");
  handle.add(6);
  EXPECT_EQ(registry.snapshot().counter("events"), 10u);
}

TEST(ObsRegistry, LookupByViewFindsTheSameCell) {
  // A lookup by std::string_view (here one that is not null-terminated, and
  // one long enough to defeat the small-string buffer) reaches the cell the
  // std::string name created, and creates it under exactly that name.
  Registry registry;
  const std::string_view names = "scenario.misses.and.more";
  registry.counter(names.substr(0, 15)).increment();
  registry.counter(std::string{"scenario.misses"}).increment();
  registry.histogram(names).record(1.0);
  registry.histogram("scenario.misses.and.more").record(2.0);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters.front().name, "scenario.misses");
  EXPECT_EQ(snap.counters.front().value, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.front().count, 2u);
}

TEST(ObsRegistry, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("zeta").increment();
  registry.counter("alpha").increment();
  registry.counter("mid").increment();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(ObsRegistry, GaugeMergesByMax) {
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&registry, t] { registry.gauge("width").set(static_cast<double>(t)); });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 3.0);
}

TEST(ObsRegistry, CounterTotalsAreThreadCountInvariant) {
  // 4 threads x 1000 increments must merge to exactly 4000, and the shard
  // count must reflect that each writer got its own slice.
  Registry registry;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      auto counter = registry.counter("hits");
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counter("hits"), kThreads * kPerThread);
  EXPECT_GE(registry.shard_count(), static_cast<std::size_t>(kThreads));
}

TEST(ObsRegistry, ResetZeroesEveryCell) {
  Registry registry;
  registry.counter("n").add(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h").record(0.125);
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("n"), 0u);
  // Empty histograms are omitted from snapshots entirely.
  EXPECT_EQ(snap.histogram("h"), nullptr);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(ObsHistogram, BucketBoundsAreExponential) {
  EXPECT_EQ(obs::bucket_lower_bound(0), 0.0);
  EXPECT_DOUBLE_EQ(obs::bucket_lower_bound(1), 1e-9);
  EXPECT_DOUBLE_EQ(obs::bucket_lower_bound(2), 4e-9);
  EXPECT_EQ(obs::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::bucket_index(5e-10), 0u);
  EXPECT_EQ(obs::bucket_index(2e-9), 1u);
  EXPECT_EQ(obs::bucket_index(1e30), obs::kHistogramBuckets - 1);
}

TEST(ObsHistogram, RecordTracksCountSumMinMax) {
  Registry registry;
  auto h = registry.histogram("t");
  h.record(0.5);
  h.record(0.25);
  h.record(2.0);
  const MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramValue* value = snap.histogram("t");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->count, 3u);
  EXPECT_DOUBLE_EQ(value->sum, 2.75);
  EXPECT_DOUBLE_EQ(value->min, 0.25);
  EXPECT_DOUBLE_EQ(value->max, 2.0);
  EXPECT_NEAR(value->mean(), 2.75 / 3.0, 1e-15);
}

TEST(ObsHistogram, MergeIsOrderIndependent) {
  // Double addition does not commute, so a naive shard-order sum would make
  // histogram sums depend on thread scheduling. merge_histograms must be a
  // pure function of the *set* of shards: any permutation, bit-identical
  // result.
  std::mt19937_64 rng{2024};
  std::uniform_real_distribution<double> value(1e-8, 10.0);
  std::vector<obs::detail::HistogramCell> parts(7);
  for (auto& part : parts) {
    const int n = static_cast<int>(rng() % 40) + 1;
    for (int i = 0; i < n; ++i) part.record(value(rng));
  }

  const obs::HistogramValue reference = obs::merge_histograms("m", parts);
  std::vector<obs::detail::HistogramCell> shuffled = parts;
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const obs::HistogramValue merged = obs::merge_histograms("m", shuffled);
    EXPECT_EQ(merged.count, reference.count);
    EXPECT_EQ(merged.sum, reference.sum);  // bit-identical, not just close
    EXPECT_EQ(merged.min, reference.min);
    EXPECT_EQ(merged.max, reference.max);
    EXPECT_EQ(merged.buckets, reference.buckets);
  }
}

TEST(ObsSim, CountersReconcileWithScheduleFaultFree) {
  // Without faults every planned message is attempted exactly once and
  // delivered: the sim.* counters must agree with the schedule's own count.
  auto& registry = Registry::global();
  registry.reset();

  const MachineTree tree = make_paper_testbed(6);
  const CommSchedule schedule = coll::plan_gather(tree, 100000, {});
  sim::ClusterSim sim{tree, sim::SimParams{}};
  (void)sim.run(schedule);

  const MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t planned = schedule.total_messages();
  EXPECT_EQ(snap.counter("sim.send_attempts"), planned);
  EXPECT_EQ(snap.counter("sim.messages_delivered"), planned);
  EXPECT_EQ(snap.counter("sim.messages_lost"), 0u);
  EXPECT_EQ(snap.counter("sim.retries"), 0u);
  EXPECT_EQ(snap.counter("sim.runs"), 1u);
}

TEST(ObsSim, CountersReconcileUnderMessageLoss) {
  // With loss, every attempt either delivers or is lost, and every loss that
  // was retried shows up in sim.retries. The run completes (the retry
  // transport re-sends until delivery), so deliveries still equal the plan.
  auto& registry = Registry::global();
  registry.reset();

  const MachineTree tree = make_paper_testbed(6);
  const CommSchedule schedule = coll::plan_gather(tree, 100000, {});
  faults::FaultPlan plan;
  plan.message_loss_probability = 0.2;
  plan.loss_seed = 99;
  const faults::FaultInjector injector{plan};
  sim::ClusterSim sim{tree, sim::SimParams{}};
  sim.set_fault_injector(&injector);
  (void)sim.run(schedule);

  const MetricsSnapshot snap = registry.snapshot();
  const std::uint64_t planned = schedule.total_messages();
  const std::uint64_t attempts = snap.counter("sim.send_attempts");
  const std::uint64_t delivered = snap.counter("sim.messages_delivered");
  const std::uint64_t lost = snap.counter("sim.messages_lost");
  EXPECT_EQ(delivered, planned);
  EXPECT_EQ(attempts, delivered + lost);
  EXPECT_EQ(snap.counter("sim.retries"), lost);
  EXPECT_GT(lost, 0u) << "seed 99 at 20% loss should lose something";
}

TEST(ObsRuntime, ReplayPoolTalliesReconcileWithScheduleAndSim) {
  // Three independent accountings of the same schedule must agree: the
  // schedule's own message count, the sim.* tallies perf_snapshot publishes
  // (the runtime's virtual clock runs on the cluster simulator, so one
  // replay produces both families), and the replay's buffer-pool counters
  // (one acquire per send).
  auto& registry = Registry::global();
  registry.reset();

  const MachineTree tree = make_figure1_cluster();
  const CommSchedule schedule = coll::plan_gather(tree, 100000, {});
  std::uint64_t sendable = 0;
  for (const auto& phase : schedule.phases) {
    for (const auto& plan : phase.plans) {
      for (const auto& t : plan.transfers) {
        if (t.src_pid != t.dst_pid && t.items > 0) ++sendable;
      }
    }
  }

  (void)rt::run_program(tree, sim::SimParams{},
                        coll::make_replay_program(tree, schedule));

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(sendable, schedule.total_messages());
  EXPECT_EQ(snap.counter("rt.pool.acquires"), sendable);
  EXPECT_EQ(snap.counter("sim.send_attempts"), sendable);
  EXPECT_EQ(snap.counter("sim.messages_delivered"), sendable);
  // The gather is multi-level, so buffers recycled after the leaf superstep
  // feed the forwarding supersteps: the pool must actually reuse.
  EXPECT_GT(snap.counter("rt.pool.reuses"), 0u);
  EXPECT_LE(snap.counter("rt.pool.reuses"), snap.counter("rt.pool.acquires"));
}

TEST(ObsSweep, ChaosCountersAreThreadCountInvariant) {
  // The CI gate's core claim, in-process: the merged counter totals of a
  // chaos sweep are identical at 1 and 4 threads — names and values both.
  auto& registry = Registry::global();

  // Both sweeps must start cache-cold, exactly as two separate processes
  // would: a warm plan/scenario cache shifts misses to hits between sweeps,
  // which is the one legitimate way their counters may differ.
  registry.reset();
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  exp::SweepRunner serial{1};
  (void)exp::chaos_sweep(small_chaos(), serial);
  const auto counters_t1 = counter_map(registry.snapshot());

  registry.reset();
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  exp::SweepRunner parallel{4};
  (void)exp::chaos_sweep(small_chaos(), parallel);
  const auto counters_t4 = counter_map(registry.snapshot());

  EXPECT_EQ(counters_t1, counters_t4);
  EXPECT_GT(counters_t1.at("sim.send_attempts"), 0u);
  EXPECT_EQ(counters_t1.at("chaos.cells"), 4u);
}

TEST(ObsExport, JsonEscaping) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::json_escape(std::string{"\x01"}), "\\u0001");
}

TEST(ObsExport, JsonNumberIsRoundTrippable) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(0.1), "0.1");  // shortest round-trip form
  const double value = 31.259891750000005;
  EXPECT_EQ(std::stod(obs::json_number(value)), value);
}

TEST(ObsExport, EqualSnapshotsSerializeByteIdentically) {
  Registry a;
  Registry b;
  for (Registry* r : {&a, &b}) {
    r->counter("sim.runs").add(5);
    r->gauge("sweep.threads").set(4.0);
    r->histogram("sim.makespan").record(0.125);
    r->histogram("sim.makespan").record(0.5);
  }
  EXPECT_EQ(obs::snapshot_json(a.snapshot()), obs::snapshot_json(b.snapshot()));
}

}  // namespace
}  // namespace hbsp
