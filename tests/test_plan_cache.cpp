// Differential suite for the plan cache: a memoized plan must be
// indistinguishable from a freshly built one — schedule value-identical
// (CommSchedule::operator==), predicted cost the exact CostModel price,
// kept fingerprint the schedule's own hash — on every collective and every
// machine shape, and distinct requests must never share an entry.

#include "collectives/plan_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"

namespace hbsp::coll {
namespace {

/// The machine basket the differential sweep covers: both presets the §5
/// experiments use, the k = 3 grid, and random trees of every depth the
/// model supports (k <= 3).
std::vector<std::pair<std::string, MachineTree>> machine_basket() {
  std::vector<std::pair<std::string, MachineTree>> basket;
  basket.emplace_back("testbed10", make_paper_testbed(10));
  basket.emplace_back("figure1_campus", make_figure1_cluster());
  basket.emplace_back("wide_area_grid", make_wide_area_grid());
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomTreeOptions options;
    options.levels = static_cast<int>(seed);  // k = 1, 2, 3
    options.min_fanout = 2;
    options.max_fanout = 3;
    basket.emplace_back("random_k" + std::to_string(seed),
                        make_random_tree(options, seed * 97 + 11));
  }
  return basket;
}

/// Flat machines (every child of the root is a processor) are the only ones
/// the flat-only collectives accept.
bool is_flat(const MachineTree& tree) {
  for (int j = 0; j < tree.num_children(tree.root()); ++j) {
    if (!tree.is_processor(tree.child(tree.root(), j))) return false;
  }
  return true;
}

/// Every PlanRequest that is valid on `tree`: all collectives, both share
/// policies, both broadcast top phases.
std::vector<PlanRequest> request_basket(const MachineTree& tree) {
  const int root = tree.coordinator_pid(tree.root());
  std::vector<PlanRequest> requests;
  for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
    for (const CollectiveKind kind :
         {CollectiveKind::kGather, CollectiveKind::kScatter,
          CollectiveKind::kReduce}) {
      requests.push_back(
          {.kind = kind, .n = 4096, .root_pid = root, .shares = shares});
    }
    for (const TopPhase top : {TopPhase::kTwoPhase, TopPhase::kOnePhase}) {
      requests.push_back({.kind = CollectiveKind::kBroadcast,
                          .n = 4096,
                          .root_pid = root,
                          .shares = shares,
                          .top_phase = top});
    }
    requests.push_back(
        {.kind = CollectiveKind::kAllgather, .n = 4096, .shares = shares});
    if (is_flat(tree)) {
      requests.push_back(
          {.kind = CollectiveKind::kScan, .n = 4096, .shares = shares});
      requests.push_back(
          {.kind = CollectiveKind::kAlltoall, .n = 4096, .shares = shares});
    }
  }
  return requests;
}

TEST(PlanCacheDifferential, CachedPlanEqualsFreshBuildEverywhere) {
  for (const auto& [name, tree] : machine_basket()) {
    PlanCache cache;
    for (const PlanRequest& request : request_basket(tree)) {
      const auto cached = cache.get(tree, request);
      ASSERT_NE(cached, nullptr);
      // Schedule value-identical to a cache-free build, cost the exact
      // CostModel price of that schedule.
      const CommSchedule fresh = build_plan(tree, request);
      EXPECT_EQ(cached->schedule, fresh) << name;
      EXPECT_EQ(cached->predicted_cost, CostModel{tree}.cost(fresh).total())
          << name;
      // The warm request returns the identical object, not a rebuild.
      EXPECT_EQ(cache.get(tree, request), cached) << name;
    }
  }
}

TEST(PlanCacheDifferential, DistinctRequestsGetDistinctKeys) {
  // The key is (tree fingerprint, request) verbatim: every request in the
  // basket must get an entry of its own on its machine, and no two machines
  // may share a fingerprint, so the same request keys differently on each.
  PlanCache cache;
  std::map<std::uint64_t, std::string> machines;
  for (const auto& [name, tree] : machine_basket()) {
    const auto [it, inserted] = machines.emplace(tree.fingerprint(), name);
    EXPECT_TRUE(inserted) << name << " shares a fingerprint with "
                          << it->second;
    for (const PlanRequest& request : request_basket(tree)) {
      const std::size_t before = cache.size();
      (void)cache.get(tree, request);
      EXPECT_EQ(cache.size(), before + 1) << name << " aliases an entry";
    }
  }
}

TEST(PlanCacheDifferential, ColdAndWarmSweepCsvsAreByteIdentical) {
  // The throughput layer's core soundness claim at the table level: a sweep
  // served entirely from warm caches renders the same CSV text as a cold one.
  exp::FigureConfig config;
  config.processors = {2, 3, 4};
  config.kbytes = {100, 300};

  exp::SweepRunner runner;
  PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const std::string cold =
      exp::improvement_csv(exp::gather_root_experiment(config, runner));
  const std::string warm =
      exp::improvement_csv(exp::gather_root_experiment(config, runner));
  EXPECT_EQ(cold, warm);

  exp::ChaosConfig chaos;
  chaos.fault_rates = {0.0, 2.0};
  chaos.loss_probs = {0.0, 0.05};
  chaos.p = 4;
  chaos.kbytes = 200;
  PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const std::string chaos_cold =
      exp::chaos_csv(exp::chaos_sweep(chaos, runner));
  const std::string chaos_warm =
      exp::chaos_csv(exp::chaos_sweep(chaos, runner));
  EXPECT_EQ(chaos_cold, chaos_warm);
}

TEST(PlanCacheFingerprint, KeptStampEqualsAFreshHashEverywhere) {
  for (const auto& [name, tree] : machine_basket()) {
    PlanCache cache;
    for (const PlanRequest& request : request_basket(tree)) {
      const auto plan = cache.get(tree, request);
      const std::uint64_t stamped = plan->fingerprint();
      EXPECT_EQ(stamped, plan->schedule.fingerprint()) << name;
      EXPECT_EQ(stamped, build_plan(tree, request).fingerprint()) << name;
      // The second call reads the kept value, and a warm get() hands back
      // the same stamped plan.
      EXPECT_EQ(plan->fingerprint(), stamped) << name;
      EXPECT_EQ(cache.get(tree, request)->fingerprint(), stamped) << name;
    }
  }
}

TEST(PlanCacheFingerprint, ConcurrentFirstCallsAgree) {
  // Svc workers and sweep threads share plans, so the first fingerprint()
  // calls on one plan can race. All of them must read the schedule's hash
  // (the thread sanitizer leg runs this for data races).
  const std::array<double, 4> cycle = {1.0, 2.5, 1.6, 4.0};
  const MachineTree tree = make_uniform_tree(3, 10, cycle);
  const PlanRequest request{.kind = CollectiveKind::kBroadcast,
                            .n = 100000,
                            .root_pid = 0,
                            .top_phase = TopPhase::kTwoPhase};
  PlanCache cache;
  const auto plan = cache.get(tree, request);
  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  std::vector<std::uint64_t> seen(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      start.wait();
      seen[t] = plan->fingerprint();
    });
  }
  go.set_value();
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t want = build_plan(tree, request).fingerprint();
  for (const std::uint64_t value : seen) EXPECT_EQ(value, want);
}

/// Simulates `plan` through the CachedPlan form and then its schedule
/// through the CommSchedule form, from cold caches and a zeroed registry.
/// Both must land on one scenario entry: one miss, then one hit.
void expect_one_scenario_entry(const MachineTree& tree, const CachedPlan& plan,
                               const faults::FaultInjector* injector) {
  auto& registry = obs::Registry::global();
  registry.reset();
  exp::ScenarioCache::global().clear();
  const sim::SimParams params;
  const double via_plan = exp::simulate_makespan(tree, plan, params, injector);
  const double via_schedule =
      exp::simulate_makespan(tree, plan.schedule, params, injector);
  EXPECT_EQ(via_plan, via_schedule);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("scenario.misses"), 1u);
  EXPECT_EQ(snap.counter("scenario.hits"), 1u);
  EXPECT_EQ(exp::ScenarioCache::global().size(), 1u);
  exp::ScenarioCache::global().clear();
}

TEST(ScenarioCacheKey, PlanAndItsScheduleShareOneEntry) {
  // Both overloads must build one ScenarioKey: the scenario.* counters
  // pinned in BENCH_3.json count entries, whichever way a scenario came in.
  const MachineTree tree = make_paper_testbed(6);
  PlanCache cache;
  const auto plan = cache.get(tree, {.kind = CollectiveKind::kGather,
                                     .n = 100000,
                                     .root_pid = tree.slowest_pid(tree.root()),
                                     .shares = Shares::kEqual});
  expect_one_scenario_entry(tree, *plan, nullptr);

  faults::ChaosOptions options;
  options.slowdown_rate = 2.0;
  options.message_loss_probability = 0.05;
  const faults::FaultInjector injector{
      faults::make_chaos_plan(tree.num_processors(), options, 2001)};
  expect_one_scenario_entry(tree, *plan, &injector);
}

/// The sim.* part of a registry snapshot: each counter's value and each
/// histogram's count, sum, min, max and buckets, for exact comparison.
struct SimTotals {
  using Histogram = std::tuple<std::uint64_t, double, double, double,
                               std::vector<std::uint64_t>>;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Histogram> histograms;
};

SimTotals sim_totals(const obs::MetricsSnapshot& snap) {
  SimTotals totals;
  for (const obs::CounterValue& c : snap.counters) {
    if (c.name.starts_with("sim.")) totals.counters[c.name] = c.value;
  }
  for (const obs::HistogramValue& h : snap.histograms) {
    if (h.name.starts_with("sim.")) {
      totals.histograms[h.name] = {h.count, h.sum, h.min, h.max, h.buckets};
    }
  }
  return totals;
}

TEST(ScenarioCacheReplay, HitWritesWhatTheRunWrote) {
  // A hit replays the miss's run record through the calling thread's
  // handles, resolved on that thread's first replay. On the thread that
  // simulated and on a new one, the sim.* totals must equal the
  // simulation's own, histogram sums to the bit.
  auto& registry = obs::Registry::global();
  auto& scenarios = exp::ScenarioCache::global();
  const sim::SimParams params;
  for (const MachineTree& tree :
       {make_figure1_cluster(), make_paper_testbed(6)}) {
    const auto plan = PlanCache{}.get(
        tree, {.kind = CollectiveKind::kGather,
               .n = 100000,
               .root_pid = tree.slowest_pid(tree.root()),
               .shares = Shares::kEqual});
    faults::ChaosOptions options;
    options.slowdown_rate = 2.0;
    options.drop_probability = 0.2;
    options.message_loss_probability = 0.05;
    const faults::FaultInjector chaos{
        faults::make_chaos_plan(tree.num_processors(), options, 2001)};
    for (const faults::FaultInjector* injector : {
             static_cast<const faults::FaultInjector*>(nullptr), &chaos}) {
      SCOPED_TRACE(injector == nullptr ? "fault-free" : "chaos");
      const auto replay = [&] {
        (void)exp::simulate_makespan(tree, *plan, params, injector);
      };
      scenarios.clear();
      registry.reset();
      replay();
      ASSERT_EQ(registry.snapshot().counter("scenario.misses"), 1u);
      const SimTotals simulated = sim_totals(registry.snapshot());
      ASSERT_EQ(simulated.counters.at("sim.runs"), 1u);
      ASSERT_EQ(simulated.histograms.size(), 3u);

      registry.reset();
      replay();
      const SimTotals here = sim_totals(registry.snapshot());
      EXPECT_EQ(here.counters, simulated.counters);
      EXPECT_EQ(here.histograms, simulated.histograms);

      registry.reset();
      std::thread{replay}.join();
      const obs::MetricsSnapshot there_snap = registry.snapshot();
      EXPECT_EQ(there_snap.counter("scenario.hits"), 1u);
      const SimTotals there = sim_totals(there_snap);
      EXPECT_EQ(there.counters, simulated.counters);
      EXPECT_EQ(there.histograms, simulated.histograms);
    }
  }
  scenarios.clear();
}

TEST(PlanCacheLifetime, PlansSurviveClear) {
  const MachineTree tree = make_paper_testbed(4);
  PlanCache cache;
  const auto plan = cache.get(
      tree, {.kind = CollectiveKind::kGather, .n = 512, .root_pid = 0});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // The shared_ptr keeps the plan alive; a re-request rebuilds to the same
  // value.
  EXPECT_FALSE(plan->schedule.phases.empty());
  const auto rebuilt = cache.get(
      tree, {.kind = CollectiveKind::kGather, .n = 512, .root_pid = 0});
  EXPECT_NE(rebuilt, plan);
  EXPECT_EQ(rebuilt->schedule, plan->schedule);
}

TEST(PlanCacheErrors, PlannerRejectionLeavesNoPlaceholder) {
  // A flat-only collective on a hierarchy throws out of build_plan; the
  // cache must surface the error and stay clean so later requests work.
  const MachineTree tree = make_figure1_cluster();
  PlanCache cache;
  EXPECT_THROW((void)cache.get(tree, {.kind = CollectiveKind::kAlltoall,
                                      .n = 100}),
               std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.get(tree, {.kind = CollectiveKind::kGather,
                             .n = 100,
                             .root_pid = tree.coordinator_pid(tree.root())}),
            nullptr);
}

}  // namespace
}  // namespace hbsp::coll
