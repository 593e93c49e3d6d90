// Property tests over random machines: the collectives must move data
// correctly and agree with their planned costs on *any* valid HBSP^k
// machine, not just the hand-picked presets — including the k = 3 wide-area
// grid (the paper's "one can generalize the approach given here for these
// systems").

#include <gtest/gtest.h>

#include <numeric>

#include <atomic>

#include "collectives/executors.hpp"
#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "collectives/resilience.hpp"
#include "collectives/schedule_replay.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "sim/cluster_sim.hpp"
#include "util/rng.hpp"

namespace hbsp {
namespace {

const sim::SimParams kParams{};

std::vector<std::vector<std::int32_t>> slices_for(
    const std::vector<std::size_t>& shares) {
  std::vector<std::vector<std::int32_t>> slices;
  std::int32_t next = 0;
  for (const std::size_t count : shares) {
    std::vector<std::int32_t> slice(count);
    std::iota(slice.begin(), slice.end(), next);
    next += static_cast<std::int32_t>(count);
    slices.push_back(std::move(slice));
  }
  return slices;
}

class RandomMachineProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] MachineTree machine() const {
    RandomTreeOptions options;
    options.levels = 1 + static_cast<int>(GetParam() % 3);
    options.min_fanout = 2;
    options.max_fanout = 3;
    return make_random_tree(options, GetParam() * 31 + 5);
  }
  [[nodiscard]] std::size_t n() const { return 101 + (GetParam() % 7) * 173; }
  [[nodiscard]] coll::Shares shares() const {
    return GetParam() % 2 == 0 ? coll::Shares::kBalanced : coll::Shares::kEqual;
  }
};

TEST_P(RandomMachineProperty, GatherRoundTripsAllData) {
  const MachineTree tree = machine();
  const auto leaf = coll::leaf_shares(tree, n(), shares());
  const auto slices = slices_for(leaf);
  const int root = tree.coordinator_pid(tree.root());
  const std::size_t total = n();
  const coll::Shares policy = shares();

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto result = coll::gather<std::int32_t>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], total,
        {.root_pid = root, .shares = policy});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      ASSERT_EQ(result->size(), total);
      for (std::size_t i = 0; i < total; ++i) {
        EXPECT_EQ((*result)[i], static_cast<std::int32_t>(i));
      }
    }
  };
  (void)rt::run_program(tree, kParams, program);
}

TEST_P(RandomMachineProperty, ScatterThenGatherIsIdentity) {
  const MachineTree tree = machine();
  const int root = tree.coordinator_pid(tree.root());
  const std::size_t total = n();
  const coll::Shares policy = shares();
  std::vector<std::int32_t> input(total);
  std::iota(input.begin(), input.end(), 1000);

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto mine = coll::scatter<std::int32_t>(
        ctx, ctx.pid() == root ? std::span<const std::int32_t>{input}
                               : std::span<const std::int32_t>{},
        total, {.root_pid = root, .shares = policy});
    const auto back = coll::gather<std::int32_t>(
        ctx, mine, total, {.root_pid = root, .shares = policy});
    if (ctx.pid() == root) {
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, input);
    }
  };
  (void)rt::run_program(tree, kParams, program);
}

TEST_P(RandomMachineProperty, BroadcastDeliversEverywhere) {
  const MachineTree tree = machine();
  const int root = tree.coordinator_pid(tree.root());
  const std::size_t total = n();
  std::vector<std::int32_t> input(total);
  std::iota(input.begin(), input.end(), -50);
  std::atomic<int> confirmed{0};

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto result = coll::broadcast<std::int32_t>(
        ctx, ctx.pid() == root ? std::span<const std::int32_t>{input}
                               : std::span<const std::int32_t>{},
        total,
        {.root_pid = root,
         .top_phase = GetParam() % 2 == 0 ? coll::TopPhase::kTwoPhase
                                          : coll::TopPhase::kOnePhase,
         .shares = coll::Shares::kEqual});
    if (result == input) ++confirmed;
  };
  (void)rt::run_program(tree, kParams, program);
  EXPECT_EQ(confirmed.load(), tree.num_processors());
}

TEST_P(RandomMachineProperty, ReduceTreeSums) {
  const MachineTree tree = machine();
  if (tree.num_children(tree.root()) == 0) GTEST_SKIP();
  const auto leaf = coll::leaf_shares(tree, n(), shares());
  const int root = tree.coordinator_pid(tree.root());
  const std::size_t total = n();
  const coll::Shares policy = shares();

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::vector<std::int64_t> mine(
        leaf[static_cast<std::size_t>(ctx.pid())], 3);
    const auto result = coll::reduce_tree<std::int64_t>(
        ctx, mine, total, [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, {.root_pid = root, .shares = policy});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, 3 * static_cast<std::int64_t>(total));
    }
  };
  (void)rt::run_program(tree, kParams, program);
}

TEST_P(RandomMachineProperty, GatherCostEqualsSimulatedReplay) {
  const MachineTree tree = machine();
  const auto schedule = coll::plan_gather(tree, n(), {.root_pid = -1,
                                                      .shares = shares()});
  validate_schedule(tree, schedule);
  sim::ClusterSim sim{tree, kParams};
  const double simulated = sim.run(schedule).makespan;
  const double replayed =
      rt::run_program(tree, kParams, coll::make_replay_program(tree, schedule))
          .makespan;
  EXPECT_NEAR(replayed, simulated, 1e-9 * simulated + 1e-15);
}

TEST_P(RandomMachineProperty, CachedScenarioIsBitIdenticalToDirectSimulation) {
  // Zero-fault half of the scenario-throughput soundness claim: a makespan
  // served through the plan + scenario caches equals the seed simulator's
  // exactly (==, not NEAR) — cold (first request simulates) and warm (the
  // memoized value) alike.
  const MachineTree tree = machine();
  const auto plan = coll::PlanCache::global().get(
      tree, {.kind = coll::CollectiveKind::kGather,
             .n = n(),
             .root_pid = tree.coordinator_pid(tree.root()),
             .shares = shares()});
  sim::ClusterSim direct{tree, kParams};
  const double want = direct.run(plan->schedule).makespan;
  const double cold = exp::simulate_makespan(tree, plan->schedule, kParams);
  const double warm = exp::simulate_makespan(tree, plan->schedule, kParams);
  EXPECT_EQ(cold, want);
  EXPECT_EQ(warm, want);
}

TEST_P(RandomMachineProperty, CachedFaultScenarioIsBitIdenticalToDirectSim) {
  // Same claim under a seeded disturbance: the scenario key folds in the
  // fault-plan fingerprint, so a faulted run memoizes separately and still
  // reproduces the direct simulation bit for bit.
  const MachineTree tree = machine();
  faults::ChaosOptions options;
  options.horizon = 0.5;
  options.slowdown_rate = 2.0;
  options.slowdown_max_factor = 4.0;
  options.slowdown_max_duration = 0.1;
  options.message_loss_probability = 0.05;
  const faults::FaultPlan plan = faults::make_chaos_plan(
      tree.num_processors(), options, GetParam() * 131 + 7);
  const faults::FaultInjector injector{plan};
  const CommSchedule schedule =
      coll::plan_gather(tree, n(), {.shares = shares()});

  sim::ClusterSim direct{tree, kParams};
  direct.set_fault_injector(&injector);
  const double want = direct.run(schedule).makespan;
  const double cold =
      exp::simulate_makespan(tree, schedule, kParams, &injector);
  const double warm =
      exp::simulate_makespan(tree, schedule, kParams, &injector);
  EXPECT_EQ(cold, want);
  EXPECT_EQ(warm, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMachineProperty,
                         ::testing::Range<std::uint64_t>(0, 18));

// --- plan caching under degraded-mode re-planning --------------------------

TEST(ResilienceCaching, SurvivorTreeRequestsNeverAliasPreFailureKeys) {
  // Why run_with_replanning cannot be served a pre-failure plan after an
  // exclusion: the survivor machine re-fingerprints (renormalised r, pruned
  // nodes), and the fingerprint is part of every plan-cache key, so
  // post-failure requests key into a disjoint part of the cache by
  // construction.
  RandomTreeOptions options;
  options.levels = 2;
  options.min_fanout = 2;
  options.max_fanout = 3;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const MachineTree tree = make_random_tree(options, seed * 53 + 29);
    if (tree.num_processors() < 3) continue;
    const int dead = tree.num_processors() - 1;
    const auto survivor =
        coll::remove_processors(tree, std::array{dead});
    EXPECT_NE(survivor.tree.fingerprint(), tree.fingerprint()) << seed;
    const coll::PlanRequest request{
        .kind = coll::CollectiveKind::kGather, .n = 5000, .root_pid = 0};
    coll::PlanCache cache;
    const auto before = cache.get(tree, request);
    const auto after = cache.get(survivor.tree, request);
    EXPECT_EQ(cache.size(), 2u) << seed;
    EXPECT_NE(before, after) << seed;
  }
}

TEST(ResilienceCaching, ReplanningIsIdenticalWithColdAndDirtyCaches) {
  // run_with_replanning plans through the advisor, which serves from the
  // global plan cache. Whatever the cache holds — empty, or "dirty" with
  // every plan of the previous (identical) run, including the full-tree
  // plans that are stale after the exclusion — the degraded run must come
  // out the same.
  const MachineTree tree = make_paper_testbed(5);
  faults::FaultPlan plan;
  plan.drops = {{4, 0.0}};  // dead from the start: exclusion is guaranteed
  plan.message_loss_probability = 0.02;
  plan.loss_seed = 17;

  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const auto cold = coll::run_with_replanning(
      tree, coll::CollectiveKind::kGather, 50000, kParams, plan);
  ASSERT_GT(cold.replans, 0u);
  ASSERT_EQ(cold.excluded_pids, std::vector<int>{4});

  // The cold run warmed the cache with both pre- and post-failure plans.
  const auto dirty = coll::run_with_replanning(
      tree, coll::CollectiveKind::kGather, 50000, kParams, plan);
  EXPECT_EQ(dirty.fault_free_makespan, cold.fault_free_makespan);
  EXPECT_EQ(dirty.degraded_makespan, cold.degraded_makespan);
  EXPECT_EQ(dirty.excluded_pids, cold.excluded_pids);
  EXPECT_EQ(dirty.replans, cold.replans);
  EXPECT_EQ(dirty.messages_lost, cold.messages_lost);
  EXPECT_EQ(dirty.retries, cold.retries);
  EXPECT_EQ(dirty.completed, cold.completed);
}

// --- the k = 3 wide-area grid ----------------------------------------------------

TEST(WideAreaGrid, ShapeIsThreeLevels) {
  const MachineTree tree = make_wide_area_grid();
  EXPECT_EQ(tree.height(), 3);
  EXPECT_EQ(tree.num_processors(), 13);
  EXPECT_EQ(tree.machines_at(2), 2);  // two campuses
  // Campuses sit at level 2, so their children (labs and the standalone
  // server) are level-1 machines; the server is a degenerate processor there.
  bool found_server = false;
  for (const MachineId id : tree.level_ids(1)) {
    if (tree.node(id).name == "a-server") {
      EXPECT_TRUE(tree.is_processor(id));
      found_server = true;
    }
  }
  EXPECT_TRUE(found_server);
}

TEST(WideAreaGrid, CollectivesWorkAtKEquals3) {
  const MachineTree tree = make_wide_area_grid();
  const std::size_t n = 2600;
  const int root = tree.coordinator_pid(tree.root());
  const auto leaf = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
  const auto slices = slices_for(leaf);

  const rt::Program program = [&](rt::Hbsp& ctx) {
    // gather, then broadcast the result back, then reduce a checksum.
    const auto gathered = coll::gather<std::int32_t>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], n, {});
    const auto everywhere = coll::broadcast<std::int32_t>(
        ctx,
        ctx.pid() == root ? std::span<const std::int32_t>{*gathered}
                          : std::span<const std::int32_t>{},
        n, {});
    ASSERT_EQ(everywhere.size(), n);
    const std::vector<std::int64_t> one(1, everywhere.front());
    const auto sum = coll::reduce_tree<std::int64_t>(
        ctx, one, static_cast<std::size_t>(ctx.nprocs()),
        [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
        {.root_pid = root, .shares = coll::Shares::kEqual});
    if (ctx.pid() == root) {
      ASSERT_TRUE(sum.has_value());
      EXPECT_EQ(*sum, static_cast<std::int64_t>(ctx.nprocs()) *
                          everywhere.front());
    }
  };
  (void)rt::run_program(tree, kParams, program);
}

TEST(WideAreaGrid, GatherSchedulesHaveOnePhasePerLevel) {
  const MachineTree tree = make_wide_area_grid();
  const auto schedule = coll::plan_gather(tree, 10000, {});
  EXPECT_EQ(schedule.phases.size(), 3u);  // super^1, super^2, super^3
  // Level-1 phase: one plan per lab (4 labs).
  EXPECT_EQ(schedule.phases[0].plans.size(), 4u);
  // Level-2 phase: one plan per campus.
  EXPECT_EQ(schedule.phases[1].plans.size(), 2u);
  // Level-3 phase: the wide-area forwarding step.
  EXPECT_EQ(schedule.phases[2].plans.size(), 1u);
}

TEST(WideAreaGrid, HierarchicalGatherBeatsFlatFanInOnWideLinks) {
  // The reason to exploit hierarchy at k = 3: only one message crosses the
  // wide-area link per campus, instead of one per processor.
  const MachineTree tree = make_wide_area_grid();
  const std::size_t n = 100000;
  const int root = tree.coordinator_pid(tree.root());

  CommSchedule flat;
  SuperstepPlan& plan = flat.add_step("flat fan-in", 3, tree.root());
  const auto shares = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    if (pid != root && shares[static_cast<std::size_t>(pid)] > 0) {
      plan.transfers.push_back({pid, root, shares[static_cast<std::size_t>(pid)]});
    }
  }

  sim::ClusterSim sim{tree, kParams};
  (void)sim.run(flat);
  const auto flat_wide = sim.network().stats(tree.root()).messages_crossed;
  sim.reset();
  (void)sim.run(coll::plan_gather(tree, n, {}));
  const auto tree_wide = sim.network().stats(tree.root()).messages_crossed;
  EXPECT_LT(tree_wide, flat_wide);
  EXPECT_EQ(tree_wide, 1u);  // one cross-wide-area message (campus-b -> root)
}

}  // namespace
}  // namespace hbsp
