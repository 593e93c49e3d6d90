// Tests for the HBSP^k hierarchical reduction: planner/closed-form
// agreement, executor correctness and timing agreement (on a flat machine
// too, where it is the HBSP^1 reduce), on fixed and random machines.

#include <gtest/gtest.h>

#include <numeric>

#include "collectives/executors.hpp"
#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp {
namespace {

const sim::SimParams kParams{};

TEST(ReduceTreePlanner, AgreesWithClosedForm) {
  for (const auto shares : {analysis::Shares::kEqual, analysis::Shares::kBalanced}) {
    for (const std::size_t n : {0u, 1u, 100u, 90000u}) {
      const MachineTree tree = make_figure1_cluster();
      const CostModel model{tree};
      const auto schedule =
          coll::plan_reduce_tree(tree, n, {.root_pid = -1, .shares = shares});
      validate_schedule(tree, schedule);
      const auto closed = analysis::hbspk_reduce(tree, n, shares);
      EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total())
          << "n=" << n;
    }
  }
}

TEST(ReduceTreePlanner, AgreesWithClosedFormOnRandomTrees) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    RandomTreeOptions options;
    options.levels = 1 + static_cast<int>(seed % 3);
    const MachineTree tree = make_random_tree(options, seed + 77);
    const CostModel model{tree};
    const auto schedule = coll::plan_reduce_tree(tree, 5000, {});
    validate_schedule(tree, schedule);
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(),
                     analysis::hbspk_reduce(tree, 5000,
                                            analysis::Shares::kBalanced)
                         .total())
        << "seed=" << seed;
  }
}

TEST(ReduceTreePlanner, HierarchyBeatsFlatFanInAcrossSlowLinks) {
  // The point of reducing through the tree: only m_1 partials cross the
  // campus network instead of p − 1. Compare against a hand-built flat
  // fan-in on the same HBSP^2 machine.
  const MachineTree tree = make_figure1_cluster();
  const int root = tree.coordinator_pid(tree.root());
  CommSchedule flat_fan_in;
  SuperstepPlan& up = flat_fan_in.add_step("flat partials", 2, tree.root());
  const auto shares = coll::leaf_shares(tree, 90000, coll::Shares::kBalanced);
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    const std::size_t share = shares[static_cast<std::size_t>(pid)];
    if (share > 0) {
      up.compute.push_back({pid, static_cast<double>(share) - 1.0});
    }
    if (pid != root) up.transfers.push_back({pid, root, 1});
  }
  SuperstepPlan& combine = flat_fan_in.add_step("flat combine", 2, tree.root());
  combine.compute.push_back({root, static_cast<double>(tree.num_processors() - 1)});

  sim::ClusterSim sim{tree, kParams};
  const double flat_time = sim.run(flat_fan_in).makespan;
  const double tree_time =
      sim.run(coll::plan_reduce_tree(tree, 90000, {})).makespan;
  // On this machine both cross the campus net; the tree version sends 2
  // cross-campus partials instead of 5 but pays two extra cluster barriers.
  // What must hold: the tree version's *campus* traffic is lower.
  sim.reset();
  (void)sim.run(coll::plan_reduce_tree(tree, 90000, {}));
  const auto tree_campus = sim.network().stats(tree.root()).messages_crossed;
  sim.reset();
  (void)sim.run(flat_fan_in);
  const auto flat_campus = sim.network().stats(tree.root()).messages_crossed;
  EXPECT_LT(tree_campus, flat_campus);
  EXPECT_GT(flat_time, 0.0);
  EXPECT_GT(tree_time, 0.0);
}

TEST(ReduceTreeExecutor, SumsCorrectlyOnHierarchy) {
  const MachineTree tree = make_figure1_cluster();
  const std::size_t n = 10000;
  const auto shares = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * (static_cast<std::int64_t>(n) - 1) / 2;
  const int root = tree.coordinator_pid(tree.root());

  const rt::Program program = [&](rt::Hbsp& ctx) {
    std::size_t offset = 0;
    for (int pid = 0; pid < ctx.pid(); ++pid) {
      offset += shares[static_cast<std::size_t>(pid)];
    }
    std::vector<std::int64_t> mine(shares[static_cast<std::size_t>(ctx.pid())]);
    std::iota(mine.begin(), mine.end(), static_cast<std::int64_t>(offset));
    const auto result = coll::reduce_tree<std::int64_t>(
        ctx, mine, n, [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, {});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, expected);
    } else {
      EXPECT_FALSE(result.has_value());
    }
  };
  for (const auto engine :
       {rt::EngineKind::kVirtualTime, rt::EngineKind::kWallClock}) {
    (void)rt::run_program(tree, kParams, program, engine);
  }
}

TEST(ReduceTreeExecutor, TimingMatchesPlanner) {
  // The HBSP^2 Figure 1 machine and a flat testbed, where the tree reduce is
  // the HBSP^1 one.
  for (const MachineTree& tree :
       {make_figure1_cluster(), make_paper_testbed(6)}) {
    const std::size_t n = 20000;
    const auto shares = coll::leaf_shares(tree, n, coll::Shares::kBalanced);
    sim::ClusterSim sim{tree, kParams};
    const double planned =
        sim.run(coll::plan_reduce_tree(tree, n, {})).makespan;

    const rt::Program program = [&](rt::Hbsp& ctx) {
      const std::vector<std::int64_t> mine(
          shares[static_cast<std::size_t>(ctx.pid())], 1);
      (void)coll::reduce_tree<std::int64_t>(
          ctx, mine, n, [](std::int64_t a, std::int64_t b) { return a + b; },
          std::int64_t{0}, {});
    };
    const double executed = rt::run_program(tree, kParams, program).makespan;
    EXPECT_NEAR(executed, planned, 1e-9 * planned) << tree.height();
  }
}

TEST(ReduceTreeExecutor, WorksWithNonDefaultRoot) {
  const MachineTree tree = make_figure1_cluster();
  const std::size_t n = 999;
  const int root = tree.slowest_pid(tree.root());
  const auto shares = coll::leaf_shares(tree, n, coll::Shares::kEqual);
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::vector<std::int64_t> mine(
        shares[static_cast<std::size_t>(ctx.pid())], 1);
    const auto result = coll::reduce_tree<std::int64_t>(
        ctx, mine, n, [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0},
        {.root_pid = root, .shares = coll::Shares::kEqual});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, static_cast<std::int64_t>(n));
    }
  };
  (void)rt::run_program(tree, kParams, program);
}

TEST(ReduceTree, RejectsSingleProcessorMachines) {
  MachineSpec solo;
  solo.r = 1.0;
  const MachineTree tree = MachineTree::build(solo, 1e-6);
  EXPECT_THROW((void)coll::plan_reduce_tree(tree, 5, {}), std::invalid_argument);
  EXPECT_THROW((void)analysis::hbspk_reduce(tree, 5, analysis::Shares::kEqual),
               std::invalid_argument);
}

}  // namespace
}  // namespace hbsp
