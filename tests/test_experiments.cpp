// Tests for the shared §5 experiment protocol (src/experiments): sweep
// structure, determinism, configurability, and the substrate hooks the
// benches rely on.

#include "experiments/figures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/cluster_sim.hpp"

#include "collectives/planners.hpp"
#include "core/topology.hpp"

namespace hbsp::exp {
namespace {

FigureConfig tiny() {
  FigureConfig config;
  config.processors = {2, 4};
  config.kbytes = {100, 200};
  return config;
}

TEST(Sweep, TableShapeFollowsConfig) {
  SweepRunner runner;
  const auto table = gather_root_experiment(tiny(), runner);
  ASSERT_EQ(table.processors, (std::vector<int>{2, 4}));
  ASSERT_EQ(table.kbytes, (std::vector<std::size_t>{100, 200}));
  ASSERT_EQ(table.factor.size(), 2u);
  for (const auto& row : table.factor) {
    ASSERT_EQ(row.size(), 2u);
    for (const double f : row) EXPECT_GT(f, 0.0);
  }
}

TEST(Sweep, AllFourExperimentsProduceFiniteFactors) {
  const FigureConfig config = tiny();
  SweepRunner runner;
  for (const auto& table : {gather_root_experiment(config, runner),
                            gather_balance_experiment(config, runner),
                            broadcast_root_experiment(config, runner),
                            broadcast_balance_experiment(config, runner)}) {
    for (const auto& row : table.factor) {
      for (const double f : row) {
        EXPECT_TRUE(std::isfinite(f));
        EXPECT_GT(f, 0.1);
        EXPECT_LT(f, 10.0);
      }
    }
  }
}

TEST(Sweep, SimParamsPropagate) {
  FigureConfig fast = tiny();
  FigureConfig slow = tiny();
  slow.sim.recv_ratio = 0.95;  // changes the balance of send/receive costs
  SweepRunner runner;
  EXPECT_NE(gather_root_experiment(fast, runner).factor,
            gather_root_experiment(slow, runner).factor);
}

TEST(Sweep, NoiseSeedChangesOnlyBalanceExperiments) {
  FigureConfig a = tiny();
  FigureConfig b = tiny();
  b.noise.seed = a.noise.seed + 1;
  SweepRunner runner;
  // Root-choice experiments never consult BYTEmark.
  EXPECT_EQ(gather_root_experiment(a, runner).factor,
            gather_root_experiment(b, runner).factor);
  // Balance experiments use the estimated c, which depends on the seed.
  EXPECT_NE(gather_balance_experiment(a, runner).factor,
            gather_balance_experiment(b, runner).factor);
}

TEST(SimulateMakespan, MatchesDirectSimulatorUse) {
  const MachineTree tree = make_paper_testbed(4);
  const auto schedule = coll::plan_gather(tree, 10000, {});
  sim::ClusterSim direct{tree, sim::SimParams{}};
  EXPECT_DOUBLE_EQ(simulate_makespan(tree, schedule, sim::SimParams{}),
                   direct.run(schedule).makespan);
}

TEST(RankedTestbed, SharesSumToOne) {
  const FigureConfig config;
  for (const int p : {2, 5, 10}) {
    const MachineTree tree = make_ranked_testbed(
        make_paper_testbed(p, config.g, config.L), config, config.noise);
    double total = 0.0;
    for (int pid = 0; pid < p; ++pid) {
      total += tree.c(tree.processor(pid));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(RankedTestbed, ZeroNoiseReproducesIdealShares) {
  FigureConfig config;
  config.noise.stddev = 0.0;
  const MachineTree ideal = make_paper_testbed(6, config.g, config.L);
  const MachineTree ranked = make_ranked_testbed(ideal, config, config.noise);
  for (int pid = 0; pid < 6; ++pid) {
    EXPECT_NEAR(ranked.c(ranked.processor(pid)), ideal.c(ideal.processor(pid)),
                1e-9);
  }
}

TEST(FigureSweep, BadProcessorCountThrows) {
  // The testbeds are built before the grid runs, so an out-of-range p fails
  // the whole sweep up front, whichever figure asks.
  FigureConfig config = tiny();
  config.processors = {2, 11};
  SweepRunner runner;
  EXPECT_THROW((void)gather_root_experiment(config, runner),
               std::invalid_argument);
  EXPECT_THROW((void)gather_balance_experiment(config, runner),
               std::invalid_argument);
  EXPECT_THROW((void)broadcast_root_experiment(config, runner),
               std::invalid_argument);
  EXPECT_THROW((void)broadcast_balance_experiment(config, runner),
               std::invalid_argument);
}

TEST(ImprovementTable, RendersWithUnits) {
  SweepRunner runner;
  const auto table = gather_root_experiment(tiny(), runner);
  const util::Table rendered = table.to_table("t");
  EXPECT_EQ(rendered.rows(), 2u);
  EXPECT_EQ(rendered.columns(), 3u);  // "p" + two sizes
}

}  // namespace
}  // namespace hbsp::exp
