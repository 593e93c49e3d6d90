// Integration tests asserting the paper's §5 experimental *shapes* hold on
// miniature versions of the Figure 3/4 sweeps. These are the regression
// gates for the headline reproduction claims (see EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/topology.hpp"
#include "experiments/figures.hpp"

namespace hbsp::exp {
namespace {

FigureConfig mini_config() {
  FigureConfig config;
  config.processors = {2, 3, 5, 7, 10};
  config.kbytes = {100, 500, 1000};
  return config;
}

TEST(Figure3a, SlowRootWinsAtP2) {
  // §5.2: "it is better for the root node to be the slowest workstation" at
  // p = 2 — the improvement factor T_s/T_f dips below 1.
  SweepRunner runner;
  const ImprovementTable table = gather_root_experiment(mini_config(), runner);
  for (const double factor : table.factor[0]) EXPECT_LT(factor, 1.0);
}

TEST(Figure3a, ImprovementGrowsWithP) {
  SweepRunner runner;
  const ImprovementTable table = gather_root_experiment(mini_config(), runner);
  for (std::size_t col = 0; col < table.kbytes.size(); ++col) {
    for (std::size_t row = 1; row < table.processors.size(); ++row) {
      EXPECT_GT(table.factor[row][col], table.factor[row - 1][col])
          << "p " << table.processors[row - 1] << " -> "
          << table.processors[row];
    }
    // A clear win by p = 10 (the paper's fast-root benefit).
    EXPECT_GT(table.factor.back()[col], 1.5);
  }
}

TEST(Figure3a, SteadyAcrossProblemSizes) {
  // "The improvement factor is steady across all problem sizes."
  SweepRunner runner;
  const ImprovementTable table = gather_root_experiment(mini_config(), runner);
  for (std::size_t row = 0; row < table.processors.size(); ++row) {
    const auto [lo, hi] = std::minmax_element(table.factor[row].begin(),
                                              table.factor[row].end());
    EXPECT_LT(*hi - *lo, 0.15 * *hi);
  }
}

TEST(Figure3b, BalancingHelpsClearlyAtP2) {
  SweepRunner runner;
  const ImprovementTable table =
      gather_balance_experiment(mini_config(), runner);
  for (const double factor : table.factor[0]) EXPECT_GT(factor, 1.3);
}

TEST(Figure3b, VirtuallyNoBenefitAtLargeP) {
  // §5.2: "there is virtually no benefit to distributing the workload based
  // on a processor's computational abilities, except at p = 2."
  SweepRunner runner;
  const ImprovementTable table =
      gather_balance_experiment(mini_config(), runner);
  for (std::size_t row = 2; row < table.processors.size(); ++row) {
    for (const double factor : table.factor[row]) {
      EXPECT_LT(factor, 1.1) << "p=" << table.processors[row];
      EXPECT_GT(factor, 0.9) << "p=" << table.processors[row];
    }
  }
}

TEST(Figure4a, BroadcastImprovementIsSmall) {
  // §5.3: "negligible improvement in performance" from the fast root; far
  // smaller than gather's, and bounded across the sweep.
  SweepRunner runner;
  const ImprovementTable bcast =
      broadcast_root_experiment(mini_config(), runner);
  const ImprovementTable gather = gather_root_experiment(mini_config(), runner);
  for (std::size_t row = 0; row < bcast.processors.size(); ++row) {
    for (std::size_t col = 0; col < bcast.kbytes.size(); ++col) {
      EXPECT_LT(bcast.factor[row][col], 1.35);
      EXPECT_GE(bcast.factor[row][col], 0.95);
    }
  }
  // Root choice matters for gather but not for broadcast at scale.
  EXPECT_GT(gather.factor.back()[0], bcast.factor.back()[0] + 0.5);
}

TEST(Figure4b, NoBenefitFromBalancedBroadcast) {
  // §5.3: every processor must receive all n items; at scale the factor sits
  // at 1 (small p retains a modest scatter-phase benefit under our
  // substrate — see EXPERIMENTS.md).
  SweepRunner runner;
  const ImprovementTable table =
      broadcast_balance_experiment(mini_config(), runner);
  for (std::size_t row = 0; row < table.processors.size(); ++row) {
    for (const double factor : table.factor[row]) {
      EXPECT_LT(factor, 1.3);
      EXPECT_GT(factor, 0.9);
    }
  }
  // By p = 10 the factor is essentially 1.
  for (const double factor : table.factor.back()) {
    EXPECT_NEAR(factor, 1.0, 0.06);
  }
}

TEST(Figures, DeterministicAcrossRuns) {
  SweepRunner runner;
  const ImprovementTable a = gather_root_experiment(mini_config(), runner);
  const ImprovementTable b = gather_root_experiment(mini_config(), runner);
  EXPECT_EQ(a.factor, b.factor);
}

TEST(Figures, TableRendering) {
  SweepRunner runner;
  const ImprovementTable table = gather_root_experiment(mini_config(), runner);
  const util::Table rendered = table.to_table("check");
  EXPECT_EQ(rendered.rows(), table.processors.size());
  EXPECT_EQ(rendered.columns(), table.kbytes.size() + 1);
}

TEST(RankedTestbed, UsesTrueRAndEstimatedC) {
  FigureConfig config;
  const MachineTree truth = make_paper_testbed(5, config.g, config.L);
  const MachineTree ranked = make_ranked_testbed(truth, config, config.noise);
  for (int pid = 0; pid < 5; ++pid) {
    EXPECT_DOUBLE_EQ(ranked.processor_r(pid), truth.processor_r(pid));
    // Estimated c is near but (with noise) not exactly the ideal c.
    EXPECT_NEAR(ranked.c(ranked.processor(pid)), truth.c(truth.processor(pid)),
                0.1);
  }
}

}  // namespace
}  // namespace hbsp::exp
