// Determinism regression tests for the parallel sweep engine: every figure
// sweep must produce bit-identical tables (exact double equality) at 1, 2,
// and 8 threads, and the improvement factors of all four figures are pinned
// against golden CSVs checked in under tests/golden/ (regenerate with
// ci/regen_goldens.sh — see EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/figures.hpp"
#include "experiments/sweep.hpp"

namespace hbsp::exp {
namespace {

using Experiment =
    std::function<ImprovementTable(const FigureConfig&, SweepRunner&)>;

struct NamedExperiment {
  const char* name;
  Experiment run;
};

const std::vector<NamedExperiment>& experiments() {
  static const std::vector<NamedExperiment> all = {
      {"gather_root",
       [](const FigureConfig& c, SweepRunner& r) {
         return gather_root_experiment(c, r);
       }},
      {"gather_balance",
       [](const FigureConfig& c, SweepRunner& r) {
         return gather_balance_experiment(c, r);
       }},
      {"broadcast_root",
       [](const FigureConfig& c, SweepRunner& r) {
         return broadcast_root_experiment(c, r);
       }},
      {"broadcast_balance",
       [](const FigureConfig& c, SweepRunner& r) {
         return broadcast_balance_experiment(c, r);
       }},
  };
  return all;
}

FigureConfig small_config() {
  FigureConfig config;
  config.processors = {2, 4, 7, 10};
  config.kbytes = {100, 500, 1000};
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts) {
  const FigureConfig config = small_config();
  for (const auto& experiment : experiments()) {
    SweepRunner serial{1};
    const ImprovementTable reference = experiment.run(config, serial);
    for (const int threads : {2, 8}) {
      SweepRunner runner{threads};
      const ImprovementTable parallel = experiment.run(config, runner);
      ASSERT_EQ(reference.processors, parallel.processors);
      ASSERT_EQ(reference.kbytes, parallel.kbytes);
      // Exact double equality, element by element — not EXPECT_NEAR. The
      // engine promises bit-identical results, not close ones.
      ASSERT_EQ(reference.factor, parallel.factor)
          << experiment.name << " diverged at " << threads << " threads";
    }
  }
}

TEST(SweepDeterminism, RepeatedRunsOnOneRunnerAreIdentical) {
  const FigureConfig config = small_config();
  SweepRunner runner{4};
  const ImprovementTable first = gather_balance_experiment(config, runner);
  const ImprovementTable second = gather_balance_experiment(config, runner);
  EXPECT_EQ(first.factor, second.factor);
}

TEST(SweepDeterminism, CountersObserveTheSweep) {
  const FigureConfig config = small_config();
  SweepRunner runner{2};
  (void)gather_root_experiment(config, runner);
  const SweepCounters& counters = runner.counters();
  EXPECT_EQ(counters.cells, 12u);
  EXPECT_EQ(counters.threads, 2);
  EXPECT_GT(counters.wall_seconds, 0.0);
  EXPECT_GT(counters.cells_per_second, 0.0);
  EXPECT_EQ(counters.cell_seconds.count, 12u);
  EXPECT_GE(counters.cell_seconds.max, counters.cell_seconds.mean);
}

// Golden pins: the full default-config sweeps of all four figures, rendered
// in the benches' CSV format, must match the checked-in files byte for byte.
// These catch any drift in the simulator, the planners, the BYTEmark ranking
// or the seed-splitting scheme — all of which are part of the reproduction
// claim.

std::string golden(const char* file) {
  return read_file(std::string{HBSPK_SOURCE_DIR} + "/tests/golden/" + file);
}

TEST(SweepGolden, Fig3aMatchesCheckedInCsv) {
  SweepRunner runner{8};
  EXPECT_EQ(improvement_csv(gather_root_experiment(FigureConfig{}, runner)),
            golden("fig3a.csv"));
}

TEST(SweepGolden, Fig3bMatchesCheckedInCsv) {
  SweepRunner runner{8};
  EXPECT_EQ(improvement_csv(gather_balance_experiment(FigureConfig{}, runner)),
            golden("fig3b.csv"));
}

TEST(SweepGolden, Fig4aMatchesCheckedInCsv) {
  SweepRunner runner{8};
  EXPECT_EQ(improvement_csv(broadcast_root_experiment(FigureConfig{}, runner)),
            golden("fig4a.csv"));
}

TEST(SweepGolden, Fig4bMatchesCheckedInCsv) {
  SweepRunner runner{8};
  EXPECT_EQ(
      improvement_csv(broadcast_balance_experiment(FigureConfig{}, runner)),
      golden("fig4b.csv"));
}

}  // namespace
}  // namespace hbsp::exp
