// Determinism and golden-pin tests for the chaos sweep: the fault grid must
// be bit-identical at any thread count, an empty fault plan must reproduce
// the fault-free figure cells exactly, and the default-config chaos table is
// pinned against a checked-in CSV (regenerate with
// `bench/chaos_sweep --csv tests/golden/chaos_sweep.csv` or
// ci/regen_goldens.sh — see EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "util/units.hpp"

namespace hbsp::exp {
namespace {

ChaosConfig small_config() {
  ChaosConfig config;
  config.fault_rates = {0.0, 2.0};
  config.loss_probs = {0.0, 0.05};
  config.p = 4;
  config.kbytes = 100;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ChaosSweep, BitIdenticalAcrossThreadCounts) {
  const ChaosConfig config = small_config();
  SweepRunner serial{1};
  const ChaosTable reference = chaos_sweep(config, serial);
  for (const int threads : {2, 8}) {
    SweepRunner runner{threads};
    const ChaosTable parallel = chaos_sweep(config, runner);
    // Exact double equality — the chaos grid promises bit-identical
    // results at any thread count, like every other sweep.
    ASSERT_EQ(reference.gather_factor, parallel.gather_factor)
        << "gather grid diverged at " << threads << " threads";
    ASSERT_EQ(reference.broadcast_factor, parallel.broadcast_factor)
        << "broadcast grid diverged at " << threads << " threads";
  }
}

TEST(ChaosSweep, ZeroFaultRowEqualsTheFaultFreeFactor) {
  // The rate-0/loss-0 cell runs the same experiment as Fig 3(a)/4(a) at
  // (p, kbytes): with nothing injected the factors must agree exactly.
  const ChaosConfig config = small_config();
  SweepRunner runner{2};
  const ChaosTable table = chaos_sweep(config, runner);

  FigureConfig figure;
  figure.processors = {config.p};
  figure.kbytes = {config.kbytes};
  const double gather = gather_root_experiment(figure, runner).factor[0][0];
  const double broadcast =
      broadcast_root_experiment(figure, runner).factor[0][0];
  EXPECT_EQ(table.gather_factor[0][0], gather);
  EXPECT_EQ(table.broadcast_factor[0][0], broadcast);
}

TEST(ChaosSweep, EmptyPlanReproducesTheFigureSweepsExactly) {
  // The chaos cell (improvement_factor with an injector attached), driven
  // with an empty FaultPlan, must equal every fault-free Fig 3(a)/4(a) cell
  // bit for bit: the injection layer is cost-free when disabled.
  FigureConfig config;
  config.processors = {2, 4, 7, 10};
  config.kbytes = {100, 500, 1000};
  SweepRunner runner{4};
  const faults::FaultInjector empty{faults::FaultPlan{}};
  const ImprovementTable gather = gather_root_experiment(config, runner);
  const ImprovementTable broadcast = broadcast_root_experiment(config, runner);
  for (std::size_t row = 0; row < config.processors.size(); ++row) {
    const MachineTree tree =
        make_paper_testbed(config.processors[row], config.g, config.L);
    const int fast = tree.coordinator_pid(tree.root());
    const int slow = tree.slowest_pid(tree.root());
    for (std::size_t col = 0; col < config.kbytes.size(); ++col) {
      const auto request = [&](coll::CollectiveKind kind, int root_pid) {
        return coll::PlanRequest{.kind = kind,
                                 .n = util::ints_in_kbytes(config.kbytes[col]),
                                 .root_pid = root_pid,
                                 .shares = coll::Shares::kEqual};
      };
      for (const auto& [kind, table] :
           {std::pair{coll::CollectiveKind::kGather, &gather},
            std::pair{coll::CollectiveKind::kBroadcast, &broadcast}}) {
        EXPECT_EQ(improvement_factor(tree, request(kind, slow),
                                     request(kind, fast), config.sim, &empty),
                  table->factor[row][col])
            << "p=" << config.processors[row]
            << " kbytes=" << config.kbytes[col];
      }
    }
  }
}

TEST(ChaosSweep, FaultsActuallyPerturbTheGrid) {
  const ChaosConfig config = small_config();
  SweepRunner runner{2};
  const ChaosTable table = chaos_sweep(config, runner);
  // At rate 2 with the tuned horizon, at least one cell must differ from the
  // undisturbed factor — otherwise the injector is not being exercised.
  bool perturbed = false;
  for (std::size_t col = 0; col < table.loss_probs.size(); ++col) {
    perturbed |= table.gather_factor[1][col] != table.gather_factor[0][0];
    perturbed |= table.broadcast_factor[1][col] != table.broadcast_factor[0][0];
  }
  EXPECT_TRUE(perturbed);
}

TEST(ChaosSweep, InversionCountsMatchTheMatrices) {
  const ChaosConfig config = small_config();
  SweepRunner runner{2};
  const ChaosTable table = chaos_sweep(config, runner);
  std::size_t gather = 0, broadcast = 0;
  for (const auto& row : table.gather_factor) {
    for (const double f : row) gather += f < 1.0 ? 1 : 0;
  }
  for (const auto& row : table.broadcast_factor) {
    for (const double f : row) broadcast += f < 1.0 ? 1 : 0;
  }
  EXPECT_EQ(table.gather_inversions(), gather);
  EXPECT_EQ(table.broadcast_inversions(), broadcast);
}

TEST(ChaosSweep, CsvShape) {
  const ChaosConfig config = small_config();
  SweepRunner runner{2};
  const std::string csv = chaos_csv(chaos_sweep(config, runner));
  std::istringstream lines{csv};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "collective,fault_rate,0.0000,0.0500");
  std::size_t rows = 0;
  while (std::getline(lines, line)) ++rows;
  // One row per (collective, fault rate).
  EXPECT_EQ(rows, 2u * config.fault_rates.size());
}

TEST(ChaosGolden, DefaultSweepMatchesCheckedInCsv) {
  SweepRunner runner{8};
  const ChaosTable table = chaos_sweep(ChaosConfig{}, runner);
  EXPECT_EQ(chaos_csv(table),
            read_file(std::string{HBSPK_SOURCE_DIR} +
                      "/tests/golden/chaos_sweep.csv"));
}

}  // namespace
}  // namespace hbsp::exp
