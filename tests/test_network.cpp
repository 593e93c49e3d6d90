// Tests for the hierarchical network model: per-level latency and wire
// rates, and network statistics. The message route is the machine tree's
// (test_machine).

#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/topology.hpp"

namespace hbsp::sim {
namespace {

TEST(NetworkLatency, ScalesByLevel) {
  const MachineTree tree = make_wide_area_grid();
  SimParams params;
  params.latency_base = 2e-4;
  params.latency_level_scale = 10.0;
  const Network network{tree, params};
  EXPECT_DOUBLE_EQ(network.latency(1), 2e-4);
  EXPECT_DOUBLE_EQ(network.latency(2), 2e-3);
  EXPECT_DOUBLE_EQ(network.latency(3), 2e-2);
  EXPECT_THROW((void)network.latency(4), std::out_of_range);
}

TEST(NetworkLatency, OutlivesTheParamsItWasBuiltFrom) {
  // The per-level rates are derived at construction, so a Network (and a
  // copied or moved ClusterSim holding one) never reads its params again.
  const MachineTree tree = make_wide_area_grid();
  auto params = std::make_unique<SimParams>();
  params->latency_base = 2e-4;
  params->wire_factor_base = 0.5;
  const Network network{tree, *params};
  params.reset();
  EXPECT_DOUBLE_EQ(network.latency(2), 2e-3);
  EXPECT_DOUBLE_EQ(network.wire_per_item(1), tree.g() * 0.5);
}

TEST(NetworkWire, RateScalesByLevelAndCanBeDisabled) {
  const MachineTree tree = make_wide_area_grid();
  SimParams params;
  params.wire_factor_base = 0.5;
  params.wire_level_scale = 4.0;
  {
    const Network network{tree, params};
    EXPECT_DOUBLE_EQ(network.wire_per_item(1), tree.g() * 0.5);
    EXPECT_DOUBLE_EQ(network.wire_per_item(2), tree.g() * 2.0);
    EXPECT_DOUBLE_EQ(network.wire_per_item(3), tree.g() * 8.0);
    EXPECT_THROW((void)network.wire_per_item(0), std::out_of_range);
    EXPECT_THROW((void)network.wire_per_item(4), std::out_of_range);
  }
  params.model_wire_contention = false;
  {
    const Network network{tree, params};
    EXPECT_DOUBLE_EQ(network.wire_per_item(2), 0.0);
  }
}

TEST(NetworkStats, AccumulateAndReset) {
  const MachineTree tree = make_figure1_cluster();
  const SimParams params;
  Network network{tree, params};
  auto& campus = network.stats(tree.root());
  campus.items_crossed += 100;
  campus.messages_crossed += 2;
  EXPECT_EQ(network.stats(tree.root()).items_crossed, 100u);
  network.reset();
  EXPECT_EQ(network.stats(tree.root()).items_crossed, 0u);
  EXPECT_EQ(network.stats(tree.root()).messages_crossed, 0u);
}

TEST(NetworkStats, BadIdThrows) {
  const MachineTree tree = make_figure1_cluster();
  const SimParams params;
  const Network network{tree, params};
  EXPECT_THROW((void)network.stats(MachineId{9, 0}), std::out_of_range);
}

}  // namespace
}  // namespace hbsp::sim
