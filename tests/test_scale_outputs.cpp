// Pins planner, cost-model and simulator outputs beyond the 10-machine
// testbed: every advisor candidate of gather, broadcast, scatter and reduce
// on a p = 10^3 uniform tree, on a flat p = 300 machine and a p = 1600
// two-level one (receivers that drain hundreds and tens of messages in one
// plan), and on a seeded random k = 4 tree whose childless interior nodes
// put processors above level 0. Each candidate's exact CostModel total,
// simulated makespan and simulator event count are compared bit for bit
// with recorded values, so any change to how a transfer is priced, routed
// or drained that moves a single result fails here, at a scale where every
// per-message path runs thousands of times.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp {
namespace {

using coll::CollectiveKind;
using coll::PlanRequest;
using coll::Shares;
using coll::TopPhase;

constexpr std::size_t kItems = 1'000'000;

/// Recorded outputs of one advisor candidate.
struct Pin {
  double cost;
  double makespan;
  std::size_t events;
};

/// The configurations advise() compares for `kind`, in its order: fastest
/// and slowest root x balanced and equal shares for the rooted collectives,
/// one- and two-phase from the fastest processor for broadcast.
std::vector<PlanRequest> candidates(const MachineTree& tree,
                                    CollectiveKind kind) {
  const int fast = tree.coordinator_pid(tree.root());
  const int slow = tree.slowest_pid(tree.root());
  std::vector<PlanRequest> requests;
  if (kind == CollectiveKind::kBroadcast) {
    for (const TopPhase top : {TopPhase::kOnePhase, TopPhase::kTwoPhase}) {
      requests.push_back({.kind = kind,
                          .n = kItems,
                          .root_pid = fast,
                          .shares = Shares::kEqual,
                          .top_phase = top});
    }
    return requests;
  }
  for (const int root : {fast, slow}) {
    for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
      requests.push_back(
          {.kind = kind, .n = kItems, .root_pid = root, .shares = shares});
    }
    if (slow == fast) break;
  }
  return requests;
}

/// Prices and simulates every candidate of gather, broadcast, scatter and
/// reduce in order and compares each with the next entry of `pins`.
void expect_pinned(const MachineTree& tree, const std::vector<Pin>& pins) {
  std::size_t next = 0;
  for (const CollectiveKind kind :
       {CollectiveKind::kGather, CollectiveKind::kBroadcast,
        CollectiveKind::kScatter, CollectiveKind::kReduce}) {
    const coll::CollectiveAdvice advice = coll::advise(tree, kind, kItems);
    const std::vector<PlanRequest> requests = candidates(tree, kind);
    ASSERT_EQ(advice.options.size(), requests.size()) << coll::to_string(kind);
    for (std::size_t c = 0; c < requests.size(); ++c, ++next) {
      SCOPED_TRACE(std::string{coll::to_string(kind)} + " candidate " +
                   std::to_string(c));
      const CommSchedule schedule = coll::build_plan(tree, requests[c]);
      const double cost = CostModel{tree}.cost(schedule).total();
      sim::ClusterSim sim{tree, sim::SimParams{}};
      const double makespan = sim.run(schedule).makespan;
      ASSERT_LT(next, pins.size());
      EXPECT_EQ(cost, pins[next].cost);
      EXPECT_EQ(advice.options[c].predicted_cost, cost);
      EXPECT_EQ(makespan, pins[next].makespan);
      EXPECT_EQ(sim.run_metrics().events, pins[next].events);
      EXPECT_EQ(sim.run_metrics().messages_delivered,
                schedule.total_messages());
    }
  }
  EXPECT_EQ(next, pins.size());
}

TEST(ScaleOutputs, UniformThousandProcessors) {
  const std::array<double, 4> cycle = {1.0, 2.5, 1.6, 4.0};
  const MachineTree tree = make_uniform_tree(3, 10, cycle);
  ASSERT_EQ(tree.num_processors(), 1000);
  expect_pinned(tree, {
      // gather: fast root balanced/equal, slow root balanced/equal
      {1.2202419999999998, 35.219776400000008, 10995},
      {1.2209999999999999, 35.222090000000009, 10995},
      {4.2202399999999995, 35.219776400000008, 10995},
      {4.218, 35.222090000000009, 10995},
      // broadcast: one-phase, two-phase
      {15.543999999999997, 400.66659999999973, 64495},
      {8.5439999999999987, 435.42659999999938, 66945},
      // scatter
      {1.2202419999999998, 35.222471650000017, 10995},
      {1.2209999999999999, 35.226599999999991, 10995},
      {4.2202399999999995, 35.254395650000014, 10995},
      {4.218, 35.253045000000029, 10995},
      // reduce
      {0.42381150000000001, 0.48017589999999999, 15217},
      {0.42605000000000004, 0.48226299999999994, 15217},
      {0.4239735, 0.48103180000000006, 15217},
      {0.42621200000000004, 0.48311890000000007, 15217},
  });
}

// A flat machine of 300: the gather coordinator and every reduce target
// drain 299 messages in one plan, and the two-phase broadcast's exchange
// sends 299 x 298 of them.
TEST(ScaleOutputs, FlatThreeHundredWideReceivers) {
  const std::array<double, 4> cycle = {1.0, 2.5, 1.6, 4.0};
  const MachineTree tree = make_uniform_tree(1, 300, cycle);
  ASSERT_EQ(tree.num_processors(), 300);
  expect_pinned(tree, {
      // gather: fast root balanced/equal, slow root balanced/equal
      {0.996139, 0.71324829999999761, 2095},
      {0.99866599999999994, 0.71248920000000038, 2095},
      {3.9961399999999996, 2.8401589999999906, 2095},
      {3.9886639999999995, 2.8323978000000012, 2095},
      // broadcast: one-phase, two-phase
      {299.00200000000001, 301.80860000000143, 2095},
      {4.9881299999999991, 180.41659839959681, 451195},
      // scatter
      {0.996139, 1.0068410000000003, 2095},
      {0.99866599999999994, 1.0145984000000077, 2095},
      {3.9961399999999996, 4.0247820000000019, 2095},
      {3.9886639999999995, 4.0225364000000301, 2095},
      // reduce
      {0.010457999999999999, 0.019859299999999948, 3297},
      {0.017929999999999998, 0.020513500000000025, 3297},
      {0.012251999999999999, 0.048294199999999808, 3297},
      {0.019724000000000002, 0.0552451999999998, 3297},
  });
}

// p = 1600 in 40 clusters of 40: every two-phase broadcast exchange, at
// both levels, has 40 receivers that each drain 39 messages.
TEST(ScaleOutputs, TwoLevelFortyByFortyWideExchanges) {
  const std::array<double, 4> cycle = {1.0, 2.5, 1.6, 4.0};
  const MachineTree tree = make_uniform_tree(2, 40, cycle);
  ASSERT_EQ(tree.num_processors(), 1600);
  expect_pinned(tree, {
      // gather: fast root balanced/equal, slow root balanced/equal
      {1.0209010000000001, 4.7215197000000027, 14395},
      {1.0213749999999999, 4.7213775000000027, 14395},
      {4.0209000000000001, 4.7215197000000027, 14395},
      {4.0194999999999999, 4.7213775000000027, 14395},
      // broadcast: one-phase, two-phase
      {43.899000000000001, 211.67040000000111, 329595},
      {6.8689999999999998, 216.37040000000508, 340595},
      // scatter
      {1.0209010000000001, 4.7280710000000115, 14395},
      {1.0213749999999999, 4.7295249999999855, 14395},
      {4.0209000000000001, 4.8054100000000037, 14395},
      {4.0194999999999999, 4.8049900000000036, 14395},
      // reduce
      {0.043254000000000001, 0.051112599999999994, 20877},
      {0.044652000000000004, 0.051683299999999988, 20877},
      {0.043721999999999997, 0.054821499999999967, 20877},
      {0.04512, 0.055392199999999975, 20877},
  });
}

TEST(ScaleOutputs, RandomFourLevelWithRaisedProcessors) {
  RandomTreeOptions options;
  options.levels = 4;
  options.min_fanout = 2;
  options.max_fanout = 5;
  options.max_r = 16.0;
  options.leaf_degenerate_probability = 0.3;
  const MachineTree tree = make_random_tree(options, 20260417);
  ASSERT_EQ(tree.height(), 4);
  int raised = 0;
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    if (tree.processor(pid).level > 0) ++raised;
  }
  ASSERT_GT(raised, 0) << "no processor sits above level 0";
  expect_pinned(tree, {
      // gather: fast root balanced/equal, slow root balanced/equal
      {3.7916599819538237, 202.51097599999997, 1164},
      {4.4042886184555767, 229.92243199999999, 1164},
      {18.245161961028714, 230.52116479999995, 1164},
      {18.241452550208976, 206.80010240000001, 1164},
      // broadcast: one-phase, two-phase
      {59.983392055782161, 1464.0521425235572, 3372},
      {61.983392055782161, 1711.8121425235579, 3658},
      // scatter
      {3.7916599819538237, 211.65734722156424, 1164},
      {4.4042886184555767, 242.16137977881144, 1164},
      {18.24516196102871, 240.17879362156424, 1164},
      {18.241452550208976, 219.03905017881146, 1164},
      // reduce
      {4.4416049031735039, 4.8337544693321934, 1616},
      {4.7331811270206323, 4.95072653725334, 1616},
      {4.4417225547160193, 4.8339237611754466, 1616},
      {4.7332987785631477, 4.9285722103916445, 1616},
  });
}

}  // namespace
}  // namespace hbsp
