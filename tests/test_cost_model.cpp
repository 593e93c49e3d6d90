// Tests for the §3.4 cost model: h-relations, superstep pricing, schedule
// totals, all against hand-computed values.

#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dest_costs.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hbsp {
namespace {

constexpr double kG = 1e-6;
constexpr double kL = 2e-3;

MachineTree cluster() {
  return make_hbsp1_cluster(std::array{1.0, 2.0, 4.0}, kG, kL);
}

TEST(CostModel, HRelationIsMaxOfRWeightedTraffic) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  // P1 (r=2) sends 100 to P0 (r=1); P2 (r=4) sends 50 to P0.
  plan.transfers = {{1, 0, 100}, {2, 0, 50}};
  // h_0 = 150 received (r=1 → 150); h_1 = 100 sent (r=2 → 200);
  // h_2 = 50 sent (r=4 → 200).
  EXPECT_DOUBLE_EQ(model.h_relation(plan), 200.0);
}

TEST(CostModel, HRelationCountsMaxOfInAndOutPerProcessor) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  // P0 sends 300 and receives 100: h_0 = max(300, 100)·1 = 300.
  // P1 receives 300 and sends 100: h_1 = max(100, 300)·2 = 600.
  plan.transfers = {{0, 1, 300}, {1, 0, 100}};
  EXPECT_DOUBLE_EQ(model.h_relation(plan), 600.0);
}

TEST(CostModel, SelfSendsCostNothing) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  plan.transfers = {{2, 2, 1000000}};
  EXPECT_DOUBLE_EQ(model.h_relation(plan), 0.0);
}

TEST(CostModel, SuperstepCostIsWPlusGhPlusL) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  plan.transfers = {{1, 0, 100}};
  plan.compute = {{0, 500.0}};  // 500 ops on the fastest machine
  const SuperstepCost cost = model.cost(plan);
  EXPECT_DOUBLE_EQ(cost.h, 200.0);           // r_1·100
  EXPECT_DOUBLE_EQ(cost.gh, kG * 200.0);
  EXPECT_DOUBLE_EQ(cost.w, 500.0 * 1.0 * kG);  // seconds_per_op defaults to g
  EXPECT_DOUBLE_EQ(cost.L, kL);
  EXPECT_DOUBLE_EQ(cost.total(), cost.w + cost.gh + cost.L);
}

TEST(CostModel, ComputeTermTakesTheSlowestWeightedWorker) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  plan.compute = {{0, 1000.0}, {2, 300.0}};  // r=1·1000 vs r=4·300
  EXPECT_DOUBLE_EQ(model.cost(plan).w, 1200.0 * kG);
}

TEST(CostModel, CustomSecondsPerOp) {
  const MachineTree tree = cluster();
  const CostModel model{tree, 5e-9};
  SuperstepPlan plan;
  plan.sync_scope = tree.root();
  plan.compute = {{1, 100.0}};
  EXPECT_DOUBLE_EQ(model.cost(plan).w, 100.0 * 2.0 * 5e-9);
}

TEST(CostModel, ScheduleSumsPhasesAndPhasesTakeMax) {
  const MachineTree tree = make_figure1_cluster(kG, 10 * kL);
  const CostModel model{tree};
  CommSchedule schedule;
  schedule.name = "two-cluster step";
  // One phase: the SMP (scope child 0) and the LAN (child 2) each run a
  // superstep concurrently; the phase costs the max of the two.
  Phase& phase = schedule.add_phase();
  SuperstepPlan smp;
  smp.label = "smp";
  smp.level = 1;
  smp.sync_scope = tree.child(tree.root(), 0);
  smp.transfers = {{1, 0, 100}};
  SuperstepPlan lan;
  lan.label = "lan";
  lan.level = 1;
  lan.sync_scope = tree.child(tree.root(), 2);
  lan.transfers = {{6, 5, 100}};
  phase.plans.push_back(smp);
  phase.plans.push_back(lan);

  const ScheduleCost cost = model.cost(schedule);
  ASSERT_EQ(cost.phases.size(), 1u);
  ASSERT_EQ(cost.phases[0].plans.size(), 2u);
  const double smp_total = cost.phases[0].plans[0].total();
  const double lan_total = cost.phases[0].plans[1].total();
  EXPECT_DOUBLE_EQ(cost.phases[0].total(), std::max(smp_total, lan_total));
  EXPECT_DOUBLE_EQ(cost.total(), cost.phases[0].total());
  EXPECT_GT(lan_total, smp_total);  // LAN: slower sender and bigger barrier
}

/// The h-relation computed the obvious way, with an ordered map of
/// per-processor volumes, as the reference the model must match bit for bit.
double reference_h_relation(const MachineTree& tree, const SuperstepPlan& step,
                            const DestinationCosts* costs) {
  std::map<int, std::pair<double, double>> traffic;  // pid -> {out, in}
  for (const auto& t : step.transfers) {
    if (t.src_pid == t.dst_pid) continue;
    const double weight =
        costs != nullptr ? costs->factor(t.src_pid, t.dst_pid) : 1.0;
    const double volume = weight * static_cast<double>(t.items);
    traffic[t.src_pid].first += volume;
    traffic[t.dst_pid].second += volume;
  }
  double h = 0.0;
  for (const auto& [pid, volumes] : traffic) {
    h = std::max(h, tree.processor_r(pid) *
                        std::max(volumes.first, volumes.second));
  }
  return h;
}

/// A random superstep over a random pid window of `tree`: self-sends,
/// zero-item transfers and repeated endpoints in no particular order.
SuperstepPlan random_step(const MachineTree& tree, util::Rng& rng) {
  const auto p = static_cast<std::uint64_t>(tree.num_processors());
  const auto lo = static_cast<int>(rng.uniform_u64(0, p - 1));
  const auto hi = static_cast<int>(
      rng.uniform_u64(static_cast<std::uint64_t>(lo), p - 1));
  const auto draw_pid = [&] {
    return static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(lo),
                                            static_cast<std::uint64_t>(hi)));
  };
  SuperstepPlan step;
  step.sync_scope = tree.root();
  const auto transfers = rng.uniform_u64(0, 40);
  for (std::uint64_t i = 0; i < transfers; ++i) {
    const int src = draw_pid();
    const int dst = rng.uniform01() < 0.15 ? src : draw_pid();
    const std::size_t items =
        rng.uniform01() < 0.15 ? 0 : rng.uniform_u64(1, 5000);
    step.transfers.push_back({src, dst, items});
  }
  return step;
}

/// A superstep over at most six processors spread across the whole machine:
/// its first transfer joins pid 0 and pid p - 1, so its pid span is the
/// full width however few processors it touches.
SuperstepPlan sparse_step(const MachineTree& tree, util::Rng& rng) {
  const auto p = static_cast<std::uint64_t>(tree.num_processors());
  std::vector<int> pids = {0, static_cast<int>(p - 1)};
  if (rng.uniform01() < 0.5) std::swap(pids[0], pids[1]);
  for (int i = 0; i < 4; ++i) {
    pids.push_back(static_cast<int>(rng.uniform_u64(0, p - 1)));
  }
  const auto draw_pid = [&] { return pids[rng.uniform_u64(0, pids.size() - 1)]; };
  SuperstepPlan step;
  step.sync_scope = tree.root();
  step.transfers.push_back({pids[0], pids[1], rng.uniform_u64(1, 5000)});
  const auto transfers = rng.uniform_u64(0, 12);
  for (std::uint64_t i = 0; i < transfers; ++i) {
    const int src = draw_pid();
    const int dst = rng.uniform01() < 0.15 ? src : draw_pid();
    step.transfers.push_back({src, dst, rng.uniform_u64(0, 5000)});
  }
  return step;
}

TEST(CostModel, HRelationMatchesOrderedMapReference) {
  RandomTreeOptions options;
  options.max_fanout = 5;
  std::vector<MachineTree> trees;
  trees.push_back(make_figure1_cluster(kG));
  trees.push_back(make_hbsp1_cluster(std::array{1.0, 2.0, 4.0}, kG, kL));
  const std::array cycle = {1.0, 2.5, 1.6, 4.0};
  trees.push_back(make_uniform_tree(3, 10, cycle));  // p = 1000
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    options.levels = 1 + static_cast<int>(seed % 3);
    trees.push_back(make_random_tree(options, 40 + seed));
  }
  // Four threads price through the same two models at once, so pricing
  // scratch that threads share shows here as a mismatch, and to TSan.
  constexpr std::uint64_t kThreads = 4;
  for (const MachineTree& tree : trees) {
    std::vector<double> factors;
    for (int level = 1; level <= tree.height(); ++level) {
      factors.push_back(level == 1 ? 1.0 : factors.back() * 1.7);
    }
    const DestinationCosts by_level = DestinationCosts::by_level(tree, factors);
    CostModel base{tree};
    CostModel weighted{tree};
    weighted.set_destination_costs(&by_level);
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        util::Rng rng{2001 + t};
        for (int trial = 0; trial < 200; ++trial) {
          const SuperstepPlan step = trial % 2 == 0 ? random_step(tree, rng)
                                                    : sparse_step(tree, rng);
          const double plain = reference_h_relation(tree, step, nullptr);
          const double lambda = reference_h_relation(tree, step, &by_level);
          if (base.h_relation(step) != plain || base.cost(step).h != plain ||
              weighted.h_relation(step) != lambda ||
              weighted.cost(step).h != lambda) {
            ++mismatches[t];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0)
          << "thread " << t << ", p = " << tree.num_processors();
    }
  }
}

TEST(CostModel, HRelationRejectsBadPid) {
  const MachineTree tree = make_figure1_cluster(kG);
  const int p = tree.num_processors();
  std::vector<double> factors;
  for (int level = 1; level <= tree.height(); ++level) {
    factors.push_back(level == 1 ? 1.0 : factors.back() * 1.7);
  }
  const DestinationCosts by_level = DestinationCosts::by_level(tree, factors);
  ASSERT_FALSE(by_level.is_uniform());
  CostModel base{tree};
  CostModel weighted{tree};
  weighted.set_destination_costs(&by_level);
  for (const CostModel* model : {&base, &weighted}) {
    SuperstepPlan good;
    good.sync_scope = tree.root();
    good.transfers = {{0, p - 1, 5}};
    const double h = model->h_relation(good);
    EXPECT_GT(h, 0.0);
    for (const int bad : {-1, p}) {
      SCOPED_TRACE("bad pid " + std::to_string(bad));
      SuperstepPlan step = good;
      step.transfers.push_back({bad, 0, 5});
      EXPECT_THROW((void)model->h_relation(step), std::out_of_range);
      EXPECT_THROW((void)model->cost(step), std::out_of_range);
      step.transfers.back() = {0, bad, 5};
      EXPECT_THROW((void)model->h_relation(step), std::out_of_range);
      EXPECT_THROW((void)model->cost(step), std::out_of_range);
      // A self-send is skipped before any check, so its pid is never read.
      step.transfers.back() = {bad, bad, 5};
      EXPECT_EQ(model->h_relation(step), h);
      EXPECT_EQ(model->cost(step).h, h);
    }
  }
  // A λ table smaller than the machine rejects a pid it does not cover, and
  // the throw leaves later pricing exact.
  const DestinationCosts two =
      DestinationCosts::from_matrix({{1.0, 2.0}, {2.0, 1.0}});
  CostModel short_lambda{tree};
  short_lambda.set_destination_costs(&two);
  SuperstepPlan inside;
  inside.sync_scope = tree.root();
  inside.transfers = {{0, 1, 5}};
  const double h_inside = short_lambda.h_relation(inside);
  SuperstepPlan beyond = inside;
  beyond.transfers.push_back({0, p - 1, 5});
  EXPECT_THROW((void)short_lambda.h_relation(beyond), std::out_of_range);
  EXPECT_EQ(short_lambda.h_relation(inside), h_inside);
}

TEST(CostModel, EmptySchedule) {
  const MachineTree tree = cluster();
  const CostModel model{tree};
  EXPECT_DOUBLE_EQ(model.cost(CommSchedule{}).total(), 0.0);
}

TEST(ValidateSchedule, AcceptsPlannedShapes) {
  const MachineTree tree = cluster();
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("ok", 1, tree.root());
  plan.transfers = {{0, 1, 5}};
  EXPECT_NO_THROW(validate_schedule(tree, schedule));
}

TEST(ValidateSchedule, RejectsEscapedScope) {
  const MachineTree tree = make_figure1_cluster();
  CommSchedule schedule;
  SuperstepPlan& plan =
      schedule.add_step("bad", 1, tree.child(tree.root(), 0));  // SMP scope
  plan.transfers = {{0, 8, 5}};  // destination in the LAN
  EXPECT_THROW(validate_schedule(tree, schedule), std::invalid_argument);
}

TEST(ValidateSchedule, RejectsOverlappingScopesInOnePhase) {
  const MachineTree tree = make_figure1_cluster();
  CommSchedule schedule;
  Phase& phase = schedule.add_phase();
  SuperstepPlan a;
  a.label = "whole";
  a.level = 2;
  a.sync_scope = tree.root();
  SuperstepPlan b;
  b.label = "smp";
  b.level = 1;
  b.sync_scope = tree.child(tree.root(), 0);
  phase.plans.push_back(a);
  phase.plans.push_back(b);
  EXPECT_THROW(validate_schedule(tree, schedule), std::invalid_argument);
}

TEST(ValidateSchedule, RejectsBadPidsAndNegativeCompute) {
  const MachineTree tree = cluster();
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("bad pid", 1, tree.root());
  plan.transfers = {{0, 42, 5}};
  EXPECT_THROW(validate_schedule(tree, schedule), std::invalid_argument);

  CommSchedule schedule2;
  SuperstepPlan& plan2 = schedule2.add_step("bad ops", 1, tree.root());
  plan2.compute = {{0, -1.0}};
  EXPECT_THROW(validate_schedule(tree, schedule2), std::invalid_argument);
}

TEST(ScheduleAccounting, ItemAndMessageTotals) {
  const MachineTree tree = cluster();
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("s", 1, tree.root());
  plan.transfers = {{0, 1, 10}, {1, 2, 20}, {2, 2, 99}};  // last is a self-send
  EXPECT_EQ(schedule.total_items(), 30u);
  EXPECT_EQ(schedule.total_messages(), 2u);
}

}  // namespace
}  // namespace hbsp
