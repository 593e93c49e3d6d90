// The planner/cost-model/closed-form agreement contract (DESIGN.md §2):
// for every collective, pricing the planner's CommSchedule with CostModel
// must equal the independent closed form in core/analysis — exactly, since
// both sides use the same integer shares and the same max() structure.

#include <gtest/gtest.h>

#include "collectives/baselines.hpp"
#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"

namespace hbsp {
namespace {

using analysis::Shares;
using analysis::TopPhase;

struct Case {
  const char* name;
  std::size_t n;
  Shares shares;
};

class FlatAgreement : public ::testing::TestWithParam<std::tuple<int, Case>> {
 protected:
  [[nodiscard]] MachineTree tree() const {
    return make_paper_testbed(std::get<0>(GetParam()));
  }
  [[nodiscard]] std::size_t n() const { return std::get<1>(GetParam()).n; }
  [[nodiscard]] Shares shares() const { return std::get<1>(GetParam()).shares; }
};

TEST_P(FlatAgreement, Gather) {
  const MachineTree t = tree();
  const CostModel model{t};
  for (const int root : {t.coordinator_pid(t.root()), t.slowest_pid(t.root())}) {
    const auto schedule =
        coll::plan_gather(t, n(), {.root_pid = root, .shares = shares()});
    validate_schedule(t, schedule);
    const auto closed = analysis::hbsp1_gather(t, t.root(), root, n(), shares());
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total())
        << "root=" << root;
  }
}

TEST_P(FlatAgreement, BroadcastTwoPhase) {
  const MachineTree t = tree();
  const CostModel model{t};
  for (const int root : {t.coordinator_pid(t.root()), t.slowest_pid(t.root())}) {
    const auto schedule = coll::plan_broadcast(
        t, n(),
        {.root_pid = root, .top_phase = TopPhase::kTwoPhase, .shares = shares()});
    validate_schedule(t, schedule);
    const auto closed =
        analysis::hbsp1_broadcast_two_phase(t, t.root(), root, n(), shares());
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total())
        << "root=" << root;
  }
}

TEST_P(FlatAgreement, BroadcastOnePhase) {
  const MachineTree t = tree();
  const CostModel model{t};
  const int root = t.coordinator_pid(t.root());
  const auto schedule = coll::plan_broadcast(
      t, n(),
      {.root_pid = root, .top_phase = TopPhase::kOnePhase, .shares = shares()});
  validate_schedule(t, schedule);
  const auto closed = analysis::hbsp1_broadcast_one_phase(t, t.root(), root, n());
  EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total());
}

TEST_P(FlatAgreement, Scatter) {
  const MachineTree t = tree();
  const CostModel model{t};
  for (const int root : {t.coordinator_pid(t.root()), t.slowest_pid(t.root())}) {
    const auto schedule =
        coll::plan_scatter(t, n(), {.root_pid = root, .shares = shares()});
    validate_schedule(t, schedule);
    const auto closed = analysis::hbsp1_scatter(t, t.root(), root, n(), shares());
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total())
        << "root=" << root;
  }
}

TEST_P(FlatAgreement, Allgather) {
  const MachineTree t = tree();
  const CostModel model{t};
  const auto schedule = coll::plan_allgather(t, n(), shares());
  validate_schedule(t, schedule);
  EXPECT_DOUBLE_EQ(model.cost(schedule).total(),
                   analysis::hbsp1_allgather(t, t.root(), n(), shares()).total());
}

TEST_P(FlatAgreement, Reduce) {
  const MachineTree t = tree();
  const CostModel model{t};
  const int root = t.coordinator_pid(t.root());
  const auto schedule =
      coll::plan_reduce_tree(t, n(), {.root_pid = root, .shares = shares()});
  validate_schedule(t, schedule);
  EXPECT_DOUBLE_EQ(model.cost(schedule).total(),
                   analysis::hbspk_reduce(t, n(), shares(), root).total());
}

TEST_P(FlatAgreement, Scan) {
  const MachineTree t = tree();
  const CostModel model{t};
  const auto schedule = coll::plan_scan(t, n(), shares());
  validate_schedule(t, schedule);
  EXPECT_DOUBLE_EQ(model.cost(schedule).total(),
                   analysis::hbsp1_scan(t, t.root(), n(), shares()).total());
}

TEST_P(FlatAgreement, Alltoall) {
  const MachineTree t = tree();
  const CostModel model{t};
  const auto schedule = coll::plan_alltoall(t, n(), shares());
  validate_schedule(t, schedule);
  EXPECT_DOUBLE_EQ(model.cost(schedule).total(),
                   analysis::hbsp1_alltoall(t, t.root(), n(), shares()).total());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatAgreement,
    ::testing::Combine(
        ::testing::Values(2, 3, 5, 10),
        ::testing::Values(Case{"tiny_equal", 7, Shares::kEqual},
                          Case{"tiny_balanced", 7, Shares::kBalanced},
                          Case{"mid_equal", 25000, Shares::kEqual},
                          Case{"mid_balanced", 25000, Shares::kBalanced},
                          Case{"big_balanced", 250000, Shares::kBalanced},
                          Case{"zero", 0, Shares::kEqual})),
    [](const auto& param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_" +
             std::get<1>(param_info.param).name;
    });

// --- HBSP^2 agreement on the Figure 1 machine ---------------------------------

class Hbsp2Agreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Hbsp2Agreement, Gather) {
  const MachineTree t = make_figure1_cluster();
  const CostModel model{t};
  for (const Shares shares : {Shares::kEqual, Shares::kBalanced}) {
    const auto schedule = coll::plan_gather(
        t, GetParam(), {.root_pid = -1, .shares = shares});
    validate_schedule(t, schedule);
    const auto closed = analysis::hbsp2_gather(t, GetParam(), shares);
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total());
  }
}

TEST_P(Hbsp2Agreement, BroadcastBothTopPhases) {
  const MachineTree t = make_figure1_cluster();
  const CostModel model{t};
  for (const TopPhase top : {TopPhase::kOnePhase, TopPhase::kTwoPhase}) {
    const auto schedule = coll::plan_broadcast(
        t, GetParam(),
        {.root_pid = -1, .top_phase = top, .shares = Shares::kEqual});
    validate_schedule(t, schedule);
    const auto closed = analysis::hbsp2_broadcast(t, GetParam(), top);
    EXPECT_DOUBLE_EQ(model.cost(schedule).total(), closed.total());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Hbsp2Agreement,
                         ::testing::Values(0, 1, 9, 1000, 90000, 250000));

// --- baselines are just parameterisations --------------------------------------

TEST(Baselines, MatchExplicitOptions) {
  const MachineTree t = make_paper_testbed(5);
  const CostModel model{t};
  EXPECT_DOUBLE_EQ(
      model.cost(coll::bsp::plan_gather(t, 1000)).total(),
      model
          .cost(coll::plan_gather(t, 1000,
                                  {.root_pid = 0, .shares = Shares::kEqual}))
          .total());
  EXPECT_DOUBLE_EQ(
      model.cost(coll::bsp::plan_broadcast(t, 1000)).total(),
      model
          .cost(coll::plan_broadcast(t, 1000,
                                     {.root_pid = 0,
                                      .top_phase = TopPhase::kTwoPhase,
                                      .shares = Shares::kEqual}))
          .total());
}

}  // namespace
}  // namespace hbsp
