// Tests for the fault-injection subsystem: plan validation, the chaos-plan
// generator's determinism, the injector's identity-keyed decisions, and the
// simulator's fault semantics against hand-computed timelines. The key
// contract — the injection layer is cost-free when disabled — is checked as
// exact double equality, never EXPECT_NEAR.

#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <string>

#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/hbsplib.hpp"
#include "sim/cluster_sim.hpp"
#include "sim_detail.hpp"

namespace hbsp::faults {
namespace {

using test::detail_spans;
using test::traced_run;

constexpr double kG = 1e-6;
constexpr double kL = 2e-3;

MachineTree cluster() {
  return make_hbsp1_cluster(std::array{1.0, 2.0, 4.0}, kG, kL);
}

/// Every artefact off except what a test enables: hand-computable timelines.
sim::SimParams bare_params() {
  sim::SimParams p;
  p.recv_ratio = 0.5;
  p.o_send = 0.0;
  p.o_recv = 0.0;
  p.model_wire_contention = false;
  p.latency_base = 0.0;
  return p;
}

CommSchedule single_step(const MachineTree& tree,
                         std::vector<Transfer> transfers,
                         std::vector<ComputeWork> compute = {}) {
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("step", 1, tree.root());
  plan.transfers = std::move(transfers);
  plan.compute = std::move(compute);
  return schedule;
}

// --- plan validation ---------------------------------------------------------

TEST(FaultPlan, ValidateNamesTheOffendingField) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0, 1.0, 2.0});  // inverted window
  try {
    plan.validate();
    FAIL() << "inverted window accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("window"), std::string::npos);
  }

  plan = FaultPlan{};
  plan.slowdowns.push_back({0, 0.0, 1.0, 0.0});  // non-positive factor
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.slowdowns.push_back({-1, 0.0, 1.0, 2.0});  // negative pid
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.drops.push_back({0, -1.0});  // negative drop time
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = FaultPlan{};
  plan.message_loss_probability = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  EXPECT_NO_THROW(FaultPlan{}.validate());
  EXPECT_TRUE(FaultPlan{}.empty());
}

// --- chaos-plan generator ----------------------------------------------------

TEST(MakeChaosPlan, DeterministicAndValid) {
  ChaosOptions options;
  options.slowdown_rate = 2.0;
  options.drop_probability = 0.3;
  options.message_loss_probability = 0.05;
  const FaultPlan a = make_chaos_plan(6, options, 42);
  const FaultPlan b = make_chaos_plan(6, options, 42);
  EXPECT_NO_THROW(a.validate());
  ASSERT_EQ(a.slowdowns.size(), b.slowdowns.size());
  for (std::size_t i = 0; i < a.slowdowns.size(); ++i) {
    EXPECT_EQ(a.slowdowns[i].pid, b.slowdowns[i].pid);
    EXPECT_EQ(a.slowdowns[i].begin, b.slowdowns[i].begin);
    EXPECT_EQ(a.slowdowns[i].end, b.slowdowns[i].end);
    EXPECT_EQ(a.slowdowns[i].factor, b.slowdowns[i].factor);
  }
  ASSERT_EQ(a.drops.size(), b.drops.size());
  EXPECT_EQ(a.loss_seed, b.loss_seed);

  const FaultPlan c = make_chaos_plan(6, options, 43);
  EXPECT_NE(a.loss_seed, c.loss_seed);
}

TEST(MakeChaosPlan, PerPidStreamsAreStableAcrossMachineSizes) {
  ChaosOptions options;
  options.slowdown_rate = 1.5;
  const FaultPlan small = make_chaos_plan(4, options, 7);
  const FaultPlan large = make_chaos_plan(8, options, 7);
  // The plan for processor j must not change when the machine count does.
  std::vector<SlowdownWindow> large_low;
  for (const SlowdownWindow& w : large.slowdowns) {
    if (w.pid < 4) large_low.push_back(w);
  }
  ASSERT_EQ(small.slowdowns.size(), large_low.size());
  for (std::size_t i = 0; i < large_low.size(); ++i) {
    EXPECT_EQ(small.slowdowns[i].pid, large_low[i].pid);
    EXPECT_EQ(small.slowdowns[i].begin, large_low[i].begin);
    EXPECT_EQ(small.slowdowns[i].factor, large_low[i].factor);
  }
}

TEST(MakeChaosPlan, ZeroRatesGiveAnEmptyPlan) {
  const FaultPlan plan = make_chaos_plan(6, ChaosOptions{}, 1);
  EXPECT_TRUE(plan.slowdowns.empty());
  EXPECT_TRUE(plan.drops.empty());
  EXPECT_TRUE(plan.empty());
}

// --- injector ----------------------------------------------------------------

TEST(FaultInjector, SlowdownFactorsMultiplyAndAreExactlyOneOutside) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 1.0, 2.0, 2.0});
  plan.slowdowns.push_back({0, 1.5, 3.0, 3.0});
  const FaultInjector injector{plan};
  EXPECT_EQ(injector.slowdown_factor(0, 0.5), 1.0);  // exact: no window active
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, 1.2), 2.0);
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, 1.6), 6.0);  // overlap: product
  EXPECT_DOUBLE_EQ(injector.slowdown_factor(0, 2.5), 3.0);
  EXPECT_EQ(injector.slowdown_factor(0, 3.0), 1.0);  // end is exclusive
  EXPECT_EQ(injector.slowdown_factor(7, 1.2), 1.0);  // unknown pid is inert
}

TEST(FaultInjector, DropTimes) {
  FaultPlan plan;
  plan.drops.push_back({1, 0.25});
  const FaultInjector injector{plan};
  EXPECT_TRUE(injector.has_drops());
  EXPECT_EQ(injector.drop_time(1), 0.25);
  EXPECT_EQ(injector.drop_time(0), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(injector.dropped_by(1, 0.2));
  EXPECT_TRUE(injector.dropped_by(1, 0.25));
  EXPECT_FALSE(injector.dropped_by(2, 1e9));
  EXPECT_FALSE(FaultInjector{FaultPlan{}}.has_drops());
}

TEST(FaultInjector, MessageLossIsAPureFunctionOfIdentity) {
  FaultPlan plan;
  plan.message_loss_probability = 0.3;
  plan.loss_seed = 99;
  const FaultInjector injector{plan};
  std::size_t lost = 0;
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const bool first = injector.lose_message(key, 1);
    EXPECT_EQ(first, injector.lose_message(key, 1));  // replayable
    lost += first ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(lost) / 10000.0, 0.3, 0.03);

  plan.message_loss_probability = 0.0;
  EXPECT_FALSE(FaultInjector{plan}.lose_message(5, 1));
  plan.message_loss_probability = 1.0;
  EXPECT_TRUE(FaultInjector{plan}.lose_message(5, 1));
}

// --- simulator semantics -----------------------------------------------------

TEST(FaultSim, EmptyPlanIsBitIdenticalToNoInjector) {
  const MachineTree tree = cluster();
  const CommSchedule schedule = single_step(
      tree, {{1, 0, 1000}, {2, 0, 500}, {0, 2, 250}}, {{0, 2000.0}});
  // Full default params: every cost artefact on.
  sim::ClusterSim plain{tree, sim::SimParams{}};
  const sim::SimResult expected = plain.run(schedule);

  const FaultInjector empty{FaultPlan{}};
  sim::ClusterSim faulty{tree, sim::SimParams{}};
  faulty.set_fault_injector(&empty);
  const sim::SimResult actual = faulty.run(schedule);

  // Exact equality: with nothing injected, the fault layer may not move a
  // single bit of the timeline.
  EXPECT_EQ(actual.makespan, expected.makespan);
  ASSERT_EQ(actual.phase_completion, expected.phase_completion);
  EXPECT_TRUE(faulty.run_metrics().excluded_pids.empty());
  EXPECT_EQ(faulty.run_metrics().messages_lost, 0u);
}

TEST(FaultSim, SlowdownWindowStretchesBusyTime) {
  const MachineTree tree = cluster();
  FaultPlan plan;
  plan.slowdowns.push_back({1, 0.0, 10.0, 3.0});
  const FaultInjector injector{plan};
  sim::ClusterSim sim{tree, bare_params()};
  sim.set_fault_injector(&injector);
  // P1 (r=2) sends 1000 items to P0 inside a 3x window: send busy
  // 3·2·1000·g = 6 ms; P0's drain (no window) 0.5·1000·g = 0.5 ms.
  const sim::SimResult result = sim.run(single_step(tree, {{1, 0, 1000}}));
  EXPECT_NEAR(result.makespan, 6e-3 + 0.5e-3 + kL, 1e-12);
}

TEST(FaultSim, WindowAfterTheRunIsExactlyCostFree) {
  const MachineTree tree = cluster();
  const CommSchedule schedule = single_step(tree, {{1, 0, 1000}});
  sim::ClusterSim plain{tree, bare_params()};
  const double expected = plain.run(schedule).makespan;

  FaultPlan plan;
  plan.slowdowns.push_back({1, 5.0, 6.0, 4.0});  // long after the ~4.5 ms run
  const FaultInjector injector{plan};
  sim::ClusterSim faulty{tree, bare_params()};
  faulty.set_fault_injector(&injector);
  EXPECT_EQ(faulty.run(schedule).makespan, expected);
}

TEST(FaultSim, LostMessagesPayRetryTimeoutsWithBackoff) {
  const MachineTree tree = cluster();
  sim::SimParams params = bare_params();
  params.retry_timeout = 1e-3;
  params.retry_backoff = 2.0;
  params.max_send_attempts = 3;
  FaultPlan plan;
  plan.message_loss_probability = 1.0;  // every non-final attempt vanishes
  const FaultInjector injector{plan};
  sim::ClusterSim sim{tree, params, /*record_events=*/true};
  sim.set_fault_injector(&injector);
  // P1→P0, 1000 items, send busy 2 ms per attempt. Attempts 1 and 2 are
  // lost (+1 ms, then +2 ms timeouts); attempt 3 is final and delivers:
  // sender clock 2+1+2+2+2 = 9 ms, then P0 drains 0.5 ms.
  const obs::TraceSnapshot trace =
      traced_run(sim, single_step(tree, {{1, 0, 1000}}));
  EXPECT_NEAR(sim.makespan(), 9e-3 + 0.5e-3 + kL, 1e-12);
  EXPECT_EQ(sim.run_metrics().messages_lost, 2u);
  EXPECT_EQ(sim.run_metrics().retries, 2u);

  // Both losses show on the receiver's track, both retries on the sender's,
  // and each of the three attempts is its own send span.
  EXPECT_EQ(detail_spans(trace, "lost", 0).size(), 2u);
  EXPECT_EQ(detail_spans(trace, "retry", 1).size(), 2u);
  EXPECT_EQ(detail_spans(trace, "send", 1).size(), 3u);
  EXPECT_EQ(detail_spans(trace, "lost").size(), 2u);
  EXPECT_EQ(detail_spans(trace, "retry").size(), 2u);
}

TEST(FaultSim, DroppedMachineStallsBarrierUntilDetectorExcludesIt) {
  const MachineTree tree = cluster();
  sim::SimParams params = bare_params();
  params.failure_detector_multiple = 4.0;
  FaultPlan plan;
  plan.drops.push_back({2, 0.0});  // P2 is dead from the start
  const FaultInjector injector{plan};
  sim::ClusterSim sim{tree, params, /*record_events=*/true};
  sim.set_fault_injector(&injector);
  // P1→P0 completes at 2.5 ms; the barrier then stalls on the corpse until
  // the detector fires at 4·(2.5 ms + L) = 18 ms.
  const obs::TraceSnapshot trace =
      traced_run(sim, single_step(tree, {{1, 0, 1000}}));
  EXPECT_NEAR(sim.makespan(), 4.0 * (2.5e-3 + kL), 1e-12);
  ASSERT_EQ(sim.run_metrics().excluded_pids, std::vector<int>{2});
  EXPECT_EQ(sim.now(2), 0.0);  // the corpse's clock froze at its drop time

  // The exclusion shows on the corpse's track when the detector fires.
  const std::vector<obs::SpanView> drops = detail_spans(trace, "drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].track, "p2");
  EXPECT_NEAR(drops[0].begin, 4.0 * (2.5e-3 + kL), 1e-12);
}

TEST(FaultSim, SenderGivesUpOnADeadReceiver) {
  const MachineTree tree = cluster();
  sim::SimParams params = bare_params();
  params.max_send_attempts = 2;
  FaultPlan plan;
  plan.drops.push_back({0, 0.0});
  const FaultInjector injector{plan};
  sim::ClusterSim sim{tree, params};
  sim.set_fault_injector(&injector);
  const sim::SimResult result = sim.run(single_step(tree, {{1, 0, 1000}}));
  // Both attempts vanish with the receiver; the detector then excludes P0.
  EXPECT_EQ(sim.run_metrics().messages_lost, 2u);
  EXPECT_EQ(sim.run_metrics().retries, 1u);
  ASSERT_EQ(sim.run_metrics().excluded_pids, std::vector<int>{0});
  EXPECT_GT(result.makespan, 0.0);
}

TEST(FaultSim, SetInjectorResetsFaultStateForTheNextRun) {
  const MachineTree tree = cluster();
  FaultPlan plan;
  plan.drops.push_back({2, 0.0});
  plan.message_loss_probability = 1.0;
  const FaultInjector injector{plan};
  sim::ClusterSim sim{tree, bare_params()};
  sim.set_fault_injector(&injector);
  (void)sim.run(single_step(tree, {{1, 0, 1000}}));
  EXPECT_EQ(sim.run_metrics().excluded_pids.size(), 1u);
  EXPECT_GT(sim.run_metrics().messages_lost, 0u);
  EXPECT_GT(sim.run_metrics().retries, 0u);
  sim.set_fault_injector(nullptr);
  EXPECT_TRUE(sim.run_metrics().excluded_pids.empty());
  EXPECT_EQ(sim.run_metrics().messages_lost, 0u);
  EXPECT_EQ(sim.run_metrics().retries, 0u);
}

TEST(FaultSim, EventCountIsIndependentOfPerProcessorDetail) {
  // Slowdown windows are inputs of the run: recording them as spans must
  // not add to sim.events, in the record or in the registry.
  const MachineTree tree = make_paper_testbed(6);
  const CommSchedule schedule = coll::plan_gather(tree, 1000, {});
  FaultPlan plan;
  plan.slowdowns.push_back({1, 0.0, 1.0, 2.0});
  plan.slowdowns.push_back({3, 0.0, 1.0, 3.0});
  const FaultInjector injector{plan};
  const auto events = [&](bool detail) {
    auto& registry = obs::Registry::global();
    registry.reset();
    sim::ClusterSim sim{tree, sim::SimParams{}, /*record_events=*/detail};
    sim.set_fault_injector(&injector);
    const obs::TraceSnapshot trace = traced_run(sim, schedule);
    EXPECT_EQ(detail_spans(trace, "slowdown").size(), detail ? 2u : 0u);
    EXPECT_EQ(registry.snapshot().counter("sim.events"),
              sim.run_metrics().events);
    return sim.run_metrics().events;
  };
  const std::size_t without = events(false);
  EXPECT_GT(without, 0u);
  EXPECT_EQ(events(true), without);
}

// --- runtime composition -----------------------------------------------------

TEST(FaultRuntime, InjectorDegradesVirtualTimeButNotDelivery) {
  const MachineTree tree = make_hbsp1_cluster(std::array{1.0, 2.0}, kG, kL);
  const rt::Program program = [](rt::Hbsp& ctx) {
    if (ctx.pid() == 0) {
      ctx.send(1, std::vector<std::byte>(4000), 1000);
    }
    ctx.sync();
    if (ctx.pid() == 1) {
      const auto messages = ctx.recv_all();
      ASSERT_EQ(messages.size(), 1u);
      EXPECT_EQ(messages[0].items, 1000u);
    }
  };
  const rt::RunResult plain = rt::run_program(tree, sim::SimParams{}, program);

  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, 10.0, 5.0});
  const FaultInjector injector{plan};
  rt::RunOptions options;
  options.fault_injector = &injector;
  const rt::RunResult faulty =
      rt::run_program(tree, sim::SimParams{}, program, options);
  // Payloads still arrive (asserted inside the program); time degrades.
  EXPECT_GT(faulty.makespan, plain.makespan);
  EXPECT_EQ(faulty.supersteps, plain.supersteps);
}

}  // namespace
}  // namespace hbsp::faults
