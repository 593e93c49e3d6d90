// Tests for the discrete-event cluster simulator: each cost mechanism is
// checked against hand-computed timelines, plus determinism and statistics.

#include "sim/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim_detail.hpp"

namespace hbsp::sim {
namespace {

using test::arg;
using test::detail_spans;
using test::traced_run;

constexpr double kG = 1e-6;
constexpr double kL = 2e-3;

/// A parameter set with every artefact switched off except what a test
/// enables, so timelines stay hand-computable.
SimParams bare_params() {
  SimParams p;
  p.recv_ratio = 0.5;
  p.o_send = 0.0;
  p.o_recv = 0.0;
  p.model_wire_contention = false;
  p.latency_base = 0.0;
  return p;
}

MachineTree cluster() {
  return make_hbsp1_cluster(std::array{1.0, 2.0, 4.0}, kG, kL);
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

TEST(ClusterSim, SingleMessageTimeline) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  // P1 (r=2) sends 1000 items to P0 (r=1): send busy 2·1000·g = 2ms;
  // receive busy 0.5·1·1000·g = 0.5ms; barrier exit = 2.5ms + L.
  const SimResult result = sim.run(single_step(tree, {{1, 0, 1000}}));
  EXPECT_NEAR(result.makespan, 2e-3 + 0.5e-3 + kL, 1e-12);
}

TEST(ClusterSim, PerMessageOverheadsScaleWithR) {
  const MachineTree tree = cluster();
  SimParams params = bare_params();
  params.o_send = 1e-4;
  params.o_recv = 2e-4;
  ClusterSim sim{tree, params};
  // P2 (r=4) sends 0-cost... 1 item to P0 (r=1): send 4·(1e-4 + g);
  // recv 1·(2e-4 + 0.5g).
  const SimResult result = sim.run(single_step(tree, {{2, 0, 1}}));
  EXPECT_NEAR(result.makespan, 4 * (1e-4 + kG) + (2e-4 + 0.5 * kG) + kL, 1e-12);
}

TEST(ClusterSim, LatencyDelaysArrivalButNotSender) {
  const MachineTree tree = cluster();
  SimParams params = bare_params();
  params.latency_base = 5e-3;
  ClusterSim sim{tree, params};
  const SimResult result = sim.run(single_step(tree, {{1, 0, 1000}}));
  // Arrival at 2ms + 5ms; drain 0.5ms after that.
  EXPECT_NEAR(result.makespan, 2e-3 + 5e-3 + 0.5e-3 + kL, 1e-12);
}

TEST(ClusterSim, SendsSerialisePerSenderInIssueOrder) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  // P0 sends 1000 to P1 then 1000 to P2. Second send starts after the first:
  // send end times 1ms and 2ms. P2's drain: 0.5·4·1000g = 2ms → ends 4ms.
  const SimResult result =
      sim.run(single_step(tree, {{0, 1, 1000}, {0, 2, 1000}}));
  EXPECT_NEAR(result.makespan, 2e-3 + 2e-3 + kL, 1e-12);
}

TEST(ClusterSim, ReceiverDrainsArrivalsInOrder) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  // P1 (send ends 2ms) and P2 (send ends 4ms) both send 1000 to P0.
  // P0 drains: first at [2, 2.5], second at [4, 4.5].
  const SimResult result =
      sim.run(single_step(tree, {{1, 0, 1000}, {2, 0, 1000}}));
  EXPECT_NEAR(result.makespan, 4e-3 + 0.5e-3 + kL, 1e-12);
}

TEST(ClusterSim, ReceiverQueuesWhenArrivalsCluster) {
  const MachineTree tree =
      make_hbsp1_cluster(std::array{1.0, 1.0, 1.0, 1.0}, kG, kL);
  ClusterSim sim{tree, bare_params()};
  // Three senders finish at 1ms each; P0 drains 3 × 0.5ms sequentially.
  const SimResult result = sim.run(
      single_step(tree, {{1, 0, 1000}, {2, 0, 1000}, {3, 0, 1000}}));
  EXPECT_NEAR(result.makespan, 1e-3 + 3 * 0.5e-3 + kL, 1e-12);
}

TEST(ClusterSim, ReceiverDrainsByArrivalTimeThenIssueOrder) {
  const MachineTree tree =
      make_hbsp1_cluster(std::array{1.0, 1.0, 1.0, 1.0, 1.0}, kG, kL);
  ClusterSim sim{tree, bare_params(), /*record_events=*/true};
  // Issue order P1, P2, P3, P4, all to P0. Send ends (= arrivals, no
  // latency): P1 at 3ms, P2 at 2ms, P3 and P4 both at 1ms. P0 must drain
  // by arrival time, the reverse of issue order, and break the P3/P4 tie
  // by issue order.
  const obs::TraceSnapshot trace = traced_run(
      sim, single_step(tree, {{1, 0, 3000}, {2, 0, 2000}, {3, 0, 1000},
                              {4, 0, 1000}}));
  std::vector<std::int64_t> peers;
  std::vector<double> starts;
  for (const obs::SpanView& span : detail_spans(trace, "recv", 0)) {
    peers.push_back(arg(span, "peer"));
    starts.push_back(span.begin);
  }
  EXPECT_EQ(detail_spans(trace, "recv").size(), 4u);  // all of them on P0
  EXPECT_EQ(peers, (std::vector<std::int64_t>{3, 4, 2, 1}));
  ASSERT_EQ(starts.size(), 4u);
  // Drains take 0.5·items·g: P4's waits for P3's, the later ones do not.
  EXPECT_NEAR(starts[0], 1e-3, 1e-12);
  EXPECT_NEAR(starts[1], 1.5e-3, 1e-12);
  EXPECT_NEAR(starts[2], 2e-3, 1e-12);
  EXPECT_NEAR(starts[3], 3e-3, 1e-12);
}

TEST(ClusterSim, ComputeChargesAtComputeRate) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  // 1000 ops on P2 (compute_r = 4) at g seconds/op → 4ms; no comm.
  const SimResult result = sim.run(single_step(tree, {}, {{2, 1000.0}}));
  EXPECT_NEAR(result.makespan, 4e-3 + kL, 1e-12);
}

TEST(ClusterSim, SelfSendsAreFree) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  const SimResult result = sim.run(single_step(tree, {{2, 2, 1000000}}));
  EXPECT_NEAR(result.makespan, kL, 1e-12);
}

TEST(ClusterSim, WireContentionBoundsThePhase) {
  const MachineTree tree = cluster();
  SimParams params = bare_params();
  params.model_wire_contention = true;
  params.wire_factor_base = 10.0;  // exaggerate so the wire clearly binds
  ClusterSim sim{tree, params};
  // Endpoint work: send 2ms + drain 0.5ms = 2.5ms; wire: 1000·10·g = 10ms.
  const SimResult result = sim.run(single_step(tree, {{1, 0, 1000}}));
  EXPECT_NEAR(result.makespan, 10e-3 + kL, 1e-12);
}

TEST(ClusterSim, BarrierCostUsesScopeL) {
  const MachineTree tree = make_figure1_cluster(kG, 0.05);
  ClusterSim sim{tree, bare_params()};
  CommSchedule schedule;
  schedule.add_step("root barrier", 2, tree.root());
  const SimResult result = sim.run(schedule);
  EXPECT_NEAR(result.makespan, 0.05, 1e-12);
}

TEST(ClusterSim, ConcurrentScopesAdvanceIndependently) {
  const MachineTree tree = make_figure1_cluster(kG, 0.05);
  ClusterSim sim{tree, bare_params()};
  CommSchedule schedule;
  Phase& phase = schedule.add_phase();
  SuperstepPlan smp;
  smp.label = "smp";
  smp.level = 1;
  smp.sync_scope = tree.child(tree.root(), 0);  // L = kDefaultL1/20
  smp.transfers = {{1, 0, 1000}};
  SuperstepPlan lan;
  lan.label = "lan";
  lan.level = 1;
  lan.sync_scope = tree.child(tree.root(), 2);  // L = kDefaultL1
  lan.transfers = {{6, 5, 1000}};               // r=2.2 sender, r=1.6 receiver
  phase.plans.push_back(smp);
  phase.plans.push_back(lan);
  const SimResult result = sim.run(schedule);

  ASSERT_EQ(result.plan_timings.size(), 1u);
  ASSERT_EQ(result.plan_timings[0].size(), 2u);
  const double smp_exit = result.plan_timings[0][0].barrier_exit;
  const double lan_exit = result.plan_timings[0][1].barrier_exit;
  EXPECT_NEAR(smp_exit, 1e-3 + 0.5e-3 + kDefaultL1 / 20, 1e-12);
  EXPECT_NEAR(lan_exit, 2.2e-3 + 0.5 * 1.6e-3 + kDefaultL1, 1e-12);
  // The SGI (pid 4) took part in neither plan and sits at time 0.
  EXPECT_DOUBLE_EQ(sim.now(4), 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, std::max(smp_exit, lan_exit));
}

TEST(ClusterSim, PhasesChainClockForward) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  CommSchedule schedule;
  schedule.add_step("first", 1, tree.root()).transfers = {{1, 0, 1000}};
  schedule.add_step("second", 1, tree.root()).transfers = {{1, 0, 1000}};
  const SimResult result = sim.run(schedule);
  ASSERT_EQ(result.phase_completion.size(), 2u);
  EXPECT_NEAR(result.phase_completion[0], 2.5e-3 + kL, 1e-12);
  EXPECT_NEAR(result.phase_completion[1], 2 * (2.5e-3 + kL), 1e-12);
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  const MachineTree tree = make_paper_testbed(10);
  SimParams params;  // full default mechanics
  ClusterSim a{tree, params};
  ClusterSim b{tree, params};
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("mix", 1, tree.root());
  for (int pid = 1; pid < 10; ++pid) {
    plan.transfers.push_back({pid, 0, static_cast<std::size_t>(100 * pid)});
  }
  EXPECT_DOUBLE_EQ(a.run(schedule).makespan, b.run(schedule).makespan);
}

TEST(ClusterSim, ResetRestoresTimeZero) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params()};
  (void)sim.run(single_step(tree, {{1, 0, 1000}}));
  EXPECT_GT(sim.makespan(), 0.0);
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.makespan(), 0.0);
  for (int pid = 0; pid < 3; ++pid) EXPECT_DOUBLE_EQ(sim.now(pid), 0.0);
}

TEST(ClusterSim, StatsAccumulate) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params(), /*record_events=*/true};
  const obs::TraceSnapshot trace =
      traced_run(sim, single_step(tree, {{1, 0, 1000}, {2, 0, 500}}));
  const auto items = [](const std::vector<obs::SpanView>& spans) {
    std::int64_t total = 0;
    for (const obs::SpanView& span : spans) total += arg(span, "items");
    return total;
  };
  const auto seconds = [](const std::vector<obs::SpanView>& spans) {
    double total = 0.0;
    for (const obs::SpanView& span : spans) total += span.duration();
    return total;
  };
  EXPECT_EQ(detail_spans(trace, "send", 1).size(), 1u);
  EXPECT_EQ(items(detail_spans(trace, "send", 1)), 1000);
  EXPECT_EQ(detail_spans(trace, "recv", 0).size(), 2u);
  EXPECT_EQ(items(detail_spans(trace, "recv", 0)), 1500);
  EXPECT_GT(seconds(detail_spans(trace, "recv", 0)), 0.0);
  EXPECT_GT(seconds(detail_spans(trace, "send", 2)), 0.0);
  EXPECT_TRUE(detail_spans(trace, "send", 0).empty());
}

TEST(ClusterSim, EventTraceRecordsLifecycle) {
  const MachineTree tree = cluster();
  ClusterSim sim{tree, bare_params(), /*record_events=*/true};
  const obs::TraceSnapshot trace =
      traced_run(sim, single_step(tree, {{1, 0, 1000}}));
  EXPECT_EQ(detail_spans(trace, "send").size(), 1u);
  EXPECT_EQ(detail_spans(trace, "arrival").size(), 1u);
  EXPECT_EQ(detail_spans(trace, "recv").size(), 1u);
  EXPECT_EQ(detail_spans(trace, "wait").size(), 3u);  // one per processor
  // The lifecycle in virtual time: P1 sends 2 ms, P0 drains 0.5 ms on
  // arrival, and every barrier wait ends at the common exit.
  const obs::SpanView send = detail_spans(trace, "send", 1).at(0);
  const obs::SpanView recv = detail_spans(trace, "recv", 0).at(0);
  EXPECT_NEAR(send.duration(), 2e-3, 1e-12);
  EXPECT_EQ(arg(send, "peer"), 0);
  EXPECT_EQ(detail_spans(trace, "arrival", 0).at(0).begin, send.end);
  EXPECT_EQ(recv.begin, send.end);
  EXPECT_EQ(arg(recv, "peer"), 1);
  for (const obs::SpanView& wait : detail_spans(trace, "wait")) {
    EXPECT_NEAR(wait.end, 2.5e-3 + kL, 1e-12);
  }
}

TEST(ClusterSim, NetworkStatsCountCrossings) {
  const MachineTree tree = make_figure1_cluster();
  ClusterSim sim{tree, bare_params()};
  CommSchedule schedule;
  SuperstepPlan& plan = schedule.add_step("cross", 2, tree.root());
  plan.transfers = {{0, 8, 100}};  // SMP cpu -> LAN ws: smp, campus, lan nets
  (void)sim.run(schedule);
  EXPECT_EQ(sim.network().stats(tree.child(tree.root(), 0)).items_crossed, 100u);
  EXPECT_EQ(sim.network().stats(tree.root()).items_crossed, 100u);
  EXPECT_EQ(sim.network().stats(tree.child(tree.root(), 2)).items_crossed, 100u);
  EXPECT_EQ(sim.network().stats(tree.child(tree.root(), 1)).items_crossed, 0u);
}

TEST(ClusterSim, HigherLevelLatencyScales) {
  const MachineTree tree = make_figure1_cluster();
  SimParams params = bare_params();
  params.latency_base = 1e-3;
  params.latency_level_scale = 10.0;
  Network network{tree, params};
  EXPECT_DOUBLE_EQ(network.latency(1), 1e-3);
  EXPECT_DOUBLE_EQ(network.latency(2), 1e-2);
  EXPECT_DOUBLE_EQ(network.latency(0), 0.0);
}

TEST(ClusterSim, ReusedPooledStorageReplaysIdenticalEventTrace) {
  // Stress the pooled hot path: a simulator whose internal storage (arrival
  // buckets, touched-network list, the run record) has been warmed by prior
  // runs of *different* schedules must replay a recorded run exactly — the
  // virtual span export, per-processor detail included, byte for byte.
  const MachineTree tree = make_figure1_cluster();
  const SimParams params;  // full default mechanics
  const CommSchedule gather = coll::plan_gather(tree, 50000, {});
  const CommSchedule broadcast = coll::plan_broadcast(tree, 80000, {});

  ClusterSim fresh{tree, params, /*record_events=*/true};
  const obs::TraceSnapshot recorded = traced_run(fresh, gather);
  const SimResult want = fresh.run(gather);
  ASSERT_FALSE(detail_spans(recorded, "recv").empty());

  ClusterSim warm{tree, params, /*record_events=*/true};
  for (int round = 0; round < 5; ++round) {
    (void)traced_run(warm, broadcast);  // different shape: pools stretch
    (void)traced_run(warm, gather);     // and shrink
  }
  const obs::TraceSnapshot replayed = traced_run(warm, gather);

  EXPECT_EQ(warm.run(gather).makespan, want.makespan);
  EXPECT_EQ(obs::chrome_trace_json(replayed, obs::TraceFilter::kVirtualOnly),
            obs::chrome_trace_json(recorded, obs::TraceFilter::kVirtualOnly));
}

TEST(SimParams, ValidateRejectsBadValues) {
  SimParams p;
  p.recv_ratio = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.o_send = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.wire_level_scale = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.latency_base = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_NO_THROW(SimParams{}.validate());
}

TEST(SimParams, ValidateRejectsBadFaultTransportValues) {
  SimParams p;
  p.retry_timeout = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.retry_backoff = 0.5;  // must not shrink: timeouts would vanish
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.max_send_attempts = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SimParams{};
  p.failure_detector_multiple = 0.9;  // would fire before the barrier itself
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace hbsp::sim
