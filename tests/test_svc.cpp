// Differential and behavioural suite for the embedded scenario-advisory
// service (src/svc).
//
// The core claim under test is the serving layer's determinism contract: a
// Response body is a pure function of request content — byte-identical to
// what direct advisor / planner / simulator calls produce, at any executor
// thread count, shard count, or cache warmth. On top of that, the admission
// mechanics: N identical concurrent requests coalesce into exactly one
// compute (one plancache.misses increment), a full queue sheds explicitly
// and deterministically, and expired deadlines are rejected without ever
// executing.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"

namespace hbsp::svc {
namespace {

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().snapshot().counter(name);
}

/// The ISSUE's acceptance machines: every differential case runs on all
/// three.
std::vector<std::pair<std::string, std::shared_ptr<const MachineTree>>>
machine_basket() {
  return {
      {"testbed10",
       std::make_shared<const MachineTree>(make_paper_testbed(10))},
      {"figure1_campus",
       std::make_shared<const MachineTree>(make_figure1_cluster())},
      {"wide_area_grid",
       std::make_shared<const MachineTree>(make_wide_area_grid())},
  };
}

bool is_flat(const MachineTree& tree) {
  for (int j = 0; j < tree.num_children(tree.root()); ++j) {
    if (!tree.is_processor(tree.child(tree.root(), j))) return false;
  }
  return true;
}

/// Collectives the advisor accepts on `tree` (scan/alltoall are flat-only).
std::vector<coll::CollectiveKind> advisable(const MachineTree& tree) {
  std::vector<coll::CollectiveKind> kinds = {
      coll::CollectiveKind::kGather,    coll::CollectiveKind::kBroadcast,
      coll::CollectiveKind::kScatter,   coll::CollectiveKind::kReduce,
      coll::CollectiveKind::kAllgather,
  };
  if (is_flat(tree)) {
    kinds.push_back(coll::CollectiveKind::kScan);
    kinds.push_back(coll::CollectiveKind::kAlltoall);
  }
  return kinds;
}

Response served(Service& service, AdviseRequest request) {
  Ticket ticket = service.submit(std::move(request));
  service.pump();
  return ticket.response.get();
}

TEST(SvcDifferential, AdviseMatchesDirectCallsEverywhere) {
  // Every collective on every machine, at 1 and 4 executor threads, cold
  // and warm: the served response must carry exactly the advisor's choice,
  // the cache's plan, and the scenario cache's makespan.
  constexpr std::size_t n = 4096;
  const sim::SimParams params;
  std::map<std::string, std::uint64_t> fingerprints_at_1;

  for (const int threads : {1, 4}) {
    coll::PlanCache::global().clear();
    exp::ScenarioCache::global().clear();
    Service service{ServiceConfig{threads, 2, 0}};
    for (const auto& [name, tree] : machine_basket()) {
      for (const coll::CollectiveKind kind : advisable(*tree)) {
        const std::string label =
            name + "/" + coll::to_string(kind) + "/t" + std::to_string(threads);

        const coll::CollectiveAdvice advice = coll::advise(*tree, kind, n);
        const coll::PlanRequest spec = advice.request(n);
        const auto direct_plan = coll::PlanCache::global().get(*tree, spec);
        const double direct_makespan =
            exp::simulate_makespan(*tree, direct_plan->schedule, params);

        const Response cold = served(
            service, AdviseRequest{tree, kind, n, params});
        ASSERT_EQ(cold.outcome, Outcome::kCompleted) << label;
        EXPECT_EQ(cold.body.spec, spec) << label;
        EXPECT_EQ(cold.body.plan->schedule, direct_plan->schedule) << label;
        EXPECT_EQ(cold.body.plan->predicted_cost, direct_plan->predicted_cost)
            << label;
        EXPECT_TRUE(cold.body.simulated) << label;
        EXPECT_EQ(cold.body.simulated_makespan, direct_makespan) << label;
        EXPECT_EQ(cold.body.rationale, advice.rationale) << label;

        // Warm pass: identical content, not merely similar.
        const Response warm = served(
            service, AdviseRequest{tree, kind, n, params});
        EXPECT_EQ(warm.body.content_fingerprint(),
                  cold.body.content_fingerprint())
            << label;

        // And the fingerprint must agree across thread counts.
        const std::string key = name + "/" + coll::to_string(kind);
        if (threads == 1) {
          fingerprints_at_1[key] = cold.body.content_fingerprint();
        } else {
          EXPECT_EQ(cold.body.content_fingerprint(), fingerprints_at_1[key])
              << label;
        }
      }
    }
  }
}

TEST(SvcDifferential, PlanAndSimulateMatchDirectCalls) {
  const auto basket = machine_basket();
  for (const auto& [name, tree] : basket) {
    Service service{ServiceConfig{2, 2, 0}};
    coll::PlanRequest spec;
    spec.kind = coll::CollectiveKind::kGather;
    spec.n = 2048;
    spec.root_pid = tree->coordinator_pid(tree->root());

    Ticket plan_ticket = service.submit(PlanRequest{tree, spec});
    service.pump();
    const Response planned = plan_ticket.response.get();
    ASSERT_EQ(planned.outcome, Outcome::kCompleted) << name;
    const auto direct = coll::PlanCache::global().get(*tree, spec);
    EXPECT_EQ(planned.body.spec, spec) << name;
    EXPECT_EQ(planned.body.plan->schedule, direct->schedule) << name;
    EXPECT_FALSE(planned.body.simulated) << name;

    const sim::SimParams params;
    Ticket sim_ticket =
        service.submit(SimulateRequest{tree, spec, params, nullptr});
    service.pump();
    const Response simulated = sim_ticket.response.get();
    ASSERT_EQ(simulated.outcome, Outcome::kCompleted) << name;
    EXPECT_EQ(simulated.body.simulated_makespan,
              exp::simulate_makespan(*tree, direct->schedule, params))
        << name;

    // Fault-injected simulation differs from fault-free and matches the
    // direct injected call exactly.
    auto fault_plan = std::make_shared<const faults::FaultPlan>([&] {
      faults::FaultPlan fp;
      fp.slowdowns.push_back(
          {.pid = tree->coordinator_pid(tree->root()),
           .begin = 0.0,
           .end = 1.0,
           .factor = 3.0});
      return fp;
    }());
    Ticket fault_ticket =
        service.submit(SimulateRequest{tree, spec, params, fault_plan});
    service.pump();
    const Response faulted = fault_ticket.response.get();
    ASSERT_EQ(faulted.outcome, Outcome::kCompleted) << name;
    const faults::FaultInjector injector{*fault_plan};
    EXPECT_EQ(faulted.body.simulated_makespan,
              exp::simulate_makespan(*tree, direct->schedule, params,
                                     &injector))
        << name;
    EXPECT_NE(faulted.body.content_fingerprint(),
              simulated.body.content_fingerprint())
        << name;
  }
}

TEST(SvcCoalescing, IdenticalConcurrentRequestsComputeOnce) {
  // The ISSUE's coalescing criterion: N identical requests submitted while
  // none has executed yet trigger exactly one plan build (one
  // plancache.misses increment) and N identical responses.
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(7));
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kBroadcast;
  spec.n = 7777;  // unique to this test: nothing else builds this key
  spec.root_pid = 0;

  Service service{ServiceConfig{4, 2, 0}};
  const std::uint64_t misses_before = counter("plancache.misses");
  const std::uint64_t coalesced_before = counter("svc.coalesced");

  constexpr std::uint64_t kTwins = 8;
  std::vector<Ticket> tickets;
  for (std::uint64_t i = 0; i < kTwins; ++i) {
    tickets.push_back(
        service.submit(SimulateRequest{tree, spec, sim::SimParams{}, nullptr}));
  }
  EXPECT_FALSE(tickets.front().coalesced);
  for (std::uint64_t i = 1; i < kTwins; ++i) {
    EXPECT_TRUE(tickets[i].coalesced) << i;
    EXPECT_EQ(tickets[i].key, tickets.front().key) << i;
  }
  EXPECT_EQ(service.queue_depth(), 1u);  // one job serves all twins

  service.pump();
  const Response first = tickets.front().response.get();
  ASSERT_EQ(first.outcome, Outcome::kCompleted);
  EXPECT_EQ(first.provenance.served, kTwins);
  for (const Ticket& ticket : tickets) {
    const Response& response = ticket.response.get();
    EXPECT_EQ(response.body.content_fingerprint(),
              first.body.content_fingerprint());
  }
  EXPECT_EQ(counter("plancache.misses"), misses_before + 1);
  EXPECT_EQ(counter("svc.coalesced"), coalesced_before + kTwins - 1);
}

TEST(SvcAdmission, FullQueueShedsDeterministically) {
  // Single-threaded, single-shard, capacity 3: of six *distinct* requests
  // the first three are admitted, the last three rejected immediately with
  // an explicit queue-full outcome — same result on every run.
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(6));
  Service service{ServiceConfig{1, 1, 3}};
  const std::uint64_t shed_before = counter("svc.shed.queue_full");

  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 6; ++i) {
    coll::PlanRequest spec;
    spec.kind = coll::CollectiveKind::kGather;
    spec.n = 1000 + i;  // distinct keys: no coalescing interference
    spec.root_pid = 0;
    tickets.push_back(service.submit(PlanRequest{tree, spec}));
  }
  EXPECT_EQ(service.queue_depth(), 3u);
  for (std::size_t i = 3; i < 6; ++i) {
    const Response& rejected = tickets[i].response.get();  // already ready
    EXPECT_EQ(rejected.outcome, Outcome::kRejectedQueueFull) << i;
  }
  EXPECT_EQ(counter("svc.shed.queue_full"), shed_before + 3);

  service.pump();
  EXPECT_EQ(service.queue_depth(), 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(tickets[i].response.get().outcome, Outcome::kCompleted) << i;
  }

  // A coalescing twin of an admitted request does not consume a slot: after
  // the drain, capacity 3 admits 3 distinct plus any number of twins.
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kGather;
  spec.n = 1000;
  spec.root_pid = 0;
  (void)service.submit(PlanRequest{tree, spec});
  Ticket twin = service.submit(PlanRequest{tree, spec});
  EXPECT_TRUE(twin.coalesced);
  EXPECT_EQ(service.queue_depth(), 1u);
  service.pump();
}

TEST(SvcDeadlines, ExpiredRequestsNeverExecute) {
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(5));
  Service service{ServiceConfig{1, 1, 8}};
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kScatter;
  spec.n = 5555;
  spec.root_pid = 0;

  const std::uint64_t misses_before = counter("plancache.misses");
  const std::uint64_t shed_before = counter("svc.shed.deadline");
  Ticket ticket =
      service.submit(PlanRequest{tree, spec}, Deadline::expired());
  EXPECT_FALSE(ticket.coalesced);
  EXPECT_EQ(service.queue_depth(), 0u);  // rejected at submit, never queued
  EXPECT_EQ(ticket.response.get().outcome,
            Outcome::kRejectedDeadlineExceeded);
  EXPECT_EQ(counter("svc.shed.deadline"), shed_before + 1);
  EXPECT_EQ(counter("plancache.misses"), misses_before);  // nothing built

  // An expired request whose twin is live coalesces instead of shedding:
  // the compute is already paid for, so the late member shares it.
  Ticket live = service.submit(PlanRequest{tree, spec});
  Ticket rescued =
      service.submit(PlanRequest{tree, spec}, Deadline::expired());
  EXPECT_TRUE(rescued.coalesced);
  service.pump();
  EXPECT_EQ(live.response.get().outcome, Outcome::kCompleted);
  EXPECT_EQ(rescued.response.get().outcome, Outcome::kCompleted);
  EXPECT_EQ(counter("svc.shed.deadline"), shed_before + 1);  // unchanged
}

TEST(SvcDeadlines, DeadlinePassingInQueueShedsAtDispatch) {
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(5));
  Service service{ServiceConfig{1, 1, 8}};
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kReduce;
  spec.n = 5556;
  spec.root_pid = 0;

  // Admitted with a quarter-second budget, then deliberately left to expire
  // before the pump: the dispatch-time re-check must shed it.
  Ticket ticket =
      service.submit(PlanRequest{tree, spec}, Deadline::after(0.25));
  ASSERT_EQ(service.queue_depth(), 1u);
  const double expire_at = now_seconds() + 0.3;
  while (now_seconds() < expire_at) {
    std::this_thread::yield();
  }
  service.pump();
  EXPECT_EQ(ticket.response.get().outcome,
            Outcome::kRejectedDeadlineExceeded);
}

TEST(SvcErrors, NullTreeThrowsAndPlannerErrorsSurfaceThroughFuture) {
  Service service{ServiceConfig{1, 1, 0}};
  EXPECT_THROW((void)service.submit(
                   PlanRequest{nullptr, coll::PlanRequest{}}),
               std::invalid_argument);

  // A flat-only collective on a hierarchy fails inside the planner; the
  // error must come out of the future, not kill the executor.
  const auto tree =
      std::make_shared<const MachineTree>(make_figure1_cluster());
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kAlltoall;
  spec.n = 128;
  Ticket ticket = service.submit(PlanRequest{tree, spec});
  service.pump();
  EXPECT_THROW((void)ticket.response.get(), std::invalid_argument);

  // The service keeps serving afterwards.
  coll::PlanRequest ok;
  ok.kind = coll::CollectiveKind::kGather;
  ok.n = 128;
  ok.root_pid = tree->coordinator_pid(tree->root());
  Ticket after = service.submit(PlanRequest{tree, ok});
  service.pump();
  EXPECT_EQ(after.response.get().outcome, Outcome::kCompleted);
}

TEST(SvcSharding, OutcomesAndContentInvariantAcrossShardsAndThreads) {
  // One fixed submit sequence against services of every (threads, shards)
  // shape: per-ticket outcome, coalesced flag, and content fingerprint must
  // be identical everywhere.
  const auto basket = machine_basket();
  struct Observed {
    Outcome outcome;
    bool coalesced;
    std::uint64_t fingerprint;
  };
  std::vector<Observed> reference;

  for (const auto& [threads, shards] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 3}, {4, 1}, {4, 8}}) {
    Service service{ServiceConfig{threads, shards, 5}};
    std::vector<Ticket> tickets;
    for (std::size_t i = 0; i < 12; ++i) {
      const auto& tree = basket[i % basket.size()].second;
      coll::PlanRequest spec;
      spec.kind = coll::CollectiveKind::kGather;
      spec.n = 3000 + (i % 4);  // duplicates by construction
      spec.root_pid = tree->coordinator_pid(tree->root());
      const Deadline deadline =
          i % 6 == 5 ? Deadline::expired() : Deadline::never();
      tickets.push_back(service.submit(
          SimulateRequest{tree, spec, sim::SimParams{}, nullptr}, deadline));
    }
    service.pump();

    std::vector<Observed> observed;
    for (Ticket& ticket : tickets) {
      const Response& response = ticket.response.get();
      observed.push_back({response.outcome, ticket.coalesced,
                          response.outcome == Outcome::kCompleted
                              ? response.body.content_fingerprint()
                              : 0});
    }
    if (reference.empty()) {
      reference = observed;
      continue;
    }
    for (std::size_t i = 0; i < observed.size(); ++i) {
      EXPECT_EQ(observed[i].outcome, reference[i].outcome)
          << threads << "x" << shards << " request " << i;
      EXPECT_EQ(observed[i].coalesced, reference[i].coalesced)
          << threads << "x" << shards << " request " << i;
      EXPECT_EQ(observed[i].fingerprint, reference[i].fingerprint)
          << threads << "x" << shards << " request " << i;
    }
  }
}

TEST(SvcBackground, StartStopServesSubmissionsFromWorkerThreads) {
  // Background mode: workers park on the admission queue and serve as
  // requests arrive. Content equals the pump-mode content; pump() itself is
  // refused while running.
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(8));
  Service service{ServiceConfig{4, 2, 0}};
  service.start();
  EXPECT_TRUE(service.running());
  EXPECT_THROW(service.pump(), std::logic_error);

  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < 16; ++i) {
    coll::PlanRequest spec;
    spec.kind = coll::CollectiveKind::kGather;
    spec.n = 4000 + (i % 5);
    spec.root_pid = 0;
    tickets.push_back(
        service.submit(SimulateRequest{tree, spec, sim::SimParams{}, nullptr}));
  }
  for (Ticket& ticket : tickets) {
    EXPECT_EQ(ticket.response.get().outcome, Outcome::kCompleted);
  }
  service.stop();
  EXPECT_FALSE(service.running());

  // Identical request served by a fresh pump-mode service: same content.
  Service reference{ServiceConfig{1, 1, 0}};
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kGather;
  spec.n = 4000;
  spec.root_pid = 0;
  Ticket again = reference.submit(
      SimulateRequest{tree, spec, sim::SimParams{}, nullptr});
  reference.pump();
  EXPECT_EQ(again.response.get().body.content_fingerprint(),
            tickets.front().response.get().body.content_fingerprint());
}

TEST(SvcObservability, CountersAndQueueDepthGaugeAreRecorded) {
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(4));
  const std::uint64_t requests_before = counter("svc.requests");
  const std::uint64_t completed_before = counter("svc.completed");

  Service service{ServiceConfig{1, 1, 0}};
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kGather;
  spec.n = 6000;
  spec.root_pid = 0;
  Ticket a = service.submit(PlanRequest{tree, spec});
  Ticket b = service.submit(PlanRequest{tree, spec});  // coalesces
  service.pump();
  (void)a.response.get();
  (void)b.response.get();

  EXPECT_EQ(counter("svc.requests"), requests_before + 2);
  EXPECT_EQ(counter("svc.completed"), completed_before + 2);

  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const obs::GaugeValue* depth = snapshot.gauge("svc.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->value, 1.0);
  const obs::HistogramValue* latency =
      snapshot.histogram("svc.latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, 2u);
}

}  // namespace
}  // namespace hbsp::svc
