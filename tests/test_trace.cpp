// Determinism suite for the obs span-tracing layer (src/obs/trace*).
//
// The claims under test, in order of importance:
//   1. the exported *virtual-time* trace of a sweep is byte-identical at any
//      worker thread count, and of the serving layer at any shard count —
//      the property the CI trace gate pins against committed goldens;
//   2. span counts reconcile exactly against the sim.* / svc.* counters
//      (count(kSuperstep) == sim.plans, Σ"attempts" == sim.send_attempts,
//      count(kRequest) == svc.requests at 1-in-1 sampling, ...);
//   3. seeded 1-in-N sampling is reproducible and mutes unsampled requests
//      completely;
//   4. tracing compiled in but disabled records nothing and leaves every
//      counter untouched.
//
// Comparative runs clear coll::PlanCache and exp::ScenarioCache first: a
// scenario served from cache replays its metrics but (by design) emits no
// spans, so only cache-cold runs produce comparable traces.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "sim/cluster_sim.hpp"
#include "svc/service.hpp"

namespace hbsp {
namespace {

void clear_caches() {
  coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
}

/// The trace goldens' grid: full span-kind coverage at committed-file size.
exp::FigureConfig small_grid(int threads) {
  exp::FigureConfig config;
  config.processors = {2, 6, 10};
  config.kbytes = {100, 500, 1000};
  config.threads = threads;
  return config;
}

/// Cache-cold fig3a small-grid sweep under the global recorder; returns the
/// virtual-only export.
std::string traced_fig3a_json(int threads) {
  clear_caches();
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  exp::SweepRunner runner{threads};
  (void)exp::gather_root_experiment(small_grid(threads), runner);
  recorder.set_enabled(false);
  return obs::chrome_trace_json(recorder.snapshot(),
                                obs::TraceFilter::kVirtualOnly);
}

std::string traced_fig4a_json(int threads) {
  clear_caches();
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  exp::SweepRunner runner{threads};
  (void)exp::broadcast_root_experiment(small_grid(threads), runner);
  recorder.set_enabled(false);
  return obs::chrome_trace_json(recorder.snapshot(),
                                obs::TraceFilter::kVirtualOnly);
}

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string{HBSPK_SOURCE_DIR} + "/tests/golden/" + name;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

svc::SimulateRequest simulate_request(
    const std::shared_ptr<const MachineTree>& tree, std::size_t n) {
  coll::PlanRequest spec;
  spec.kind = coll::CollectiveKind::kGather;
  spec.n = n;
  spec.root_pid = 0;
  return svc::SimulateRequest{tree, spec, sim::SimParams{}, nullptr};
}

/// Requests that share a schedule share one ScenarioCache entry, and which
/// of them simulates (and so records simulator spans) depends on thread
/// order. The svc trace comparisons therefore need pairwise distinct
/// schedules; this checks the precondition for the given sizes.
void expect_distinct_schedules(const std::shared_ptr<const MachineTree>& tree,
                               const std::vector<std::size_t>& sizes) {
  std::set<std::uint64_t> fingerprints;
  for (const std::size_t n : sizes) {
    const coll::PlanRequest spec = simulate_request(tree, n).spec;
    fingerprints.insert(coll::build_plan(*tree, spec).fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), sizes.size());
}

TEST(TraceRecorder, ParentLinksAndCanonicalOrder) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("t", "outer", obs::SpanKind::kOther,
                      obs::Timebase::kVirtual, 0.0);
  recorder.record_span("t", "child_a", obs::SpanKind::kOther,
                       obs::Timebase::kVirtual, 1.0, 2.0, {{"x", 7}});
  recorder.record_span("t", "child_b", obs::SpanKind::kOther,
                       obs::Timebase::kVirtual, 2.0, 3.0);
  recorder.end_span(4.0);

  const obs::TraceSnapshot snap = recorder.snapshot();
  ASSERT_EQ(snap.spans.size(), 3u);
  // Canonical order sorts by (timebase, track, begin, ...): outer first.
  EXPECT_EQ(snap.spans[0].name, "outer");
  EXPECT_EQ(snap.spans[0].parent, -1);
  EXPECT_EQ(snap.spans[1].name, "child_a");
  EXPECT_EQ(snap.spans[1].parent, 0);
  EXPECT_EQ(snap.spans[2].name, "child_b");
  EXPECT_EQ(snap.spans[2].parent, 0);
  ASSERT_EQ(snap.tracks.size(), 1u);
  EXPECT_EQ(snap.spans[0].duration(), 4.0);
  EXPECT_EQ(snap.arg_total(obs::SpanKind::kOther, "x"), 7);
}

TEST(TraceRecorder, OpenSpansAreExcludedFromSnapshots) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("t", "never_closed", obs::SpanKind::kOther,
                      obs::Timebase::kVirtual, 0.0);
  recorder.record_span("t", "complete", obs::SpanKind::kOther,
                       obs::Timebase::kVirtual, 1.0, 2.0);
  const obs::TraceSnapshot snap = recorder.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "complete");
  // The open parent cannot be referenced: the link resolves to -1.
  EXPECT_EQ(snap.spans[0].parent, -1);
  EXPECT_EQ(recorder.span_count(), 1u);
}

TEST(TraceRecorder, MergeIsThreadOrderIndependent) {
  // Two threads, two tracks, interleaved recording: the snapshot must sort
  // purely by content, so it is identical whichever thread ran first.
  const auto run = [](bool swap) {
    obs::TraceRecorder recorder;
    recorder.set_enabled(true);
    const auto record = [&recorder](const std::string& track) {
      const double offset = track == "alpha" ? 0.0 : 100.0;
      for (int i = 0; i < 50; ++i) {
        recorder.record_span(track, "s" + std::to_string(i),
                             obs::SpanKind::kOther, obs::Timebase::kVirtual,
                             offset + i, offset + i + 1);
      }
    };
    std::thread a{[&] { record(swap ? "beta" : "alpha"); }};
    std::thread b{[&] { record(swap ? "alpha" : "beta"); }};
    a.join();
    b.join();
    return obs::chrome_trace_json(recorder.snapshot());
  };
  // Identical span content, tracks assigned to opposite threads: the merge
  // must serialise byte-identically.
  EXPECT_EQ(run(false), run(true));
}

TEST(TraceRecorder, SampledIsSeededAndReproducible) {
  // every <= 1 always samples.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(obs::TraceRecorder::sampled(42, i, 1));
  }
  // Same (seed, ordinal, every) -> same decision, and a fixed seed gives a
  // stable subset across calls.
  std::vector<bool> first;
  std::size_t hits = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    first.push_back(obs::TraceRecorder::sampled(2001, i, 8));
    if (first.back()) ++hits;
  }
  for (std::uint64_t i = 0; i < 4096; ++i) {
    EXPECT_EQ(obs::TraceRecorder::sampled(2001, i, 8), first[i]);
  }
  // Roughly 1-in-8 over many ordinals (loose 2x bounds).
  EXPECT_GT(hits, 4096u / 16);
  EXPECT_LT(hits, 4096u / 4);
  // A different seed selects a different subset.
  std::size_t differs = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    if (obs::TraceRecorder::sampled(7, i, 8) != first[i]) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(TraceDeterminism, VirtualSweepTraceIsByteIdenticalAcrossThreadCounts) {
  const std::string one = traced_fig3a_json(1);
  const std::string four = traced_fig3a_json(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
}

// The goldens were regenerated at --threads 8 (ci/regen_goldens.sh); byte
// identity at any thread count means a 2-thread in-process run must still
// match them exactly. A mismatch means sim behaviour (or the exporter's
// serialisation) changed without re-pinning.
TEST(TraceDeterminism, Fig3aVirtualTraceMatchesCommittedGolden) {
  EXPECT_EQ(traced_fig3a_json(2), read_golden("fig3a_trace.json"));
}

TEST(TraceDeterminism, Fig4aVirtualTraceMatchesCommittedGolden) {
  EXPECT_EQ(traced_fig4a_json(2), read_golden("fig4a_trace.json"));
}

TEST(TraceDeterminism, SimSpanCountsReconcileWithCounters) {
  clear_caches();
  auto& registry = obs::Registry::global();
  auto& recorder = obs::TraceRecorder::global();
  registry.reset();
  recorder.clear();
  recorder.set_enabled(true);
  exp::SweepRunner runner{2};
  (void)exp::gather_root_experiment(small_grid(2), runner);
  recorder.set_enabled(false);

  const obs::TraceSnapshot trace = recorder.snapshot();
  const obs::MetricsSnapshot counters = registry.snapshot();
  EXPECT_EQ(trace.count(obs::SpanKind::kSuperstep),
            counters.counter("sim.plans"));
  EXPECT_EQ(trace.count(obs::SpanKind::kPhase), counters.counter("sim.phases"));
  EXPECT_EQ(trace.count(obs::SpanKind::kBarrier),
            counters.counter("sim.barriers"));
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          trace.arg_total(obs::SpanKind::kMessageBatch, "attempts")),
      counters.counter("sim.send_attempts"));
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          trace.arg_total(obs::SpanKind::kMessageBatch, "retries")),
      counters.counter("sim.retries"));
  EXPECT_EQ(trace.count(obs::SpanKind::kCell), counters.counter("sweep.cells"));
}

TEST(TraceDeterminism, DirectSimReconcilesIncludingDeliveries) {
  clear_caches();
  auto& registry = obs::Registry::global();
  auto& recorder = obs::TraceRecorder::global();
  registry.reset();
  recorder.clear();
  recorder.set_enabled(true);
  const MachineTree tree = make_paper_testbed(6);
  const CommSchedule schedule = coll::plan_gather(tree, 50000, {});
  sim::ClusterSim sim{tree, sim::SimParams{}};
  (void)sim.run(schedule);
  recorder.set_enabled(false);

  const obs::TraceSnapshot trace = recorder.snapshot();
  const obs::MetricsSnapshot counters = registry.snapshot();
  EXPECT_GT(trace.spans.size(), 0u);
  EXPECT_EQ(trace.count(obs::SpanKind::kSuperstep),
            counters.counter("sim.plans"));
  EXPECT_EQ(trace.count(obs::SpanKind::kPhase), counters.counter("sim.phases"));
  EXPECT_EQ(trace.count(obs::SpanKind::kBarrier),
            counters.counter("sim.barriers"));
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          trace.arg_total(obs::SpanKind::kMessageBatch, "attempts")),
      counters.counter("sim.send_attempts"));
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          trace.arg_total(obs::SpanKind::kMessageBatch, "delivered")),
      2 * counters.counter("sim.messages_delivered"));  // send + receive batch
}

TEST(TraceDeterminism, SvcRequestSpansReconcileWithCounters) {
  clear_caches();
  auto& registry = obs::Registry::global();
  auto& recorder = obs::TraceRecorder::global();
  registry.reset();
  recorder.clear();
  recorder.set_enabled(true);

  const auto tree =
      std::make_shared<const MachineTree>(make_paper_testbed(6));
  {
    svc::Service service{svc::ServiceConfig{2, 2, 4}};
    std::vector<svc::Ticket> tickets;
    // Distinct computes, a coalesced twin, an expired deadline, and enough
    // backlog to shed on capacity: every svc.requests increment must yield
    // exactly one kRequest span.
    for (std::size_t i = 0; i < 4; ++i) {
      tickets.push_back(service.submit(simulate_request(tree, 3000 + i)));
    }
    tickets.push_back(service.submit(simulate_request(tree, 3000)));
    tickets.push_back(
        service.submit(simulate_request(tree, 9999), svc::Deadline::expired()));
    tickets.push_back(service.submit(simulate_request(tree, 8888)));
    service.pump();
    for (auto& ticket : tickets) (void)ticket.response.get();
  }
  recorder.set_enabled(false);

  const obs::TraceSnapshot trace = recorder.snapshot();
  const obs::MetricsSnapshot counters = registry.snapshot();
  EXPECT_EQ(trace.count(obs::SpanKind::kRequest),
            counters.counter("svc.requests"));
  EXPECT_EQ(counters.counter("svc.requests"), 7u);
}

TEST(TraceDeterminism, SvcVirtualTraceIsByteIdenticalAcrossShardCounts) {
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(8));
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 6; ++i) sizes.push_back(4000 + 7 * i);
  // Distinct scenarios: a shared one would simulate under whichever request
  // ran first and hit cache in the other — order-dependent.
  expect_distinct_schedules(tree, sizes);

  const auto run = [&](int threads, int shards) {
    clear_caches();
    auto& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
      svc::Service service{svc::ServiceConfig{threads, shards, 64}};
      std::vector<svc::Ticket> tickets;
      for (const std::size_t n : sizes) {
        tickets.push_back(service.submit(simulate_request(tree, n)));
      }
      service.pump();
      for (auto& ticket : tickets) (void)ticket.response.get();
    }
    recorder.set_enabled(false);
    return obs::chrome_trace_json(recorder.snapshot(),
                                  obs::TraceFilter::kVirtualOnly);
  };
  const std::string one = run(1, 1);
  const std::string eight = run(4, 8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(TraceSampling, UnsampledRequestsAreFullyMuted) {
  const auto tree = std::make_shared<const MachineTree>(make_paper_testbed(6));
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 12; ++i) sizes.push_back(5000 + 100 * i);
  // A shared schedule would record its simulator spans under whichever
  // request simulated first, sampled or not.
  expect_distinct_schedules(tree, sizes);

  const auto traced_requests = [&](std::uint64_t every, std::uint64_t seed) {
    clear_caches();
    auto& recorder = obs::TraceRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    {
      svc::ServiceConfig config{2, 2, 64};
      config.trace_sample_every = every;
      config.trace_seed = seed;
      svc::Service service{config};
      std::vector<svc::Ticket> tickets;
      for (const std::size_t n : sizes) {
        tickets.push_back(service.submit(simulate_request(tree, n)));
      }
      service.pump();
      for (auto& ticket : tickets) (void)ticket.response.get();
    }
    recorder.set_enabled(false);
    return recorder.snapshot();
  };

  const obs::TraceSnapshot sampled = traced_requests(4, 11);
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    if (obs::TraceRecorder::sampled(11, i, 4)) ++expected;
  }
  EXPECT_EQ(sampled.count(obs::SpanKind::kRequest), expected);
  // Every span (request roots, stages, nested sim spans) belongs to a
  // sampled ordinal's track: unsampled computes leak nothing.
  for (const obs::SpanView& span : sampled.spans) {
    ASSERT_GE(span.track.size(), 9u) << span.track;
    const std::uint64_t ordinal =
        std::stoull(span.track.substr(3, 6));
    EXPECT_TRUE(obs::TraceRecorder::sampled(11, ordinal, 4)) << span.track;
  }
  // Same seed -> the same subset; the run is reproducible.
  const obs::TraceSnapshot again = traced_requests(4, 11);
  EXPECT_EQ(again.count(obs::SpanKind::kRequest), expected);
  EXPECT_EQ(obs::chrome_trace_json(again, obs::TraceFilter::kVirtualOnly),
            obs::chrome_trace_json(sampled, obs::TraceFilter::kVirtualOnly));
}

TEST(TraceDisabled, RecordsNothingAndLeavesCountersUntouched) {
  auto& registry = obs::Registry::global();
  auto& recorder = obs::TraceRecorder::global();

  const auto run = [&](bool tracing) {
    clear_caches();
    registry.reset();
    recorder.clear();
    recorder.set_enabled(tracing);
    exp::SweepRunner runner{2};
    (void)exp::gather_root_experiment(small_grid(2), runner);
    recorder.set_enabled(false);
    return registry.snapshot();
  };

  const obs::MetricsSnapshot with = run(true);
  const std::size_t traced_spans = recorder.span_count();
  const obs::MetricsSnapshot without = run(false);
  EXPECT_GT(traced_spans, 0u);
  EXPECT_EQ(recorder.span_count(), 0u);

  // Tracing must not perturb a single counter (the BENCH byte-identity
  // guarantee); wall-time gauges/histograms are exempt by design.
  ASSERT_EQ(with.counters.size(), without.counters.size());
  for (std::size_t i = 0; i < with.counters.size(); ++i) {
    EXPECT_EQ(with.counters[i].name, without.counters[i].name);
    EXPECT_EQ(with.counters[i].value, without.counters[i].value)
        << with.counters[i].name;
  }
}

TEST(TraceExport, ChromeJsonShapeAndFiltering) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("wallside", "request", obs::SpanKind::kRequest,
                      obs::Timebase::kWall, 10.0);
  recorder.record_span("virtside", "phase", obs::SpanKind::kPhase,
                       obs::Timebase::kVirtual, 0.5, 1.25, {{"plans", 3}});
  recorder.end_span(11.0);

  const obs::TraceSnapshot snap = recorder.snapshot();
  const std::string all = obs::chrome_trace_json(snap);
  EXPECT_NE(all.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(all.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(all.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(all.find("\"cat\": \"virtual\""), std::string::npos);
  EXPECT_NE(all.find("\"cat\": \"wall\""), std::string::npos);
  EXPECT_NE(all.find("\"plans\": 3"), std::string::npos);
  // The virtual phase is a child of the wall request in the full export...
  EXPECT_NE(all.find("\"parent\": "), std::string::npos);

  const std::string virt =
      obs::chrome_trace_json(snap, obs::TraceFilter::kVirtualOnly);
  // ...but with the wall parent filtered out, the link is omitted, and no
  // wall span or track leaks into the golden-comparable export.
  EXPECT_EQ(virt.find("\"parent\": "), std::string::npos);
  EXPECT_EQ(virt.find("wallside"), std::string::npos);
  EXPECT_EQ(virt.find("\"cat\": \"wall\""), std::string::npos);
  EXPECT_NE(virt.find("\"cat\": \"virtual\""), std::string::npos);

  // Byte stability: the same snapshot serialises identically every time.
  EXPECT_EQ(all, obs::chrome_trace_json(snap));
}

TEST(TraceExport, SelfTimeSubtractsSameTimebaseChildrenOnly) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.begin_span("t", "outer", obs::SpanKind::kOther,
                      obs::Timebase::kVirtual, 0.0);
  recorder.record_span("t", "inner", obs::SpanKind::kOther,
                       obs::Timebase::kVirtual, 1.0, 4.0);
  recorder.record_span("t", "wall_child", obs::SpanKind::kOther,
                       obs::Timebase::kWall, 0.0, 100.0);
  recorder.end_span(10.0);

  const util::Table table = obs::self_time_table(recorder.snapshot(), 10);
  // outer: total 10, self 10 - 3 (inner) = 7; the wall child measures a
  // different clock and must not subtract.
  std::ostringstream stream;
  table.render(stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("7.000000"), std::string::npos);
}

}  // namespace
}  // namespace hbsp
