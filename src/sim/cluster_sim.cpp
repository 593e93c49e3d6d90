#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hbsp::sim {

namespace {

/// Track names compose the driver-supplied TraceContext prefix (cell index,
/// request ordinal, workload name) with a machine id, so the virtual trace is
/// deterministic no matter which thread or layer drives the simulation.
std::string span_track(const obs::TraceRecorder& recorder,
                       const MachineId& scope) {
  std::string track = recorder.context();
  if (!track.empty()) track += '/';
  track += 'm';
  track += std::to_string(scope.level);
  track += '.';
  track += std::to_string(scope.index);
  return track;
}

std::string phase_track(const obs::TraceRecorder& recorder) {
  std::string track = recorder.context();
  if (!track.empty()) track += '/';
  track += "sim";
  return track;
}

/// One per-processor span on `<context>/p<pid>` (see the header comment).
void detail_span(int pid, const char* name, double begin, double end,
                 int peer, std::size_t items) {
  auto& recorder = obs::TraceRecorder::global();
  std::string track = recorder.context();
  if (!track.empty()) track += '/';
  track += 'p';
  track += std::to_string(pid);
  recorder.record_span(std::move(track), name, obs::SpanKind::kOther,
                       obs::Timebase::kVirtual, begin, end,
                       {{"peer", peer},
                        {"items", static_cast<std::int64_t>(items)}});
}

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& part) {
  into.insert(into.end(), part.begin(), part.end());
}

/// Adds `part`'s counts to `run` and appends its lists.
void merge(RunMetrics& run, const RunMetrics& part) {
  run.runs += part.runs;
  run.phases += part.phases;
  run.plans += part.plans;
  run.ghost_plans += part.ghost_plans;
  run.send_attempts += part.send_attempts;
  run.messages_delivered += part.messages_delivered;
  run.messages_lost += part.messages_lost;
  run.retries += part.retries;
  run.barriers += part.barriers;
  run.barrier_stalls += part.barrier_stalls;
  run.slowdown_hits += part.slowdown_hits;
  run.events += part.events;
  append(run.excluded_pids, part.excluded_pids);
  append(run.plan_wire_seconds, part.plan_wire_seconds);
  append(run.plan_span_seconds, part.plan_span_seconds);
  append(run.run_makespan_seconds, part.run_makespan_seconds);
}

}  // namespace

ClusterSim::ClusterSim(const MachineTree& tree, SimParams params,
                       bool record_events)
    : tree_(&tree),
      params_(params),
      seconds_per_op_(params.seconds_per_op < 0.0 ? tree.g()
                                                  : params.seconds_per_op),
      network_(tree, params_),
      record_events_(record_events),
      clock_(static_cast<std::size_t>(tree.num_processors()), 0.0),
      excluded_(static_cast<std::size_t>(tree.num_processors()), 0),
      net_busy_(network_.num_slots(), 0.0) {
  params_.validate();
}

void ClusterSim::set_fault_injector(const faults::FaultInjector* injector) {
  faults_ = injector;
  std::fill(excluded_.begin(), excluded_.end(), 0);
  run_metrics_.excluded_pids.clear();
  run_metrics_.messages_lost = 0;
  run_metrics_.retries = 0;
}

void ClusterSim::reset() {
  std::fill(clock_.begin(), clock_.end(), 0.0);
  network_.reset();
  plan_counter_ = 0;
  std::fill(excluded_.begin(), excluded_.end(), 0);
  run_metrics_ = RunMetrics{};
  pending_ = RunMetrics{};
  arrivals_.clear();
  for (const std::size_t s : net_touched_) net_busy_[s] = 0.0;
  net_touched_.clear();
  if (faults_ != nullptr && record_events_ &&
      obs::TraceRecorder::global().enabled()) {
    // The planned slowdown windows, up front: they are inputs of the run,
    // so they add no sim.events.
    for (const auto& w : faults_->plan().slowdowns) {
      if (w.pid >= tree_->num_processors()) continue;
      detail_span(w.pid, "slowdown", w.begin, w.end, -1,
                  static_cast<std::size_t>(w.factor * 1000.0));
    }
  }
}

double ClusterSim::load_factor(int pid) const {
  if (params_.load_stddev <= 0.0) return 1.0;
  // One draw per (seed, superstep, pid): seed a tiny generator from the
  // mixed key so factors are independent and reproducible.
  std::uint64_t key = params_.load_seed;
  key = util::splitmix64(key) ^ (plan_counter_ * 0x9e3779b97f4a7c15ULL);
  key = util::splitmix64(key) ^ (static_cast<std::uint64_t>(pid) + 1);
  util::Rng rng{util::splitmix64(key)};
  return std::exp(rng.normal(0.0, params_.load_stddev));
}

double ClusterSim::now(int pid) const {
  return clock_.at(static_cast<std::size_t>(pid));
}

double ClusterSim::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

SimResult ClusterSim::run(const CommSchedule& schedule) {
  validate_schedule(*tree_, schedule);
  reset();
  SimResult result;
  result.phase_completion.reserve(schedule.phases.size());
  for (const auto& phase : schedule.phases) {
    auto timings = simulate_phase(phase);
    double completion = 0.0;
    for (const auto& t : timings) completion = std::max(completion, t.barrier_exit);
    result.phase_completion.push_back(completion);
    result.plan_timings.push_back(std::move(timings));
  }
  result.makespan = makespan();
  pending_.runs = 1;
  pending_.run_makespan_seconds.push_back(result.makespan);
  commit();
  return result;
}

void add_to_registry(const RunMetrics& metrics) {
  auto& registry = obs::Registry::global();
  registry.counter("sim.runs").add(metrics.runs);
  registry.counter("sim.phases").add(metrics.phases);
  registry.counter("sim.plans").add(metrics.plans);
  registry.counter("sim.ghost_plans").add(metrics.ghost_plans);
  registry.counter("sim.send_attempts").add(metrics.send_attempts);
  registry.counter("sim.messages_delivered").add(metrics.messages_delivered);
  registry.counter("sim.messages_lost").add(metrics.messages_lost);
  registry.counter("sim.retries").add(metrics.retries);
  registry.counter("sim.machines_excluded").add(metrics.excluded_pids.size());
  registry.counter("sim.barriers").add(metrics.barriers);
  registry.counter("sim.barrier_stalls").add(metrics.barrier_stalls);
  registry.counter("sim.slowdown_hits").add(metrics.slowdown_hits);
  registry.counter("sim.events").add(metrics.events);
  const auto record = [&registry](std::string_view name,
                                  const std::vector<double>& samples) {
    if (samples.empty()) return;
    obs::Histogram histogram = registry.histogram(name);
    for (const double s : samples) histogram.record(s);
  };
  record("sim.plan_wire_seconds", metrics.plan_wire_seconds);
  record("sim.plan_span_seconds", metrics.plan_span_seconds);
  record("sim.run_makespan_seconds", metrics.run_makespan_seconds);
}

void ClusterSim::commit() {
  add_to_registry(pending_);
  merge(run_metrics_, pending_);
  pending_ = RunMetrics{};
}

std::vector<PlanTiming> ClusterSim::execute_phase(const Phase& phase) {
  std::vector<PlanTiming> timings = simulate_phase(phase);
  commit();
  return timings;
}

std::vector<PlanTiming> ClusterSim::simulate_phase(const Phase& phase) {
  auto& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.enabled();
  if (tracing) {
    recorder.begin_span(phase_track(recorder), "phase", obs::SpanKind::kPhase,
                        obs::Timebase::kVirtual,
                        *std::min_element(clock_.begin(), clock_.end()));
  }
  std::vector<PlanTiming> timings;
  timings.reserve(phase.plans.size());
  // Plans within a phase act on disjoint subtrees, so sequential processing
  // of the plan list is still concurrent execution in virtual time.
  for (const auto& plan : phase.plans) timings.push_back(execute_plan(plan));
  if (tracing) {
    double completion = 0.0;
    for (const auto& t : timings) {
      completion = std::max(completion, t.barrier_exit);
    }
    recorder.end_span(
        completion,
        {{"plans", static_cast<std::int64_t>(phase.plans.size())}});
  }
  ++pending_.phases;
  return timings;
}

void ClusterSim::order_arrivals(int first, int last) {
  drain_.clear();
  if (arrivals_.empty()) return;
  const auto width = static_cast<std::size_t>(last - first);
  bucket_end_.assign(width + 1, 0);
  for (const Arrival& a : arrivals_) {
    if (a.dst < first || a.dst >= last) {
      throw std::logic_error{"execute_plan: transfer to pid " +
                             std::to_string(a.dst) +
                             " leaves the synchronised scope"};
    }
    ++bucket_end_[static_cast<std::size_t>(a.dst - first) + 1];
  }
  for (std::size_t i = 1; i <= width; ++i) bucket_end_[i] += bucket_end_[i - 1];
  // bucket_end_[i] is now receiver i's first slot; placing advances it to
  // the bucket's end, so the buckets are [end of i - 1, end of i).
  drain_.resize(arrivals_.size());
  for (const Arrival& a : arrivals_) {
    drain_[bucket_end_[static_cast<std::size_t>(a.dst - first)]++] = a;
  }
  arrivals_.clear();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t end = bucket_end_[i];
    if (end - begin > 1) {
      std::sort(drain_.begin() + static_cast<std::ptrdiff_t>(begin),
                drain_.begin() + static_cast<std::ptrdiff_t>(end),
                [](const Arrival& x, const Arrival& y) {
                  return x.time != y.time ? x.time < y.time : x.seq < y.seq;
                });
    }
    begin = end;
  }
}

PlanTiming ClusterSim::execute_plan(const SuperstepPlan& plan) {
  ++plan_counter_;
  ++pending_.plans;
  const auto [first, last] = tree_->processor_range(plan.sync_scope);
  if (first >= last) throw std::logic_error{"execute_plan: empty scope"};

  PlanTiming timing;
  timing.start = std::numeric_limits<double>::infinity();
  bool any_live = false;
  for (int pid = first; pid < last; ++pid) {
    const auto slot = static_cast<std::size_t>(pid);
    if (dead_at(pid, clock_[slot])) continue;
    any_live = true;
    timing.start = std::min(timing.start, clock_[slot]);
  }
  auto& recorder = obs::TraceRecorder::global();
  const bool tracing = recorder.enabled();
  const bool detail = tracing && record_events_;
  const std::string span_track_name =
      tracing ? span_track(recorder, plan.sync_scope) : std::string{};
  if (!any_live) {
    // Every scope member has dropped: the plan is a ghost. Nothing runs, no
    // barrier closes; the detector still flags the unreported corpses so the
    // re-planning layer learns about fully-dead clusters.
    ++pending_.ghost_plans;
    double frozen = 0.0;
    for (int pid = first; pid < last; ++pid) {
      frozen = std::max(frozen, clock_[static_cast<std::size_t>(pid)]);
      const auto slot = static_cast<std::size_t>(pid);
      if (excluded_[slot]) continue;
      excluded_[slot] = 1;
      pending_.excluded_pids.push_back(pid);
      ++pending_.events;
      if (detail) detail_span(pid, "drop", clock_[slot], clock_[slot], -1, 0);
    }
    timing.start = timing.work_end = timing.wire_end = timing.barrier_exit =
        frozen;
    if (tracing) {
      // Zero-length superstep span so count(kSuperstep) == sim.plans holds
      // exactly even when a whole scope has died.
      recorder.record_span(span_track_name, plan.label,
                           obs::SpanKind::kSuperstep, obs::Timebase::kVirtual,
                           frozen, frozen, {{"ghost", 1}});
    }
    return timing;
  }

  if (tracing) {
    recorder.begin_span(span_track_name, plan.label,
                        obs::SpanKind::kSuperstep, obs::Timebase::kVirtual,
                        timing.start);
  }
  const auto scope_clock_max = [&] {
    double latest = timing.start;
    for (int pid = first; pid < last; ++pid) {
      const auto slot = static_cast<std::size_t>(pid);
      if (dead_at(pid, clock_[slot])) continue;
      latest = std::max(latest, clock_[slot]);
    }
    return latest;
  };
  const std::size_t attempts_before = pending_.send_attempts;
  const std::size_t retries_before = pending_.retries;
  const std::size_t delivered_before = pending_.messages_delivered;
  const std::size_t lost_before = pending_.messages_lost;
  const std::size_t stalls_before = pending_.barrier_stalls;

  // 1. Local computation. A dropped processor does no further work; a
  //    slowdown window stretches busy time like a time-varying r.
  for (const auto& work : plan.compute) {
    const auto slot = static_cast<std::size_t>(work.pid);
    if (dead_at(work.pid, clock_[slot])) continue;
    const double slow = fault_slow(work.pid, clock_[slot]);
    if (slow != 1.0) ++pending_.slowdown_hits;
    const double seconds = work.ops * tree_->processor_compute_r(work.pid) *
                           seconds_per_op_ * load_factor(work.pid) * slow;
    const double begin = clock_[slot];
    clock_[slot] += seconds;
    pending_.events += 2;
    if (detail) {
      detail_span(work.pid, "compute", begin, clock_[slot], -1,
                  static_cast<std::size_t>(work.ops));
    }
  }
  const double compute_end = tracing ? scope_clock_max() : 0.0;

  // 2. Sends, serialised per sender in issue order. Arrivals append to the
  //    pooled arrivals_ list in issue order; the per-network shared-medium
  //    occupancy accumulates into the dense net_busy_ scratch (both reused
  //    across plans, no allocation on the steady state). Under faults a lost
  //    attempt is re-sent after an exponential-backoff timeout; every
  //    attempt re-pays the sender overhead and the wire occupancy of each
  //    crossed network, so resilience is never free.
  double plan_wire_seconds = 0.0;
  std::size_t seq = 0;
  for (const auto& t : plan.transfers) {
    ++seq;
    if (t.src_pid == t.dst_pid || t.items == 0) continue;
    const auto slot = static_cast<std::size_t>(t.src_pid);
    if (dead_at(t.src_pid, clock_[slot])) continue;  // message never leaves
    const double r = tree_->processor_r(t.src_pid);
    const double lambda =
        destination_costs_ ? destination_costs_->factor(t.src_pid, t.dst_pid)
                           : 1.0;
    const int lca = tree_->lca_level(t.src_pid, t.dst_pid);
    // Message identity: stable across runs and thread counts, so the loss
    // draw for (message, attempt) replays bit-identically.
    const std::uint64_t message_key =
        (static_cast<std::uint64_t>(plan_counter_) << 32) ^ seq;
    int attempt = 1;
    double timeout = params_.retry_timeout;
    for (;;) {
      ++pending_.send_attempts;
      if (attempt > 1) {
        ++pending_.retries;
        ++pending_.events;
        if (detail) {
          detail_span(t.src_pid, "retry", clock_[slot], clock_[slot],
                      t.dst_pid, t.items);
        }
      }
      const double send_slow = fault_slow(t.src_pid, clock_[slot]);
      if (send_slow != 1.0) ++pending_.slowdown_hits;
      const double busy =
          (params_.o_send * r +
           tree_->g() * r * lambda * static_cast<double>(t.items)) *
          load_factor(t.src_pid) * send_slow;
      const double send_begin = clock_[slot];
      clock_[slot] += busy;
      pending_.events += 2;
      if (detail) {
        detail_span(t.src_pid, "send", send_begin, clock_[slot], t.dst_pid,
                    t.items);
      }

      // Charge shared-medium occupancy on every crossed network.
      route_scratch_.clear();
      tree_->route(t.src_pid, t.dst_pid, route_scratch_);
      for (const MachineId net : route_scratch_) {
        auto& stats = network_.stats(net);
        stats.items_crossed += t.items;
        ++stats.messages_crossed;
        const double wire =
            network_.wire_per_item(net.level) * static_cast<double>(t.items);
        stats.wire_seconds += wire;
        plan_wire_seconds += wire;
        if (params_.model_wire_contention) {
          const std::size_t net_slot = network_.slot(net);
          if (net_busy_[net_slot] == 0.0) net_touched_.push_back(net_slot);
          net_busy_[net_slot] += wire;
        }
      }

      const double arrival = clock_[slot] + network_.latency(lca);
      const bool dst_dead =
          faults_ != nullptr && faults_->dropped_by(t.dst_pid, arrival);
      const bool final_attempt = attempt >= params_.max_send_attempts;
      const bool lost =
          faults_ != nullptr &&
          (dst_dead ||
           (!final_attempt && faults_->lose_message(message_key, attempt)));
      ++pending_.events;  // the arrival or the loss
      if (!lost) {
        if (detail) {
          detail_span(t.dst_pid, "arrival", arrival, arrival, t.src_pid,
                      t.items);
        }
        arrivals_.push_back({arrival, seq, t.dst_pid});
        ++pending_.messages_delivered;
        break;
      }
      ++pending_.messages_lost;
      if (detail) {
        detail_span(t.dst_pid, "lost", arrival, arrival, t.src_pid, t.items);
      }
      if (final_attempt) break;  // the receiver is gone; the sender gives up
      clock_[slot] += timeout;   // wait out the acknowledgement that never comes
      timeout *= params_.retry_backoff;
      ++attempt;
    }
  }
  const double sends_end = tracing ? scope_clock_max() : 0.0;
  if (tracing) {
    // One send batch per superstep; "attempts" sums to sim.send_attempts
    // across all batches, which the reconciliation suite checks exactly.
    recorder.record_span(
        span_track_name, "sends", obs::SpanKind::kMessageBatch,
        obs::Timebase::kVirtual, compute_end, sends_end,
        {{"attempts",
          static_cast<std::int64_t>(pending_.send_attempts - attempts_before)},
         {"retries",
          static_cast<std::int64_t>(pending_.retries - retries_before)},
         {"delivered", static_cast<std::int64_t>(pending_.messages_delivered -
                                                 delivered_before)},
         {"lost",
          static_cast<std::int64_t>(pending_.messages_lost - lost_before)}});
  }

  // 3. Receives: receivers in pid order, each draining its messages in
  //    (arrival time, issue seq) order after finishing its own compute and
  //    sends.
  order_arrivals(first, last);
  for (const Arrival& a : drain_) {
    const Transfer& t = plan.transfers[a.seq - 1];
    const auto slot = static_cast<std::size_t>(t.dst_pid);
    const double start = std::max(clock_[slot], a.time);
    if (dead_at(t.dst_pid, start)) {
      // The receiver died between the wire and the drain: the payload is
      // lost with the machine.
      ++pending_.messages_lost;
      ++pending_.events;
      if (detail) {
        detail_span(t.dst_pid, "lost", start, start, t.src_pid, t.items);
      }
      continue;
    }
    const double r = tree_->processor_r(t.dst_pid);
    const double lambda =
        destination_costs_ ? destination_costs_->factor(t.src_pid, t.dst_pid)
                           : 1.0;
    const double recv_slow = fault_slow(t.dst_pid, start);
    if (recv_slow != 1.0) ++pending_.slowdown_hits;
    const double busy =
        (params_.o_recv * r + params_.recv_ratio * tree_->g() * r * lambda *
                                  static_cast<double>(t.items)) *
        load_factor(t.dst_pid) * recv_slow;
    clock_[slot] = start + busy;
    pending_.events += 2;
    if (detail) {
      detail_span(t.dst_pid, "recv", start, clock_[slot], t.src_pid, t.items);
    }
  }
  if (tracing) {
    recorder.record_span(
        span_track_name, "receives", obs::SpanKind::kMessageBatch,
        obs::Timebase::kVirtual, sends_end, scope_clock_max(),
        {{"delivered", static_cast<std::int64_t>(pending_.messages_delivered -
                                                 delivered_before)}});
  }

  // 4. Shared-medium throughput bound per crossed network, measured from the
  //    plan's start, over the occupancy accumulated in step 2 (including
  //    every retry). Networks touched by this plan are inside its scope, so
  //    the per-plan sum within this phase is the right aggregate.
  timing.work_end = 0.0;
  for (int pid = first; pid < last; ++pid) {
    const auto slot = static_cast<std::size_t>(pid);
    if (dead_at(pid, clock_[slot])) continue;
    timing.work_end = std::max(timing.work_end, clock_[slot]);
  }
  timing.wire_end = timing.start;
  for (const std::size_t net_slot : net_touched_) {
    timing.wire_end =
        std::max(timing.wire_end, timing.start + net_busy_[net_slot]);
    net_busy_[net_slot] = 0.0;  // leave the scratch clean for the next plan
  }
  net_touched_.clear();

  // 5. Barrier: everyone in scope jumps to the common exit time. A dropped,
  //    not-yet-excluded member stalls the scope: survivors wait the failure
  //    detector's timeout (a multiple of the expected superstep span) before
  //    excluding the corpse and moving on.
  const double barrier_enter = std::max(timing.work_end, timing.wire_end);
  const double L = tree_->sync_L(plan.sync_scope);
  timing.barrier_exit = barrier_enter + L;
  ++pending_.barriers;
  if (faults_ != nullptr && faults_->has_drops()) {
    bool newly_dropped = false;
    for (int pid = first; pid < last; ++pid) {
      if (excluded_[static_cast<std::size_t>(pid)]) continue;
      if (faults_->drop_time(pid) <= barrier_enter) newly_dropped = true;
    }
    if (newly_dropped) {
      ++pending_.barrier_stalls;
      timing.barrier_exit =
          timing.start + params_.failure_detector_multiple *
                             (barrier_enter - timing.start + L);
      for (int pid = first; pid < last; ++pid) {
        const auto slot = static_cast<std::size_t>(pid);
        if (excluded_[slot] || faults_->drop_time(pid) > barrier_enter) {
          continue;
        }
        excluded_[slot] = 1;
        pending_.excluded_pids.push_back(pid);
        ++pending_.events;
        if (detail) {
          detail_span(pid, "drop", timing.barrier_exit, timing.barrier_exit,
                      -1, 0);
        }
        // The corpse's clock freezes at its last sign of life.
        clock_[slot] = std::min(clock_[slot], faults_->drop_time(pid));
      }
    }
  }
  for (int pid = first; pid < last; ++pid) {
    const auto slot = static_cast<std::size_t>(pid);
    if (dead_at(pid, clock_[slot])) continue;  // the dead do not synchronise
    pending_.events += 2;
    if (detail) {
      detail_span(pid, "wait", clock_[slot], timing.barrier_exit, -1, 0);
    }
    clock_[slot] = timing.barrier_exit;
  }
  if (tracing) {
    recorder.record_span(
        span_track_name, "barrier", obs::SpanKind::kBarrier,
        obs::Timebase::kVirtual, barrier_enter, timing.barrier_exit,
        {{"stalled", pending_.barrier_stalls > stalls_before ? 1 : 0}});
    recorder.end_span(timing.barrier_exit, {{"ghost", 0}});
  }
  pending_.plan_wire_seconds.push_back(plan_wire_seconds);
  pending_.plan_span_seconds.push_back(timing.barrier_exit - timing.start);
  return timing;
}

}  // namespace hbsp::sim
