#pragma once
// Deterministic discrete-event simulation of an HBSP^k machine.
//
// This is the repository's substitute for the paper's physical testbed. It
// advances a virtual clock per processor through the phases of a
// CommSchedule:
//
//   1. local computation:      ops · compute_r · seconds_per_op
//   2. sends, in issue order:  (o_send + g·items) · r_src each, serialised at
//                              the sender; arrival = send end + latency(LCA)
//   3. receives, arrival order: (o_recv + recv_ratio·g·items) · r_dst each,
//                              serialised at the receiver after its own work
//   4. shared-medium bound:    each crossed network adds wire_per_item·items;
//                              the plan cannot complete before its start plus
//                              any network's total occupancy
//   5. barrier:                all scope processors jump to
//                              max(completions, wire bounds) + L_scope
//
// Self-sends cost nothing (§5.2: "a processor does not send data to itself").
// Everything is deterministic: ties in arrival order break by send issue
// sequence.

// When a faults::FaultInjector is attached (set_fault_injector), three
// disturbance classes perturb the run — transient slowdown windows multiply
// busy times like a time-varying r; lost send attempts are re-sent after an
// exponential-backoff timeout, each retry re-paying the sender overhead and
// wire occupancy; dropped machines stop computing and stall their barrier
// scope until the failure detector excludes them. With no injector (or an
// empty plan) every timing is bit-identical to the fault-free simulator.

#include <cstdint>
#include <vector>

#include "core/dest_costs.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"
#include "faults/injector.hpp"
#include "sim/network.hpp"
#include "sim/sim_params.hpp"
#include "sim/trace.hpp"

namespace hbsp::sim {

/// Timing of one executed plan within a phase.
struct PlanTiming {
  double start = 0.0;       ///< earliest participant clock at entry
  double work_end = 0.0;    ///< latest endpoint completion (pre-barrier)
  double wire_end = 0.0;    ///< latest shared-medium bound
  double barrier_exit = 0.0;
};

/// Result of running a whole schedule.
struct SimResult {
  double makespan = 0.0;                     ///< latest clock over all pids
  std::vector<double> phase_completion;      ///< per phase, max barrier exit
  std::vector<std::vector<PlanTiming>> plan_timings;  ///< [phase][plan]
};

/// Aggregate fault-injection outcomes of a run (all zero without faults).
struct FaultStats {
  std::size_t messages_lost = 0;  ///< send attempts that vanished on the wire
  std::size_t retries = 0;        ///< re-sends after a loss timeout
  std::size_t machines_excluded = 0;  ///< dropouts the detector excluded
};

/// Everything a run contributed to the global obs registry (the `sim.*`
/// counter and histogram family), captured alongside the SimResult so a
/// scenario-cache hit can replay the identical contribution without
/// re-simulating. Counter fields are deltas; the histogram fields hold the
/// recorded values verbatim, so replaying preserves bucket counts, sums, and
/// min/max bit-exactly.
struct RunMetrics {
  std::size_t runs = 0;
  std::size_t phases = 0;
  std::size_t plans = 0;
  std::size_t ghost_plans = 0;
  std::size_t send_attempts = 0;
  std::size_t messages_delivered = 0;
  std::size_t messages_lost = 0;
  std::size_t retries = 0;
  std::size_t machines_excluded = 0;
  std::size_t barriers = 0;
  std::size_t barrier_stalls = 0;
  std::size_t slowdown_hits = 0;
  std::size_t events = 0;
  std::vector<double> plan_wire_seconds;
  std::vector<double> plan_span_seconds;
  std::vector<double> run_makespan_seconds;
};

/// Adds `metrics` to obs::Registry::global() exactly as the run that
/// captured them did: same counters, same histogram samples, same values.
/// Registry totals are therefore a pure function of which runs (fresh or
/// replayed) contributed, not of which were cache hits.
void replay_run_metrics(const RunMetrics& metrics);

class ClusterSim {
 public:
  /// Validates `params`; `record_events` enables the full event trace.
  ClusterSim(const MachineTree& tree, SimParams params,
             bool record_events = false);

  /// Enables the §6 destination-cost extension in the substrate: per-item
  /// send and receive costs are scaled by λ(src,dst). The object must
  /// outlive the simulator; nullptr restores the base behaviour.
  void set_destination_costs(const DestinationCosts* costs) noexcept {
    destination_costs_ = costs;
  }

  /// Attaches a fault injector (see the class comment). The object must
  /// outlive the simulator; nullptr restores the fault-free behaviour.
  /// Resets fault state (exclusions, stats) for the next run.
  void set_fault_injector(const faults::FaultInjector* injector);

  /// Runs a validated schedule from time zero (resets state first).
  SimResult run(const CommSchedule& schedule);

  /// Incremental mode for the runtime engine: executes one phase against the
  /// current clocks and returns its timings.
  std::vector<PlanTiming> execute_phase(const Phase& phase);

  /// Zeroes all clocks, statistics and traces.
  void reset();

  /// Current virtual time of one processor.
  [[nodiscard]] double now(int pid) const;

  /// Latest virtual time over all processors.
  [[nodiscard]] double makespan() const;

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const Network& network() const noexcept { return network_; }
  [[nodiscard]] const MachineTree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const SimParams& params() const noexcept { return params_; }

  /// Processors the failure detector has excluded so far, in exclusion
  /// order. Cleared by reset(); empty without an injector.
  [[nodiscard]] const std::vector<int>& excluded_pids() const noexcept {
    return excluded_pids_;
  }

  /// Loss/retry/exclusion counters since the last reset().
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return fault_stats_;
  }

  /// The `sim.*` registry contribution accumulated since the last reset()
  /// (i.e. of the last run()). Feed to replay_run_metrics to repeat it.
  [[nodiscard]] const RunMetrics& run_metrics() const noexcept {
    return run_metrics_;
  }

 private:
  PlanTiming execute_plan(const SuperstepPlan& plan);

  /// One delivered message waiting for its receiver; its sender, size and
  /// §6 weight are read back from the plan's transfer at the drain. The
  /// drain visits receivers in pid order and each receiver's messages in
  /// (arrival time, issue seq) order; seq is unique per transfer within a
  /// plan, so that order is strict and does not depend on how the drain is
  /// computed.
  struct Arrival {
    double time;
    std::size_t seq;  ///< 1-based position of the transfer in its plan
    int dst;
  };

  /// Reorders `arrivals_` into `drain_` in the order above: a stable
  /// counting pass buckets arrivals by receiver over the scope [first,
  /// last), then each bucket is sorted by (time, seq). O(scope + arrivals
  /// log arrivals per receiver).
  void order_arrivals(int first, int last);

  /// Instrumentation accumulated while executing plans, flushed into
  /// obs::Registry::global() once per phase (the `sim.*` counter family).
  /// Local accumulation keeps the per-message hot path free of registry
  /// lookups and binds the flush to whichever thread runs the phase — each
  /// sweep worker writes its own shard, merged deterministically later.
  struct MetricsTally {
    std::size_t plans = 0;
    std::size_t ghost_plans = 0;       ///< scopes where every member had died
    std::size_t send_attempts = 0;     ///< includes every retry
    std::size_t messages_delivered = 0;
    std::size_t messages_lost = 0;
    std::size_t retries = 0;
    std::size_t machines_excluded = 0;
    std::size_t barriers = 0;
    std::size_t barrier_stalls = 0;    ///< barriers stretched by the detector
    std::size_t slowdown_hits = 0;     ///< busy periods inside a fault window
    std::size_t events_seen = 0;       ///< trace events already flushed
    std::vector<double> plan_wire_seconds;  ///< wire occupancy per plan
    std::vector<double> plan_span_seconds;  ///< start -> barrier exit per plan
  };

  void flush_metrics();

  /// Whether `pid` has dropped out by virtual time `at`.
  [[nodiscard]] bool dead_at(int pid, double at) const {
    return faults_ != nullptr && faults_->dropped_by(pid, at);
  }

  /// Fault slowdown multiplier of `pid` at time `at` (1.0 without faults).
  [[nodiscard]] double fault_slow(int pid, double at) const {
    return faults_ != nullptr ? faults_->slowdown_factor(pid, at) : 1.0;
  }

  /// Background-load slowdown of `pid` during the current superstep
  /// (log-normal, deterministic per load_seed/pid/superstep; 1.0 when the
  /// load model is off).
  [[nodiscard]] double load_factor(int pid) const;

  const MachineTree* tree_;
  SimParams params_;
  double seconds_per_op_;
  Network network_;
  Trace trace_;
  std::vector<double> clock_;
  std::vector<MachineId> route_scratch_;
  const DestinationCosts* destination_costs_ = nullptr;
  const faults::FaultInjector* faults_ = nullptr;
  std::size_t plan_counter_ = 0;
  std::vector<char> excluded_;    ///< per pid: detector has excluded it
  std::vector<int> excluded_pids_;
  FaultStats fault_stats_;
  MetricsTally tally_;
  RunMetrics run_metrics_;
  /// Per-plan arrival scratch, reused across plans (capacity survives):
  /// arrivals in issue order, the same reordered for the drain, and the
  /// per-receiver bucket bounds over the plan's scope.
  std::vector<Arrival> arrivals_;
  std::vector<Arrival> drain_;
  std::vector<std::size_t> bucket_end_;
  /// Dense per-network wire occupancy of the current plan, indexed by
  /// Network::slot; `net_touched_` lists the slots to reset afterwards.
  std::vector<double> net_busy_;
  std::vector<std::size_t> net_touched_;
};

}  // namespace hbsp::sim
