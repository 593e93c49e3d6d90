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
//
// What a run reports: its SimResult (timings), one RunMetrics record (every
// count, the exclusion list and the histogram samples, written into the obs
// registry by add_to_registry and nowhere else), per-network NetworkStats,
// and — when obs::TraceRecorder::global() is enabled — virtual spans per
// phase, superstep, message batch and barrier. Constructed with
// record_events, it also records the per-processor timeline on
// `<context>/p<pid>` tracks (all SpanKind::kOther, args `peer` and `items`;
// peer is -1 where there is none):
//
//   compute, send (one per attempt), recv, wait (barrier enter -> exit)
//   arrival, lost, retry, drop          zero-length, at the moment they occur
//   slowdown                            each fault window, once per run;
//                                       items = factor x 1000
//
// sim.events counts the simulated moments behind the first two rows: 2 per
// duration span, 1 per zero-length span. Fault windows are plan inputs, not
// events, so they count in neither mode.

#include <cstdint>
#include <vector>

#include "core/dest_costs.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"
#include "faults/injector.hpp"
#include "sim/network.hpp"
#include "sim/sim_params.hpp"

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

/// The simulator's one per-run record: what the run since the last reset()
/// did, as counts, the failure detector's exclusions, and the samples behind
/// the sim.* histograms. The sample lists hold the recorded values verbatim,
/// so writing a captured record again (a scenario-cache hit) reproduces
/// bucket counts, sums and min/max bit-exactly.
struct RunMetrics {
  std::size_t runs = 0;
  std::size_t phases = 0;
  std::size_t plans = 0;
  std::size_t ghost_plans = 0;     ///< scopes where every member had died
  std::size_t send_attempts = 0;   ///< includes every retry
  std::size_t messages_delivered = 0;
  std::size_t messages_lost = 0;   ///< on the wire or with a dead receiver
  std::size_t retries = 0;         ///< re-sends after a loss timeout
  std::size_t barriers = 0;
  std::size_t barrier_stalls = 0;  ///< barriers stretched by the detector
  std::size_t slowdown_hits = 0;   ///< busy periods inside a fault window
  std::size_t events = 0;          ///< simulated moments (file comment)
  /// Processors the detector excluded, in exclusion order; its length is
  /// sim.machines_excluded.
  std::vector<int> excluded_pids;
  std::vector<double> plan_wire_seconds;  ///< wire occupancy per plan
  std::vector<double> plan_span_seconds;  ///< start -> barrier exit per plan
  std::vector<double> run_makespan_seconds;
};

/// Writes `metrics` into obs::Registry::global(): each count to its sim.*
/// counter, each sample to its histogram. The only place the sim.* names
/// are spelled, so a simulated run and a replayed capture write alike and
/// registry totals depend only on which runs contributed.
void add_to_registry(const RunMetrics& metrics);

class ClusterSim {
 public:
  /// Validates `params`; `record_events` adds the per-processor spans (see
  /// the file comment) whenever the global trace recorder is enabled.
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
  /// Clears the exclusions and the loss and retry counts for the next run.
  void set_fault_injector(const faults::FaultInjector* injector);

  /// Runs a validated schedule from time zero (resets state first).
  SimResult run(const CommSchedule& schedule);

  /// Incremental mode for the runtime engine: executes one phase against the
  /// current clocks, writes its part of the record into the registry, and
  /// returns its timings.
  std::vector<PlanTiming> execute_phase(const Phase& phase);

  /// Zeroes all clocks and statistics, and records the fault plan's
  /// slowdown windows when per-processor spans are on.
  void reset();

  /// Current virtual time of one processor.
  [[nodiscard]] double now(int pid) const;

  /// Latest virtual time over all processors.
  [[nodiscard]] double makespan() const;

  [[nodiscard]] const Network& network() const noexcept { return network_; }
  [[nodiscard]] const MachineTree& tree() const noexcept { return *tree_; }
  [[nodiscard]] const SimParams& params() const noexcept { return params_; }

  /// The record since the last reset(): of the last run(), or of the
  /// phases executed so far. Everything in it is already in the registry;
  /// add_to_registry(run_metrics()) repeats the contribution.
  [[nodiscard]] const RunMetrics& run_metrics() const noexcept {
    return run_metrics_;
  }

 private:
  /// One phase into `pending_`, without committing it.
  std::vector<PlanTiming> simulate_phase(const Phase& phase);

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

  /// Writes `pending_` into the registry, merges it into `run_metrics_`
  /// and empties it. Called once per run() and once per incremental
  /// execute_phase(), so the per-message path only bumps fields and each
  /// writing thread flushes into its own registry shard.
  void commit();

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
  bool record_events_;
  std::vector<double> clock_;
  std::vector<MachineId> route_scratch_;
  const DestinationCosts* destination_costs_ = nullptr;
  const faults::FaultInjector* faults_ = nullptr;
  std::size_t plan_counter_ = 0;
  std::vector<char> excluded_;    ///< per pid: detector has excluded it
  RunMetrics run_metrics_;  ///< committed so far (see run_metrics())
  RunMetrics pending_;      ///< simulated but not yet committed
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
