#pragma once
// Memoized scenario simulation: the simulator half of the scenario-throughput
// layer (the planner half is coll::PlanCache).
//
// Profiling the figure sweeps shows the discrete-event simulation dominating
// each cell (~3/4 of cell time), and sweeps repeat scenarios heavily: every
// warm perf_snapshot repetition re-simulates the identical (machine,
// schedule, params, faults) tuple, and the chaos grid's two placements per
// cell recur across reps. ScenarioCache memoizes
//
//   (machine fingerprint, schedule fingerprint, params fingerprint,
//    fault-plan fingerprint)  →  (makespan, captured sim.* metrics)
//
// on the same util::Memo as PlanCache, so hit/miss counters are a pure
// function of the distinct scenarios requested at any thread count. A
// request served from another request's entry simulates nothing, so it
// records no simulator spans; comparative trace runs keep their scenarios
// distinct.
//
// Observability invariant: a hit replays the builder's captured RunMetrics
// into obs::Registry::global() (sim::replay_run_metrics), so every counter
// and histogram in the sim.* family ends up exactly as if the scenario had
// been re-simulated. Registry totals therefore depend only on the multiset
// of scenarios requested — never on which requests were hits — which is what
// lets the perf gate keep exact-matching counters while warm wall time
// drops.
//
// The cache is sound because the simulator is a pure function of the four
// fingerprinted inputs: ClusterSim::run resets all state first, and every
// random draw (load factors, message loss) is keyed by seeds inside
// SimParams / FaultPlan that the fingerprints cover.

#include <cstddef>
#include <cstdint>

#include "core/machine.hpp"
#include "core/schedule.hpp"
#include "faults/injector.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/sim_params.hpp"
#include "util/memo.hpp"

namespace hbsp::exp {

/// Identity of one simulation scenario. All four components are stable
/// 64-bit content hashes; `fault_fingerprint` also encodes whether an
/// injector was attached at all.
struct ScenarioKey {
  std::uint64_t tree_fingerprint = 0;
  std::uint64_t schedule_fingerprint = 0;
  std::uint64_t params_fingerprint = 0;
  std::uint64_t fault_fingerprint = 0;

  friend auto operator<=>(const ScenarioKey&, const ScenarioKey&) = default;
};

/// What one simulated scenario produced: the makespan plus the run's entire
/// obs-registry contribution, kept so hits can replay it.
struct ScenarioResult {
  double makespan = 0.0;
  sim::RunMetrics metrics;
};

class ScenarioCache {
 public:
  /// The process-wide cache behind exp::simulate_makespan. clear() it at
  /// workload boundaries when cold timings matter.
  static ScenarioCache& global();

  /// The memoized makespan of the scenario, simulating on first use.
  /// A hit replays the captured sim.* metrics into the global registry; a
  /// miss simulates (the simulator flushes its own metrics as usual).
  /// Concurrent requests for the same key block until the builder finishes.
  double makespan(const MachineTree& tree, const CommSchedule& schedule,
                  const sim::SimParams& params,
                  const faults::FaultInjector* injector = nullptr);

  /// Drops every completed entry (builds in flight finish normally).
  void clear() { memo_.clear(); }

  [[nodiscard]] std::size_t size() const { return memo_.size(); }

 private:
  util::Memo<ScenarioKey, ScenarioResult> memo_;
};

}  // namespace hbsp::exp
