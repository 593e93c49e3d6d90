#pragma once
// Memoized scenario simulation: the simulator half of the scenario-throughput
// layer (the planner half is coll::PlanCache).
//
// Sweeps repeat scenarios heavily: every warm perf_snapshot repetition
// re-simulates the identical (machine, schedule, params, faults) tuple, the
// chaos grid's two placements per cell recur across reps, and svc serves the
// same popular scenarios over and over. ScenarioCache memoizes
//
//   (machine fingerprint, schedule fingerprint, params fingerprint,
//    fault-plan fingerprint)  →  (makespan, the run's sim::RunMetrics)
//
// on the same util::Memo as PlanCache, so hit/miss counters are a pure
// function of the distinct scenarios requested at any thread count. A
// request served from another request's entry simulates nothing, so it
// records no simulator spans; comparative trace runs keep their scenarios
// distinct.
//
// Where the schedule fingerprint comes from: a memoized plan
// (coll::CachedPlan) carries its own, hashed on first use and kept, so the
// sweeps and svc, which simulate plans, key a lookup without touching the
// schedule; an ad-hoc CommSchedule is hashed on every lookup. Both
// overloads fill one ScenarioKey the same way, and a plan's fingerprint
// equals its schedule's, so a plan and its raw schedule share one entry.
//
// Observability invariant: a hit writes the builder's captured run record
// (sim::RunMetrics) into obs::Registry::global() through sim::add_to_registry,
// the same function the simulator flushes with, so every counter and
// histogram in the sim.* family ends up exactly as if the scenario had been
// re-simulated. Registry totals therefore depend only on the multiset
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

#include "collectives/plan_cache.hpp"
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

/// What one simulated scenario produced: the makespan plus the run's record,
/// kept so hits can write it into the registry again.
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
  /// A hit writes the captured run record into the global registry; a miss
  /// simulates (the simulator writes its own record as usual).
  /// Concurrent requests for the same key block until the builder finishes.
  double makespan(const MachineTree& tree, const CommSchedule& schedule,
                  const sim::SimParams& params,
                  const faults::FaultInjector* injector = nullptr);

  /// The same scenario for a memoized plan, keyed on plan.fingerprint()
  /// instead of re-hashing plan.schedule: same entry, same makespan.
  double makespan(const MachineTree& tree, const coll::CachedPlan& plan,
                  const sim::SimParams& params,
                  const faults::FaultInjector* injector = nullptr);

  /// Drops every completed entry (builds in flight finish normally).
  void clear() { memo_.clear(); }

  [[nodiscard]] std::size_t size() const { return memo_.size(); }

 private:
  /// Both makespan() overloads: `schedule_fingerprint` is
  /// schedule.fingerprint(), however the caller came by it.
  double keyed_makespan(const MachineTree& tree, const CommSchedule& schedule,
                        std::uint64_t schedule_fingerprint,
                        const sim::SimParams& params,
                        const faults::FaultInjector* injector);

  util::Memo<ScenarioKey, ScenarioResult> memo_;
};

}  // namespace hbsp::exp
