#pragma once
// The paper's §5 experimental protocol, reused by the bench binaries and the
// integration tests.
//
// Experiments sweep p = 2..10 workstations of the stand-in testbed and
// problem sizes of 100..1000 KBytes of uniformly distributed integers, and
// report *improvement factors* T_A/T_B between two configurations of the
// same collective:
//
//   Fig 3(a)  gather:    T_s/T_f — root slowest vs root fastest, equal shares
//   Fig 3(b)  gather:    T_u/T_b — equal shares vs BYTEmark-balanced shares,
//                                  root fastest
//   Fig 4(a)  broadcast: T_s/T_f — two-phase, root slowest vs fastest
//   Fig 4(b)  broadcast: T_u/T_b — equal vs balanced phase-1 pieces
//
// Times come from the deterministic cluster simulator. Balanced shares use
// c_j estimated from a simulated BYTEmark run (with measurement noise, as on
// the paper's non-dedicated cluster), not the true r values.
//
// Every cell of every sweep, and of the chaos grid (chaos.hpp), is one
// improvement_factor call. All four sweeps execute on a caller-owned
// SweepRunner (sweep.hpp): grid cells are independent, so they shard across
// the runner's workers, and each cell's BYTEmark noise stream is split from
// `noise.seed` (the master seed) by the cell's grid position — the table is
// bit-identical at any thread count.

#include <cstddef>
#include <vector>

#include "bytemark/ranking.hpp"
#include "collectives/plan_cache.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"
#include "experiments/sweep.hpp"
#include "faults/injector.hpp"
#include "sim/sim_params.hpp"
#include "util/table.hpp"

namespace hbsp::exp {

/// Sweep configuration; defaults mirror §5.1.
struct FigureConfig {
  std::vector<int> processors = {2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<std::size_t> kbytes = {100, 200, 300, 400, 500,
                                     600, 700, 800, 900, 1000};
  sim::SimParams sim;
  /// `noise.seed` is the sweep's master seed; each cell derives its own
  /// stream from it via util::split_seed.
  bytemark::NoiseOptions noise{.stddev = 0.05, .seed = 2001};
  double g = 1e-6;
  double L = 2e-3;
};

/// Simulated makespan of a schedule on a machine, optionally with a fault
/// injector attached (nullptr runs fault-free). Served through
/// exp::ScenarioCache::global(): the first request for a (machine, schedule,
/// params, fault plan) scenario simulates; repeats return the memoized
/// makespan and replay the identical sim.* registry contribution.
[[nodiscard]] double simulate_makespan(
    const MachineTree& tree, const CommSchedule& schedule,
    const sim::SimParams& params,
    const faults::FaultInjector* injector = nullptr);

/// The same for a memoized plan: keyed on plan.fingerprint(), so a repeat
/// lookup does not re-hash the schedule. Shares its entry with the
/// CommSchedule form called on plan.schedule.
[[nodiscard]] double simulate_makespan(
    const MachineTree& tree, const coll::CachedPlan& plan,
    const sim::SimParams& params,
    const faults::FaultInjector* injector = nullptr);

/// The first p testbed machines with workload fractions re-estimated from a
/// noisy simulated BYTEmark run (true r values, estimated c values) — the
/// machine description a practitioner following §5.1 would actually have.
/// `noise` is the per-cell stream inside sweeps, config.noise elsewhere.
[[nodiscard]] MachineTree make_ranked_testbed(
    int p, const FigureConfig& config, const bytemark::NoiseOptions& noise);

/// One experiment cell: T_numerator / T_denominator, the simulated makespans
/// of two plans of one collective on `tree`. Both plans come from
/// coll::PlanCache::global() and both runs from simulate_makespan, with
/// `injector` (nullptr: fault-free) attached to each.
[[nodiscard]] double improvement_factor(
    const MachineTree& tree, const coll::PlanRequest& numerator,
    const coll::PlanRequest& denominator, const sim::SimParams& params,
    const faults::FaultInjector* injector = nullptr);

// The four figure sweeps run on a caller-owned runner (and its pool), so
// benches observe its counters and amortise thread startup across sweeps.
[[nodiscard]] ImprovementTable gather_root_experiment(const FigureConfig& config,
                                                      SweepRunner& runner);
[[nodiscard]] ImprovementTable gather_balance_experiment(
    const FigureConfig& config, SweepRunner& runner);
[[nodiscard]] ImprovementTable broadcast_root_experiment(
    const FigureConfig& config, SweepRunner& runner);
[[nodiscard]] ImprovementTable broadcast_balance_experiment(
    const FigureConfig& config, SweepRunner& runner);

}  // namespace hbsp::exp
