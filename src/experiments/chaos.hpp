#pragma once
// Chaos sweeps: the §5 improvement-factor experiments re-run under injected
// disturbances.
//
// The paper measures on a non-dedicated cluster and argues its advice is
// what a practitioner should follow there. The chaos sweep stress-tests that
// claim: it re-runs the Fig 3(a)/4(a) root-placement experiments while a
// seeded FaultPlan perturbs the machine — transient slowdown windows (the
// background load of a shared workstation pool) and message loss (re-sent
// with timeout/backoff) — over a fault-rate × loss-probability grid, and
// reports where the advisor's fault-free ordering *inverts* (T_s/T_f < 1:
// rooting at the nominally slowest machine became the better plan because
// chaos degraded the nominal fastest).
//
// Determinism contract: each grid cell derives its FaultPlan from
// util::split_seed(master_seed, cell index), so the whole table is
// bit-identical at any thread count — the property ci/check.sh pins.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/figures.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "sim/sim_params.hpp"
#include "util/table.hpp"

namespace hbsp::exp {

/// Axes and fixed parameters of a chaos sweep.
struct ChaosConfig {
  /// Expected slowdown windows per processor over the disturbance horizon.
  std::vector<double> fault_rates = {0.0, 1.0, 2.0, 4.0};
  /// Per-attempt message-loss probabilities.
  std::vector<double> loss_probs = {0.0, 0.01, 0.05, 0.10};
  int p = 6;                  ///< testbed size (fixed; the grid varies faults)
  std::size_t kbytes = 500;   ///< problem size (mid-range of the §5 sweeps)
  sim::SimParams sim;
  double g = 1e-6;
  double L = 2e-3;
  /// Window shape bounds (rate and loss are overwritten per cell; drops are
  /// disabled so every plan runs to completion). The horizon is matched to
  /// the experiments' ~0.1-0.3 s makespans so windows actually overlap the
  /// runs they disturb.
  faults::ChaosOptions disturbance{.horizon = 0.25,
                                   .slowdown_max_factor = 8.0,
                                   .slowdown_max_duration = 0.1};
  std::uint64_t master_seed = 7001;
  int threads = 1;  ///< sweep worker threads; < 1 uses the hardware count
};

/// T_s/T_f factors over the fault grid, [fault_rate][loss_prob].
struct ChaosTable {
  std::vector<double> fault_rates;
  std::vector<double> loss_probs;
  std::vector<std::vector<double>> gather_factor;     ///< Fig 3(a) under chaos
  std::vector<std::vector<double>> broadcast_factor;  ///< Fig 4(a) under chaos

  /// Cells where chaos inverted the fault-free ordering (factor < 1).
  [[nodiscard]] std::size_t gather_inversions() const noexcept;
  [[nodiscard]] std::size_t broadcast_inversions() const noexcept;

  /// One rendered table per collective.
  [[nodiscard]] util::Table to_table(const std::string& title,
                                     bool broadcast) const;
};

/// Renders the chaos table in the bench's CSV format: a
/// "collective,fault_rate,<loss...>" header, then one row per
/// (collective, fault rate) with 4-decimal factors. tests/golden pins this
/// exact text.
[[nodiscard]] std::string chaos_csv(const ChaosTable& table);

/// Writes chaos_csv(table) to `path` (RFC-4180, via util::CsvWriter).
void write_chaos_csv(const ChaosTable& table, const std::string& path);

/// Fig 3(a)/4(a) sweeps with a caller-supplied fault plan applied to every
/// cell (entries for pids outside a cell's machine are inert). With an empty
/// plan the tables equal gather_root_experiment / broadcast_root_experiment
/// bit for bit — the injection layer is cost-free when disabled.
[[nodiscard]] ImprovementTable gather_root_experiment_with_faults(
    const FigureConfig& config, const faults::FaultPlan& plan,
    SweepRunner& runner);
[[nodiscard]] ImprovementTable broadcast_root_experiment_with_faults(
    const FigureConfig& config, const faults::FaultPlan& plan,
    SweepRunner& runner);

/// Runs the chaos grid: each cell draws its FaultPlan from the master seed
/// and its grid position, then prices both root placements for gather and
/// broadcast under that shared disturbance.
[[nodiscard]] ChaosTable chaos_sweep(const ChaosConfig& config);
[[nodiscard]] ChaosTable chaos_sweep(const ChaosConfig& config,
                                     SweepRunner& runner);

}  // namespace hbsp::exp
