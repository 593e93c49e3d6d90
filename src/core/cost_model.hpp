#pragma once
// The HBSP^k cost model (§3.4).
//
// The execution time of super^i-step λ is
//
//     T_i(λ) = w_i + g·h + L_{i,j}
//
// where w_i is the largest local computation by a participant, h is the size
// of the *heterogeneous h-relation* h = max_j { r_{i,j} · h_{i,j} } with
// h_{i,j} the largest number of items sent or received by M_{i,j}, and
// L_{i,j} the barrier cost of the synchronised subtree. The overall cost of a
// schedule is the sum of its superstep times.

#include <cstddef>
#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/schedule.hpp"

namespace hbsp {

/// Priced components of one superstep.
struct SuperstepCost {
  double w = 0.0;   ///< computation term, seconds
  double h = 0.0;   ///< heterogeneous h-relation, items
  double gh = 0.0;  ///< communication term g·h, seconds
  double L = 0.0;   ///< synchronisation term, seconds

  [[nodiscard]] double total() const noexcept { return w + gh + L; }
};

/// Priced phase: the concurrent plans' costs; the phase costs their maximum.
struct PhaseCost {
  std::vector<SuperstepCost> plans;

  [[nodiscard]] double total() const noexcept {
    double worst = 0.0;
    for (const auto& p : plans) worst = std::max(worst, p.total());
    return worst;
  }
};

/// Priced schedule: phases are sequential, so the total is their sum.
struct ScheduleCost {
  std::vector<PhaseCost> phases;

  [[nodiscard]] double total() const noexcept {
    double sum = 0.0;
    for (const auto& p : phases) sum += p.total();
    return sum;
  }
};

class DestinationCosts;

/// Prices SuperstepPlans/CommSchedules against a machine.
class CostModel {
 public:
  /// `seconds_per_op` converts ComputeWork ops into time for the fastest
  /// machine; a negative value (the default) uses g, i.e. one op costs the
  /// same as injecting one item.
  explicit CostModel(const MachineTree& tree, double seconds_per_op = -1.0);

  /// Enables the §6 destination-cost extension: items are weighted by
  /// λ(src,dst) inside the h-relation. The object must outlive this model.
  /// Passing nullptr restores the base model.
  void set_destination_costs(const DestinationCosts* costs) noexcept {
    destination_costs_ = costs;
  }

  /// h = max_j { r_j · max(items sent by j, items received by j) } over the
  /// step's processors (self-sends excluded, as in the implementation the
  /// paper measures — §5.2 "a processor does not send data to itself").
  /// With destination costs enabled, each item is weighted by λ(src,dst).
  /// Sums into a per-thread table and reads back only the step's endpoints
  /// (or its pid span, when that is the shorter list), so it costs
  /// O(transfers) however wide the span, allocates nothing once the
  /// thread's table has grown to p, and is safe to call from many threads
  /// at once. Throws std::out_of_range for a bad pid outside a self-send.
  [[nodiscard]] double h_relation(const SuperstepPlan& step) const;

  /// Full §3.4 pricing of one superstep.
  [[nodiscard]] SuperstepCost cost(const SuperstepPlan& step) const;

  /// Sum over supersteps.
  [[nodiscard]] ScheduleCost cost(const CommSchedule& schedule) const;

  [[nodiscard]] const MachineTree& tree() const noexcept { return *tree_; }
  [[nodiscard]] double seconds_per_op() const noexcept { return seconds_per_op_; }

 private:
  const MachineTree* tree_;
  double seconds_per_op_;
  const DestinationCosts* destination_costs_ = nullptr;
};

}  // namespace hbsp
