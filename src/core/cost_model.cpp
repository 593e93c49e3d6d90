#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/dest_costs.hpp"

namespace hbsp {

CostModel::CostModel(const MachineTree& tree, double seconds_per_op)
    : tree_(&tree),
      seconds_per_op_(seconds_per_op < 0.0 ? tree.g() : seconds_per_op) {}

double CostModel::h_relation(const SuperstepPlan& step) const {
  // Accumulate per-processor sent/received volumes in a dense table over the
  // step's pid span; with the §6 extension enabled, each transfer's items
  // are weighted by λ(src,dst). The span lies inside the step's sync scope,
  // so pricing a phase touches each processor at most once.
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (const auto& t : step.transfers) {
    if (t.src_pid == t.dst_pid) continue;
    lo = std::min({lo, t.src_pid, t.dst_pid});
    hi = std::max({hi, t.src_pid, t.dst_pid});
  }
  if (lo > hi) return 0.0;
  // Reject bad pids before sizing the table by them.
  (void)tree_->processor_r(lo);
  (void)tree_->processor_r(hi);

  const bool weighted =
      destination_costs_ != nullptr && !destination_costs_->is_uniform();
  const auto span = static_cast<std::size_t>(hi - lo) + 1;
  std::vector<double> traffic(2 * span, 0.0);  // [2i] out, [2i + 1] in
  for (const auto& t : step.transfers) {
    if (t.src_pid == t.dst_pid) continue;
    const double weight =
        weighted ? destination_costs_->factor(t.src_pid, t.dst_pid) : 1.0;
    const double volume = weight * static_cast<double>(t.items);
    traffic[2 * static_cast<std::size_t>(t.src_pid - lo)] += volume;
    traffic[2 * static_cast<std::size_t>(t.dst_pid - lo) + 1] += volume;
  }
  double h = 0.0;
  for (std::size_t i = 0; i < span; ++i) {
    const double h_j = std::max(traffic[2 * i], traffic[2 * i + 1]);
    h = std::max(h, tree_->processor_r(lo + static_cast<int>(i)) * h_j);
  }
  return h;
}

SuperstepCost CostModel::cost(const SuperstepPlan& step) const {
  SuperstepCost priced;
  for (const auto& work : step.compute) {
    priced.w = std::max(
        priced.w, work.ops * tree_->processor_compute_r(work.pid) * seconds_per_op_);
  }
  priced.h = h_relation(step);
  priced.gh = tree_->g() * priced.h;
  priced.L = tree_->sync_L(step.sync_scope);
  return priced;
}

ScheduleCost CostModel::cost(const CommSchedule& schedule) const {
  ScheduleCost priced;
  priced.phases.reserve(schedule.phases.size());
  for (const auto& phase : schedule.phases) {
    PhaseCost& pc = priced.phases.emplace_back();
    pc.plans.reserve(phase.plans.size());
    for (const auto& plan : phase.plans) pc.plans.push_back(cost(plan));
  }
  return priced;
}

}  // namespace hbsp
