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
  // The step's pid span and endpoint count, self-sends excluded.
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  std::size_t endpoints = 0;
  for (const auto& t : step.transfers) {
    if (t.src_pid == t.dst_pid) continue;
    lo = std::min({lo, t.src_pid, t.dst_pid});
    hi = std::max({hi, t.src_pid, t.dst_pid});
    endpoints += 2;
  }
  if (lo > hi) return 0.0;
  // Reject bad pids, the machine's and a λ table's (lo < hi here), before
  // the table below is touched: a throw from the summing loop would leave
  // it dirty for this thread's later calls.
  (void)tree_->processor_r(lo);
  (void)tree_->processor_r(hi);
  const bool weighted =
      destination_costs_ != nullptr && !destination_costs_->is_uniform();
  if (weighted) (void)destination_costs_->factor(lo, hi);

  // Per-processor sent/received volumes, summed in transfer order into a
  // per-thread table indexed by pid; with the §6 extension enabled, each
  // transfer's items are weighted by λ(src,dst). The table grows to the
  // largest machine this thread prices and is all zeros between calls: a
  // step adds into its endpoints' entries only, and reading an entry back
  // zeroes it.
  thread_local std::vector<double> table;  // [2·pid] out, [2·pid + 1] in
  const auto slots = 2 * static_cast<std::size_t>(tree_->num_processors());
  if (table.size() < slots) table.resize(slots, 0.0);
  double* traffic = table.data();
  for (const auto& t : step.transfers) {
    if (t.src_pid == t.dst_pid) continue;
    const double weight =
        weighted ? destination_costs_->factor(t.src_pid, t.dst_pid) : 1.0;
    const double volume = weight * static_cast<double>(t.items);
    traffic[2 * static_cast<std::size_t>(t.src_pid)] += volume;
    traffic[2 * static_cast<std::size_t>(t.dst_pid) + 1] += volume;
  }
  double h = 0.0;
  const auto take = [&](int pid) {
    double* volumes = traffic + 2 * static_cast<std::size_t>(pid);
    h = std::max(h, tree_->processor_r(pid) * std::max(volumes[0], volumes[1]));
    volumes[0] = 0.0;
    volumes[1] = 0.0;
  };
  // Read back by pid over the span when it is no wider than the endpoint
  // list, else by endpoint: O(transfers) however wide the span. An endpoint
  // met again reads the zeros its first reading left, which cannot raise h.
  if (static_cast<std::size_t>(hi - lo) < endpoints) {
    for (int pid = lo; pid <= hi; ++pid) take(pid);
  } else {
    for (const auto& t : step.transfers) {
      if (t.src_pid == t.dst_pid) continue;
      take(t.src_pid);
      take(t.dst_pid);
    }
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
