#pragma once
// BSP-style baselines: the homogeneous-model algorithms the paper's
// heterogeneity-aware collectives are measured against (§5's T_s and T_u
// configurations, and classic BSP defaults).
//
// A BSP program assumes identical processors: data splits equally and the
// root is arbitrary (processor 0 here). On a heterogeneous machine this is
// exactly the paper's "unbalanced workload" configuration.

#include <cstddef>

#include "collectives/planners.hpp"

namespace hbsp::coll::bsp {

/// Gather with equal shares to processor 0.
[[nodiscard]] inline CommSchedule plan_gather(const MachineTree& tree,
                                              std::size_t n) {
  return coll::plan_gather(tree, n, {.root_pid = 0, .shares = Shares::kEqual});
}

/// Two-phase broadcast from processor 0 with equal pieces.
[[nodiscard]] inline CommSchedule plan_broadcast(const MachineTree& tree,
                                                 std::size_t n) {
  return coll::plan_broadcast(tree, n,
                              {.root_pid = 0,
                               .top_phase = TopPhase::kTwoPhase,
                               .shares = Shares::kEqual});
}

}  // namespace hbsp::coll::bsp
