#pragma once
// Collective-communication planners (§4).
//
// A planner turns (machine, n, options) into a CommSchedule following the
// paper's two design rules: the fastest machines coordinate, and machines
// receive data in proportion to their abilities. The schedules are priced by
// CostModel (matching the closed forms in core/analysis exactly) and executed
// either by the cluster simulator directly or by the SPMD executors in
// executors.hpp.
//
// gather, broadcast, scatter and reduce generalise to any k by recursing over
// the machine tree (the paper gives k <= 2 and notes "one can generalize the
// approach given here"); allgather has a flat total exchange and a tree form;
// scan and alltoall ([20]) are single-cluster (HBSP^1) algorithms. Every
// planner reads its per-processor shares (leaf_shares), its root
// (normalize_root) and its endpoints (cluster_target, data_site) from
// core/analysis, the same helpers the closed forms use; they are re-exported
// here.

#include <cstddef>

#include "core/analysis.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"

namespace hbsp::coll {

using analysis::cluster_target;
using analysis::data_site;
using analysis::leaf_shares;
using analysis::normalize_root;
using analysis::Shares;
using analysis::TopPhase;

/// Options shared by the rooted collectives. root_pid < 0 selects the
/// machine's coordinator (its fastest processor), the paper's default; a
/// pid outside the machine is rejected (normalize_root).
struct RootedOptions {
  int root_pid = -1;
  Shares shares = Shares::kBalanced;
};

/// Options for broadcast: the top-level strategy is one- or two-phase
/// (§4.4); lower levels always run the two-phase algorithm. `shares` controls
/// the two-phase scatter split (§5.3: the analysis also holds for c_j·n).
struct BroadcastOptions {
  int root_pid = -1;
  TopPhase top_phase = TopPhase::kTwoPhase;
  Shares shares = Shares::kEqual;
};

/// Gather n items (distributed per `shares`) to the root processor. One
/// phase per tree level, bottom-up; clusters gather concurrently (§4.2/4.3).
[[nodiscard]] CommSchedule plan_gather(const MachineTree& tree, std::size_t n,
                                       const RootedOptions& options = {});

/// Broadcast n items from the root processor to every processor. Top-level
/// one- or two-phase super^k-step(s), then two-phase within every cluster,
/// top-down (§4.4).
[[nodiscard]] CommSchedule plan_broadcast(const MachineTree& tree, std::size_t n,
                                          const BroadcastOptions& options = {});

/// Scatter n items from the root processor: each processor ends with its
/// share (mirror of gather, top-down).
[[nodiscard]] CommSchedule plan_scatter(const MachineTree& tree, std::size_t n,
                                        const RootedOptions& options = {});

/// HBSP^1 all-gather (total exchange of shares) within a flat machine.
[[nodiscard]] CommSchedule plan_allgather(const MachineTree& tree, std::size_t n,
                                          Shares shares = Shares::kBalanced);


/// HBSP^k all-gather: a gather to the machine's coordinator followed by a
/// broadcast back out (the standard hierarchical composition — a flat total
/// exchange would flood the upper networks with p·(p−1) messages, this sends
/// one stream up and one down per cluster). `shares` governs the gather
/// split; the broadcast runs two-phase with equal pieces.
[[nodiscard]] CommSchedule plan_allgather_tree(const MachineTree& tree,
                                               std::size_t n,
                                               Shares shares = Shares::kBalanced);

/// HBSP^k reduction: local combines, then 1-item partials flow up the tree
/// one level per phase (each cluster combining concurrently under its own
/// barrier), ending with the root target's final combine. On a flat machine
/// this is the HBSP^1 reduce's two supersteps: local combine with 1-item
/// partials to the root, then the root's combine. A processor's local
/// combine is charged in the first phase its cluster participates in; a
/// coordinator's combine of its cluster's partials is charged in the next
/// phase up (it can only fold what the barrier delivered).
[[nodiscard]] CommSchedule plan_reduce_tree(const MachineTree& tree,
                                            std::size_t n,
                                            const RootedOptions& options = {});

/// HBSP^1 scan (prefix sums): local prefix, partials to the coordinator,
/// offsets back, local apply.
[[nodiscard]] CommSchedule plan_scan(const MachineTree& tree, std::size_t n,
                                     Shares shares = Shares::kBalanced);

/// HBSP^1 all-to-all personalised exchange: each processor splits its share
/// into m blocks and sends block i to member i.
[[nodiscard]] CommSchedule plan_alltoall(const MachineTree& tree, std::size_t n,
                                         Shares shares = Shares::kBalanced);

namespace detail {
/// Throws std::invalid_argument unless the tree is flat (every child of the
/// root is a processor) — the HBSP^1 shape the single-cluster planners need.
void require_flat(const MachineTree& tree, const char* who);
}  // namespace detail

}  // namespace hbsp::coll
