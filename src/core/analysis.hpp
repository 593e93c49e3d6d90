#pragma once
// Closed-form HBSP^k costs of the paper's collective operations (§4).
//
// These are derived independently from the schedule-based CostModel so tests
// can cross-check the two: for every algorithm, planner schedule priced by
// CostModel must equal the closed form here (exactly, same max() structure).
//
// Conventions follow §4: within a cluster the coordinator is the fastest
// machine (so its r is the cluster minimum), shares are either equal (n/m,
// the "unbalanced" heterogeneous case) or balanced (x_j = c_j·n), and a
// machine never sends to itself (§5.2). Per-processor shares come from
// leaf_shares and message endpoints from data_site, the helpers at the end of
// this header that the planners call too.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/dest_costs.hpp"
#include "core/machine.hpp"

namespace hbsp::analysis {

/// How a collective splits data over a cluster's members.
enum class Shares {
  kEqual,     ///< x_j = n/m for every member (homogeneous-style split)
  kBalanced,  ///< x_j = c_j·n (ability-proportional split, §3.3)
};

/// One priced superstep of a closed-form analysis.
struct StepCost {
  std::string label;
  double cost = 0.0;
};

/// A priced algorithm: per-superstep breakdown plus the total.
struct AlgoCost {
  std::vector<StepCost> steps;

  [[nodiscard]] double total() const noexcept {
    double sum = 0.0;
    for (const auto& s : steps) sum += s.cost;
    return sum;
  }
};

// --- §4.2: HBSP^1 gather ----------------------------------------------------

/// Gather n items to `root_pid` within `cluster` (one super^1-step):
/// g·max{ max_j r_j·x_j , r_root·(n − x_root) } + L. Passing kBalanced uses
/// x_j = c_j·n, which simplifies to gn + L when the root is the coordinator
/// (the paper's "HBSP^1 gather cost is gn + L_{1,0}").
[[nodiscard]] AlgoCost hbsp1_gather(const MachineTree& tree, MachineId cluster,
                                    int root_pid, std::size_t n, Shares shares);

// --- §4.3: HBSP^2 gather ----------------------------------------------------

/// Each level-1 cluster gathers its share to its coordinator (super^1-step,
/// cost = slowest cluster), then coordinators forward to the root coordinator
/// (super^2-step: g·max{ r_{1,j}·x_{1,j} , r_{2,0}·(n − x_root-cluster) } +
/// L_{2,0}).
[[nodiscard]] AlgoCost hbsp2_gather(const MachineTree& tree, std::size_t n,
                                    Shares shares);

// --- §4.4: HBSP^1 broadcast --------------------------------------------------

/// Two-phase (scatter + total exchange): gn(1 + r_{0,s}) + 2L in the paper's
/// simplified form; the exact max() form is returned. `shares` controls the
/// phase-1 split (§5.3 notes the analysis also holds when P_j receives c_j·n).
[[nodiscard]] AlgoCost hbsp1_broadcast_two_phase(const MachineTree& tree,
                                                 MachineId cluster, int root_pid,
                                                 std::size_t n, Shares shares);

/// One-phase: the root sends n items to every other member;
/// g·max{ r_root·n·(m−1), r_s·n } + L (the paper's gnm + L when the root's
/// fan-out dominates).
[[nodiscard]] AlgoCost hbsp1_broadcast_one_phase(const MachineTree& tree,
                                                 MachineId cluster, int root_pid,
                                                 std::size_t n);

// --- §4.4: HBSP^2 broadcast --------------------------------------------------

/// Top-level strategy for moving the n items across the level-2 network.
enum class TopPhase {
  kOnePhase,  ///< root coordinator sends n to every level-1 coordinator
  kTwoPhase,  ///< root scatters n/m_{2,0}, coordinators total-exchange
};

/// HBSP^2 broadcast: super^2-step(s) among level-1 coordinators per
/// `top_phase`, then every cluster runs the two-phase HBSP^1 broadcast
/// internally (cost of the slowest cluster).
[[nodiscard]] AlgoCost hbsp2_broadcast(const MachineTree& tree, std::size_t n,
                                       TopPhase top_phase);

// --- Crossovers ---------------------------------------------------------------

/// Smallest n in [1, n_max] where the two-phase HBSP^1 broadcast is at least
/// as cheap as the one-phase (the L term favours one-phase for small n);
/// nullopt if one-phase wins everywhere in range.
[[nodiscard]] std::optional<std::size_t> broadcast_crossover_n(
    const MachineTree& tree, MachineId cluster, int root_pid, std::size_t n_max);

/// Smallest n in [1, n_max] where the two-phase top level of the HBSP^2
/// broadcast beats the one-phase top level; nullopt if never in range.
[[nodiscard]] std::optional<std::size_t> hbsp2_broadcast_crossover_n(
    const MachineTree& tree, std::size_t n_max);

// --- Extra collectives ([20], §1 "additional HBSP^k collective algorithms") ---

/// Scatter from `root_pid` (mirror of gather):
/// g·max{ r_root·(n − x_root), max_j r_j·x_j } + L.
[[nodiscard]] AlgoCost hbsp1_scatter(const MachineTree& tree, MachineId cluster,
                                     int root_pid, std::size_t n, Shares shares);

/// All-gather (total exchange of shares): g·max_j r_j·max{ x_j·(m−1),
/// n − x_j } + L.
[[nodiscard]] AlgoCost hbsp1_allgather(const MachineTree& tree, MachineId cluster,
                                       std::size_t n, Shares shares);

/// Exclusive scan: local prefix (x_j ops), 1-item partials to the root, root
/// prefix over m partials, 1-item offsets back, local add (x_j ops).
[[nodiscard]] AlgoCost hbsp1_scan(const MachineTree& tree, MachineId cluster,
                                  std::size_t n, Shares shares);

/// All-to-all personalised exchange of per-pair blocks of size x_j/m:
/// g·max_j r_j·max{ sent_j, received_j } + L.
[[nodiscard]] AlgoCost hbsp1_alltoall(const MachineTree& tree, MachineId cluster,
                                      std::size_t n, Shares shares);

/// HBSP^k reduction closed form: one super^i-step per level (clusters fold
/// concurrently, each charging local combines owed since the previous level
/// and forwarding 1-item partials to its target), plus the root's final
/// combine. On a flat machine this is the HBSP^1 reduce: local combine
/// (x_j − 1 ops) and one partial per member to the root, then the root's
/// combine of the m partials. Matches CostModel(plan_reduce_tree(...))
/// exactly.
[[nodiscard]] AlgoCost hbspk_reduce(const MachineTree& tree, std::size_t n,
                                    Shares shares, int root_pid = -1);

// --- §6 future-work extension: destination-dependent costs ---------------------

/// Gather closed form under the destination-cost extension:
/// h = max{ max_j r_j·λ(j,root)·x_j , r_root·Σ_j λ(j,root)·x_j } — both the
/// senders' outbound volumes and the root's inbound total are weighted by
/// each message's λ. Reduces to hbsp1_gather when λ ≡ 1.
[[nodiscard]] AlgoCost hbsp1_gather_dest(const MachineTree& tree,
                                         MachineId cluster, int root_pid,
                                         std::size_t n, Shares shares,
                                         const DestinationCosts& costs);

// --- Helpers shared with the planners -----------------------------------------

/// Member shares of a cluster under the given policy, indexed by child
/// ordinal of `cluster` and apportioned to sum to n exactly. kEqual splits
/// per *processor* (each child gets a share proportional to its processor
/// count, so a flat cluster gets the paper's n/m); kBalanced splits by c.
[[nodiscard]] std::vector<std::size_t> member_shares(const MachineTree& tree,
                                                     MachineId cluster,
                                                     std::size_t n, Shares shares);

/// Per-node shares of n items, [level][index]: the root holds n and every
/// cluster splits its own share over its members by member_shares, so c_{i,j}
/// is a fraction of the parent's share (Table 1, §3.3) and every cluster's
/// aggregate equals its member share at the parent.
[[nodiscard]] std::vector<std::vector<std::size_t>> node_shares(
    const MachineTree& tree, std::size_t n, Shares shares);

/// Per-processor shares of n items: node_shares read at each processor.
/// Indexed by pid; sums to n. This is the one split of the machine: the
/// planners, the closed forms, the executors and the runtime's balanced-share
/// enquiry all use it.
[[nodiscard]] std::vector<std::size_t> leaf_shares(const MachineTree& tree,
                                                   std::size_t n, Shares shares);

/// A cluster's members resolved to communication endpoints: child ids, their
/// endpoint pids (a child's coordinator; the child itself when a processor),
/// and their shares of n. The planners and the closed forms both build this,
/// which is what makes them agree exactly.
struct Members {
  std::vector<MachineId> children;
  std::vector<int> pids;              ///< endpoint pid per child
  std::vector<std::size_t> shares;    ///< items per child, sums to n
};

/// Builds Members for `cluster`; throws std::invalid_argument if `cluster`
/// is a processor.
[[nodiscard]] Members cluster_members(const MachineTree& tree, MachineId cluster,
                                      std::size_t n, Shares shares);

/// Where a cluster's gathered/broadcast data lives in a rooted collective:
/// `root_pid` when it is inside the cluster, otherwise the cluster's
/// coordinator (root_pid < 0 always selects the coordinator).
[[nodiscard]] int cluster_target(const MachineTree& tree, MachineId cluster,
                                 int root_pid);

/// Data site of node `id` in a rooted collective: the processor itself, or
/// the cluster's target. A §4 superstep moves data between the data sites of
/// a cluster's members.
[[nodiscard]] int data_site(const MachineTree& tree, MachineId id, int root_pid);

/// Phase-1 pieces of a two-phase broadcast within `cluster`. Unlike workload
/// shares, broadcast pieces are transient material: kEqual is an equal split
/// per *member* — the paper's "root sends n/m_{2,0} to the level 1
/// coordinators" — not per processor. kBalanced still splits by c. Indexed
/// by child ordinal; sums to n.
[[nodiscard]] std::vector<std::size_t> broadcast_pieces(const MachineTree& tree,
                                                        MachineId cluster,
                                                        std::size_t n,
                                                        Shares shares);

/// Ordinal of the child of `cluster` whose subtree contains `pid`; throws
/// std::invalid_argument if `pid` is outside the cluster.
[[nodiscard]] int member_of_pid(const MachineTree& tree, MachineId cluster,
                                int pid);

}  // namespace hbsp::analysis
