#include "core/analysis.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/workload.hpp"

namespace hbsp::analysis {
namespace {

double items(std::size_t n) { return static_cast<double>(n); }

/// g·h + L for one superstep, labelled.
StepCost comm_step(const MachineTree& tree, MachineId scope, std::string label,
                   double h) {
  return {std::move(label), tree.g() * h + tree.sync_L(scope)};
}

}  // namespace

std::vector<std::size_t> member_shares(const MachineTree& tree,
                                       MachineId cluster, std::size_t n,
                                       Shares shares) {
  const int m = tree.num_children(cluster);
  if (m == 0) {
    throw std::invalid_argument{"member_shares: cluster is a processor"};
  }
  std::vector<double> fractions;
  fractions.reserve(static_cast<std::size_t>(m));
  if (shares == Shares::kBalanced) {
    for (int j = 0; j < m; ++j) fractions.push_back(tree.c(tree.child(cluster, j)));
  } else {
    const auto [first, last] = tree.processor_range(cluster);
    const double total = items(static_cast<std::size_t>(last - first));
    for (int j = 0; j < m; ++j) {
      const auto [cf, cl] = tree.processor_range(tree.child(cluster, j));
      fractions.push_back(items(static_cast<std::size_t>(cl - cf)) / total);
    }
  }
  return apportion(fractions, n);
}

std::vector<std::vector<std::size_t>> node_shares(const MachineTree& tree,
                                                  std::size_t n, Shares shares) {
  std::vector<std::vector<std::size_t>> result(
      static_cast<std::size_t>(tree.num_levels()));
  for (int level = 0; level < tree.num_levels(); ++level) {
    result[static_cast<std::size_t>(level)].resize(
        static_cast<std::size_t>(tree.machines_at(level)), 0);
  }
  result[static_cast<std::size_t>(tree.height())][0] = n;
  for (int level = tree.height(); level >= 1; --level) {
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId id{level, j};
      if (tree.is_processor(id)) continue;
      const std::size_t my_share =
          result[static_cast<std::size_t>(level)][static_cast<std::size_t>(j)];
      const auto split = member_shares(tree, id, my_share, shares);
      for (int child = 0; child < tree.num_children(id); ++child) {
        const MachineId cid = tree.child(id, child);
        result[static_cast<std::size_t>(cid.level)]
              [static_cast<std::size_t>(cid.index)] =
                  split[static_cast<std::size_t>(child)];
      }
    }
  }
  return result;
}

std::vector<std::size_t> leaf_shares(const MachineTree& tree, std::size_t n,
                                     Shares shares) {
  const auto per_node = node_shares(tree, n, shares);
  std::vector<std::size_t> result(static_cast<std::size_t>(tree.num_processors()));
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    const MachineId id = tree.processor(pid);
    result[static_cast<std::size_t>(pid)] =
        per_node[static_cast<std::size_t>(id.level)]
                [static_cast<std::size_t>(id.index)];
  }
  return result;
}

Members cluster_members(const MachineTree& tree, MachineId cluster,
                        std::size_t n, Shares shares) {
  Members members;
  const int m = tree.num_children(cluster);
  if (m == 0) {
    throw std::invalid_argument{"cluster_members: cluster is a processor"};
  }
  members.children.reserve(static_cast<std::size_t>(m));
  members.pids.reserve(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    const MachineId child = tree.child(cluster, j);
    members.children.push_back(child);
    members.pids.push_back(tree.coordinator_pid(child));
  }
  members.shares = member_shares(tree, cluster, n, shares);
  return members;
}

int cluster_target(const MachineTree& tree, MachineId cluster, int root_pid) {
  if (root_pid >= 0) {
    const auto [first, last] = tree.processor_range(cluster);
    if (root_pid >= first && root_pid < last) return root_pid;
  }
  return tree.coordinator_pid(cluster);
}

int data_site(const MachineTree& tree, MachineId id, int root_pid) {
  if (tree.is_processor(id)) return tree.node(id).pid;
  return cluster_target(tree, id, root_pid);
}

std::vector<std::size_t> broadcast_pieces(const MachineTree& tree,
                                          MachineId cluster, std::size_t n,
                                          Shares shares) {
  const int m = tree.num_children(cluster);
  if (m == 0) {
    throw std::invalid_argument{"broadcast_pieces: cluster is a processor"};
  }
  if (shares == Shares::kEqual) {
    return equal_partition(n, static_cast<std::size_t>(m));
  }
  return member_shares(tree, cluster, n, shares);
}

int member_of_pid(const MachineTree& tree, MachineId cluster, int pid) {
  for (int j = 0; j < tree.num_children(cluster); ++j) {
    const auto [first, last] = tree.processor_range(tree.child(cluster, j));
    if (pid >= first && pid < last) return j;
  }
  throw std::invalid_argument{"member_of_pid: pid " + std::to_string(pid) +
                              " not in cluster"};
}

AlgoCost hbsp1_gather(const MachineTree& tree, MachineId cluster, int root_pid,
                      std::size_t n, Shares shares) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const int root_member = member_of_pid(tree, cluster, root_pid);
  // h = max{ max_j r_j·x_j (senders), r_root·(n − x_root) (receiver) }.
  double h = tree.processor_r(root_pid) *
             items(n - members.shares[static_cast<std::size_t>(root_member)]);
  for (std::size_t j = 0; j < members.pids.size(); ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h = std::max(h, tree.processor_r(members.pids[j]) * items(members.shares[j]));
  }
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "gather", h));
  return cost;
}


AlgoCost hbsp1_gather_dest(const MachineTree& tree, MachineId cluster,
                           int root_pid, std::size_t n, Shares shares,
                           const DestinationCosts& costs) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const int root_member = member_of_pid(tree, cluster, root_pid);
  double inbound = 0.0;
  double h = 0.0;
  for (std::size_t j = 0; j < members.pids.size(); ++j) {
    if (static_cast<int>(j) == root_member) continue;
    const double lambda = costs.factor(members.pids[j], root_pid);
    const double volume = lambda * items(members.shares[j]);
    inbound += volume;
    h = std::max(h, tree.processor_r(members.pids[j]) * volume);
  }
  h = std::max(h, tree.processor_r(root_pid) * inbound);
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "gather (dest-weighted)", h));
  return cost;
}

AlgoCost hbsp2_gather(const MachineTree& tree, std::size_t n, Shares shares) {
  const MachineId root = tree.root();
  if (tree.num_children(root) == 0) {
    throw std::invalid_argument{"hbsp2_gather: single-processor machine"};
  }
  const Members top = cluster_members(tree, root, n, shares);
  const int root_coord = tree.coordinator_pid(root);
  const int root_member = member_of_pid(tree, root, root_coord);

  // super^1: every (non-degenerate) cluster gathers its share to its
  // coordinator concurrently; the step costs what the slowest cluster costs.
  double super1 = 0.0;
  for (std::size_t j = 0; j < top.children.size(); ++j) {
    if (tree.is_processor(top.children[j])) continue;
    const AlgoCost inner =
        hbsp1_gather(tree, top.children[j], tree.coordinator_pid(top.children[j]),
                     top.shares[j], shares);
    super1 = std::max(super1, inner.total());
  }

  // super^2: coordinators forward their cluster's items to the root
  // coordinator: g·max{ r_{1,j}·x_{1,j}, r_{2,0}·(n − x_root-cluster) } + L.
  double h2 = tree.processor_r(root_coord) *
              items(n - top.shares[static_cast<std::size_t>(root_member)]);
  for (std::size_t j = 0; j < top.pids.size(); ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h2 = std::max(h2, tree.processor_r(top.pids[j]) * items(top.shares[j]));
  }

  AlgoCost cost;
  cost.steps.push_back({"super1: cluster gathers", super1});
  cost.steps.push_back(comm_step(tree, root, "super2: forward to root", h2));
  return cost;
}

AlgoCost hbsp1_broadcast_two_phase(const MachineTree& tree, MachineId cluster,
                                   int root_pid, std::size_t n, Shares shares) {
  Members members = cluster_members(tree, cluster, n, shares);
  members.shares = broadcast_pieces(tree, cluster, n, shares);
  const std::size_t m = members.pids.size();
  const int root_member = member_of_pid(tree, cluster, root_pid);

  // Phase 1 — scatter: the root keeps its own share, sends the rest.
  double h1 = tree.processor_r(root_pid) *
              items(n - members.shares[static_cast<std::size_t>(root_member)]);
  for (std::size_t j = 0; j < m; ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h1 = std::max(h1, tree.processor_r(members.pids[j]) * items(members.shares[j]));
  }

  // Phase 2 — total exchange: j sends its share to the other m−1 members and
  // receives everyone else's, n − x_j items.
  double h2 = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double sent = items(members.shares[j]) * items(m - 1);
    const double received = items(n - members.shares[j]);
    h2 = std::max(h2, tree.processor_r(members.pids[j]) * std::max(sent, received));
  }

  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "scatter", h1));
  cost.steps.push_back(comm_step(tree, cluster, "total exchange", h2));
  return cost;
}

AlgoCost hbsp1_broadcast_one_phase(const MachineTree& tree, MachineId cluster,
                                   int root_pid, std::size_t n) {
  const Members members = cluster_members(tree, cluster, n, Shares::kEqual);
  const std::size_t m = members.pids.size();
  const int root_member = member_of_pid(tree, cluster, root_pid);
  double h = tree.processor_r(root_pid) * items(n) * items(m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h = std::max(h, tree.processor_r(members.pids[j]) * items(n));
  }
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "one-phase broadcast", h));
  return cost;
}

AlgoCost hbsp2_broadcast(const MachineTree& tree, std::size_t n,
                         TopPhase top_phase) {
  const MachineId root = tree.root();
  if (tree.num_children(root) == 0) {
    throw std::invalid_argument{"hbsp2_broadcast: single-processor machine"};
  }
  AlgoCost cost;
  const int root_coord = tree.coordinator_pid(root);

  if (top_phase == TopPhase::kOnePhase) {
    const AlgoCost top =
        hbsp1_broadcast_one_phase(tree, root, root_coord, n);
    cost.steps.push_back({"super2: one-phase to coordinators",
                          top.steps.front().cost});
  } else {
    // The paper's two-phase super^2: scatter n/m_{2,0} then total exchange,
    // with equal per-coordinator pieces.
    const AlgoCost top = hbsp1_broadcast_two_phase(tree, root, root_coord, n,
                                                   Shares::kEqual);
    for (const auto& step : top.steps) {
      cost.steps.push_back({"super2: " + step.label, step.cost});
    }
  }

  // super^1: each cluster broadcasts the n items internally with the
  // two-phase HBSP^1 algorithm; degenerate (single-processor) children are
  // already done. §3.2 closes every super^1-step with a synchronisation of
  // all level-1 nodes, so each of the two internal supersteps costs the
  // maximum over the clusters (not the maximum of per-cluster sums).
  double scatter_step = 0.0;
  double exchange_step = 0.0;
  for (int j = 0; j < tree.num_children(root); ++j) {
    const MachineId child = tree.child(root, j);
    if (tree.is_processor(child)) continue;
    const AlgoCost inner = hbsp1_broadcast_two_phase(
        tree, child, tree.coordinator_pid(child), n, Shares::kEqual);
    scatter_step = std::max(scatter_step, inner.steps[0].cost);
    exchange_step = std::max(exchange_step, inner.steps[1].cost);
  }
  cost.steps.push_back({"super1: cluster scatters", scatter_step});
  cost.steps.push_back({"super1: cluster exchanges", exchange_step});
  return cost;
}

namespace {

/// Binary search for the first n in [1, n_max] satisfying `two_no_worse`
/// (monotone: two-phase's advantage grows with n, the L penalty is fixed).
std::optional<std::size_t> first_crossover(
    std::size_t n_max, const std::function<bool(std::size_t)>& two_no_worse) {
  if (!two_no_worse(n_max)) return std::nullopt;
  std::size_t lo = 1, hi = n_max;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (two_no_worse(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

std::optional<std::size_t> broadcast_crossover_n(const MachineTree& tree,
                                                 MachineId cluster, int root_pid,
                                                 std::size_t n_max) {
  return first_crossover(n_max, [&](std::size_t n) {
    return hbsp1_broadcast_two_phase(tree, cluster, root_pid, n, Shares::kEqual)
               .total() <=
           hbsp1_broadcast_one_phase(tree, cluster, root_pid, n).total();
  });
}

std::optional<std::size_t> hbsp2_broadcast_crossover_n(const MachineTree& tree,
                                                       std::size_t n_max) {
  return first_crossover(n_max, [&](std::size_t n) {
    return hbsp2_broadcast(tree, n, TopPhase::kTwoPhase).total() <=
           hbsp2_broadcast(tree, n, TopPhase::kOnePhase).total();
  });
}

AlgoCost hbsp1_scatter(const MachineTree& tree, MachineId cluster, int root_pid,
                       std::size_t n, Shares shares) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const int root_member = member_of_pid(tree, cluster, root_pid);
  double h = tree.processor_r(root_pid) *
             items(n - members.shares[static_cast<std::size_t>(root_member)]);
  for (std::size_t j = 0; j < members.pids.size(); ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h = std::max(h, tree.processor_r(members.pids[j]) * items(members.shares[j]));
  }
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "scatter", h));
  return cost;
}

AlgoCost hbsp1_allgather(const MachineTree& tree, MachineId cluster,
                         std::size_t n, Shares shares) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const std::size_t m = members.pids.size();
  double h = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double sent = items(members.shares[j]) * items(m - 1);
    const double received = items(n - members.shares[j]);
    h = std::max(h, tree.processor_r(members.pids[j]) * std::max(sent, received));
  }
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "allgather", h));
  return cost;
}

AlgoCost hbspk_reduce(const MachineTree& tree, std::size_t n, Shares shares,
                      int root_pid) {
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"hbspk_reduce: single-processor machine"};
  }
  const int root = root_pid < 0 ? tree.coordinator_pid(tree.root()) : root_pid;
  const double op_cost = tree.g();

  // Ops owed by each data site: initially every processor's local combine.
  const auto leaf = leaf_shares(tree, n, shares);
  std::vector<double> pending(leaf.size());
  for (std::size_t pid = 0; pid < leaf.size(); ++pid) {
    pending[pid] = leaf[pid] > 0 ? static_cast<double>(leaf[pid]) - 1.0 : 0.0;
  }

  AlgoCost cost;
  for (int level = 1; level <= tree.height(); ++level) {
    double phase_cost = 0.0;
    bool any_cluster = false;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      any_cluster = true;
      const int target = cluster_target(tree, cluster, root);
      double w = 0.0;
      double sender_h = 0.0;
      double partials = 0.0;
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const int site = data_site(tree, tree.child(cluster, child), root);
        if (double& owed = pending[static_cast<std::size_t>(site)]; owed > 0.0) {
          w = std::max(w, owed * tree.processor_compute_r(site) * op_cost);
          owed = 0.0;
        }
        if (site != target) {
          sender_h = std::max(sender_h, tree.processor_r(site) * 1.0);
          partials += 1.0;
        }
      }
      pending[static_cast<std::size_t>(target)] += partials;
      const double h = std::max(sender_h, tree.processor_r(target) * partials);
      phase_cost = std::max(phase_cost, w + tree.g() * h + tree.sync_L(cluster));
    }
    if (any_cluster) {
      cost.steps.push_back({"reduce L" + std::to_string(level), phase_cost});
    }
  }

  const int root_target = cluster_target(tree, tree.root(), root);
  const double w_final = pending[static_cast<std::size_t>(root_target)] *
                         tree.processor_compute_r(root_target) * op_cost;
  cost.steps.push_back({"root combine", w_final + tree.sync_L(tree.root())});
  return cost;
}

AlgoCost hbsp1_scan(const MachineTree& tree, MachineId cluster, std::size_t n,
                    Shares shares) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const std::size_t m = members.pids.size();
  const int root_pid = tree.coordinator_pid(cluster);
  const int root_member = member_of_pid(tree, cluster, root_pid);
  const double op_cost = tree.g();

  const auto max_local_ops = [&]() {
    double w = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      w = std::max(w, items(members.shares[j]) *
                          tree.processor_compute_r(members.pids[j]) * op_cost);
    }
    return w;
  };

  // Step 1: local inclusive prefix + 1-item partial totals to the coordinator.
  const double w1 = max_local_ops();
  double h1 = tree.processor_r(root_pid) * items(m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    if (static_cast<int>(j) == root_member) continue;
    h1 = std::max(h1, tree.processor_r(members.pids[j]) * 1.0);
  }

  // Step 2: coordinator prefixes the m partials, sends 1-item offsets back.
  const double w2 = items(m) * tree.processor_compute_r(root_pid) * op_cost;
  const double h2 = h1;  // mirror image of step 1's traffic

  // Step 3: local add of the offset.
  const double w3 = max_local_ops();

  AlgoCost cost;
  cost.steps.push_back({"local prefix + partials",
                        w1 + tree.g() * h1 + tree.sync_L(cluster)});
  cost.steps.push_back({"offsets back", w2 + tree.g() * h2 + tree.sync_L(cluster)});
  cost.steps.push_back({"apply offsets", w3 + tree.sync_L(cluster)});
  return cost;
}

AlgoCost hbsp1_alltoall(const MachineTree& tree, MachineId cluster,
                        std::size_t n, Shares shares) {
  const Members members = cluster_members(tree, cluster, n, shares);
  const std::size_t m = members.pids.size();

  // j splits its x_j items into m equal blocks (largest-first remainder) and
  // keeps block j; received_j = sum over i != j of block_{i,j}.
  std::vector<std::vector<std::size_t>> blocks(m);
  for (std::size_t j = 0; j < m; ++j) {
    blocks[j] = equal_partition(members.shares[j], m);
  }
  double h = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const double sent = items(members.shares[j] - blocks[j][j]);
    double received = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (i != j) received += items(blocks[i][j]);
    }
    h = std::max(h, tree.processor_r(members.pids[j]) * std::max(sent, received));
  }
  AlgoCost cost;
  cost.steps.push_back(comm_step(tree, cluster, "all-to-all", h));
  return cost;
}

}  // namespace hbsp::analysis
