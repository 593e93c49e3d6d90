#include "collectives/planners.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "obs/metrics.hpp"

namespace hbsp::coll {
namespace {

/// Counts one planner invocation in the `coll.*` metric family (composed
/// planners like allgather-tree also count their nested gather/broadcast —
/// plans_built tallies planner calls, not emitted schedules).
void note_plan(const std::string& kind) {
  auto& registry = obs::Registry::global();
  registry.counter("coll.plans_built").increment();
  registry.counter("coll.plan." + kind).increment();
}

int normalize_root(const MachineTree& tree, int root_pid) {
  if (root_pid < 0) return tree.coordinator_pid(tree.root());
  if (root_pid >= tree.num_processors()) {
    throw std::invalid_argument{"bad root pid " + std::to_string(root_pid)};
  }
  return root_pid;
}

/// Adds the two-phase broadcast of `n` items from `cluster`'s data site to
/// every child's data site: a scatter plan into `scatter_phase` and a total
/// exchange plan into `exchange_phase`.
void add_two_phase_broadcast(const MachineTree& tree, MachineId cluster,
                             int root_pid, std::size_t n, Shares shares,
                             int level, Phase& scatter_phase,
                             Phase& exchange_phase) {
  const int src = cluster_target(tree, cluster, root_pid);
  const auto split = analysis::broadcast_pieces(tree, cluster, n, shares);
  const int m = tree.num_children(cluster);

  SuperstepPlan& scatter = scatter_phase.plans.emplace_back();
  scatter.label = "bcast scatter L" + std::to_string(level);
  scatter.level = level;
  scatter.sync_scope = cluster;
  std::vector<int> sites(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) {
    sites[static_cast<std::size_t>(j)] = data_site(tree, tree.child(cluster, j),
                                                   root_pid);
    if (sites[static_cast<std::size_t>(j)] != src &&
        split[static_cast<std::size_t>(j)] > 0) {
      scatter.transfers.push_back(
          {src, sites[static_cast<std::size_t>(j)], split[static_cast<std::size_t>(j)]});
    }
  }

  SuperstepPlan& exchange = exchange_phase.plans.emplace_back();
  exchange.label = "bcast exchange L" + std::to_string(level);
  exchange.level = level;
  exchange.sync_scope = cluster;
  for (int j = 0; j < m; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i == j || split[static_cast<std::size_t>(j)] == 0) continue;
      if (sites[static_cast<std::size_t>(j)] == sites[static_cast<std::size_t>(i)]) {
        continue;
      }
      exchange.transfers.push_back({sites[static_cast<std::size_t>(j)],
                                    sites[static_cast<std::size_t>(i)],
                                    split[static_cast<std::size_t>(j)]});
    }
  }
}

}  // namespace

namespace detail {
void require_flat(const MachineTree& tree, const char* who) {
  const MachineId root = tree.root();
  for (int j = 0; j < tree.num_children(root); ++j) {
    if (!tree.is_processor(tree.child(root, j))) {
      throw std::invalid_argument{std::string{who} +
                                  ": requires a flat (HBSP^1) machine"};
    }
  }
  if (tree.num_children(root) == 0) {
    throw std::invalid_argument{std::string{who} +
                                ": machine has a single processor"};
  }
}
}  // namespace detail

CommSchedule plan_gather(const MachineTree& tree, std::size_t n,
                         const RootedOptions& options) {
  note_plan("gather");
  const int root_pid = normalize_root(tree, options.root_pid);
  const auto shares = analysis::node_shares(tree, n, options.shares);

  CommSchedule schedule;
  schedule.name = "gather";
  for (int level = 1; level <= tree.height(); ++level) {
    Phase phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      SuperstepPlan& plan = phase.plans.emplace_back();
      plan.label = "gather L" + std::to_string(level);
      plan.level = level;
      plan.sync_scope = cluster;
      const int target = cluster_target(tree, cluster, root_pid);
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const MachineId cid = tree.child(cluster, child);
        const int site = data_site(tree, cid, root_pid);
        const std::size_t share = shares[static_cast<std::size_t>(cid.level)]
                                        [static_cast<std::size_t>(cid.index)];
        if (site != target && share > 0) {
          plan.transfers.push_back({site, target, share});
        }
      }
    }
    if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

CommSchedule plan_scatter(const MachineTree& tree, std::size_t n,
                          const RootedOptions& options) {
  note_plan("scatter");
  const int root_pid = normalize_root(tree, options.root_pid);
  const auto shares = analysis::node_shares(tree, n, options.shares);

  CommSchedule schedule;
  schedule.name = "scatter";
  for (int level = tree.height(); level >= 1; --level) {
    Phase phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      SuperstepPlan& plan = phase.plans.emplace_back();
      plan.label = "scatter L" + std::to_string(level);
      plan.level = level;
      plan.sync_scope = cluster;
      const int source = cluster_target(tree, cluster, root_pid);
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const MachineId cid = tree.child(cluster, child);
        const int site = data_site(tree, cid, root_pid);
        const std::size_t share = shares[static_cast<std::size_t>(cid.level)]
                                        [static_cast<std::size_t>(cid.index)];
        if (site != source && share > 0) {
          plan.transfers.push_back({source, site, share});
        }
      }
    }
    if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

CommSchedule plan_broadcast(const MachineTree& tree, std::size_t n,
                            const BroadcastOptions& options) {
  note_plan("broadcast");
  const int root_pid = normalize_root(tree, options.root_pid);

  CommSchedule schedule;
  schedule.name = "broadcast";
  for (int level = tree.height(); level >= 1; --level) {
    const bool top = level == tree.height();
    if (top && options.top_phase == TopPhase::kOnePhase) {
      Phase phase;
      for (int j = 0; j < tree.machines_at(level); ++j) {
        const MachineId cluster{level, j};
        if (tree.is_processor(cluster)) continue;
        SuperstepPlan& plan = phase.plans.emplace_back();
        plan.label = "bcast one-phase L" + std::to_string(level);
        plan.level = level;
        plan.sync_scope = cluster;
        const int src = cluster_target(tree, cluster, root_pid);
        for (int child = 0; child < tree.num_children(cluster); ++child) {
          const int site = data_site(tree, tree.child(cluster, child), root_pid);
          if (site != src) plan.transfers.push_back({src, site, n});
        }
      }
      if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
      continue;
    }

    Phase scatter_phase;
    Phase exchange_phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      add_two_phase_broadcast(tree, cluster, root_pid, n, options.shares, level,
                              scatter_phase, exchange_phase);
    }
    if (!scatter_phase.plans.empty()) {
      schedule.phases.push_back(std::move(scatter_phase));
      schedule.phases.push_back(std::move(exchange_phase));
    }
  }
  return schedule;
}

CommSchedule plan_allgather(const MachineTree& tree, std::size_t n,
                            Shares shares) {
  note_plan("allgather");
  detail::require_flat(tree, "plan_allgather");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();

  CommSchedule schedule;
  schedule.name = "allgather";
  SuperstepPlan& plan = schedule.add_step("allgather", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] == 0) continue;
    for (std::size_t i = 0; i < m; ++i) {
      if (i == j) continue;
      plan.transfers.push_back(
          {members.pids[j], members.pids[i], members.shares[j]});
    }
  }
  return schedule;
}

CommSchedule plan_allgather_tree(const MachineTree& tree, std::size_t n,
                                 Shares shares) {
  note_plan("allgather_tree");
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"plan_allgather_tree: single-processor machine"};
  }
  CommSchedule schedule;
  schedule.name = "allgather-tree";
  CommSchedule up = plan_gather(tree, n, {.root_pid = -1, .shares = shares});
  CommSchedule down = plan_broadcast(
      tree, n,
      {.root_pid = -1, .top_phase = TopPhase::kTwoPhase, .shares = Shares::kEqual});
  for (auto& phase : up.phases) schedule.phases.push_back(std::move(phase));
  for (auto& phase : down.phases) schedule.phases.push_back(std::move(phase));
  return schedule;
}

CommSchedule plan_reduce_tree(const MachineTree& tree, std::size_t n,
                              const RootedOptions& options) {
  note_plan("reduce_tree");
  const int root_pid = normalize_root(tree, options.root_pid);
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"plan_reduce_tree: single-processor machine"};
  }
  const auto shares = leaf_shares(tree, n, options.shares);

  // Ops owed by each data site, charged in the next phase it takes part in:
  // initially every processor owes its local combine.
  std::vector<double> pending(shares.size());
  for (std::size_t pid = 0; pid < shares.size(); ++pid) {
    pending[pid] = shares[pid] > 0 ? static_cast<double>(shares[pid]) - 1.0
                                   : 0.0;
  }

  CommSchedule schedule;
  schedule.name = "reduce-tree";
  for (int level = 1; level <= tree.height(); ++level) {
    Phase phase;
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId cluster{level, j};
      if (tree.is_processor(cluster)) continue;
      SuperstepPlan& plan = phase.plans.emplace_back();
      plan.label = "reduce L" + std::to_string(level);
      plan.level = level;
      plan.sync_scope = cluster;
      const int target = cluster_target(tree, cluster, root_pid);
      std::size_t partials_received = 0;
      for (int child = 0; child < tree.num_children(cluster); ++child) {
        const int site = data_site(tree, tree.child(cluster, child), root_pid);
        if (double& owed = pending[static_cast<std::size_t>(site)];
            owed > 0.0) {
          plan.compute.push_back({site, owed});
          owed = 0.0;
        }
        if (site != target) {
          plan.transfers.push_back({site, target, 1});
          ++partials_received;
        }
      }
      // The target folds the delivered partials next phase.
      pending[static_cast<std::size_t>(target)] +=
          static_cast<double>(partials_received);
    }
    if (!phase.plans.empty()) schedule.phases.push_back(std::move(phase));
  }

  SuperstepPlan& final_step =
      schedule.add_step("root combine", tree.height(), tree.root());
  const int root_target = cluster_target(tree, tree.root(), root_pid);
  if (const double owed = pending[static_cast<std::size_t>(root_target)];
      owed > 0.0) {
    final_step.compute.push_back({root_target, owed});
  }
  return schedule;
}

CommSchedule plan_scan(const MachineTree& tree, std::size_t n, Shares shares) {
  note_plan("scan");
  detail::require_flat(tree, "plan_scan");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();
  const int root_pid = tree.coordinator_pid(tree.root());

  CommSchedule schedule;
  schedule.name = "scan";
  SuperstepPlan& up = schedule.add_step("local prefix + partials", 1,
                                        tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] > 0) {
      up.compute.push_back({members.pids[j],
                            static_cast<double>(members.shares[j])});
    }
    if (members.pids[j] != root_pid) {
      up.transfers.push_back({members.pids[j], root_pid, 1});
    }
  }
  SuperstepPlan& down = schedule.add_step("offsets back", 1, tree.root());
  down.compute.push_back({root_pid, static_cast<double>(m)});
  for (std::size_t j = 0; j < m; ++j) {
    if (members.pids[j] != root_pid) {
      down.transfers.push_back({root_pid, members.pids[j], 1});
    }
  }
  SuperstepPlan& apply = schedule.add_step("apply offsets", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    if (members.shares[j] > 0) {
      apply.compute.push_back({members.pids[j],
                               static_cast<double>(members.shares[j])});
    }
  }
  return schedule;
}

CommSchedule plan_alltoall(const MachineTree& tree, std::size_t n,
                           Shares shares) {
  note_plan("alltoall");
  detail::require_flat(tree, "plan_alltoall");
  const analysis::Members members =
      analysis::cluster_members(tree, tree.root(), n, shares);
  const std::size_t m = members.pids.size();

  CommSchedule schedule;
  schedule.name = "alltoall";
  SuperstepPlan& plan = schedule.add_step("all-to-all", 1, tree.root());
  for (std::size_t j = 0; j < m; ++j) {
    const auto blocks = equal_partition(members.shares[j], m);
    for (std::size_t i = 0; i < m; ++i) {
      if (i == j || blocks[i] == 0) continue;
      plan.transfers.push_back({members.pids[j], members.pids[i], blocks[i]});
    }
  }
  return schedule;
}

}  // namespace hbsp::coll
