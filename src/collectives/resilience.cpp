#include "collectives/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/cluster_sim.hpp"
#include "util/rng.hpp"

namespace hbsp::coll {
namespace {

/// Stream tag distinguishing a restarted run's loss decisions from the
/// aborted run's (re-splitting keeps replays deterministic without ever
/// reusing a consumed stream).
constexpr std::uint64_t kRestartStream = 0x5245504C414EULL;  // "REPLAN"

/// old pid -> new pid (-1 when removed), inverted from `to_original`.
std::vector<int> invert_mapping(std::span<const int> to_original) {
  int max_old = -1;
  for (const int old : to_original) max_old = std::max(max_old, old);
  std::vector<int> old_to_new(static_cast<std::size_t>(max_old + 1), -1);
  for (std::size_t i = 0; i < to_original.size(); ++i) {
    old_to_new[static_cast<std::size_t>(to_original[i])] = static_cast<int>(i);
  }
  return old_to_new;
}

/// Rebuilds the spec of `id`'s subtree without dead processors, scaling leaf
/// r/compute_r by 1/m. Returns false (and leaves `out` untouched) when the
/// subtree has no survivor. Appends survivor pids to `to_original` in pid
/// order (recursion visits leaves exactly in pid order).
bool rebuild_subtree(const MachineTree& tree, MachineId id,
                     const std::vector<char>& dead, double m,
                     MachineSpec& out, std::vector<int>& to_original) {
  const MachineTree::Node& node = tree.node(id);
  if (node.pid >= 0) {  // physical processor
    if (dead[static_cast<std::size_t>(node.pid)]) return false;
    out.name = node.name;
    out.r = node.r / m;
    out.compute_r = node.compute_r / m;
    out.sync_L = node.sync_L;
    to_original.push_back(node.pid);
    return true;
  }
  MachineSpec spec;
  spec.name = node.name;
  spec.sync_L = node.sync_L;
  for (int nth = 0; nth < tree.num_children(id); ++nth) {
    MachineSpec child;
    if (rebuild_subtree(tree, tree.child(id, nth), dead, m, child,
                        to_original)) {
      spec.children.push_back(std::move(child));
    }
  }
  if (spec.children.empty()) return false;  // cluster wiped out: prune
  out = std::move(spec);
  return true;
}

}  // namespace

SurvivorTree remove_processors(const MachineTree& tree,
                               std::span<const int> dead) {
  const int p = tree.num_processors();
  std::vector<char> is_dead(static_cast<std::size_t>(p), 0);
  for (const int pid : dead) {
    if (pid < 0 || pid >= p) {
      throw std::invalid_argument{"remove_processors: unknown pid " +
                                  std::to_string(pid)};
    }
    is_dead[static_cast<std::size_t>(pid)] = 1;
  }

  // Fastest survivor: its r becomes the new unit (r/m == 1.0 exactly).
  double m = std::numeric_limits<double>::infinity();
  for (int pid = 0; pid < p; ++pid) {
    if (!is_dead[static_cast<std::size_t>(pid)]) {
      m = std::min(m, tree.processor_r(pid));
    }
  }
  if (!std::isfinite(m)) {
    throw std::invalid_argument{
        "remove_processors: no processor survives the removal"};
  }

  MachineSpec root;
  std::vector<int> to_original;
  if (!rebuild_subtree(tree, tree.root(), is_dead, m, root, to_original)) {
    throw std::invalid_argument{
        "remove_processors: no processor survives the removal"};
  }
  // Scaling g by m keeps every survivor's absolute wire cost r·g unchanged.
  return SurvivorTree{MachineTree::build(root, tree.g() * m),
                      std::move(to_original)};
}

faults::FaultPlan remap_fault_plan(const faults::FaultPlan& plan,
                                   double elapsed,
                                   std::span<const int> to_original) {
  const std::vector<int> old_to_new = invert_mapping(to_original);
  const auto remap = [&old_to_new](int old_pid) {
    return old_pid >= 0 &&
                   old_pid < static_cast<int>(old_to_new.size())
               ? old_to_new[static_cast<std::size_t>(old_pid)]
               : -1;
  };

  faults::FaultPlan tail;
  for (const faults::SlowdownWindow& w : plan.slowdowns) {
    const int pid = remap(w.pid);
    if (pid < 0 || w.end <= elapsed) continue;
    tail.slowdowns.push_back(
        {pid, std::max(0.0, w.begin - elapsed), w.end - elapsed, w.factor});
  }
  for (const faults::MachineDrop& d : plan.drops) {
    const int pid = remap(d.pid);
    if (pid < 0) continue;
    // A drop already due fires at time zero of the restarted run.
    tail.drops.push_back({pid, std::max(0.0, d.time - elapsed)});
  }
  tail.message_loss_probability = plan.message_loss_probability;
  tail.loss_seed = util::split_seed(plan.loss_seed, kRestartStream);
  return tail;
}

util::Table ResilienceReport::to_table(const std::string& title) const {
  util::Table table{title};
  table.set_header({"metric", "value"});
  table.add_row({"fault-free makespan (s)",
                 util::Table::num(fault_free_makespan, 6)});
  table.add_row(
      {"degraded makespan (s)", util::Table::num(degraded_makespan, 6)});
  table.add_row({"inflation", util::Table::num(inflation(), 3)});
  std::string pids;
  for (const int pid : excluded_pids) {
    if (!pids.empty()) pids += ' ';
    pids += std::to_string(pid);
  }
  table.add_row({"excluded pids", pids.empty() ? "-" : pids});
  table.add_row({"re-plans", util::Table::num(
                                 static_cast<long long>(replans))});
  table.add_row({"messages lost", util::Table::num(static_cast<long long>(
                                      messages_lost))});
  table.add_row(
      {"retries", util::Table::num(static_cast<long long>(retries))});
  table.add_row({"completed", completed ? "yes" : "no"});
  return table;
}

ResilienceReport run_with_replanning(const MachineTree& tree,
                                     CollectiveKind kind, std::size_t n,
                                     const sim::SimParams& params,
                                     const faults::FaultPlan& plan) {
  plan.validate();
  obs::Registry::global().counter("coll.resilience_runs").increment();

  ResilienceReport report;
  {
    const CollectiveAdvice advice = advise(tree, kind, n);
    sim::ClusterSim sim{tree, params};
    report.fault_free_makespan = sim.run(advice.plan(tree, n)).makespan;
  }

  // Abort-and-restart loop: run on the current survivor machine until the
  // detector excludes someone, then carry the elapsed time forward, shift the
  // fault plan, re-rank the survivors and restart the collective. Each round
  // removes at least one processor, so at most p rounds run.
  MachineTree current = tree;
  std::vector<int> to_original(static_cast<std::size_t>(tree.num_processors()));
  for (std::size_t i = 0; i < to_original.size(); ++i) {
    to_original[i] = static_cast<int>(i);
  }
  faults::FaultPlan remaining = plan;
  double elapsed = 0.0;

  for (;;) {
    if (current.num_processors() < 2) {
      // The advisor needs at least two processors; the collective cannot be
      // completed on what is left.
      report.completed = false;
      report.degraded_makespan = elapsed;
      return report;
    }

    const CollectiveAdvice advice = advise(current, kind, n);
    const CommSchedule schedule = advice.plan(current, n);
    const faults::FaultInjector injector{remaining};
    sim::ClusterSim sim{current, params};
    sim.set_fault_injector(&injector);

    const sim::RunMetrics& record = sim.run_metrics();
    bool aborted = false;
    for (const Phase& phase : schedule.phases) {
      sim.execute_phase(phase);
      if (!record.excluded_pids.empty()) {
        aborted = true;
        break;
      }
    }
    report.messages_lost += record.messages_lost;
    report.retries += record.retries;

    if (!aborted) {
      report.degraded_makespan = elapsed + sim.makespan();
      report.completed = true;
      return report;
    }

    // Detection time: the latest survivor clock after the stalled barrier.
    const double detected = sim.makespan();
    elapsed += detected;
    ++report.replans;
    obs::Registry::global().counter("coll.replans").increment();
    const std::vector<int> dead = record.excluded_pids;
    for (const int pid : dead) {
      report.excluded_pids.push_back(
          to_original[static_cast<std::size_t>(pid)]);
    }
    if (static_cast<int>(dead.size()) >= current.num_processors()) {
      report.completed = false;
      report.degraded_makespan = elapsed;
      return report;
    }

    SurvivorTree survivors = remove_processors(current, dead);
    remaining = remap_fault_plan(remaining, detected, survivors.to_original);
    std::vector<int> next(survivors.to_original.size());
    for (std::size_t i = 0; i < next.size(); ++i) {
      next[i] = to_original[static_cast<std::size_t>(
          survivors.to_original[i])];
    }
    to_original = std::move(next);
    current = std::move(survivors.tree);
  }
}

}  // namespace hbsp::coll
