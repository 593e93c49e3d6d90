#include "experiments/figures.hpp"

#include <string>

#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "experiments/scenario_cache.hpp"
#include "sim/cluster_sim.hpp"
#include "util/units.hpp"

namespace hbsp::exp {
namespace {

using coll::CollectiveKind;
using coll::PlanCache;
using coll::PlanRequest;
using coll::Shares;
using coll::TopPhase;

/// The memoized plan for a gather request (the cells' most common shape).
std::shared_ptr<const coll::CachedPlan> cached_gather(const MachineTree& tree,
                                                      std::size_t n,
                                                      int root_pid,
                                                      Shares shares) {
  return PlanCache::global().get(tree,
                                 PlanRequest{.kind = CollectiveKind::kGather,
                                             .n = n,
                                             .root_pid = root_pid,
                                             .shares = shares});
}

/// The memoized plan for a two-phase broadcast request.
std::shared_ptr<const coll::CachedPlan> cached_broadcast(
    const MachineTree& tree, std::size_t n, int root_pid, Shares shares) {
  return PlanCache::global().get(tree,
                                 PlanRequest{.kind = CollectiveKind::kBroadcast,
                                             .n = n,
                                             .root_pid = root_pid,
                                             .shares = shares,
                                             .top_phase = TopPhase::kTwoPhase});
}

SweepGrid grid_of(const FigureConfig& config) {
  return {config.processors, config.kbytes, config.noise.seed};
}

/// The cell's private BYTEmark noise stream: same sigma as the config, seed
/// split from the master by the cell's grid position.
bytemark::NoiseOptions cell_noise(const FigureConfig& config,
                                  const SweepCell& cell) {
  return {.stddev = config.noise.stddev, .seed = cell.seed};
}

}  // namespace

double simulate_makespan(const MachineTree& tree, const CommSchedule& schedule,
                         const sim::SimParams& params,
                         const faults::FaultInjector* injector) {
  return ScenarioCache::global().makespan(tree, schedule, params, injector);
}

MachineTree make_ranked_testbed(int p, const FigureConfig& config) {
  return make_ranked_testbed(p, config, config.noise);
}

MachineTree make_ranked_testbed(int p, const FigureConfig& config,
                                const bytemark::NoiseOptions& noise) {
  const MachineTree truth = make_paper_testbed(p, config.g, config.L);
  const bytemark::Ranking ranking = bytemark::rank_simulated(truth, noise);

  // True r values (the hardware doesn't change), estimated c fractions (the
  // practitioner only has benchmark scores to balance with, §5.1).
  MachineSpec root;
  root.name = "testbed";
  root.sync_L = config.L;
  const auto speeds = paper_testbed_speeds();
  for (int pid = 0; pid < p; ++pid) {
    MachineSpec leaf;
    leaf.name = "ws" + std::to_string(pid);
    leaf.r = speeds[static_cast<std::size_t>(pid)];
    leaf.c = ranking.fractions[static_cast<std::size_t>(pid)];
    root.children.push_back(std::move(leaf));
  }
  return MachineTree::build(root, config.g);
}

ImprovementTable gather_root_experiment(const FigureConfig& config,
                                        SweepRunner& runner) {
  return runner.run(grid_of(config), [&config](const SweepCell& cell) {
    const MachineTree tree = make_paper_testbed(cell.p, config.g, config.L);
    const int fast = tree.coordinator_pid(tree.root());
    const int slow = tree.slowest_pid(tree.root());
    const auto plan_f = cached_gather(tree, cell.n, fast, Shares::kEqual);
    const auto plan_s = cached_gather(tree, cell.n, slow, Shares::kEqual);
    const double t_f = simulate_makespan(tree, plan_f->schedule, config.sim);
    const double t_s = simulate_makespan(tree, plan_s->schedule, config.sim);
    return t_s / t_f;
  });
}

ImprovementTable gather_balance_experiment(const FigureConfig& config,
                                           SweepRunner& runner) {
  return runner.run(grid_of(config), [&config](const SweepCell& cell) {
    const MachineTree tree =
        make_ranked_testbed(cell.p, config, cell_noise(config, cell));
    const int fast = tree.coordinator_pid(tree.root());
    const auto plan_u = cached_gather(tree, cell.n, fast, Shares::kEqual);
    const auto plan_b = cached_gather(tree, cell.n, fast, Shares::kBalanced);
    const double t_u = simulate_makespan(tree, plan_u->schedule, config.sim);
    const double t_b = simulate_makespan(tree, plan_b->schedule, config.sim);
    return t_u / t_b;
  });
}

ImprovementTable broadcast_root_experiment(const FigureConfig& config,
                                           SweepRunner& runner) {
  return runner.run(grid_of(config), [&config](const SweepCell& cell) {
    const MachineTree tree = make_paper_testbed(cell.p, config.g, config.L);
    const int fast = tree.coordinator_pid(tree.root());
    const int slow = tree.slowest_pid(tree.root());
    const auto plan_f = cached_broadcast(tree, cell.n, fast, Shares::kEqual);
    const auto plan_s = cached_broadcast(tree, cell.n, slow, Shares::kEqual);
    const double t_f = simulate_makespan(tree, plan_f->schedule, config.sim);
    const double t_s = simulate_makespan(tree, plan_s->schedule, config.sim);
    return t_s / t_f;
  });
}

ImprovementTable broadcast_balance_experiment(const FigureConfig& config,
                                              SweepRunner& runner) {
  return runner.run(grid_of(config), [&config](const SweepCell& cell) {
    const MachineTree tree =
        make_ranked_testbed(cell.p, config, cell_noise(config, cell));
    const int fast = tree.coordinator_pid(tree.root());
    const auto plan_u = cached_broadcast(tree, cell.n, fast, Shares::kEqual);
    const auto plan_b = cached_broadcast(tree, cell.n, fast, Shares::kBalanced);
    const double t_u = simulate_makespan(tree, plan_u->schedule, config.sim);
    const double t_b = simulate_makespan(tree, plan_b->schedule, config.sim);
    return t_u / t_b;
  });
}

ImprovementTable gather_root_experiment(const FigureConfig& config) {
  SweepRunner runner{config.threads};
  return gather_root_experiment(config, runner);
}

ImprovementTable gather_balance_experiment(const FigureConfig& config) {
  SweepRunner runner{config.threads};
  return gather_balance_experiment(config, runner);
}

ImprovementTable broadcast_root_experiment(const FigureConfig& config) {
  SweepRunner runner{config.threads};
  return broadcast_root_experiment(config, runner);
}

ImprovementTable broadcast_balance_experiment(const FigureConfig& config) {
  SweepRunner runner{config.threads};
  return broadcast_balance_experiment(config, runner);
}

}  // namespace hbsp::exp
