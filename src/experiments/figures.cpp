#include "experiments/figures.hpp"

#include <string>

#include "collectives/plan_cache.hpp"
#include "core/topology.hpp"
#include "experiments/scenario_cache.hpp"

namespace hbsp::exp {
namespace {

using coll::CollectiveKind;
using coll::PlanRequest;
using coll::Shares;

/// What a figure compares: root slowest vs fastest at equal shares (3a, 4a)
/// or equal vs balanced shares at the fastest root (3b, 4b).
enum class Comparison { kRoot, kBalance };

/// The one body of the four figure sweeps. Root cells run on the true
/// testbed; balance cells on the cell's BYTEmark-ranked one, whose noise
/// stream has the config's sigma and a seed split from the master by the
/// cell's grid position.
ImprovementTable figure_sweep(const FigureConfig& config, SweepRunner& runner,
                              CollectiveKind kind, Comparison comparison) {
  return runner.run(
      {config.processors, config.kbytes, config.noise.seed},
      [&config, kind, comparison](const SweepCell& cell) {
        const bool balance = comparison == Comparison::kBalance;
        const MachineTree tree =
            balance ? make_ranked_testbed(
                          cell.p, config,
                          {.stddev = config.noise.stddev, .seed = cell.seed})
                    : make_paper_testbed(cell.p, config.g, config.L);
        const int fast = tree.coordinator_pid(tree.root());
        const auto request = [&](int root_pid, Shares shares) {
          return PlanRequest{.kind = kind,
                             .n = cell.n,
                             .root_pid = root_pid,
                             .shares = shares};
        };
        if (balance) {
          return improvement_factor(tree, request(fast, Shares::kEqual),
                                    request(fast, Shares::kBalanced),
                                    config.sim);
        }
        return improvement_factor(
            tree, request(tree.slowest_pid(tree.root()), Shares::kEqual),
            request(fast, Shares::kEqual), config.sim);
      });
}

}  // namespace

double simulate_makespan(const MachineTree& tree, const CommSchedule& schedule,
                         const sim::SimParams& params,
                         const faults::FaultInjector* injector) {
  return ScenarioCache::global().makespan(tree, schedule, params, injector);
}

double simulate_makespan(const MachineTree& tree, const coll::CachedPlan& plan,
                         const sim::SimParams& params,
                         const faults::FaultInjector* injector) {
  return ScenarioCache::global().makespan(tree, plan, params, injector);
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

double improvement_factor(const MachineTree& tree,
                          const PlanRequest& numerator,
                          const PlanRequest& denominator,
                          const sim::SimParams& params,
                          const faults::FaultInjector* injector) {
  auto& plans = coll::PlanCache::global();
  const auto plan_denominator = plans.get(tree, denominator);
  const auto plan_numerator = plans.get(tree, numerator);
  const double t_denominator =
      simulate_makespan(tree, *plan_denominator, params, injector);
  const double t_numerator =
      simulate_makespan(tree, *plan_numerator, params, injector);
  return t_numerator / t_denominator;
}

ImprovementTable gather_root_experiment(const FigureConfig& config,
                                        SweepRunner& runner) {
  return figure_sweep(config, runner, CollectiveKind::kGather,
                      Comparison::kRoot);
}

ImprovementTable gather_balance_experiment(const FigureConfig& config,
                                           SweepRunner& runner) {
  return figure_sweep(config, runner, CollectiveKind::kGather,
                      Comparison::kBalance);
}

ImprovementTable broadcast_root_experiment(const FigureConfig& config,
                                           SweepRunner& runner) {
  return figure_sweep(config, runner, CollectiveKind::kBroadcast,
                      Comparison::kRoot);
}

ImprovementTable broadcast_balance_experiment(const FigureConfig& config,
                                              SweepRunner& runner) {
  return figure_sweep(config, runner, CollectiveKind::kBroadcast,
                      Comparison::kBalance);
}

}  // namespace hbsp::exp
