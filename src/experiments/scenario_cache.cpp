#include "experiments/scenario_cache.hpp"

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hbsp::exp {
namespace {

ScenarioKey scenario_key(const MachineTree& tree,
                         const CommSchedule& schedule,
                         const sim::SimParams& params,
                         const faults::FaultInjector* injector) {
  util::Hash64 fault;
  fault.add(injector != nullptr ? 1u : 0u);
  fault.add(injector != nullptr ? injector->plan().fingerprint() : 0u);
  return ScenarioKey{
      .tree_fingerprint = tree.fingerprint(),
      .schedule_fingerprint = schedule.fingerprint(),
      .params_fingerprint = params.fingerprint(),
      .fault_fingerprint = fault.digest(),
  };
}

}  // namespace

ScenarioCache& ScenarioCache::global() {
  static ScenarioCache cache;
  return cache;
}

double ScenarioCache::makespan(const MachineTree& tree,
                               const CommSchedule& schedule,
                               const sim::SimParams& params,
                               const faults::FaultInjector* injector) {
  auto& registry = obs::Registry::global();
  bool simulated = false;
  const auto result =
      memo_.get(scenario_key(tree, schedule, params, injector), [&] {
        // Counted before simulating: a scenario the simulator rejects still
        // counts its miss.
        simulated = true;
        registry.counter("scenario.misses").increment();
        sim::ClusterSim simulator{tree, params};
        simulator.set_fault_injector(injector);
        ScenarioResult fresh;
        fresh.makespan = simulator.run(schedule).makespan;
        fresh.metrics = simulator.run_metrics();
        return fresh;
      });
  if (simulated) {
    registry.gauge("scenario.size").set(static_cast<double>(size()));
  } else {
    registry.counter("scenario.hits").increment();
    // Replay the builder's registry contribution so totals are identical
    // to an uncached re-simulation.
    sim::replay_run_metrics(result->metrics);
  }
  return result->makespan;
}

}  // namespace hbsp::exp
