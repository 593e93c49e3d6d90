#include "experiments/scenario_cache.hpp"

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hbsp::exp {
namespace {

ScenarioKey scenario_key(const MachineTree& tree,
                         std::uint64_t schedule_fingerprint,
                         const sim::SimParams& params,
                         const faults::FaultInjector* injector) {
  util::Hash64 fault;
  fault.add(injector != nullptr ? 1u : 0u);
  fault.add(injector != nullptr ? injector->plan().fingerprint() : 0u);
  return ScenarioKey{
      .tree_fingerprint = tree.fingerprint(),
      .schedule_fingerprint = schedule_fingerprint,
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
  return keyed_makespan(tree, schedule, schedule.fingerprint(), params,
                        injector);
}

double ScenarioCache::makespan(const MachineTree& tree,
                               const coll::CachedPlan& plan,
                               const sim::SimParams& params,
                               const faults::FaultInjector* injector) {
  return keyed_makespan(tree, plan.schedule, plan.fingerprint(), params,
                        injector);
}

double ScenarioCache::keyed_makespan(const MachineTree& tree,
                                     const CommSchedule& schedule,
                                     std::uint64_t schedule_fingerprint,
                                     const sim::SimParams& params,
                                     const faults::FaultInjector* injector) {
  auto& registry = obs::Registry::global();
  bool simulated = false;
  const auto result = memo_.get(
      scenario_key(tree, schedule_fingerprint, params, injector), [&] {
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
    // Resolved once per thread, as sim::add_to_registry's handles are.
    thread_local obs::Counter hits = registry.counter("scenario.hits");
    hits.increment();
    // Write the builder's run record again so totals are identical to an
    // uncached re-simulation.
    sim::add_to_registry(result->metrics);
  }
  return result->makespan;
}

}  // namespace hbsp::exp
