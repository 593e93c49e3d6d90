#include "collectives/plan_cache.hpp"

#include <stdexcept>

#include "collectives/planners.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace hbsp::coll {

CommSchedule build_plan(const MachineTree& tree, const PlanRequest& request) {
  switch (request.kind) {
    case CollectiveKind::kGather:
      return plan_gather(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kBroadcast:
      return plan_broadcast(tree, request.n,
                            {.root_pid = request.root_pid,
                             .top_phase = request.top_phase,
                             .shares = request.shares});
    case CollectiveKind::kScatter:
      return plan_scatter(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kReduce:
      return plan_reduce_tree(
          tree, request.n,
          {.root_pid = request.root_pid, .shares = request.shares});
    case CollectiveKind::kAllgather: {
      for (int j = 0; j < tree.num_children(tree.root()); ++j) {
        if (!tree.is_processor(tree.child(tree.root(), j))) {
          return plan_allgather_tree(tree, request.n, request.shares);
        }
      }
      return plan_allgather(tree, request.n, request.shares);
    }
    case CollectiveKind::kScan:
      return plan_scan(tree, request.n, request.shares);
    case CollectiveKind::kAlltoall:
      return plan_alltoall(tree, request.n, request.shares);
  }
  throw std::logic_error{"build_plan: bad kind"};
}

std::uint64_t plan_request_fingerprint(const PlanRequest& request) noexcept {
  util::Hash64 hash;
  hash.add(static_cast<std::uint64_t>(request.kind));
  hash.add(request.n);
  hash.add_int(request.root_pid);
  hash.add(static_cast<std::uint64_t>(request.shares));
  hash.add(static_cast<std::uint64_t>(request.top_phase));
  return hash.digest();
}

std::uint64_t CachedPlan::fingerprint() const {
  std::call_once(stamp_.once,
                 [this] { stamp_.value = schedule.fingerprint(); });
  return stamp_.value;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const CachedPlan> PlanCache::get(const MachineTree& tree,
                                                 const PlanRequest& request) {
  auto& registry = obs::Registry::global();
  bool built = false;
  auto plan = memo_.get(Key{tree.fingerprint(), request}, [&] {
    // Counted before building: a planner rejection (e.g. a flat-only
    // collective on a hierarchy) still counts its miss.
    built = true;
    registry.counter("plancache.misses").increment();
    CachedPlan fresh;
    fresh.schedule = build_plan(tree, request);
    fresh.predicted_cost = CostModel{tree}.cost(fresh.schedule).total();
    return fresh;
  });
  if (built) {
    registry.gauge("plancache.size").set(static_cast<double>(size()));
  } else {
    // Resolved once per thread, as sim::add_to_registry's handles are.
    thread_local obs::Counter hits = registry.counter("plancache.hits");
    hits.increment();
  }
  return plan;
}

}  // namespace hbsp::coll
