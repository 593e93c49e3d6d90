#pragma once
// Memoized collective planning: the planner half of the scenario-throughput
// layer.
//
// Sweeps re-derive the same CommSchedule thousands of times — every fig3a
// cell with the same (p, n, root) pair, every chaos cell (whose 16 cells
// share one machine and four plans), every warm perf_snapshot repetition.
// PlanCache memoizes (machine fingerprint, PlanRequest) → (schedule,
// predicted cost) on a util::Memo: the first requester builds while
// concurrent requesters for the same key block until the entry is ready.
// The request is part of the key verbatim, so two different requests never
// share an entry. That blocking discipline is what keeps the obs counters
// deterministic — misses equal the number of *distinct* keys requested,
// never a function of thread scheduling — so the perf gate can keep
// exact-matching every counter across thread counts. An entry also keeps
// its schedule's fingerprint once first asked (CachedPlan::fingerprint),
// which is what scenario lookups and svc response digests read.
//
// Determinism contract:
//   - plancache.misses == callers that became the builder of a key (counted
//                         before building, so a rejected request counts too)
//   - plancache.hits   == requests served from an existing entry (including
//                         requests that waited for a concurrent build)
// Entries are never evicted; clear() at workload boundaries is what makes a
// cold timing cold.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "collectives/advisor.hpp"
#include "core/machine.hpp"
#include "core/schedule.hpp"
#include "util/memo.hpp"

namespace hbsp::coll {

/// Everything that parameterises a planner call, independent of the machine.
/// `root_pid` is -1 for rootless collectives; `top_phase` only matters for
/// broadcast but participates in every key (it is defaulted elsewhere).
struct PlanRequest {
  CollectiveKind kind = CollectiveKind::kGather;
  std::size_t n = 0;
  int root_pid = -1;
  Shares shares = Shares::kBalanced;
  TopPhase top_phase = TopPhase::kTwoPhase;

  friend auto operator<=>(const PlanRequest&, const PlanRequest&) = default;
};

/// The planner dispatch behind CollectiveAdvice::plan, cache-free: builds
/// the schedule realising `request` on `tree` (allgather picks the flat or
/// hierarchical form by the tree's shape, as the advisor does).
[[nodiscard]] CommSchedule build_plan(const MachineTree& tree,
                                      const PlanRequest& request);

/// Stable content fingerprint of a planner request: folds every field (kind,
/// n, root, shares, top phase) through util::Hash64. svc's shard keys and
/// response fingerprints build on it.
[[nodiscard]] std::uint64_t plan_request_fingerprint(
    const PlanRequest& request) noexcept;

/// A memoized plan: the schedule plus its CostModel price on the machine it
/// was built for (the §3.4 predicted cost the advisor would compute).
struct CachedPlan {
  CommSchedule schedule;
  double predicted_cost = 0.0;

  /// schedule.fingerprint(), hashed on the first call and kept: every later
  /// scenario lookup and response digest of this plan reads one word instead
  /// of re-hashing every transfer. Lazy rather than stamped at build because
  /// most plans are never simulated through the memo: the advisor prices
  /// every candidate and keeps one, and hashing the rest would add to every
  /// planning pass. Concurrent first callers hash once (std::call_once) and
  /// all read the same value. The schedule must not change after the first
  /// call; the cache hands plans out const, so a memoized one cannot.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  /// A copy starts unstamped and hashes its own schedule on first use. The
  /// memo moves each freshly built plan into its entry through this copy,
  /// before anyone can call fingerprint().
  struct Stamp {
    Stamp() = default;
    Stamp(const Stamp&) noexcept {}

    std::once_flag once;
    std::uint64_t value = 0;
  };
  mutable Stamp stamp_;
};

class PlanCache {
 public:
  /// The process-wide cache the experiments layer and the advisor share.
  /// clear() it at workload boundaries when cold timings matter.
  static PlanCache& global();

  /// Returns the memoized plan for `request` on `tree`, building it on first
  /// use. Concurrent requests for the same key block until the builder
  /// finishes. The returned pointer is immutable and safe to hold after
  /// clear().
  std::shared_ptr<const CachedPlan> get(const MachineTree& tree,
                                        const PlanRequest& request);

  /// Drops every completed entry (builds in flight finish normally).
  void clear() { memo_.clear(); }

  [[nodiscard]] std::size_t size() const { return memo_.size(); }

 private:
  /// (machine-tree fingerprint, request verbatim).
  using Key = std::pair<std::uint64_t, PlanRequest>;

  util::Memo<Key, CachedPlan> memo_;
};

}  // namespace hbsp::coll
