#pragma once
// Embedded scenario-advisory service: the repo's first request path.
//
// Every consumer of the HBSP^k planner/simulator so far is a batch binary;
// the ROADMAP's north star is a shared advisor serving heavy concurrent
// traffic. Service turns the PR 5 caches and the PR 1 thread pool into that
// serving layer: clients submit typed requests (AdviseRequest / PlanRequest /
// SimulateRequest) and receive a shared future for a Response carrying the
// plan, its predicted (§3.4 CostModel) cost, the simulated makespan, and
// provenance metadata.
//
// Three serving mechanisms, all decided synchronously at submit() in call
// order (which is what makes the load harness's outcome tally a pure
// function of the arrival sequence):
//
//   coalescing    the in-flight table is keyed on the request content
//                 verbatim (kind, planner request, n, and the machine tree,
//                 SimParams and fault plan by content fingerprint). A
//                 request whose content matches an in-flight twin attaches
//                 to the twin's future instead of consuming a queue slot —
//                 N identical concurrent requests trigger exactly one
//                 compute. This is decided at submit, before any compute
//                 starts, so it cannot reuse the caches' in-flight entries.
//
//   admission     the queue is bounded (ServiceConfig::queue_capacity, total
//                 across shards). A request that finds the queue full is
//                 rejected immediately with Outcome::kRejectedQueueFull —
//                 explicit backpressure, never a silent drop.
//
//   deadlines     a request may carry a Deadline. Already-expired deadlines
//                 are rejected at submit with kRejectedDeadlineExceeded
//                 without executing; a queued job re-checks at dispatch. A
//                 coalesced group computes if *any* member's deadline is
//                 still live (the work is wanted, so late members share the
//                 result rather than wasting it).
//
// Execution runs on a util::ThreadPool, sharded by key across
// ServiceConfig::shards FIFO queues. Two drive modes:
//
//   pump()        drains every queued job on the calling thread plus the
//                 pool (one parallel_for, shard i drained in FIFO order by
//                 index i). With submissions batched between pumps, every
//                 outcome and counter is deterministic at any thread or
//                 shard count — the mode the load harness, the perf
//                 snapshot and the differential tests use.
//
//   start()/stop() spawns a background pump: pool workers park on the
//                 admission condvar and serve submissions as they arrive —
//                 the embedded-server mode. Outcome metadata (who coalesced
//                 with whom) then depends on timing, but response *content*
//                 never does.
//
// Determinism contract: ResponseBody is a pure function of request content.
// Plans come through coll::PlanCache and makespans through
// exp::ScenarioCache, so for a given request the schedule, predicted cost
// and simulated makespan are bit-identical regardless of thread count, queue
// order, shard count, or cache warmth — the differential suite in
// tests/test_svc.cpp pins Service responses against direct advisor /
// planner / simulator calls.
//
// Observability (obs::Registry::global()):
//   counters    svc.requests (+ .advise/.plan/.simulate), svc.completed,
//               svc.coalesced, svc.shed.queue_full, svc.shed.deadline —
//               deterministic totals under pump()-batched driving
//   gauge       svc.queue_depth — admission-queue high-water mark
//   histograms  svc.latency_seconds (submit -> response ready, per served
//               request), svc.exec_seconds (compute only) — wall time,
//               reported but never gated
//
// Tracing (obs::TraceRecorder::global(), when enabled): every sampled submit
// yields exactly one kRequest span on its own "req<ordinal>" track — a root
// lifecycle span for leaders that compute, an instant span for coalesced
// twins and shed requests — plus kStage children (queue, plan, simulate) on
// svc's sanctioned clock and, nested under the request context, the
// simulator's virtual-time spans. At trace_sample_every == 1 the kRequest
// span count reconciles exactly with the svc.requests counter.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "core/machine.hpp"
#include "faults/fault_plan.hpp"
#include "sim/sim_params.hpp"
#include "svc/deadline.hpp"
#include "util/thread_pool.hpp"

namespace hbsp::svc {

/// The three request types the service understands, in increasing depth:
/// plan only, plan + simulate, full §4 advice + plan + simulate.
enum class RequestKind : std::uint8_t { kAdvise, kPlan, kSimulate };

[[nodiscard]] const char* to_string(RequestKind kind) noexcept;

/// Full advisory: run the §4 decision procedure for `collective` moving `n`
/// items on `tree`, plan the chosen configuration, and simulate it under
/// `params`. The response carries the advisor's rationale.
struct AdviseRequest {
  std::shared_ptr<const MachineTree> tree;
  coll::CollectiveKind collective = coll::CollectiveKind::kGather;
  std::size_t n = 0;
  sim::SimParams params;
};

/// Plan a caller-specified configuration (no advisor, no simulation):
/// the serving-path equivalent of coll::PlanCache::get.
struct PlanRequest {
  std::shared_ptr<const MachineTree> tree;
  coll::PlanRequest spec;
};

/// Plan a caller-specified configuration and simulate it, optionally under
/// a fault plan (null = fault-free): "what would this cost me right now?".
struct SimulateRequest {
  std::shared_ptr<const MachineTree> tree;
  coll::PlanRequest spec;
  sim::SimParams params;
  std::shared_ptr<const faults::FaultPlan> fault_plan;  ///< null = fault-free
};

/// How a request left the service. Rejections are always explicit — the
/// service never drops a request silently.
enum class Outcome : std::uint8_t {
  kCompleted,
  kRejectedQueueFull,         ///< bounded admission queue was full at submit
  kRejectedDeadlineExceeded,  ///< deadline passed before the compute started
};

[[nodiscard]] const char* to_string(Outcome outcome) noexcept;

/// The deterministic half of a response: a pure function of request content,
/// bit-identical at any thread count, shard count, queue order or cache
/// warmth. Only meaningful when the outcome is kCompleted.
struct ResponseBody {
  /// The configuration that was planned: the caller's spec for kPlan /
  /// kSimulate, the advisor's choice for kAdvise.
  coll::PlanRequest spec;
  /// The schedule realising `spec` plus its §3.4 predicted cost, shared
  /// with coll::PlanCache (immutable; safe to hold past cache clears).
  std::shared_ptr<const coll::CachedPlan> plan;
  bool simulated = false;           ///< kAdvise and kSimulate runs only
  double simulated_makespan = 0.0;  ///< exp::ScenarioCache makespan
  std::string rationale;            ///< advisor runs only

  /// Stable content digest (spec, schedule fingerprint, costs, rationale) —
  /// what the differential tests and the load harness checksum.
  [[nodiscard]] std::uint64_t content_fingerprint() const noexcept;
};

/// Execution metadata: legitimately run-dependent (which shard computed,
/// how many twins were served, when it finished). Never part of the
/// determinism contract.
struct Provenance {
  std::uint64_t key = 0;       ///< request content digest (picks the shard)
  int shard = -1;              ///< admission shard, key % shards
  std::uint64_t served = 1;    ///< requests answered by this one compute
  double completed_at = 0.0;   ///< now_seconds() when the response was ready
};

struct Response {
  Outcome outcome = Outcome::kCompleted;
  ResponseBody body;  ///< valid only when outcome == kCompleted
  Provenance provenance;
};

/// What submit() hands back: the (possibly shared) response future plus the
/// submit-time facts the caller may want without blocking.
struct Ticket {
  std::shared_future<Response> response;
  std::uint64_t key = 0;
  bool coalesced = false;  ///< attached to an in-flight twin's future
};

struct ServiceConfig {
  int threads = 1;  ///< executor pool width; < 1 uses the hardware count
  int shards = 1;   ///< admission-queue shards (>= 1), jobs land on key % shards
  /// Total queued-job bound across all shards; 0 = unbounded (never sheds).
  std::size_t queue_capacity = 64;
  /// Request-lifecycle tracing (active only while the global TraceRecorder
  /// is enabled): spans are recorded for 1-in-`trace_sample_every` submits,
  /// decided by obs::TraceRecorder::sampled(trace_seed, submit ordinal, N) —
  /// seeded and reproducible, so the load harness can trace under full load.
  /// 1 traces every request; unsampled computes are muted so they leak no
  /// simulator spans either.
  std::uint64_t trace_sample_every = 1;
  std::uint64_t trace_seed = 0;
};

class Service {
 public:
  explicit Service(ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  /// Admits, coalesces, or rejects the request — synchronously, in call
  /// order — and returns a ticket whose future completes when the compute
  /// does (immediately, for rejections). Throws std::invalid_argument on a
  /// null machine tree; planner/simulator errors surface through the future.
  Ticket submit(AdviseRequest request, Deadline deadline = Deadline::never());
  Ticket submit(PlanRequest request, Deadline deadline = Deadline::never());
  Ticket submit(SimulateRequest request, Deadline deadline = Deadline::never());

  /// Drains every currently queued job on the calling thread plus the pool
  /// (shard i is drained in FIFO order by parallel_for index i). The
  /// deterministic drive mode: submissions batched between pump() calls
  /// yield outcome tallies that are pure functions of the submit sequence.
  /// Must not be called while the background executor is running.
  void pump();

  /// Spawns the background executor: pool workers park on the admission
  /// queue and serve submissions as they arrive. Idempotent.
  void start();

  /// Drains the remaining queue, stops the workers, and joins. Idempotent;
  /// the destructor calls it.
  void stop();

  [[nodiscard]] bool running() const;

  /// Jobs admitted but not yet dispatched (excludes executing jobs).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  /// A request normalised to one shape, with every fingerprint coalescing
  /// compares precomputed.
  struct Canonical {
    /// What coalescing compares, verbatim: trees, SimParams and fault plans
    /// by content fingerprint, like the caches. Fields a kind does not use
    /// keep their defaults, so comparing whole Contents compares per kind.
    struct Content {
      RequestKind kind = RequestKind::kPlan;
      std::uint64_t tree_fingerprint = 0;
      coll::CollectiveKind collective = coll::CollectiveKind::kGather;
      std::size_t n = 0;                     // advise: collective, n
      coll::PlanRequest spec;                // plan / simulate
      std::uint64_t params_fingerprint = 0;  // advise / simulate
      bool faulted = false;                  // simulate
      std::uint64_t fault_fingerprint = 0;   // simulate

      friend auto operator<=>(const Content&, const Content&) = default;
    };

    Content content;
    std::shared_ptr<const MachineTree> tree;
    sim::SimParams params;                                // advise / simulate
    std::shared_ptr<const faults::FaultPlan> fault_plan;  // simulate

    /// 64-bit digest of `content`: picks the shard and is the provenance key.
    [[nodiscard]] std::uint64_t key() const noexcept;
  };

  /// One admitted compute plus everyone waiting on it.
  struct Job {
    Canonical request;
    std::uint64_t key = 0;
    int shard = 0;
    std::uint64_t ordinal = 0;  ///< submit ordinal of the leading member
    bool traced = false;        ///< sampled for lifecycle spans at admit time
    /// max over all members' deadlines: compute while anyone still wants it.
    double effective_deadline = 0.0;
    /// submit times of every member (leader first), for latency histograms.
    std::vector<double> member_submits;
    std::promise<Response> promise;
    std::shared_future<Response> future;
  };

  Ticket admit(Canonical request, Deadline deadline);
  void execute(const std::shared_ptr<Job>& job);
  [[nodiscard]] Response compute(const Canonical& request);
  void drain_shard(std::size_t shard);
  void worker_loop(std::size_t worker);

  /// Pops the oldest job of the preferred shard, else steals the oldest
  /// queued job from any shard. Must hold mutex_. Null when empty.
  std::shared_ptr<Job> pop_locked(std::size_t preferred_shard);

  ServiceConfig config_;
  util::ThreadPool pool_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::deque<std::shared_ptr<Job>>> queues_;  ///< one per shard
  /// In-flight jobs (queued or executing) by request content.
  std::map<Canonical::Content, std::shared_ptr<Job>> inflight_;
  std::size_t queued_ = 0;   ///< jobs admitted, not yet dispatched
  std::size_t depth_high_water_ = 0;
  std::uint64_t next_ordinal_ = 0;  ///< submit ordinal; keys trace sampling
  bool stopping_ = false;
  bool running_ = false;
  std::thread executor_;  ///< drives pool_.parallel_for in background mode
};

}  // namespace hbsp::svc
