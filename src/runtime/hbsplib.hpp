#pragma once
// The HBSPlib-like programming interface (paper §5.1).
//
// Programs are SPMD: one `Program` callable runs per processor against an
// `Hbsp` context providing message passing, hierarchical synchronisation,
// and the heterogeneity enquiry primitives the paper describes ("functions
// [that] return the rank of a processor as well as guide the programmer
// toward balanced workloads").
//
// Execution semantics follow §3.2: within a super^i-step a processor
// computes locally and sends messages; a message sent in one superstep is
// available at the destination at the beginning of the next; every superstep
// ends with a barrier over the synchronised subtree. `sync()` synchronises
// the whole machine; `sync_scope(cluster)` runs the cluster-local barrier of
// a super^i-step (concurrent across disjoint clusters).
//
// Two engines execute the same program:
//   kVirtualTime  — processors are real threads, but time is the cluster
//                   simulator's deterministic virtual clock (the default; the
//                   reproduction's measurements all use this engine);
//   kWallClock    — pure std::thread execution with real barriers; used to
//                   cross-check payload semantics against the simulator.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/machine.hpp"
#include "runtime/message.hpp"
#include "sim/sim_params.hpp"

namespace hbsp::faults {
class FaultInjector;
}  // namespace hbsp::faults

namespace hbsp::rt {

enum class EngineKind { kVirtualTime, kWallClock };

[[nodiscard]] std::string_view to_string(EngineKind kind) noexcept;

class Runtime;  // internal coordinator

/// Per-processor SPMD context. Not copyable; valid only for the duration of
/// the program run. All methods are called from the owning processor's
/// thread only.
class Hbsp {
 public:
  // --- identity & machine enquiry -----------------------------------------
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] int nprocs() const noexcept;
  [[nodiscard]] const MachineTree& machine() const noexcept;

  // --- heterogeneity enquiry (HBSPlib extensions) --------------------------
  /// This processor's relative slowness r (1 = fastest machine).
  [[nodiscard]] double speed() const;
  /// Rank by speed: 0 is the fastest processor (ties broken by pid).
  [[nodiscard]] int rank_by_speed() const;
  [[nodiscard]] int fastest_pid() const;
  [[nodiscard]] int slowest_pid() const;
  /// Balanced shares of n items over all processors, indexed by pid and
  /// summing to n: the split the balanced collectives expect
  /// (analysis::leaf_shares with Shares::kBalanced, each cluster's share
  /// divided over its members by c).
  [[nodiscard]] std::vector<std::size_t> balanced_shares(std::size_t n) const;
  /// This processor's entry of balanced_shares(n).
  [[nodiscard]] std::size_t my_balanced_share(std::size_t n) const;

  // --- message passing ------------------------------------------------------
  /// Queues `payload` to `dst`; delivered at the start of the next superstep.
  /// `items` is the model-packet count for cost accounting (defaults to
  /// payload bytes / 4, the paper's integer packets). Self-sends are
  /// delivered but cost nothing (§5.2).
  void send(int dst, std::vector<std::byte> payload, std::size_t items = SIZE_MAX,
            int tag = 0);

  /// Convenience: sends a span of trivially-copyable values; items = count.
  template <typename T>
  void send_items(int dst, std::span<const T> values, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const std::byte*>(values.data());
    send(dst, std::vector<std::byte>(bytes, bytes + values.size_bytes()),
         values.size(), tag);
  }

  /// Moves out all messages delivered at the last synchronisation, ordered by
  /// (sending superstep, src pid, per-sender issue order).
  [[nodiscard]] std::vector<Message> recv_all();

  /// Messages waiting from the last synchronisation without consuming them.
  [[nodiscard]] std::size_t pending_messages() const;

  // --- computation & synchronisation ---------------------------------------
  /// Accrues `ops` abstract operations of local work, charged to this
  /// processor's virtual clock at the next synchronisation.
  void charge_compute(double ops);

  /// Whole-machine barrier: ends the current superstep at the root scope.
  void sync();

  /// Cluster barrier: ends a super^i-step over `scope`'s subtree. Every
  /// processor in the subtree must call it (with the same scope) before any
  /// participant proceeds; sends issued this superstep must stay inside the
  /// scope.
  void sync_scope(MachineId scope);

  /// Current time of this processor: virtual seconds (kVirtualTime) or wall
  /// seconds since the run started (kWallClock).
  [[nodiscard]] double time() const;

  [[nodiscard]] EngineKind engine() const noexcept;

  Hbsp(const Hbsp&) = delete;
  Hbsp& operator=(const Hbsp&) = delete;

 private:
  friend class Runtime;
  Hbsp(Runtime& runtime, int pid) : runtime_(&runtime), pid_(pid) {}

  Runtime* runtime_;
  int pid_;
};

using Program = std::function<void(Hbsp&)>;

/// Outcome of a program run.
struct RunResult {
  double makespan = 0.0;             ///< latest processor finish time
  std::vector<double> finish_times;  ///< per pid
  std::size_t supersteps = 0;        ///< barrier phases executed (any scope)
};

/// Tunables for a program run.
struct RunOptions {
  EngineKind engine = EngineKind::kVirtualTime;
  /// Wall-clock seconds a processor may wait at a barrier before the run is
  /// failed with "barrier timeout" — the guard against mismatched sync_scope
  /// calls deadlocking a program forever.
  double barrier_timeout_seconds = 60.0;

  /// Optional fault injector for the virtual-time engine: slowdown windows,
  /// message loss (re-sent with timeout/backoff), and machine drops perturb
  /// the *virtual clock* exactly as in ClusterSim. Payload delivery between
  /// program instances is unaffected — the simulated transport re-sends
  /// until delivery — so program semantics stay intact while timings
  /// degrade honestly. Must outlive the run; ignored by kWallClock.
  const faults::FaultInjector* fault_injector = nullptr;
};

/// Runs `program` SPMD on every processor of `tree` and blocks until all
/// finish. Exceptions thrown by any instance are rethrown here (first one
/// wins) after all threads have been joined.
RunResult run_program(const MachineTree& tree, const sim::SimParams& params,
                      const Program& program,
                      EngineKind engine = EngineKind::kVirtualTime);

/// As above with explicit options.
RunResult run_program(const MachineTree& tree, const sim::SimParams& params,
                      const Program& program, const RunOptions& options);

}  // namespace hbsp::rt
