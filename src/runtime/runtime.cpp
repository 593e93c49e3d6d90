// Superstep coordinator behind the Hbsp context: one std::thread per
// processor, per-scope barriers, and timing from either the cluster
// simulator (virtual time) or the wall clock.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/analysis.hpp"
#include "runtime/hbsplib.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp::rt {
namespace {

/// Raised in peers when some processor failed; swallowed by run_program so
/// the original error is what callers see.
struct PeerFailure : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "peer processor failed";
  }
};

}  // namespace

std::string_view to_string(EngineKind kind) noexcept {
  return kind == EngineKind::kVirtualTime ? "virtual-time" : "wall-clock";
}

class Runtime {
 public:
  Runtime(const MachineTree& tree, const sim::SimParams& params,
          const RunOptions& options)
      : tree_(tree),
        engine_(options.engine),
        barrier_timeout_(std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(options.barrier_timeout_seconds))) {
    if (engine_ == EngineKind::kVirtualTime) {
      sim_ = std::make_unique<sim::ClusterSim>(tree_, params);
      if (options.fault_injector != nullptr) {
        sim_->set_fault_injector(options.fault_injector);
      }
    }
    const auto p = static_cast<std::size_t>(tree_.num_processors());
    states_.resize(p);
    // Speed ranks: 0 = fastest, ties by pid.
    std::vector<int> order(p);
    for (std::size_t i = 0; i < p; ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double ra = tree_.processor_r(a), rb = tree_.processor_r(b);
      return ra != rb ? ra < rb : a < b;
    });
    rank_of_.resize(p);
    for (std::size_t i = 0; i < p; ++i) {
      rank_of_[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    }
  }

  RunResult run(const Program& program) {
    start_ = std::chrono::steady_clock::now();
    const int p = tree_.num_processors();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    for (int pid = 0; pid < p; ++pid) {
      threads.emplace_back([this, pid, &program] {
        Hbsp ctx{*this, pid};
        try {
          program(ctx);
          std::lock_guard lock{mutex_};
          states_[static_cast<std::size_t>(pid)].finish_time = time_locked(pid);
        } catch (const PeerFailure&) {
          // Another processor owns the root cause.
        } catch (...) {
          std::lock_guard lock{mutex_};
          if (!error_) error_ = std::current_exception();
          failed_ = true;
          cv_.notify_all();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);

    RunResult result;
    result.finish_times.reserve(static_cast<std::size_t>(p));
    for (int pid = 0; pid < p; ++pid) {
      result.finish_times.push_back(
          states_[static_cast<std::size_t>(pid)].finish_time);
    }
    result.makespan = *std::max_element(result.finish_times.begin(),
                                        result.finish_times.end());
    result.supersteps = supersteps_;
    return result;
  }

  // --- Hbsp backends --------------------------------------------------------

  [[nodiscard]] const MachineTree& tree() const noexcept { return tree_; }
  [[nodiscard]] EngineKind engine() const noexcept { return engine_; }
  [[nodiscard]] int rank_of(int pid) const {
    return rank_of_[static_cast<std::size_t>(pid)];
  }

  void send(int src, int dst, std::vector<std::byte> payload, std::size_t items,
            int tag) {
    if (dst < 0 || dst >= tree_.num_processors()) {
      throw std::invalid_argument{"send: bad destination pid " +
                                  std::to_string(dst)};
    }
    if (items == SIZE_MAX) items = (payload.size() + 3) / 4;
    std::lock_guard lock{mutex_};
    auto& st = states_[static_cast<std::size_t>(src)];
    Message msg;
    msg.src_pid = src;
    msg.tag = tag;
    msg.items = items;
    msg.payload = std::move(payload);
    st.pending.push_back({dst, std::move(msg)});
  }

  std::vector<Message> recv_all(int pid) {
    std::lock_guard lock{mutex_};
    return std::exchange(states_[static_cast<std::size_t>(pid)].inbox, {});
  }

  std::size_t pending_messages(int pid) {
    std::lock_guard lock{mutex_};
    return states_[static_cast<std::size_t>(pid)].inbox.size();
  }

  void charge_compute(int pid, double ops) {
    if (ops < 0.0) throw std::invalid_argument{"charge_compute: negative ops"};
    std::lock_guard lock{mutex_};
    states_[static_cast<std::size_t>(pid)].compute_ops += ops;
  }

  double time(int pid) {
    std::lock_guard lock{mutex_};
    return time_locked(pid);
  }

  void sync_scope(int pid, MachineId scope) {
    std::unique_lock lock{mutex_};
    if (failed_) throw PeerFailure{};
    const auto [first, last] = tree_.processor_range(scope);
    if (pid < first || pid >= last) {
      record_error(std::make_exception_ptr(std::logic_error{
          "sync_scope: pid " + std::to_string(pid) + " outside scope"}));
      throw PeerFailure{};
    }

    auto& barrier = scopes_[scope_key(scope)];
    auto& st = states_[static_cast<std::size_t>(pid)];
    // Stage this processor's superstep contributions.
    barrier.staged_sends.emplace_back(pid, std::exchange(st.pending, {}));
    if (st.compute_ops > 0.0) {
      barrier.staged_compute.push_back({pid, std::exchange(st.compute_ops, 0.0)});
    }

    if (++barrier.arrived < last - first) {
      const std::uint64_t generation = barrier.generation;
      const bool woke = cv_.wait_for(lock, barrier_timeout_, [&] {
        return barrier.generation != generation || failed_;
      });
      if (failed_) throw PeerFailure{};
      if (!woke) {
        record_error(std::make_exception_ptr(std::runtime_error{
            "sync_scope: barrier timeout (mismatched sync calls?)"}));
        throw PeerFailure{};
      }
      return;
    }

    // Last arriver closes the superstep.
    try {
      complete_superstep_locked(scope, barrier);
    } catch (...) {
      record_error(std::current_exception());
      barrier.arrived = 0;
      barrier.staged_sends.clear();
      barrier.staged_compute.clear();
      ++barrier.generation;
      throw PeerFailure{};
    }
    barrier.arrived = 0;
    ++barrier.generation;
    ++supersteps_;
    cv_.notify_all();
  }

 private:
  struct PendingSend {
    int dst;
    Message msg;
  };
  struct PidState {
    std::vector<PendingSend> pending;
    double compute_ops = 0.0;
    std::vector<Message> inbox;
    double finish_time = 0.0;
  };
  struct ScopeBarrier {
    int arrived = 0;
    std::uint64_t generation = 0;
    std::vector<std::pair<int, std::vector<PendingSend>>> staged_sends;
    std::vector<ComputeWork> staged_compute;
  };

  [[nodiscard]] static std::uint64_t scope_key(MachineId id) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.level))
            << 32) |
           static_cast<std::uint32_t>(id.index);
  }

  [[nodiscard]] double time_locked(int pid) const {
    if (engine_ == EngineKind::kVirtualTime) return sim_->now(pid);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void record_error(std::exception_ptr error) {
    if (!error_) error_ = std::move(error);
    failed_ = true;
    cv_.notify_all();
  }

  /// Builds the superstep's plan, advances virtual time, delivers payloads.
  /// Caller holds the mutex.
  void complete_superstep_locked(MachineId scope, ScopeBarrier& barrier) {
    const auto [first, last] = tree_.processor_range(scope);

    SuperstepPlan plan;
    plan.label = "runtime superstep";
    plan.level = std::max(1, scope.level);
    plan.sync_scope = scope;
    plan.compute = std::move(barrier.staged_compute);
    barrier.staged_compute = {};

    // Deterministic transfer order: by src pid, then per-sender issue order.
    std::sort(barrier.staged_sends.begin(), barrier.staged_sends.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [src, sends] : barrier.staged_sends) {
      for (auto& ps : sends) {
        if (ps.dst < first || ps.dst >= last) {
          throw std::logic_error{
              "superstep send from pid " + std::to_string(src) + " to pid " +
              std::to_string(ps.dst) + " leaves the synchronised scope"};
        }
        plan.transfers.push_back({src, ps.dst, ps.msg.items});
      }
    }

    if (engine_ == EngineKind::kVirtualTime) {
      Phase phase;
      phase.plans.push_back(plan);
      sim_->execute_phase(phase);
    }

    // Deliver payloads: available from the next superstep (§3.2).
    for (auto& [src, sends] : barrier.staged_sends) {
      for (auto& ps : sends) {
        states_[static_cast<std::size_t>(ps.dst)].inbox.push_back(
            std::move(ps.msg));
      }
    }
    barrier.staged_sends.clear();
  }

  const MachineTree& tree_;
  EngineKind engine_;
  std::unique_ptr<sim::ClusterSim> sim_;
  std::vector<PidState> states_;
  std::vector<int> rank_of_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, ScopeBarrier> scopes_;
  std::chrono::milliseconds barrier_timeout_{60000};
  std::exception_ptr error_;
  bool failed_ = false;
  std::size_t supersteps_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// --- Hbsp forwarding ---------------------------------------------------------

int Hbsp::nprocs() const noexcept { return runtime_->tree().num_processors(); }
const MachineTree& Hbsp::machine() const noexcept { return runtime_->tree(); }

double Hbsp::speed() const { return runtime_->tree().processor_r(pid_); }
int Hbsp::rank_by_speed() const { return runtime_->rank_of(pid_); }
int Hbsp::fastest_pid() const {
  return runtime_->tree().coordinator_pid(runtime_->tree().root());
}
int Hbsp::slowest_pid() const {
  return runtime_->tree().slowest_pid(runtime_->tree().root());
}

std::vector<std::size_t> Hbsp::balanced_shares(std::size_t n) const {
  return analysis::leaf_shares(runtime_->tree(), n, analysis::Shares::kBalanced);
}

std::size_t Hbsp::my_balanced_share(std::size_t n) const {
  return balanced_shares(n)[static_cast<std::size_t>(pid_)];
}

void Hbsp::send(int dst, std::vector<std::byte> payload, std::size_t items,
                int tag) {
  runtime_->send(pid_, dst, std::move(payload), items, tag);
}

std::vector<Message> Hbsp::recv_all() { return runtime_->recv_all(pid_); }

std::size_t Hbsp::pending_messages() const {
  return runtime_->pending_messages(pid_);
}

void Hbsp::charge_compute(double ops) { runtime_->charge_compute(pid_, ops); }

void Hbsp::sync() { runtime_->sync_scope(pid_, runtime_->tree().root()); }

void Hbsp::sync_scope(MachineId scope) { runtime_->sync_scope(pid_, scope); }

double Hbsp::time() const { return runtime_->time(pid_); }

EngineKind Hbsp::engine() const noexcept { return runtime_->engine(); }

RunResult run_program(const MachineTree& tree, const sim::SimParams& params,
                      const Program& program, EngineKind engine) {
  RunOptions options;
  options.engine = engine;
  return run_program(tree, params, program, options);
}

RunResult run_program(const MachineTree& tree, const sim::SimParams& params,
                      const Program& program, const RunOptions& options) {
  Runtime runtime{tree, params, options};
  return runtime.run(program);
}

}  // namespace hbsp::rt
