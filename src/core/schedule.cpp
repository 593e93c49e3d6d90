#include "core/schedule.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace hbsp {

std::size_t SuperstepPlan::items_sent(int pid) const {
  std::size_t total = 0;
  for (const auto& t : transfers) {
    if (t.src_pid == pid && t.dst_pid != pid) total += t.items;
  }
  return total;
}

std::size_t SuperstepPlan::items_received(int pid) const {
  std::size_t total = 0;
  for (const auto& t : transfers) {
    if (t.dst_pid == pid && t.src_pid != pid) total += t.items;
  }
  return total;
}

SuperstepPlan& CommSchedule::add_step(std::string label, int level,
                                      MachineId sync_scope) {
  Phase& phase = phases.emplace_back();
  SuperstepPlan& plan = phase.plans.emplace_back();
  plan.label = std::move(label);
  plan.level = level;
  plan.sync_scope = sync_scope;
  return plan;
}

Phase& CommSchedule::add_phase() { return phases.emplace_back(); }

std::size_t CommSchedule::total_items() const {
  std::size_t total = 0;
  for (const auto& phase : phases) {
    for (const auto& plan : phase.plans) {
      for (const auto& t : plan.transfers) {
        if (t.src_pid != t.dst_pid) total += t.items;
      }
    }
  }
  return total;
}

std::uint64_t CommSchedule::fingerprint() const {
  util::Hash64 hash;
  hash.add_string(name);
  hash.add(phases.size());
  for (const auto& phase : phases) {
    hash.add(phase.plans.size());
    for (const auto& plan : phase.plans) {
      hash.add_string(plan.label);
      hash.add_int(plan.level);
      hash.add_int(plan.sync_scope.level);
      hash.add_int(plan.sync_scope.index);
      hash.add(plan.transfers.size());
      for (const auto& t : plan.transfers) {
        hash.add_int(t.src_pid);
        hash.add_int(t.dst_pid);
        hash.add(t.items);
      }
      hash.add(plan.compute.size());
      for (const auto& w : plan.compute) {
        hash.add_int(w.pid);
        hash.add_double(w.ops);
      }
    }
  }
  return hash.digest();
}

std::size_t CommSchedule::total_messages() const {
  std::size_t total = 0;
  for (const auto& phase : phases) {
    for (const auto& plan : phase.plans) {
      for (const auto& t : plan.transfers) {
        if (t.src_pid != t.dst_pid) ++total;
      }
    }
  }
  return total;
}

void validate_schedule(const MachineTree& tree, const CommSchedule& schedule) {
  const int p = tree.num_processors();
  const auto check_pid = [&](int pid, const std::string& where) {
    if (pid < 0 || pid >= p) {
      throw std::invalid_argument{"schedule '" + schedule.name + "', step '" +
                                  where + "': pid " + std::to_string(pid) +
                                  " out of range"};
    }
  };
  // claimed[pid] is 1 + the ordinal of the last phase whose scopes cover
  // pid, so a plan overlaps an earlier one in its phase exactly when it
  // finds one of its processors already stamped: O(p) per phase.
  std::vector<std::size_t> claimed(static_cast<std::size_t>(p), 0);
  std::size_t stamp = 0;
  for (const auto& phase : schedule.phases) {
    ++stamp;
    for (const auto& plan : phase.plans) {
      if (plan.level < 1 && tree.height() > 0) {
        throw std::invalid_argument{"schedule '" + schedule.name + "', step '" +
                                    plan.label + "': bad level " +
                                    std::to_string(plan.level)};
      }
      const auto [first, last] = tree.processor_range(plan.sync_scope);
      for (int pid = first; pid < last; ++pid) {
        std::size_t& owner = claimed[static_cast<std::size_t>(pid)];
        if (owner == stamp) {
          throw std::invalid_argument{
              "schedule '" + schedule.name + "', step '" + plan.label +
              "': sync scopes within a phase must be disjoint"};
        }
        owner = stamp;
      }
      for (const auto& t : plan.transfers) {
        check_pid(t.src_pid, plan.label);
        check_pid(t.dst_pid, plan.label);
        if (t.src_pid < first || t.src_pid >= last || t.dst_pid < first ||
            t.dst_pid >= last) {
          throw std::invalid_argument{
              "schedule '" + schedule.name + "', step '" + plan.label +
              "': transfer endpoint outside the synchronised subtree"};
        }
      }
      for (const auto& w : plan.compute) {
        check_pid(w.pid, plan.label);
        if (w.ops < 0.0) {
          throw std::invalid_argument{"schedule '" + schedule.name +
                                      "', step '" + plan.label +
                                      "': negative compute"};
        }
      }
    }
  }
}

}  // namespace hbsp
