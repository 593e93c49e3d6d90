#pragma once
// The hierarchical network of a simulated HBSP^k machine.
//
// Every interior tree node owns a network (an SMP bus, a LAN segment, a
// campus backbone, ...) connecting its children. A message between two
// processors crosses the networks of all ancestors of either endpoint up to
// and including their lowest common ancestor; MachineTree::route lists them
// and returns that LCA's level, so the route is part of the machine model,
// not of the simulator, which asks for it once per message. Network holds
// the per-level rates and the per-network tallies; its per-message queries
// are inline. Each network is a shared medium: the simulator charges its
// per-item wire time as a throughput bound at the closing barrier (and into
// sim.plan_wire_seconds), and its level sets the per-message latency.
// NetworkStats is the one per-network tally the simulator keeps; benches and
// tests read it through ClusterSim::network().

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/machine.hpp"
#include "sim/sim_params.hpp"

namespace hbsp::sim {

/// Per-network (interior tree node) aggregates since the last reset(): what
/// crossed the medium, counting every send attempt.
struct NetworkStats {
  std::size_t items_crossed = 0;
  std::size_t messages_crossed = 0;
};

class Network {
 public:
  /// Derives every per-level rate from `params` here; neither `params` nor
  /// anything in it is referenced afterwards.
  Network(const MachineTree& tree, const SimParams& params);

  /// One-way message latency given the endpoints' LCA level; 0 below level
  /// 1. Throws std::out_of_range above the root.
  [[nodiscard]] double latency(int lca_level) const {
    if (lca_level < 1) return 0.0;
    if (lca_level > tree_->height()) {
      throw std::out_of_range{"Network::latency: level above the root"};
    }
    return latency_[static_cast<std::size_t>(lca_level)];
  }

  /// Shared-medium seconds one item occupies a level-`level` network.
  /// Throws std::out_of_range unless 1 <= level <= height.
  [[nodiscard]] double wire_per_item(int level) const {
    if (level < 1 || level > tree_->height()) {
      throw std::out_of_range{"Network::wire_per_item: bad level"};
    }
    return wire_per_item_[static_cast<std::size_t>(level)];
  }

  /// Cumulative statistics of one network (zeroed by reset()).
  [[nodiscard]] const NetworkStats& stats(MachineId id) const {
    return stats_[slot(id)];
  }

  /// The same by a slot() the caller has resolved already, for the
  /// simulator, which charges the network's occupancy under that slot too.
  [[nodiscard]] NetworkStats& stats_at(std::size_t slot) {
    return stats_[slot];
  }

  /// Dense index of `id` in [0, num_slots()): flat (level, index) numbering,
  /// exposed so the simulator can keep per-network occupancy in a plain
  /// vector instead of a map. Throws std::out_of_range for a bad level or
  /// index.
  [[nodiscard]] std::size_t slot(MachineId id) const {
    if (id.level < 0 || id.level >= tree_->num_levels()) {
      throw std::out_of_range{"Network::slot: bad level"};
    }
    const auto level = static_cast<std::size_t>(id.level);
    if (id.index < 0 || static_cast<std::size_t>(id.index) >=
                            level_offsets_[level + 1] - level_offsets_[level]) {
      throw std::out_of_range{"Network::slot: bad index"};
    }
    return level_offsets_[level] + static_cast<std::size_t>(id.index);
  }
  [[nodiscard]] std::size_t num_slots() const noexcept { return stats_.size(); }

  void reset();

 private:
  const MachineTree* tree_;
  std::vector<double> latency_;        ///< [level], levels 1..k; [0] unused
  std::vector<double> wire_per_item_;  ///< [level], levels 1..k; [0] unused
  std::vector<std::size_t> level_offsets_;  ///< flat indexing of (level, index)
  std::vector<NetworkStats> stats_;
};

}  // namespace hbsp::sim
