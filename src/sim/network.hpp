#pragma once
// The hierarchical network of a simulated HBSP^k machine.
//
// Every interior tree node owns a network (an SMP bus, a LAN segment, a
// campus backbone, ...) connecting its children. A message between two
// processors crosses the networks of all ancestors of either endpoint up to
// and including their lowest common ancestor; MachineTree::route lists them,
// so the route is part of the machine model, not of the simulator. Network
// holds the per-level rates and the per-network tallies. Each network is a
// shared medium: the simulator charges its per-item wire time as a
// throughput bound at the closing barrier, and its level sets the
// per-message latency.
// NetworkStats is the one per-network tally the simulator keeps; benches and
// tests read it through ClusterSim::network().

#include <cstddef>
#include <vector>

#include "core/machine.hpp"
#include "sim/sim_params.hpp"

namespace hbsp::sim {

/// Per-network (interior tree node) aggregates since the last reset(): what
/// crossed the medium and the wire occupancy it was charged.
struct NetworkStats {
  std::size_t items_crossed = 0;
  std::size_t messages_crossed = 0;
  double wire_seconds = 0.0;
};

class Network {
 public:
  /// Derives every per-level rate from `params` here; neither `params` nor
  /// anything in it is referenced afterwards.
  Network(const MachineTree& tree, const SimParams& params);

  /// One-way message latency given the endpoints' LCA level; 0 below level
  /// 1. Throws std::out_of_range above the root.
  [[nodiscard]] double latency(int lca_level) const;

  /// Shared-medium seconds one item occupies a level-`level` network.
  /// Throws std::out_of_range unless 1 <= level <= height.
  [[nodiscard]] double wire_per_item(int level) const;

  /// Cumulative statistics of one network (zeroed by reset()).
  [[nodiscard]] const NetworkStats& stats(MachineId id) const;
  [[nodiscard]] NetworkStats& stats(MachineId id);

  /// Dense index of `id` in [0, num_slots()): flat (level, index) numbering,
  /// exposed so the simulator can keep per-network occupancy in a plain
  /// vector instead of a map.
  [[nodiscard]] std::size_t slot(MachineId id) const;
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
