#include "sim/network.hpp"

#include <cmath>

namespace hbsp::sim {

Network::Network(const MachineTree& tree, const SimParams& params)
    : tree_(&tree) {
  const auto levels = static_cast<std::size_t>(tree.num_levels());
  latency_.assign(levels, 0.0);
  wire_per_item_.assign(levels, 0.0);
  for (int level = 1; level < tree.num_levels(); ++level) {
    const auto at = static_cast<std::size_t>(level);
    latency_[at] =
        params.latency_base * std::pow(params.latency_level_scale, level - 1);
    if (params.model_wire_contention) {
      wire_per_item_[at] = tree.g() * params.wire_factor_base *
                           std::pow(params.wire_level_scale, level - 1);
    }
  }
  level_offsets_.reserve(levels + 1);
  std::size_t total = 0;
  for (int level = 0; level < tree.num_levels(); ++level) {
    level_offsets_.push_back(total);
    total += static_cast<std::size_t>(tree.machines_at(level));
  }
  level_offsets_.push_back(total);
  stats_.resize(total);
}

void Network::reset() {
  for (auto& s : stats_) s = NetworkStats{};
}

}  // namespace hbsp::sim
