#include "sim/network.hpp"

#include <cmath>
#include <stdexcept>

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

double Network::latency(int lca_level) const {
  if (lca_level < 1) return 0.0;
  if (lca_level > tree_->height()) {
    throw std::out_of_range{"Network::latency: level above the root"};
  }
  return latency_[static_cast<std::size_t>(lca_level)];
}

double Network::wire_per_item(int level) const {
  if (level < 1 || level > tree_->height()) {
    throw std::out_of_range{"Network::wire_per_item: bad level"};
  }
  return wire_per_item_[static_cast<std::size_t>(level)];
}

std::size_t Network::slot(MachineId id) const {
  if (id.level < 0 || id.level >= tree_->num_levels()) {
    throw std::out_of_range{"Network::slot: bad level"};
  }
  return level_offsets_[static_cast<std::size_t>(id.level)] +
         static_cast<std::size_t>(id.index);
}

const NetworkStats& Network::stats(MachineId id) const {
  return stats_[slot(id)];
}

NetworkStats& Network::stats(MachineId id) { return stats_[slot(id)]; }

void Network::reset() {
  for (auto& s : stats_) s = NetworkStats{};
}

}  // namespace hbsp::sim
