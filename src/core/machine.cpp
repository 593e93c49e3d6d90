#include "core/machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/hash.hpp"

namespace hbsp {
namespace {

constexpr double kEps = 1e-9;

int max_depth(const MachineSpec& spec) {
  int deepest = 0;
  for (const auto& child : spec.children) {
    deepest = std::max(deepest, 1 + max_depth(child));
  }
  return deepest;
}

void validate_spec(const MachineSpec& spec, const std::string& path) {
  if (spec.r < 1.0 - kEps) {
    throw std::invalid_argument{"machine '" + path +
                                "': r must be >= 1 (fastest machine is 1)"};
  }
  if (spec.sync_L < 0.0) {
    throw std::invalid_argument{"machine '" + path + "': L must be >= 0"};
  }
  if (spec.c && (*spec.c <= 0.0 || *spec.c > 1.0)) {
    throw std::invalid_argument{"machine '" + path + "': c must be in (0, 1]"};
  }
  const bool first_explicit =
      !spec.children.empty() && spec.children.front().c.has_value();
  double c_sum = 0.0;
  for (const auto& child : spec.children) {
    if (child.c.has_value() != first_explicit) {
      throw std::invalid_argument{
          "machine '" + path +
          "': sibling c values must be all explicit or all defaulted"};
    }
    if (child.c) c_sum += *child.c;
    validate_spec(child, path + "/" + (child.name.empty() ? "?" : child.name));
  }
  if (first_explicit && std::abs(c_sum - 1.0) > 1e-6) {
    throw std::invalid_argument{"machine '" + path +
                                "': sibling c values must sum to 1"};
  }
}

/// Aggregate "ability" of a subtree: 1/r for a processor, sum over children
/// otherwise. Used to default c so shares are proportional to speed (§3.3).
double capacity(const MachineSpec& spec) {
  if (spec.children.empty()) return 1.0 / spec.r;
  double total = 0.0;
  for (const auto& child : spec.children) total += capacity(child);
  return total;
}

}  // namespace

MachineTree MachineTree::build(const MachineSpec& root, double g) {
  if (g <= 0.0) throw std::invalid_argument{"g must be > 0"};
  validate_spec(root, root.name.empty() ? "root" : root.name);

  MachineTree tree;
  tree.g_ = g;
  const int k = max_depth(root);
  tree.levels_.resize(static_cast<std::size_t>(k) + 1);

  // Depth-first placement keeps each subtree's processors contiguous in pid
  // order and numbers each level left to right, matching the paper's
  // M_{i,0..m_i-1} labelling.
  const auto place = [&](auto&& self, const MachineSpec& spec, int depth,
                         int parent_index) -> int {
    const int level = k - depth;
    auto& row = tree.levels_[static_cast<std::size_t>(level)];
    const int index = static_cast<int>(row.size());
    row.emplace_back();
    {
      Node& n = row.back();
      n.name = spec.name;
      n.r = spec.r;
      n.compute_r = spec.compute_r < 0.0 ? spec.r : spec.compute_r;
      n.sync_L = spec.sync_L;
      n.parent = parent_index;
    }

    if (spec.children.empty()) {
      const int pid = static_cast<int>(tree.processors_.size());
      Node& n = tree.levels_[static_cast<std::size_t>(level)]
                           [static_cast<std::size_t>(index)];
      tree.processors_.push_back({MachineId{level, index}, n.r, n.compute_r});
      n.pid = pid;
      n.coordinator_pid = pid;
      n.leaf_begin = pid;
      n.leaf_end = pid + 1;
      return index;
    }

    const double total_capacity = capacity(spec);
    std::vector<int> child_indices;
    child_indices.reserve(spec.children.size());
    for (const auto& child_spec : spec.children) {
      const int ci = self(self, child_spec, depth + 1, index);
      child_indices.push_back(ci);
      // Fill in the child's share of this node's data (Table 1's c_{i,j}).
      Node& child_node = tree.levels_[static_cast<std::size_t>(level - 1)]
                                     [static_cast<std::size_t>(ci)];
      child_node.c = child_spec.c ? *child_spec.c
                                  : capacity(child_spec) / total_capacity;
    }

    // Vector may have reallocated during recursion: re-resolve the node.
    Node& n = tree.levels_[static_cast<std::size_t>(level)]
                         [static_cast<std::size_t>(index)];
    n.children = std::move(child_indices);
    n.leaf_begin = std::numeric_limits<int>::max();
    n.leaf_end = 0;
    double best_r = std::numeric_limits<double>::infinity();
    int best_pid = -1;
    for (const int ci : n.children) {
      const Node& child = tree.levels_[static_cast<std::size_t>(level - 1)]
                                      [static_cast<std::size_t>(ci)];
      n.leaf_begin = std::min(n.leaf_begin, child.leaf_begin);
      n.leaf_end = std::max(n.leaf_end, child.leaf_end);
      // child.r already equals its own coordinator's r (set below for
      // interior children, which recursion has completed).
      if (child.r < best_r - kEps) {
        best_r = child.r;
        best_pid = child.coordinator_pid;
      }
    }
    n.coordinator_pid = best_pid;
    // A cluster's r is its coordinator's: "coordinators may represent the
    // fastest machine in their subtree" (§3.1), hence r_{1,0} = r_{2,0} = 1
    // in the paper's analyses.
    n.r = tree.node(tree.processor(best_pid)).r;
    n.compute_r = tree.node(tree.processor(best_pid)).compute_r;
    return index;
  };
  place(place, root, 0, -1);

  // The model normalises the fastest machine's r to 1 (§3.3).
  double min_r = std::numeric_limits<double>::infinity();
  for (const auto& proc : tree.processors_) min_r = std::min(min_r, proc.r);
  if (std::abs(min_r - 1.0) > 1e-6) {
    throw std::invalid_argument{
        "the fastest processor must have r == 1 (found min r = " +
        std::to_string(min_r) + ")"};
  }

  // Each node's slowest processor, by a flat scan of its pid range. Not
  // combined from the children's answers: with the kEps tolerance, a scan
  // over near-equal r values depends on the order it meets them in.
  for (auto& row : tree.levels_) {
    for (Node& n : row) {
      const auto first = static_cast<std::size_t>(n.leaf_begin);
      const auto last = static_cast<std::size_t>(n.leaf_end);
      std::size_t slowest = first;
      double slowest_r = tree.processors_[first].r;
      for (std::size_t pid = first + 1; pid < last; ++pid) {
        const double r = tree.processors_[pid].r;
        if (r > slowest_r + kEps) {
          slowest = pid;
          slowest_r = r;
        }
      }
      n.slowest_pid = static_cast<int>(slowest);
    }
  }

  // Each processor's ancestor at every level, so the per-message queries
  // never walk parent links.
  const std::size_t num_pids = tree.processors_.size();
  const auto levels = static_cast<std::size_t>(tree.num_levels());
  tree.ancestors_.assign(num_pids * levels, -1);
  for (std::size_t pid = 0; pid < num_pids; ++pid) {
    const MachineId leaf = tree.processors_[pid].id;
    int index = leaf.index;
    for (int level = leaf.level; index >= 0; ++level) {
      tree.ancestors_[pid * levels + static_cast<std::size_t>(level)] = index;
      index = tree.levels_[static_cast<std::size_t>(level)]
                          [static_cast<std::size_t>(index)]
                              .parent;
    }
  }

  // global_c: product of c along the path from the root.
  for (int level = tree.height(); level >= 0; --level) {
    for (auto& n : tree.levels_[static_cast<std::size_t>(level)]) {
      if (n.parent < 0) {
        n.global_c = 1.0;
      } else {
        const Node& p = tree.levels_[static_cast<std::size_t>(level) + 1]
                                    [static_cast<std::size_t>(n.parent)];
        n.global_c = p.global_c * n.c;
      }
    }
  }

  // Structural fingerprint: every model parameter and the full shape in
  // level-major order. Derived fields (global_c, coordinator_pid, leaf
  // ranges) are pure functions of what is hashed, so they add nothing.
  util::Hash64 hash;
  hash.add_double(tree.g_);
  hash.add(tree.levels_.size());
  for (const auto& row : tree.levels_) {
    hash.add(row.size());
    for (const Node& n : row) {
      hash.add_string(n.name);
      hash.add_double(n.r);
      hash.add_double(n.compute_r);
      hash.add_double(n.sync_L);
      hash.add_double(n.c);
      hash.add_int(n.parent);
      hash.add(n.children.size());
      hash.add_int(n.pid);
    }
  }
  tree.fingerprint_ = hash.digest();
  return tree;
}

int MachineTree::machines_at(int level) const {
  if (level < 0 || level >= num_levels()) {
    throw std::out_of_range{"machines_at: bad level " + std::to_string(level)};
  }
  return static_cast<int>(levels_[static_cast<std::size_t>(level)].size());
}

void MachineTree::throw_bad_node(MachineId id) const {
  if (id.level < 0 || id.level >= num_levels()) {
    throw std::out_of_range{"node: bad level " + std::to_string(id.level)};
  }
  throw std::out_of_range{"node: bad index " + std::to_string(id.index) +
                          " at level " + std::to_string(id.level)};
}

std::optional<MachineId> MachineTree::parent(MachineId id) const {
  const Node& n = node(id);
  if (n.parent < 0) return std::nullopt;
  return MachineId{id.level + 1, n.parent};
}

void MachineTree::throw_bad_child(int nth) {
  throw std::out_of_range{"child: bad ordinal " + std::to_string(nth)};
}

void MachineTree::throw_bad_pid(int pid) {
  throw std::out_of_range{"processor: bad pid " + std::to_string(pid)};
}

int MachineTree::lca_level(int pid_a, int pid_b) const {
  return lca_of_slots(pid_slot(pid_a), pid_slot(pid_b));
}

int MachineTree::lca_of_slots(std::size_t a, std::size_t b) const {
  int level = std::max(processors_[a].id.level, processors_[b].id.level);
  if (a == b) return level;
  // Distinct processors are never each other's ancestors, so their rows
  // differ at the higher one's level and agree from the LCA up (the root's
  // index is 0 in every row).
  const auto levels = static_cast<std::size_t>(num_levels());
  const int* up_a = ancestors_.data() + a * levels;
  const int* up_b = ancestors_.data() + b * levels;
  while (up_a[level] != up_b[level]) ++level;
  return level;
}

MachineId MachineTree::ancestor_at(int pid, int level) const {
  const std::size_t slot = pid_slot(pid);
  if (level < processors_[slot].id.level) {
    throw std::invalid_argument{"ancestor_at: processor sits above level"};
  }
  if (level > height()) {
    throw std::invalid_argument{"ancestor_at: level above the root"};
  }
  return MachineId{level,
                   ancestors_[slot * static_cast<std::size_t>(num_levels()) +
                              static_cast<std::size_t>(level)]};
}

int MachineTree::route(int src_pid, int dst_pid,
                       std::vector<MachineId>& out) const {
  const std::size_t a = pid_slot(src_pid);
  const std::size_t b = pid_slot(dst_pid);
  const int lca = lca_of_slots(a, b);
  if (a == b) return lca;
  const auto levels = static_cast<std::size_t>(num_levels());
  const int* up_a = ancestors_.data() + a * levels;
  const int* up_b = ancestors_.data() + b * levels;
  // Up from the source to (and including) the LCA...
  for (int level = processors_[a].id.level + 1; level <= lca; ++level) {
    out.push_back({level, up_a[level]});
  }
  // ...and down to the destination, excluding the LCA already added.
  for (int level = processors_[b].id.level + 1; level < lca; ++level) {
    out.push_back({level, up_b[level]});
  }
  return lca;
}

std::vector<MachineId> MachineTree::level_ids(int level) const {
  const int count = machines_at(level);
  std::vector<MachineId> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) ids.push_back(MachineId{level, j});
  return ids;
}

}  // namespace hbsp
