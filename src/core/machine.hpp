#pragma once
// The HBSP^k machine representation (paper §3.1).
//
// An HBSP^k machine is a tree T of height k. The root (level k) is the whole
// machine; children of a level-i node sit at level i-1; level-0 nodes — and,
// more generally, childless nodes at any level (the paper's "single processor
// systems are HBSP^1 computers", Fig. 1's bare SGI workstation at level 1) —
// are physical processors. Interior nodes are clusters; their coordinator is
// by default the fastest processor in their subtree ("they may represent the
// fastest machine in their subtree", §3.1).
//
// Per-node parameters (Table 1):
//   r    relative communication slowness (fastest machine in the whole tree
//        has r = 1; larger is slower),
//   L    barrier-synchronisation overhead for the node's subtree,
//   c    fraction of its parent's problem share this node receives.
// The whole machine additionally carries g, the bandwidth indicator of the
// fastest machine. Compute slowness defaults to r but can be set separately
// (the paper ranks machines with one BYTEmark score covering both).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hbsp {

/// Identity M_{i,j}: machine j on level i (paper §3.1 indexing).
struct MachineId {
  int level = 0;
  int index = 0;

  friend bool operator==(const MachineId&, const MachineId&) = default;
};

/// Per-node model parameters supplied at construction.
struct MachineSpec {
  std::string name;               ///< optional human-readable label
  double r = 1.0;                 ///< communication slowness, >= 1
  double compute_r = -1.0;        ///< compute slowness; < 0 means "same as r"
  double sync_L = 0.0;            ///< barrier cost of this node's subtree
  std::optional<double> c;        ///< share of parent's data; defaults balanced
  std::vector<MachineSpec> children;
};

/// Immutable HBSP^k machine tree with precomputed processor/topology queries.
///
/// Construction validates the model invariants (see `build`). Query methods
/// are O(1) unless noted; the tree is laid out level-major so a node is
/// addressed exactly as the paper addresses it, by (level, index). The
/// per-processor queries (r, compute_r, ancestors, LCA level) read flat
/// tables filled once by `build`, so pricing and simulating a message never
/// walks the tree.
class MachineTree {
 public:
  /// One node of the tree after validation/derivation.
  struct Node {
    std::string name;
    double r = 1.0;            ///< communication slowness (fastest == 1)
    double compute_r = 1.0;    ///< compute slowness
    double sync_L = 0.0;       ///< L_{i,j}
    double c = 1.0;            ///< fraction of parent's share (siblings sum to 1)
    double global_c = 1.0;     ///< product of c along the root path
    int parent = -1;           ///< index at level+1; -1 for the root
    std::vector<int> children; ///< indices at level-1
    int pid = -1;              ///< processor id if childless, else -1
    int coordinator_pid = -1;  ///< fastest processor in this subtree
    int slowest_pid = -1;      ///< slowest processor in this subtree
    int leaf_begin = 0;        ///< subtree processors occupy [leaf_begin,
    int leaf_end = 0;          ///<   leaf_end) in pid order
  };

  /// Builds and validates a tree from a recursive spec; `g` is the bandwidth
  /// indicator of the fastest machine (Table 1).
  ///
  /// Throws std::invalid_argument when: g <= 0; any r < 1; no machine has
  /// r == 1 (the model normalises the fastest machine to 1, §3.3); any
  /// explicit sibling c set does not sum to 1 (mixing explicit and defaulted
  /// c among siblings is also rejected); L < 0; or the tree is empty.
  static MachineTree build(const MachineSpec& root, double g);

  // --- shape ---------------------------------------------------------------

  /// k: the height of the tree / the machine's class (§3.1).
  [[nodiscard]] int height() const noexcept { return static_cast<int>(levels_.size()) - 1; }

  /// Number of levels, k + 1.
  [[nodiscard]] int num_levels() const noexcept { return static_cast<int>(levels_.size()); }

  /// m_i: number of machines on level i.
  [[nodiscard]] int machines_at(int level) const;

  /// m_{i,j}: number of children of M_{i,j}.
  [[nodiscard]] int num_children(MachineId id) const { return static_cast<int>(node(id).children.size()); }

  [[nodiscard]] MachineId root() const noexcept { return {height(), 0}; }
  [[nodiscard]] std::optional<MachineId> parent(MachineId id) const;
  /// The `nth` child of `id`. Throws std::out_of_range for a bad node or
  /// ordinal.
  [[nodiscard]] MachineId child(MachineId id, int nth) const {
    const Node& n = node(id);
    if (nth < 0 || nth >= static_cast<int>(n.children.size())) {
      throw_bad_child(nth);
    }
    return MachineId{id.level - 1, n.children[static_cast<std::size_t>(nth)]};
  }
  [[nodiscard]] bool is_processor(MachineId id) const { return node(id).children.empty(); }

  /// Direct access to the validated node record. Throws std::out_of_range
  /// for a level or index outside the tree.
  [[nodiscard]] const Node& node(MachineId id) const {
    if (id.level < 0 || id.level >= num_levels()) throw_bad_node(id);
    const auto& row = levels_[static_cast<std::size_t>(id.level)];
    if (id.index < 0 || id.index >= static_cast<int>(row.size())) {
      throw_bad_node(id);
    }
    return row[static_cast<std::size_t>(id.index)];
  }

  // --- model parameters ----------------------------------------------------

  [[nodiscard]] double g() const noexcept { return g_; }
  [[nodiscard]] double r(MachineId id) const { return node(id).r; }
  [[nodiscard]] double compute_r(MachineId id) const { return node(id).compute_r; }
  [[nodiscard]] double sync_L(MachineId id) const { return node(id).sync_L; }
  /// c_{i,j} relative to the node's parent.
  [[nodiscard]] double c(MachineId id) const { return node(id).c; }
  /// Fraction of the *whole* problem this subtree receives under balanced
  /// workloads (product of c along the root path).
  [[nodiscard]] double global_c(MachineId id) const { return node(id).global_c; }

  // --- processors ----------------------------------------------------------

  /// Total number of physical processors (childless nodes), in pid order.
  [[nodiscard]] int num_processors() const noexcept { return static_cast<int>(processors_.size()); }

  /// The tree node of processor `pid`.
  [[nodiscard]] MachineId processor(int pid) const {
    return processors_[pid_slot(pid)].id;
  }

  /// r of processor `pid` (shorthand used heavily by the simulator).
  [[nodiscard]] double processor_r(int pid) const {
    return processors_[pid_slot(pid)].r;
  }
  [[nodiscard]] double processor_compute_r(int pid) const {
    return processors_[pid_slot(pid)].compute_r;
  }

  /// Processors of the subtree rooted at `id` as the contiguous pid range
  /// [first, last).
  [[nodiscard]] std::pair<int, int> processor_range(MachineId id) const {
    const Node& n = node(id);
    return {n.leaf_begin, n.leaf_end};
  }

  /// The coordinator processor of `id`'s subtree: its fastest processor
  /// (lowest r; ties broken by lowest pid). For a childless node, itself.
  [[nodiscard]] int coordinator_pid(MachineId id) const { return node(id).coordinator_pid; }

  /// The slowest processor in `id`'s subtree (highest r, ties by lowest
  /// pid): a scan in pid order that moves past the best so far only for an
  /// r more than 1e-9 above it. Stored at build; for a childless node,
  /// itself.
  [[nodiscard]] int slowest_pid(MachineId id) const { return node(id).slowest_pid; }

  /// Level of the lowest common ancestor of two processors: the network level
  /// a message between them must cross (1 = same cluster, ..., k = top).
  /// When a == b, returns that processor's own level (0 for a leaf, 1 for
  /// Fig. 1's bare SGI workstation). Compares the two processors' rows of the
  /// ancestor table: at most k + 1 reads, no parent walk. Throws
  /// std::out_of_range for a bad pid.
  [[nodiscard]] int lca_level(int pid_a, int pid_b) const;

  /// The ancestor of processor `pid` at `level` (the cluster containing it;
  /// the processor itself at its own level). Throws std::out_of_range for a
  /// bad pid and std::invalid_argument when `level` is below the processor
  /// or above the root.
  [[nodiscard]] MachineId ancestor_at(int pid, int level) const;

  /// Appends to `out` the interior nodes whose networks a message from
  /// processor `src_pid` to `dst_pid` crosses: the source's ancestors up to
  /// and including the LCA, then the destination's below the LCA, each side
  /// leaf upward. Returns lca_level(src_pid, dst_pid), so a caller that
  /// needs both pays for one LCA. Appends nothing when src == dst. Reads the
  /// two ancestor rows directly and allocates only if `out` must grow, so a
  /// caller can reuse one scratch vector per message. Throws
  /// std::out_of_range for a bad pid.
  int route(int src_pid, int dst_pid, std::vector<MachineId>& out) const;

  /// All machine ids on one level, in index order. O(m_i).
  [[nodiscard]] std::vector<MachineId> level_ids(int level) const;

  /// Stable structural fingerprint of the machine: a pure function of g and
  /// every node's (name, r, compute_r, sync_L, c, shape) in level-major
  /// order, computed once at build time. Two trees with equal fingerprints
  /// are (up to hash collision) the same machine, so plan and scenario
  /// caches key on this value. Distinct trees built from the same spec and g
  /// always agree.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  MachineTree() = default;

  /// `pid` as an index into the per-processor tables; throws
  /// std::out_of_range unless 0 <= pid < num_processors().
  [[nodiscard]] std::size_t pid_slot(int pid) const {
    if (pid < 0 || pid >= num_processors()) throw_bad_pid(pid);
    return static_cast<std::size_t>(pid);
  }
  [[noreturn]] static void throw_bad_pid(int pid);
  [[noreturn]] void throw_bad_node(MachineId id) const;
  [[noreturn]] static void throw_bad_child(int nth);

  /// lca_level of the processors in rows `a` and `b`, both valid slots.
  [[nodiscard]] int lca_of_slots(std::size_t a, std::size_t b) const;

  double g_ = 1.0;
  std::uint64_t fingerprint_ = 0;          ///< structural hash, set by build()
  std::vector<std::vector<Node>> levels_;  ///< levels_[i][j] == M_{i,j}
  /// What the per-message queries read of one processor, by pid.
  struct ProcessorRow {
    MachineId id;  ///< the processor's tree node
    double r = 1.0;
    double compute_r = 1.0;
  };
  std::vector<ProcessorRow> processors_;
  /// Row `pid` (num_levels() entries) holds the index of the processor's
  /// ancestor at each level; -1 below the processor's own level.
  std::vector<int> ancestors_;
};

}  // namespace hbsp
