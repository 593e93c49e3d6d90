// Unit and property tests for the HBSP^k machine tree (paper §3.1/§3.3).

#include "core/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/topology.hpp"

namespace hbsp {
namespace {

MachineSpec leaf(const std::string& name, double r) {
  MachineSpec spec;
  spec.name = name;
  spec.r = r;
  return spec;
}

TEST(MachineTree, SingleProcessorIsHbsp0) {
  const MachineTree tree = MachineTree::build(leaf("solo", 1.0), 1e-6);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_EQ(tree.num_processors(), 1);
  EXPECT_TRUE(tree.is_processor(tree.root()));
  EXPECT_EQ(tree.coordinator_pid(tree.root()), 0);
}

TEST(MachineTree, FlatClusterShape) {
  const MachineTree tree = make_hbsp1_cluster(std::array{1.0, 2.0, 3.0});
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_processors(), 3);
  EXPECT_EQ(tree.machines_at(0), 3);
  EXPECT_EQ(tree.machines_at(1), 1);
  EXPECT_EQ(tree.num_children(tree.root()), 3);
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_TRUE(tree.is_processor(tree.processor(pid)));
    EXPECT_EQ(tree.node(tree.processor(pid)).pid, pid);
  }
}

TEST(MachineTree, CoordinatorIsFastestAndClusterInheritsItsR) {
  const MachineTree tree = make_hbsp1_cluster(std::array{2.0, 1.0, 3.0});
  EXPECT_EQ(tree.coordinator_pid(tree.root()), 1);
  // The paper's r_{1,0} = 1: a cluster's r is its coordinator's.
  EXPECT_DOUBLE_EQ(tree.r(tree.root()), 1.0);
  EXPECT_EQ(tree.slowest_pid(tree.root()), 2);
}

TEST(MachineTree, CoordinatorTieBreaksToLowestPid) {
  const MachineTree tree = make_hbsp1_cluster(std::array{1.0, 1.0, 1.0});
  EXPECT_EQ(tree.coordinator_pid(tree.root()), 0);
  EXPECT_EQ(tree.slowest_pid(tree.root()), 0);
}

// --- slowest_pid, stored per node at build ----------------------------------

/// The reference rule: a flat scan of the subtree's pids in order, where a
/// later pid replaces the best so far only if its r is higher by more than
/// 1e-9.
int scanned_slowest(const MachineTree& tree, MachineId id) {
  const auto [first, last] = tree.processor_range(id);
  int slowest = first;
  for (int pid = first + 1; pid < last; ++pid) {
    if (tree.processor_r(pid) > tree.processor_r(slowest) + 1e-9) slowest = pid;
  }
  return slowest;
}

void expect_slowest_is_the_scan(const MachineTree& tree) {
  for (int level = 0; level < tree.num_levels(); ++level) {
    for (int j = 0; j < tree.machines_at(level); ++j) {
      const MachineId id{level, j};
      EXPECT_EQ(tree.slowest_pid(id), scanned_slowest(tree, id))
          << "node (" << level << ", " << j << ")";
    }
  }
}

TEST(MachineTreeSlowest, EveryNodeMatchesTheFlatScan) {
  expect_slowest_is_the_scan(make_figure1_cluster());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomTreeOptions options;
    options.levels = 1 + static_cast<int>(seed % 4);  // k = 1..4
    options.max_fanout = 3;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_slowest_is_the_scan(make_random_tree(options, seed));
  }
}

TEST(MachineTreeSlowest, NearTiesFollowTheScanInEveryOrder) {
  // r values closer than the 1e-9 tolerance: which pid wins depends on the
  // order the scan meets them in.
  std::array<double, 5> r = {1.0, 2.0, 2.0 + 0.6e-9, 2.0 + 1.2e-9,
                             2.0 + 1.8e-9};
  do {
    expect_slowest_is_the_scan(make_hbsp1_cluster(r));
  } while (std::next_permutation(r.begin(), r.end()));
}

TEST(MachineTreeSlowest, IsNotCombinedFromTheChildren) {
  // Cluster A = {1, 2 + 0.5e-9}, cluster B = {2, 2 + 1.2e-9, 2 + 1.6e-9}.
  // Their own scans pick pids 1 and 3, and 3 does not beat 1 by 1e-9; the
  // scan over all five pids moves to pid 4, which beats pid 1 by 1.1e-9.
  MachineSpec a;
  a.children = {leaf("a0", 1.0), leaf("a1", 2.0 + 0.5e-9)};
  MachineSpec b;
  b.children = {leaf("b0", 2.0), leaf("b1", 2.0 + 1.2e-9),
                leaf("b2", 2.0 + 1.6e-9)};
  MachineSpec root;
  root.children = {a, b};
  const MachineTree tree = MachineTree::build(root, 1e-6);
  EXPECT_EQ(tree.slowest_pid(tree.child(tree.root(), 0)), 1);
  EXPECT_EQ(tree.slowest_pid(tree.child(tree.root(), 1)), 3);
  EXPECT_EQ(tree.slowest_pid(tree.root()), 4);
  expect_slowest_is_the_scan(tree);
}

TEST(MachineTree, Figure1ClusterLevels) {
  // Fig. 2: the SMP's processors and the LAN's workstations sit at level 0,
  // the bare SGI workstation at level 1.
  const MachineTree tree = make_figure1_cluster();
  EXPECT_EQ(tree.height(), 2);
  EXPECT_EQ(tree.num_processors(), 9);
  EXPECT_EQ(tree.machines_at(1), 3);
  EXPECT_EQ(tree.machines_at(0), 8);
  const MachineId sgi = tree.child(tree.root(), 1);
  EXPECT_EQ(sgi.level, 1);
  EXPECT_TRUE(tree.is_processor(sgi));
  EXPECT_EQ(tree.node(sgi).name, "sgi");
}

TEST(MachineTree, ProcessorRangesAreContiguousSubtrees) {
  const MachineTree tree = make_figure1_cluster();
  const auto [smp_first, smp_last] = tree.processor_range(tree.child(tree.root(), 0));
  EXPECT_EQ(smp_first, 0);
  EXPECT_EQ(smp_last, 4);
  const auto [sgi_first, sgi_last] = tree.processor_range(tree.child(tree.root(), 1));
  EXPECT_EQ(sgi_first, 4);
  EXPECT_EQ(sgi_last, 5);
  const auto [lan_first, lan_last] = tree.processor_range(tree.child(tree.root(), 2));
  EXPECT_EQ(lan_first, 5);
  EXPECT_EQ(lan_last, 9);
  const auto [root_first, root_last] = tree.processor_range(tree.root());
  EXPECT_EQ(root_first, 0);
  EXPECT_EQ(root_last, 9);
}

TEST(MachineTree, LcaLevels) {
  const MachineTree tree = make_figure1_cluster();
  EXPECT_EQ(tree.lca_level(0, 0), 0);   // self
  EXPECT_EQ(tree.lca_level(0, 1), 1);   // within the SMP
  EXPECT_EQ(tree.lca_level(5, 8), 1);   // within the LAN
  EXPECT_EQ(tree.lca_level(0, 4), 2);   // SMP cpu <-> SGI crosses the campus net
  EXPECT_EQ(tree.lca_level(0, 5), 2);   // SMP cpu <-> LAN ws
}

TEST(MachineTree, AncestorAt) {
  const MachineTree tree = make_figure1_cluster();
  EXPECT_EQ(tree.ancestor_at(0, 1), (MachineId{1, 0}));
  EXPECT_EQ(tree.ancestor_at(0, 2), tree.root());
  EXPECT_EQ(tree.ancestor_at(4, 1), (MachineId{1, 1}));  // the SGI itself
  EXPECT_THROW((void)tree.ancestor_at(0, 3), std::invalid_argument);
}

std::vector<std::string> route_names(const MachineTree& tree, int src,
                                     int dst) {
  std::vector<MachineId> route;
  tree.route(src, dst, route);
  std::vector<std::string> names;
  for (const MachineId id : route) names.push_back(tree.node(id).name);
  return names;
}

TEST(MachineTreeRoute, IntraClusterCrossesOnlyThatNetwork) {
  const MachineTree tree = make_figure1_cluster();
  EXPECT_EQ(route_names(tree, 0, 1), (std::vector<std::string>{"smp"}));
  EXPECT_EQ(route_names(tree, 5, 8), (std::vector<std::string>{"lan"}));
}

TEST(MachineTreeRoute, CrossClusterCrossesBothEndNetworksAndTheBackbone) {
  const MachineTree tree = make_figure1_cluster();
  EXPECT_EQ(route_names(tree, 0, 8),
            (std::vector<std::string>{"smp", "campus", "lan"}));
  // The SGI hangs directly off the campus network: one hop fewer.
  EXPECT_EQ(route_names(tree, 4, 0),
            (std::vector<std::string>{"campus", "smp"}));
  EXPECT_EQ(route_names(tree, 0, 4),
            (std::vector<std::string>{"smp", "campus"}));
}

TEST(MachineTreeRoute, SelfRouteIsEmpty) {
  const MachineTree tree = make_figure1_cluster();
  EXPECT_TRUE(route_names(tree, 3, 3).empty());
}

TEST(MachineTreeRoute, ThreeLevelRoute) {
  const MachineTree tree = make_wide_area_grid();
  // a-lab0 ws (pid 0) to b-lab1 ws: up through a-lab0, campus-a, wide-area,
  // down through campus-b, b-lab1.
  const auto [bf, bl] =
      tree.processor_range(tree.child(tree.child(tree.root(), 1), 1));
  // Source-side networks come first (leaf upward to the LCA), then the
  // destination side's, also leaf upward; the *set* of crossed networks is
  // what the simulator charges.
  const auto names = route_names(tree, 0, bf);
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "a-lab0");
  EXPECT_EQ(names[1], "campus-a");
  EXPECT_EQ(names[2], "wide-area");
  EXPECT_EQ(names[3], "b-lab1");
  EXPECT_EQ(names[4], "campus-b");
  (void)bl;
}

TEST(MachineTree, ParentChildNavigation) {
  const MachineTree tree = make_figure1_cluster();
  const MachineId smp = tree.child(tree.root(), 0);
  EXPECT_EQ(*tree.parent(smp), tree.root());
  EXPECT_FALSE(tree.parent(tree.root()).has_value());
  EXPECT_EQ(tree.child(smp, 0).level, 0);
  EXPECT_THROW((void)tree.child(smp, 99), std::out_of_range);
}

TEST(MachineTree, DefaultSharesAreSpeedProportional) {
  const MachineTree tree = make_hbsp1_cluster(std::array{1.0, 2.0});
  // c_j ∝ 1/r_j: 2/3 and 1/3.
  EXPECT_NEAR(tree.c(tree.processor(0)), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(tree.c(tree.processor(1)), 1.0 / 3.0, 1e-12);
  // The paper's efficiency condition r_j·c_j < 1 (§4.2).
  for (int pid = 0; pid < 2; ++pid) {
    const MachineId id = tree.processor(pid);
    EXPECT_LT(tree.r(id) * tree.c(id), 1.0 + 1e-12);
  }
}

TEST(MachineTree, ExplicitSharesAreRespected) {
  MachineSpec root;
  root.sync_L = 1e-3;
  auto a = leaf("a", 1.0);
  a.c = 0.75;
  auto b = leaf("b", 2.0);
  b.c = 0.25;
  root.children.push_back(a);
  root.children.push_back(b);
  const MachineTree tree = MachineTree::build(root, 1e-6);
  EXPECT_DOUBLE_EQ(tree.c(tree.processor(0)), 0.75);
  EXPECT_DOUBLE_EQ(tree.c(tree.processor(1)), 0.25);
}

TEST(MachineTree, GlobalCIsPathProduct) {
  const MachineTree tree = make_uniform_tree(2, 2, std::array{1.0, 1.0});
  // Symmetric: every leaf gets 1/4.
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    EXPECT_NEAR(tree.global_c(tree.processor(pid)), 0.25, 1e-12);
  }
  double total = 0.0;
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    total += tree.global_c(tree.processor(pid));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// --- validation ------------------------------------------------------------

TEST(MachineTreeValidation, RejectsRBelowOne) {
  EXPECT_THROW(MachineTree::build(leaf("x", 0.5), 1e-6), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsMissingFastestMachine) {
  MachineSpec root;
  root.children.push_back(leaf("a", 2.0));
  root.children.push_back(leaf("b", 3.0));
  EXPECT_THROW(MachineTree::build(root, 1e-6), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsNonPositiveG) {
  EXPECT_THROW(MachineTree::build(leaf("x", 1.0), 0.0), std::invalid_argument);
  EXPECT_THROW(MachineTree::build(leaf("x", 1.0), -1.0), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsNegativeL) {
  MachineSpec root;
  root.sync_L = -1.0;
  root.children.push_back(leaf("a", 1.0));
  EXPECT_THROW(MachineTree::build(root, 1e-6), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsBadShareSums) {
  MachineSpec root;
  auto a = leaf("a", 1.0);
  a.c = 0.6;
  auto b = leaf("b", 2.0);
  b.c = 0.6;
  root.children.push_back(a);
  root.children.push_back(b);
  EXPECT_THROW(MachineTree::build(root, 1e-6), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsMixedExplicitAndDefaultShares) {
  MachineSpec root;
  auto a = leaf("a", 1.0);
  a.c = 0.5;
  root.children.push_back(a);
  root.children.push_back(leaf("b", 2.0));
  EXPECT_THROW(MachineTree::build(root, 1e-6), std::invalid_argument);
}

TEST(MachineTreeValidation, RejectsOutOfRangeQueries) {
  const MachineTree tree = make_hbsp1_cluster(std::array{1.0, 2.0});
  EXPECT_THROW((void)tree.machines_at(5), std::out_of_range);
  EXPECT_THROW((void)tree.processor(9), std::out_of_range);
  EXPECT_THROW((void)tree.node(MachineId{0, 7}), std::out_of_range);
}

// --- property tests over random trees ---------------------------------------

class RandomTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTreeProperty, InvariantsHold) {
  RandomTreeOptions options;
  options.levels = 1 + static_cast<int>(GetParam() % 3);
  const MachineTree tree = make_random_tree(options, GetParam());

  // The fastest processor has r == 1 and is the root's coordinator target.
  double min_r = 1e18;
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    min_r = std::min(min_r, tree.processor_r(pid));
    EXPECT_GE(tree.processor_r(pid), 1.0);
  }
  EXPECT_NEAR(min_r, 1.0, 1e-9);
  EXPECT_NEAR(tree.processor_r(tree.coordinator_pid(tree.root())), 1.0, 1e-9);

  // Sibling shares sum to 1 everywhere; global shares sum to 1 over leaves.
  for (int level = 1; level < tree.num_levels(); ++level) {
    for (const MachineId id : tree.level_ids(level)) {
      if (tree.is_processor(id)) continue;
      double c_sum = 0.0;
      for (int j = 0; j < tree.num_children(id); ++j) {
        c_sum += tree.c(tree.child(id, j));
      }
      EXPECT_NEAR(c_sum, 1.0, 1e-9);
    }
  }
  double global = 0.0;
  for (int pid = 0; pid < tree.num_processors(); ++pid) {
    global += tree.global_c(tree.processor(pid));
  }
  EXPECT_NEAR(global, 1.0, 1e-9);

  // pid order is DFS order: every node's processor range is consistent with
  // its children's.
  for (int level = 1; level < tree.num_levels(); ++level) {
    for (const MachineId id : tree.level_ids(level)) {
      if (tree.is_processor(id)) continue;
      const auto [first, last] = tree.processor_range(id);
      int cursor = first;
      for (int j = 0; j < tree.num_children(id); ++j) {
        const auto [cf, cl] = tree.processor_range(tree.child(id, j));
        EXPECT_EQ(cf, cursor);
        cursor = cl;
      }
      EXPECT_EQ(cursor, last);
    }
  }

  // lca_level is symmetric and bounded by the height.
  for (int a = 0; a < tree.num_processors(); ++a) {
    for (int b = 0; b < tree.num_processors(); ++b) {
      const int lab = tree.lca_level(a, b);
      EXPECT_EQ(lab, tree.lca_level(b, a));
      EXPECT_LE(lab, tree.height());
      if (a == b) {
        EXPECT_EQ(lab, tree.processor(a).level);
      } else {
        EXPECT_GT(lab, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

// --- per-processor topology queries against a parent() walk ----------------

/// The ancestor of `pid` at `level`, found by following parent() links.
MachineId walk_ancestor(const MachineTree& tree, int pid, int level) {
  MachineId id = tree.processor(pid);
  while (id.level < level) id = *tree.parent(id);
  return id;
}

/// Level of the lowest common ancestor, found by climbing the lower of the
/// two nodes until they meet.
int walk_lca_level(const MachineTree& tree, int a, int b) {
  MachineId x = tree.processor(a);
  MachineId y = tree.processor(b);
  while (!(x == y)) {
    if (x.level <= y.level) {
      x = *tree.parent(x);
    } else {
      y = *tree.parent(y);
    }
  }
  return x.level;
}

void expect_queries_match_walk(const MachineTree& tree) {
  const int p = tree.num_processors();
  for (int pid = 0; pid < p; ++pid) {
    const MachineTree::Node& leaf = tree.node(tree.processor(pid));
    EXPECT_EQ(tree.processor_r(pid), leaf.r) << "pid " << pid;
    EXPECT_EQ(tree.processor_compute_r(pid), leaf.compute_r) << "pid " << pid;
    const int own = tree.processor(pid).level;
    for (int level = own; level <= tree.height(); ++level) {
      EXPECT_EQ(tree.ancestor_at(pid, level), walk_ancestor(tree, pid, level))
          << "pid " << pid << " level " << level;
    }
    EXPECT_THROW((void)tree.ancestor_at(pid, own - 1), std::invalid_argument);
    EXPECT_THROW((void)tree.ancestor_at(pid, tree.height() + 1),
                 std::invalid_argument);
    std::vector<MachineId> crossed;
    for (int other = 0; other < p; ++other) {
      const int lca = walk_lca_level(tree, pid, other);
      EXPECT_EQ(tree.lca_level(pid, other), lca)
          << "pids " << pid << ", " << other;
      crossed.clear();
      EXPECT_EQ(tree.route(pid, other, crossed), lca)
          << "pids " << pid << ", " << other;
    }
  }
  std::vector<MachineId> crossed;
  for (const int bad : {-1, p, p + 7}) {
    EXPECT_THROW(tree.route(bad, 0, crossed), std::out_of_range);
    EXPECT_THROW(tree.route(0, bad, crossed), std::out_of_range);
    EXPECT_THROW((void)tree.processor_r(bad), std::out_of_range);
    EXPECT_THROW((void)tree.processor_compute_r(bad), std::out_of_range);
    EXPECT_THROW((void)tree.ancestor_at(bad, tree.height()), std::out_of_range);
    EXPECT_THROW((void)tree.lca_level(bad, 0), std::out_of_range);
    EXPECT_THROW((void)tree.lca_level(0, bad), std::out_of_range);
    EXPECT_THROW((void)tree.lca_level(bad, bad), std::out_of_range);
  }
}

TEST(MachineTreeQueries, Figure1MatchesParentWalk) {
  expect_queries_match_walk(make_figure1_cluster());
}

TEST(MachineTreeQueries, SeparateComputeSlownessMatchesParentWalk) {
  MachineSpec lab;
  lab.sync_L = 1e-3;
  auto fast = leaf("fast", 1.0);
  fast.compute_r = 3.0;  // quick network card, slow CPU
  lab.children.push_back(fast);
  lab.children.push_back(leaf("plain", 2.0));
  auto server = leaf("server", 1.5);
  server.compute_r = 1.25;
  MachineSpec root;
  root.sync_L = 1e-2;
  root.children.push_back(lab);
  root.children.push_back(server);
  const MachineTree tree = MachineTree::build(root, 1e-6);
  EXPECT_EQ(tree.processor_compute_r(0), 3.0);
  EXPECT_EQ(tree.processor_compute_r(2), 1.25);
  expect_queries_match_walk(tree);
}

TEST(MachineTreeQueries, RandomTreesWithChildlessInteriorNodes) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RandomTreeOptions options;
    options.levels = 2 + static_cast<int>(seed % 3);
    options.max_fanout = 5;
    options.leaf_degenerate_probability = 0.35;
    const MachineTree tree = make_random_tree(options, 900 + seed);
    int raised = 0;
    for (int pid = 0; pid < tree.num_processors(); ++pid) {
      raised += tree.processor(pid).level > 0 ? 1 : 0;
    }
    ASSERT_GT(raised, 0) << "seed " << seed << ": no childless interior node";
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_queries_match_walk(tree);
  }
}

}  // namespace
}  // namespace hbsp
