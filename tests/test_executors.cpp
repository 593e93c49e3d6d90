// Correctness tests for the SPMD collective executors: data results are
// verified against directly computed expectations on flat and hierarchical
// machines, on both engines.

#include "collectives/executors.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <utility>

#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hbsp::coll {
namespace {

const sim::SimParams kParams{};

/// Distributed input: the global array 0..n-1 split by `shares`, so pid j's
/// slice is the contiguous range starting at the prefix sum.
std::vector<std::vector<std::int32_t>> slice_by_shares(
    const std::vector<std::size_t>& shares) {
  std::vector<std::vector<std::int32_t>> slices;
  std::int32_t next = 0;
  for (const std::size_t count : shares) {
    std::vector<std::int32_t> slice(count);
    std::iota(slice.begin(), slice.end(), next);
    next += static_cast<std::int32_t>(count);
    slices.push_back(std::move(slice));
  }
  return slices;
}

std::vector<std::int32_t> iota_vector(std::size_t n) {
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), 0);
  return values;
}

struct ExecCase {
  const char* name;
  bool hierarchical;
  std::size_t n;
  Shares shares;
  rt::EngineKind engine;
};

class ExecutorCase : public ::testing::TestWithParam<ExecCase> {
 protected:
  [[nodiscard]] MachineTree tree() const {
    return GetParam().hierarchical ? make_figure1_cluster()
                                   : make_paper_testbed(5);
  }
};

TEST_P(ExecutorCase, GatherAssemblesAtRoot) {
  const MachineTree t = tree();
  const auto& param = GetParam();
  const auto shares = leaf_shares(t, param.n, param.shares);
  const auto slices = slice_by_shares(shares);
  const int root = t.coordinator_pid(t.root());
  std::atomic<int> roots_with_data{0};

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto& mine = slices[static_cast<std::size_t>(ctx.pid())];
    const auto result = gather<std::int32_t>(
        ctx, mine, param.n, {.root_pid = root, .shares = param.shares});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, iota_vector(param.n));
      ++roots_with_data;
    } else {
      EXPECT_FALSE(result.has_value());
    }
  };
  (void)rt::run_program(t, kParams, program, param.engine);
  EXPECT_EQ(roots_with_data.load(), 1);
}

TEST_P(ExecutorCase, GatherToSlowestRoot) {
  const MachineTree t = tree();
  const auto& param = GetParam();
  const auto shares = leaf_shares(t, param.n, param.shares);
  const auto slices = slice_by_shares(shares);
  const int root = t.slowest_pid(t.root());

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto& mine = slices[static_cast<std::size_t>(ctx.pid())];
    const auto result = gather<std::int32_t>(
        ctx, mine, param.n, {.root_pid = root, .shares = param.shares});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, iota_vector(param.n));
    }
  };
  (void)rt::run_program(t, kParams, program, param.engine);
}

TEST_P(ExecutorCase, ScatterDistributesShares) {
  const MachineTree t = tree();
  const auto& param = GetParam();
  const auto shares = leaf_shares(t, param.n, param.shares);
  const auto expected = slice_by_shares(shares);
  const int root = t.coordinator_pid(t.root());
  const auto input = iota_vector(param.n);

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::span<const std::int32_t> mine =
        ctx.pid() == root ? std::span<const std::int32_t>{input}
                          : std::span<const std::int32_t>{};
    const auto result = scatter<std::int32_t>(
        ctx, mine, param.n, {.root_pid = root, .shares = param.shares});
    EXPECT_EQ(result, expected[static_cast<std::size_t>(ctx.pid())]);
  };
  (void)rt::run_program(t, kParams, program, param.engine);
}

TEST_P(ExecutorCase, BroadcastTwoPhaseReachesEveryone) {
  const MachineTree t = tree();
  const auto& param = GetParam();
  const int root = t.coordinator_pid(t.root());
  const auto input = iota_vector(param.n);
  std::atomic<int> receivers{0};

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::span<const std::int32_t> mine =
        ctx.pid() == root ? std::span<const std::int32_t>{input}
                          : std::span<const std::int32_t>{};
    const auto result = broadcast<std::int32_t>(
        ctx, mine, param.n,
        {.root_pid = root, .top_phase = TopPhase::kTwoPhase,
         .shares = param.shares});
    EXPECT_EQ(result, input);
    ++receivers;
  };
  (void)rt::run_program(t, kParams, program, param.engine);
  EXPECT_EQ(receivers.load(), t.num_processors());
}

TEST_P(ExecutorCase, BroadcastOnePhaseReachesEveryone) {
  const MachineTree t = tree();
  const auto& param = GetParam();
  const int root = t.slowest_pid(t.root());
  const auto input = iota_vector(param.n);

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::span<const std::int32_t> mine =
        ctx.pid() == root ? std::span<const std::int32_t>{input}
                          : std::span<const std::int32_t>{};
    const auto result = broadcast<std::int32_t>(
        ctx, mine, param.n,
        {.root_pid = root, .top_phase = TopPhase::kOnePhase,
         .shares = param.shares});
    EXPECT_EQ(result, input);
  };
  (void)rt::run_program(t, kParams, program, param.engine);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExecutorCase,
    ::testing::Values(
        ExecCase{"flat_equal", false, 1000, Shares::kEqual,
                 rt::EngineKind::kVirtualTime},
        ExecCase{"flat_balanced", false, 1000, Shares::kBalanced,
                 rt::EngineKind::kVirtualTime},
        ExecCase{"flat_tiny", false, 3, Shares::kEqual,
                 rt::EngineKind::kVirtualTime},
        ExecCase{"flat_wall", false, 500, Shares::kBalanced,
                 rt::EngineKind::kWallClock},
        ExecCase{"tree_equal", true, 1000, Shares::kEqual,
                 rt::EngineKind::kVirtualTime},
        ExecCase{"tree_balanced", true, 999, Shares::kBalanced,
                 rt::EngineKind::kVirtualTime},
        ExecCase{"tree_wall", true, 777, Shares::kEqual,
                 rt::EngineKind::kWallClock}),
    [](const auto& param_info) { return param_info.param.name; });

// --- flat-only collectives -------------------------------------------------------

TEST(Allgather, EveryoneAssemblesAll) {
  const MachineTree t = make_paper_testbed(4);
  const std::size_t n = 100;
  const auto shares = leaf_shares(t, n, Shares::kBalanced);
  const auto slices = slice_by_shares(shares);
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto result = allgather<std::int32_t>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], n, Shares::kBalanced);
    EXPECT_EQ(result, iota_vector(n));
  };
  (void)rt::run_program(t, kParams, program);
}

TEST(Reduce, SumsAtRoot) {
  const MachineTree t = make_paper_testbed(6);
  const std::size_t n = 1000;
  const auto shares = leaf_shares(t, n, Shares::kBalanced);
  const auto slices = slice_by_shares(shares);
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * (static_cast<std::int64_t>(n) - 1) / 2;
  const int root = t.coordinator_pid(t.root());

  const rt::Program program = [&](rt::Hbsp& ctx) {
    std::vector<std::int64_t> wide(
        slices[static_cast<std::size_t>(ctx.pid())].begin(),
        slices[static_cast<std::size_t>(ctx.pid())].end());
    const auto result = reduce_tree<std::int64_t>(
        ctx, wide, n, [](std::int64_t a, std::int64_t b) { return a + b; },
        std::int64_t{0}, {.root_pid = root, .shares = Shares::kBalanced});
    if (ctx.pid() == root) {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(*result, expected);
    } else {
      EXPECT_FALSE(result.has_value());
    }
  };
  (void)rt::run_program(t, kParams, program);
}

// --- the runtime's balanced-share enquiry -----------------------------------------

/// Figure 1 and three seeded random trees with k >= 2, each small (the
/// runtime starts one thread per processor). On each, at one of the sizes
/// the tests use, a flat apportionment of every processor's global c gives
/// other shares than the recursive per-cluster split.
std::vector<MachineTree> enquiry_machines() {
  std::vector<MachineTree> machines;
  machines.push_back(make_figure1_cluster());
  for (const auto& [levels, seed] :
       {std::pair{2, std::uint64_t{1}}, std::pair{3, std::uint64_t{6}},
        std::pair{3, std::uint64_t{13}}}) {
    RandomTreeOptions options;
    options.levels = levels;
    options.max_fanout = 3;
    machines.push_back(make_random_tree(options, seed));
  }
  return machines;
}

TEST(BalancedShareEnquiry, IsTheSplitTheBalancedCollectivesExpect) {
  for (const MachineTree& t : enquiry_machines()) {
    ASSERT_GE(t.height(), 2);
    const rt::Program program = [&](rt::Hbsp& ctx) {
      for (const std::size_t n : {7u, 100u, 701u, 12345u, 25000u}) {
        const auto expected = leaf_shares(t, n, Shares::kBalanced);
        EXPECT_EQ(ctx.balanced_shares(n), expected)
            << "p=" << t.num_processors() << " n=" << n;
        EXPECT_EQ(ctx.my_balanced_share(n),
                  expected[static_cast<std::size_t>(ctx.pid())]);
      }
    };
    (void)rt::run_program(t, kParams, program);
  }
}

TEST(BalancedShareEnquiry, SizesABalancedGather) {
  const MachineTree t = make_figure1_cluster();
  const std::size_t n = 12345;
  const int root = t.coordinator_pid(t.root());
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::vector<std::int32_t> mine(ctx.my_balanced_share(n), ctx.pid());
    const auto result = gather<std::int32_t>(
        ctx, mine, n, {.root_pid = root, .shares = Shares::kBalanced});
    if (ctx.pid() != root) return;
    ASSERT_TRUE(result.has_value());
    std::vector<std::int32_t> expected;
    const auto shares = ctx.balanced_shares(n);
    for (std::size_t pid = 0; pid < shares.size(); ++pid) {
      expected.insert(expected.end(), shares[pid],
                      static_cast<std::int32_t>(pid));
    }
    EXPECT_EQ(*result, expected);
  };
  EXPECT_NO_THROW((void)rt::run_program(t, kParams, program));
}

TEST(Scan, GlobalInclusivePrefix) {
  const MachineTree t = make_paper_testbed(5);
  const std::size_t n = 50;
  const auto shares = leaf_shares(t, n, Shares::kEqual);

  // Global input: value at index i is i+1; inclusive prefix is the
  // triangular numbers.
  std::vector<std::int64_t> global(n);
  std::iota(global.begin(), global.end(), 1);
  std::vector<std::vector<std::int64_t>> slices;
  std::size_t offset = 0;
  for (const std::size_t count : shares) {
    slices.emplace_back(global.begin() + static_cast<std::ptrdiff_t>(offset),
                        global.begin() + static_cast<std::ptrdiff_t>(offset + count));
    offset += count;
  }

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto result = scan<std::int64_t>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], n,
        [](std::int64_t a, std::int64_t b) { return a + b; }, std::int64_t{0},
        Shares::kEqual);
    // The global prefix at position i is (i+1)(i+2)/2.
    std::size_t base = 0;
    for (int pid = 0; pid < ctx.pid(); ++pid) {
      base += shares[static_cast<std::size_t>(pid)];
    }
    for (std::size_t k = 0; k < result.size(); ++k) {
      const auto i = static_cast<std::int64_t>(base + k);
      EXPECT_EQ(result[k], (i + 1) * (i + 2) / 2);
    }
  };
  (void)rt::run_program(t, kParams, program);
}

TEST(Alltoall, BlocksLandBySource) {
  const MachineTree t = make_paper_testbed(3);
  const std::size_t n = 99;
  const auto shares = leaf_shares(t, n, Shares::kEqual);
  const auto slices = slice_by_shares(shares);

  // Expected: pid d receives, from each source s in order, s's d-th block.
  std::vector<std::vector<std::int32_t>> expected(3);
  {
    std::vector<std::vector<std::vector<std::int32_t>>> blocks(3);
    for (std::size_t s = 0; s < 3; ++s) {
      const auto counts = equal_partition(shares[s], 3);
      std::size_t offset = 0;
      for (std::size_t d = 0; d < 3; ++d) {
        blocks[s].emplace_back(
            slices[s].begin() + static_cast<std::ptrdiff_t>(offset),
            slices[s].begin() + static_cast<std::ptrdiff_t>(offset + counts[d]));
        offset += counts[d];
      }
    }
    for (std::size_t d = 0; d < 3; ++d) {
      for (std::size_t s = 0; s < 3; ++s) {
        expected[d].insert(expected[d].end(), blocks[s][d].begin(),
                           blocks[s][d].end());
      }
    }
  }

  const rt::Program program = [&](rt::Hbsp& ctx) {
    const auto result = alltoall<std::int32_t>(
        ctx, slices[static_cast<std::size_t>(ctx.pid())], n, Shares::kEqual);
    EXPECT_EQ(result, expected[static_cast<std::size_t>(ctx.pid())]);
  };
  (void)rt::run_program(t, kParams, program);
}

TEST(Executors, RejectMismatchedLocalData) {
  const MachineTree t = make_paper_testbed(3);
  const rt::Program program = [&](rt::Hbsp& ctx) {
    const std::vector<std::int32_t> wrong_size(999);
    (void)gather<std::int32_t>(ctx, wrong_size, 10,
                               {.root_pid = 0, .shares = Shares::kEqual});
  };
  EXPECT_THROW((void)rt::run_program(t, kParams, program),
               std::invalid_argument);
}

TEST(Executors, FlatOnlyCollectivesRejectHierarchies) {
  const MachineTree t = make_figure1_cluster();
  const rt::Program program = [&](rt::Hbsp& ctx) {
    (void)allgather<std::int32_t>(ctx, {}, 0, Shares::kEqual);
  };
  EXPECT_THROW((void)rt::run_program(t, kParams, program),
               std::invalid_argument);
}

}  // namespace
}  // namespace hbsp::coll
