// Tests for workload partitioning (§3.3's c_{i,j}, §4.1's balanced shares)
// and for the whole-machine split analysis::leaf_shares built on it.

#include "core/workload.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/analysis.hpp"
#include "core/topology.hpp"
#include "util/rng.hpp"

namespace hbsp {
namespace {

TEST(BalancedFractions, ProportionalToInverseR) {
  const std::array r{1.0, 2.0, 4.0};
  const auto f = balanced_fractions(r);
  EXPECT_NEAR(f[0], 4.0 / 7.0, 1e-12);
  EXPECT_NEAR(f[1], 2.0 / 7.0, 1e-12);
  EXPECT_NEAR(f[2], 1.0 / 7.0, 1e-12);
}

TEST(BalancedFractions, RejectsEmptyAndNonPositive) {
  EXPECT_THROW((void)balanced_fractions({}), std::invalid_argument);
  const std::array bad{1.0, 0.0};
  EXPECT_THROW((void)balanced_fractions(bad), std::invalid_argument);
}

TEST(Apportion, ExactTotalAndFlooring) {
  const std::array f{0.5, 0.3, 0.2};
  const auto shares = apportion(f, 10);
  EXPECT_EQ(shares, (std::vector<std::size_t>{5, 3, 2}));
}

TEST(Apportion, LargestRemainderGetsLeftovers) {
  const std::array f{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const auto shares = apportion(f, 10);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::size_t{0}), 10u);
  // 3.33 each; the first (tie-break by index) gets the extra.
  EXPECT_EQ(shares[0], 4u);
  EXPECT_EQ(shares[1], 3u);
  EXPECT_EQ(shares[2], 3u);
}

TEST(Apportion, ZeroItems) {
  const std::array f{0.6, 0.4};
  const auto shares = apportion(f, 0);
  EXPECT_EQ(shares, (std::vector<std::size_t>{0, 0}));
}

TEST(Apportion, RejectsBadFractions) {
  EXPECT_THROW((void)apportion({}, 5), std::invalid_argument);
  const std::array negative{1.2, -0.2};
  EXPECT_THROW((void)apportion(negative, 5), std::invalid_argument);
  const std::array short_sum{0.4, 0.4};
  EXPECT_THROW((void)apportion(short_sum, 5), std::invalid_argument);
}

TEST(EqualPartition, RemainderToFirst) {
  EXPECT_EQ(equal_partition(11, 4), (std::vector<std::size_t>{3, 3, 3, 2}));
  EXPECT_EQ(equal_partition(8, 4), (std::vector<std::size_t>{2, 2, 2, 2}));
  EXPECT_THROW((void)equal_partition(5, 0), std::invalid_argument);
}

TEST(BalancedPartition, FasterMachinesGetMore) {
  const std::array r{1.0, 2.0, 4.0};
  const auto shares = balanced_partition(r, 700);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::size_t{0}), 700u);
  EXPECT_GT(shares[0], shares[1]);
  EXPECT_GT(shares[1], shares[2]);
  EXPECT_EQ(shares[0], 400u);
  EXPECT_EQ(shares[1], 200u);
  EXPECT_EQ(shares[2], 100u);
}

TEST(BalancedPartition, SatisfiesPaperEfficiencyCondition) {
  // §4.2: with c_j ∝ 1/r_j, r_j·c_j < 1 for every j (so the coordinator's
  // receive volume dominates the h-relation).
  const std::array r{1.0, 1.3, 2.1, 3.7, 5.0};
  const auto f = balanced_fractions(r);
  for (std::size_t j = 0; j < r.size(); ++j) {
    EXPECT_LT(r[j] * f[j], 1.0);
  }
}

TEST(LeafShares, FlatMatchesBalancedPartition) {
  const std::array r{1.0, 2.0, 4.0};
  const MachineTree tree = make_hbsp1_cluster(r);
  EXPECT_EQ(analysis::leaf_shares(tree, 700, analysis::Shares::kBalanced),
            balanced_partition(r, 700));
}

TEST(LeafShares, SumsToNOnHierarchies) {
  const MachineTree tree = make_figure1_cluster();
  const auto shares =
      analysis::leaf_shares(tree, 12345, analysis::Shares::kBalanced);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::size_t{0}),
            12345u);
  // The SMP's identical cpus split the SMP's share equally among themselves
  // (the leftover item to the lowest pid, as in any equal split).
  const std::vector<std::size_t> smp(shares.begin(), shares.begin() + 3);
  EXPECT_EQ(smp, equal_partition(smp[0] + smp[1] + smp[2], 3));
}

class ApportionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApportionProperty, AlwaysSumsToNAndStaysNearExact) {
  util::Rng rng{GetParam()};
  const auto p = static_cast<std::size_t>(rng.uniform_u64(1, 12));
  std::vector<double> r;
  for (std::size_t i = 0; i < p; ++i) r.push_back(rng.uniform(1.0, 8.0));
  r[static_cast<std::size_t>(rng.uniform_u64(0, p - 1))] = 1.0;
  const auto n = static_cast<std::size_t>(rng.uniform_u64(0, 100000));

  const auto fractions = balanced_fractions(r);
  const auto shares = apportion(fractions, n);
  EXPECT_EQ(std::accumulate(shares.begin(), shares.end(), std::size_t{0}), n);
  for (std::size_t i = 0; i < p; ++i) {
    const double exact = fractions[i] * static_cast<double>(n);
    // Largest-remainder keeps every share within one item of exact.
    EXPECT_NEAR(static_cast<double>(shares[i]), exact, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApportionProperty,
                         ::testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace hbsp
