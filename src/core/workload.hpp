#pragma once
// Workload partitioning (§3.3's c_{i,j} and §4.1's "faster machines should
// receive more data items").
//
// Balanced shares give each machine a fraction proportional to its ability
// (c_j ∝ 1/r_j within a cluster), which yields the paper's efficiency
// condition r_j·c_j < 1 whenever more than one machine participates. Integer
// apportionment uses the largest-remainder method so shares always sum to n
// exactly. These are the primitives of one cluster; a whole machine's
// per-processor shares are analysis::leaf_shares, which applies them cluster by
// cluster from the root down.

#include <cstddef>
#include <span>
#include <vector>

namespace hbsp {

/// Fractions proportional to 1/r, normalised to sum to 1.
/// Throws std::invalid_argument on an empty span or any r <= 0.
[[nodiscard]] std::vector<double> balanced_fractions(std::span<const double> r);

/// Largest-remainder apportionment of n items over `fractions` (which must be
/// non-negative and sum to ~1); the result sums to exactly n.
[[nodiscard]] std::vector<std::size_t> apportion(std::span<const double> fractions,
                                                 std::size_t n);

/// Equal split with the first n % p processors receiving one extra item.
[[nodiscard]] std::vector<std::size_t> equal_partition(std::size_t n,
                                                       std::size_t p);

/// Balanced split of n items over machines with slownesses `r`.
[[nodiscard]] std::vector<std::size_t> balanced_partition(std::span<const double> r,
                                                          std::size_t n);

}  // namespace hbsp
