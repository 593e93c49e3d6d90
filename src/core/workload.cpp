#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hbsp {

std::vector<double> balanced_fractions(std::span<const double> r) {
  if (r.empty()) throw std::invalid_argument{"balanced_fractions: empty r"};
  double total = 0.0;
  for (const double value : r) {
    if (value <= 0.0) throw std::invalid_argument{"balanced_fractions: r <= 0"};
    total += 1.0 / value;
  }
  std::vector<double> fractions;
  fractions.reserve(r.size());
  for (const double value : r) fractions.push_back((1.0 / value) / total);
  return fractions;
}

std::vector<std::size_t> apportion(std::span<const double> fractions,
                                   std::size_t n) {
  if (fractions.empty()) throw std::invalid_argument{"apportion: empty fractions"};
  double total = 0.0;
  for (const double f : fractions) {
    if (f < 0.0) throw std::invalid_argument{"apportion: negative fraction"};
    total += f;
  }
  if (std::abs(total - 1.0) > 1e-6) {
    throw std::invalid_argument{"apportion: fractions must sum to 1"};
  }

  std::vector<std::size_t> shares(fractions.size());
  std::vector<std::pair<double, std::size_t>> remainders;  // {-frac, index}
  remainders.reserve(fractions.size());
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double exact = fractions[i] * static_cast<double>(n);
    shares[i] = static_cast<std::size_t>(exact);
    assigned += shares[i];
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  // Hand out the leftover items to the largest fractional parts; ties go to
  // the lowest index so the result is deterministic.
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t k = 0; assigned < n; ++k) {
    ++shares[remainders[k % remainders.size()].second];
    ++assigned;
  }
  return shares;
}

std::vector<std::size_t> equal_partition(std::size_t n, std::size_t p) {
  if (p == 0) throw std::invalid_argument{"equal_partition: p == 0"};
  std::vector<std::size_t> shares(p, n / p);
  for (std::size_t i = 0; i < n % p; ++i) ++shares[i];
  return shares;
}

std::vector<std::size_t> balanced_partition(std::span<const double> r,
                                            std::size_t n) {
  return apportion(balanced_fractions(r), n);
}

}  // namespace hbsp
