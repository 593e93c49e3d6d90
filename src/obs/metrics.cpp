#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace hbsp::obs {

double bucket_lower_bound(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  double bound = 1e-9;
  for (std::size_t k = 1; k < i; ++k) bound *= 4.0;
  return bound;
}

std::size_t bucket_index(double value) noexcept {
  std::size_t i = 0;
  double bound = 1e-9;
  while (i + 1 < kHistogramBuckets && value >= bound) {
    ++i;
    bound *= 4.0;
  }
  return i;
}

namespace detail {

void HistogramCell::record(double value) noexcept {
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[bucket_index(value)];
}

}  // namespace detail

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local shard cache: (registry id, shard) pairs for every registry
/// this thread has written to. Ids are process-unique and never reused, so
/// a stale entry for a destroyed registry can never be mistaken for a live
/// one. Shards are owned by their registry, not by this cache.
struct ShardCache {
  std::vector<std::pair<std::uint64_t, detail::Shard*>> entries;

  [[nodiscard]] detail::Shard* find(std::uint64_t id) const noexcept {
    for (const auto& [entry_id, shard] : entries) {
      if (entry_id == id) return shard;
    }
    return nullptr;
  }
};

ShardCache& shard_cache() {
  thread_local ShardCache cache;
  return cache;
}

/// The cell named `name` in one of a shard's maps, created on first use. The
/// name is copied into a std::string only then.
template <typename Cell>
Cell& cell(std::map<std::string, Cell, std::less<>>& cells,
           std::string_view name) {
  const auto found = cells.find(name);
  if (found != cells.end()) return found->second;
  return cells.emplace(name, Cell{}).first->second;
}

}  // namespace

Registry::Registry() : id_(next_registry_id()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

detail::Shard& Registry::local_shard() {
  ShardCache& cache = shard_cache();
  if (detail::Shard* shard = cache.find(id_)) return *shard;
  std::lock_guard lock{mutex_};
  shards_.push_back(std::make_unique<detail::Shard>());
  detail::Shard* shard = shards_.back().get();
  cache.entries.emplace_back(id_, shard);
  return *shard;
}

Counter Registry::counter(std::string_view name) {
  return Counter{&cell(local_shard().counters, name)};
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge{&cell(local_shard().gauges, name)};
}

Histogram Registry::histogram(std::string_view name) {
  return Histogram{&cell(local_shard().histograms, name)};
}

HistogramValue merge_histograms(const std::string& name,
                                const std::vector<detail::HistogramCell>& parts) {
  HistogramValue merged;
  merged.name = name;
  std::uint64_t buckets[kHistogramBuckets] = {};
  // Double sums accumulate in sorted order so the merged sum is a pure
  // function of the multiset of per-shard sums, not of shard order.
  std::vector<double> sums;
  sums.reserve(parts.size());
  bool first = true;
  for (const detail::HistogramCell& part : parts) {
    if (part.count == 0) continue;
    merged.count += part.count;
    sums.push_back(part.sum);
    if (first) {
      merged.min = part.min;
      merged.max = part.max;
      first = false;
    } else {
      merged.min = std::min(merged.min, part.min);
      merged.max = std::max(merged.max, part.max);
    }
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      buckets[i] += part.buckets[i];
    }
  }
  std::sort(sums.begin(), sums.end());
  for (const double s : sums) merged.sum += s;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] > 0) last = i + 1;
  }
  merged.buckets.assign(buckets, buckets + last);
  return merged;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock{mutex_};
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, std::vector<detail::HistogramCell>> histograms;
  for (const auto& shard : shards_) {
    for (const auto& [name, cell] : shard->counters) {
      counters[name] += cell.value;
    }
    for (const auto& [name, cell] : shard->gauges) {
      if (!cell.set) continue;
      auto [it, inserted] = gauges.try_emplace(name, GaugeValue{name, cell.value});
      if (!inserted) it->second.value = std::max(it->second.value, cell.value);
    }
    for (const auto& [name, cell] : shard->histograms) {
      if (cell.count > 0) histograms[name].push_back(cell);
    }
  }
  MetricsSnapshot snap;
  snap.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    snap.counters.push_back({name, value});
  }
  snap.gauges.reserve(gauges.size());
  for (const auto& [name, value] : gauges) snap.gauges.push_back(value);
  snap.histograms.reserve(histograms.size());
  for (const auto& [name, parts] : histograms) {
    snap.histograms.push_back(merge_histograms(name, parts));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock{mutex_};
  for (const auto& shard : shards_) {
    for (auto& [name, cell] : shard->counters) cell = detail::CounterCell{};
    for (auto& [name, cell] : shard->gauges) cell = detail::GaugeCell{};
    for (auto& [name, cell] : shard->histograms) cell = detail::HistogramCell{};
  }
}

std::size_t Registry::shard_count() const {
  std::lock_guard lock{mutex_};
  return shards_.size();
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const noexcept {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const GaugeValue* MetricsSnapshot::gauge(const std::string& name) const noexcept {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramValue* MetricsSnapshot::histogram(
    const std::string& name) const noexcept {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace hbsp::obs
