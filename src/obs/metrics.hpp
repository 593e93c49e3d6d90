#pragma once
// Metrics registry: thread-safe counters, gauges and histograms for the
// simulator, the planners, the fault path and the sweep engine.
//
// Design: every writing thread owns a private *shard* per registry — a map
// from metric name to cells it alone mutates — so the hot path (a counter
// increment through a cached handle) is a plain non-atomic add with no
// cross-thread traffic. snapshot() merges all shards *by metric name* with
// order-independent combine rules, so the reported totals never depend on
// which worker did which cell or on the number of workers:
//
//   counter    u64 sum            (integer adds commute)
//   gauge      max                (the only order-free "set"-like merge)
//   histogram  bucket-count sums; value sums accumulated in sorted order
//
// Counters therefore carry the *deterministic* totals the CI perf gate
// exact-matches across thread counts (messages sent, cells run, plans
// built); wall-clock style measurements belong in histograms or gauges,
// which the gate reports but never gates.
//
// Handles (Counter/Gauge/Histogram) are bound to the shard of the thread
// that fetched them and must not be shared across threads; fetching the
// same name from another thread yields that thread's own cell. reset() and
// snapshot() may race with writers only in the trivial sense of missing
// in-flight increments; call them at quiescent points (between workloads).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hbsp::obs {

/// Number of exponential histogram buckets; bucket i spans
/// [bucket_lower_bound(i), bucket_lower_bound(i + 1)).
inline constexpr std::size_t kHistogramBuckets = 40;

/// Lower bound of bucket i: 0 for i = 0, else 1e-9 * 4^(i-1). The range
/// covers nanoseconds to ~10^4 seconds, enough for every virtual or wall
/// time this repository measures.
[[nodiscard]] double bucket_lower_bound(std::size_t i) noexcept;

/// Bucket index of `value` (values < bound(1) land in bucket 0, values past
/// the last bound land in the last bucket).
[[nodiscard]] std::size_t bucket_index(double value) noexcept;

namespace detail {

struct CounterCell {
  std::uint64_t value = 0;
};

struct GaugeCell {
  double value = 0.0;
  bool set = false;  ///< distinguishes "never set" from "set to 0"
};

struct HistogramCell {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t buckets[kHistogramBuckets] = {};

  void record(double value) noexcept;
};

/// One thread's private slice of a registry. Map nodes have stable
/// addresses, so handles can cache raw cell pointers. The transparent
/// comparator lets a lookup by std::string_view find an existing cell
/// without building a std::string.
struct Shard {
  std::map<std::string, CounterCell, std::less<>> counters;
  std::map<std::string, GaugeCell, std::less<>> gauges;
  std::map<std::string, HistogramCell, std::less<>> histograms;
};

}  // namespace detail

/// Monotonic event tally. Handle into one thread's shard; not shareable
/// across threads.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept { cell_->value += delta; }
  void increment() noexcept { ++cell_->value; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) noexcept : cell_(cell) {}
  detail::CounterCell* cell_;
};

/// Last-known-value metric; shards merge by max, so use it for quantities
/// where "the largest any thread saw" is the meaningful aggregate (widths,
/// high-water marks) or that only one thread ever sets.
class Gauge {
 public:
  void set(double value) noexcept {
    cell_->value = value;
    cell_->set = true;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}
  detail::GaugeCell* cell_;
};

/// Distribution of a measured value (virtual seconds, wall seconds, sizes).
class Histogram {
 public:
  void record(double value) noexcept { cell_->record(value); }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) noexcept : cell_(cell) {}
  detail::HistogramCell* cell_;
};

/// Merged view of one counter.
struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// Merged view of one gauge (max over the shards that set it).
struct GaugeValue {
  std::string name;
  double value = 0.0;
};

/// Merged view of one histogram. `buckets` holds only the non-empty tail up
/// to the last occupied bucket, to keep snapshots small.
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// A point-in-time merge of every shard, each section sorted by name.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a counter by name; 0 when absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const noexcept;
  /// Pointer to a gauge by name; nullptr when absent (distinguishes "never
  /// set" from "set to 0").
  [[nodiscard]] const GaugeValue* gauge(const std::string& name) const noexcept;
  /// Pointer to a histogram by name; nullptr when absent.
  [[nodiscard]] const HistogramValue* histogram(
      const std::string& name) const noexcept;
};

/// Owns the shards and hands out thread-bound metric handles.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry the instrumented layers write to.
  static Registry& global();

  /// Handles bound to the calling thread's shard. Cheap enough to fetch
  /// once per phase/plan (a name already present allocates nothing); cache
  /// them for per-message hot loops.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Merges all shards by name (see the merge rules above).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every cell in every shard. Call only while no thread is
  /// writing (between workloads, between tests).
  void reset();

  /// Number of thread shards created so far (monotone; for tests).
  [[nodiscard]] std::size_t shard_count() const;

 private:
  detail::Shard& local_shard();

  const std::uint64_t id_;  ///< process-unique; keys the thread-local cache
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::Shard>> shards_;
};

/// Merges shard views of one histogram into a HistogramValue. Exposed so
/// tests can check order-independence directly; `name` is copied into the
/// result. Contributions are combined in a canonical internal order, so any
/// permutation of `parts` yields a bit-identical result.
[[nodiscard]] HistogramValue merge_histograms(
    const std::string& name,
    const std::vector<detail::HistogramCell>& parts);

}  // namespace hbsp::obs
