#pragma once
// Shared plumbing of the benchmark: options, the result record every
// workload fills, percentile helpers, process statistics and the span
// recorder the traced run times each layer with.
//
// Layer timing is done from outside: the benchmark wraps its own calls into
// a module's public functions in obs::WallScope spans on a private
// obs::TraceRecorder. The process-wide recorder stays off, so the library's
// own spans (simulator virtual time, svc stages) are never recorded and an
// untraced run records no span at all.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measured wall time of one run
  bool trace = false;     ///< traced run: report per-layer metrics
  int threads = 1;        ///< sweep / service worker threads
  std::string trace_path;  ///< Chrome trace of the traced run
};

/// Seed used when --seed is absent; the pinned checksums are for it and for
/// the held-out seed.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 2;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, not part of the JSON
};

/// What one run reports. `attempted` counts operations (sweep cells,
/// replicas, requests); `failed` counts those that failed, were shed or
/// produced a wrong output.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< one line per failed output check
  std::vector<std::string> notes;   ///< extra lines for the human reader

  void add(std::string name, double value, std::string unit,
           std::string note = "");
  /// Records an output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Smallest of `values` (0 when empty): the fastest repetition of one
/// operation, such as a workload's set-up.
[[nodiscard]] double fastest(const std::vector<double>& values);

/// Nearest-rank quantile of `values`, q in [0, 1] (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// A tail latency: `preferred` (fixed per workload, so that runs of
/// different speed report the same percentile) when at least ten samples lie
/// beyond it, else the highest lower percentile of a fixed ladder that has.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values,
                           double preferred);

/// "p99 of 1234 samples"-style description of a tail.
[[nodiscard]] std::string describe(const Tail& tail);

/// A stretch of consecutive operations: each operation's latency (ms).
struct Block {
  std::vector<double> ms;
};

struct BlockSummary {
  double ops_per_s = 0.0;  ///< set by fastest_repetitions only
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  std::string tail_note;  ///< percentile, samples and blocks used
};

/// The shared host switches between a fast speed and one up to ~1.8x slower,
/// on all cores at once, for spells from a fraction of a second to minutes.
/// For open-loop traffic, cut into blocks of equal due time, this reports
/// the fastest block's median latency and `tail_percentile` latency, each
/// taken on its own.
[[nodiscard]] BlockSummary summarize_blocks(const std::vector<Block>& blocks,
                                            double tail_percentile);

/// For workloads that repeat one fixed sequence of operations: `repetitions`
/// holds one Block per repetition, with operation i's latency at ms[i]
/// (repetitions shorter than the first are ignored). Each operation's figure
/// is its fastest repetition; the rate is the sequence length over the sum
/// of those, the p50 and the `tail_percentile` tail are taken over them. A
/// slow spell of the host then moves nothing unless it covers every
/// repetition of an operation, while a change to the code slows every
/// repetition alike and shows in full.
[[nodiscard]] BlockSummary fastest_repetitions(
    const std::vector<Block>& repetitions, double tail_percentile);

/// Point-to-point transfers listed in `schedule` (self-sends included):
/// the unit CostModel::cost walks.
[[nodiscard]] std::size_t transfer_count(const hbsp::CommSchedule& schedule);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// User + system CPU seconds this process has used so far.
[[nodiscard]] double cpu_seconds();

/// Counter/gauge/histogram reads from obs::Registry::global().
struct Counters {
  hbsp::obs::MetricsSnapshot snapshot;

  static Counters read();
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] double histogram_sum(const std::string& name) const;
  [[nodiscard]] double histogram_count(const std::string& name) const;
};

/// Every per-layer metric of the traced run. A workload fills the fields of
/// the layers it exercises; the others stay 0 ("not measured here").
struct LayerMetrics {
  double sim_ns_per_event = 0.0;
  double sim_busy_s = 0.0;
  double sim_events = 0.0;
  double sim_retry_ratio = 0.0;
  double cost_ns_per_transfer = 0.0;
  double cost_busy_s = 0.0;
  double topology_build_ms = 0.0;
  double advise_us_per_candidate = 0.0;
  double advise_busy_s = 0.0;
  double advise_regret_max = 0.0;
  double plan_ns_per_message = 0.0;
  double plan_cache_hit_ratio = 0.0;
  double plan_cache_lookups = 0.0;
  double plan_cache_get_ns = 0.0;
  double scenario_cache_hit_ratio = 0.0;
  double scenario_cache_lookups = 0.0;
  double sweep_parallel_efficiency = 0.0;
  double figure_sweep_ms = 0.0;
  double svc_submit_us_tail = 0.0;
  double svc_wait_ms_mean = 0.0;
  double svc_exec_ms_mean = 0.0;
  double svc_coalesced_ratio = 0.0;
  double svc_shed_ratio = 0.0;
  double svc_queue_depth_max = 0.0;
  double loadgen_lag_ms_tail = 0.0;
  double cpu_util = 0.0;
  double trace_overhead_ratio = 0.0;

  /// Fills the fields that come straight from registry counters: the
  /// sim.* events and retries, both memo caches, the sweep engine.
  void read_counters(const Counters& counters, int threads);
  /// Appends every field to `result` under its catalogue name.
  void report(Result& result) const;
};

/// Self and total wall time of spans grouped by name, from the private
/// recorder. Self time is a span's duration minus its children's.
struct SpanTotals {
  std::size_t count = 0;
  double total = 0.0;
  double self = 0.0;
  std::vector<double> durations;
};

/// Self seconds / mean duration (seconds) of the spans named `name`; 0 when
/// there are none.
[[nodiscard]] double self_seconds(
    const std::map<std::string, SpanTotals>& totals, const std::string& name);
[[nodiscard]] double mean_seconds(
    const std::map<std::string, SpanTotals>& totals, const std::string& name);

/// The private recorder behind the traced run.
class LayerTrace {
 public:
  LayerTrace() = default;
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  [[nodiscard]] hbsp::obs::TraceRecorder& recorder() noexcept {
    return recorder_;
  }
  void set_enabled(bool on) noexcept { recorder_.set_enabled(on); }

  /// Totals per span name, plus the per-layer self-time table printed to
  /// stdout and the Chrome trace written to `trace_path`.
  [[nodiscard]] std::map<std::string, SpanTotals> summarize(
      const std::string& trace_path) const;

  /// Fails `result` unless neither this recorder nor the process-wide one
  /// recorded a span: the check every untraced run makes.
  void check_untraced(Result& result) const;

 private:
  hbsp::obs::TraceRecorder recorder_;
};

}  // namespace perfbench
