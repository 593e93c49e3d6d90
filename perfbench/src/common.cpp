#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace_export.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Result::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

Tail tail_of(const std::vector<double>& values, double preferred) {
  Tail tail;
  tail.samples = values.size();
  for (const double percentile : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (percentile > preferred) continue;
    const double rank = std::ceil(percentile / 100.0 *
                                  static_cast<double>(values.size()));
    if (static_cast<double>(values.size()) - rank >= 10.0 ||
        percentile == 50.0) {
      tail.percentile = percentile;
      tail.value = quantile(values, percentile / 100.0);
      return tail;
    }
  }
  return tail;
}

std::string describe(const Tail& tail) {
  char text[64];
  std::snprintf(text, sizeof text, "p%g of %zu samples", tail.percentile,
                tail.samples);
  return text;
}

std::size_t transfer_count(const hbsp::CommSchedule& schedule) {
  std::size_t count = 0;
  for (const auto& phase : schedule.phases) {
    for (const auto& plan : phase.plans) count += plan.transfers.size();
  }
  return count;
}

BlockSummary summarize_blocks(const std::vector<Block>& blocks,
                              double tail_percentile) {
  BlockSummary summary;
  std::vector<double> p50s, tails;
  double percentile = tail_percentile;
  std::size_t samples = 0;
  for (const Block& block : blocks) {
    if (block.ms.empty()) continue;
    const Tail tail = tail_of(block.ms, tail_percentile);
    p50s.push_back(median(block.ms));
    tails.push_back(tail.value);
    percentile = std::min(percentile, tail.percentile);
    samples += block.ms.size();
  }
  summary.p50_ms = fastest(p50s);
  summary.tail_ms = fastest(tails);
  char note[160];
  std::snprintf(note, sizeof note,
                "fastest of %zu blocks' p%g, %zu samples in all",
                tails.size(), percentile, samples);
  summary.tail_note = note;
  return summary;
}

BlockSummary fastest_repetitions(const std::vector<Block>& repetitions,
                                 double tail_percentile) {
  BlockSummary summary;
  if (repetitions.empty() || repetitions.front().ms.empty()) return summary;
  std::vector<double> best = repetitions.front().ms;
  std::size_t used = 0;
  for (const Block& repetition : repetitions) {
    if (repetition.ms.size() < best.size()) continue;
    ++used;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], repetition.ms[i]);
    }
  }
  double total_ms = 0.0;
  for (const double ms : best) total_ms += ms;
  const Tail tail = tail_of(best, tail_percentile);
  summary.ops_per_s = static_cast<double>(best.size()) * 1e3 / total_ms;
  summary.p50_ms = median(best);
  summary.tail_ms = tail.value;
  char note[160];
  std::snprintf(note, sizeof note,
                "p%g over %zu operations, each its fastest of %zu repetitions",
                tail.percentile, best.size(), used);
  summary.tail_note = note;
  return summary;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

Counters Counters::read() {
  return Counters{hbsp::obs::Registry::global().snapshot()};
}

double Counters::counter(const std::string& name) const {
  return static_cast<double>(snapshot.counter(name));
}

double Counters::gauge(const std::string& name) const {
  const auto* gauge = snapshot.gauge(name);
  return gauge != nullptr ? gauge->value : 0.0;
}

double Counters::histogram_sum(const std::string& name) const {
  const auto* histogram = snapshot.histogram(name);
  return histogram != nullptr ? histogram->sum : 0.0;
}

double Counters::histogram_count(const std::string& name) const {
  const auto* histogram = snapshot.histogram(name);
  return histogram != nullptr ? static_cast<double>(histogram->count) : 0.0;
}

namespace {

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void LayerMetrics::read_counters(const Counters& counters, int threads) {
  sim_events = counters.counter("sim.events");
  sim_retry_ratio = ratio(counters.counter("sim.retries"),
                          counters.counter("sim.send_attempts"));
  const double plan_hits = counters.counter("plancache.hits");
  plan_cache_lookups = plan_hits + counters.counter("plancache.misses") +
                       counters.counter("plancache.collisions");
  plan_cache_hit_ratio = ratio(plan_hits, plan_cache_lookups);
  const double scenario_hits = counters.counter("scenario.hits");
  scenario_cache_lookups = scenario_hits + counters.counter("scenario.misses");
  scenario_cache_hit_ratio = ratio(scenario_hits, scenario_cache_lookups);
  // Sigma cell seconds over (sweep wall x workers): 1 when every worker was
  // busy with a cell for the whole of every sweep.
  sweep_parallel_efficiency =
      ratio(counters.histogram_sum("sweep.cell_seconds"),
            counters.histogram_sum("sweep.run_seconds") * threads);
}

void LayerMetrics::report(Result& result) const {
  result.add("sim.ns_per_event", sim_ns_per_event, "ns");
  result.add("sim.busy_s", sim_busy_s, "s");
  result.add("sim.events", sim_events, "count");
  result.add("sim.retry_ratio", sim_retry_ratio, "ratio");
  result.add("core.cost_model.ns_per_transfer", cost_ns_per_transfer, "ns");
  result.add("core.cost_model.busy_s", cost_busy_s, "s");
  result.add("core.topology.build_ms", topology_build_ms, "ms");
  result.add("collectives.advise.us_per_candidate", advise_us_per_candidate,
             "us");
  result.add("collectives.advise.busy_s", advise_busy_s, "s");
  result.add("collectives.advise.regret_max", advise_regret_max, "ratio");
  result.add("collectives.plan.ns_per_message", plan_ns_per_message, "ns");
  result.add("collectives.plan_cache.hit_ratio", plan_cache_hit_ratio,
             "ratio");
  result.add("collectives.plan_cache.lookups", plan_cache_lookups, "count");
  result.add("collectives.plan_cache.get_ns", plan_cache_get_ns, "ns");
  result.add("experiments.scenario_cache.hit_ratio", scenario_cache_hit_ratio,
             "ratio");
  result.add("experiments.scenario_cache.lookups", scenario_cache_lookups,
             "count");
  result.add("experiments.sweep.parallel_efficiency",
             sweep_parallel_efficiency, "ratio");
  result.add("experiments.figure_sweep_ms", figure_sweep_ms, "ms");
  result.add("svc.submit_us_tail", svc_submit_us_tail, "us");
  result.add("svc.wait_ms_mean", svc_wait_ms_mean, "ms");
  result.add("svc.exec_ms_mean", svc_exec_ms_mean, "ms");
  result.add("svc.coalesced_ratio", svc_coalesced_ratio, "ratio");
  result.add("svc.shed_ratio", svc_shed_ratio, "ratio");
  result.add("svc.queue_depth_max", svc_queue_depth_max, "count");
  result.add("loadgen.lag_ms_tail", loadgen_lag_ms_tail, "ms");
  result.add("proc.cpu_util", cpu_util, "ratio");
  result.add("trace.overhead_ratio", trace_overhead_ratio, "ratio");
}

std::map<std::string, SpanTotals> LayerTrace::summarize(
    const std::string& trace_path) const {
  const hbsp::obs::TraceSnapshot snapshot = recorder_.snapshot();
  std::vector<double> self(snapshot.spans.size());
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    self[i] = snapshot.spans[i].duration();
  }
  for (const auto& span : snapshot.spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    SpanTotals& row = totals[snapshot.spans[i].name];
    ++row.count;
    row.total += snapshot.spans[i].duration();
    row.self += self[i];
    row.durations.push_back(snapshot.spans[i].duration());
  }
  hbsp::obs::self_time_table(snapshot, 16).print();
  hbsp::obs::write_chrome_trace(snapshot, trace_path);
  return totals;
}

void LayerTrace::check_untraced(Result& result) const {
  result.check(recorder_.span_count() == 0 &&
                   hbsp::obs::TraceRecorder::global().span_count() == 0,
               "untraced run recorded spans");
}

double self_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it != totals.end() ? it->second.self : 0.0;
}

double mean_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  const auto it = totals.find(name);
  return it != totals.end() && it->second.count > 0
             ? it->second.total / static_cast<double>(it->second.count)
             : 0.0;
}

}  // namespace perfbench
