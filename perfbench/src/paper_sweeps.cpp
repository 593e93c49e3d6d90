// paper_sweeps: the paper's §5 protocol at paper scale, replicated.
//
// One replica is Fig 3(a), 3(b), 4(a) and 4(b) (9 x 10 cells each) plus the
// 4 x 4 chaos grid, all on the 10-workstation testbed. Replica 0 runs at the
// paper's default seeds, so its CSVs must equal tests/golden byte for byte;
// replicas 1..kReplicas-1 take master seeds split from --seed. Replicas
// cycle and both memo caches are kept across them, so after the first cycle
// every plan and scenario is a cache hit: sweep coordination, BYTEmark
// ranking, the memo hit path and fault-plan set-up do the work, the DES
// almost none. That is the reverse of scale_sweep.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/chaos.hpp"
#include "experiments/figures.hpp"
#include "experiments/scenario_cache.hpp"
#include "collectives/plan_cache.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace exp = hbsp::exp;
namespace obs = hbsp::obs;

constexpr std::size_t kReplicas = 8;
/// Replicas per measurement block (about half a second): 25 cycles of the
/// kReplicas, so block position i always runs replica i % kReplicas, and
/// enough positions for ten beyond their p95.
constexpr std::size_t kBlockReplicas = 200;
static_assert(kBlockReplicas % kReplicas == 0);
/// Blocks between two timed set-ups (about every 3 s).
constexpr std::size_t kBlocksPerSetup = 5;
constexpr const char* kGoldenDir = "tests/golden/";

struct Replica {
  exp::FigureConfig figures;
  exp::ChaosConfig chaos;
};

std::vector<Replica> make_replicas(std::uint64_t seed) {
  std::vector<Replica> replicas(kReplicas);
  for (std::size_t r = 1; r < kReplicas; ++r) {
    replicas[r].figures.noise.seed = hbsp::util::split_seed(seed, 2 * r);
    replicas[r].chaos.master_seed = hbsp::util::split_seed(seed, 2 * r + 1);
  }
  return replicas;
}

/// The CSV text of every table one replica produces.
struct ReplicaOutput {
  std::string fig3a, fig3b, fig4a, fig4b, chaos;

  [[nodiscard]] std::uint64_t digest() const {
    hbsp::util::Hash64 hash;
    for (const std::string* text : {&fig3a, &fig3b, &fig4a, &fig4b, &chaos}) {
      hash.add_string(*text);
    }
    return hash.digest();
  }
};

ReplicaOutput run_replica(const Replica& replica, exp::SweepRunner& runner,
                          obs::TraceRecorder& recorder,
                          const std::string& track) {
  const obs::WallScope replica_span{recorder, track, "paper_sweeps.replica",
                                    obs::SpanKind::kOther};
  const auto figure = [&](const char* name, auto experiment) {
    const obs::WallScope span{recorder, track, name, obs::SpanKind::kOther};
    return exp::improvement_csv(experiment(replica.figures, runner));
  };
  ReplicaOutput out;
  out.fig3a = figure("experiments.fig3a", [](const auto& c, auto& r) {
    return exp::gather_root_experiment(c, r);
  });
  out.fig3b = figure("experiments.fig3b", [](const auto& c, auto& r) {
    return exp::gather_balance_experiment(c, r);
  });
  out.fig4a = figure("experiments.fig4a", [](const auto& c, auto& r) {
    return exp::broadcast_root_experiment(c, r);
  });
  out.fig4b = figure("experiments.fig4b", [](const auto& c, auto& r) {
    return exp::broadcast_balance_experiment(c, r);
  });
  {
    const obs::WallScope span{recorder, track, "experiments.chaos",
                              obs::SpanKind::kOther};
    out.chaos = exp::chaos_csv(exp::chaos_sweep(replica.chaos, runner));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void clear_caches() {
  hbsp::coll::PlanCache::global().clear();
  exp::ScenarioCache::global().clear();
}

/// Inputs plus the expected output digest of every replica, computed cold.
/// The caches are left holding every replica's plans and scenarios, as a
/// later cycle of the measurement would leave them.
struct Setup {
  std::vector<Replica> replicas;
  std::vector<std::uint64_t> expected;
  std::vector<std::string> golden_errors;
  Counters counters;  ///< registry totals of one cold cycle (deterministic)
};

Setup make_setup(const Options& options, exp::SweepRunner& runner,
                 obs::TraceRecorder& recorder) {
  Setup setup;
  setup.replicas = make_replicas(options.seed);
  clear_caches();
  obs::Registry::global().reset();
  for (std::size_t r = 0; r < kReplicas; ++r) {
    const ReplicaOutput out =
        run_replica(setup.replicas[r], runner, recorder, "setup");
    setup.expected.push_back(out.digest());
    if (r != 0) continue;
    const std::pair<const std::string*, const char*> goldens[] = {
        {&out.fig3a, "fig3a.csv"},
        {&out.fig4a, "fig4a.csv"},
        {&out.chaos, "chaos_sweep.csv"}};
    for (const auto& [text, file] : goldens) {
      if (*text != read_file(std::string{kGoldenDir} + file)) {
        setup.golden_errors.push_back(std::string{"replica 0 differs from "} +
                                      kGoldenDir + file);
      }
    }
  }
  setup.counters = Counters::read();
  return setup;
}

struct Measurement {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t replicas = 0;
  std::vector<Block> blocks;  ///< kBlockReplicas replicas' ms each
  std::size_t failed = 0;
  Counters counters;
};

/// Runs whole blocks of replicas for `seconds`. With `setup_seconds`, also
/// times a set-up every kBlocksPerSetup blocks, so that set-ups sample the
/// whole run.
Measurement measure(const Options& options, const Setup& setup,
                    exp::SweepRunner& runner, double seconds,
                    obs::TraceRecorder& recorder,
                    std::vector<double>* setup_seconds) {
  Measurement m;
  clear_caches();
  obs::Registry::global().reset();
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  while (m.blocks.empty() || seconds_since(start) < seconds) {
    Block& block = m.blocks.emplace_back();
    for (std::size_t i = 0; i < kBlockReplicas; ++i, ++m.replicas) {
      const std::size_t r = i % kReplicas;
      const Clock::time_point replica_start = Clock::now();
      const ReplicaOutput out = run_replica(
          setup.replicas[r], runner, recorder, "replica" + std::to_string(r));
      block.ms.push_back(seconds_since(replica_start) * 1e3);
      if (out.digest() != setup.expected[r]) ++m.failed;
    }
    if (setup_seconds != nullptr && m.blocks.size() % kBlocksPerSetup == 0) {
      const Clock::time_point setup_start = Clock::now();
      (void)make_setup(options, runner, recorder);
      setup_seconds->push_back(seconds_since(setup_start));
    }
  }
  m.wall = seconds_since(start);
  m.cpu = cpu_seconds() - cpu_start;
  m.counters = Counters::read();
  return m;
}

}  // namespace

Result run_paper_sweeps(const Options& options) {
  Result result;
  exp::SweepRunner runner{options.threads};
  LayerTrace layers;
  const Clock::time_point setup_start = Clock::now();
  const Setup setup = make_setup(options, runner, layers.recorder());
  std::vector<double> setup_seconds{seconds_since(setup_start)};
  for (const std::string& error : setup.golden_errors) {
    result.check(false, error);
    ++result.failed;
  }
  hbsp::util::Hash64 all;
  for (const std::uint64_t digest : setup.expected) all.add(digest);
  char line[256];
  std::snprintf(
      line, sizeof line,
      "deterministic (one cold cycle of %zu replicas): digest=%016llx "
      "sim.events=%.0f plancache.misses=%.0f plancache.hits=%.0f "
      "scenario.misses=%.0f scenario.hits=%.0f",
      kReplicas, static_cast<unsigned long long>(all.digest()),
      setup.counters.counter("sim.events"),
      setup.counters.counter("plancache.misses"),
      setup.counters.counter("plancache.hits"),
      setup.counters.counter("scenario.misses"),
      setup.counters.counter("scenario.hits"));
  result.notes.push_back(line);

  Measurement m;
  double untraced_ops = 0.0;
  if (options.trace) {
    const Measurement untraced =
        measure(options, setup, runner, options.seconds / 2,
                layers.recorder(), nullptr);
    untraced_ops = static_cast<double>(untraced.replicas) / untraced.wall;
    layers.set_enabled(true);
    m = measure(options, setup, runner, options.seconds / 2,
                layers.recorder(), nullptr);
    layers.set_enabled(false);
  } else {
    m = measure(options, setup, runner, options.seconds, layers.recorder(),
                &setup_seconds);
  }
  result.attempted = m.replicas;
  result.failed += m.failed;
  result.check(m.failed == 0,
               "a replica's CSVs differ from its cold set-up run");
  const double ops = static_cast<double>(m.replicas) / m.wall;
  std::snprintf(line, sizeof line,
                "replicas=%zu threads=%d, whole run %.4g replicas/s",
                m.replicas, options.threads, ops);
  result.notes.push_back(line);

  if (!options.trace) {
    layers.check_untraced(result);
    const BlockSummary best = fastest_repetitions(m.blocks, 95.0);
    result.add("setup_s", fastest(setup_seconds), "s",
               "fastest of " + std::to_string(setup_seconds.size()) +
                   " set-ups spread over the run");
    result.add("ops_per_s", best.ops_per_s, "1/s",
               "replicas per second, each block position's fastest block");
    result.add("op_p50_ms", best.p50_ms, "ms",
               "per replica, each block position's fastest block");
    result.add("op_tail_ms", best.tail_ms, "ms", best.tail_note);
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  const auto totals = layers.summarize(options.trace_path);
  double figure_seconds = 0.0;
  double figure_calls = 0.0;
  for (const char* name : {"experiments.fig3a", "experiments.fig3b",
                           "experiments.fig4a", "experiments.fig4b",
                           "experiments.chaos"}) {
    const auto it = totals.find(name);
    if (it == totals.end()) continue;
    figure_seconds += it->second.total;
    figure_calls += static_cast<double>(it->second.count);
  }
  LayerMetrics layer;
  layer.read_counters(m.counters, options.threads);
  layer.figure_sweep_ms =
      figure_calls > 0.0 ? figure_seconds * 1e3 / figure_calls : 0.0;
  layer.cpu_util = m.cpu / (m.wall * options.threads);
  layer.trace_overhead_ratio = untraced_ops / ops;
  layer.report(result);
  return result;
}

}  // namespace perfbench
