// scale_sweep: a seeded grid of large machines run through SweepRunner.
//
// Every grid has the same machine classes (flat, two-, three- and
// four-level uniform trees and three- and four-level random trees) so that
// the work of one grid hardly depends on the seed; the seed draws the
// fanouts, the leaf r-cycles and their spread, and the random trees. Each
// cell is one machine x collective at n = 10^6: advise, then every advisor
// candidate through PlanCache::get, priced with CostModel::cost and
// simulated on a fresh ClusterSim, plus one cache-free build_plan of the
// advised spec. advise() itself builds and prices every candidate through
// the plan cache, so the per-candidate PlanCache::get that follows is a hit
// (hit ratio about 0.5). Both memo caches are cleared after every pass over
// the grid, so nothing is reused across cells or passes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "collectives/advisor.hpp"
#include "collectives/plan_cache.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "experiments/scenario_cache.hpp"
#include "experiments/sweep.hpp"
#include "sim/cluster_sim.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hbsp::MachineTree;
using hbsp::coll::CollectiveKind;
using hbsp::coll::PlanRequest;
namespace obs = hbsp::obs;

constexpr std::size_t kItems = 1'000'000;
constexpr CollectiveKind kKinds[] = {CollectiveKind::kGather,
                                     CollectiveKind::kBroadcast,
                                     CollectiveKind::kScatter,
                                     CollectiveKind::kReduce};

/// One machine class of the grid; the seed draws a fanout in
/// [fanout_lo, fanout_hi] (uniform trees) or the per-node fanout range
/// (random trees).
struct MachineClass {
  bool random = false;
  int levels = 1;
  int fanout_lo = 2;
  int fanout_hi = 2;
  int count = 1;  ///< machines of this class per grid
};

/// Fanout ranges are narrow and the big broadcasts (the slowest cells) are
/// a fixed eighth of the grid, so that a grid's work and its cell-time
/// distribution barely depend on the seed.
constexpr MachineClass kClasses[] = {
    // random, levels, fanout range, machines
    {false, 1, 340, 350, 2},
    {false, 2, 11, 12, 2},
    {false, 2, 57, 59, 2},
    {false, 3, 7, 7, 2},
    {false, 3, 21, 21, 5},
    {false, 4, 5, 5, 2},
    {false, 4, 10, 10, 5},
    {true, 3, 8, 8, 4},
    {true, 4, 5, 5, 4},
};

struct Machine {
  std::string label;
  MachineTree tree;
};

struct Grid {
  std::vector<Machine> machines;
  struct Cell {
    std::size_t machine = 0;
    CollectiveKind kind = CollectiveKind::kGather;
  };
  std::vector<Cell> cells;
  double build_ms = 0.0;  ///< wall time of the topology builds
};

/// Leaf r-cycle with a seeded spread: 1, the spread itself, and up to four
/// values in between, shuffled.
std::vector<double> r_cycle(hbsp::util::Rng& rng) {
  const double spread = std::exp(rng.uniform(std::log(2.0), std::log(32.0)));
  const auto length = static_cast<std::size_t>(rng.uniform_u64(2, 6));
  std::vector<double> cycle{1.0, spread};
  while (cycle.size() < length) cycle.push_back(rng.uniform(1.0, spread));
  rng.shuffle(cycle);
  return cycle;
}

Grid make_grid(std::uint64_t seed) {
  hbsp::util::Rng rng{hbsp::util::split_seed(seed, 0x5ca1e)};
  Grid grid;
  double build_seconds = 0.0;
  for (const MachineClass& cls : kClasses) {
    for (int i = 0; i < cls.count; ++i) {
      const int fanout = static_cast<int>(rng.uniform_u64(
          static_cast<std::uint64_t>(cls.fanout_lo),
          static_cast<std::uint64_t>(cls.fanout_hi)));
      const std::vector<double> cycle = r_cycle(rng);
      const std::uint64_t tree_seed = rng();
      char label[96];
      const Clock::time_point start = Clock::now();
      if (cls.random) {
        hbsp::RandomTreeOptions options;
        options.levels = cls.levels;
        options.min_fanout = cls.fanout_lo;
        options.max_fanout = cls.fanout_hi;
        // No childless interior nodes: p is then fixed per class. The median
        // cell falls among these machines' cells, and a seed-drawn p moved
        // op_p50_ms by 10 % between seeds.
        options.leaf_degenerate_probability = 0.0;
        options.max_r = cycle.size() > 1 ? *std::max_element(cycle.begin(),
                                                             cycle.end())
                                         : 8.0;
        grid.machines.push_back(
            {"", hbsp::make_random_tree(options, tree_seed)});
        build_seconds += seconds_since(start);
        std::snprintf(label, sizeof label, "random k=%d p=%d", cls.levels,
                      grid.machines.back().tree.num_processors());
      } else {
        grid.machines.push_back(
            {"", hbsp::make_uniform_tree(cls.levels, fanout, cycle)});
        build_seconds += seconds_since(start);
        std::snprintf(label, sizeof label, "uniform k=%d f=%d p=%d",
                      cls.levels, fanout,
                      grid.machines.back().tree.num_processors());
      }
      grid.machines.back().label = label;
    }
  }
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    for (const CollectiveKind kind : kKinds) grid.cells.push_back({m, kind});
  }
  grid.build_ms = build_seconds * 1e3;
  return grid;
}

/// The configurations advise() compares for `kind`, in its order: fastest
/// and slowest root x balanced and equal shares for the rooted collectives,
/// one- and two-phase from the fastest for broadcast.
std::vector<PlanRequest> candidates(const MachineTree& tree,
                                    CollectiveKind kind) {
  using hbsp::coll::Shares;
  using hbsp::coll::TopPhase;
  const int fast = tree.coordinator_pid(tree.root());
  const int slow = tree.slowest_pid(tree.root());
  std::vector<PlanRequest> requests;
  if (kind == CollectiveKind::kBroadcast) {
    for (const TopPhase top : {TopPhase::kOnePhase, TopPhase::kTwoPhase}) {
      requests.push_back({.kind = kind,
                          .n = kItems,
                          .root_pid = fast,
                          .shares = Shares::kEqual,
                          .top_phase = top});
    }
    return requests;
  }
  for (const int root : {fast, slow}) {
    for (const Shares shares : {Shares::kBalanced, Shares::kEqual}) {
      requests.push_back(
          {.kind = kind, .n = kItems, .root_pid = root, .shares = shares});
    }
    if (slow == fast) break;
  }
  return requests;
}

/// What one cell produced. Everything but `seconds` is deterministic.
struct CellOutcome {
  double seconds = 0.0;
  double regret = 0.0;
  /// (predicted, simulated) of every candidate and the advised one's index
  std::uint64_t digest = 0;
  std::size_t candidates = 0;
  std::size_t transfers_priced = 0;
  std::size_t messages_built = 0;
  std::size_t events = 0;
  std::string error;  ///< first failed output check, empty when correct
};

CellOutcome run_cell(const Machine& machine, CollectiveKind kind,
                     std::size_t index, obs::TraceRecorder& recorder) {
  const MachineTree& tree = machine.tree;
  const std::string track = "cell" + std::to_string(index);
  const Clock::time_point start = Clock::now();
  CellOutcome out;
  const auto fail = [&](const std::string& what) {
    if (out.error.empty()) {
      out.error = machine.label + " " + hbsp::coll::to_string(kind) + ": " +
                  what;
    }
  };
  {
    const obs::WallScope cell_span{recorder, track, "scale_sweep.cell",
                                   obs::SpanKind::kCell};
    hbsp::coll::CollectiveAdvice advice;
    {
      const obs::WallScope span{recorder, track, "collectives.advise",
                                obs::SpanKind::kOther};
      advice = hbsp::coll::advise(tree, kind, kItems);
    }
    const PlanRequest advised = advice.request(kItems);
    const std::vector<PlanRequest> requests = candidates(tree, kind);
    out.candidates = requests.size();
    if (requests.size() != advice.options.size()) {
      fail("advisor compared a different candidate set");
    }
    hbsp::util::Hash64 digest;
    double best = std::numeric_limits<double>::infinity();
    double advised_makespan = -1.0;
    std::shared_ptr<const hbsp::coll::CachedPlan> advised_plan;
    for (std::size_t c = 0; c < requests.size(); ++c) {
      std::shared_ptr<const hbsp::coll::CachedPlan> plan;
      {
        const obs::WallScope span{recorder, track,
                                  "collectives.plan_cache.get",
                                  obs::SpanKind::kOther};
        plan = hbsp::coll::PlanCache::global().get(tree, requests[c]);
      }
      double price = 0.0;
      {
        const obs::WallScope span{recorder, track, "core.cost_model.cost",
                                  obs::SpanKind::kOther};
        price = hbsp::CostModel{tree}.cost(plan->schedule).total();
      }
      out.transfers_priced += transfer_count(plan->schedule);
      if (price != plan->predicted_cost) {
        fail("CostModel price differs from CachedPlan::predicted_cost");
      }
      if (c < advice.options.size() &&
          advice.options[c].predicted_cost != price) {
        fail("advisor option cost differs from the candidate's price");
      }
      double makespan = 0.0;
      std::size_t delivered = 0;
      {
        const obs::WallScope span{recorder, track, "sim.run",
                                  obs::SpanKind::kOther};
        hbsp::sim::ClusterSim sim{tree, hbsp::sim::SimParams{}};
        makespan = sim.run(plan->schedule).makespan;
        delivered = sim.run_metrics().messages_delivered;
        out.events += sim.run_metrics().events;
      }
      if (delivered != plan->schedule.total_messages()) {
        fail("simulator delivered " + std::to_string(delivered) +
             " messages, schedule has " +
             std::to_string(plan->schedule.total_messages()));
      }
      digest.add_double(price).add_double(makespan);
      best = std::min(best, makespan);
      if (requests[c] == advised) {
        advised_makespan = makespan;
        advised_plan = plan;
        digest.add(c);  // which candidate the advisor chose
      }
    }
    hbsp::CommSchedule fresh;
    {
      const obs::WallScope span{recorder, track, "collectives.build_plan",
                                obs::SpanKind::kOther};
      fresh = hbsp::coll::build_plan(tree, advised);
    }
    out.messages_built = fresh.total_messages();
    if (advised_plan == nullptr) {
      fail("advised configuration is not among the candidates");
    } else if (fresh.fingerprint() != advised_plan->schedule.fingerprint()) {
      fail("fresh build_plan fingerprint differs from the cached schedule");
    }
    out.regret = advised_makespan > 0.0 ? advised_makespan / best : 0.0;
    out.digest = digest.digest();
  }
  out.seconds = seconds_since(start);
  return out;
}

/// Everything one measurement produced.
struct Measurement {
  double wall = 0.0;
  double cpu = 0.0;
  std::size_t passes = 0;
  std::size_t cells = 0;
  std::vector<Block> blocks;  ///< one per pass: every cell's ms, in order
  std::uint64_t first_digest = 0;
  bool digests_agree = true;
  double regret_max = 0.0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> slowest;  ///< the first pass's slowest cells
  // Deterministic totals of the first pass.
  std::size_t candidates = 0;
  std::size_t transfers_priced = 0;
  std::size_t messages_built = 0;
  std::size_t events = 0;
  Counters counters;
};

/// Runs passes over `grid` for `seconds`. With `setup_seconds`, times one
/// more set-up after every pass, so that set-ups sample the whole run.
Measurement measure(const Grid& grid, const Options& options, double seconds,
                    obs::TraceRecorder& recorder,
                    std::vector<double>* setup_seconds) {
  Measurement m;
  hbsp::obs::Registry::global().reset();
  hbsp::exp::SweepRunner runner{options.threads};
  hbsp::exp::SweepGrid sweep;
  sweep.processors.resize(grid.cells.size());
  std::iota(sweep.processors.begin(), sweep.processors.end(), 0);
  sweep.kbytes = {1};
  sweep.master_seed = options.seed;
  std::vector<CellOutcome> outcomes(grid.cells.size());

  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  while (m.passes == 0 || seconds_since(start) < seconds) {
    (void)runner.run(sweep, [&](const hbsp::exp::SweepCell& cell) {
      const Grid::Cell& spec = grid.cells[cell.index];
      outcomes[cell.index] =
          run_cell(grid.machines[spec.machine], spec.kind, cell.index,
                   recorder);
      return outcomes[cell.index].regret;
    });
    hbsp::coll::PlanCache::global().clear();
    hbsp::exp::ScenarioCache::global().clear();
    Block& block = m.blocks.emplace_back();

    if (m.passes == 0) {
      std::vector<std::size_t> order(outcomes.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return outcomes[a].seconds > outcomes[b].seconds;
      });
      for (std::size_t i = 0; i < 5 && i < order.size(); ++i) {
        const Grid::Cell& spec = grid.cells[order[i]];
        char line[160];
        std::snprintf(line, sizeof line, "slow cell: %-24s %-9s %8.2f ms",
                      grid.machines[spec.machine].label.c_str(),
                      hbsp::coll::to_string(spec.kind),
                      outcomes[order[i]].seconds * 1e3);
        m.slowest.push_back(line);
      }
    }
    hbsp::util::Hash64 pass_digest;
    for (const CellOutcome& out : outcomes) {
      block.ms.push_back(out.seconds * 1e3);
      ++m.cells;
      pass_digest.add(out.digest);
      if (!out.error.empty()) {
        ++m.failed;
        if (m.errors.size() < 8) m.errors.push_back(out.error);
      }
      if (m.passes == 0) {
        m.regret_max = std::max(m.regret_max, out.regret);
        m.candidates += out.candidates;
        m.transfers_priced += out.transfers_priced;
        m.messages_built += out.messages_built;
        m.events += out.events;
      }
    }
    if (m.passes == 0) {
      m.first_digest = pass_digest.digest();
    } else if (pass_digest.digest() != m.first_digest) {
      m.digests_agree = false;
    }
    ++m.passes;
    if (setup_seconds != nullptr) {
      const Clock::time_point setup_start = Clock::now();
      (void)make_grid(options.seed);
      setup_seconds->push_back(seconds_since(setup_start));
    }
  }
  m.wall = seconds_since(start);
  m.cpu = cpu_seconds() - cpu_start;
  m.counters = Counters::read();
  return m;
}

/// Pinned first-pass digests, per seed, of every (predicted, simulated)
/// pair and every advised choice. A change to the planners, the cost model,
/// the advisor or the simulator that moves any of them fails the output
/// check; this is also what pins collectives.advise.regret_max.
const std::map<std::uint64_t, std::uint64_t>& pinned_digests() {
  static const std::map<std::uint64_t, std::uint64_t> pinned = {
      {kDefaultSeed, 0x8770233f7e222c6cULL},
      {kHeldOutSeed, 0xd5b9e827d4851a26ULL},
  };
  return pinned;
}

}  // namespace

Result run_scale_sweep(const Options& options) {
  Result result;
  const Clock::time_point setup_start = Clock::now();
  const Grid grid = make_grid(options.seed);
  std::vector<double> setup_seconds{seconds_since(setup_start)};
  for (const Machine& machine : grid.machines) {
    result.notes.push_back("machine: " + machine.label);
  }

  LayerTrace layers;
  Measurement m;
  double untraced_ops = 0.0;
  if (options.trace) {
    const Measurement untraced = measure(grid, options, options.seconds / 2,
                                        layers.recorder(), nullptr);
    untraced_ops = static_cast<double>(untraced.cells) / untraced.wall;
    layers.set_enabled(true);
    m = measure(grid, options, options.seconds / 2, layers.recorder(),
                nullptr);
    layers.set_enabled(false);
  } else {
    m = measure(grid, options, options.seconds, layers.recorder(),
                &setup_seconds);
  }

  for (const std::string& line : m.slowest) result.notes.push_back(line);
  result.attempted = m.cells;
  result.failed = m.failed;
  for (const std::string& error : m.errors) result.check(false, error);
  result.check(m.digests_agree,
               "a later pass over the grid produced different outputs");
  result.check(m.counters.counter("sim.events") ==
                   static_cast<double>(m.passes * m.events),
               "registry sim.events differs from the events the runs report");
  const auto pinned = pinned_digests().find(options.seed);
  if (pinned != pinned_digests().end() && pinned->second != m.first_digest) {
    result.check(false,
                 "output digest differs from the value pinned for this seed");
    ++result.failed;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "deterministic: digest=%016llx regret_max=%.17g cells=%zu "
                "candidates=%zu transfers=%zu messages=%zu events=%zu",
                static_cast<unsigned long long>(m.first_digest), m.regret_max,
                grid.cells.size(), m.candidates, m.transfers_priced,
                m.messages_built, m.events);
  result.notes.push_back(line);
  const double ops = static_cast<double>(m.cells) / m.wall;
  std::snprintf(line, sizeof line,
                "passes=%zu threads=%d, whole run %.4g cells/s", m.passes,
                options.threads, ops);
  result.notes.push_back(line);

  if (!options.trace) {
    layers.check_untraced(result);
    const BlockSummary best = fastest_repetitions(m.blocks, 90.0);
    result.add("setup_s", fastest(setup_seconds), "s",
               "fastest of " + std::to_string(setup_seconds.size()) +
                   " set-ups, one per pass");
    result.add("ops_per_s", best.ops_per_s, "1/s",
               "grid cells per second of one worker, each cell's fastest "
               "pass");
    result.add("op_p50_ms", best.p50_ms, "ms",
               "per cell, each cell's fastest pass");
    result.add("op_tail_ms", best.tail_ms, "ms", best.tail_note);
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }
  const auto totals = layers.summarize(options.trace_path);
  const auto self = [&](const char* name) {
    return self_seconds(totals, name);
  };
  const double passes = static_cast<double>(m.passes);
  LayerMetrics layer;
  layer.read_counters(m.counters, options.threads);
  layer.sim_busy_s = self("sim.run");
  layer.sim_ns_per_event = layer.sim_busy_s * 1e9 / layer.sim_events;
  layer.cost_busy_s = self("core.cost_model.cost");
  layer.cost_ns_per_transfer =
      layer.cost_busy_s * 1e9 /
      (passes * static_cast<double>(m.transfers_priced));
  layer.topology_build_ms = grid.build_ms;
  layer.advise_busy_s = self("collectives.advise");
  layer.advise_us_per_candidate =
      layer.advise_busy_s * 1e6 /
      m.counters.counter("coll.candidates_evaluated");
  layer.advise_regret_max = m.regret_max;
  layer.plan_ns_per_message = self("collectives.build_plan") * 1e9 /
                              (passes * static_cast<double>(m.messages_built));
  layer.plan_cache_get_ns =
      mean_seconds(totals, "collectives.plan_cache.get") * 1e9;
  layer.cpu_util = m.cpu / (m.wall * options.threads);
  layer.trace_overhead_ratio = untraced_ops / ops;
  layer.report(result);
  return result;
}

}  // namespace perfbench
