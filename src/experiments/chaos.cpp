#include "experiments/chaos.hpp"

#include <stdexcept>

#include "collectives/plan_cache.hpp"
#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster_sim.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hbsp::exp {
namespace {

using coll::CollectiveKind;
using coll::PlanCache;
using coll::PlanRequest;
using coll::Shares;
using coll::TopPhase;

/// The memoized gather / two-phase broadcast plans the fault cells compare.
std::shared_ptr<const coll::CachedPlan> cached_plan(const MachineTree& tree,
                                                    CollectiveKind kind,
                                                    std::size_t n,
                                                    int root_pid) {
  return PlanCache::global().get(tree,
                                 PlanRequest{.kind = kind,
                                             .n = n,
                                             .root_pid = root_pid,
                                             .shares = Shares::kEqual,
                                             .top_phase = TopPhase::kTwoPhase});
}

std::size_t count_inversions(
    const std::vector<std::vector<double>>& factor) noexcept {
  std::size_t count = 0;
  for (const auto& row : factor) {
    for (const double f : row) count += f < 1.0 ? 1 : 0;
  }
  return count;
}

/// Row cells of the CSV/console formats share one 4-decimal format.
std::vector<std::string> factor_row(std::string collective, double rate,
                                    const std::vector<double>& factors) {
  std::vector<std::string> row{std::move(collective),
                               util::Table::num(rate, 2)};
  for (const double f : factors) row.push_back(util::Table::num(f, 4));
  return row;
}

}  // namespace

std::size_t ChaosTable::gather_inversions() const noexcept {
  return count_inversions(gather_factor);
}

std::size_t ChaosTable::broadcast_inversions() const noexcept {
  return count_inversions(broadcast_factor);
}

util::Table ChaosTable::to_table(const std::string& title,
                                 bool broadcast) const {
  util::Table table{title};
  std::vector<std::string> header{"fault rate"};
  for (const double loss : loss_probs) {
    header.push_back("loss " + util::Table::num(loss, 4));
  }
  table.set_header(std::move(header));
  const auto& factor = broadcast ? broadcast_factor : gather_factor;
  for (std::size_t i = 0; i < fault_rates.size(); ++i) {
    std::vector<std::string> row{util::Table::num(fault_rates[i], 2)};
    for (const double f : factor[i]) row.push_back(util::Table::num(f, 4));
    table.add_row(std::move(row));
  }
  return table;
}

std::string chaos_csv(const ChaosTable& table) {
  std::string text = "collective,fault_rate";
  for (const double loss : table.loss_probs) {
    text += "," + util::Table::num(loss, 4);
  }
  text += '\n';
  const auto emit = [&](const char* name,
                        const std::vector<std::vector<double>>& factor) {
    for (std::size_t i = 0; i < table.fault_rates.size(); ++i) {
      text += name;
      text += "," + util::Table::num(table.fault_rates[i], 2);
      for (const double f : factor[i]) text += "," + util::Table::num(f, 4);
      text += '\n';
    }
  };
  emit("gather", table.gather_factor);
  emit("broadcast", table.broadcast_factor);
  return text;
}

void write_chaos_csv(const ChaosTable& table, const std::string& path) {
  util::CsvWriter csv{path};
  std::vector<std::string> header{"collective", "fault_rate"};
  for (const double loss : table.loss_probs) {
    header.push_back(util::Table::num(loss, 4));
  }
  csv.write_row(header);
  for (std::size_t i = 0; i < table.fault_rates.size(); ++i) {
    csv.write_row(factor_row("gather", table.fault_rates[i],
                             table.gather_factor[i]));
  }
  for (std::size_t i = 0; i < table.fault_rates.size(); ++i) {
    csv.write_row(factor_row("broadcast", table.fault_rates[i],
                             table.broadcast_factor[i]));
  }
}

ImprovementTable gather_root_experiment_with_faults(
    const FigureConfig& config, const faults::FaultPlan& plan,
    SweepRunner& runner) {
  const faults::FaultInjector injector{plan};
  return runner.run(
      {config.processors, config.kbytes, config.noise.seed},
      [&config, &injector](const SweepCell& cell) {
        const MachineTree tree =
            make_paper_testbed(cell.p, config.g, config.L);
        const int fast = tree.coordinator_pid(tree.root());
        const int slow = tree.slowest_pid(tree.root());
        const auto plan_f =
            cached_plan(tree, CollectiveKind::kGather, cell.n, fast);
        const auto plan_s =
            cached_plan(tree, CollectiveKind::kGather, cell.n, slow);
        const double t_f = simulate_makespan(
            tree, *plan_f, config.sim, &injector);
        const double t_s = simulate_makespan(
            tree, *plan_s, config.sim, &injector);
        return t_s / t_f;
      });
}

ImprovementTable broadcast_root_experiment_with_faults(
    const FigureConfig& config, const faults::FaultPlan& plan,
    SweepRunner& runner) {
  const faults::FaultInjector injector{plan};
  return runner.run(
      {config.processors, config.kbytes, config.noise.seed},
      [&config, &injector](const SweepCell& cell) {
        const MachineTree tree =
            make_paper_testbed(cell.p, config.g, config.L);
        const int fast = tree.coordinator_pid(tree.root());
        const int slow = tree.slowest_pid(tree.root());
        const auto plan_f =
            cached_plan(tree, CollectiveKind::kBroadcast, cell.n, fast);
        const auto plan_s =
            cached_plan(tree, CollectiveKind::kBroadcast, cell.n, slow);
        const double t_f = simulate_makespan(
            tree, *plan_f, config.sim, &injector);
        const double t_s = simulate_makespan(
            tree, *plan_s, config.sim, &injector);
        return t_s / t_f;
      });
}

ChaosTable chaos_sweep(const ChaosConfig& config, SweepRunner& runner) {
  if (config.fault_rates.empty() || config.loss_probs.empty()) {
    throw std::invalid_argument{"chaos grid must have both axes non-empty"};
  }
  if (config.p < 2) {
    throw std::invalid_argument{"chaos sweep needs at least two processors"};
  }
  const std::size_t rows = config.fault_rates.size();
  const std::size_t cols = config.loss_probs.size();

  ChaosTable table;
  table.fault_rates = config.fault_rates;
  table.loss_probs = config.loss_probs;
  table.gather_factor.assign(rows, std::vector<double>(cols, 0.0));
  table.broadcast_factor.assign(rows, std::vector<double>(cols, 0.0));

  const std::size_t n = util::ints_in_kbytes(config.kbytes);
  runner.pool().parallel_for(rows * cols, [&](std::size_t index) {
    const std::size_t row = index / cols;
    const std::size_t col = index % cols;

    // The cell's disturbance: rate/loss from the grid position, seed split
    // from the master by position — never by execution order.
    faults::ChaosOptions options = config.disturbance;
    options.slowdown_rate = config.fault_rates[row];
    options.message_loss_probability = config.loss_probs[col];
    options.drop_probability = 0.0;  // both placements must run to completion
    const faults::FaultPlan plan = faults::make_chaos_plan(
        config.p, options, util::split_seed(config.master_seed, index));
    const faults::FaultInjector injector{plan};

    const MachineTree tree = make_paper_testbed(config.p, config.g, config.L);
    const int fast = tree.coordinator_pid(tree.root());
    const int slow = tree.slowest_pid(tree.root());

    const auto gather_plan_f = cached_plan(tree, CollectiveKind::kGather, n, fast);
    const auto gather_plan_s = cached_plan(tree, CollectiveKind::kGather, n, slow);
    const double gather_f = simulate_makespan(
        tree, *gather_plan_f, config.sim, &injector);
    const double gather_s = simulate_makespan(
        tree, *gather_plan_s, config.sim, &injector);
    table.gather_factor[row][col] = gather_s / gather_f;

    const auto bcast_plan_f =
        cached_plan(tree, CollectiveKind::kBroadcast, n, fast);
    const auto bcast_plan_s =
        cached_plan(tree, CollectiveKind::kBroadcast, n, slow);
    const double bcast_f = simulate_makespan(
        tree, *bcast_plan_f, config.sim, &injector);
    const double bcast_s = simulate_makespan(
        tree, *bcast_plan_s, config.sim, &injector);
    table.broadcast_factor[row][col] = bcast_s / bcast_f;
  });
  // The chaos grid shards through the pool directly (two collectives per
  // cell), so it keeps its own cell accounting beside the sweep.* family.
  auto& registry = obs::Registry::global();
  registry.counter("chaos.grid_runs").increment();
  registry.counter("chaos.cells").add(rows * cols);
  registry.gauge("chaos.steals").set(
      static_cast<double>(runner.pool().last_steals()));
  return table;
}

ChaosTable chaos_sweep(const ChaosConfig& config) {
  SweepRunner runner{config.threads};
  return chaos_sweep(config, runner);
}

}  // namespace hbsp::exp
