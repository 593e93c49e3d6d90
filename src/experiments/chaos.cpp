#include "experiments/chaos.hpp"

#include <stdexcept>

#include "collectives/plan_cache.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hbsp::exp {
namespace {

using coll::CollectiveKind;
using coll::PlanRequest;
using coll::Shares;

std::size_t count_inversions(
    const std::vector<std::vector<double>>& factor) noexcept {
  std::size_t count = 0;
  for (const auto& row : factor) {
    for (const double f : row) count += f < 1.0 ? 1 : 0;
  }
  return count;
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
  // p is fixed, so every cell shares one testbed (and its plans).
  const MachineTree tree = make_paper_testbed(config.p, config.g, config.L);
  const int fast = tree.coordinator_pid(tree.root());
  const int slow = tree.slowest_pid(tree.root());
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

    const auto slow_over_fast = [&](CollectiveKind kind) {
      const auto request = [&](int root_pid) {
        return PlanRequest{.kind = kind,
                           .n = n,
                           .root_pid = root_pid,
                           .shares = Shares::kEqual};
      };
      return improvement_factor(tree, request(slow), request(fast),
                                config.sim, &injector);
    };
    table.gather_factor[row][col] = slow_over_fast(CollectiveKind::kGather);
    table.broadcast_factor[row][col] =
        slow_over_fast(CollectiveKind::kBroadcast);
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

}  // namespace hbsp::exp
